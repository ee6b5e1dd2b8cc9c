import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamari import (
    LEAF,
    BinaryTree,
    InvalidBracketVector,
    InvalidDyckWord,
    SizeMismatch,
    UnsupportedSize,
    bracket_vector,
    canopy,
    contact_vector,
    degree_vector,
    descent_vector,
    dual_bracket_vector,
    dual_degree_vector,
    dyck_from_tree,
    enumerate_binary_trees,
    from_tree_pair,
    mirror,
    right_rotations,
    smooth_arcs,
    tamari_leq,
    tree_from_bracket_vector,
    tree_from_dual_bracket_vector,
    tree_from_dyck,
    to_tree_pair,
)
from tamari.trees import _check_dyck

T_A = tree_from_dyck("UUDD")  # (leaf, (leaf, leaf))
T_B = tree_from_dyck("UDUD")  # ((leaf, leaf), leaf)


def catalan(n):
    # independent oracle: Catalan recurrence
    cat = [1]
    for m in range(1, n + 1):
        cat.append(sum(cat[i] * cat[m - 1 - i] for i in range(m)))
    return cat[n]


def mirror_oracle(t):
    if t.is_leaf:
        return LEAF
    return BinaryTree(mirror_oracle(t.right), mirror_oracle(t.left))


def all_trees(n):
    return enumerate_binary_trees(n)


# ---------------------------------------------------------------- enumeration


def test_enumerate_base_cases():
    assert all_trees(0) == (LEAF,)
    assert set(all_trees(2)) == {T_A, T_B}
    assert len(all_trees(2)) == 2


def test_enumerate_catalan_counts():
    for n in range(9):
        assert len(all_trees(n)) == catalan(n)
    assert len(all_trees(8)) == 1430


def test_enumerate_no_duplicates():
    for n in range(7):
        trees = all_trees(n)
        assert len(set(trees)) == len(trees)


def test_enumerate_cap_is_a_usage_error():
    with pytest.raises(UnsupportedSize):
        enumerate_binary_trees(13)


# --------------------------------------------------------------------- mirror


def test_mirror_examples():
    assert mirror(LEAF) == LEAF
    assert mirror(T_A) == T_B


def test_mirror_matches_recursive_oracle_and_involutes():
    for n in range(9):
        for t in all_trees(n):
            m = mirror(t)
            assert m == mirror_oracle(t)
            assert mirror(m) == t


# ------------------------------------------------------------ bracket vectors


def test_bracket_vector_examples():
    assert bracket_vector(T_A) == (1, 0)
    assert dual_bracket_vector(T_A) == (0, 0)
    assert bracket_vector(T_B) == (0, 0)
    assert dual_bracket_vector(T_B) == (0, 1)


def test_dual_bracket_is_reversed_mirror_bracket():
    for n in range(9):
        for t in all_trees(n):
            assert dual_bracket_vector(t) == tuple(reversed(bracket_vector(mirror(t))))


def test_bracket_round_trips():
    for n in range(9):
        for t in all_trees(n):
            assert tree_from_bracket_vector(bracket_vector(t)) == t
            assert tree_from_dual_bracket_vector(dual_bracket_vector(t)) == t


def test_bracket_decoding_examples():
    assert tree_from_bracket_vector((1, 0)) == T_A
    assert tree_from_bracket_vector((0, 0)) == T_B
    tree_from_bracket_vector((2, 0, 0))  # decodable
    with pytest.raises(InvalidBracketVector):
        tree_from_bracket_vector((0, 2, 0))


@pytest.mark.parametrize(
    "decode, encode",
    [
        (tree_from_bracket_vector, bracket_vector),
        (tree_from_dual_bracket_vector, dual_bracket_vector),
    ],
)
def test_bracket_decoding_brute_force(decode, encode):
    # oracle: a vector with entries in -1..n+1 decodes exactly when it is the
    # encoding of some tree, and then to that very tree; the re-encoding
    # check the decoders no longer run lives on here
    for n in range(7):
        valid = {encode(t): t for t in all_trees(n)}
        for v in itertools.product(range(-1, n + 2), repeat=n):
            if v in valid:
                t = decode(v)
                assert t == valid[v] and encode(t) == v
            else:
                with pytest.raises(InvalidBracketVector):
                    decode(v)


def test_deep_combs_decode_and_encode_iteratively():
    # combs of size 10^5 through every decoder, every encoder, the vector
    # statistics and the diagram round trip: nothing may hit the recursion
    # limit or take quadratic time
    n = 10**5
    left_comb = right_comb = LEAF
    for _ in range(n):
        left_comb = BinaryTree(left_comb, LEAF)
        right_comb = BinaryTree(LEAF, right_comb)
    assert dyck_from_tree(left_comb) == "UD" * n
    assert dyck_from_tree(right_comb) == "U" * n + "D" * n
    assert bracket_vector(left_comb) == dual_bracket_vector(right_comb) == (0,) * n
    for t in (left_comb, right_comb):
        assert tree_from_dyck(dyck_from_tree(t)) == t
        assert tree_from_bracket_vector(bracket_vector(t)) == t
        assert tree_from_dual_bracket_vector(dual_bracket_vector(t)) == t
    for lower, upper in ((left_comb, right_comb), (right_comb, left_comb)):
        assert to_tree_pair(from_tree_pair(lower, upper)) == (lower, upper)
    assert contact_vector("UD" * n) == degree_vector(left_comb) == (n,) + (0,) * n
    assert contact_vector("U" * n + "D" * n) == degree_vector(right_comb) == (1,) * n + (0,)
    assert dual_degree_vector(left_comb) == (0,) + (1,) * n
    assert dual_degree_vector(right_comb) == (0,) * n + (n,)
    assert canopy(left_comb) == (1,) + (0,) * n
    assert canopy(right_comb) == (1,) * n + (0,)
    assert smooth_arcs(left_comb) == tuple((0, i) for i in range(1, n + 1))
    assert smooth_arcs(right_comb) == tuple((i - 1, n) for i in range(1, n + 1))
    assert mirror(left_comb) == right_comb and mirror(right_comb) == left_comb
    assert tamari_leq(left_comb, right_comb) and not tamari_leq(right_comb, left_comb)


def test_decoded_comb_walks_and_hashes_like_the_built_one():
    # a decoded tree holds only vectors; the first .left builds all of its
    # nodes in one pass, so walking a size-10^5 comb to its last leaf is linear
    n = 10**5
    built = LEAF
    for _ in range(n):
        built = BinaryTree(built, LEAF)
    decoded = tree_from_dyck("UD" * n)
    sub, depth = decoded, 0
    while not sub.is_leaf:
        assert sub.right.is_leaf
        sub, depth = sub.left, depth + 1
    assert depth == n
    assert decoded == built and hash(decoded) == hash(built)
    assert len({decoded, built}) == 1
    # a node built over decoded children reads their vectors whole
    assert bracket_vector(BinaryTree(decoded, decoded)) == (0,) * n + (n,) + (0,) * n


# -------------------------------------------------------------- degree vectors


def test_degree_vector_examples():
    assert degree_vector(T_A) == (1, 1, 0)
    assert degree_vector(T_B) == (2, 0, 0)
    assert dual_degree_vector(T_B) == (0, 1, 1)
    assert dual_degree_vector(T_A) == (0, 0, 2)


def test_degree_vector_is_lukasiewicz():
    for n in range(9):
        for t in all_trees(n):
            d = degree_vector(t)
            assert sum(d) == n
            for i in range(n):
                assert sum(d[: i + 1]) > i


def test_degree_vector_matches_diagram_arc_counts():
    # the arc at white point t - 1/2 of the diagram drawing lands on the
    # black point at t - 1 - b_t
    for n in range(9):
        for t in all_trees(n):
            counts = [0] * (n + 1)
            for i, b in enumerate(dual_bracket_vector(t), start=1):
                counts[i - 1 - b] += 1
            assert degree_vector(t) == tuple(counts)


def test_dual_degree_is_reversed_degree_of_mirror():
    for n in range(9):
        for t in all_trees(n):
            assert dual_degree_vector(t) == tuple(reversed(degree_vector(mirror(t))))


# --------------------------------------------------------------------- canopy


def test_canopy_examples():
    assert canopy(T_A) == (1, 1, 0)
    assert canopy(T_B) == (1, 0, 0)


def test_canopy_boundary_bits():
    for n in range(1, 9):
        for t in all_trees(n):
            bits = canopy(t)
            assert bits[0] == 1 and bits[-1] == 0
            assert bits == tuple(1 if d > 0 else 0 for d in degree_vector(t))


# ---------------------------------------------------------------- smooth arcs


def test_smooth_arcs_examples():
    single = tree_from_dyck("UD")
    assert smooth_arcs(single) == ((0, 1),)
    assert set(smooth_arcs(T_A)) == {(0, 2), (1, 2)}


def test_smooth_arcs_deepest_cover_bijection():
    # every unit segment lies below a unique deepest arc, and the map from
    # segments to deepest arcs is a bijection
    for n in range(1, 9):
        for t in all_trees(n):
            arcs = smooth_arcs(t)
            deepest = []
            for seg in range(1, n + 1):
                covering = [a for a in arcs if a[0] <= seg - 1 and seg <= a[1]]
                assert covering
                deepest.append(min(covering, key=lambda a: a[1] - a[0]))
            assert sorted(deepest) == sorted(arcs)


def test_smooth_arcs_attachment_conditions():
    # the two side conditions satisfied by smooth drawings
    for n in range(1, 8):
        for t in all_trees(n):
            arcs = set(smooth_arcs(t))
            for seg in range(1, n + 1):
                covering = [a for a in arcs if a[0] <= seg - 1 and seg <= a[1]]
                xl, xr = min(covering, key=lambda a: a[1] - a[0])
                if xl < seg - 1:
                    assert (xl, seg - 1) in arcs
                if seg < xr:
                    assert (seg, xr) in arcs


# ---------------------------------------------------------------- Tamari order


def rotation_order_oracle(t, trees):
    # BFS over single right rotations: the up-set of t
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for u in frontier:
            for v in right_rotations(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def test_tamari_leq_examples():
    assert tamari_leq(T_B, T_A)
    assert not tamari_leq(T_A, T_B)
    with pytest.raises(SizeMismatch):
        tamari_leq(T_A, LEAF)


def test_tamari_leq_agrees_with_rotation_closure():
    for n in range(7):
        trees = all_trees(n)
        for t in trees:
            up_set = rotation_order_oracle(t, trees)
            for u in trees:
                assert tamari_leq(t, u) == (u in up_set)


def test_tamari_leq_dual_bracket_formulation():
    for n in range(7):
        for t in all_trees(n):
            vt = dual_bracket_vector(t)
            for u in all_trees(n):
                vu = dual_bracket_vector(u)
                assert tamari_leq(t, u) == all(x >= y for x, y in zip(vt, vu))


def test_right_rotations_examples():
    assert right_rotations(LEAF) == []
    assert right_rotations(T_B) == [T_A]
    # preorder: the root first, then its left subtree
    left_comb = tree_from_dyck("UDUDUD")
    assert [dyck_from_tree(u) for u in right_rotations(left_comb)] == ["UDUUDD", "UUDDUD"]


def test_right_rotations_deep_comb():
    # a right comb of size 3000 ending in T_B: its one rotation, at the
    # bottom, is rebuilt through 2998 ancestors
    comb, rotated = T_B, T_A
    for _ in range(2998):
        comb, rotated = BinaryTree(LEAF, comb), BinaryTree(LEAF, rotated)
    assert right_rotations(comb) == [rotated]


# ----------------------------------------------------------------- Dyck walks


def test_dyck_examples():
    assert dyck_from_tree(T_A) == "UUDD"
    assert dyck_from_tree(T_B) == "UDUD"
    assert dyck_from_tree(LEAF) == ""


def test_dyck_round_trip():
    for n in range(9):
        for t in all_trees(n):
            decoded = tree_from_dyck(dyck_from_tree(t))
            assert decoded == t
            assert dual_bracket_vector(decoded) == dual_bracket_vector(t)


def test_dyck_decoder_raises_what_the_letter_scan_raises():
    # every word over {U, D, x} of length <= 8 round-trips, or raises the
    # error that the letter-by-letter scan raises, message and all
    for length in range(9):
        for word in map("".join, itertools.product("UDx", repeat=length)):
            try:
                _check_dyck(word)
            except InvalidDyckWord as exc:
                with pytest.raises(InvalidDyckWord, match=f"^{re.escape(str(exc))}$"):
                    tree_from_dyck(word)
            else:
                assert dyck_from_tree(tree_from_dyck(word)) == word


def test_invalid_dyck_words():
    for bad in ("UDD", "DU", "UU", "UXDD"):
        with pytest.raises(InvalidDyckWord):
            tree_from_dyck(bad)
        with pytest.raises(InvalidDyckWord):
            contact_vector(bad)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("UD"), max_size=400).map("".join))
def test_dyck_parser_never_accepts_junk(word):
    ups, downs = word.count("U"), word.count("D")
    heights = list(itertools.accumulate(1 if c == "U" else -1 for c in word))
    ok = ups == downs and all(h >= 0 for h in heights)
    if ok:
        assert dyck_from_tree(tree_from_dyck(word)) == word
    else:
        with pytest.raises(InvalidDyckWord):
            tree_from_dyck(word)


# -------------------------------------------------- contact / descent vectors


def test_contact_descent_examples():
    assert contact_vector("UUDD") == (1, 1, 0)
    assert descent_vector("UUDD") == (0, 0, 2)
    assert contact_vector("UDUD") == (2, 0, 0)
    assert descent_vector("UDUD") == (0, 1, 1)


def test_contact_vector_is_degree_vector():
    for n in range(9):
        for t in all_trees(n):
            w = dyck_from_tree(t)
            assert contact_vector(w) == degree_vector(t)
            assert descent_vector(w) == dual_degree_vector(t)


def test_contact_zero_iff_up_followed_by_down():
    for n in range(1, 9):
        for t in all_trees(n):
            w = dyck_from_tree(t)
            c = contact_vector(w)
            ups = [p for p, ch in enumerate(w) if ch == "U"]
            for i, p in enumerate(ups, start=1):
                assert (c[i] == 0) == (w[p + 1] == "D")
