import pytest

from tamari.errors import NotAnInterval, NotDerisable, SizeMismatch, UnsupportedSize
from tamari.intervals import (
    NonCrossingPartition,
    bi_length_vector,
    canopy_type_counts,
    derise,
    dual_interval,
    enumerate_intervals,
    gaps,
    interval_from_text,
    interval_to_json,
    interval_to_text,
    iota,
    is_infinitely_modern,
    is_k_modern,
    is_kreweras,
    is_modern,
    is_new,
    is_self_dual,
    is_synchronized,
    is_trivial,
    make_interval,
    refines,
    rise,
)
from tamari.sampler import RandomSource, sample_interval
from tamari.trees import (
    LEAF,
    BinaryTree,
    canopy,
    degree_vector,
    dyck_from_tree,
    enumerate_binary_trees,
    mirror,
    tamari_leq,
    tree_from_dyck,
)

T_A = tree_from_dyck("UUDD")
T_B = tree_from_dyck("UDUD")
SIZE2 = make_interval(T_B, T_A)


def interval_count_oracle(n):
    # brute force over all tree pairs
    trees = enumerate_binary_trees(n)
    return sum(1 for t in trees for u in trees if tamari_leq(t, u))


# --------------------------------------------------------------- construction


def test_make_interval_examples():
    assert make_interval(T_B, T_A).n == 2
    with pytest.raises(NotAnInterval):
        make_interval(T_A, T_B)
    with pytest.raises(SizeMismatch):
        make_interval(T_A, tree_from_dyck("UD"))
    with pytest.raises(UnsupportedSize):
        make_interval(LEAF, LEAF)


def test_interval_counts_small():
    assert interval_count_oracle(4) == 68
    assert len(enumerate_intervals(1)) == 1
    assert len(enumerate_intervals(2)) == 3
    assert len(enumerate_intervals(5)) == 399


def test_enumerate_intervals_cap():
    with pytest.raises(UnsupportedSize):
        enumerate_intervals(10)
    with pytest.raises(UnsupportedSize):
        enumerate_intervals(0)


def test_enumeration_by_dominance_equals_the_pair_filter():
    # the filter over all pairs of trees is the definition, in the same order
    for n in range(1, 8):
        trees = enumerate_binary_trees(n)
        expected = [(low, up) for low in trees for up in trees if tamari_leq(low, up)]
        assert [(i.lower, i.upper) for i in enumerate_intervals(n)] == expected


# -------------------------------------------------------------------- duality


def test_dual_examples():
    assert dual_interval(SIZE2) == SIZE2
    triv = make_interval(T_A, T_A)
    assert dual_interval(triv) == make_interval(T_B, T_B)


def test_dual_is_involution():
    for n in range(1, 8):
        for interval in enumerate_intervals(n):
            assert dual_interval(dual_interval(interval)) == interval


def test_is_self_dual_examples():
    assert is_self_dual(SIZE2)
    assert not is_self_dual(make_interval(T_A, T_A))
    assert sum(1 for i in enumerate_intervals(2) if is_self_dual(i)) == 1


# -------------------------------------------------------------- rise / derise


def test_rise_derise_examples():
    one = enumerate_intervals(1)[0]
    assert rise(one) == (T_B, T_A)
    assert derise(SIZE2) == one
    with pytest.raises(NotDerisable):
        derise(make_interval(T_A, T_A))
    with pytest.raises(NotDerisable):
        derise(one)


def test_derise_undoes_rise_on_modern_intervals():
    for n in range(1, 8):
        for interval in enumerate_intervals(n):
            if is_modern(interval):
                low, up = rise(interval)
                risen = make_interval(low, up)  # rise of modern is an interval
                assert derise(risen) == interval


def test_rise_of_decoded_trees():
    # trees read from text hold only vectors, and a risen node reads them
    # whole; derise slices them back out
    for n in range(1, 6):
        for text in map(interval_to_text, enumerate_intervals(n)):
            lower, upper = text.split("|")
            interval = interval_from_text(text)
            low, up = rise(interval)
            assert (dyck_from_tree(low), dyck_from_tree(up)) == (lower + "UD", "U" + upper + "D")
            assert low.left == interval.lower and up.right == interval.upper
            if is_modern(interval):
                assert derise(make_interval(low, up)) == interval


def test_derisable_shape_does_not_imply_new():
    # ((T_A, leaf), (leaf, T_B)) is an interval of the right shape whose
    # inner pair is not an interval
    from tamari.trees import BinaryTree

    outer = make_interval(BinaryTree(T_A, LEAF), BinaryTree(LEAF, T_B))
    with pytest.raises(NotDerisable):
        derise(outer)
    assert not is_new(outer)


# ----------------------------------------------------------------- canopies


def test_joint_canopy_examples():
    # upper bit over lower bit: types 11, 10 and 00
    joint = tuple(zip(canopy(SIZE2.upper), canopy(SIZE2.lower)))
    assert joint == ((1, 1), (1, 0), (0, 0))
    assert canopy_type_counts(SIZE2) == (1, 1, 1)
    assert canopy_type_counts(make_interval(T_A, T_A)) == (2, 1, 0)


def test_joint_canopy_never_01():
    # every one of the n + 1 positions has type 11, 00 or 10
    for n in range(1, 7):
        for interval in enumerate_intervals(n):
            assert sum(canopy_type_counts(interval)) == n + 1


def test_bi_length_examples():
    one = enumerate_intervals(1)[0]
    assert bi_length_vector(one) == ((1, 0), (0, 1))
    assert bi_length_vector(SIZE2) == ((1, 0), (1, 1), (0, 1))


# ---------------------------------------------------------------- classifiers


def test_family_counts_n3():
    intervals = enumerate_intervals(3)
    assert len(intervals) == 13
    assert sum(1 for i in intervals if is_modern(i)) == 12
    assert sum(1 for i in intervals if is_kreweras(i)) == 12
    assert sum(1 for i in intervals if is_infinitely_modern(i)) == 12
    assert sum(1 for i in intervals if is_synchronized(i)) == 6
    assert sum(1 for i in intervals if is_trivial(i)) == 5


def test_synchronized_set_n2():
    sync = [i for i in enumerate_intervals(2) if is_synchronized(i)]
    assert sorted(interval_to_text(i) for i in sync) == ["UDUD|UDUD", "UUDD|UUDD"]


def test_trivial_intervals_are_synchronized_and_kreweras():
    for n in range(1, 8):
        for interval in enumerate_intervals(n):
            if is_trivial(interval):
                assert is_synchronized(interval)
                assert is_kreweras(interval)


def test_not_every_trivial_interval_is_modern():
    # the balanced tree on 3 nodes gives a trivial, non-modern interval
    balanced = tree_from_dyck("UDUUDD")
    triv = make_interval(balanced, balanced)
    assert is_trivial(triv) and not is_modern(triv)


def test_modern_iff_no_unit_gap():
    for n in range(1, 8):
        for interval in enumerate_intervals(n):
            gs = gaps(interval)
            assert is_modern(interval) == (1 not in gs)
            assert is_infinitely_modern(interval) == (not gs)


def test_infinitely_modern_iff_rise_iteration_survives():
    # redundant check: iterating rise n extra steps agrees with the
    # separated-pair characterization
    for n in range(1, 7):
        for interval in enumerate_intervals(n):
            assert is_infinitely_modern(interval) == is_k_modern(interval, n)


def test_k_modern_matches_gap_lengths():
    for n in range(1, 7):
        for interval in enumerate_intervals(n):
            gs = gaps(interval)
            for k in range(n + 1):
                assert is_k_modern(interval, k) == all(g > k for g in gs)


def test_kreweras_pairs_are_intervals():
    for n in range(1, 8):
        trees = enumerate_binary_trees(n)
        for low in trees:
            pl = iota(low)
            for up in trees:
                if refines(pl, iota(up)):
                    assert tamari_leq(low, up)


def test_modern_synchronized_is_catalan_and_infinitely_modern():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for n in range(1, 8):
        both = [
            i
            for i in enumerate_intervals(n)
            if is_modern(i) and is_synchronized(i)
        ]
        assert len(both) == catalan[n]
        assert all(is_infinitely_modern(i) for i in both)


def test_duality_preserves_families():
    for n in range(1, 8):
        intervals = enumerate_intervals(n)
        moderns = sum(1 for i in intervals if is_modern(i))
        dual_moderns = sum(1 for i in intervals if is_modern(dual_interval(i)))
        assert moderns == dual_moderns
        for interval in intervals:
            assert is_synchronized(interval) == is_synchronized(dual_interval(interval))


def test_new_intervals_are_rises_of_modern():
    for n in range(2, 7):
        news = {
            interval_to_text(i) for i in enumerate_intervals(n) if is_new(i)
        }
        risen = set()
        for interval in enumerate_intervals(n - 1):
            if is_modern(interval):
                low, up = rise(interval)
                risen.add(interval_to_text(make_interval(low, up)))
        assert news == risen


def test_is_new_size_one():
    assert is_new(enumerate_intervals(1)[0])


# --------------------------------------------------- non-crossing partitions


def test_iota_examples():
    assert iota(T_A) == NonCrossingPartition([[1, 2]])
    assert iota(T_B) == NonCrossingPartition([[1], [2]])


def test_iota_injective():
    for n in range(1, 9):
        trees = enumerate_binary_trees(n)
        images = {iota(t) for t in trees}
        assert len(images) == len(trees)


def test_non_crossing_validation():
    with pytest.raises(ValueError):
        NonCrossingPartition([[1, 3], [2, 4]])
    with pytest.raises(ValueError):
        NonCrossingPartition([[1, 1]])
    with pytest.raises(ValueError):
        NonCrossingPartition([[1, 4], [2, 5], [3]])
    NonCrossingPartition([[1, 4], [2, 3]])


def test_deeply_nested_blocks_are_checked_in_one_pass():
    # the tree whose right branches are {1, n}, {2, n - 1}, ...: every block
    # stays open while all the later ones open and close inside it
    n = 20_000
    t = LEAF
    for _ in range(n // 2):
        t = BinaryTree(LEAF, BinaryTree(t, LEAF))
    blocks = [[k, n + 1 - k] for k in range(1, n // 2 + 1)]
    assert iota(t) == NonCrossingPartition(blocks)
    assert is_kreweras(make_interval(t, t))


def _cases_at_500():
    rng = RandomSource(500)
    sampled = [sample_interval(500, rng) for _ in range(6)]
    left_comb = LEAF
    for _ in range(500):
        left_comb = BinaryTree(left_comb, LEAF)
    # the whole lattice is self-dual, a trivial interval is Kreweras
    cases = sampled + [make_interval(left_comb, mirror(left_comb))]
    return cases + [make_interval(i.lower, i.lower) for i in sampled[:3]]


def test_shortcut_classifiers_match_their_oracles_at_500():
    cases = _cases_at_500()
    self_dual = [is_self_dual(i) for i in cases]
    kreweras = [is_kreweras(i) for i in cases]
    assert self_dual == [dual_interval(i) == i for i in cases]
    assert kreweras == [refines(iota(i.lower), iota(i.upper)) for i in cases]
    assert set(self_dual) == set(kreweras) == {False, True}


def _right_branches(t):
    """iota(t) read off the tree itself: blocks of the maximal right branches."""
    blocks = {}
    # (subtree, smallest infix label inside, top of the right branch it hangs on)
    stack = [(t, 1, 0)]
    while stack:
        sub, lo, top = stack.pop()
        if not sub.is_leaf:
            label = lo + sub.left.size
            top = top or label
            blocks.setdefault(top, []).append(label)
            stack.append((sub.left, lo, 0))
            stack.append((sub.right, label + 1, top))
    return NonCrossingPartition(blocks.values())


def _canopy_bits(t):
    return tuple(1 if d > 0 else 0 for d in degree_vector(t))


def _new_by_definition(interval):
    if interval.n == 1:
        return True
    try:
        inner = derise(interval)
    except NotDerisable:
        return False
    return tamari_leq(*rise(inner))


def test_vector_classifiers_match_their_definitions():
    # every interval with n <= 6, the n = 500 pool and the size-10^5 comb
    # intervals: bottom to top, and both ends as trivial intervals
    small = [i for n in range(1, 7) for i in enumerate_intervals(n)]
    left_comb = LEAF
    for _ in range(100_000):
        left_comb = BinaryTree(left_comb, LEAF)
    right_comb = mirror(left_comb)
    combs = [
        make_interval(left_comb, right_comb),
        make_interval(left_comb, left_comb),
        make_interval(right_comb, right_comb),
    ]
    for interval in small + _cases_at_500() + combs:
        low, up = interval.lower, interval.upper
        assert is_modern(interval) == tamari_leq(*rise(interval))
        assert is_new(interval) == _new_by_definition(interval)
        low_bits, up_bits = _canopy_bits(low), _canopy_bits(up)
        assert canopy(low) == low_bits and canopy(up) == up_bits
        assert is_synchronized(interval) == (low_bits == up_bits)
        joint = list(zip(up_bits, low_bits))
        expected = joint.count((1, 1)), joint.count((0, 0)), joint.count((1, 0))
        assert canopy_type_counts(interval) == expected
        assert iota(low) == _right_branches(low) and iota(up) == _right_branches(up)
        assert is_kreweras(interval) == refines(iota(low), iota(up))
        if interval.n <= 500:
            assert is_infinitely_modern(interval) == (not gaps(interval))
    for member in (is_modern, is_new, is_synchronized, is_kreweras, is_infinitely_modern):
        assert {member(i) for i in small} == {False, True}
    assert [is_new(i) for i in combs] == [True, False, False]


def test_refines_basics():
    p = NonCrossingPartition([[1], [2], [3]])
    q = NonCrossingPartition([[1, 2, 3]])
    assert refines(p, q) and not refines(q, p)
    assert refines(p, p)
    with pytest.raises(SizeMismatch):
        refines(p, NonCrossingPartition([[1]]))


# -------------------------------------------------------------- serialization


def test_text_round_trip():
    assert interval_to_text(SIZE2) == "UDUD|UUDD"
    assert interval_from_text("UDUD|UUDD") == SIZE2
    for n in range(1, 6):
        for interval in enumerate_intervals(n):
            assert interval_from_text(interval_to_text(interval)) == interval


def test_json_round_trip():
    text = interval_to_json(SIZE2)
    assert text == '{"n":2,"lower":"UDUD","upper":"UUDD"}'
