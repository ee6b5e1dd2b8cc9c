from itertools import accumulate, product

import pytest

from tamari.blossoming import (
    BLUE,
    BUD,
    RED,
    BlossomingTree,
    bi_degree,
    closure,
    from_interval,
    from_meandering,
    is_half_turn_symmetric,
    is_synchronized_tree,
    node_type,
    non_kreweras_paths,
    non_modern_edges,
    non_modern_paths,
    reflect,
    switch_colors,
    to_debug_text,
    to_interval,
    to_meandering,
    trivial_bud_position_check,
)
from tamari.errors import InvalidBlossoming, NotATree, UnsupportedSize
from tamari.intervals import (
    dual_interval,
    enumerate_intervals,
    is_k_modern,
    is_modern,
    is_self_dual,
    is_synchronized,
    is_trivial,
    make_interval,
)
from tamari.meandering import MeanderingDiagram, from_tree_pair, half_turn
from tamari.sampler import RandomSource, sample_blossoming
from tamari.trees import enumerate_binary_trees, tree_from_dyck

# images(n): every interval of size n with its blossoming tree, from the
# cache that tamari verify's checks share in this process
from tamari.verify import _images as images

T_A = tree_from_dyck("UUDD")
T_B = tree_from_dyck("UDUD")
SIZE2 = make_interval(T_B, T_A)


# ----------------------------------------------------------------- unfolding


def test_unfold_size_one():
    m = MeanderingDiagram((0,), (1,))
    b = from_meandering(m)
    assert b.n == 1 and len(b.items) == 2
    assert b.half_color(0, 0) == BLUE
    assert b.half_color(0, 1) == RED


def test_unfold_rejects_non_trees():
    with pytest.raises(NotATree):
        from_meandering(MeanderingDiagram((0, 0), (2, 2)))
    with pytest.raises(UnsupportedSize):
        from_meandering(MeanderingDiagram((), ()))


def test_unfold_path_example():
    b = from_meandering(from_tree_pair(T_B, T_A))
    assert [bi_degree(b, v) for v in range(3)] == [(1, 0), (1, 1), (0, 1)]


def test_unfolding_indexes_like_the_validating_constructor():
    for n in range(1, 7):
        for _, tree in images(n):
            checked = BlossomingTree(tree.items)
            assert tree._ends == checked._ends


def test_edge_table_agrees_with_the_items():
    # every plain item (e, c) at slot s of node v, read back through the
    # accessors, on the unfolded trees, their validated copies, a draw and
    # its color switch and reflection; every producer numbers the edges 0..n-1
    trees = [t for n in range(1, 7) for _, t in images(n)]
    trees += [BlossomingTree(t.items) for t in trees]
    draw = sample_blossoming(1000, RandomSource(97))
    trees += [draw, switch_colors(draw), reflect(draw)]
    for b in trees:
        ids = sorted(it[0] for seq in b.items for it in seq if it != BUD)
        assert ids == sorted(2 * list(range(b.n)))
        for v, seq in enumerate(b.items):
            plain = [(s, it) for s, it in enumerate(seq) if it != BUD]
            for s, (e, c) in plain:
                w = b.across(e, v)
                assert b.slot(e, v) == s
                assert b.half_color(e, v) == c
                assert b.across(e, w) == v != w
                assert set(b.edge_ends(e)) == {v, w}
            assert b.neighbors(v) == tuple((it[0], b.across(it[0], v)) for _, it in plain)


def test_validation_rejects_bad_structures():
    # three buds at a node
    with pytest.raises(InvalidBlossoming):
        BlossomingTree([[BUD, BUD, BUD, (0, BLUE)], [BUD, BUD, (0, RED)]])
    # monochromatic edge
    with pytest.raises(InvalidBlossoming):
        BlossomingTree([[BUD, BUD, (0, BLUE)], [BUD, BUD, (0, BLUE)]])
    # buds fail to separate the colors
    with pytest.raises(InvalidBlossoming):
        BlossomingTree(
            [
                [BUD, (0, BLUE), BUD, (1, BLUE)],
                [BUD, BUD, (0, RED)],
                [BUD, BUD, (1, RED)],
            ]
        )
    # a single node is not allowed
    with pytest.raises(InvalidBlossoming):
        BlossomingTree([[BUD, BUD]])
    with pytest.raises(InvalidBlossoming, match="bad item 'x'"):
        BlossomingTree([[BUD, BUD, "x"], [BUD, BUD, (0, RED)]])
    with pytest.raises(InvalidBlossoming, match="bad color 'G'"):
        BlossomingTree([[BUD, BUD, (0, "G")], [BUD, BUD, (0, RED)]])
    with pytest.raises(InvalidBlossoming, match="edge 1 has 0 half-edges"):
        BlossomingTree([[BUD, BUD, (0, BLUE)], [BUD, BUD, (0, RED)], [BUD, BUD]])
    with pytest.raises(InvalidBlossoming, match="edge 0 has 3 half-edges"):
        BlossomingTree([[BUD, BUD, (0, BLUE), (0, BLUE)], [BUD, BUD, (0, RED)]])
    with pytest.raises(InvalidBlossoming, match="contain a cycle"):
        BlossomingTree(
            [[BUD, BUD, (0, BLUE), (1, BLUE)], [BUD, BUD, (0, RED), (1, RED)], [BUD, BUD]]
        )
    # edge ids are exactly the ints 0..n-1: this path of size 2 is valid
    # with the id 1 at node 1, and n, -1, True (== 1) and "0" are rejected
    def path(e):
        return [[BUD, BUD, (0, BLUE)], [BUD, (0, RED), BUD, (e, BLUE)], [BUD, BUD, (1, RED)]]

    assert BlossomingTree(path(1)).n == 2
    for bad in (2, -1, True, "0"):
        with pytest.raises(InvalidBlossoming, match=f"bad edge id {bad!r} at node 1"):
            BlossomingTree(path(bad))


# -------------------------------------------------------------------- closure


def test_closure_size_one():
    b = from_meandering(MeanderingDiagram((0,), (1,)))
    # node 0, edge 0, node 1: two closure edges, dangling ends 0 and 1
    assert closure(b) == (0, 0, 1)


def test_closure_invariants():
    for n in range(1, 8):
        for _, b in images(n):
            path = closure(b)
            assert len(path) == 2 * n + 1
            assert sorted(path[::2]) == list(range(n + 1))
            assert sorted(path[1::2]) == list(range(n))
            assert path[0] < path[-1]


def _dangling_nodes(tree):
    """Oracle: the nodes of the two buds no leg closes.  Buds raise and legs
    lower a height along the contour; from just after a lowest point, a bud
    stays open when the height never falls back below it."""
    steps = []  # the node of each bud, None for each leg
    v, slot = 0, 0
    for _ in range(4 * tree.n + 2):
        item = tree.items[v][slot]
        steps.append(v if item == BUD else None)
        if item != BUD:
            v = tree.across(item[0], v)
            slot = tree.slot(item[0], v)
        slot = (slot + 1) % len(tree.items[v])
    heights = list(accumulate(-1 if s is None else 1 for s in steps))
    start = heights.index(min(heights)) + 1
    steps = steps[start:] + steps[:start]
    heights = list(accumulate(-1 if s is None else 1 for s in steps))
    found, low = [], len(steps)
    for s, h in zip(reversed(steps), reversed(heights)):
        if s is not None and low >= h:
            found.append(s)
        low = min(low, h)
    return sorted(found)


def test_closure_is_a_hamiltonian_path_ending_at_the_dangling_nodes():
    # on seeded draws with their reflections and color switches, and on the
    # unfoldings of their diagrams and of the size-10^5 comb interval: the
    # closure alternates nodes and edges, visits each once and ends at the
    # two dangling nodes; an unfolded diagram closes along its axis, black
    # point k being node k and white point t edge t - 1, and stretches back
    rng = RandomSource(1717)
    draws = [sample_blossoming(n, rng) for n in (50, 1000)]
    trees = [t for b in draws for t in (b, reflect(b), switch_colors(b))]
    n = 10**5
    diagrams = [to_meandering(t) for t in trees]
    diagrams.append(from_tree_pair(tree_from_dyck("UD" * n), tree_from_dyck("U" * n + "D" * n)))
    for m in diagrams:
        tree = from_meandering(m)
        assert closure(tree) == (0,) + tuple(k for t in range(1, m.n + 1) for k in (t - 1, t))
        assert to_meandering(tree) == m
        trees.append(tree)
    for tree in trees:
        path = closure(tree)
        assert len(path) == 2 * tree.n + 1
        assert sorted(path[::2]) == list(range(tree.n + 1))
        assert sorted(path[1::2]) == list(range(tree.n))
        assert [path[0], path[-1]] == _dangling_nodes(tree)


def test_trusted_stretch_equals_the_validated_diagram():
    # each producer that builds its output unchecked must build what the
    # validating constructor builds from the same data, on seeded draws with
    # their reflections and color switches, and on every image with n <= 6
    rng = RandomSource(2718)
    draws = [sample_blossoming(n, rng) for n in (50, 1000)]
    trees = [t for b in draws for t in (b, reflect(b), switch_colors(b))]
    trees += (b for n in range(1, 7) for _, b in images(n))
    for tree in trees:
        m = to_meandering(tree)
        for d in (m, half_turn(m)):
            assert d == MeanderingDiagram(d.up, d.lo)
        interval = to_interval(tree)
        for i in (interval, dual_interval(interval)):
            assert i == make_interval(i.lower, i.upper)
        image = from_interval(interval)
        assert image.items == from_meandering(from_tree_pair(interval.lower, interval.upper)).items
        for b in (tree, reflect(tree), switch_colors(tree), image):
            assert BlossomingTree(b.items).items == b.items


# -------------------------------------------------------------- the bijection


def test_bijection_size_one():
    one = enumerate_intervals(1)[0]
    b = from_interval(one)
    assert b.n == 1
    assert to_interval(b) == one


def test_bijection_injective_at_four():
    assert len({b for _, b in images(4)}) == 68


def test_a_tree_is_known_by_its_closure_diagram():
    rng = RandomSource(5)
    interval, b = images(3)[7]
    fresh = [
        from_meandering(to_meandering(b)),
        from_interval(interval),
        switch_colors(b),
        reflect(b),
        sample_blossoming(4, rng),
    ]
    # no producer stores a diagram, so comparing closes each tree itself
    for tree in fresh:
        assert tree._diagram is None
        assert to_meandering(tree) is to_meandering(tree) is tree._diagram
    pairs = [p for n in range(1, 5) for p in images(n)]
    trees = [t for _, b in pairs for t in (b, reflect(b), switch_colors(b))]
    for x in trees:
        assert hash(x) == hash(to_meandering(x))
        for y in trees:
            assert (x == y) == (to_meandering(x) == to_meandering(y))


# ----------------------------------------------------------------- involutions


def test_reflect_is_involution_and_commutes_with_color_switch():
    for n in range(1, 7):
        for _, b in images(n):
            assert reflect(reflect(b)) == b
            assert switch_colors(reflect(b)) == reflect(switch_colors(b))


def test_reflect_exchanges_kreweras_and_infinitely_modern_patterns():
    for n in range(1, 7):
        for _, b in images(n):
            assert bool(non_kreweras_paths(b)) == bool(non_modern_paths(reflect(b)))


def test_half_turn_symmetry_examples():
    assert is_half_turn_symmetric(from_interval(SIZE2))
    assert not is_half_turn_symmetric(from_interval(make_interval(T_A, T_A)))


def test_half_turn_symmetry_matches_self_duality():
    for n in range(1, 6):
        count = 0
        for interval, b in images(n):
            sym = is_half_turn_symmetric(b)
            assert sym == is_self_dual(interval)
            assert sym == (to_meandering(b) == half_turn(to_meandering(b)))
            count += sym
        if n == 4:
            assert count == 4


# ----------------------------------------------------------- node statistics


def test_node_types_size_one():
    b = from_interval(enumerate_intervals(1)[0])
    assert {node_type(b, v) for v in range(2)} == {"11", "00"}


# ------------------------------------------------------------------- patterns


def test_non_modern_edge_example():
    balanced = tree_from_dyck("UDUUDD")
    b = from_interval(make_interval(balanced, balanced))
    assert len(non_modern_edges(b)) == 1


def test_non_modern_edges_are_length_one_paths():
    for n in range(1, 6):
        for _, b in images(n):
            short = {tuple(p) for p in non_modern_paths(b) if len(p) == 2}
            via_edges = set()
            for e in non_modern_edges(b):
                u, v = sorted(b.edge_ends(e))
                via_edges.add((u, v))
            assert {tuple(sorted(p)) for p in short} == via_edges


def test_k_modern_matches_bounded_path_lengths():
    for n in range(1, 6):
        for interval, b in images(n):
            lengths = [len(p) - 1 for p in non_modern_paths(b)]
            for k in range(n + 1):
                assert is_k_modern(interval, k) == all(ell > k for ell in lengths)


def test_bud_axis_adjacency():
    # the white point of an edge sits next to the black point of a node on
    # the axis iff the clockwise successor of the edge at that node is a bud
    for n in range(1, 7):
        for _, b in images(n):
            m = to_meandering(b)
            canonical = from_meandering(m)
            for t in range(1, n + 1):
                for v in (m.up[t - 1], m.lo[t - 1]):
                    succ = canonical.items[v][canonical.slot(t - 1, v) - 1]
                    adjacent = v in (t - 1, t)
                    assert (succ == BUD) == adjacent


def test_synchronized_trees_reduce_to_proper_two_coloring():
    for n in range(1, 8):
        for interval, b in images(n):
            if not is_synchronized_tree(b):
                continue
            # buds sit side by side at every node
            for v in range(n + 1):
                slots = [i for i, it in enumerate(b.items[v]) if it == BUD]
                gap = (slots[1] - slots[0]) % len(b.items[v])
                assert gap == 1 or (slots[0] - slots[1]) % len(b.items[v]) == 1
            # node colors (the shared half-edge color) properly 2-color the tree
            color = {v: node_type(b, v) for v in range(n + 1)}
            for v in range(n + 1):
                for _, w in b.neighbors(v):
                    assert color[v] != color[w]


def test_bicoloring_rigidity():
    # of the 2^n choices of a blue end per edge, the validating constructor
    # accepts exactly the original coloring and its global swap
    for n in range(1, 5):
        for _, b in images(n):
            valid = set()
            for blue in product(*map(b.edge_ends, range(b.n))):
                items = tuple(
                    tuple(
                        it if it == BUD else (it[0], BLUE if blue[it[0]] == v else RED)
                        for it in seq
                    )
                    for v, seq in enumerate(b.items)
                )
                try:
                    BlossomingTree(items)
                except InvalidBlossoming:
                    continue
                valid.add(items)
            assert valid == {b.items, switch_colors(b).items}


# ------------------------------------------------------ trivial-interval check


def test_trivial_bud_positions():
    for n in range(1, 6):
        for _, b in images(n):
            # a reflection keeps the unfolding's numbering, not its closure ends
            for tree in (b, switch_colors(b), reflect(b)):
                assert trivial_bud_position_check(tree) == is_trivial(to_interval(tree))


def test_trivial_bud_positions_hold_up_to_seven():
    from tamari.trees import enumerate_binary_trees

    for n in (6, 7):
        for t in enumerate_binary_trees(n):
            assert trivial_bud_position_check(from_interval(make_interval(t, t)))


def test_trivial_bud_positions_false_at_two():
    assert not trivial_bud_position_check(from_interval(SIZE2))


def test_reflections_of_trivial_are_modern_synchronized():
    for n in range(1, 7):
        reflected = set()
        mod_sync = set()
        for interval, b in images(n):
            if trivial_bud_position_check(b):
                reflected.add(reflect(b))
            if is_modern(interval) and is_synchronized(interval):
                mod_sync.add(b)
        assert reflected == mod_sync


# -------------------------------------------------------------- debug format


def test_debug_text_lists_all_nodes():
    b = from_interval(SIZE2)
    text = to_debug_text(b)
    assert text.count("node") == 3
    assert "bud" in text
