import pytest

from tamari.errors import (
    InvalidDecomposition,
    InvalidDiagram,
    NotATree,
    SizeMismatch,
)
from tamari.intervals import (
    dual_interval,
    enumerate_intervals,
    is_kreweras,
    make_interval,
)
from tamari.meandering import (
    MeanderingDiagram,
    compose,
    decompose,
    diagram_from_json,
    diagram_to_json,
    flawed_pairs,
    from_tree_pair,
    half_turn,
    is_meandering_tree,
    non_kreweras_pairs,
    to_tree_pair,
    underlying_edges,
)
from tamari.trees import (
    enumerate_binary_trees,
    tamari_leq,
    tree_from_dyck,
)

T_A = tree_from_dyck("UUDD")
T_B = tree_from_dyck("UDUD")


def all_pairs(n):
    trees = enumerate_binary_trees(n)
    for low in trees:
        for up in trees:
            yield low, up


def literal_invariants_hold(up, lo):
    # the raw non-crossing conditions, used to cross-check the constructor
    n = len(up)
    for t in range(1, n + 1):
        if not 0 <= up[t - 1] <= t - 1:
            return False
        if not t <= lo[t - 1] <= n:
            return False
    for s in range(1, n + 1):
        for t in range(s + 1, n + 1):
            if not (up[t - 1] <= up[s - 1] or up[t - 1] >= s):
                return False
            if not (lo[s - 1] <= t - 1 or lo[s - 1] >= lo[t - 1]):
                return False
    return True


# --------------------------------------------------------------- construction


def test_constructor_matches_literal_invariants():
    # over every candidate endpoint array at small sizes, the constructor
    # accepts exactly the arrays satisfying the range and non-crossing
    # conditions; up to n = 3 the ends also go one past their ranges
    import itertools

    for n in range(5):
        pad = 1 if n <= 3 else 0
        for up in itertools.product(*(range(-pad, t + pad) for t in range(1, n + 1))):
            los = itertools.product(*(range(t - pad, n + 1 + pad) for t in range(1, n + 1)))
            for lo in los:
                ok = literal_invariants_hold(up, lo)
                if ok:
                    MeanderingDiagram(up, lo)
                else:
                    with pytest.raises(InvalidDiagram):
                        MeanderingDiagram(up, lo)


def test_diagram_counts_are_catalan_squared():
    # the diagram drawing is a bijection from pairs of trees
    import itertools

    catalan = [1, 1, 2, 5, 14]
    for n in range(1, 5):
        count = 0
        for up in itertools.product(*(range(t) for t in range(1, n + 1))):
            for lo in itertools.product(*(range(t, n + 1) for t in range(1, n + 1))):
                if literal_invariants_hold(up, lo):
                    count += 1
        assert count == catalan[n] ** 2


# ------------------------------------------------------------------ phi / psi


def test_from_tree_pair_examples():
    m = from_tree_pair(T_B, T_A)
    assert (m.up, m.lo) == ((0, 1), (1, 2))
    m = from_tree_pair(T_A, T_A)
    assert (m.up, m.lo) == ((0, 1), (2, 2))
    m = from_tree_pair(T_A, T_B)
    assert (m.up, m.lo) == ((0, 0), (2, 2))
    assert sorted(underlying_edges(m)) == [(0, 2), (0, 2)]
    assert not is_meandering_tree(m)
    with pytest.raises(SizeMismatch):
        from_tree_pair(T_A, tree_from_dyck("UD"))


def test_from_tree_pair_equals_the_validated_diagram():
    for n in range(1, 7):
        for low, up in all_pairs(n):
            m = from_tree_pair(low, up)
            assert m == MeanderingDiagram(m.up, m.lo)


def test_to_tree_pair_inverts():
    assert to_tree_pair(MeanderingDiagram((0, 1), (1, 2))) == (T_B, T_A)
    for n in range(1, 8):
        for low, up in all_pairs(n):
            assert to_tree_pair(from_tree_pair(low, up)) == (low, up)


def test_round_trip_from_diagram_side():
    import itertools

    for n in range(1, 6):
        for up in itertools.product(*(range(t) for t in range(1, n + 1))):
            for lo in itertools.product(*(range(t, n + 1) for t in range(1, n + 1))):
                if literal_invariants_hold(up, lo):
                    m = MeanderingDiagram(up, lo)
                    assert from_tree_pair(*to_tree_pair(m)) == m


def test_tree_iff_interval():
    for n in range(1, 8):
        for low, up in all_pairs(n):
            assert is_meandering_tree(from_tree_pair(low, up)) == tamari_leq(low, up)


# --------------------------------------------------------------- flawed pairs


def test_flawed_pairs_examples():
    assert len(flawed_pairs(from_tree_pair(T_A, T_B))) == 1
    for n in range(1, 8):
        for interval in enumerate_intervals(n):
            assert flawed_pairs(from_tree_pair(interval.lower, interval.upper)) == []


# ---------------------------------------------------------- non-Kreweras pairs


def test_non_kreweras_pairs_empty_on_size_one():
    interval = enumerate_intervals(1)[0]
    assert non_kreweras_pairs(from_tree_pair(interval.lower, interval.upper)) == []


def test_non_kreweras_emptiness_matches_classifier():
    for n in range(1, 8):
        for interval in enumerate_intervals(n):
            m = from_tree_pair(interval.lower, interval.upper)
            assert (not non_kreweras_pairs(m)) == is_kreweras(interval)


def test_non_kreweras_pairs_iff_upper_representation_crosses():
    # flipping lower arcs above the axis creates a crossing exactly when a
    # flawed or non-Kreweras pair exists; on trees only the latter remain
    for n in range(1, 7):
        for interval in enumerate_intervals(n):
            m = from_tree_pair(interval.lower, interval.upper)
            crossings = []
            arcs = [(m.up[t - 1], t - 0.5) for t in range(1, n + 1)]
            arcs += [(s - 0.5, m.lo[s - 1]) for s in range(1, n + 1)]
            for i in range(len(arcs)):
                for j in range(len(arcs)):
                    a, b = arcs[i], arcs[j]
                    if a[0] < b[0] < a[1] < b[1]:
                        crossings.append((a, b))
            assert bool(crossings) == bool(non_kreweras_pairs(m))


def test_explicit_kreweras_interval_from_partitions():
    # the Kreweras interval on {1..7} given by the refinement
    # {{1,4},{2},{3},{5,7},{6}} <= {{1,4,5,7},{2,3},{6}}
    from tamari.intervals import NonCrossingPartition, iota, refines

    p = NonCrossingPartition([[1, 4], [2], [3], [5, 7], [6]])
    q = NonCrossingPartition([[1, 4, 5, 7], [2, 3], [6]])
    trees = enumerate_binary_trees(7)
    low = next(t for t in trees if iota(t) == p)
    up = next(t for t in trees if iota(t) == q)
    assert refines(p, q)
    interval = make_interval(low, up)
    assert is_kreweras(interval)
    assert non_kreweras_pairs(from_tree_pair(low, up)) == []


# ------------------------------------------------------------------ half turn


def test_half_turn_examples():
    m = MeanderingDiagram((0, 1), (1, 2))
    assert half_turn(m) == m


def test_half_turn_is_dual_transfer():
    for n in range(1, 8):
        for interval in enumerate_intervals(n):
            m = from_tree_pair(interval.lower, interval.upper)
            d = dual_interval(interval)
            assert half_turn(m) == from_tree_pair(d.lower, d.upper)


def test_half_turn_involution_on_all_diagrams():
    for n in range(1, 7):
        for low, up in all_pairs(n):
            m = from_tree_pair(low, up)
            assert half_turn(half_turn(m)) == m


# -------------------------------------------------------- decompose / compose


def test_decompose_size_one():
    m = MeanderingDiagram((0,), (1,))
    left, right, j = decompose(m)
    assert left.n == 0 and right.n == 0 and j == 0
    assert compose(left, right, j) == m


def test_decomposed_parts_are_meandering_trees():
    # decompose builds its parts unchecked; hold them to the validating
    # constructor on every image up to size 7
    for n in range(1, 8):
        for interval in enumerate_intervals(n):
            left, right, _ = decompose(from_tree_pair(interval.lower, interval.upper))
            for part in (left, right):
                assert MeanderingDiagram(part.up, part.lo) == part
                assert is_meandering_tree(part)


def test_decompose_requires_tree():
    with pytest.raises(NotATree):
        decompose(from_tree_pair(T_A, T_B))


def test_compose_rejects_enclosed_point():
    right = from_tree_pair(T_A, T_A)  # lo = (2, 2): arc over point 1
    for j in (1, -1, right.n + 1):  # enclosed, or outside the right part
        with pytest.raises(InvalidDecomposition):
            compose(MeanderingDiagram((), ()), right, j)


# -------------------------------------------------------------- serialization


def test_json_round_trip():
    m = MeanderingDiagram((0, 1), (1, 2))
    assert diagram_to_json(m) == '{"n":2,"up":[0,1],"lo":[1,2]}'
    assert diagram_from_json(diagram_to_json(m)) == m
