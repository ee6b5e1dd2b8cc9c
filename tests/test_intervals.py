import pytest

from tamari.errors import NotAnInterval, NotDerisable, SizeMismatch, UnsupportedSize
from tamari.intervals import (
    NonCrossingPartition,
    TYPE_00,
    TYPE_10,
    TYPE_11,
    bi_length_vector,
    canopy_type_counts,
    derise,
    dual_interval,
    enumerate_intervals,
    gaps,
    interval_from_json,
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
    joint_canopy,
    make_interval,
    refines,
    rise,
    smooth_flawed_pairs,
)
from tamari.trees import (
    LEAF,
    enumerate_binary_trees,
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
    assert joint_canopy(SIZE2) == (TYPE_11, TYPE_10, TYPE_00)
    assert canopy_type_counts(SIZE2) == (1, 1, 1)
    assert canopy_type_counts(make_interval(T_A, T_A)) == (2, 1, 0)


def test_joint_canopy_never_01():
    for n in range(1, 7):
        for interval in enumerate_intervals(n):
            assert "01" not in joint_canopy(interval)


def test_bi_length_examples():
    one = enumerate_intervals(1)[0]
    assert bi_length_vector(one) == ((1, 0), (0, 1))
    assert bi_length_vector(SIZE2) == ((1, 0), (1, 1), (0, 1))


# -------------------------------------------------------------- flawed pairs


def test_flawed_pair_characterization_of_intervals():
    # a pair is an interval iff its smooth drawing has no flawed pair
    for n in range(1, 7):
        trees = enumerate_binary_trees(n)
        for low in trees:
            for up in trees:
                flawed = smooth_flawed_pairs(low, up)
                assert (not flawed) == tamari_leq(low, up)


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
    NonCrossingPartition([[1, 4], [2, 3]])


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
    assert interval_from_json(text) == SIZE2


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        '{"lower":1,"upper":"UD"}',
        '{"lower":"UD"}',
        '{"n":true,"lower":"UD","upper":"UD"}',
        '{"n":1.0,"lower":"UD","upper":"UD"}',
        pytest.param("[" * 100000, id="deeply-nested"),
    ],
)
def test_json_parser_rejects_wrong_shapes(text):
    # only an object with string trees and an int (not bool) size parses
    with pytest.raises(ValueError):
        interval_from_json(text)
