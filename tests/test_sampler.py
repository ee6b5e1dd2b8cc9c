import pytest

from tamari.blossoming import BlossomingTree, from_interval, to_interval
from tamari.errors import InvalidSequence, UnsupportedSize
from tamari.intervals import enumerate_intervals, interval_to_text
from tamari.sampler import (
    MAX_SAMPLE_SIZE,
    RandomSource,
    marked_tree_to_sequence,
    sample_blossoming,
    sample_composition,
    sample_interval,
    sequence_to_marked_tree,
    valid_shifts,
)

# every weak composition of n - 1 into 3n + 3 parts, from tamari verify's oracles
from tamari.verify import _compositions as all_compositions

# upper 0.001 quantiles of the chi-square distribution
CHI2_CRIT = {2: 13.8155, 8: 26.1245, 67: 108.5256}


def chi_square(observed, expected):
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))


# -------------------------------------------------------------- random source


def test_random_source_is_deterministic():
    a = RandomSource(12345)
    b = RandomSource(12345)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


def test_random_source_below_bounds():
    rng = RandomSource(7)
    for bound in (1, 2, 3, 10, 68, 1000, 2**64):
        for _ in range(200):
            assert 0 <= rng.below(bound) < bound


def test_random_source_split_diverges():
    rng = RandomSource(99)
    child = rng.split()
    assert [rng.next_u64() for _ in range(3)] != [child.next_u64() for _ in range(3)]


# --------------------------------------------------------------- compositions


def test_composition_size_one_is_constant():
    rng = RandomSource(1)
    for _ in range(20):
        assert sample_composition(1, rng) == (0,) * 6


def test_composition_support_and_uniformity_n2():
    support = sorted(all_compositions(2))
    assert len(support) == 9
    rng = RandomSource(2024)
    counts = {c: 0 for c in support}
    draws = 9000
    for _ in range(draws):
        counts[sample_composition(2, rng)] += 1
    stat = chi_square(list(counts.values()), [draws / 9] * 9)
    assert stat < CHI2_CRIT[8]


# ----------------------------------------------------------------- cycle lemma


def test_valid_shifts_size_one():
    assert valid_shifts((0,) * 6) == [(0,) * 6, (0,) * 6]


def naive_failing_block(seq):
    # the first block i whose prefix sum falls below i, or None
    blocks = [sum(seq[i:i + 3]) for i in range(0, len(seq), 3)]
    return next((i for i in range(len(blocks) - 1) if sum(blocks[: i + 1]) < i), None)


def naive_valid_shifts(seq):
    # direct per-rotation oracle for the block-walk implementation
    rotations = [seq[i:] + seq[:i] for i in range(0, len(seq), 3)]
    return [r for r in rotations if naive_failing_block(r) is None]


def test_valid_shifts_against_naive_oracle():
    for n in (1, 2, 3, 4):
        for comp in all_compositions(n):
            assert valid_shifts(comp) == naive_valid_shifts(comp)
            # the decoder accepts exactly those rotations and names the
            # first failing block of every other one
            for shift in range(n + 1):
                rotated = comp[3 * shift:] + comp[:3 * shift]
                block = naive_failing_block(rotated)
                if block is None:
                    sequence_to_marked_tree(rotated)
                else:
                    with pytest.raises(InvalidSequence, match=f"fails at block {block}$"):
                        sequence_to_marked_tree(rotated)
    rng = RandomSource(77)
    for _ in range(50):
        comp = sample_composition(30, rng)
        assert valid_shifts(comp) == naive_valid_shifts(comp)


def test_valid_shifts_rejects_bad_input():
    with pytest.raises(InvalidSequence):
        valid_shifts((1, 0, 0))
    with pytest.raises(InvalidSequence):
        valid_shifts((5,) + (0,) * 8)


# ------------------------------------------------------- marked-tree encoding


def test_decode_size_one():
    tree, mark = sequence_to_marked_tree((0,) * 6)
    assert tree.n == 1
    assert marked_tree_to_sequence(tree, mark) == (0,) * 6


def test_marked_tree_round_trip_from_tree_side():
    for n in range(1, 6):
        for interval in enumerate_intervals(n):
            tree = from_interval(interval)
            for e in range(tree.n):
                seq = marked_tree_to_sequence(tree, e)
                tree2, mark2 = sequence_to_marked_tree(seq)
                assert tree2 == tree
                assert BlossomingTree(tree2.items).items == tree2.items
                assert marked_tree_to_sequence(tree2, mark2) == seq


def test_encoding_round_trips_at_large_n_and_depth():
    # the comb is one path of n nodes, far deeper than the recursion limit
    n = 2 * 10**4
    seqs = [(1, 0, 0) * (n - 1) + (0,) * 6]
    rng = RandomSource(31)
    for _ in range(3):
        seqs.extend(valid_shifts(sample_composition(1000, rng)))
    for seq in seqs:
        tree, mark = sequence_to_marked_tree(seq)
        assert marked_tree_to_sequence(tree, mark) == seq
        assert to_interval(tree).n == len(seq) // 3 - 1


def test_decode_rejects_bad_sequences():
    with pytest.raises(InvalidSequence):
        sequence_to_marked_tree((1, 0, 0, 0, 0, 0))  # sums to 1, not 0


# ------------------------------------------------------------------- sampling


def test_sample_size_one_is_constant():
    rng = RandomSource(5)
    one = enumerate_intervals(1)[0]
    for _ in range(10):
        assert sample_interval(1, rng) == one


def test_sample_uniformity_n2():
    rng = RandomSource(314159)
    support = {interval_to_text(i): 0 for i in enumerate_intervals(2)}
    draws = 30000
    for _ in range(draws):
        support[interval_to_text(sample_interval(2, rng))] += 1
    assert len(support) == 3
    stat = chi_square(list(support.values()), [draws / 3] * 3)
    assert stat < CHI2_CRIT[2]


def test_sampled_objects_validate():
    rng = RandomSource(8)
    for n in (3, 10, 40):
        tree = sample_blossoming(n, rng)
        assert tree.n == n
        interval = sample_interval(n, rng)
        assert interval.n == n


SAMPLE_FIXTURE_SEED_2718 = [
    "UDUDUD|UDUDUD",
    "UUUDDD|UUUDDD",
    "UUDDUD|UUDUDD",
    "UUUDDD|UUUDDD",
]


def test_sampling_golden_fixture():
    # frozen once from seed 2718; guards cross-platform reproducibility
    rng = RandomSource(2718)
    observed = [interval_to_text(sample_interval(3, rng)) for _ in range(4)]
    assert observed == SAMPLE_FIXTURE_SEED_2718


def test_sample_requires_positive_size():
    with pytest.raises(UnsupportedSize):
        sample_interval(0, RandomSource(1))
    with pytest.raises(UnsupportedSize, match="cap"):
        sample_interval(MAX_SAMPLE_SIZE + 1, RandomSource(1))
