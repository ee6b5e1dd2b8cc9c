import pytest

from tamari.blossoming import from_interval, reflect_interval, to_interval
from tamari.counting import (
    FAMILY_PREDICATES,
    Family,
    count,
    count_by_canopy_matches,
    count_self_dual,
    count_synchronized_by_types,
    modern_series_coefficients,
    tally,
    trivariate_coefficients,
)
from tamari.errors import UnsupportedSize
from tamari.intervals import is_infinitely_modern, is_kreweras, make_interval
from tamari.sampler import RandomSource, sample_blossoming, sample_interval
from tamari.verify import _PATTERNS

EXPECTED_GENERAL = [1, 3, 13, 68, 399, 2530, 16965, 118668]


# ------------------------------------------------------------- closed formulas


def test_count_examples():
    assert count(Family.GENERAL, 1) == 1
    assert count(Family.GENERAL, 4) == 68
    assert count(Family.SYNCHRONIZED, 3) == 6
    assert count(Family.MODERN, 3) == 12
    assert count(Family.KREWERAS, 3) == 12
    assert count(Family.INFINITELY_MODERN, 3) == 12
    assert count(Family.MODERN_SYNCHRONIZED, 3) == 5


def test_count_general_sequence():
    for n, expected in enumerate(EXPECTED_GENERAL, start=1):
        assert count(Family.GENERAL, n) == expected


def test_modern_at_zero_and_new_at_one():
    assert count(Family.MODERN, 0) == 1
    assert count(Family.NEW, 1) == 1
    with pytest.raises(UnsupportedSize):
        count(Family.GENERAL, 0)


def test_kreweras_equals_infinitely_modern():
    for n in range(1, 11):
        assert count(Family.KREWERAS, n) == count(Family.INFINITELY_MODERN, n)


# ------------------------------------------------------------------ self-dual


def test_count_self_dual_examples():
    assert count_self_dual(Family.GENERAL, 2) == 1
    assert count_self_dual(Family.SYNCHRONIZED, 4) == 0
    assert count_self_dual(Family.KREWERAS, 3) == 2
    assert count_self_dual(Family.MODERN_SYNCHRONIZED, 2) == 0


def test_self_dual_general_sequence():
    values = [count_self_dual(Family.GENERAL, n) for n in range(1, 8)]
    assert values == [1, 1, 3, 4, 15, 22, 91]


def test_self_dual_matches_brute_force():
    for n in range(1, 7):
        result = tally(n)
        assert result.self_dual_total == count_self_dual(Family.GENERAL, n)
        for family in Family:
            assert result.self_dual[family] == count_self_dual(family, n), family


# -------------------------------------------------------------- refined counts


def test_canopy_match_examples():
    assert count_by_canopy_matches(2, 0) == 1
    assert count_by_canopy_matches(2, 1) == 2
    assert [count_by_canopy_matches(3, k) for k in range(3)] == [1, 6, 6]


def test_canopy_match_sum_identity():
    for n in range(1, 11):
        assert sum(count_by_canopy_matches(n, k) for k in range(n)) == count(
            Family.GENERAL, n
        )


def test_canopy_match_synchronized_special_case():
    for n in range(1, 9):
        assert count_by_canopy_matches(n, n - 1) == count(Family.SYNCHRONIZED, n)


def test_canopy_match_vanishes_out_of_range():
    assert count_by_canopy_matches(3, 5) == 0


def test_synchronized_by_types_examples():
    assert count_synchronized_by_types(1, 1) == 1
    assert count_synchronized_by_types(1, 2) == 1
    assert count_synchronized_by_types(2, 1) == 1
    total = count_synchronized_by_types(1, 2) + count_synchronized_by_types(2, 1)
    assert total == count(Family.SYNCHRONIZED, 2)


# ---------------------------------------------------------- trivariate series


def test_trivariate_small_coefficients():
    coeffs = trivariate_coefficients(3)
    assert coeffs[1, 1, 0] == 1
    assert coeffs[1, 1, 1] == 1
    assert coeffs[2, 1, 0] == 1
    assert coeffs[1, 2, 0] == 1


def test_trivariate_sums_to_interval_counts():
    coeffs = trivariate_coefficients(8)
    for n in range(1, 8):
        total = sum(v for (i, j, m), v in coeffs.items() if i + j + m == n + 1)
        assert total == count(Family.GENERAL, n)


def test_trivariate_symmetry_under_duality():
    coeffs = trivariate_coefficients(8)
    for (i, j, m), value in coeffs.items():
        assert coeffs[j, i, m] == value


def test_trivariate_cap():
    with pytest.raises(UnsupportedSize):
        trivariate_coefficients(10)


# --------------------------------------------------------------- modern series


def test_modern_series_first_coefficients():
    _, _, c = modern_series_coefficients(8)
    assert c[1] == 1
    assert c[2] == 4


def test_modern_series_lists_cover_degrees_0_to_max():
    # each list holds the coefficients of z^0 .. z^8; tamari verify's
    # series-consistency check holds C to its closed form and (1 + C)^2 to
    # the modern interval counts
    a, b, c = modern_series_coefficients(8)
    assert len(a) == len(b) == len(c) == 9


# -------------------------------------------------------------------- tallies


def test_tally_n2_hand_counts():
    result = tally(2)
    assert result.total == 3
    assert result.families[Family.SYNCHRONIZED] == 2
    assert result.families[Family.MODERN] == 3
    assert result.families[Family.KREWERAS] == 3
    assert result.self_dual_total == 1


def test_tally_n5_total():
    assert tally(5).total == 399


def test_tally_n6_kreweras():
    result = tally(6)
    assert result.families[Family.KREWERAS] == 1428
    assert result.families[Family.INFINITELY_MODERN] == 1428


def test_both_classifier_stacks_agree_at_sampler_scale():
    rng = RandomSource(31)
    cases = [sample_interval(n, rng) for n in (1_000, 1_000, 10_000)]
    tree = cases[-1].lower
    trivial = make_interval(tree, tree)
    cases += [trivial, reflect_interval(trivial)]
    # members as well as non-members: a drawn interval is rarely in a family
    assert is_kreweras(cases[-2]) and is_infinitely_modern(cases[-1])
    pairs = [(interval, from_interval(interval)) for interval in cases]
    # trees as the sampler decodes them, numbered by no unfolding; small
    # ones are often members
    draws = [sample_blossoming(n, rng) for n in [4] * 200 + [1_000, 10_000]]
    pairs += ((to_interval(blossoming), blossoming) for blossoming in draws)
    for interval, blossoming in pairs:
        for family, (on_tree, _) in _PATTERNS.items():
            assert on_tree(blossoming) == FAMILY_PREDICATES[family](interval), family
