"""Acceptance suite: one test per criterion, at the stated sizes.

Each criterion runs its ``tamari verify`` checks (``CRITERIA``) at its size;
only the count table, the chi-square test and the golden SVGs live here.
Each test prints a single PASS line on success (visible with -s or in the
captured output); any failure is a hard assert.
"""

import io
import re

import pytest

from tamari import blossoming, cli, counting, intervals, meandering, sampler, trees, verify
from tamari.blossoming import from_interval
from tamari.counting import Family, count
from tamari.errors import UnsupportedSize
from tamari.intervals import enumerate_intervals, interval_from_text, interval_to_text
from tamari.meandering import count_meandering_trees, from_tree_pair
from tamari.render import render_blossoming, render_meandering, render_smooth
from tamari.sampler import RandomSource, sample_interval
from tamari.verify import CHECK_NAMES, run_checks

EXPECTED_COUNTS = {
    1: 1,
    2: 3,
    3: 13,
    4: 68,
    5: 399,
    6: 2530,
    7: 16965,
    8: 118668,
}

# criterion -> (max_n, the verify checks it runs)
CRITERIA = {
    1: (8, ["interval-counts"]),
    2: (7, ["bijection-round-trips", "diagram-trees-vs-intervals"]),
    3: (7, [f"transfer-{f}" for f in ("synchronized", "modern", "infinitely-modern", "kreweras")]),
    4: (7, ["duality-and-symmetry", "family-count-formulas", "self-dual-table"]),
    5: (7, ["refined-canopy-counts", "trivariate-series", "series-consistency"]),
    6: (7, ["parameter-transfer"]),
    7: (7, ["dyck-walk-formulation", "recursive-decomposition"]),
    8: (5, ["sampler-encoding"]),
    9: (6, ["reflection-involution"]),
}


def verified(number):
    """Run the criterion's checks at its size; returns the results by name."""
    max_n, names = CRITERIA[number]
    results = {r.name: r for r in run_checks(max_n, names)}
    failed = [r for r in results.values() if not r.passed]
    assert not failed, failed
    return results


def report(number, message):
    print(f"ACCEPTANCE {number} PASS: {message}")


def test_every_verify_check_backs_a_criterion():
    covered = [name for _, names in CRITERIA.values() for name in names]
    assert sorted(covered) == sorted(CHECK_NAMES)


def test_a_check_that_checked_nothing_does_not_pass(monkeypatch):
    for max_n in (0, -1, 9):
        with pytest.raises(UnsupportedSize):
            run_checks(max_n)
    at_one = run_checks(1)
    assert len(at_one) == len(CHECK_NAMES)
    assert all(r.passed and r.checked > 0 for r in at_one)
    monkeypatch.setitem(verify._CHECKS, "interval-counts", lambda max_n: (0, "no items"))
    [result] = run_checks(1, ["interval-counts"])
    assert not result.passed and result.detail == "checked nothing"

    def fails(max_n):
        raise verify._Failed("count mismatch at n = 1")

    monkeypatch.setitem(verify._CHECKS, "interval-counts", fails)
    [result] = run_checks(1, ["interval-counts"])
    assert not result.passed and result.checked == 0
    assert result.detail == "count mismatch at n = 1"
    out = io.StringIO()
    assert cli.run(["verify", "--max-n", "1"], out=out) == 1
    lines = out.getvalue().splitlines()
    assert "FAIL  interval-counts  (count mismatch at n = 1)" in lines
    assert lines[-1] == "17/18 checks passed at max size 1"
    monkeypatch.setitem(verify._CHECKS, "interval-counts", lambda max_n: 1 / 0)
    [result] = run_checks(1, ["interval-counts"])
    assert not result.passed and result.detail.startswith("exception:")


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


# check -> (module, name, stand-in, start of the check's own failure detail);
# every stand-in is looked up when the check runs, and none feeds a cached
# sweep (_images, _tally) or a tree's diagram memo
FAULTS = {
    "interval-counts": (counting, "count", _plus_one(count), "count mismatch at n = 1"),
    "bijection-round-trips": (
        meandering, "to_tree_pair", lambda m: None, "pair/diagram round trip fails on"
    ),
    "diagram-trees-vs-intervals": (
        meandering, "is_meandering_tree", lambda m: True, "tree test disagrees on"
    ),
    "transfer-synchronized": (
        blossoming, "node_type", lambda tree, v: intervals.TYPE_11,
        "synchronized transfer fails on",
    ),
    "transfer-modern": (
        blossoming, "non_modern_edges", lambda tree: [], "modern transfer fails on"
    ),
    "transfer-infinitely-modern": (
        blossoming, "_facing_good_half_edges", lambda tree, clockwise: False,
        "infinitely-modern transfer fails on",
    ),
    "transfer-kreweras": (
        blossoming, "_facing_good_half_edges", lambda tree, clockwise: False,
        "kreweras transfer fails on",
    ),
    "duality-and-symmetry": (
        blossoming, "switch_colors", lambda tree: tree, "color switch fails on"
    ),
    "family-count-formulas": (
        counting, "count", _plus_one(count), "general count fails at n = 1"
    ),
    "self-dual-table": (
        counting, "count_self_dual", _plus_one(counting.count_self_dual),
        "self-dual general at n = 1: 1 != 2",
    ),
    "parameter-transfer": (
        blossoming, "bi_degree", lambda tree, v: (0, 0), "bi-degree multiset fails on"
    ),
    "refined-canopy-counts": (
        counting, "count_by_canopy_matches", lambda n, k: 0, "canopy-match sum fails at n = 1"
    ),
    "trivariate-series": (
        counting, "trivariate_coefficients", lambda degree: {},
        "trivariate coefficients fail at n = 1",
    ),
    "dyck-walk-formulation": (
        trees, "contact_vector", lambda word: None, "contact vector fails on"
    ),
    "recursive-decomposition": (
        meandering, "count_meandering_trees", lambda n: 0, "recursive count fails at n = 0"
    ),
    "reflection-involution": (
        blossoming, "reflect_interval", lambda interval: interval, "family exchange fails on"
    ),
    "sampler-encoding": (
        sampler, "marked_tree_to_sequence", lambda tree, mark: (),
        "encoding round trip fails on",
    ),
    "series-consistency": (
        counting, "count_by_canopy_matches", lambda n, k: 0,
        "synchronized special case fails at n = 1",
    ),
}


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_every_verify_check_can_fail(name, monkeypatch):
    # one broken name per check: the check reports it with its own detail,
    # not as a crash, and the suite passes again once the name is restored
    module, attr, stand_in, detail = FAULTS[name]
    monkeypatch.setattr(module, attr, stand_in)
    [result] = run_checks(3, [name])
    assert not result.passed and result.checked == 0
    assert result.detail.startswith(detail), result.detail
    monkeypatch.undo()
    assert all(r.passed for r in run_checks(3))


def test_series_identities_fail_as_checks(monkeypatch):
    # the edge-rooted identity and the modern closed form are conditions of
    # their checks, so a broken series fails its check, not with a crash
    series_pair = counting._canopy_series_pair
    coefficients = counting.trivariate_coefficients(4)

    def top_term_added(cap):
        # a term of degree cap - 1 added to the red-planted series cancels
        # out of every coefficient up to the cap; only the identity sees it
        a, b = series_pair(cap)
        return a + counting._Poly3({(0, 0, cap - 1): 1}, cap), b

    monkeypatch.setattr(counting, "_canopy_series_pair", top_term_added)
    assert counting.trivariate_coefficients(4) == coefficients
    [result] = run_checks(3, ["trivariate-series"])
    assert not result.passed and result.checked == 0
    assert result.detail.startswith("edge-rooted identity fails at"), result.detail

    modern = counting.modern_series_coefficients

    def top_coefficient_off(degree):
        a, b, c = modern(degree)
        return a, b, [*c[:-1], c[-1] + 1]

    monkeypatch.setattr(counting, "modern_series_coefficients", top_coefficient_off)
    [result] = run_checks(3, ["series-consistency"])
    assert not result.passed and result.checked == 0
    assert result.detail.startswith("modern planted series: [z^4]"), result.detail


def test_criterion_1_interval_counts():
    verified(1)
    for n, expected in EXPECTED_COUNTS.items():
        assert count(Family.GENERAL, n) == expected
    report(1, "interval counts match the closed formula for n = 1..8")


def test_criterion_2_bijection_round_trips():
    checked = verified(2)["bijection-round-trips"].checked
    report(2, f"{checked} intervals up to size 7 round-trip exactly")


def test_criterion_3_transfer_lemmas():
    verified(3)
    report(3, "all four forbidden-pattern classifiers agree up to size 7")


def test_criterion_4_duality():
    verified(4)
    report(4, "color switch transfers duality and Table values hold for n = 1..7")


def test_criterion_5_refined_counts():
    verified(5)
    report(5, "refined counting formulas match brute force at the stated sizes")


def test_criterion_6_parameter_transfer():
    verified(6)
    report(6, "bi-degrees and canopy types transfer for all intervals up to size 7")


def test_criterion_7_dyck_formulation():
    verified(7)
    # the check counts to its size; size 8 is too costly for the CLI
    assert count_meandering_trees(8) == EXPECTED_COUNTS[8]
    report(7, "walk statistics and the recursive decomposition check out to size 8")


def test_criterion_8_sampler_exactness():
    verified(8)

    # chi-square uniformity over the 68 intervals of size 4
    rng = RandomSource(424242)
    frequencies = {interval_to_text(i): 0 for i in enumerate_intervals(4)}
    draws = 680000
    for _ in range(draws):
        frequencies[interval_to_text(sample_interval(4, rng))] += 1
    expected = draws / 68
    statistic = sum((v - expected) ** 2 / expected for v in frequencies.values())
    # chi-square upper 0.001 critical value at 67 degrees of freedom
    assert statistic < 108.5256, statistic

    # fixed seed reproduces identical output
    again = RandomSource(424242)
    replay = [interval_to_text(sample_interval(4, again)) for _ in range(100)]
    rng2 = RandomSource(424242)
    assert replay == [interval_to_text(sample_interval(4, rng2)) for _ in range(100)]
    report(8, f"sampler bijective to size 5; chi2 = {statistic:.2f} over 68 classes")


def test_criterion_9_reflection_involution():
    verified(9)
    report(9, "the reflection involution satisfies every claimed exchange to size 6")


ARC_RE = re.compile(r'<path class="arc (upper|lower)" d="M (\d+) \d+ A \d+ \d+ 0 0 \d (\d+) \d+"')


def test_criterion_10_rendering():
    from pathlib import Path

    golden_dir = Path(__file__).parent / "golden"
    fixtures = sorted(golden_dir.glob("*.svg"))
    assert len(fixtures) == 3
    regenerated = {
        "meandering_n2.svg": lambda i: render_meandering(
            from_tree_pair(i.lower, i.upper)
        ),
        "smooth_n2.svg": render_smooth,
        "blossoming_n2.svg": lambda i: render_blossoming(from_interval(i)),
    }
    fixture_interval = interval_from_text("UDUD|UUDD")
    for path in fixtures:
        figure = regenerated[path.name](fixture_interval)
        assert figure.to_bytes() == path.read_bytes()

    checked = 0
    for n in range(1, 6):
        for interval in enumerate_intervals(n):
            svg = render_meandering(from_tree_pair(interval.lower, interval.upper)).svg
            arcs = []
            for side, x1, x2 in ARC_RE.findall(svg):
                a, b = sorted((int(x1), int(x2)))
                arcs.append((side, a, b))
            assert len(arcs) == 2 * n
            for idx, (side_a, a1, a2) in enumerate(arcs):
                for side_b, b1, b2 in arcs[idx + 1:]:
                    if side_a == side_b:
                        assert not (a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2)
            checked += 1
    report(10, f"golden files stable and {checked} figures are crossing-free")
