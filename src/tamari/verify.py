"""Executable oracle suite: every structural claim as a named check.

Each check sweeps all intervals (or all tree pairs) up to a size bound and
compares two independently computed answers.  ``run_checks`` powers the
command-line ``verify`` command and the acceptance tests, and returns one
result per check; anything but a full pass means a bug, never bad input.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable

from . import blossoming, counting, intervals, meandering, sampler, trees
from .errors import UnsupportedSize

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome: ``checked`` counts the items compared (0 when
    the check failed) and ``seconds`` is its wall time, including any
    enumeration it was the first to need."""

    name: str
    passed: bool
    detail: str
    checked: int
    seconds: float


class _Failed(Exception):
    """Raised by a check on its first counterexample."""


# Per-size sweeps depend on n alone, so every run_checks call in the
# process shares them and each size is enumerated at most once.
@lru_cache(maxsize=None)
def _images(n: int) -> tuple:
    """Every interval of size n paired with its blossoming tree."""
    return tuple(
        (i, blossoming.from_interval(i))
        for i in intervals.enumerate_intervals(n)
    )


_tally = lru_cache(maxsize=None)(counting.tally)


_CHECKS: dict[str, Callable[[int], tuple[int, str]]] = {}


def _check(name: str):
    """Register a check, a function of max_n returning (items checked,
    detail); checks run in the order they are registered."""

    def register(fn):
        _CHECKS[name] = fn
        return fn

    return register


def _sizes(max_n: int, cap: int | None = None) -> range:
    top = max_n if cap is None else min(max_n, cap)
    return range(1, top + 1)


def _compositions(n: int):
    """Every weak composition of n - 1 into 3n + 3 parts, as gaps between bars."""
    slots = 4 * n + 1
    for bars in itertools.combinations(range(slots), 3 * n + 2):
        ends = (-1, *bars, slots)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


@_check("interval-counts")
def _check_interval_counts(max_n: int):
    total = 0
    for n in _sizes(max_n):
        observed = len(intervals.enumerate_intervals(n))
        if observed != counting.count(counting.Family.GENERAL, n):
            raise _Failed(f"count mismatch at n = {n}")
        total += observed
    return total, f"{total} intervals across n <= {max_n}"


@_check("bijection-round-trips")
def _check_bijection_round_trips(max_n: int):
    checked = 0
    for n in _sizes(max_n):
        for interval, tree in _images(n):
            m = meandering.from_tree_pair(interval.lower, interval.upper)
            if meandering.to_tree_pair(m) != (interval.lower, interval.upper):
                raise _Failed(f"pair/diagram round trip fails on {interval!r}")
            # to_meandering orients the closure by the color of its first end;
            # ends of one color would stretch to up[n-1] = n (both blue) or
            # up[0] = 1 (both red), which no diagram has, so this test fails
            if blossoming.to_meandering(tree) != m:
                raise _Failed(f"unfold/closure round trip fails on {interval!r}")
            if blossoming.from_meandering(m) != tree:
                raise _Failed(f"diagram/unfold round trip fails on {interval!r}")
            if blossoming.to_interval(tree) != interval:
                raise _Failed(f"interval round trip fails on {interval!r}")
            checked += 1
    return checked, f"{checked} intervals round-tripped"


@_check("diagram-trees-vs-intervals")
def _check_diagram_trees_match_intervals(max_n: int):
    checked = 0
    for n in _sizes(max_n, 6):
        for low in trees.enumerate_binary_trees(n):
            for up in trees.enumerate_binary_trees(n):
                m = meandering.from_tree_pair(low, up)
                is_tree = meandering.is_meandering_tree(m)
                if is_tree != trees.tamari_leq(low, up):
                    raise _Failed(f"tree test disagrees on {low!r}, {up!r}")
                flawed = bool(meandering.flawed_pairs(m))
                if flawed == is_tree:
                    raise _Failed(f"flawed pairs disagree on {low!r}, {up!r}")
                if bool(intervals.smooth_flawed_pairs(low, up)) != flawed:
                    raise _Failed(f"flawed transfer fails on {low!r}, {up!r}")
                checked += 1
    return checked, f"{checked} tree pairs checked"


# The transfer lemmas: each pattern family's forbidden-pattern classifier
# on the blossoming tree agrees with its direct classifier.  The two path
# patterns are decided in one linear pass, held to the path enumerator
# whose emptiness it decides; the other two classifiers test their pattern
# list for emptiness directly.  Each entry looks up its scanner when called,
# so a stand-in put in blossoming is the one checked.
_PATTERNS = {
    counting.Family.SYNCHRONIZED: (lambda tree: blossoming.is_synchronized_tree(tree), None),
    counting.Family.MODERN: (lambda tree: not blossoming.non_modern_edges(tree), None),
    counting.Family.INFINITELY_MODERN: (
        lambda tree: not blossoming._facing_good_half_edges(tree, True),
        lambda tree: blossoming.non_modern_paths(tree),
    ),
    counting.Family.KREWERAS: (
        lambda tree: not blossoming._facing_good_half_edges(tree, False),
        lambda tree: blossoming.non_kreweras_paths(tree),
    ),
}


def _transfer_check(family: counting.Family) -> None:
    direct = counting.FAMILY_PREDICATES[family]
    pattern, enumerator = _PATTERNS[family]

    @_check(f"transfer-{family.value}")
    def check(max_n: int):
        checked = 0
        for n in _sizes(max_n):
            for interval, tree in _images(n):
                member = pattern(tree)
                if direct(interval) != member:
                    raise _Failed(f"{family.value} transfer fails on {interval!r}")
                if enumerator is not None and member == bool(enumerator(tree)):
                    raise _Failed(f"{family.value} pattern pass fails on {interval!r}")
                checked += 1
        return checked, f"{checked} intervals agree"


for _family in _PATTERNS:
    _transfer_check(_family)


@_check("duality-and-symmetry")
def _check_duality(max_n: int):
    checked = 0
    for n in _sizes(max_n):
        lookup = dict(_images(n))
        for interval, tree in _images(n):
            dual = intervals.dual_interval(interval)
            if blossoming.switch_colors(tree) != lookup[dual]:
                raise _Failed(f"color switch fails on {interval!r}")
            self_dual = intervals.is_self_dual(interval)
            if blossoming.is_half_turn_symmetric(tree) != self_dual:
                raise _Failed(f"half-turn symmetry fails on {interval!r}")
            if self_dual != (dual == interval):
                raise _Failed(f"self-duality test fails on {interval!r}")
            checked += 1
    return checked, f"{checked} intervals commute with duality"


@_check("family-count-formulas")
def _check_family_counts(max_n: int):
    checked = 0
    for n in _sizes(max_n, 8):
        result = _tally(n)
        for family in counting.Family:
            if result.families[family] != counting.count(family, n):
                raise _Failed(f"{family.value} count fails at n = {n}")
            checked += 1
    return checked, f"all family formulas match for n <= {min(max_n, 8)}"


@_check("self-dual-table")
def _check_self_dual_table(max_n: int):
    checked = 0
    for n in _sizes(max_n, 7):
        result = _tally(n)
        for family in counting.Family:
            formula = counting.count_self_dual(family, n)
            if result.self_dual[family] != formula:
                raise _Failed(
                    f"self-dual {family.value} at n = {n}: "
                    f"{result.self_dual[family]} != {formula}"
                )
            checked += 1
    return checked, f"all families match for n <= {min(max_n, 7)}"


@_check("parameter-transfer")
def _check_parameter_transfer(max_n: int):
    checked = 0
    for n in _sizes(max_n):
        for interval, tree in _images(n):
            degrees = sorted(
                blossoming.bi_degree(tree, v) for v in range(n + 1)
            )
            if degrees != sorted(intervals.bi_length_vector(interval)):
                raise _Failed(f"bi-degree multiset fails on {interval!r}")
            types = Counter(blossoming.node_type(tree, v) for v in range(n + 1))
            order = (intervals.TYPE_11, intervals.TYPE_00, intervals.TYPE_10)
            if tuple(types[t] for t in order) != intervals.canopy_type_counts(interval):
                raise _Failed(f"canopy type counts fail on {interval!r}")
            checked += 1
    return checked, f"{checked} intervals transfer their parameters"


@_check("refined-canopy-counts")
def _check_refined_counts(max_n: int):
    checked = 0
    for n in range(1, 11):
        total = sum(
            counting.count_by_canopy_matches(n, k) for k in range(n)
        )
        if total != counting.count(counting.Family.GENERAL, n):
            raise _Failed(f"canopy-match sum fails at n = {n}")
        checked += 1
    for n in _sizes(max_n, 7):
        formula = {
            k + 2: counting.count_by_canopy_matches(n, k) for k in range(n)
        }
        if _tally(n).canopy_matches != formula:
            raise _Failed(f"canopy-match tally fails at n = {n}")
        checked += len(formula)
    for n in _sizes(max_n, 6):
        synced = [i for i, _ in _images(n) if intervals.is_synchronized(i)]
        sync = Counter(intervals.canopy_type_counts(i)[:2] for i in synced)
        mod_sync = Counter(
            intervals.canopy_type_counts(i)[:2] for i in synced if intervals.is_modern(i)
        )
        # a synchronized interval has no type-10 position, so i + j = n + 1
        types = [(i, n + 1 - i) for i in range(1, n + 1)]
        if sync != {t: counting.count_synchronized_by_types(*t) for t in types}:
            raise _Failed(f"synchronized type tally fails at n = {n}")
        if mod_sync != {t: counting.narayana(*t) for t in types}:
            raise _Failed(f"Narayana tally fails at n = {n}")
        checked += 2 * n
    return checked, f"sum identity to n = 10, tallies to n <= {min(max_n, 7)}"


@_check("trivariate-series")
def _check_trivariate(max_n: int):
    degree = min(max_n, 7) + 1
    coeffs = counting.trivariate_coefficients(degree)
    checked = 0
    for n in _sizes(max_n, 7):
        expected = {
            key: value
            for key, value in coeffs.items()
            if sum(key) == n + 1
        }
        if _tally(n).canopy_triples != expected:
            raise _Failed(f"trivariate coefficients fail at n = {n}")
        checked += len(expected)
    # edge-rooted identity: an interval of size n counted once per edge,
    # n times, is a red-planted tree glued to a blue-planted one
    a, b = counting._canopy_series_pair(degree)
    product = (a * b).coeffs
    weighted = {key: (sum(key) - 1) * value for key, value in coeffs.items()}
    for key in sorted(weighted.keys() | product.keys()):
        if weighted.get(key, 0) != product.get(key, 0):
            raise _Failed(
                f"edge-rooted identity fails at {key}: "
                f"{weighted.get(key, 0)} != {product.get(key, 0)}"
            )
    return checked, f"coefficients match tallies up to degree {degree}"


@_check("dyck-walk-formulation")
def _check_dyck_formulation(max_n: int):
    checked = 0
    for n in _sizes(max_n):
        for interval, _ in _images(n):
            m = meandering.from_tree_pair(interval.lower, interval.upper)
            upper_word = trees.dyck_from_tree(interval.upper)
            lower_word = trees.dyck_from_tree(interval.lower)
            if meandering.upper_arc_counts(m) != trees.contact_vector(upper_word):
                raise _Failed(f"contact vector fails on {interval!r}")
            if meandering.lower_arc_counts(m) != trees.descent_vector(lower_word):
                raise _Failed(f"descent vector fails on {interval!r}")
            checked += 1
    return checked, f"{checked} intervals match the walk statistics"


@_check("recursive-decomposition")
def _check_decomposition(max_n: int):
    for n in range(min(max_n, 8) + 1):
        # the empty diagram is the one meandering tree of size 0
        expected = 1 if n == 0 else counting.count(counting.Family.GENERAL, n)
        if meandering.count_meandering_trees(n) != expected:
            raise _Failed(f"recursive count fails at n = {n}")
    checked = 0
    for n in _sizes(max_n):
        for interval, _ in _images(n):
            m = meandering.from_tree_pair(interval.lower, interval.upper)
            left, right, j = meandering.decompose(m)
            if meandering.compose(left, right, j) != m:
                raise _Failed(f"decompose round trip fails on {interval!r}")
            checked += 1
    return checked, f"counts match and {checked} round trips hold"


@_check("reflection-involution")
def _check_reflection_involution(max_n: int):
    # rho is an involution, so the exchanges checked one way below also
    # hold the other way: Kreweras onto infinitely modern, trivial onto
    # modern-synchronized
    checked = 0
    for n in _sizes(max_n, 6):
        pairs = {i: blossoming.reflect_interval(i) for i, _ in _images(n)}
        trivial = {i for i in pairs if intervals.is_trivial(i)}
        mod_sync = {
            i
            for i in pairs
            if intervals.is_modern(i) and intervals.is_synchronized(i)
        }
        for interval, image in pairs.items():
            if pairs[image] != interval:
                raise _Failed(f"reflection not an involution on {interval!r}")
            if intervals.dual_interval(image) != pairs[intervals.dual_interval(interval)]:
                raise _Failed(f"reflection does not commute with duality on {interval!r}")
            if intervals.is_synchronized(image) != intervals.is_synchronized(interval):
                raise _Failed(f"reflection breaks synchronization on {interval!r}")
            if intervals.is_kreweras(image) != intervals.is_infinitely_modern(interval):
                raise _Failed(f"family exchange fails on {interval!r}")
            kreweras = intervals.refines(
                intervals.iota(interval.lower), intervals.iota(interval.upper)
            )
            if intervals.is_kreweras(interval) != kreweras:
                raise _Failed(f"Kreweras test fails on {interval!r}")
            checked += 1
        if {pairs[i] for i in mod_sync} != trivial:
            raise _Failed(f"modern-synchronized vs trivial exchange fails at n = {n}")
    return checked, f"involution verified for n <= {min(max_n, 6)}"


@_check("sampler-encoding")
def _check_sampler(max_n: int):
    checked = 0
    for n in _sizes(max_n, 5):
        seqs = set()
        compositions = 0
        for comp in _compositions(n):
            compositions += 1
            seqs.update(sampler.valid_shifts(comp))
        if (n + 1) * len(seqs) != 2 * compositions:
            raise _Failed(f"cycle lemma count fails at n = {n}")
        counts: Counter[blossoming.BlossomingTree] = Counter()
        for seq in seqs:
            tree, mark = sampler.sequence_to_marked_tree(seq)
            if sampler.marked_tree_to_sequence(tree, mark) != seq:
                raise _Failed(f"encoding round trip fails on {seq}")
            counts[tree] += 1
        expected = {tree for _, tree in _images(n)}
        if set(counts) != expected or any(v != n for v in counts.values()):
            raise _Failed(f"marked multiset fails at n = {n}")
        checked += len(seqs)
    rng = sampler.RandomSource(20240)
    draws = 3000
    freq = Counter(
        intervals.interval_to_text(sampler.sample_interval(2, rng)) for _ in range(draws)
    )
    if len(freq) != 3:
        raise _Failed("sampler missed an interval at n = 2")
    stat = sum((v - draws / 3) ** 2 / (draws / 3) for v in freq.values())
    if stat >= 13.8155:  # chi-square 0.001 critical value, 2 degrees of freedom
        raise _Failed(f"uniformity smoke test fails: chi2 = {stat:.2f}")
    return checked, f"encoding bijective for n <= {min(max_n, 5)}, smoke test ok"


@_check("series-consistency")
def _check_series_consistency(max_n: int):
    degree = min(max_n + 1, 9)
    _, _, c = counting.modern_series_coefficients(degree)
    one_plus_c = [1 + c[0], *c[1:]]  # (1 + C)^2 counts node-rooted modern trees
    for n in range(1, degree + 1):
        expected = 2 ** (n - 1) * comb(2 * n, n) // (n + 1)  # 2^(n-1) Catalan(n)
        if c[n] != expected:
            raise _Failed(f"modern planted series: [z^{n}] = {c[n]} != {expected}")
        squared = sum(one_plus_c[k] * one_plus_c[n - k] for k in range(n + 1))
        if squared != (n + 1) * counting.count(counting.Family.MODERN, n):
            raise _Failed(f"modern count mismatch at n = {n}")
    checked = 0
    for n in _sizes(max_n, 8):
        via_j = counting.count_by_canopy_matches(n, n - 1)
        if via_j != counting.count(counting.Family.SYNCHRONIZED, n):
            raise _Failed(f"synchronized special case fails at n = {n}")
        checked += 1
    return checked, "modern planted series and specializations agree"


CHECK_NAMES = list(_CHECKS)


def run_checks(max_n: int = 6, names: list[str] | None = None) -> list[CheckResult]:
    """Run the oracle suite up to size ``max_n``; returns one result per check.

    A check that compared no item fails with the detail ``checked nothing``;
    a ``max_n`` below 1 or above 8 raises UnsupportedSize.
    """
    if max_n < 1:
        raise UnsupportedSize("max_n must be at least 1")
    if max_n > 8:
        raise UnsupportedSize(f"max_n {max_n} exceeds the verify cap 8")
    selected = set(CHECK_NAMES if names is None else names)
    unknown = selected - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    results = []
    for name, fn in _CHECKS.items():
        if name not in selected:
            continue
        start = time.perf_counter()
        try:
            checked, detail = fn(max_n)
            passed = checked > 0
            if not passed:
                detail = "checked nothing"
        except _Failed as exc:
            passed, checked, detail = False, 0, str(exc)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, checked, detail = False, 0, f"exception: {exc!r}"
        results.append(
            CheckResult(name, passed, detail, checked, time.perf_counter() - start)
        )
    return results
