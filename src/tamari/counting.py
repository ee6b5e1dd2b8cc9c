"""Closed-form counting of Tamari intervals and their families.

All arithmetic is exact: divisions in the formulas are performed as
integer divisions guarded by a divisibility assertion, so a transcription
error surfaces as an exception rather than a rounding artifact.  The
truncated trivariate series refines the count by the three joint canopy
types, and ``tally`` recomputes the counts by brute force with the direct
classifiers.  This module only computes: ``tamari.verify`` holds each of
these answers to an independent one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import comb

from .errors import UnsupportedSize
from .intervals import (
    canopy_type_counts,
    enumerate_intervals,
    is_infinitely_modern,
    is_kreweras,
    is_modern,
    is_new,
    is_self_dual,
    is_synchronized,
)

__all__ = [
    "FAMILY_PREDICATES",
    "Family",
    "TallyResult",
    "count",
    "count_by_canopy_matches",
    "count_self_dual",
    "count_synchronized_by_types",
    "modern_series_coefficients",
    "narayana",
    "tally",
    "trivariate_coefficients",
]


class Family(Enum):
    GENERAL = "general"
    SYNCHRONIZED = "synchronized"
    MODERN = "modern"
    NEW = "new"
    MODERN_SYNCHRONIZED = "modern-synchronized"
    INFINITELY_MODERN = "infinitely-modern"
    KREWERAS = "kreweras"


def _exact_div(numerator: int, denominator: int) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(f"{numerator} is not divisible by {denominator}")
    return q


def _catalan(n: int) -> int:
    return _exact_div(comb(2 * n, n), n + 1)


def count(family: Family, n: int) -> int:
    """Number of size-n intervals in the family, by closed formula."""
    _check_size(n)
    if family is Family.MODERN and n == 0:
        # convention making the rise bijection onto new intervals total
        return 1
    if n < 1:
        raise UnsupportedSize("family counts are defined for n >= 1")
    if family is Family.GENERAL:
        return _exact_div(2 * comb(4 * n + 1, n - 1), n * (n + 1))
    if family is Family.SYNCHRONIZED:
        return _exact_div(2 * comb(3 * n, n - 1), n * (n + 1))
    if family is Family.MODERN:
        return _exact_div(comb(2 * n, n) * 3 * 2 ** (n - 1), (n + 1) * (n + 2))
    if family is Family.NEW:
        return count(Family.MODERN, n - 1)
    if family is Family.MODERN_SYNCHRONIZED:
        return _catalan(n)
    if family in (Family.INFINITELY_MODERN, Family.KREWERAS):
        return _exact_div(comb(3 * n, n), 2 * n + 1)
    raise ValueError(f"unknown family {family!r}")


def count_self_dual(family: Family, n: int) -> int:
    """Number of self-dual size-n intervals in the family.

    Closed forms split on the parity of n: the half-turn symmetry of the
    corresponding blossoming tree is centered on a node for even n and on
    an edge for odd n.
    """
    _check_size(n)
    if family is Family.NEW:
        if n == 1:
            return 1
        return count_self_dual(Family.MODERN, n - 1)
    if n < 1:
        raise UnsupportedSize("self-dual counts are defined for n >= 1")
    k, odd = divmod(n, 2)
    if family is Family.GENERAL:
        if odd:
            return _exact_div(comb(4 * k + 2, k), k + 1)
        return _exact_div(comb(4 * k, k), 3 * k + 1)
    if family is Family.SYNCHRONIZED:
        if odd:
            return _exact_div(comb(3 * k + 1, k), k + 1)
        return 0
    if family is Family.MODERN:
        if odd:
            return _exact_div(comb(2 * k, k) * 2**k, k + 1)
        return _exact_div(comb(2 * k, k) * 2 ** (k - 1), k + 1)
    if family is Family.MODERN_SYNCHRONIZED:
        if odd:
            return _catalan(k)
        return 0
    if family in (Family.INFINITELY_MODERN, Family.KREWERAS):
        if odd:
            return _exact_div(comb(3 * k + 1, k), k + 1)
        return _exact_div(comb(3 * k, k), 2 * k + 1)
    raise ValueError(f"unknown family {family!r}")


def count_by_canopy_matches(n: int, k: int) -> int:
    """Intervals of size n whose two canopies agree in exactly k + 2 places."""
    _check_size(n)
    if n < 1 or k < 0:
        raise UnsupportedSize("requires n >= 1 and k >= 0")
    return _exact_div(2 * comb(3 * n, k) * comb(n + 1, k + 2), n * (n + 1))


def count_synchronized_by_types(i: int, j: int) -> int:
    """Synchronized intervals with i entries of type 11 and j of type 00."""
    if i < 1 or j < 1:
        raise UnsupportedSize("requires i, j >= 1")
    return _exact_div(
        comb(2 * i + j - 2, j - 1) * comb(2 * j + i - 2, i - 1), i * j
    )


def narayana(i: int, j: int) -> int:
    """Modern-synchronized intervals with i entries of type 11, j of type 00."""
    if i < 1 or j < 1:
        raise UnsupportedSize("requires i, j >= 1")
    return _exact_div(comb(i + j - 1, i) * comb(i + j - 1, j), i + j - 1)


# ---------------------------------------------------------- trivariate series


class _Poly3:
    """Sparse polynomial in x, y, z truncated past total degree ``cap``."""

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs: dict[tuple[int, int, int], int], cap: int):
        self.coeffs = {k: v for k, v in coeffs.items() if v and sum(k) <= cap}
        self.cap = cap

    @staticmethod
    def zero(cap):
        return _Poly3({}, cap)

    @staticmethod
    def variable(idx, cap):
        key = tuple(1 if i == idx else 0 for i in range(3))
        return _Poly3({key: 1}, cap)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return _Poly3(out, self.cap)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return _Poly3(out, self.cap)

    def __mul__(self, other):
        out: dict[tuple[int, int, int], int] = {}
        for (a, b, c), v in self.coeffs.items():
            for (d, e, f), w in other.coeffs.items():
                if a + d + b + e + c + f > self.cap:
                    continue
                key = (a + d, b + e, c + f)
                out[key] = out.get(key, 0) + v * w
        return _Poly3(out, self.cap)

    def geometric(self):
        """1 / (1 - self); requires zero constant term."""
        if self.coeffs.get((0, 0, 0)):
            raise ArithmeticError("geometric series needs zero constant term")
        one = _Poly3({(0, 0, 0): 1}, self.cap)
        acc, power = one, one
        for _ in range(self.cap):
            power = power * self
            if not power.coeffs:
                break
            acc = acc + power
        return acc

    def __eq__(self, other):
        return self.coeffs == other.coeffs


def _canopy_series_pair(cap: int) -> tuple[_Poly3, _Poly3]:
    """Fixed point of the planted blossoming-tree system.

    A counts red-planted trees, B blue-planted ones, with x, y, z marking
    nodes of joint types 11, 00 and 10.
    """
    x = _Poly3.variable(0, cap)
    y = _Poly3.variable(1, cap)
    z = _Poly3.variable(2, cap)
    a = _Poly3.zero(cap)
    b = _Poly3.zero(cap)
    for _ in range(cap + 1):
        gb = b.geometric()
        ga = a.geometric()
        new_a = gb * gb * (y + z * a * ga)
        new_b = ga * ga * (x + z * b * gb)
        if new_a == a and new_b == b:
            break
        a, b = new_a, new_b
    return a, b


MAX_SERIES_DEGREE = 9
#: Largest n of the exact counts; their cost grows quadratically in n.
MAX_COUNT_SIZE = 10**5


def _check_degree(max_degree: int) -> None:
    if max_degree < 0:
        raise UnsupportedSize(f"degree {max_degree} is negative")
    if max_degree > MAX_SERIES_DEGREE:
        raise UnsupportedSize(
            f"degree {max_degree} exceeds the cap {MAX_SERIES_DEGREE}"
        )


def _check_size(n: int) -> None:
    if n > MAX_COUNT_SIZE:
        raise UnsupportedSize(f"size {n} exceeds the cap {MAX_COUNT_SIZE}")


def trivariate_coefficients(max_degree: int) -> dict[tuple[int, int, int], int]:
    """Coefficients I[i, j, m] counting intervals by joint canopy types.

    The triple (i, j, m) counts positions of types 11, 00 and 10, so the
    interval size is i + j + m - 1.  Coefficients come from the planted
    blossoming-tree series.
    """
    _check_degree(max_degree)
    a, b = _canopy_series_pair(max_degree)
    ga = a.geometric()
    gb = b.geometric()
    x = _Poly3.variable(0, max_degree)
    y = _Poly3.variable(1, max_degree)
    z = _Poly3.variable(2, max_degree)
    f = x * a * ga + y * b * gb + z * a * ga * b * gb - a * b
    return dict(sorted(f.coeffs.items()))


def modern_series_coefficients(max_degree: int) -> tuple[list[int], list[int], list[int]]:
    """Coefficient lists (A, B, C) of the planted modern-tree series.

    A counts planted modern trees by nodes, B those whose root half-edge is
    followed clockwise by a bud, and C = A / (1 - B).  C has the closed
    form 2^(n-1)/(n+1) * binom(2n, n), and (1 + C)^2 counts node-rooted
    modern trees, giving back the modern interval counts.  The series are
    the one-variable case of ``_Poly3``, in its first variable.
    """
    _check_degree(max_degree)
    z = _Poly3.variable(0, max_degree)
    one = _Poly3({(0, 0, 0): 1}, max_degree)
    a = b = _Poly3.zero(max_degree)
    for _ in range(max_degree + 1):
        gb = b.geometric()
        c_plus_one = one + a * gb
        new_a = z * gb * c_plus_one * c_plus_one
        new_b = z * gb * c_plus_one
        if new_a == a and new_b == b:
            break
        a, b = new_a, new_b
    c = a * b.geometric()

    def coefficients(p: _Poly3) -> list[int]:
        return [p.coeffs.get((k, 0, 0), 0) for k in range(max_degree + 1)]

    return coefficients(a), coefficients(b), coefficients(c)


# -------------------------------------------------------------- brute force


@dataclass
class TallyResult:
    """Brute-force classification of every interval of one size."""

    n: int
    total: int
    families: dict[Family, int]
    self_dual: dict[Family, int]
    self_dual_total: int
    canopy_triples: dict[tuple[int, int, int], int] = field(default_factory=dict)
    canopy_matches: dict[int, int] = field(default_factory=dict)


# What each family means on an interval: its direct classifier.
FAMILY_PREDICATES = {
    Family.GENERAL: lambda interval: True,
    Family.SYNCHRONIZED: is_synchronized,
    Family.MODERN: is_modern,
    Family.NEW: is_new,
    Family.MODERN_SYNCHRONIZED: lambda i: is_modern(i) and is_synchronized(i),
    Family.INFINITELY_MODERN: is_infinitely_modern,
    Family.KREWERAS: is_kreweras,
}


def tally(n: int) -> TallyResult:
    """Classify every interval of size n <= 8 with the direct classifiers."""
    if n > 8:
        raise UnsupportedSize(f"size {n} exceeds the tally cap 8")
    families = {family: 0 for family in Family}
    self_dual = {family: 0 for family in Family}
    triples: dict[tuple[int, int, int], int] = {}
    matches: dict[int, int] = {}
    total = 0
    dual_total = 0
    for interval in enumerate_intervals(n):
        total += 1
        dual = is_self_dual(interval)
        dual_total += dual
        for family, member in FAMILY_PREDICATES.items():
            if member(interval):
                families[family] += 1
                if dual:
                    self_dual[family] += 1
        i, j, m = canopy_type_counts(interval)
        triples[i, j, m] = triples.get((i, j, m), 0) + 1
        matches[i + j] = matches.get(i + j, 0) + 1
    return TallyResult(
        n=n,
        total=total,
        families=families,
        self_dual=self_dual,
        self_dual_total=dual_total,
        canopy_triples=dict(sorted(triples.items())),
        canopy_matches=dict(sorted(matches.items())),
    )
