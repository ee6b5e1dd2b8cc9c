"""Exact uniform random generation of blossoming trees and Tamari intervals.

The generator walks a chain of bijections, so uniformity is exact rather
than asymptotic: a uniform weak composition of n - 1 into 3n + 3 parts,
one of its exactly two cyclic block-shifts satisfying the prefix
condition, the edge-marked blossoming tree encoded by that sequence, and
finally the interval of the unmarked tree.  Each tree of size n carries n
marks and each mark corresponds to (n + 1) / 2 compositions on average,
which cancels exactly.

The prefix condition (the first i + 1 blocks of three sum to at least i)
is read off one walk W with steps block - 1: it holds when min W >= -1.
Since W steps by at least -1 and would end at -2, exactly two rotations
meet it (the cycle lemma), those at the first visits of min W + 1 and min W.

A sequence from outside is validated once, at the public entry points:
``valid_shifts`` checks the composition and ``sequence_to_marked_tree``
also checks the prefix condition.  A draw runs no validator.  It relies on
two results: a sampled composition is valid, and a shift that meets the
prefix condition decodes to a valid blossoming tree, which is built
unchecked.

Randomness is injected through RandomSource, a bundled SplitMix64
generator: 64-bit state advanced by the golden-ratio constant and mixed
by two xor-multiply rounds.  Identical seeds reproduce identical streams
on every platform.
"""

from __future__ import annotations

from .blossoming import BLUE, BUD, RED, BlossomingTree, to_interval
from .errors import InvalidSequence, UnsupportedSize
from .intervals import TamariInterval

__all__ = [
    "RandomSource",
    "marked_tree_to_sequence",
    "sample_blossoming",
    "sample_composition",
    "sample_interval",
    "sequence_to_marked_tree",
    "valid_shifts",
]

_MASK64 = (1 << 64) - 1
#: Largest n a draw accepts; a draw's memory grows linearly, to about 0.7 GiB at the cap.
MAX_SAMPLE_SIZE = 10**6


class RandomSource:
    """Deterministic splittable PRNG (SplitMix64)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), exact by rejection; one 64-bit
        draw serves each try, so the bound is at most 2**64."""
        if not 0 < bound <= 1 << 64:
            raise ValueError("bound must be between 1 and 2**64")
        bits = (bound - 1).bit_length()
        if bits == 0:
            return 0
        while True:
            value = self.next_u64() >> (64 - bits)
            if value < bound:
                return value

    def split(self) -> "RandomSource":
        """An independent generator derived from this one's stream."""
        return RandomSource(self.next_u64() ^ 0x5851F42D4C957F2D)


def sample_composition(n: int, rng: RandomSource) -> tuple[int, ...]:
    """Uniform weak composition of n - 1 into 3n + 3 parts.

    Sampled as a uniform (n-1)-subset of {1 .. 4n+1} (star positions in a
    stars-and-bars word) using Floyd's algorithm.
    """
    if n < 1:
        raise UnsupportedSize("compositions are sampled for n >= 1")
    if n > MAX_SAMPLE_SIZE:
        raise UnsupportedSize(f"size {n} exceeds the sampling cap {MAX_SAMPLE_SIZE}")
    total = 4 * n + 1
    k = n - 1
    chosen: set[int] = set()
    for j in range(total - k + 1, total + 1):
        t = 1 + rng.below(j)
        chosen.add(j if t in chosen else t)
    parts = [0] * (3 * n + 3)
    for rank, star in enumerate(sorted(chosen)):
        parts[star - 1 - rank] += 1
    return tuple(parts)


def _walk(seq: tuple[int, ...]) -> list[int]:
    """The block walk: W[k] sums block - 1 over the first k blocks, k = 0..n."""
    walk = [0]
    w = 0
    for i in range(0, len(seq) - 3, 3):
        w += seq[i] + seq[i + 1] + seq[i + 2] - 1
        walk.append(w)
    return walk


def _shift_indices(seq: tuple[int, ...]) -> tuple[int, int]:
    """The two block rotations of a valid composition that meet the prefix
    condition, in increasing order.

    Rotation s qualifies exactly when W[s] is below every earlier entry of
    the walk and at most one above every later one.  The walk starts at 0,
    falls by at most 1 per step and ends at W[n] = -1 - (last block), so its
    minimum m is at most -1: the first visits of m + 1 and of m qualify, in
    that order, and no other entry does.
    """
    walk = _walk(seq)
    low = min(walk)
    return walk.index(low + 1), walk.index(low)


def _sequence_size(seq: tuple[int, ...]) -> int:
    """The n of a weak composition of n - 1 into 3(n + 1) parts."""
    if len(seq) % 3 != 0 or len(seq) < 6:
        raise InvalidSequence("length must be 3(n + 1) with n >= 1")
    n = len(seq) // 3 - 1
    if any(not isinstance(a, int) or a < 0 for a in seq):
        raise InvalidSequence("entries must be non-negative integers")
    if sum(seq) != n - 1:
        raise InvalidSequence(f"entries must sum to {n - 1}")
    return n


def valid_shifts(seq: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The two cyclic block-shifts of a composition satisfying the prefix
    condition, found by ``_shift_indices`` (the cycle lemma)."""
    seq = tuple(seq)
    _sequence_size(seq)
    return [seq[3 * shift:] + seq[:3 * shift] for shift in _shift_indices(seq)]


# ------------------------------------------------- the marked-tree encoding


def _other_color(color: str) -> str:
    return RED if color == BLUE else BLUE


def sequence_to_marked_tree(seq) -> tuple[BlossomingTree, int]:
    """Decode a marked sequence into an edge-marked blossoming tree.

    Blocks of three are the child-group sizes of the nodes in first-visit
    order along the counterclockwise contour started at the middle of the
    marked edge 0, on its red side.  One pass keeps a stack of open child
    slots; each node fills the top one.  Node 0 is the red end of the mark,
    and the node that finds the stack empty is its blue end: the prefix
    condition with total n - 1 empties the stack exactly once before node n.
    The condition fails at the block before the walk's first -2.
    """
    seq = tuple(seq)
    _sequence_size(seq)
    walk = _walk(seq)
    if min(walk) < -1:
        raise InvalidSequence(f"prefix condition fails at block {walk.index(-2) - 1}")
    return _decode(seq), 0


def _decode(seq: tuple[int, ...]) -> BlossomingTree:
    """The tree of ``sequence_to_marked_tree``, built unchecked."""
    n = len(seq) // 3 - 1
    items: list[list] = []
    slots: list[tuple[int, int, str]] = []  # (node, slot, color at node)
    edge = 0
    for v in range(n + 1):
        if slots:
            parent, slot, color = slots.pop()
            edge += 1
            items[parent][slot] = (edge, color)
            half = (edge, _other_color(color))
        else:
            half = (0, RED if v == 0 else BLUE)
        left, middle, right = seq[3 * v:3 * v + 3]
        color, other = half[1], _other_color(half[1])
        node = [half] + [None] * left + [BUD] + [None] * middle + [BUD] + [None] * right
        items.append(node)
        # pushed in reverse, so the next pop is this node's first free slot;
        # the slots between the two buds take the other color
        for s in range(len(node) - 1, 0, -1):
            if node[s] is None:
                slots.append((v, s, other if left + 1 < s < left + middle + 2 else color))
    return BlossomingTree._trusted(tuple(map(tuple, items)))


def marked_tree_to_sequence(tree: BlossomingTree, marked_edge: int) -> tuple[int, ...]:
    """Inverse encoding: child-group sizes along the contour from the mark."""
    blue, red = tree.edge_ends(marked_edge)
    out: list[int] = []
    work = [(blue, marked_edge), (red, marked_edge)]  # the red end comes first
    while work:
        v, pedge = work.pop()
        seq = tree.items[v]
        size = len(seq)
        start = tree.slot(pedge, v)
        groups: list[list[int]] = [[], [], []]
        g = 0
        for step in range(1, size):
            item = seq[(start + step) % size]
            if item == BUD:
                g += 1
            else:
                groups[g].append(item[0])
        out.extend(len(group) for group in groups)
        children = groups[0] + groups[1] + groups[2]
        for e in reversed(children):
            work.append((tree.across(e, v), e))
    return tuple(out)


# ------------------------------------------------------------------- sampling


def sample_blossoming(n: int, rng: RandomSource) -> BlossomingTree:
    """Exactly uniform bicolored blossoming tree of size n."""
    seq = sample_composition(n, rng)
    shift = _shift_indices(seq)[rng.below(2)]
    return _decode(seq[3 * shift:] + seq[:3 * shift])


def sample_interval(n: int, rng: RandomSource) -> TamariInterval:
    """Exactly uniform Tamari interval of size n."""
    return to_interval(sample_blossoming(n, rng))
