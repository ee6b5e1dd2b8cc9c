"""Binary trees, their vector encodings, the Tamari order, and Dyck walks.

Nodes are labeled 1..n in infix order and leaves sit at abscissas 0..n.  A
tree's state is its bracket vector a (right subtree sizes) and dual vector
b (left subtree sizes): node i spans nodes i - b_i .. i + a_i.  Equality
and hashing compare a, and every encoder reads a, b or the Dyck runs,
runs[e] = #{j : j + a_j = e}.  Nothing recurses, so the size-10^5 trees of
the random sampler remain usable.
"""

from __future__ import annotations

from operator import add, le, sub
from typing import Sequence

from .errors import InvalidBracketVector, InvalidDyckWord, SizeMismatch, UnsupportedSize

__all__ = [
    "BinaryTree",
    "LEAF",
    "MAX_ENUMERATION_SIZE",
    "bracket_vector",
    "canopy",
    "contact_vector",
    "degree_vector",
    "descent_vector",
    "dual_bracket_vector",
    "dual_degree_vector",
    "dyck_from_tree",
    "enumerate_binary_trees",
    "mirror",
    "right_rotations",
    "smooth_arcs",
    "tamari_leq",
    "tree_from_bracket_vector",
    "tree_from_dual_bracket_vector",
    "tree_from_dyck",
]

#: Cap on exhaustive enumeration, to keep memory bounded.
MAX_ENUMERATION_SIZE = 12


class BinaryTree:
    """A binary tree: either a leaf or a node with two subtrees.

    ``BinaryTree()`` is a leaf; ``BinaryTree(left, right)`` is a node, built
    in constant time, whose vectors are filled on first use and kept.  The
    decoders build trees that hold only vectors (``_tree_of``); their first
    ``.left`` or ``.right`` builds all their nodes in one stack pass.
    """

    __slots__ = ("_left", "_right", "size", "_hash", "_bv", "_dbv")

    def __init__(self, left: "BinaryTree | None" = None, right: "BinaryTree | None" = None):
        if (left is None) != (right is None):
            raise ValueError("a node requires both children")
        self._left, self._right, self._hash = left, right, None
        self.size = 0 if left is None else left.size + right.size + 1
        self._bv = self._dbv = () if left is None else None

    left = property(lambda self: self._children()[0])
    right = property(lambda self: self._children()[1])
    is_leaf = property(lambda self: not self.size)

    def _children(self) -> "tuple[BinaryTree | None, BinaryTree | None]":
        if self._left is None and self.size:
            # all nodes in one stack pass over the Dyck walk U D^runs[1] ...
            stack: list[BinaryTree] = []
            cur = LEAF
            for run in _runs(bracket_vector(self))[1:]:
                stack.append(cur)
                cur = LEAF
                for _ in range(run):
                    cur = BinaryTree(stack.pop(), cur)
            self._left, self._right = cur._left, cur._right
        return self._left, self._right

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, BinaryTree):
            return NotImplemented
        return self.size == other.size and bracket_vector(self) == bracket_vector(other)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(bracket_vector(self))
        return self._hash

    def __repr__(self) -> str:
        if self.size > 30:
            return f"<BinaryTree of size {self.size}>"
        return f"<BinaryTree {dyck_from_tree(self) or 'leaf'}>"


#: The unique tree of size 0.
LEAF = BinaryTree()


def _tree_of(bv: tuple[int, ...] | None, dbv: tuple[int, ...] | None = None) -> BinaryTree:
    """The tree with bracket vector ``bv`` or dual bracket vector ``dbv``,
    which the caller knows to encode a tree; the other vector may be None."""
    t = object.__new__(BinaryTree)
    t._left = t._right = t._hash = None
    t.size = len(dbv if bv is None else bv)
    t._bv, t._dbv = bv, dbv
    return t


def _fill_vectors(t: BinaryTree) -> None:
    # One infix walk over the nodes of a tree built by the constructor; a
    # subtree that knows a vector contributes both of its vectors whole.
    bv, dbv = [], []
    stack: list = [t._right, (t._right.size, t._left.size), t._left]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            bv.append(node[0])
            dbv.append(node[1])
        elif node._bv is None and node._dbv is None:
            stack += (node._right, (node._right.size, node._left.size), node._left)
        else:
            bv += bracket_vector(node)
            dbv += dual_bracket_vector(node)
    t._bv, t._dbv = tuple(bv), tuple(dbv)


def _walk(runs: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bracket and dual bracket vectors from the Dyck runs, in one stack pass.

    The e-th up step opens node e, whose left subtree holds the nodes after
    the last node still open (0 for none).  Each of the runs[e] down steps
    after it closes the last open node k, whose right subtree holds e - k
    nodes.  On runs with as many down steps as up steps, a dip below the
    axis pops the 0 and then finds the stack empty: IndexError.
    """
    n = len(runs) - 1
    a = [0] * n
    b = [0] * n
    stack = [0]
    push, pop = stack.append, stack.pop
    for e, run in enumerate(runs[1:], 1):
        b[e - 1] = e - 1 - stack[-1]
        push(e)
        while run:
            k = pop()
            a[k - 1] = e - k
            run -= 1
    return tuple(a), tuple(b)


def bracket_vector(t: BinaryTree) -> tuple[int, ...]:
    """Sizes of the right subtrees, per node in infix order."""
    if t._bv is None:
        if t._dbv is None:
            _fill_vectors(t)
        else:
            # a dual vector read right to left is the mirror's bracket vector
            t._bv = _walk(_runs(t._dbv[::-1]))[1][::-1]
    return t._bv


def dual_bracket_vector(t: BinaryTree) -> tuple[int, ...]:
    """Sizes of the left subtrees, per node in infix order."""
    if t._dbv is None:
        if t._bv is None:
            _fill_vectors(t)
        else:
            t._dbv = _walk(_runs(t._bv))[1]
    return t._dbv


def mirror(t: BinaryTree) -> BinaryTree:
    """Exchange left and right throughout the tree (an involution)."""
    return _tree_of(dual_bracket_vector(t)[::-1], bracket_vector(t)[::-1])


def _runs(a: Sequence[int]) -> list[int]:
    """Entry e: the spans [j, j + a_j] ending at e, that is the run of down
    steps after the e-th up step of the tree's Dyck walk."""
    runs = [0] * (len(a) + 1)
    for j, x in enumerate(a, 1):
        runs[j + x] += 1
    return runs


def _check_nesting(v: Sequence[int], reverse: bool) -> tuple[int, ...]:
    """Check that a bracket vector encodes a tree; return it as a tuple.

    Entry j (read right to left when ``reverse``, the dual case) spans
    [j, j + v_j]; the spans must lie in [1..n] and nest, which a stack of
    open span ends checks.  The error names the first bad entry only.
    """
    v = tuple(v)
    n = len(v)
    ends: list[int] = []
    for j, a in enumerate(reversed(v) if reverse else v, start=1):
        if not isinstance(a, int) or a < 0 or j + a > n:
            break
        while ends and ends[-1] < j:
            ends.pop()
        if ends and j + a > ends[-1]:
            break
        ends.append(j + a)
    else:
        return v
    i = n + 1 - j if reverse else j
    crosses = isinstance(a, int) and 0 <= a <= n - j
    problem = "crosses the span of an earlier entry" if crosses else "is out of range"
    raise InvalidBracketVector(f"entry {i} = {a!r} {problem}")


def tree_from_bracket_vector(v: Sequence[int]) -> BinaryTree:
    """Decode a bracket vector back into the unique tree carrying it.

    Raises InvalidBracketVector when an entry is out of range or the spans
    [i, i + v_i] do not nest.
    """
    return _tree_of(_check_nesting(v, False))


def tree_from_dual_bracket_vector(v: Sequence[int]) -> BinaryTree:
    """Decode a dual bracket vector; inverse of dual_bracket_vector."""
    return _tree_of(None, _check_nesting(v, True))


def degree_vector(t: BinaryTree) -> tuple[int, ...]:
    """Entry k: number of nodes on the maximal left branch ending at leaf k,
    whose subtrees start there: the runs of the mirror, read backwards."""
    return tuple(_runs(dual_bracket_vector(t)[::-1])[::-1])


def dual_degree_vector(t: BinaryTree) -> tuple[int, ...]:
    """Entry k: number of nodes on the maximal right branch ending at leaf k,
    whose subtrees end there: the Dyck runs."""
    return tuple(_runs(bracket_vector(t)))


def canopy(t: BinaryTree) -> tuple[int, ...]:
    """Leaf types left to right: 1 for a left child, 0 for a right child.

    Leaf 0 is always a left child.  Leaf k >= 1 follows node k in infix
    order: it is node k's right child when node k has an empty right
    subtree, and otherwise the leftmost leaf of that subtree, a left child.
    So bit k is ``bracket_vector(t)[k - 1] > 0``.
    """
    if t.is_leaf:
        raise UnsupportedSize("the canopy is defined for trees of size >= 1")
    return (1, *(1 if a else 0 for a in bracket_vector(t)))


def smooth_arcs(t: BinaryTree) -> tuple[tuple[int, int], ...]:
    """One arc per infix node: abscissas of the extreme leaves of its subtree."""
    # node i spans the leaves i - 1 - b_i .. i + a_i
    starts = map(sub, range(t.size), dual_bracket_vector(t))
    return tuple(zip(starts, map(add, range(1, t.size + 1), bracket_vector(t))))


def tamari_leq(t: BinaryTree, u: BinaryTree) -> bool:
    """Order test for the Tamari lattice: componentwise bracket domination."""
    if t.size != u.size:
        raise SizeMismatch(f"sizes {t.size} and {u.size} differ")
    return all(map(le, bracket_vector(t), bracket_vector(u)))


def right_rotations(t: BinaryTree) -> list[BinaryTree]:
    """All trees covering ``t``: one right rotation applied at any node.

    Nodes are visited in preorder; each rotated subtree is rebuilt up to the
    root along the chain of (ancestor, came-from-left) links.
    """
    out: list[BinaryTree] = []
    stack = [(t, None)]
    while stack:
        sub, chain = stack.pop()
        if sub.is_leaf:
            continue
        left, right = sub.left, sub.right
        if not left.is_leaf:
            x = BinaryTree(left.left, BinaryTree(left.right, right))
            link = chain
            while link is not None:
                parent, from_left, link = link
                x = BinaryTree(x, parent.right) if from_left else BinaryTree(parent.left, x)
            out.append(x)
        stack.append((right, (sub, False, chain)))
        stack.append((left, (sub, True, chain)))
    return out


def dyck_from_tree(t: BinaryTree) -> str:
    """Dyck word of the tree: word(L) + U + word(R) + D at each node, that is
    its runs of down steps joined by U (runs[0] is 0)."""
    return "U".join(["D" * run for run in _runs(bracket_vector(t))])


def _check_dyck(word: str) -> None:
    """Raise InvalidDyckWord naming the first bad letter, never the word."""
    height = 0
    for i, ch in enumerate(word, 1):
        if ch == "U":
            height += 1
        elif ch == "D":
            height -= 1
            if height < 0:
                raise InvalidDyckWord(f"letter {i} dips below the axis")
        else:
            raise InvalidDyckWord(f"unexpected letter {ch!r} at position {i}")
    if height != 0:
        raise InvalidDyckWord(f"the word ends at height {height}, not 0")


def tree_from_dyck(word: str) -> BinaryTree:
    """Inverse of dyck_from_tree.  Raises InvalidDyckWord on bad input.

    One letter pass, as in ``_walk``, with the last open node in ``top``; a
    letter other than U and D, unequal counts, or a dip below the axis (a pop
    from the empty stack) defers to ``_check_dyck`` for the error.
    """
    n = word.count("U")
    if len(word) != 2 * n or word.count("D") != n:
        _check_dyck(word)
    a, b = [0] * n, [0] * n
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    e = top = 0
    try:
        for ch in word:
            if ch == "U":
                b[e] = e - top
                e += 1
                push(top)
                top = e
            else:
                a[top - 1] = e - top
                top = pop()
    except IndexError:
        _check_dyck(word)
        raise
    return _tree_of(tuple(a), tuple(b))


def contact_vector(word: str) -> tuple[int, ...]:
    """Contacts of a Dyck walk, indexed by up steps.

    Entry 0 counts returns of the walk to height 0 (start excluded).  Entry
    i >= 1 counts the times the walk, after the i-th up step, comes back to
    the height just reached before first going strictly below it.  The
    normative contract is contact_vector(w) == degree_vector(tree_from_dyck(w)).
    """
    _check_dyck(word)
    c = [0]
    # stack[h]: the up step that last reached height h, 0 for the start; a
    # down step landing at h is a contact of that step
    stack = [0]
    for ch in word:
        if ch == "U":
            stack.append(len(c))
            c.append(0)
        else:
            stack.pop()
            c[stack[-1]] += 1
    return tuple(c)


def descent_vector(word: str) -> tuple[int, ...]:
    """Entry i >= 1: length of the down-step run right after the i-th up step."""
    _check_dyck(word)
    return (0,) + tuple(len(run) for run in word.split("U")[1:])


_tree_cache: dict[int, tuple[BinaryTree, ...]] = {0: (LEAF,)}


def enumerate_binary_trees(n: int) -> tuple[BinaryTree, ...]:
    """All Catalan(n) binary trees of size n, in a fixed deterministic order.

    Results are cached.  Sizes beyond MAX_ENUMERATION_SIZE raise
    UnsupportedSize.
    """
    if n < 0:
        raise ValueError("size must be non-negative")
    if n > MAX_ENUMERATION_SIZE:
        raise UnsupportedSize(f"size {n} exceeds the enumeration cap {MAX_ENUMERATION_SIZE}")
    for m in range(1, n + 1):
        if m not in _tree_cache:
            _tree_cache[m] = tuple(
                BinaryTree(left, right)
                for i in range(m)
                for left in _tree_cache[i]
                for right in _tree_cache[m - 1 - i]
            )
    return _tree_cache[n]
