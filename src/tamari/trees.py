"""Binary trees, their vector encodings, the Tamari order, and Dyck walks.

Trees are immutable values with structural equality.  Nodes are implicitly
labeled 1..n in infix order and leaves sit at abscissas 0..n from left to
right; all positional conventions below refer to that labeling.  Everything
that may recurse to depth n is written iteratively so that trees of size
10^5 (as produced by the random sampler) remain usable.
"""

from __future__ import annotations

from typing import Iterator, Sequence

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
    "tree_from_text",
    "tree_to_text",
]

#: Default cap on exhaustive enumeration, to keep memory bounded.
MAX_ENUMERATION_SIZE = 12


class BinaryTree:
    """A binary tree: either a leaf or a node with two subtrees.

    ``BinaryTree()`` is a leaf; ``BinaryTree(left, right)`` is a node.  The
    size (number of nodes) and a structural hash are computed once at
    construction, so equality tests and size queries never recurse deeply.
    """

    __slots__ = ("left", "right", "size", "_hash")

    def __init__(self, left: "BinaryTree | None" = None, right: "BinaryTree | None" = None):
        if (left is None) != (right is None):
            raise ValueError("a node requires both children")
        self.left = left
        self.right = right
        if left is None:
            self.size = 0
            self._hash = hash(("BinaryTree", 0))
        else:
            self.size = left.size + right.size + 1
            self._hash = hash((left._hash, right._hash))

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, BinaryTree):
            return NotImplemented
        if self.size != other.size or self._hash != other._hash:
            return False
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.left is None or b.left is None:
                if a.left is not None or b.left is not None:
                    return False
                continue
            if a.size != b.size or a._hash != b._hash:
                return False
            stack.append((a.left, b.left))
            stack.append((a.right, b.right))
        return True

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.size > 30:
            return f"<BinaryTree of size {self.size}>"
        return f"<BinaryTree {dyck_from_tree(self) or 'leaf'}>"


#: The unique tree of size 0.
LEAF = BinaryTree()


def _infix_nodes(t: BinaryTree) -> Iterator[BinaryTree]:
    """Yield the internal nodes of ``t`` in infix order (labels 1..n)."""
    stack: list[BinaryTree] = []
    cur = t
    while True:
        while cur.left is not None:
            stack.append(cur)
            cur = cur.left
        if not stack:
            return
        cur = stack.pop()
        yield cur
        cur = cur.right  # type: ignore[assignment]


def bracket_vector(t: BinaryTree) -> tuple[int, ...]:
    """Sizes of the right subtrees, per node in infix order."""
    return tuple(v.right.size for v in _infix_nodes(t))


def dual_bracket_vector(t: BinaryTree) -> tuple[int, ...]:
    """Sizes of the left subtrees, per node in infix order."""
    return tuple(v.left.size for v in _infix_nodes(t))


def mirror(t: BinaryTree) -> BinaryTree:
    """Exchange left and right throughout the tree (an involution)."""
    return _tree_from_runs(_nesting_runs(bracket_vector(t), False), True)


def _nesting_runs(v: Sequence[int], reverse: bool) -> list[int]:
    """Check that a bracket vector encodes a tree; return its Dyck runs.

    Entry j (read right to left when ``reverse``, the dual case) spans
    [j, j + v_j]; the spans must nest, which a stack of open span ends checks.
    Entry e of the result counts the spans ending at e: the run of down steps
    after the e-th up step of the tree's Dyck walk.
    """
    n = len(v)
    runs = [0] * (n + 1)
    ends: list[int] = []
    for j, a in enumerate(reversed(v) if reverse else v, start=1):
        if not isinstance(a, int) or a < 0 or j + a > n:
            i = n + 1 - j if reverse else j
            raise InvalidBracketVector(f"entry {i} = {a!r} is out of range")
        while ends and ends[-1] < j:
            ends.pop()
        end = j + a
        if ends and end > ends[-1]:
            raise InvalidBracketVector(f"{tuple(v)} violates the nesting condition")
        ends.append(end)
        runs[end] += 1
    return runs


def _tree_from_runs(runs: list[int], mirrored: bool) -> BinaryTree:
    # One stack pass over the Dyck walk U D^runs[1] ... U D^runs[n], as in
    # tree_from_dyck.  Building every node mirrored yields the mirror tree;
    # a dual bracket vector read right to left is the mirror's bracket vector.
    stack: list[BinaryTree] = []
    cur = LEAF
    for run in runs[1:]:
        stack.append(cur)
        cur = LEAF
        for _ in range(run):
            cur = BinaryTree(cur, stack.pop()) if mirrored else BinaryTree(stack.pop(), cur)
    return cur


def tree_from_bracket_vector(v: Sequence[int]) -> BinaryTree:
    """Decode a bracket vector back into the unique tree carrying it.

    Raises InvalidBracketVector when an entry is out of range or the spans
    [i, i + v_i] do not nest: one pass checks that and yields the Dyck runs.
    """
    return _tree_from_runs(_nesting_runs(tuple(v), False), False)


def tree_from_dual_bracket_vector(v: Sequence[int]) -> BinaryTree:
    """Decode a dual bracket vector; inverse of dual_bracket_vector."""
    return _tree_from_runs(_nesting_runs(tuple(v), True), True)


def _branch_lengths(t: BinaryTree, left: bool) -> tuple[int, ...]:
    """Per leaf, the nodes on the maximal left (or right) branch ending there."""
    d = [0] * (t.size + 1)
    pos = 0
    stack = [(t, 0)]
    while stack:
        sub, chain = stack.pop()
        if sub.left is None:
            d[pos] = chain
            pos += 1
        else:
            stack.append((sub.right, 0 if left else chain + 1))
            stack.append((sub.left, chain + 1 if left else 0))
    return tuple(d)


def degree_vector(t: BinaryTree) -> tuple[int, ...]:
    """Entry k: number of nodes on the maximal left branch ending at leaf k."""
    return _branch_lengths(t, True)


def dual_degree_vector(t: BinaryTree) -> tuple[int, ...]:
    """Entry k: number of nodes on the maximal right branch ending at leaf k."""
    return _branch_lengths(t, False)


def canopy(t: BinaryTree) -> tuple[int, ...]:
    """Leaf types left to right: 1 for a left child, 0 for a right child."""
    if t.is_leaf:
        raise UnsupportedSize("the canopy is defined for trees of size >= 1")
    return tuple(1 if d > 0 else 0 for d in degree_vector(t))


def smooth_arcs(t: BinaryTree) -> tuple[tuple[int, int], ...]:
    """One arc per infix node: abscissas of the extreme leaves of its subtree."""
    a = bracket_vector(t)
    b = dual_bracket_vector(t)
    return tuple((i - 1 - b[i - 1], i + a[i - 1]) for i in range(1, t.size + 1))


def tamari_leq(t: BinaryTree, u: BinaryTree) -> bool:
    """Order test for the Tamari lattice: componentwise bracket domination."""
    if t.size != u.size:
        raise SizeMismatch(f"sizes {t.size} and {u.size} differ")
    return all(x <= y for x, y in zip(bracket_vector(t), bracket_vector(u)))


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
    """Dyck word of the tree: word(L) + U + word(R) + D at each node."""
    parts: list[str] = []
    # Nodes whose left subtree is pending; a None per node whose D is pending.
    stack: list[BinaryTree | None] = []
    cur = t
    while True:
        while cur.left is not None:
            stack.append(cur)
            cur = cur.left
        while stack and stack[-1] is None:
            stack.pop()
            parts.append("D")
        if not stack:
            return "".join(parts)
        cur = stack.pop()
        parts.append("U")
        stack.append(None)
        cur = cur.right  # type: ignore[union-attr]


def _check_dyck(word: str) -> None:
    height = 0
    for ch in word:
        if ch == "U":
            height += 1
        elif ch == "D":
            height -= 1
            if height < 0:
                raise InvalidDyckWord(f"{word!r} dips below the axis")
        else:
            raise InvalidDyckWord(f"unexpected letter {ch!r}")
    if height != 0:
        raise InvalidDyckWord(f"{word!r} is not balanced")


def tree_from_dyck(word: str) -> BinaryTree:
    """Inverse of dyck_from_tree.  Raises InvalidDyckWord on bad input."""
    _check_dyck(word)
    stack: list[BinaryTree] = []
    cur = LEAF
    for ch in word:
        if ch == "U":
            stack.append(cur)
            cur = LEAF
        else:
            cur = BinaryTree(stack.pop(), cur)
    return cur


#: Text form of a tree is its Dyck word; the leaf is the empty word.
tree_to_text = dyck_from_tree
tree_from_text = tree_from_dyck


def contact_vector(word: str) -> tuple[int, ...]:
    """Contacts of a Dyck walk, indexed by up steps.

    Entry 0 counts returns of the walk to height 0 (start excluded).  Entry
    i >= 1 counts the times the walk, after the i-th up step, comes back to
    the height just reached before first going strictly below it.  The
    normative contract is contact_vector(w) == degree_vector(tree_from_dyck(w)).
    """
    _check_dyck(word)
    heights = [0]
    for ch in word:
        heights.append(heights[-1] + (1 if ch == "U" else -1))
    n = word.count("U")
    c = [0] * (n + 1)
    c[0] = sum(1 for h in heights[1:] if h == 0)
    i = 0
    for p, ch in enumerate(word):
        if ch != "U":
            continue
        i += 1
        top = heights[p + 1]
        for h in heights[p + 2:]:
            if h < top:
                break
            if h == top:
                c[i] += 1
    return tuple(c)


def descent_vector(word: str) -> tuple[int, ...]:
    """Entry i >= 1: length of the down-step run right after the i-th up step."""
    _check_dyck(word)
    return (0,) + tuple(len(run) for run in word.split("U")[1:])


_tree_cache: dict[int, tuple[BinaryTree, ...]] = {0: (LEAF,)}


def enumerate_binary_trees(n: int, max_size: int | None = None) -> tuple[BinaryTree, ...]:
    """All Catalan(n) binary trees of size n, in a fixed deterministic order.

    Results are cached.  Sizes beyond ``max_size`` (default
    MAX_ENUMERATION_SIZE) raise UnsupportedSize; pass a larger cap to
    override.
    """
    if n < 0:
        raise ValueError("size must be non-negative")
    cap = MAX_ENUMERATION_SIZE if max_size is None else max_size
    if n > cap:
        raise UnsupportedSize(f"size {n} exceeds the enumeration cap {cap}")
    for m in range(1, n + 1):
        if m not in _tree_cache:
            _tree_cache[m] = tuple(
                BinaryTree(left, right)
                for i in range(m)
                for left in _tree_cache[i]
                for right in _tree_cache[m - 1 - i]
            )
    return _tree_cache[n]
