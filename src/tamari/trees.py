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
    while stack or not cur.is_leaf:
        while not cur.is_leaf:
            stack.append(cur)
            cur = cur.left
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
    if t.is_leaf:
        return LEAF
    order: list[BinaryTree] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if u.is_leaf:
            continue
        order.append(u)
        stack.append(u.left)
        stack.append(u.right)
    built: dict[int, BinaryTree] = {}

    def lookup(u: BinaryTree) -> BinaryTree:
        return LEAF if u.is_leaf else built[id(u)]

    for u in reversed(order):
        built[id(u)] = BinaryTree(lookup(u.right), lookup(u.left))
    return built[id(t)]


def tree_from_bracket_vector(v: Sequence[int]) -> BinaryTree:
    """Decode a bracket vector back into the unique tree carrying it.

    Raises InvalidBracketVector when the nesting condition fails; validity is
    certified by re-encoding the decoded tree.
    """
    v = tuple(v)
    n = len(v)
    if n == 0:
        return LEAF
    # Entry i covers nodes (i+1 .. i+a_i]; node i's subtree ends at i + a_i.
    # Reading the multiset {i + a_i} as down-step runs of a Dyck walk inverts
    # the encoding in linear time.
    runs = [0] * (n + 1)
    for i, a in enumerate(v, start=1):
        if not isinstance(a, int) or a < 0 or i + a > n:
            raise InvalidBracketVector(f"entry {i} = {a!r} is out of range")
        runs[i + a] += 1
    word = "".join("U" + "D" * runs[i] for i in range(1, n + 1))
    t = tree_from_dyck(word)
    if bracket_vector(t) != v:
        raise InvalidBracketVector(f"{v} violates the nesting condition")
    return t


def tree_from_dual_bracket_vector(v: Sequence[int]) -> BinaryTree:
    """Decode a dual bracket vector; inverse of dual_bracket_vector."""
    t = tree_from_bracket_vector(tuple(reversed(tuple(v))))
    return mirror(t)


def degree_vector(t: BinaryTree) -> tuple[int, ...]:
    """Entry k: number of nodes on the maximal left branch ending at leaf k."""
    d = [0] * (t.size + 1)
    pos = 0
    stack = [(t, 0)]
    while stack:
        sub, chain = stack.pop()
        if sub.is_leaf:
            d[pos] = chain
            pos += 1
        else:
            stack.append((sub.right, 0))
            stack.append((sub.left, chain + 1))
    return tuple(d)


def dual_degree_vector(t: BinaryTree) -> tuple[int, ...]:
    """Entry k: number of nodes on the maximal right branch ending at leaf k."""
    d = [0] * (t.size + 1)
    pos = 0
    stack = [(t, 0)]
    while stack:
        sub, chain = stack.pop()
        if sub.is_leaf:
            d[pos] = chain
            pos += 1
        else:
            stack.append((sub.right, chain + 1))
            stack.append((sub.left, 0))
    return tuple(d)


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
    stack = [(t, 0)]
    while stack:
        sub, state = stack.pop()
        if sub.is_leaf:
            continue
        if state == 0:
            stack.append((sub, 1))
            stack.append((sub.left, 0))
        elif state == 1:
            parts.append("U")
            stack.append((sub, 2))
            stack.append((sub.right, 0))
        else:
            parts.append("D")
    return "".join(parts)


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
    n = word.count("U")
    d = [0] * (n + 1)
    i = 0
    p = 0
    length = len(word)
    while p < length:
        if word[p] == "U":
            i += 1
            q = p + 1
            while q < length and word[q] == "D":
                q += 1
            d[i] = q - (p + 1)
            p = q
        else:
            p += 1
    return tuple(d)


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
