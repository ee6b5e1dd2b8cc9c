"""Exception types shared across the package."""


class TamariError(Exception):
    """Base class for all errors raised by this package."""


class SizeMismatch(TamariError):
    """Two objects that must have equal size do not."""


class NotAnInterval(TamariError):
    """A pair of binary trees is not ordered in the Tamari lattice."""


class InvalidBracketVector(TamariError):
    """An integer vector is not the bracket vector of any binary tree."""


class InvalidDyckWord(TamariError):
    """A word over {U, D} is not balanced or dips below the axis."""


class NotDerisable(TamariError):
    """The interval is not in the image of the rise operation."""


class UnsupportedSize(TamariError):
    """A size argument exceeds a configured cap or is out of range."""


class InvalidDiagram(TamariError):
    """Arc data does not describe a non-crossing meandering diagram."""


class NotATree(TamariError):
    """The underlying graph of a meandering diagram is not a tree."""


class InvalidBlossoming(TamariError):
    """A plane tree violates the bicolored blossoming-tree invariants."""


class InvalidDecomposition(TamariError):
    """Arguments to compose() do not describe a meandering tree."""


class InvalidSequence(TamariError):
    """An integer sequence is not a valid marked-tree encoding."""
