"""Exception types shared across the package."""


class TwoGraphError(Exception):
    """Base class for all errors raised by this package."""


class NotABijection(TwoGraphError):
    """The commutation table is not a permutation of the index pairs."""


class IndexOutOfRange(TwoGraphError):
    """A generator index lies outside [1..m] or [1..n]."""


class TableTooLarge(TwoGraphError):
    """The table would hold more index pairs than the m*n cap allows."""


class FlipRequiresSquare(TwoGraphError):
    """The flip table e_i f_j = f_i e_j only exists when m = n."""


class DegreeTooLarge(TwoGraphError):
    """Requested factor degree exceeds the degree of the word."""


class ThetaMismatch(TwoGraphError):
    """Operands live over different commutation tables."""


class NotUnitModulus(TwoGraphError):
    """A phase or torus point fails |t| = 1 exactly."""


class NotAPermutation(TwoGraphError):
    """The supplied index map is not a bijection of the word list."""


class NotTwisted(TwoGraphError):
    """The unitary pair fails the twisted compatibility identity."""


class RelationsViolated(TwoGraphError):
    """Prospective generator images do not satisfy the commutation relations."""


class NotUnitary(TwoGraphError):
    """An element required to be unitary is not."""


class WrongTheta(TwoGraphError):
    """A built-in example pair is incompatible with the ambient table."""


class MalformedInput(TwoGraphError, ValueError):
    """Malformed word or pair-spec text, or an argument out of its range
    (a negative spectrum window, a level below 1); also a ValueError for
    callers that catch one."""


class FactoringTooCostly(TwoGraphError):
    """A radical base has a cofactor that trial division below the bound
    cannot factor."""


class ExpressionSyntaxError(TwoGraphError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
