"""Exception types shared across the package."""


class MatcanonError(Exception):
    """Base class for all package errors."""


class ContextMismatch(MatcanonError):
    """Scalars or matrices from incompatible field contexts were combined."""


class DivisionByZero(MatcanonError, ZeroDivisionError):
    pass


class WrongCharacteristic(MatcanonError):
    pass


class NoRootStrictPolicy(MatcanonError):
    """A required root does not exist and the policy forbids extending."""


class NoArtinSchreierRootStrict(NoRootStrictPolicy):
    """Characteristic-2 pair reduction needed x^2+x+a=0 under strict policy."""


class TowerCapExceeded(MatcanonError):
    pass


class ParseError(MatcanonError):
    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else "%s (at position %d)" % (message, position))
        self.position = position


class DimensionMismatch(MatcanonError):
    pass


class SingularInput(MatcanonError):
    pass


class NotSplit(MatcanonError):
    """Minimal polynomial of the asymmetry has a factor we cannot split."""


class DegenerateRestriction(MatcanonError):
    """Restricted form was degenerate where theory forbids it (internal bug)."""


class InternalDegenerate(MatcanonError):
    """An orthogonal split failed in a mathematically impossible way."""


class HypothesisViolation(MatcanonError):
    """Input violates a structural precondition (parity/characteristic)."""


class InvalidDescriptor(MatcanonError):
    pass
