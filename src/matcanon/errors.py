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
    """Under strict policy: the answer's first record beyond the input's
    field is an Artin-Schreier root, of x^2+x=a."""


class TowerCapExceeded(MatcanonError):
    """records: the (c1, d) records of the tower the refused adjunction
    would have made, that adjunction's last."""


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


class InternalDegenerate(MatcanonError):
    """An orthogonal split failed in a mathematically impossible way."""


class HypothesisViolation(MatcanonError):
    """Input violates a structural precondition (parity/characteristic)."""


class InvalidDescriptor(MatcanonError):
    pass
