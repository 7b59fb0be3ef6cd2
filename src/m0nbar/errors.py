"""Exception types shared across the package."""


class M0nbarError(Exception):
    """Base class for every error this package raises on purpose."""


class PartsMismatch(M0nbarError):
    """Multinomial parts do not sum to the top index."""


class UnstableSplit(M0nbarError):
    """A side of a split carries fewer than two marked points."""


class LabelOutOfRange(M0nbarError):
    """A label is not a member of the ground set."""


class GroundMismatch(M0nbarError):
    """Operands live on different ground sets."""


class IncompatibleSplits(M0nbarError):
    """Two splits cannot coexist as edges of one stable tree."""

    def __init__(self, first, second):
        super().__init__(first, second)
        self.first = first
        self.second = second

    def __str__(self):
        # callers that treat the pair as an empty meet never read the text
        return f"incompatible splits {self.first} and {self.second}"


class NotInternalEdge(M0nbarError):
    """The given split is not an internal edge of the tree."""


class TooLarge(M0nbarError):
    """Requested exhaustive computation exceeds the built-in size guard."""


class EdgeConditionFails(M0nbarError):
    """A divisor is incompatible with an edge of the tree."""

    def __init__(self, witness):
        super().__init__(f"divisor is incompatible with tree edge {witness}")
        self.witness = witness


class DegreeMismatch(M0nbarError):
    """The total degree of a product is not n - 3, so it does not land in dimension zero."""


class DimensionUnbalanced(M0nbarError):
    """Edge plus psi weights do not sum to the total vertex dimension."""


class NoBalanceGiven(M0nbarError):
    """The factorial-ratio form needs a balanced weighting, and none exists."""


class BudgetExceeded(M0nbarError):
    """The expansion oracle refuses instances above its enumeration guard."""


class ParseError(M0nbarError):
    """Expression text violates the CLI grammar."""

    def __init__(self, position, message):
        super().__init__(f"at position {position}: {message}")
        self.position = position
        self.message = message
