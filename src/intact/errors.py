"""Exception types shared across the package."""


class IntactError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(IntactError, ValueError):
    """Matrix dimensions disagree with the declared contract."""


class DimensionMismatch(ShapeMismatch):
    """New data does not match the dimensions a model was trained with."""


class NonFiniteInput(IntactError, ValueError):
    """Input contains NaN or infinite entries."""


class EmptyView(IntactError, ValueError):
    """A view matrix has no rows or columns, or no views were supplied."""


class NonPositiveScale(IntactError, ValueError):
    """The Cauchy scale parameter must be strictly positive."""


class SingularSystem(IntactError):
    """A reweighted normal-equation system was not positive definite."""


class DivergenceDetected(IntactError):
    """The alternation objective increased beyond tolerance.

    Descent is guaranteed for the reweighted updates, so this always
    signals an implementation or usage bug, never an expected outcome.
    """


class GramNotPSD(IntactError):
    """A kernel Gram matrix is too far from positive semidefinite."""


class ZeroRegularizer(IntactError, ValueError):
    """The stability bound is undefined when the latent regularizer is zero."""


class RankDeficient(IntactError, ValueError):
    """Alignment requires an estimated embedding with full column rank."""


class EmptyTrainingSet(IntactError, ValueError):
    """k-NN classification needs at least one training row."""


class DegenerateSignal(IntactError, ValueError):
    """Noise injection needs nonzero signal variance inside the window."""


class ParseError(IntactError, ValueError):
    """A text input could not be parsed. Carries the offending line number."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class MissingInput(IntactError, ValueError):
    """A command lacks the inputs required to compute any metric."""
