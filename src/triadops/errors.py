"""Exception taxonomy shared by every module of the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by triadops operations."""


class DimensionMismatch(ToolkitError):
    """Operand factor dimensions are incompatible with the requested operation."""


class NotHermitian(ToolkitError):
    """Input violates the Hermiticity precondition."""


class NotPSD(ToolkitError):
    """Input violates the positive-semidefiniteness precondition."""


class NotAState(ToolkitError):
    """Input is not a density operator (PSD with unit trace)."""


class ConvergenceFailure(ToolkitError):
    """A backend eigensolver or SVD failed to converge."""


class ZeroMatrix(ToolkitError):
    """All eigenvalues fell below the rank threshold."""


class PreconditionNotMet(ToolkitError):
    """A stated operation precondition does not hold for the given input."""


class MarginalRankDeficient(ToolkitError):
    """A reduced state lost full rank (or became too ill-conditioned) during scaling."""


class WrongClassForMode(ToolkitError):
    """Filter mode requires a state class the input does not belong to."""


class FullRankEigenvector(ToolkitError):
    """Splitting requires an eigenvector with a nontrivial kernel."""


class CompleteReducibilityViolation(ToolkitError):
    """Split residual exceeded tolerance; the input was not in a triad class."""


class BadRank(ToolkitError):
    """Requested rank is outside the admissible range."""


class UnknownName(ToolkitError):
    """Unrecognised canonical state name."""

