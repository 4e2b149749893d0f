"""Exception types shared across the library."""


class OploraError(Exception):
    """Base class for all library errors.

    A benchmark run sets ``step`` (and ``layer``, when the failure is in
    one layer's optimizer step) to locate the error in its trajectory.
    """

    step = None
    layer = None


class ShapeError(OploraError, ValueError):
    """Operands have incompatible or invalid dimensions or values."""


class NonFiniteError(ShapeError):
    """An operand holds NaN or inf entries, typically a diverged iterate."""


class SingularMetricError(OploraError, ArithmeticError):
    """A matrix that must be positive definite is not.

    ``pivot_index`` is the Cholesky pivot that failed; ``side`` and
    ``iteration`` locate the failing solve inside an alternating update.
    """

    def __init__(self, message, pivot_index=None, side=None, iteration=None):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.side = side
        self.iteration = iteration


class ConvergenceError(OploraError, ArithmeticError):
    """An iterative numerical kernel failed to converge."""


class StaleCaptureError(OploraError, RuntimeError):
    """An optimizer step ran without fresh forward/backward captures."""


class ConfigError(OploraError, ValueError):
    """Invalid experiment configuration."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class SweepError(OploraError, RuntimeError):
    """Every run in a learning-rate sweep failed."""


class ReportError(OploraError, RuntimeError):
    """Run sets handed to a report do not match."""
