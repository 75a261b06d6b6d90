"""Exception types shared across the package."""


class AveregError(Exception):
    """Base class for all package errors."""


class InputError(AveregError, ValueError):
    """Invalid argument values (non-finite data, dimension mismatch, bad parameters)."""


class ConfigurationError(AveregError, ValueError):
    """A configuration that can never produce a valid computation (e.g. divergent Landweber)."""


class NumericalError(AveregError, RuntimeError):
    """An iterative numerical procedure failed to converge within its bounds."""


class DegenerateBatchError(AveregError, RuntimeError):
    """A sample-based noise estimate is requested but all measurements coincide."""


class NonTerminationError(AveregError, RuntimeError):
    """The discrepancy search cannot stop; ``delta_est`` is the level it sought."""

    def __init__(self, message, delta_est=float("nan")):
        self.delta_est = delta_est
        super().__init__(message)


class StudyError(AveregError, RuntimeError):
    """Too many replications of a study failed for its summaries to be meaningful."""


class ConfigError(AveregError, ValueError):
    """Study configuration file failed validation; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration: " + "; ".join(self.violations))

    def __reduce__(self):
        # rebuilt from its violations, not its message, when unpickled
        return type(self), (self.violations,)
