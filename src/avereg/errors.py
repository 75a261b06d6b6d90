"""Exception types shared across the package.

Every error is an :class:`AveregError`.  The command line exits 1 on bad
input (:class:`InputError`, :class:`ConfigError`) and on a numerical failure
(:class:`NumericalError`, :class:`NonTerminationError`), and 2 on degenerate
statistics (:class:`DegenerateBatchError`, :class:`StudyError`).
"""


class AveregError(Exception):
    """Base class for all package errors."""


class InputError(AveregError, ValueError):
    """Invalid argument values: non-finite or overflowing data, a dimension
    mismatch, a rank-0 operator, bad parameters such as a divergent Landweber
    relaxation."""


class BatchOverflowError(InputError):
    """A measurement batch whose mean or spread overflows double precision;
    a study records it as its replication's failure."""


class NumericalError(AveregError, RuntimeError):
    """A numerical procedure failed to converge within its bounds, or its
    result overflows double precision."""


class DegenerateBatchError(AveregError, RuntimeError):
    """A sample-based noise estimate is requested but all measurements coincide."""


class NonTerminationError(AveregError, RuntimeError):
    """The discrepancy search cannot stop."""


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
