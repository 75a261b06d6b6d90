"""Regularized solution of ill-posed linear equations from repeated noisy
measurements with unknown noise distribution.

The pipeline mirrors the statistical model: average n i.i.d. measurements,
estimate the noise level of the average from the sample itself, then choose
the regularization parameter either a priori or by the discrepancy principle
(optionally guarded by an emergency stop), applied to a filter-based
regularizer in the singular basis of the operator.
"""

# perfbench's oracle test reads these six names from the package
from .filters import FilterSpec, apply_regularizer  # noqa: F401
from .selection import discrepancy_principle  # noqa: F401
from .spectral import embed_solution, project_data, svd  # noqa: F401

__version__ = "0.1.0"
