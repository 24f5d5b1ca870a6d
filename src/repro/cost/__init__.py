"""Cost-function substrate: linear pieces, PWL functions, metrics.

Public API:

* :class:`CostMetric` and the predefined metric sets (:data:`CLOUD_METRICS`
  for Scenario 1, :data:`APPROX_METRICS` for Scenario 2).
* :class:`LinearPiece` — one linear cost piece (Figure 9's attributes
  ``reg``/``w``/``b``).
* :class:`PiecewiseLinearFunction` — single-objective PWL cost function.
* :class:`MultiObjectivePWL` — vector-valued PWL cost function with the
  ``Dom`` dominance-region computation (Algorithm 3).
* :class:`ParamPolynomial` — exact symbolic cardinality/cost expressions.
* :class:`SharedPartition` — simplicial grid for PWL approximation with
  aligned-partition fast paths.
* :func:`accumulator_map` — each metric's accumulator (``sum`` or
  ``max``) for ``AccumulateCost`` of Algorithm 3, which
  :meth:`repro.core.PWLBackend.accumulate` runs.
* :func:`batch_dominance_aligned` — vectorized ``Dom`` of one cost against
  a whole batch of aligned costs (RRPA pruning hot path).
"""

from .accumulate import accumulator_map
from .approximate import SharedPartition
from .linear import LinearPiece
from .metrics import (APPROX_METRICS, CLOUD_METRICS, FEES, PRECISION_LOSS,
                      TIME, CostMetric)
from .multilinear import ParamPolynomial
from .pwl import PiecewiseLinearFunction
from .vector import MultiObjectivePWL, batch_dominance_aligned

__all__ = [
    "APPROX_METRICS",
    "CLOUD_METRICS",
    "FEES",
    "PRECISION_LOSS",
    "TIME",
    "CostMetric",
    "LinearPiece",
    "MultiObjectivePWL",
    "ParamPolynomial",
    "PiecewiseLinearFunction",
    "SharedPartition",
    "accumulator_map",
    "batch_dominance_aligned",
]
