"""Reverse stress testing for credit portfolios.

Finds the most plausible scenario that depletes a bank's CET1 ratio below a
target, then builds diversified lists of similarly plausible breaching
scenarios, with sector-level aggregation and reporting on top.
"""

__version__ = "0.1.0"

from .capital import (CapitalState, CreditCapitalModel, LinearCapital,
                      LossBasis, RwaMode, calibrate_linear_alpha, risk_weight)
from .errors import (GeorstError, InfeasibleError, InvalidInputError,
                     NonConvergenceError)
from .loss import LossQuantileSpec, loss_quantile, mc_loss_quantile
from .reference import (Family, PlausibilityScore, ReferenceModel,
                        estimate_covariance)
from .scenario_sets import (Membership, NearOptimalSpec, NeighbourhoodSpec,
                            TargetSet, build_pool, driver_decomposition,
                            hit_and_run, local_sample, reduce_farthest_point)
from .sectors import SectorPortfolio, aggregate_sectors
from .solver import (ConstraintSet, DesignPointResult, SolverConfig,
                     conditional_anchor, solve_design_point)
from .transmission import Portfolio, SectorSensitivities

__all__ = [
    "__version__",
    "CapitalState", "CreditCapitalModel", "LinearCapital", "LossBasis",
    "RwaMode", "calibrate_linear_alpha", "risk_weight",
    "GeorstError", "InfeasibleError", "InvalidInputError",
    "NonConvergenceError",
    "LossQuantileSpec", "loss_quantile", "mc_loss_quantile",
    "Family", "PlausibilityScore", "ReferenceModel", "estimate_covariance",
    "Membership", "NearOptimalSpec", "NeighbourhoodSpec", "TargetSet",
    "build_pool", "driver_decomposition", "hit_and_run", "local_sample",
    "reduce_farthest_point",
    "SectorPortfolio", "aggregate_sectors",
    "ConstraintSet", "DesignPointResult", "SolverConfig",
    "conditional_anchor", "solve_design_point",
    "Portfolio", "SectorSensitivities",
]
