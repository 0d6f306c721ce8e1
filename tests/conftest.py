import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from georst import (CapitalState, CreditCapitalModel, InvalidInputError,
                    LossQuantileSpec, Portfolio, ReferenceModel,
                    SectorSensitivities)
from georst.capital import breaches
from georst.solver import grid_2d


@pytest.fixture
def identity_model():
    return ReferenceModel.from_covariance(np.eye(2))


@pytest.fixture
def correlated_model():
    return ReferenceModel.from_covariance(np.array([[1.0, 0.5], [0.5, 1.0]]))


def make_sensitivities(delta=0.5, eta=0.1, beta=(0.3,), gamma=(0.05,),
                       sector_id="corp"):
    """A one-row loading table: pd [delta | beta], lgd [eta | gamma]."""
    return SectorSensitivities([sector_id], pd=[[delta, *beta]],
                               lgd=[[eta, *gamma]])


def stack_sensitivities(*tables):
    """One loading table holding the rows of ``tables``, in order."""
    return SectorSensitivities(
        [sector_id for t in tables for sector_id in t.sector_id],
        pd=np.vstack([t.pd for t in tables]),
        lgd=np.vstack([t.lgd for t in tables]))


def portfolio_from_rows(rows, sectors, sign_constraints=True):
    """A Portfolio of (exposure_id, sector_id, ead, pd0, lgd0, rho[, maturity])
    rows, turned into its columns; maturity defaults to 2.5."""
    ids, sector_ids, *values = zip(*(tuple(r) + (2.5,) * (7 - len(r))
                                     for r in rows))
    return Portfolio(list(ids), list(sector_ids),
                     *(np.array(v, dtype=float) for v in values),
                     sectors=sectors, sign_constraints=sign_constraints)


def make_portfolio(n=5, ead=1.0, pd0=0.02, lgd0=0.45, rho=0.2, **sens_kwargs):
    sens = make_sensitivities(**sens_kwargs)
    return portfolio_from_rows(
        [(f"e{i}", sens.sector_id[0], ead, pd0, lgd0, rho) for i in range(n)],
        sens)


@pytest.fixture
def small_portfolio():
    return make_portfolio(n=5)


def monotonicity_violation(portfolio, s) -> float:
    """Worst improvement in credit quality under s; 0 iff none improves."""
    pd = portfolio.stressed_pd(s)
    lgd = portfolio.stressed_lgd(s)
    worst = max(np.max(portfolio.pd0 - pd), np.max(portfolio.lgd0 - lgd))
    return float(max(worst, 0.0))


def fd_grad(fun, y, step=1e-5) -> np.ndarray:
    """Central differences of a scalar function at y: the test oracle for
    the capital maps' analytic ``ratio_grad``."""
    y = np.asarray(y, dtype=float)
    g = np.empty_like(y)
    for j in range(y.size):
        e = np.zeros_like(y)
        e[j] = step
        g[j] = (fun(y + e) - fun(y - e)) / (2.0 * step)
    return g


def make_credit_capital(portfolio, cet1_0=6.0, rwa_0=50.0, **state_kwargs):
    state = CapitalState(cet1_0=cet1_0, rwa_0=rwa_0, **state_kwargs)
    return CreditCapitalModel(portfolio, state, LossQuantileSpec())


class CountingCapital:
    """Capital map wrapper that counts R(s) evaluations, one per scenario
    of a ``ratio_many`` block too; ``ratio_grad`` is the wrapped map's and
    is not counted."""

    def __init__(self, inner, ratio=None):
        self.r0, self.r_star = inner.r0, inner.r_star
        self._ratio = inner.ratio if ratio is None else ratio
        self.ratio_grad = inner.ratio_grad
        self.calls = 0

    def ratio(self, s):
        self.calls += 1
        return self._ratio(s)

    def ratio_many(self, S):
        return np.array([self.ratio(s) for s in S])


GENERATE = Path(__file__).resolve().parent.parent / "benchmark" / "generate.py"


def generate_inputs(workload, out, toy=True):
    """Write a benchmark workload's inputs (seed 0), at self-test size unless
    toy is False, to out and return the path of their config file."""
    subprocess.run([sys.executable, str(GENERATE), "--workload", workload,
                    "--seed", "0", "--out", str(out)] + ["--toy"] * toy,
                   check=True, capture_output=True)
    return out / "run.json"


def generate_toy_inputs(workload, out):
    """``generate_inputs`` at self-test size."""
    return generate_inputs(workload, out)


@dataclass
class GridOracleResult:
    s: np.ndarray
    mahalanobis_sq: float
    cell_size: tuple[float, float]


def grid_oracle(model, capital, constraints, resolution, x_bounds=None,
                g_bounds=None):
    """Exhaustive 2-D scan: the feasible grid point with minimal distance.

    Independent validator for the solver; returns None when no grid point
    is feasible (infeasible signal). A point is feasible when it breaches
    and satisfies ``constraints``, box and monotonicity alike, so explicit
    bounds wider than the box do not admit points outside it. The grid
    spans the constraints' box unless g_bounds or x_bounds is given.
    """
    if model.d != 2:
        raise InvalidInputError("grid oracle only supports d = 2")
    lo, hi = constraints.bounds(2)
    g_bounds = (lo[0], hi[0]) if g_bounds is None else g_bounds
    x_bounds = (lo[1], hi[1]) if x_bounds is None else x_bounds
    if not np.all(np.isfinite([*g_bounds, *x_bounds])):
        raise InvalidInputError("grid oracle needs a finite box")
    S, cell = grid_2d(g_bounds, x_bounds, resolution)
    feasible = breaches(capital.ratio_many(S), capital.r_star)
    rows = np.flatnonzero(feasible)
    feasible[rows] = constraints.satisfied(S[rows])
    if not np.any(feasible):
        return None
    m2 = model.mahalanobis_sq(S[feasible])
    idx = int(np.argmin(m2))
    return GridOracleResult(s=S[feasible][idx], mahalanobis_sq=float(m2[idx]),
                            cell_size=cell)
