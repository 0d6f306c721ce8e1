"""Capital mechanics: stressed CET1, risk-weighted assets, and the breach test.

``CreditCapitalModel`` bundles a portfolio and a capital state into the
capital-function abstraction the solver and samplers consume: anything with
``ratio(s)``, ``r0`` and ``r_star`` works, so synthetic maps are injectable.
A map that also has ``ratio_grad(s)`` gives the solver its analytic gradient;
without it the solver falls back to central differences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InvalidInputError
from .loss import (LossQuantileSpec, clip_pd, conditional_default_prob,
                   tail_pd_derivative)
from .reference import as_scenario_array
from .transmission import Portfolio

RWA_FLOOR_FRACTION = 1e-6
# The maturity adjustment's b = (0.11852 - 0.05478 ln PD)^2 reaches 2/3, the
# pole of 1 / (1 - 1.5 b), at PD ~ 2.93e-6; b is evaluated at PD no lower
# than the Basel II corporate PD floor of 0.03 %.
MA_PD_FLOOR = 3e-4


def breaches(ratio, r_star):
    """The breach test R(s) <= r_star: inclusive and without slack.

    The solver's feasibility check, its conditional anchors and the
    scenario-set oracle all apply this one predicate, so every scenario the
    solver returns also passes ``Membership``'s breach test. Elementwise on
    arrays.
    """
    return ratio <= r_star


class RwaMode(enum.Enum):
    IRB_FULL = "irb_full"
    LINEAR = "linear"
    CONSTANT = "constant"


class LossBasis(enum.Enum):
    ABSOLUTE = "absolute"
    INCREMENTAL = "incremental"


@dataclass
class CapitalState:
    """Baseline capital, RWA, threshold definition, and modelling switches."""

    cet1_0: float
    rwa_0: float
    depletion: float = 0.03
    r_star_override: float | None = None
    rwa_mode: RwaMode = RwaMode.IRB_FULL
    alpha: np.ndarray | None = None              # Linear mode, per exposure
    pnl_noncredit: np.ndarray | None = None      # linear loadings on s, length d
    loss_basis: LossBasis = LossBasis.INCREMENTAL
    maturity_adjustment: bool = True

    def __post_init__(self):
        if not (self.cet1_0 > 0 and self.rwa_0 > 0):
            raise InvalidInputError("cet1_0 and rwa_0 must be positive")
        if self.r_star_override is None and not (0.0 < self.depletion < 1.0):
            raise InvalidInputError("depletion must lie in (0, 1)")
        self.rwa_mode = RwaMode(self.rwa_mode)
        self.loss_basis = LossBasis(self.loss_basis)
        if self.alpha is not None:
            self.alpha = np.asarray(self.alpha, dtype=float)
        if (self.rwa_mode is RwaMode.LINEAR) != (self.alpha is not None):
            raise InvalidInputError("alpha must be present iff rwa_mode is linear")
        if self.pnl_noncredit is not None:
            self.pnl_noncredit = np.asarray(self.pnl_noncredit, dtype=float)
        if not (0.0 < self.r_star < self.r0):
            raise InvalidInputError("threshold must satisfy 0 < r_star < r0")

    @property
    def r0(self) -> float:
        return self.cet1_0 / self.rwa_0

    @property
    def r_star(self) -> float:
        if self.r_star_override is not None:
            return self.r_star_override
        return self.r0 * (1.0 - self.depletion)


def maturity_adjustment_factor(pd, maturity):
    """Basel IRB maturity multiplier (1 + (M - 2.5) b) / (1 - 1.5 b), with b
    evaluated at max(pd, MA_PD_FLOOR)."""
    b = (0.11852 - 0.05478 * np.log(np.maximum(pd, MA_PD_FLOOR))) ** 2
    out = (1.0 + (np.asarray(maturity, dtype=float) - 2.5) * b) / (1.0 - 1.5 * b)
    if out.ndim == 0:
        return float(out)
    return out


def _maturity_adjustment_slope(pd, maturity):
    """d/dpd of :func:`maturity_adjustment_factor`: 0 below MA_PD_FLOOR."""
    pd = np.asarray(pd, dtype=float)
    sqb = 0.11852 - 0.05478 * np.log(np.maximum(pd, MA_PD_FLOOR))
    b = sqb ** 2
    m = np.asarray(maturity, dtype=float)
    dgamma_db = ((m - 2.5) * (1.0 - 1.5 * b)
                 + 1.5 * (1.0 + (m - 2.5) * b)) / (1.0 - 1.5 * b) ** 2
    return np.where(pd < MA_PD_FLOOR, 0.0,
                    dgamma_db * 2.0 * sqb * (-0.05478 / pd))


def _risk_weight_pd_slope(pd, lgd, tail, dtail_dpd, maturity, ma):
    """d RW / d pd of the unclamped risk weight lgd (tail - pd) MA(pd); ``ma``
    is MA(pd), or None without the maturity adjustment."""
    if ma is None:
        return lgd * (dtail_dpd - 1.0)
    return lgd * ((dtail_dpd - 1.0) * ma
                  + (tail - pd) * _maturity_adjustment_slope(pd, maturity))


def risk_weight(pd, lgd, rho, maturity, spec: LossQuantileSpec,
                use_maturity_adjustment: bool = True):
    """Unexpected-loss risk weight per unit EAD.

    lgd * [Phi((Phi^-1(pd) + sqrt(rho) Phi^-1(q)) / sqrt(1 - rho)) - pd]
    times the maturity adjustment (or 1 when disabled), floored at 0.
    """
    pd = clip_pd(pd)
    tail = conditional_default_prob(pd, rho, spec.q)
    rw = np.asarray(lgd, dtype=float) * (tail - pd)
    if use_maturity_adjustment:
        rw = rw * maturity_adjustment_factor(pd, maturity)
    rw = np.maximum(rw, 0.0)
    if rw.ndim == 0:
        return float(rw)
    return rw


def risk_weight_pd_derivative(pd, lgd, rho, maturity, spec: LossQuantileSpec,
                              use_maturity_adjustment: bool = True):
    """Analytic d RW / d pd, used to calibrate the linear RWA mode."""
    pd = clip_pd(pd)
    rho = np.asarray(rho, dtype=float)
    zp = ndtri(pd)
    sq1 = np.sqrt(1.0 - rho)
    arg = (zp + np.sqrt(rho) * ndtri(spec.q)) / sq1
    ma = (maturity_adjustment_factor(pd, maturity)
          if use_maturity_adjustment else None)
    out = _risk_weight_pd_slope(pd, np.asarray(lgd, dtype=float), ndtr(arg),
                                tail_pd_derivative(zp, arg, sq1), maturity, ma)
    if out.ndim == 0:
        return float(out)
    return out


def calibrate_linear_alpha(portfolio: Portfolio, spec: LossQuantileSpec,
                           use_maturity_adjustment: bool = True) -> np.ndarray:
    """alpha_i = EAD_i * dRW_i/dPD_i at baseline (first-order tangency)."""
    return portfolio.ead * risk_weight_pd_derivative(
        portfolio.pd0, portfolio.lgd0, portfolio.rho, portfolio.maturity,
        spec, use_maturity_adjustment)


def rwa_stressed_flagged(state: CapitalState, portfolio: Portfolio, s,
                         spec: LossQuantileSpec) -> tuple[float, bool]:
    """RWA plus a flag marking activation of the floor clamp."""
    point = CreditCapitalModel(portfolio, state, spec)._evaluate(s)
    return point.rwa, point.clamped


def cet1_stressed(state: CapitalState, portfolio: Portfolio, s,
                  spec: LossQuantileSpec) -> float:
    """Stressed CET1: capital minus the tail loss plus linear non-credit P&L.

    Under the incremental basis the baseline tail loss is netted out so the
    unstressed scenario reproduces CET1_0 exactly.
    """
    return CreditCapitalModel(portfolio, state, spec).cet1(s)


class _Point(NamedTuple):
    """One kernel evaluation: per-exposure terms and the capital totals."""

    pd_raw: np.ndarray  # stressed PD
    pd: np.ndarray      # stressed PD, clipped into the domain of Phi^-1
    lgd: np.ndarray
    lgd_slope: np.ndarray   # soft-clip slope of the LGD at its pre-image
    zp: np.ndarray      # Phi^-1(pd)
    arg: np.ndarray     # (zp + sqrt(rho) Phi^-1(q)) / sqrt(1 - rho)
    tail: np.ndarray    # conditional default probability Phi(arg)
    loss: float
    cet1: float
    rw: np.ndarray | None   # unclamped IRB risk weights (IRB mode only)
    ma: np.ndarray | None   # maturity adjustment (IRB mode with it only)
    rwa: float
    clamped: bool       # RWA held at the floor


class CreditCapitalModel:
    """Capital-function view of a portfolio: s -> R(s), its gradient and the
    breach test.

    One kernel evaluates a scenario: the stressed PD and LGD once,
    Phi^-1(PD) once, and one conditional default probability that feeds
    both the loss quantile and the IRB risk weight. Phi^-1(q), sqrt(rho) and
    sqrt(1 - rho) are computed once per model. ``ratio_grad`` differentiates
    the same evaluation. The module functions (``risk_weight``,
    ``loss.loss_quantile``, ``cet1_stressed``, ``rwa_stressed_flagged``) use
    the same arithmetic, so their values equal the model's bit for bit.
    """

    def __init__(self, portfolio: Portfolio, state: CapitalState,
                 spec: LossQuantileSpec | None = None):
        self.portfolio = portfolio
        self.state = state
        self.spec = spec if spec is not None else LossQuantileSpec()
        if state.alpha is not None and state.alpha.shape != (portfolio.n,):
            raise InvalidInputError("alpha length must match the number of exposures")
        if (state.pnl_noncredit is not None
                and state.pnl_noncredit.shape != (portfolio.d,)):
            raise InvalidInputError("pnl_noncredit length must equal dimension d")
        self._shift = np.sqrt(portfolio.rho) * ndtri(self.spec.q)
        self._sqrt_1mrho = np.sqrt(1.0 - portfolio.rho)
        self._baseline_loss = self._loss_terms(np.zeros(portfolio.d))[-1]
        self.rwa_floor_hits = 0

    @property
    def d(self) -> int:
        return self.portfolio.d

    @property
    def r0(self) -> float:
        return self.state.r0

    @property
    def r_star(self) -> float:
        return self.state.r_star

    def _loss_terms(self, arr):
        pf = self.portfolio
        pd_raw = pf.stressed_pd(arr)
        pd = clip_pd(pd_raw)
        lgd, lgd_slope = pf.stressed_lgd_and_slope(arr)
        zp = ndtri(pd)
        arg = (zp + self._shift) / self._sqrt_1mrho
        tail = ndtr(arg)
        return (pd_raw, pd, lgd, lgd_slope, zp, arg, tail,
                float(np.sum(pf.ead * lgd * tail)))

    def _evaluate(self, s) -> _Point:
        pf, state = self.portfolio, self.state
        arr = as_scenario_array(s, pf.d)
        pd_raw, pd, lgd, lgd_slope, zp, arg, tail, loss = self._loss_terms(arr)
        cet1 = state.cet1_0 - (loss - self._baseline_loss
                               if state.loss_basis is LossBasis.INCREMENTAL
                               else loss)
        if state.pnl_noncredit is not None:
            cet1 += float(state.pnl_noncredit @ arr)
        rw = ma = None
        if state.rwa_mode is RwaMode.CONSTANT:
            raw = state.rwa_0
        elif state.rwa_mode is RwaMode.LINEAR:
            raw = state.rwa_0 + float(state.alpha @ (pd_raw - pf.pd0))
        else:
            rw = lgd * (tail - pd)
            if state.maturity_adjustment:
                ma = maturity_adjustment_factor(pd, pf.maturity)
                rw = rw * ma
            raw = float(pf.ead @ np.maximum(rw, 0.0))
        floor = RWA_FLOOR_FRACTION * state.rwa_0
        clamped = raw < floor
        return _Point(pd_raw, pd, lgd, lgd_slope, zp, arg, tail, loss, cet1,
                      rw, ma, floor if clamped else raw, clamped)

    def loss_quantile(self, s) -> float:
        return self._evaluate(s).loss

    def cet1(self, s) -> float:
        return self._evaluate(s).cet1

    def rwa(self, s) -> float:
        point = self._evaluate(s)
        self.rwa_floor_hits += point.clamped
        return point.rwa

    def ratio(self, s) -> float:
        point = self._evaluate(s)
        self.rwa_floor_hits += point.clamped
        return point.cet1 / point.rwa

    def ratio_grad(self, s) -> np.ndarray:
        """Analytic gradient of R(s) = CET1(s) / RWA(s).

        (dCET1 RWA - CET1 dRWA) / RWA^2, with dRWA = 0 where the RWA floor
        clamps and no contribution from risk weights clamped at 0. Does not
        count RWA-floor hits. The chain rule runs from the kernel's own
        evaluation: per-exposure weights on PD and LGD are scaled by the
        slopes pd (1 - pd) and the LGD soft-clip slope, then contracted with
        the portfolio's loading matrices [delta | beta] and [eta | gamma].
        """
        pf, state = self.portfolio, self.state
        p = self._evaluate(s)
        pd_slope = p.pd_raw * (1.0 - p.pd_raw)

        def chain(w_pd, w_lgd):
            return ((w_pd * pd_slope) @ pf.pd_loadings
                    + (w_lgd * p.lgd_slope) @ pf.lgd_loadings)

        dtail = tail_pd_derivative(p.zp, p.arg, self._sqrt_1mrho)
        d_cet1 = -chain(pf.ead * p.lgd * dtail, pf.ead * p.tail)
        if state.pnl_noncredit is not None:
            d_cet1 = d_cet1 + state.pnl_noncredit
        if p.clamped or state.rwa_mode is RwaMode.CONSTANT:
            return d_cet1 / p.rwa
        if state.rwa_mode is RwaMode.LINEAR:
            d_rwa = (state.alpha * pd_slope) @ pf.pd_loadings
        else:
            w = pf.ead * (p.rw > 0.0)
            d_rw_dlgd = (p.tail - p.pd) * (1.0 if p.ma is None else p.ma)
            d_rw_dpd = _risk_weight_pd_slope(p.pd, p.lgd, p.tail, dtail,
                                             pf.maturity, p.ma)
            d_rwa = chain(w * d_rw_dpd, w * d_rw_dlgd)
        return (d_cet1 * p.rwa - p.cet1 * d_rwa) / p.rwa ** 2

    def ratio_many(self, S: np.ndarray) -> np.ndarray:
        S = np.asarray(S, dtype=float)
        return np.array([self.ratio(row) for row in S])

    def breach(self, s) -> bool:
        return breaches(self.ratio(s), self.r_star)


class LinearCapital:
    """Synthetic affine capital map, mainly for tests and validation.

    R(s) = r0 - slope w . s, so the breach set {R <= r_star} is the
    half-space {w . s >= level} with level = (r0 - r_star) / slope.
    """

    def __init__(self, weights, r0: float = 0.10, depletion: float = 0.03,
                 level: float = 1.0):
        self.weights = np.asarray(weights, dtype=float)
        self.r0 = r0
        self.r_star = r0 * (1.0 - depletion)
        self.slope = (self.r0 - self.r_star) / level

    @property
    def d(self) -> int:
        return self.weights.size

    def ratio(self, s) -> float:
        return self.r0 - self.slope * float(self.weights @ np.asarray(s, dtype=float))

    def ratio_grad(self, s) -> np.ndarray:
        return -self.slope * self.weights

    def ratio_many(self, S: np.ndarray) -> np.ndarray:
        S = np.asarray(S, dtype=float)
        return self.r0 - self.slope * (S @ self.weights)

    def breach(self, s) -> bool:
        return breaches(self.ratio(s), self.r_star)
