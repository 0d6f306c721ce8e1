"""Capital mechanics: stressed CET1, risk-weighted assets, and the breach test.

``CreditCapitalModel`` bundles a portfolio and a capital state into the
capital map the solver and samplers consume. A capital map is anything with
``r0``, ``r_star``, ``ratio(s)``, ``ratio_many(S)`` over a block S (N, d),
whose row i must equal ``ratio(S[i])`` bit for bit, and ``ratio_grad(s)``,
the gradient of R at s; so synthetic maps such as ``LinearCapital`` are
injectable. The breach test is ``breaches(R, r_star)``. The IRB risk weight
and its slopes are written once, in ``_irb_risk_weight`` and
``_irb_slopes``, which the kernel, its gradient, ``risk_weight`` and
``risk_weight_pd_derivative`` all call.
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
from .reference import as_scenarios
from .transmission import Portfolio

RWA_FLOOR_FRACTION = 1e-6
# The maturity adjustment's b = (0.11852 - 0.05478 ln PD)^2 reaches 2/3, the
# pole of 1 / (1 - 1.5 b), at PD ~ 2.93e-6; b is evaluated at PD no lower
# than the Basel II corporate PD floor of 0.03 %.
MA_PD_FLOOR = 3e-4
# ratio_many evaluates its block in chunks of at most this many (row,
# exposure) terms, so a kernel pass holds about a dozen (chunk, n) arrays
# of 0.5 MiB each
BLOCK_ELEMENTS = 1 << 16


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


def _ma_base(pd):
    """The maturity adjustment's sqrt(b) = 0.11852 - 0.05478 ln PD, at
    max(pd, MA_PD_FLOOR)."""
    return 0.11852 - 0.05478 * np.log(np.maximum(pd, MA_PD_FLOOR))


def _ma_parts(sqb, m25):
    """The maturity adjustment's numerator 1 + (M - 2.5) b and denominator
    1 - 1.5 b, with b = sqb^2 and m25 = M - 2.5."""
    b = sqb ** 2
    return 1.0 + m25 * b, 1.0 - 1.5 * b


def _irb_risk_weight(pd, tail, lgd, m25):
    """The unclamped IRB risk weight lgd (tail - pd) MA(pd) of clipped PDs,
    with tail = Phi(arg) their conditional default probability and m25 =
    M - 2.5, or None to leave the maturity adjustment out. Returns (tail -
    pd, the risk weight, ma), ma = (sqrt b, numerator, denominator) of the
    adjustment or None without it."""
    tail_pd = tail - pd
    rw = lgd * tail_pd
    if m25 is None:
        return tail_pd, rw, None
    sqb = _ma_base(pd)
    num, den = _ma_parts(sqb, m25)
    return tail_pd, rw * (num / den), (sqb, num, den)


def _irb_slopes(pd, lgd, m25, tail_pd, ma, dtail_dpd):
    """(d RW / d pd, d RW / d lgd) of ``_irb_risk_weight``'s unclamped risk
    weight, given its tail_pd and ma and dtail_dpd = d tail / d pd. The
    adjustment is held at its value on MA_PD_FLOOR below it, so its slope
    is 0 there."""
    if ma is None:
        return lgd * (dtail_dpd - 1.0), tail_pd
    sqb, num, den = ma
    factor = num / den
    dfactor_db = (m25 * den + 1.5 * num) / den ** 2
    dfactor = np.where(pd < MA_PD_FLOOR, 0.0,
                       dfactor_db * 2.0 * sqb * (-0.05478 / pd))
    return (lgd * ((dtail_dpd - 1.0) * factor + tail_pd * dfactor),
            tail_pd * factor)


def _maturity_m25(maturity, use_maturity_adjustment: bool):
    """M - 2.5, or None when the maturity adjustment is off."""
    if not use_maturity_adjustment:
        return None
    return np.asarray(maturity, dtype=float) - 2.5


def risk_weight(pd, lgd, rho, maturity, spec: LossQuantileSpec,
                use_maturity_adjustment: bool = True):
    """Unexpected-loss risk weight per unit EAD.

    lgd * [Phi((Phi^-1(pd) + sqrt(rho) Phi^-1(q)) / sqrt(1 - rho)) - pd]
    times the Basel IRB maturity multiplier (1 + (M - 2.5) b) / (1 - 1.5 b),
    b at max(pd, MA_PD_FLOOR) (or 1 when disabled), floored at 0.
    """
    pd = clip_pd(pd)
    _, rw, _ = _irb_risk_weight(
        pd, conditional_default_prob(pd, rho, spec.q),
        np.asarray(lgd, dtype=float),
        _maturity_m25(maturity, use_maturity_adjustment))
    rw = np.maximum(rw, 0.0)
    if rw.ndim == 0:
        return float(rw)
    return rw


def risk_weight_pd_derivative(pd, lgd, rho, maturity, spec: LossQuantileSpec,
                              use_maturity_adjustment: bool = True):
    """Analytic d RW / d pd, used to calibrate the linear RWA mode."""
    pd = clip_pd(pd)
    rho = np.asarray(rho, dtype=float)
    lgd = np.asarray(lgd, dtype=float)
    m25 = _maturity_m25(maturity, use_maturity_adjustment)
    zp = ndtri(pd)
    sq1 = np.sqrt(1.0 - rho)
    arg = (zp + np.sqrt(rho) * ndtri(spec.q)) / sq1
    tail_pd, _, ma = _irb_risk_weight(pd, ndtr(arg), lgd, m25)
    out, _ = _irb_slopes(pd, lgd, m25, tail_pd, ma,
                         tail_pd_derivative(zp, arg, sq1))
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
    return float(point.rwa), bool(point.clamped)


def cet1_stressed(state: CapitalState, portfolio: Portfolio, s,
                  spec: LossQuantileSpec) -> float:
    """Stressed CET1: capital minus the tail loss plus linear non-credit P&L.

    Under the incremental basis the baseline tail loss is netted out so the
    unstressed scenario reproduces CET1_0 exactly.
    """
    return CreditCapitalModel(portfolio, state, spec).cet1(s)


class _Point(NamedTuple):
    """One kernel evaluation: per-exposure terms (n,) and the capital totals
    of one scenario, or terms (N, n) and totals (N,) of a block."""

    pd_raw: np.ndarray  # stressed PD
    pd: np.ndarray      # stressed PD, clipped into the domain of Phi^-1
    lgd: np.ndarray
    lgd_slope: np.ndarray   # soft-clip slope of the LGD at its pre-image
    zp: np.ndarray      # Phi^-1(pd)
    arg: np.ndarray     # (zp + sqrt(rho) Phi^-1(q)) / sqrt(1 - rho)
    tail: np.ndarray    # conditional default probability Phi(arg)
    ead_lgd: np.ndarray     # ead * lgd
    loss: np.ndarray
    cet1: np.ndarray
    tail_pd: np.ndarray | None  # tail - pd (IRB mode only)
    rw: np.ndarray | None   # unclamped IRB risk weights, likewise
    ma: tuple | None    # ``_irb_risk_weight``'s maturity-adjustment parts
    rwa: np.ndarray
    clamped: np.ndarray     # RWA held at the floor


class CreditCapitalModel:
    """Capital-map view of a portfolio: s -> R(s) and its gradient.

    One kernel evaluates a scenario (d,) or a block of scenarios (N, d): the
    stressed PD and LGD once, Phi^-1(PD) once, and one conditional default
    probability that feeds both the loss quantile and the IRB risk weight.
    Phi^-1(q), sqrt(rho) and sqrt(1 - rho) are computed once per model.
    Every sum in the kernel runs along the last axis alone (pairwise
    ``np.add.reduce(a * b, axis=-1)``, which is what ``np.sum`` calls; never
    a BLAS dot or gemv, whose summation order can depend on the number of
    rows), so ``ratio_many(S)[i]`` equals ``ratio(S[i])`` bit for bit.
    ``ratio_grad`` differentiates the same evaluation, and reads ead * lgd,
    tail - pd and the maturity adjustment's parts from it instead of
    computing them again. The module functions (``risk_weight``,
    ``loss.loss_quantile``, ``cet1_stressed``, ``rwa_stressed_flagged``) use
    the same arithmetic, so their values equal the model's bit for bit.

    The kernel keeps its most recent single-scenario evaluation, keyed on
    the scenario's bytes: a call with a value-equal scenario (the solver's
    value then gradient, a feasibility check then the reported ratio) reuses
    it instead of a second pass. This assumes, as the baseline loss and the
    per-exposure constants computed in ``__init__`` already do, that the
    portfolio and the capital state are not changed after construction.
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
        self._m25 = _maturity_m25(portfolio.maturity,
                                  state.maturity_adjustment)
        self._baseline_loss = self._loss_terms(np.zeros(portfolio.d))[-1]
        self._last: tuple[bytes, _Point] | None = None
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
        ead_lgd = pf.ead * lgd
        return (pd_raw, pd, lgd, lgd_slope, zp, arg, tail, ead_lgd,
                np.add.reduce(ead_lgd * tail, axis=-1))

    def _kernel(self, arr) -> _Point:
        """Evaluate a validated scenario (d,) or block of scenarios (N, d)."""
        pf, state = self.portfolio, self.state
        (pd_raw, pd, lgd, lgd_slope, zp, arg, tail, ead_lgd,
         loss) = self._loss_terms(arr)
        cet1 = state.cet1_0 - (loss - self._baseline_loss
                               if state.loss_basis is LossBasis.INCREMENTAL
                               else loss)
        if state.pnl_noncredit is not None:
            cet1 = cet1 + np.add.reduce(state.pnl_noncredit * arr, axis=-1)
        tail_pd = rw = ma = None
        if state.rwa_mode is RwaMode.CONSTANT:
            raw = np.full_like(loss, state.rwa_0)
        elif state.rwa_mode is RwaMode.LINEAR:
            raw = state.rwa_0 + np.add.reduce(state.alpha * (pd_raw - pf.pd0),
                                              axis=-1)
        else:
            tail_pd, rw, ma = _irb_risk_weight(pd, tail, lgd, self._m25)
            raw = np.add.reduce(pf.ead * np.maximum(rw, 0.0), axis=-1)
        floor = RWA_FLOOR_FRACTION * state.rwa_0
        return _Point(pd_raw, pd, lgd, lgd_slope, zp, arg, tail, ead_lgd, loss,
                      cet1, tail_pd, rw, ma,
                      np.maximum(raw, floor), raw < floor)

    def _evaluate(self, s) -> _Point:
        """The kernel at one scenario, through the last-point memo."""
        arr = as_scenarios(s, self.portfolio.d, ndim=(1,))
        key = arr.tobytes()
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        point = self._kernel(arr)
        self._last = (key, point)
        return point

    def loss_quantile(self, s) -> float:
        return float(self._evaluate(s).loss)

    def cet1(self, s) -> float:
        return float(self._evaluate(s).cet1)

    def rwa(self, s) -> float:
        point = self._evaluate(s)
        self.rwa_floor_hits += bool(point.clamped)
        return float(point.rwa)

    def ratio(self, s) -> float:
        point = self._evaluate(s)
        self.rwa_floor_hits += bool(point.clamped)
        return float(point.cet1 / point.rwa)

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
            return (pf.pd_loadings @ (w_pd * pd_slope)
                    + pf.lgd_loadings @ (w_lgd * p.lgd_slope))

        dtail = tail_pd_derivative(p.zp, p.arg, self._sqrt_1mrho)
        d_cet1 = -chain(p.ead_lgd * dtail, pf.ead * p.tail)
        if state.pnl_noncredit is not None:
            d_cet1 = d_cet1 + state.pnl_noncredit
        if p.clamped or state.rwa_mode is RwaMode.CONSTANT:
            return d_cet1 / p.rwa
        if state.rwa_mode is RwaMode.LINEAR:
            d_rwa = pf.pd_loadings @ (state.alpha * pd_slope)
        else:
            w = pf.ead * (p.rw > 0.0)
            d_rw_dpd, d_rw_dlgd = _irb_slopes(p.pd, p.lgd, self._m25,
                                              p.tail_pd, p.ma, dtail)
            d_rwa = chain(w * d_rw_dpd, w * d_rw_dlgd)
        return (d_cet1 * p.rwa - p.cet1 * d_rwa) / p.rwa ** 2

    def ratio_many(self, S) -> np.ndarray:
        """R(s) of each row of a block S (N, d): one kernel pass per chunk of
        at most BLOCK_ELEMENTS per-exposure terms, with ``ratio_many(S)[i]
        == ratio(S[i])`` bit for bit. Each row held at the RWA floor counts
        one floor hit. The single-scenario memo is neither read nor set."""
        S = as_scenarios(S, self.d, ndim=(2,))
        out = np.empty(S.shape[0])
        step = max(1, BLOCK_ELEMENTS // self.portfolio.n)
        for lo in range(0, S.shape[0], step):
            point = self._kernel(S[lo:lo + step])
            self.rwa_floor_hits += int(np.count_nonzero(point.clamped))
            out[lo:lo + step] = point.cet1 / point.rwa
        return out


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
        return float(self.ratio_many(s))

    def ratio_grad(self, s) -> np.ndarray:
        return -self.slope * self.weights

    def ratio_many(self, S) -> np.ndarray:
        """R(s) of s (d,) or of each row of S (N, d); a sum along the last
        axis, so row i equals ratio(S[i]) bit for bit."""
        S = np.asarray(S, dtype=float)
        return self.r0 - self.slope * np.sum(S * self.weights, axis=-1)
