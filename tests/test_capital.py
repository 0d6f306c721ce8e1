import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from georst import (CapitalState, CreditCapitalModel, ExposureRecord,
                    InvalidInputError, LinearCapital, LossBasis,
                    LossQuantileSpec, Portfolio, RwaMode, SectorSensitivities,
                    calibrate_linear_alpha, loss_quantile, risk_weight)
from georst.capital import (MA_PD_FLOOR, cet1_stressed,
                            maturity_adjustment_factor,
                            risk_weight_pd_derivative, rwa_stressed_flagged)
from georst.solver import _fd_grad

from conftest import make_credit_capital, make_portfolio

SPEC = LossQuantileSpec(q=0.999)


def scipy_risk_weight(pd, lgd, rho, q):
    cond = stats.norm.cdf(
        (stats.norm.ppf(pd) + np.sqrt(rho) * stats.norm.ppf(q))
        / np.sqrt(1.0 - rho))
    return lgd * (cond - pd)


def test_risk_weight_worked_value():
    got = risk_weight(0.02, 0.5, 0.2, 2.5, SPEC, use_maturity_adjustment=False)
    assert got == pytest.approx(scipy_risk_weight(0.02, 0.5, 0.2, 0.999),
                                abs=1e-10)
    assert got == pytest.approx(0.10316, abs=5e-5)


def test_maturity_adjustment_neutral_at_reference_maturity():
    # gamma(2.5) = 1 / (1 - 1.5 b) > 1, and M = 2.5 cancels the numerator term
    b = (0.11852 - 0.05478 * np.log(0.02)) ** 2
    assert maturity_adjustment_factor(0.02, 2.5) == pytest.approx(
        1.0 / (1.0 - 1.5 * b), abs=1e-12)
    # longer maturity raises the multiplier
    assert maturity_adjustment_factor(0.02, 5.0) > maturity_adjustment_factor(
        0.02, 1.0)


def test_risk_weight_maturity_switch():
    with_adj = risk_weight(0.02, 0.5, 0.2, 4.0, SPEC)
    without = risk_weight(0.02, 0.5, 0.2, 4.0, SPEC,
                          use_maturity_adjustment=False)
    assert with_adj > without


def test_risk_weight_pd_derivative_matches_fd():
    for use_adj in (True, False):
        h = 1e-7
        fd = (risk_weight(0.02 + h, 0.5, 0.2, 3.0, SPEC, use_adj)
              - risk_weight(0.02 - h, 0.5, 0.2, 3.0, SPEC, use_adj)) / (2 * h)
        got = risk_weight_pd_derivative(0.02, 0.5, 0.2, 3.0, SPEC, use_adj)
        assert got == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("rho", [0.03, 0.12, 0.24])
@pytest.mark.parametrize("maturity", [2.5, 5.0])
def test_risk_weight_non_decreasing_in_pd(rho, maturity):
    # b(PD) of the maturity adjustment reaches its pole 2/3 at PD ~ 2.93e-6;
    # below MA_PD_FLOOR the adjustment is held at its value on the floor, so
    # a fall in PD never raises the risk weight
    pd = np.geomspace(1e-9, 0.1, 2001)
    rw = risk_weight(pd, 0.45, rho, maturity, SPEC)
    assert np.all(np.diff(rw) >= 0.0)
    assert risk_weight(2.93e-6, 0.45, rho, maturity, SPEC) <= risk_weight(
        1e-3, 0.45, rho, maturity, SPEC)
    # the analytic slope follows the held adjustment on both sides
    for p in (1e-5, 0.5 * MA_PD_FLOOR, 2.0 * MA_PD_FLOOR):
        h = 1e-3 * p
        fd = (risk_weight(p + h, 0.45, rho, maturity, SPEC)
              - risk_weight(p - h, 0.45, rho, maturity, SPEC)) / (2 * h)
        assert risk_weight_pd_derivative(p, 0.45, rho, maturity, SPEC) == (
            pytest.approx(fd, rel=1e-6))


def test_capital_state_thresholds():
    state = CapitalState(cet1_0=8.0, rwa_0=100.0)
    assert state.r0 == pytest.approx(0.08)
    assert state.r_star == pytest.approx(0.08 * 0.97, abs=1e-15)
    # explicit override replaces the depletion rule
    state2 = CapitalState(cet1_0=8.0, rwa_0=100.0, r_star_override=0.06)
    assert state2.r_star == 0.06


def test_capital_state_validation():
    with pytest.raises(InvalidInputError):
        CapitalState(cet1_0=0.0, rwa_0=1.0)
    with pytest.raises(InvalidInputError):
        CapitalState(cet1_0=1.0, rwa_0=1.0, depletion=1.5)
    with pytest.raises(InvalidInputError):
        CapitalState(cet1_0=1.0, rwa_0=10.0, rwa_mode=RwaMode.LINEAR)
    with pytest.raises(InvalidInputError):
        CapitalState(cet1_0=1.0, rwa_0=10.0, alpha=np.array([1.0]))


def test_constant_mode_rwa_and_baseline_ratio():
    pf = make_portfolio(n=4)
    state = CapitalState(cet1_0=6.0, rwa_0=50.0, rwa_mode=RwaMode.CONSTANT)
    cap = CreditCapitalModel(pf, state, SPEC)
    for s in (np.zeros(2), np.array([1.0, 0.5])):
        assert cap.rwa(s) == 50.0
    # incremental basis with constant RWA reproduces r0 at s = 0
    assert cap.ratio(np.zeros(2)) == pytest.approx(state.r0, abs=1e-15)


def test_linear_mode_matches_hand_arithmetic():
    pf = make_portfolio(n=1, pd0=0.02, delta=0.5, beta=(0.0,))
    # one exposure, alpha = 1000: PD rise of dp adds 1000 * dp to RWA
    state = CapitalState(cet1_0=6.0, rwa_0=50.0, rwa_mode=RwaMode.LINEAR,
                         alpha=np.array([1000.0]))
    cap = CreditCapitalModel(pf, state, SPEC)
    assert cap.rwa(np.zeros(2)) == pytest.approx(50.0)
    s = np.array([1.0, 0.0])
    dp = pf.stressed_pd(s)[0] - 0.02
    assert cap.rwa(s) == pytest.approx(50.0 + 1000.0 * dp)


def test_linear_alpha_first_order_tangency():
    # halving the scenario should shrink the Linear-vs-IRB_full RWA gap
    # faster than linearly (the difference is o(||dPD||))
    # LGD loadings are zeroed: the linear mode models only the PD channel
    pf = make_portfolio(n=6, delta=0.6, beta=(0.4,), eta=0.0, gamma=(0.0,))
    alpha = calibrate_linear_alpha(pf, SPEC)
    base_irb = float(pf.ead @ risk_weight(pf.pd0, pf.lgd0, pf.rho,
                                          pf.maturity, SPEC))
    irb = CreditCapitalModel(
        pf, CapitalState(cet1_0=6.0, rwa_0=base_irb, rwa_mode=RwaMode.IRB_FULL),
        SPEC)
    # freeze LGD loadings so only the PD channel moves the IRB RWA
    gaps = []
    for scale in (1.0, 0.5, 0.25, 0.125):
        s = scale * np.array([0.4, 0.3])
        full = irb.rwa(s)
        lin = base_irb + float(alpha @ (pf.stressed_pd(s) - pf.pd0))
        dpd = np.linalg.norm(pf.stressed_pd(s) - pf.pd0)
        gaps.append(abs(full - lin) / dpd)
    # gap per unit PD move vanishes as the step shrinks
    assert gaps[-1] < 0.5 * gaps[0]
    assert all(np.diff(gaps) < 0)


def test_rwa_floor_clamps_and_flags():
    pf = make_portfolio(n=1, delta=0.5, beta=(2.0,))
    state = CapitalState(cet1_0=6.0, rwa_0=50.0)
    # a huge favourable x with sign_constraints off drives PD ~ 0 and IRB
    # RWA toward 0; the clamp kicks in
    pf_free = make_portfolio(n=1, delta=0.0, beta=(5.0,))
    s = np.array([0.0, -200.0])
    value, flagged = rwa_stressed_flagged(state, pf_free, s, SPEC)
    assert flagged
    assert value == pytest.approx(1e-6 * 50.0)


def test_incremental_vs_absolute_basis():
    pf = make_portfolio(n=4)
    inc = CapitalState(cet1_0=6.0, rwa_0=50.0, rwa_mode=RwaMode.CONSTANT)
    absolute = CapitalState(cet1_0=6.0, rwa_0=50.0, rwa_mode=RwaMode.CONSTANT,
                            loss_basis=LossBasis.ABSOLUTE)
    base_loss = 0.0
    s0 = np.zeros(2)
    assert cet1_stressed(inc, pf, s0, SPEC) == pytest.approx(6.0, abs=1e-12)
    from georst import loss_quantile
    lq0 = loss_quantile(pf, s0, SPEC)
    assert cet1_stressed(absolute, pf, s0, SPEC) == pytest.approx(6.0 - lq0)


def test_noncredit_pnl_shifts_cet1_linearly():
    pf = make_portfolio(n=2)
    state = CapitalState(cet1_0=6.0, rwa_0=50.0, rwa_mode=RwaMode.CONSTANT,
                         pnl_noncredit=np.array([-0.5, 0.2]))
    s = np.array([1.0, 1.0])
    base = CapitalState(cet1_0=6.0, rwa_0=50.0, rwa_mode=RwaMode.CONSTANT)
    assert cet1_stressed(state, pf, s, SPEC) == pytest.approx(
        cet1_stressed(base, pf, s, SPEC) - 0.5 + 0.2)


def test_credit_capital_model_interface():
    pf = make_portfolio(n=3)
    cap = make_credit_capital(pf, rwa_mode=RwaMode.CONSTANT)
    s0 = np.zeros(2)
    assert cap.ratio(s0) == pytest.approx(cap.r0, abs=1e-14)
    assert not cap.breach(s0)
    s = np.array([1.0, 0.5])
    assert cap.ratio(s) == cap.cet1(s) / cap.rwa(s)
    assert cap.cet1(s) == cap.state.cet1_0 - (cap.loss_quantile(s)
                                              - cap.loss_quantile(s0))
    S = np.vstack([s0, [1.0, 0.5]])
    many = cap.ratio_many(S)
    assert many[0] == pytest.approx(cap.ratio(s0))
    assert many[1] == pytest.approx(cap.ratio(S[1]))


def test_ratio_non_increasing_in_g_on_random_portfolios():
    rng = np.random.default_rng(9)
    for trial in range(5):
        pf = make_portfolio(
            n=4, pd0=float(rng.uniform(0.005, 0.05)),
            lgd0=float(rng.uniform(0.3, 0.6)),
            delta=float(rng.uniform(0.1, 1.0)),
            eta=float(rng.uniform(0.0, 0.2)),
            beta=(float(rng.uniform(0.0, 0.8)),),
            gamma=(float(rng.uniform(0.0, 0.1)),))
        cap = make_credit_capital(pf, rwa_mode=RwaMode.CONSTANT)
        x = float(rng.uniform(0.0, 1.0))
        ratios = [cap.ratio(np.array([g, x * g])) for g in np.linspace(0, 3, 7)]
        assert all(np.diff(ratios) <= 1e-12)


def test_linear_capital_breach_half_space():
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    assert not cap.breach(np.array([1.0, 1.0]))
    assert cap.breach(np.array([2.0, 2.0]))
    assert cap.breach(np.array([0.0, 5.0]))
    assert cap.ratio(np.zeros(2)) == pytest.approx(cap.r0)


def test_linear_capital_ratio_grad_is_the_slope():
    cap = LinearCapital(weights=np.array([1.0, 2.0]), level=4.0)
    s = np.array([0.3, -1.0])
    assert np.allclose(cap.ratio_grad(s), _fd_grad(cap.ratio, s, 1e-5),
                       rtol=1e-9, atol=0.0)


# -- the fused kernel: analytic gradient and exact equalities ----------------

def random_capital(seed, rwa_mode=RwaMode.IRB_FULL,
                   loss_basis=LossBasis.INCREMENTAL, maturity_adjustment=True,
                   with_pnl=False, d=3, n=6, cet1_0=None, rwa_0=None):
    """Two sectors, n exposures with random credit terms and loadings."""
    rng = np.random.default_rng(seed)
    sectors = {
        k: SectorSensitivities(k, delta=rng.uniform(0.1, 0.8),
                               eta=rng.uniform(0.0, 0.06),
                               beta=rng.normal(0.0, 0.4, d - 1),
                               gamma=rng.normal(0.0, 0.03, d - 1))
        for k in ("a", "b")}
    exposures = [
        ExposureRecord(f"e{i}", "ab"[i % 2], ead=rng.lognormal(),
                       pd0=rng.uniform(0.003, 0.05),
                       lgd0=rng.uniform(0.25, 0.55),
                       rho=rng.uniform(0.05, 0.25),
                       maturity=rng.uniform(1.0, 5.0))
        for i in range(n)]
    pf = Portfolio(exposures, sectors)
    if rwa_0 is None:
        rwa_0 = float(pf.ead @ risk_weight(pf.pd0, pf.lgd0, pf.rho,
                                           pf.maturity, SPEC,
                                           maturity_adjustment))
    alpha = None
    if rwa_mode is RwaMode.LINEAR:
        alpha = calibrate_linear_alpha(pf, SPEC, maturity_adjustment)
    state = CapitalState(
        cet1_0=0.12 * rwa_0 if cet1_0 is None else cet1_0, rwa_0=rwa_0, rwa_mode=rwa_mode, alpha=alpha,
        pnl_noncredit=rng.normal(0.0, 0.002 * rwa_0, d) if with_pnl else None,
        loss_basis=loss_basis, maturity_adjustment=maturity_adjustment)
    return CreditCapitalModel(pf, state, SPEC)


KERNEL_CASES = list(itertools.product(RwaMode, LossBasis, (True, False),
                                      (True, False)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       case=st.sampled_from(KERNEL_CASES),
       s=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_ratio_grad_matches_finite_differences(seed, case, s):
    rwa_mode, loss_basis, maturity_adjustment, with_pnl = case
    cap = random_capital(seed, rwa_mode, loss_basis, maturity_adjustment,
                         with_pnl)
    s = np.array(s)
    grad = cap.ratio_grad(s)
    fd = _fd_grad(cap.ratio, s, 1e-5)
    assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


def test_ratio_grad_on_the_rwa_floor():
    # rwa_0 so large that the floor 1e-6 rwa_0 exceeds the IRB RWA: R is
    # CET1 / floor and the RWA term of the gradient vanishes
    cap = random_capital(4, cet1_0=1.0, rwa_0=1e7)
    floor = 1e-6 * cap.state.rwa_0
    s = np.array([0.7, -0.4, 0.9])
    assert cap.rwa(s) == floor
    grad = cap.ratio_grad(s)
    # a constant-RWA model held at the floor has the same CET1 and no RWA
    # term in its gradient
    constant = CreditCapitalModel(
        cap.portfolio, CapitalState(cet1_0=1.0, rwa_0=floor,
                                    rwa_mode=RwaMode.CONSTANT), SPEC)
    assert np.allclose(grad, constant.ratio_grad(s), rtol=1e-12, atol=0.0)
    assert np.linalg.norm(grad - _fd_grad(cap.ratio, s, 1e-5)) <= (
        1e-6 * np.linalg.norm(grad))
    # hits count once per ratio or rwa call, never from the gradient
    cap.rwa_floor_hits = 0
    cap.ratio(s)
    cap.rwa(s)
    cap.ratio_grad(s)
    cap.cet1(s)
    assert cap.rwa_floor_hits == 2


@pytest.mark.parametrize("rwa_mode,loss_basis,maturity_adjustment,with_pnl",
                         KERNEL_CASES)
def test_kernel_exact_equalities(rwa_mode, loss_basis, maturity_adjustment,
                                 with_pnl):
    cap = random_capital(11, rwa_mode, loss_basis, maturity_adjustment,
                         with_pnl)
    pf, state = cap.portfolio, cap.state
    zero = np.zeros(cap.d)
    # R(0) is CET1(0) / RWA(0) bit for bit, and CET1(0) = cet1_0 under the
    # incremental basis
    assert cap.ratio(zero) == cap.cet1(zero) / cap.rwa(zero)
    if loss_basis is LossBasis.INCREMENTAL:
        assert cap.ratio(zero) == state.cet1_0 / cap.rwa(zero)
    # the module functions share the model's arithmetic
    for s in (zero, np.array([0.9, -0.3, 0.4])):
        assert cap.loss_quantile(s) == loss_quantile(pf, s, SPEC)
        assert cap.cet1(s) == cet1_stressed(state, pf, s, SPEC)
        assert (cap.rwa(s), False) == rwa_stressed_flagged(state, pf, s, SPEC)
        if rwa_mode is RwaMode.IRB_FULL:
            assert cap.rwa(s) == float(pf.ead @ risk_weight(
                pf.stressed_pd(s), pf.stressed_lgd(s), pf.rho, pf.maturity,
                SPEC, maturity_adjustment))


def test_ratio_grad_makes_one_kernel_pass(monkeypatch):
    # the gradient differentiates its own evaluation: one stressed PD and
    # one stressed LGD per call, no second pass for the Jacobians
    cap = random_capital(5, rwa_mode=RwaMode.IRB_FULL, with_pnl=True)
    calls = []
    for name in ("stressed_pd", "stressed_lgd_and_slope"):
        orig = getattr(Portfolio, name)

        def counted(self, s, _orig=orig, _name=name):
            calls.append(_name)
            return _orig(self, s)
        monkeypatch.setattr(Portfolio, name, counted)
    cap.ratio_grad(np.array([0.5, -0.2, 0.3]))
    assert sorted(calls) == ["stressed_lgd_and_slope", "stressed_pd"]
