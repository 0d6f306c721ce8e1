import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from georst import (CapitalState, CreditCapitalModel, InvalidInputError,
                    LinearCapital, LossBasis, LossQuantileSpec, Portfolio,
                    ReferenceModel, RwaMode, SectorSensitivities,
                    calibrate_linear_alpha, loss_quantile, risk_weight)
from georst.capital import (BLOCK_ELEMENTS, MA_PD_FLOOR, _ma_base, _ma_parts,
                            breaches, cet1_stressed,
                            risk_weight_pd_derivative, rwa_stressed_flagged)

from conftest import (fd_grad, make_credit_capital, make_portfolio,
                      portfolio_from_rows)

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
    num, den = _ma_parts(_ma_base(0.02), 0.0)
    assert num / den == pytest.approx(1.0 / (1.0 - 1.5 * b), abs=1e-12)

    # the risk weight's multiplier, with the adjustment over without it
    def multiplier(maturity):
        return (risk_weight(0.02, 0.5, 0.2, maturity, SPEC)
                / risk_weight(0.02, 0.5, 0.2, maturity, SPEC,
                              use_maturity_adjustment=False))

    assert multiplier(2.5) == pytest.approx(1.0 / (1.0 - 1.5 * b), abs=1e-12)
    # longer maturity raises the multiplier
    assert multiplier(5.0) > multiplier(1.0)


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
    # the analytic slope follows the held adjustment on both sides, and
    # the risk weight without the adjustment
    for p, use_adj in itertools.product(
            (1e-5, 0.5 * MA_PD_FLOOR, 2.0 * MA_PD_FLOOR), (True, False)):
        h = 1e-3 * p
        args = (0.45, rho, maturity, SPEC, use_adj)
        fd = (risk_weight(p + h, *args) - risk_weight(p - h, *args)) / (2 * h)
        assert risk_weight_pd_derivative(p, *args) == pytest.approx(fd,
                                                                   rel=1e-6)


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
    assert not breaches(cap.ratio(s0), cap.r_star)
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
    for s, breach in (([1.0, 1.0], False), ([2.0, 2.0], True),
                      ([0.0, 5.0], True)):
        assert breaches(cap.ratio(np.array(s)), cap.r_star) == breach
    assert cap.ratio(np.zeros(2)) == pytest.approx(cap.r0)


def test_linear_capital_ratio_grad_is_the_slope():
    cap = LinearCapital(weights=np.array([1.0, 2.0]), level=4.0)
    s = np.array([0.3, -1.0])
    assert np.allclose(cap.ratio_grad(s), fd_grad(cap.ratio, s),
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
    pf = portfolio_from_rows(
        [(f"e{i}", "ab"[i % 2], rng.lognormal(), rng.uniform(0.003, 0.05),
          rng.uniform(0.25, 0.55), rng.uniform(0.05, 0.25),
          rng.uniform(1.0, 5.0))
         for i in range(n)], sectors)
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
    fd = fd_grad(cap.ratio, s)
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
    assert np.linalg.norm(grad - fd_grad(cap.ratio, s)) <= (
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
            assert cap.rwa(s) == float(np.sum(pf.ead * risk_weight(
                pf.stressed_pd(s), pf.stressed_lgd(s), pf.rho, pf.maturity,
                SPEC, maturity_adjustment)))


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
    s = np.array([0.5, -0.2, 0.3])
    # the gradient after the ratio at the same point reuses its evaluation
    cap.ratio(s)
    cap.ratio_grad(s)
    assert sorted(calls) == ["stressed_lgd_and_slope", "stressed_pd"]
    cap.ratio_grad(np.array([0.5, -0.2, 0.4]))
    assert sorted(calls) == ["stressed_lgd_and_slope"] * 2 + ["stressed_pd"] * 2


@pytest.mark.parametrize("rwa_mode,loss_basis", itertools.product(RwaMode,
                                                                  LossBasis))
def test_kernel_memo_hit_equals_a_fresh_model(rwa_mode, loss_basis):
    def fresh():
        return random_capital(7, rwa_mode, loss_basis, with_pnl=True)

    cap = fresh()
    for s in (np.array([0.9, -0.3, 0.4]), np.zeros(3),
              np.array([0.9, -0.3, 0.4])):
        cap.ratio(s)
        # every quantity below is a memo hit on cap
        assert cap.ratio(s) == fresh().ratio(s)
        assert cap.cet1(s) == fresh().cet1(s)
        assert cap.rwa(s) == fresh().rwa(s)
        assert cap.loss_quantile(s) == fresh().loss_quantile(s)
        assert np.array_equal(cap.ratio_grad(s), fresh().ratio_grad(s))


def test_kernel_memo_sees_a_scenario_mutated_in_place():
    cap = random_capital(3)
    s = np.array([0.5, -0.2, 0.3])
    before = cap.ratio(s)
    s[1] = 1.5
    assert cap.ratio(s) == random_capital(3).ratio(s.copy())
    assert cap.ratio(s) != before


def test_kernel_memo_counts_every_floor_hit():
    cap = random_capital(4, cet1_0=1.0, rwa_0=1e7)
    s = np.array([0.7, -0.4, 0.9])
    cap.ratio(s)
    cap.ratio(s)
    assert cap.rwa_floor_hits == 2
    cap.rwa(s)
    assert cap.rwa_floor_hits == 3


# -- the block kernel: ratio_many over (N, d) ---------------------------------

def block_and_rows(seed, case, n, floor, S):
    """ratio_many(S) on one model and ratio(S[i]) row by row on a second,
    equal model, with each model's RWA-floor hits. With ``floor`` the RWA
    floor (1e-6 rwa_0) sits at the IRB RWA of s = 0, so in IRB mode rows
    more benign than s = 0 clamp and more stressed rows do not."""
    rwa_mode, loss_basis, maturity_adjustment, with_pnl = case
    kwargs = dict(rwa_mode=rwa_mode, loss_basis=loss_basis,
                  maturity_adjustment=maturity_adjustment,
                  with_pnl=with_pnl, n=n)
    if floor:
        kwargs["rwa_0"] = 1e6 * random_capital(seed, **kwargs).state.rwa_0
    block, rows = random_capital(seed, **kwargs), random_capital(seed, **kwargs)
    many = block.ratio_many(S)
    one = np.array([rows.ratio(s) for s in S])
    return many, one, block.rwa_floor_hits, rows.rwa_floor_hits


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       case=st.sampled_from(KERNEL_CASES),
       n=st.sampled_from([6, 700]),
       floor=st.booleans(),
       n_rows=st.integers(1, 200))
def test_ratio_many_equals_ratio_bit_for_bit(seed, case, n, floor, n_rows):
    # with n = 700 a chunk holds BLOCK_ELEMENTS // 700 = 93 rows, so longer
    # blocks span chunks
    S = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n_rows, 3))
    many, one, block_hits, row_hits = block_and_rows(seed, case, n, floor, S)
    assert many.tobytes() == one.tobytes()
    assert block_hits == row_hits


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_ratio_many_across_chunks_and_the_rwa_floor(case):
    n = 700
    step = BLOCK_ELEMENTS // n
    rng = np.random.default_rng(21)
    # 2 full chunks and a short one; g of either sign straddles the floor
    S = rng.uniform(-2.0, 2.0, size=(2 * step + 5, 3))
    S[1] = 0.0
    many, one, block_hits, row_hits = block_and_rows(21, case, n, True, S)
    assert many.tobytes() == one.tobytes()
    assert block_hits == row_hits
    rwa_mode = case[0]
    if rwa_mode is RwaMode.IRB_FULL:
        # each clamped row counts once; some rows clamp and some do not
        assert 0 < block_hits < S.shape[0]
    else:
        assert block_hits == 0


def test_ratio_many_of_one_row_and_of_none():
    cap = random_capital(5, with_pnl=True)
    s = np.array([0.4, -0.1, 0.7])
    assert cap.ratio_many(s[None, :]).tobytes() == np.array(
        [cap.ratio(s)]).tobytes()
    assert cap.ratio_many(np.empty((0, 3))).shape == (0,)
    with pytest.raises(InvalidInputError):
        cap.ratio_many(s)
    with pytest.raises(InvalidInputError):
        cap.ratio_many(np.array([[0.4, np.nan, 0.7]]))


def test_entry_points_reject_non_finite_and_misshapen_input():
    # the kernel's lean path moved the checks, it did not drop them: every
    # public entry point still rejects non-finite and misshapen scenarios
    cap = random_capital(5, with_pnl=True)
    model = ReferenceModel.from_covariance(np.eye(3) + 0.25)
    d = cap.d
    wrong_width, three_d = np.zeros((2, d + 1)), np.zeros((1, 2, d))
    entry_points = {
        "ratio": (cap.ratio, [np.zeros(d + 1), np.zeros((1, d))]),
        "ratio_grad": (cap.ratio_grad, [np.zeros(d + 1), np.zeros((1, d))]),
        "ratio_many": (cap.ratio_many, [np.zeros(d), wrong_width, three_d]),
        "stressed_pd": (cap.portfolio.stressed_pd,
                        [np.zeros(d + 1), wrong_width, three_d]),
        "whiten": (model.whiten, [np.zeros(d + 1), wrong_width, three_d]),
        "unwhiten": (model.unwhiten, [np.zeros(d + 1), wrong_width, three_d]),
    }
    for name, (fn, misshapen) in entry_points.items():
        # ratio_many takes the scenario as a block of one row
        rows = (None, slice(None)) if name == "ratio_many" else (slice(None),)
        good = np.array([0.4, -0.1, 0.7])
        fn(good[rows])  # a valid scenario passes, and fills the kernel's memo
        for bad in (np.nan, np.inf, -np.inf):
            s = good.copy()
            s[1] = bad
            with pytest.raises(InvalidInputError):
                fn(s[rows])
        for s in misshapen:
            with pytest.raises(InvalidInputError):
                fn(s)
