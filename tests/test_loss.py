import numpy as np
import pytest
from scipy import stats

from georst import (InvalidInputError, LossQuantileSpec, RwaMode,
                    loss_quantile, mc_loss_quantile)
from georst.loss import conditional_default_prob

from conftest import make_credit_capital, make_portfolio


def scipy_single_name_quantile(ead, pd, lgd, rho, q):
    """Independent oracle for the asymptotic single-factor loss quantile."""
    cond = stats.norm.cdf(
        (stats.norm.ppf(pd) + np.sqrt(rho) * stats.norm.ppf(q))
        / np.sqrt(1.0 - rho))
    return ead * lgd * cond


def test_single_exposure_worked_value():
    pf = make_portfolio(n=1, ead=100.0, pd0=0.02, lgd0=0.5, rho=0.2,
                        delta=0.5, beta=(0.0,), eta=0.0, gamma=(0.0,))
    spec = LossQuantileSpec(q=0.999)
    got = loss_quantile(pf, np.zeros(2), spec)
    oracle = scipy_single_name_quantile(100.0, 0.02, 0.5, 0.2, 0.999)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(11.3156, abs=5e-4)


def test_loss_quantile_additive_over_exposures():
    pf = make_portfolio(n=7, ead=3.0, pd0=0.015, lgd0=0.4, rho=0.25)
    spec = LossQuantileSpec()
    s = np.array([0.4, 0.2])
    single = make_portfolio(n=1, ead=3.0, pd0=0.015, lgd0=0.4, rho=0.25)
    assert loss_quantile(pf, s, spec) == pytest.approx(
        7.0 * loss_quantile(single, s, spec), abs=1e-10)


def test_loss_quantile_increases_with_stress():
    pf = make_portfolio(n=5)
    spec = LossQuantileSpec()
    vals = [loss_quantile(pf, np.array([g, 0.0]), spec)
            for g in (0.0, 0.5, 1.0, 2.0)]
    assert all(np.diff(vals) > 0)


def test_conditional_default_prob_limits():
    # rho -> 0 leaves the PD unchanged; rho -> 1 pushes toward certainty
    assert conditional_default_prob(0.02, 1e-12, 0.999) == pytest.approx(
        0.02, abs=1e-6)
    assert conditional_default_prob(0.02, 0.999999, 0.999) > 0.999
    # tiny PD stays tiny
    assert conditional_default_prob(1e-12, 0.2, 0.999) < 1e-6


def test_tail_loss_slope_matches_finite_differences():
    # with constant RWA, R = (CET1_0 - L(s) + L(0)) / RWA_0, so the kernel's
    # gradient of R is the slope of the loss quantile over -RWA_0
    pf = make_portfolio(n=6, delta=0.6, beta=(0.4,), eta=0.15, gamma=(0.08,))
    spec = LossQuantileSpec()
    s = np.array([0.8, -0.3])
    cap = make_credit_capital(pf, rwa_mode=RwaMode.CONSTANT)
    grad = -cap.state.rwa_0 * cap.ratio_grad(s)
    h = 1e-5
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (loss_quantile(pf, s + e, spec)
              - loss_quantile(pf, s - e, spec)) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_mc_quantile_agrees_with_analytic_on_granular_portfolio():
    pf = make_portfolio(n=2000, ead=1.0, pd0=0.02, lgd0=0.5, rho=0.2)
    spec = LossQuantileSpec()
    s = np.array([0.3, 0.1])
    analytic = loss_quantile(pf, s, spec)
    mc = mc_loss_quantile(pf, s, spec, n_sims=50_000, seed=7)
    assert mc.std_error > 0
    assert abs(mc.quantile - analytic) <= 3.0 * mc.std_error


def test_mc_quantile_deterministic_for_fixed_seed():
    pf = make_portfolio(n=50)
    spec = LossQuantileSpec()
    a = mc_loss_quantile(pf, np.zeros(2), spec, n_sims=20_000, seed=11)
    b = mc_loss_quantile(pf, np.zeros(2), spec, n_sims=20_000, seed=11)
    c = mc_loss_quantile(pf, np.zeros(2), spec, n_sims=20_000, seed=12)
    assert a.quantile == b.quantile
    assert a.std_error == b.std_error
    assert a.quantile != c.quantile or a.std_error != c.std_error


def test_mc_quantile_rejects_tiny_sample():
    pf = make_portfolio(n=3)
    with pytest.raises(InvalidInputError):
        mc_loss_quantile(pf, np.zeros(2), LossQuantileSpec(), n_sims=5000,
                         seed=0)


def test_mc_zero_correlation_matches_binomial_quantile():
    # with rho ~ 0 the loss is binomial; its 99.9th percentile sits about
    # z_q idiosyncratic standard deviations above the mean, and the relative
    # gap to the mean shrinks as n grows
    n = 5000
    pf = make_portfolio(n=n, ead=1.0, pd0=0.05, lgd0=0.5, rho=1e-6)
    spec = LossQuantileSpec(q=0.999)
    mc = mc_loss_quantile(pf, np.zeros(2), spec, n_sims=20_000, seed=5)
    oracle = 0.5 * stats.binom.ppf(0.999, n, 0.05)
    assert mc.quantile == pytest.approx(oracle, rel=0.02)
    mean = n * 0.5 * 0.05
    assert abs(mc.quantile - mean) / mean < 0.25


def test_quantile_spec_validation():
    with pytest.raises(InvalidInputError):
        LossQuantileSpec(q=1.0)
    with pytest.raises(InvalidInputError):
        LossQuantileSpec(q=0.0)
