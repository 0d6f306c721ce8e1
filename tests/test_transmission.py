import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from georst import InvalidInputError, SectorSensitivities
from georst.transmission import (SOFTCLIP_HI, SOFTCLIP_LO, monotonicity_rows,
                                 smooth_monotonicity_violation, softclip)

from conftest import (make_portfolio, make_sensitivities,
                      monotonicity_violation, portfolio_from_rows,
                      stack_sensitivities)


def test_stressed_pd_known_value():
    # logistic shift of pd0 = 0.01 by z = 0.5 at g = 1, x = 0
    pf = make_portfolio(n=1, pd0=0.01, lgd0=0.5, delta=0.5, beta=(0.0,))
    pd, = pf.stressed_pd(np.array([1.0, 0.0]))
    closed_form = 0.01 * math.e ** 0.5 / (1 - 0.01 + 0.01 * math.e ** 0.5)
    assert pd == pytest.approx(closed_form, abs=1e-15)
    assert pd == pytest.approx(0.016381, abs=1e-6)


def test_stressed_pd_matches_logistic_identity():
    pf = make_portfolio(n=1, pd0=0.03, lgd0=0.4, rho=0.1, delta=0.4,
                        beta=(0.7,))
    for s in ([0.0, 0.0], [1.2, -0.5], [0.3, 2.0]):
        z = 0.4 * s[0] + 0.7 * s[1]
        logit0 = math.log(0.03 / 0.97)
        assert pf.stressed_pd(np.array(s))[0] == pytest.approx(
            float(expit(logit0 + z)), abs=1e-15)


def test_stressed_pd_zero_scenario_is_baseline():
    pf = make_portfolio(n=3, pd0=0.02)
    assert pf.stressed_pd(np.zeros(2)) == pytest.approx(pf.pd0, abs=1e-15)
    assert pf.stressed_lgd(np.zeros(2)) == pytest.approx(pf.lgd0, abs=1e-9)


def test_stressed_lgd_affine_in_core():
    pf = make_portfolio(n=1, lgd0=0.45, eta=0.1, gamma=(0.05,))
    s = np.array([0.5, 1.0])
    assert pf.stressed_lgd(s)[0] == pytest.approx(
        0.45 + 0.05 * 1.0 + 0.1 * 0.5, abs=1e-12)


def test_stressed_lgd_saturates_inside_unit_interval():
    pf = make_portfolio(n=1, lgd0=0.9, eta=1.0, gamma=(1.0,))
    high, = pf.stressed_lgd(np.array([5.0, 5.0]))
    low, = pf.stressed_lgd(np.array([0.0, -10.0]))
    assert 0.0 < low < 1.0
    assert 0.0 < high < 1.0
    assert high > 0.97


def test_softclip_identity_core_and_bounds():
    core = np.linspace(SOFTCLIP_LO + 0.02, SOFTCLIP_HI - 0.02, 50)
    assert softclip(core)[0] == pytest.approx(core, abs=1e-9)
    # far tails saturate onto [lo, hi] at double precision; values never
    # escape the unit interval
    v = softclip(np.linspace(-5.0, 6.0, 200))[0]
    assert np.all((SOFTCLIP_LO <= v) & (v <= SOFTCLIP_HI))


def test_softclip_monotone_and_c1():
    def value(t):
        return softclip(t)[0]

    t = np.linspace(-2.0, 3.0, 1000)
    assert np.all(np.diff(value(t)) >= 0)
    # strictly increasing away from the saturated tails
    core = np.linspace(-0.05, 1.05, 500)
    assert np.all(np.diff(value(core)) > 0)
    # the slope agrees with central differences, including across the blends
    h = 1e-6
    fd = (value(t + h) - value(t - h)) / (2 * h)
    assert softclip(t)[1] == pytest.approx(fd, abs=1e-5)


def test_pd_jacobian_matches_finite_differences():
    # the capital kernel's chain rule: d PD / d s = pd (1 - pd) [delta | beta]
    pf = make_portfolio(n=4, delta=0.6, beta=(0.8,))
    s = np.array([0.7, -0.4])
    pd = pf.stressed_pd(s)
    jac = (pd * (1.0 - pd))[:, None] * pf.pd_loadings.T
    h = 1e-5
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (pf.stressed_pd(s + e) - pf.stressed_pd(s - e)) / (2 * h)
        assert jac[:, j] == pytest.approx(fd, abs=1e-6)


def test_lgd_jacobian_matches_finite_differences():
    pf = make_portfolio(n=4, eta=0.2, gamma=(0.15,))
    for s in (np.array([0.7, -0.4]), np.array([3.0, 2.0])):
        # d LGD / d s = softclip slope times [eta | gamma]
        lgd, slope = pf.stressed_lgd_and_slope(s)
        assert np.array_equal(lgd, pf.stressed_lgd(s))
        jac = slope[:, None] * pf.lgd_loadings.T
        h = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (pf.stressed_lgd(s + e) - pf.stressed_lgd(s - e)) / (2 * h)
            assert jac[:, j] == pytest.approx(fd, abs=1e-6)


def test_sign_constraints_reject_negative_g_loadings():
    sens = SectorSensitivities(["corp"], pd=[[-0.1, 0.0]], lgd=[[0.0, 0.0]])
    row = ("e", "corp", 1.0, 0.02, 0.4, 0.2)
    with pytest.raises(InvalidInputError):
        portfolio_from_rows([row], sens)
    # allowed when sign constraints are off
    pf = portfolio_from_rows([row], sens, sign_constraints=False)
    assert pf.n == 1


def test_sign_constraints_name_the_first_offending_sector():
    # b's eta and c's delta are negative: the first row of the table is
    # named, by the id in the table
    sens = SectorSensitivities(
        ["a", "b", "c"], pd=[[0.5, 0.3], [0.2, 0.1], [-0.1, 0.0]],
        lgd=[[0.1, 0.0], [-0.1, 0.0], [0.0, 0.0]])
    rows = [(f"e{k}", k, 1.0, 0.02, 0.4, 0.2) for k in "abc"]
    with pytest.raises(InvalidInputError,
                       match="^sector b: delta and eta must be >= 0"):
        portfolio_from_rows(rows, sens)


def test_a_repeated_sector_id_is_rejected():
    sens = stack_sensitivities(make_sensitivities(),
                               make_sensitivities(sector_id="east"),
                               make_sensitivities(delta=0.7))
    rows = [("e0", "corp", 1.0, 0.02, 0.4, 0.2),
            ("e1", "east", 1.0, 0.02, 0.4, 0.2)]
    with pytest.raises(InvalidInputError, match="^sector corp is repeated"):
        portfolio_from_rows(rows, sens)


@pytest.mark.parametrize("sector_id, pd, lgd", [
    (["corp"], [[0.5, 0.3]], [[0.1, 0.05, 0.0]]),
    (["corp"], [[0.5, 0.3]], [[0.1, 0.05], [0.1, 0.05]]),
    (["corp"], [0.5, 0.3], [0.1, 0.05]),
    (["corp", "east"], [[0.5, 0.3]], [[0.1, 0.05]]),
])
def test_loading_tables_of_other_shapes_are_rejected(sector_id, pd, lgd):
    with pytest.raises(InvalidInputError, match="tables of equal shape"):
        SectorSensitivities(sector_id, pd=pd, lgd=lgd)


def test_exposure_validation():
    sens = make_sensitivities()
    for row, message in [
            (("e", "corp", 0.0, 0.02, 0.4, 0.2), "e: EAD must be positive"),
            (("e", "corp", 1.0, 1.0, 0.4, 0.2), r"e: pd0=1\.0 must lie strictly"),
            (("e", "corp", 1.0, 0.02, 0.4, 0.0), r"e: rho=0\.0 must lie strictly")]:
        with pytest.raises(InvalidInputError, match=message):
            portfolio_from_rows([row], sens)


def test_portfolio_rejects_unknown_sector():
    sens = make_sensitivities()
    row = ("e", "other", 1.0, 0.02, 0.4, 0.2)
    with pytest.raises(InvalidInputError,
                       match="exposure e references unknown sector other"):
        portfolio_from_rows([row], sens)


@pytest.mark.parametrize("rows, message", [
    # two bad rows in different columns: the first row is named, not the
    # first column
    ([("e0", "corp", 1.0, 0.02, 0.4, 0.2), ("e1", "corp", 1.0, 0.02, 1.2, 0.2),
      ("e2", "corp", -1.0, 0.02, 0.4, 0.2)], r"e1: lgd0=1\.2 must lie"),
    ([("e0", "other", 1.0, 0.02, 0.4, 0.2), ("e1", "corp", 1.0, 0.02, 0.4, 0.0)],
     "exposure e0 references unknown sector other"),
    ([("e0", "corp", 1.0, 0.02, 0.4, 0.2), ("e1", "corp", 1.0, 0.02, 0.4, 0.2, 0.0),
      ("e2", "corp", 1.0, 0.0, 0.4, 0.2)], "e1: maturity must be positive"),
    # inf passes "> 0" and gave baseline_ratio = nan (EAD) or 0.0 (maturity)
    ([("e0", "corp", 1.0, 0.02, 0.4, 0.2), ("e1", "corp", np.inf, 0.02, 0.4, 0.2)],
     "e1: EAD must be positive"),
    ([("e0", "corp", 1.0, 0.02, 0.4, 0.2, np.inf)],
     "e0: maturity must be positive"),
])
def test_portfolio_names_the_first_bad_row(rows, message):
    with pytest.raises(InvalidInputError, match=message):
        portfolio_from_rows(rows, make_sensitivities())


@pytest.mark.parametrize("loading", [
    {"beta": (np.nan,)}, {"gamma": (np.inf,)}, {"delta": np.nan}])
def test_portfolio_rejects_non_finite_loadings(loading):
    sens = stack_sensitivities(
        make_sensitivities(), make_sensitivities(sector_id="east", **loading))
    rows = [("e0", "corp", 1.0, 0.02, 0.4, 0.2),
            ("e1", "east", 1.0, 0.02, 0.4, 0.2)]
    with pytest.raises(InvalidInputError, match="sensitivities must be finite"):
        portfolio_from_rows(rows, sens)


def test_monotonicity_violation_detects_improvement():
    pf = make_portfolio(n=2, delta=0.5, beta=(0.3,))
    assert monotonicity_violation(pf, np.zeros(2)) == 0.0
    # adverse scenario: PDs rise, no violation
    assert monotonicity_violation(pf, np.array([1.0, 1.0])) == 0.0
    # negative x with positive beta lowers PDs: a violation
    assert monotonicity_violation(pf, np.array([0.0, -2.0])) > 0.0


def test_smooth_monotonicity_tracks_hard_max():
    pf = make_portfolio(n=3)
    for s in (np.zeros(2), np.array([0.0, -2.0]), np.array([1.0, 0.5])):
        hard = monotonicity_violation(pf, s)
        smooth = smooth_monotonicity_violation(pf, s)
        assert abs(smooth - hard) < 1e-2
        if hard > 1e-2:
            assert smooth > 0.0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 4),
       k=st.integers(1, 3))
def test_monotonicity_rows_are_exact(seed, d, k):
    # LGDs in the soft-clip's identity band, so the stressed LGD at s = 0
    # is lgd0 and M s >= 0 is exactly "no PD or LGD improves"; loadings
    # are zero now and then, so zero and repeated rows occur
    rng = np.random.default_rng(seed)

    def loadings(size, low):
        return rng.uniform(low, 1.0, size) * (rng.random(size) < 0.7)

    sectors = stack_sensitivities(*(make_sensitivities(
        delta=loadings(1, 0.0)[0], eta=loadings(1, 0.0)[0],
        beta=loadings(d - 1, -1.0), gamma=loadings(d - 1, -1.0),
        sector_id=f"s{j}") for j in range(k)))
    pf = portfolio_from_rows(
        [(f"e{i}", f"s{i % k}", 1.0, rng.uniform(1e-3, 0.5),
          rng.uniform(0.03, 0.97), 0.2) for i in range(3 * k)], sectors)
    M = monotonicity_rows(pf)
    assert M.shape[1] == d and np.all(np.any(M != 0.0, axis=1))
    assert len(np.unique(M, axis=0)) == len(M)
    for s in rng.standard_normal((40, d)) * rng.choice([1e-3, 1.0, 10.0]):
        s[0] = abs(s[0])    # g >= 0 stresses, so both outcomes occur
        if np.all(np.abs(M @ s) > 1e-6):
            assert (np.all(M @ s >= 0.0)
                    == (monotonicity_violation(pf, s) <= 1e-12))
