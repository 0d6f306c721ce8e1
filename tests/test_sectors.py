import numpy as np
import pytest

from georst import (CapitalState, ConstraintSet, CreditCapitalModel,
                    ExposureRecord, LossQuantileSpec, Portfolio,
                    ReferenceModel, RwaMode, SectorPortfolio, SectorRecord,
                    SolverConfig, aggregate_sectors, calibrate_linear_alpha,
                    loss_quantile, solve_design_point)
from georst.capital import rwa_stressed
from georst.sectors import (calibrate_sector_linear_rw, sector_loss_quantile,
                            sector_risk_weight, sector_risk_weight_linear)

from conftest import make_sensitivities

SPEC = LossQuantileSpec()


def two_sector_setup():
    sens = {
        "corp": make_sensitivities(delta=0.8, eta=0.1, beta=(0.5,),
                                   gamma=(0.05,), sector_id="corp"),
        "retail": make_sensitivities(delta=0.4, eta=0.05, beta=(0.2,),
                                     gamma=(0.02,), sector_id="retail"),
    }
    records = [
        SectorRecord("corp", ead=60.0, pd0=0.02, lgd0=0.45, rho=0.2),
        SectorRecord("retail", ead=40.0, pd0=0.01, lgd0=0.35, rho=0.15),
    ]
    sector_pf = SectorPortfolio(records, sens)
    exposures = tuple(
        ExposureRecord(r.sector_id, r.sector_id, ead=r.ead, pd0=r.pd0,
                       lgd0=r.lgd0, rho=r.rho, maturity=r.maturity)
        for r in records)
    exposure_pf = Portfolio(exposures, sens)
    return sector_pf, exposure_pf


def test_loss_quantile_consistency_exact():
    sector_pf, exposure_pf = two_sector_setup()
    for s in (np.zeros(2), np.array([0.8, -0.3]), np.array([2.0, 1.0])):
        assert sector_loss_quantile(sector_pf, s, SPEC) == loss_quantile(
            exposure_pf, s, SPEC)


def test_rwa_and_ratio_consistency_exact():
    sector_pf, exposure_pf = two_sector_setup()
    state = CapitalState(cet1_0=6.0, rwa_0=50.0)
    sector_as_pf = sector_pf.to_portfolio()
    for s in (np.zeros(2), np.array([1.0, 0.5])):
        assert rwa_stressed(state, sector_as_pf, s, SPEC) == rwa_stressed(
            state, exposure_pf, s, SPEC)
    cap_a = CreditCapitalModel(sector_as_pf, state, SPEC)
    cap_b = CreditCapitalModel(exposure_pf, state, SPEC)
    s = np.array([1.0, 0.5])
    assert cap_a.ratio(s) == cap_b.ratio(s)


@pytest.mark.parametrize("rwa_mode", list(RwaMode))
def test_ratio_grad_consistency_exact(rwa_mode):
    sector_pf, exposure_pf = two_sector_setup()
    sector_as_pf = sector_pf.to_portfolio()
    caps = []
    for pf in (sector_as_pf, exposure_pf):
        alpha = (calibrate_linear_alpha(pf, SPEC)
                 if rwa_mode is RwaMode.LINEAR else None)
        state = CapitalState(cet1_0=6.0, rwa_0=50.0, rwa_mode=rwa_mode,
                             alpha=alpha, pnl_noncredit=np.array([-0.1, 0.2]))
        caps.append(CreditCapitalModel(pf, state, SPEC))
    for s in (np.zeros(2), np.array([1.0, 0.5]), np.array([2.0, -0.5])):
        assert np.array_equal(caps[0].ratio_grad(s), caps[1].ratio_grad(s))


def test_design_point_consistency():
    sector_pf, exposure_pf = two_sector_setup()
    model = ReferenceModel.from_covariance(np.array([[1.0, 0.3], [0.3, 1.0]]))
    state = CapitalState(cet1_0=3.0, rwa_0=40.0)
    cap_a = CreditCapitalModel(sector_pf.to_portfolio(), state, SPEC)
    cap_b = CreditCapitalModel(exposure_pf, state, SPEC)
    cons = ConstraintSet()
    config = SolverConfig(seed=0, n_starts=8)
    res_a = solve_design_point(model, cap_a, cons, config)
    res_b = solve_design_point(model, cap_b, cons, config)
    assert np.array_equal(res_a.s_star, res_b.s_star)
    assert res_a.mahalanobis_sq == res_b.mahalanobis_sq


def test_aggregate_sectors_ead_weighting():
    sens = {"corp": make_sensitivities(sector_id="corp")}
    exposures = (
        ExposureRecord("a", "corp", ead=30.0, pd0=0.01, lgd0=0.3, rho=0.2),
        ExposureRecord("b", "corp", ead=70.0, pd0=0.03, lgd0=0.5, rho=0.2),
    )
    pf = Portfolio(exposures, sens)
    agg, = aggregate_sectors(pf, np.zeros(2))
    assert agg.weight_total == 100.0
    assert agg.pd_star == pytest.approx(0.3 * 0.01 + 0.7 * 0.03)
    assert agg.lgd_star == pytest.approx(0.3 * 0.3 + 0.7 * 0.5, abs=1e-9)
    assert agg.exposure_weights == pytest.approx([0.3, 0.7])


def test_aggregate_sector_pd_rises_under_stress():
    sector_pf, exposure_pf = two_sector_setup()
    base = aggregate_sectors(exposure_pf, np.zeros(2))
    stressed = aggregate_sectors(exposure_pf, np.array([2.0, 1.0]))
    for b, s in zip(base, stressed):
        assert s.pd_star > b.pd_star
        assert s.lgd_star > b.lgd_star


def test_sector_linear_risk_weight_tangent_at_baseline():
    sector_pf, _ = two_sector_setup()
    alpha, beta_rw = calibrate_sector_linear_rw(sector_pf, SPEC)
    full0 = sector_risk_weight(sector_pf, np.zeros(2), SPEC)
    lin0 = sector_risk_weight_linear(alpha, beta_rw, sector_pf, np.zeros(2))
    assert lin0 == pytest.approx(full0, abs=1e-12)
    # small scenarios keep the two close
    s = np.array([0.1, 0.05])
    full = sector_risk_weight(sector_pf, s, SPEC)
    lin = sector_risk_weight_linear(alpha, beta_rw, sector_pf, s)
    assert lin == pytest.approx(full, rel=0.05)
