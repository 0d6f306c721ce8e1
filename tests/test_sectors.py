import numpy as np
import pytest

from georst import (CapitalState, ConstraintSet, CreditCapitalModel,
                    LossQuantileSpec, ReferenceModel, RwaMode,
                    SectorPortfolio, SolverConfig,
                    aggregate_sectors, calibrate_linear_alpha, loss_quantile,
                    risk_weight, solve_design_point)

from georst.runner import RunConfig, build_context

from conftest import (generate_toy_inputs, make_sensitivities,
                      portfolio_from_rows, stack_sensitivities)

SPEC = LossQuantileSpec()


def two_sector_setup():
    sens = stack_sensitivities(
        make_sensitivities(delta=0.8, eta=0.1, beta=(0.5,), gamma=(0.05,),
                           sector_id="corp"),
        make_sensitivities(delta=0.4, eta=0.05, beta=(0.2,), gamma=(0.02,),
                           sector_id="retail"))
    rows = [("corp", 60.0, 0.02, 0.45, 0.2, 2.5),
            ("retail", 40.0, 0.01, 0.35, 0.15, 2.5)]
    records = np.rec.fromrecords(
        rows, names=["sector_id", "ead", "pd0", "lgd0", "rho", "maturity"])
    sector_pf = SectorPortfolio(records, sens)
    exposure_pf = portfolio_from_rows([(r[0], *r) for r in rows], sens)
    return sector_pf, exposure_pf


def test_loss_quantile_consistency_exact():
    sector_pf, exposure_pf = two_sector_setup()
    sector_as_pf = sector_pf.to_portfolio()
    for s in (np.zeros(2), np.array([0.8, -0.3]), np.array([2.0, 1.0])):
        assert loss_quantile(sector_as_pf, s, SPEC) == loss_quantile(
            exposure_pf, s, SPEC)


def test_rwa_and_ratio_consistency_exact():
    sector_pf, exposure_pf = two_sector_setup()
    state = CapitalState(cet1_0=6.0, rwa_0=50.0)
    cap_a = CreditCapitalModel(sector_pf.to_portfolio(), state, SPEC)
    cap_b = CreditCapitalModel(exposure_pf, state, SPEC)
    for s in (np.zeros(2), np.array([1.0, 0.5])):
        assert cap_a.rwa(s) == cap_b.rwa(s)
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
    sens = make_sensitivities(sector_id="corp")
    pf = portfolio_from_rows([("a", "corp", 30.0, 0.01, 0.3, 0.2),
                              ("b", "corp", 70.0, 0.03, 0.5, 0.2)], sens)
    agg, = aggregate_sectors(pf, np.zeros(2))
    assert agg.weight_total == 100.0
    assert agg.pd_star == pytest.approx(0.3 * 0.01 + 0.7 * 0.03)
    assert agg.lgd_star == pytest.approx(0.3 * 0.3 + 0.7 * 0.5, abs=1e-9)


def test_aggregate_sector_pd_rises_under_stress():
    sector_pf, exposure_pf = two_sector_setup()
    base = aggregate_sectors(exposure_pf, np.zeros(2))
    stressed = aggregate_sectors(exposure_pf, np.array([2.0, 1.0]))
    for b, s in zip(base, stressed):
        assert s.pd_star > b.pd_star
        assert s.lgd_star > b.lgd_star


def test_sector_linear_risk_weight_tangent_at_baseline():
    sector_pf, _ = two_sector_setup()
    p = sector_pf.to_portfolio()

    def full(s):
        return risk_weight(p.stressed_pd(s), p.stressed_lgd(s), p.rho,
                           p.maturity, SPEC, use_maturity_adjustment=False)

    # alpha_k = EAD_k dRW_k/dPD_k at baseline, so the linear form is
    # RW_k(0) + alpha_k / EAD_k (PD_k(s) - PD_k^0)
    slope = calibrate_linear_alpha(p, SPEC, use_maturity_adjustment=False) / p.ead

    def lin(s):
        return full(np.zeros(2)) + slope * (p.stressed_pd(s) - p.pd0)

    assert lin(np.zeros(2)) == pytest.approx(full(np.zeros(2)), abs=1e-12)
    # small scenarios keep the two close
    s = np.array([0.1, 0.05])
    assert lin(s) == pytest.approx(full(s), rel=0.05)


def test_aggregate_sectors_matches_a_scan_of_the_exposures():
    # the sector index gives the same sums, bit for bit, as scanning the
    # exposures of each sector in row order: first EAD_k, then the PD and
    # LGD weighted by w_i = ead_i / EAD_k
    sens = stack_sensitivities(*(
        make_sensitivities(delta=0.3 + 0.1 * j, sector_id=k)
        for j, k in enumerate(("a", "b", "c"))))
    rows = [(f"e{i}", "abcab"[i % 5], 1.0 + 0.37 * i, 0.005 + 0.003 * i,
             0.3 + 0.01 * i, 0.2) for i in range(11)]
    pf = portfolio_from_rows(rows, sens)
    s = np.array([1.3, -0.4])
    pd, lgd = pf.stressed_pd(s), pf.stressed_lgd(s)
    aggregates = aggregate_sectors(pf, s)
    assert [a.sector_id for a in aggregates] == ["a", "b", "c"]
    for agg in aggregates:
        idx = [i for i, row in enumerate(rows) if row[1] == agg.sector_id]
        total = pd_star = lgd_star = 0.0
        for i in idx:
            total += float(pf.ead[i])
        for i in idx:
            w = float(pf.ead[i]) / total
            pd_star += w * float(pd[i])
            lgd_star += w * float(lgd[i])
        assert (agg.weight_total, agg.pd_star, agg.lgd_star) == (
            total, pd_star, lgd_star)


def test_a_sector_of_one_exposure_reports_its_own_parameters(tmp_path):
    # every row of a sector file is a sector of one exposure: its row of
    # the sector table is that exposure's EAD, stressed PD and stressed LGD
    # bit for bit, at s = 0 and at s*
    ctx = build_context(RunConfig.from_file(
        generate_toy_inputs("scenario-list-sector", tmp_path)))
    pf = ctx.portfolio
    s_star = solve_design_point(ctx.model, ctx.capital, ctx.constraints,
                                ctx.solver_config).s_star
    for s in (np.zeros(ctx.model.d), s_star):
        aggregates = aggregate_sectors(pf, s)
        assert [a.sector_id for a in aggregates] == pf.sector_id
        assert [(a.weight_total, a.pd_star, a.lgd_star)
                for a in aggregates] == list(zip(
                    pf.ead.tolist(), pf.stressed_pd(s).tolist(),
                    pf.stressed_lgd(s).tolist()))
