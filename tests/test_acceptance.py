"""End-to-end acceptance gate.

One test per criterion; each prints a single pass/fail line with its
tolerance when run with -v (the test id doubles as the criterion label).
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from georst import (CapitalState, ConstraintSet, CreditCapitalModel, Family,
                    LinearCapital, LossQuantileSpec, Membership,
                    NearOptimalSpec, NeighbourhoodSpec, ReferenceModel,
                    SolverConfig, TargetSet, build_pool, loss_quantile,
                    mc_loss_quantile, reduce_farthest_point,
                    solve_design_point)
from georst.capital import breaches
from georst.cli import main
from georst.scenario_sets import CandidatePool, PoolEntry
from georst.special_functions import chi2_cdf, f_cdf

from conftest import grid_oracle, make_portfolio
from test_sectors import two_sector_setup
from test_special_functions import chi2_density, f_density


class SmoothCapital:
    """Random smooth 2-D capital map with a quadratic severity surface."""

    def __init__(self, rng, r0=0.10, depletion=0.03):
        self.r0 = r0
        self.r_star = r0 * (1.0 - depletion)
        self.a = rng.uniform(0.2, 1.0)        # g slope
        self.b = rng.uniform(-0.6, 0.6)       # x slope
        self.c = rng.uniform(0.0, 0.3)        # g curvature
        self.e = rng.uniform(0.05, 0.3)       # x curvature
        # pin the breach level to a severity reachable inside the grid window
        probe = np.array([rng.uniform(1.0, 3.0), rng.uniform(-3.0, 3.0)])
        self.level = 0.8 * self._severity(probe[None, :])[0]
        self.slope = (self.r0 - self.r_star) / self.level

    def _severity(self, S):
        g, x = S[..., 0], S[..., 1]
        return self.a * g + self.b * x + self.c * g * g + self.e * x * x

    def ratio(self, s):
        return float(self.ratio_many(np.asarray(s, dtype=float)[None, :])[0])

    def ratio_many(self, S):
        return self.r0 - self.slope * self._severity(np.asarray(S, dtype=float))

    def ratio_grad(self, s):
        g, x = s
        return -self.slope * np.array([self.a + 2.0 * self.c * g,
                                       self.b + 2.0 * self.e * x])


def random_map_suite(n_maps=10, seed=123):
    rng = np.random.default_rng(seed)
    return [SmoothCapital(rng) for _ in range(n_maps)]


def test_criterion_01_half_plane_closed_form():
    # s* = (2, 2), d^2 = 8 within 1e-6; runtime < 1 s
    model = ReferenceModel.from_covariance(np.eye(2))
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    t0 = time.perf_counter()
    res = solve_design_point(model, cap, ConstraintSet(), SolverConfig(seed=0))
    elapsed = time.perf_counter() - t0
    assert res.s_star == pytest.approx([2.0, 2.0], abs=1e-6)
    assert res.mahalanobis_sq == pytest.approx(8.0, abs=1e-6)
    assert elapsed < 1.0


def test_criterion_02_grid_oracle_dominance():
    # solver objective <= grid objective (resolution 1001) + one-cell slack
    # on 10 random smooth maps; runtime < 30 s total
    model = ReferenceModel.from_covariance(np.array([[1.0, 0.2], [0.2, 1.0]]))
    cons = ConstraintSet()
    t0 = time.perf_counter()
    for cap in random_map_suite():
        res = solve_design_point(model, cap, cons, SolverConfig(seed=0))
        grid = grid_oracle(model, cap, cons, resolution=1001,
                           x_bounds=(-5.0, 5.0), g_bounds=(0.0, 5.0))
        assert grid is not None
        cell = np.hypot(*grid.cell_size)
        slack = (math.sqrt(grid.mahalanobis_sq) + cell) ** 2 - grid.mahalanobis_sq
        assert res.mahalanobis_sq <= grid.mahalanobis_sq + slack
    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_constraint_activity():
    # |R(s*) - R*| <= 1e-6 R0 whenever s = 0 does not already breach
    model = ReferenceModel.from_covariance(np.array([[1.0, 0.2], [0.2, 1.0]]))
    cons = ConstraintSet()
    for cap in random_map_suite():
        # baseline is feasible by design
        assert not breaches(cap.ratio(np.zeros(2)), cap.r_star)
        res = solve_design_point(model, cap, cons, SolverConfig(seed=0))
        assert res.active
        assert abs(res.ratio_at_optimum - cap.r_star) <= 1e-6 * cap.r0


def test_criterion_04_vasicek_vs_monte_carlo():
    # homogeneous n = 10^4, PD = 0.02, LGD = 0.5, rho = 0.2, q = 0.999:
    # analytic quantile within 3 MC standard errors at n_sims = 2e5;
    # runtime < 20 s
    pf = make_portfolio(n=10_000, ead=1.0, pd0=0.02, lgd0=0.5, rho=0.2)
    spec = LossQuantileSpec(q=0.999)
    s0 = np.zeros(2)
    t0 = time.perf_counter()
    analytic = loss_quantile(pf, s0, spec)
    mc = mc_loss_quantile(pf, s0, spec, n_sims=200_000, seed=42)
    elapsed = time.perf_counter() - t0
    assert mc.std_error > 0
    assert abs(analytic - mc.quantile) <= 3.0 * mc.std_error
    assert elapsed < 20.0


def test_criterion_05_chi_squared_calibration():
    # Gaussian d = 2 tail equals exp(-m2/2) within 1e-12; chi^2 and F CDFs
    # within 1e-10 of numerical quadrature
    model = ReferenceModel.from_covariance(np.eye(2))
    for m2 in np.arange(0.1, 20.01, 0.1):
        assert model.tail_probability(m2) == pytest.approx(
            math.exp(-m2 / 2.0), abs=1e-12)
    for dof in (1, 2, 5):
        for x in (0.5, 2.0, 8.0):
            oracle, _ = quad(chi2_density, 0.0, x, args=(dof,), epsabs=1e-13)
            assert abs(chi2_cdf(x, dof) - oracle) <= 1e-10
    for d1, d2 in ((2, 3), (2, 6), (2, 30)):
        for x in (0.5, 1.5, 5.0):
            oracle, _ = quad(f_density, 0.0, x, args=(d1, d2), epsabs=1e-13,
                             limit=200)
            assert abs(f_cdf(x, d1, d2) - oracle) <= 1e-10


def test_criterion_06_student_t_minimiser_equivalence():
    # design point under Student-t (nu in {3, 6, 30}) within 1e-6 whitened
    # distance of the Gaussian one; tail probabilities monotone in nu at
    # fixed m2 > d
    sigma = np.array([[1.0, 0.2], [0.2, 1.0]])
    gauss = ReferenceModel.from_covariance(sigma)
    cons = ConstraintSet()
    for cap in random_map_suite(n_maps=3):
        res_g = solve_design_point(gauss, cap, cons, SolverConfig(seed=0))
        for nu in (3.0, 6.0, 30.0):
            t_model = ReferenceModel.from_covariance(
                sigma, family=Family.STUDENT_T, nu=nu)
            res_t = solve_design_point(t_model, cap, cons, SolverConfig(seed=0))
            dy = t_model.whiten(res_t.s_star) - gauss.whiten(res_g.s_star)
            assert np.linalg.norm(dy) < 1e-6
    m2 = 9.0  # > d = 2
    tails = [ReferenceModel.from_covariance(sigma, family=Family.STUDENT_T,
                                            nu=nu).tail_probability(m2)
             for nu in (3.0, 6.0, 30.0)]
    assert tails[0] > tails[1] > tails[2] > gauss.tail_probability(m2)


def test_criterion_07_set_membership_integrity():
    # every pool and list member re-passes membership from scratch and lies
    # in the feasible region, the default one and a box that cuts both sets;
    # N_eps members satisfy d^2 <= d^2(s*) + eps + 1e-9
    model = ReferenceModel.from_covariance(np.eye(2))
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    eps = 2.0
    for cons in (ConstraintSet(), ConstraintSet(x_max=2.2, g_max=2.6)):
        res = solve_design_point(model, cap, cons, SolverConfig(seed=0))
        for target, spec in ((TargetSet.NEIGHBOURHOOD,
                              NeighbourhoodSpec(radius_eta=1.5)),
                             (TargetSet.NEAR_OPTIMAL,
                              NearOptimalSpec(epsilon=eps))):
            membership = Membership(target, model, cap, res.s_star, spec, cons)
            fresh = Membership(target, model, cap, res.s_star, spec, cons)
            pool = build_pool(membership, res, n_target=400, seed=0)
            listing = reduce_farthest_point(model, pool, res.s_star, P=8,
                                            capital=cap)
            assert all(fresh(entry.s) for entry in pool.entries)
            assert all(fresh(entry.s) for entry in listing.entries)
            assert cons.satisfied(pool.scenarios).all()
            assert all(cons.satisfied(entry.s) for entry in listing.entries)
            if target is TargetSet.NEAR_OPTIMAL:
                bound = res.mahalanobis_sq + eps + 1e-9
                assert all(model.mahalanobis_sq(e.s) <= bound
                           for e in pool.entries)


def test_criterion_08_farthest_point_hand_trace():
    # pool values {0, 1, 2, 10}, P = 3 -> [0, 10, 2] exactly, and the
    # selected set is invariant over 100 pool permutations
    model = ReferenceModel.from_covariance(np.eye(2))
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    values = np.array([0.0, 1.0, 2.0, 10.0])
    rng = np.random.default_rng(0)
    reference = None
    for trial in range(100):
        perm = rng.permutation(4) if trial else np.arange(4)
        pool = CandidatePool(
            target=TargetSet.NEIGHBOURHOOD,
            entries=[PoolEntry(s=np.array([values[i], 0.0]),
                               origin="local_draw") for i in perm])
        lst = reduce_farthest_point(model, pool, np.zeros(2), P=3,
                                    capital=cap)
        coords = [float(e.s[0]) for e in lst.entries]
        if reference is None:
            reference = coords
            assert coords == [0.0, 10.0, 2.0]
        else:
            assert coords == reference


def test_criterion_09_sector_exposure_consistency():
    # one-exposure-per-sector portfolio: identical L_q, RWA, R(s), and
    # design point under both engines (exact equality)
    sector_pf, exposure_pf = two_sector_setup()
    spec = LossQuantileSpec()
    state = CapitalState(cet1_0=3.0, rwa_0=40.0)
    cap_sector = CreditCapitalModel(sector_pf.to_portfolio(), state, spec)
    cap_exposure = CreditCapitalModel(exposure_pf, state, spec)
    for s in (np.zeros(2), np.array([1.0, 0.5]), np.array([2.0, -0.5])):
        assert cap_sector.loss_quantile(s) == cap_exposure.loss_quantile(s)
        assert cap_sector.rwa(s) == cap_exposure.rwa(s)
        assert cap_sector.ratio(s) == cap_exposure.ratio(s)
    model = ReferenceModel.from_covariance(np.array([[1.0, 0.3], [0.3, 1.0]]))
    config = SolverConfig(seed=0, n_starts=8)
    res_a = solve_design_point(model, cap_sector, ConstraintSet(), config)
    res_b = solve_design_point(model, cap_exposure, ConstraintSet(), config)
    assert np.array_equal(res_a.s_star, res_b.s_star)
    assert res_a.mahalanobis_sq == res_b.mahalanobis_sq


def test_criterion_10_determinism(tmp_path):
    # identical config + seed produce byte-identical reports
    from test_cli import write_inputs

    config = write_inputs(tmp_path)
    dirs = (tmp_path / "run1", tmp_path / "run2")
    for d in dirs:
        assert main(["scenario-list", "--config", str(config), "--out",
                     str(d), "--pool", "40", "--list", "3"]) == 0
        assert main(["design-point", "--config", str(config), "--out",
                     str(d)]) == 0
    assert (dirs[0] / "scenario_list.txt").read_bytes() == (
        dirs[1] / "scenario_list.txt").read_bytes()
    assert (dirs[0] / "design_point.txt").read_bytes() == (
        dirs[1] / "design_point.txt").read_bytes()


def test_criterion_11_default_depletion_threshold():
    # the default 300 bp depletion gives r_star = 0.97 * r0 exactly
    state = CapitalState(cet1_0=7.0, rwa_0=80.0)
    assert state.depletion == 0.03
    assert state.r_star == pytest.approx(0.97 * state.r0, abs=1e-15)
