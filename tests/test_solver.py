import numpy as np
import pytest

from georst import (ConstraintSet, Family, InfeasibleError, InvalidInputError,
                    LinearCapital, LossQuantileSpec, ReferenceModel,
                    SolverConfig, conditional_anchor, grid_oracle, risk_weight,
                    solve_design_point)

from conftest import make_credit_capital, make_portfolio


def test_half_plane_closed_form(identity_model):
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    res = solve_design_point(identity_model, cap, ConstraintSet(),
                             SolverConfig(seed=0))
    assert res.s_star == pytest.approx([2.0, 2.0], abs=1e-6)
    assert res.mahalanobis_sq == pytest.approx(8.0, abs=1e-6)
    assert res.active


def test_axis_constrained_half_plane(identity_model):
    # breach depends on x only; the cheapest breach is at the g floor
    cap = LinearCapital(weights=np.array([0.0, 1.0]), level=3.0)
    res = solve_design_point(identity_model, cap, ConstraintSet(),
                             SolverConfig(seed=0))
    assert res.s_star[0] == pytest.approx(1e-6, abs=1e-8)
    assert res.s_star[1] == pytest.approx(3.0, abs=1e-6)


def test_correlated_half_plane_matches_grid(correlated_model):
    cap = LinearCapital(weights=np.array([1.0, 0.5]), level=3.0)
    cons = ConstraintSet()
    res = solve_design_point(correlated_model, cap, cons, SolverConfig(seed=0))
    grid = grid_oracle(correlated_model, cap, cons, resolution=801,
                       x_bounds=(-6.0, 6.0), g_bounds=(0.0, 6.0))
    cell = np.hypot(*grid.cell_size)
    assert res.mahalanobis_sq <= grid.mahalanobis_sq + 2 * cell
    assert np.linalg.norm(res.s_star - grid.s) < 3 * cell


def test_infeasible_map_raises(identity_model):
    cap = LinearCapital(weights=np.array([0.0, 0.0]), level=3.0)
    with pytest.raises(InfeasibleError):
        solve_design_point(identity_model, cap, ConstraintSet(),
                           SolverConfig(seed=0))


def test_box_bounds_respected(identity_model):
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    cons = ConstraintSet(g_max=1.0, x_min=-5.0, x_max=5.0)
    res = solve_design_point(identity_model, cap, cons, SolverConfig(seed=0))
    assert res.s_star[0] <= 1.0 + 1e-8
    # closed form with g clamped at 1: x must reach 3
    assert res.s_star == pytest.approx([1.0, 3.0], abs=1e-5)


def test_box_makes_problem_infeasible(identity_model):
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    cons = ConstraintSet(g_max=1.0, x_min=-1.0, x_max=1.0)
    with pytest.raises(InfeasibleError):
        solve_design_point(identity_model, cap, cons, SolverConfig(seed=0))


def test_student_t_minimiser_matches_gaussian():
    # the plausibility objective is a strictly increasing transform of the
    # squared distance under either family, so the argmin coincides
    sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
    cap = LinearCapital(weights=np.array([1.0, 0.7]), level=2.5)
    cons = ConstraintSet()
    gauss = ReferenceModel.from_covariance(sigma)
    res_g = solve_design_point(gauss, cap, cons, SolverConfig(seed=0))
    for nu in (3.0, 6.0, 30.0):
        t_model = ReferenceModel.from_covariance(sigma,
                                                 family=Family.STUDENT_T,
                                                 nu=nu)
        res_t = solve_design_point(t_model, cap, cons, SolverConfig(seed=0))
        dy = t_model.whiten(res_t.s_star) - gauss.whiten(res_g.s_star)
        assert np.linalg.norm(dy) < 1e-6
        # tails are calibrated differently even though the argmin agrees
        assert res_t.tail_probability != pytest.approx(
            res_g.tail_probability, abs=1e-12)


def test_conditional_anchor_half_plane(identity_model):
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    anchor = conditional_anchor(identity_model, cap, ConstraintSet(), 1.0)
    assert anchor is not None
    assert anchor == pytest.approx([1.0, 3.0], abs=1e-5)


def test_conditional_anchor_infeasible_g_returns_none(identity_model):
    # breach requires x >= 3 but the box caps x at 1: no anchor at any g
    cap = LinearCapital(weights=np.array([0.0, 1.0]), level=3.0)
    cons = ConstraintSet(x_min=-1.0, x_max=1.0)
    anchor = conditional_anchor(identity_model, cap, cons, 0.5)
    assert anchor is None


def test_conditional_anchor_rejects_out_of_range_g(identity_model):
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    with pytest.raises(InvalidInputError):
        conditional_anchor(identity_model, cap, ConstraintSet(), -1.0)


def test_solver_on_credit_capital_model(correlated_model):
    pf = make_portfolio(n=20, delta=0.9, beta=(0.8,), eta=0.12,
                        gamma=(0.08,), pd0=0.015, lgd0=0.4)
    cap = make_credit_capital(pf, cet1_0=6.0, rwa_0=50.0)
    cons = ConstraintSet()
    res = solve_design_point(correlated_model, cap, cons,
                             SolverConfig(seed=0, n_starts=12))
    # the optimum lies on the breakdown frontier
    assert res.active
    assert abs(res.ratio_at_optimum - cap.r_star) <= 1e-6 * cap.r0
    assert res.s_star[0] >= 1e-6 - 1e-12
    # and beats a grid scan up to discretization
    grid = grid_oracle(correlated_model, cap, cons, resolution=121,
                       x_bounds=(-4.0, 4.0), g_bounds=(0.0, 4.0))
    cell = np.hypot(*grid.cell_size)
    assert res.mahalanobis_sq <= grid.mahalanobis_sq + 2 * cell


class NoGradient:
    """A capital map without ratio_grad: the solver falls back to central
    differences and counts as the reference path."""

    def __init__(self, inner):
        self.r0, self.r_star = inner.r0, inner.r_star
        self.ratio = inner.ratio


def test_analytic_gradient_path_matches_finite_differences(correlated_model):
    pf = make_portfolio(n=20, delta=0.9, beta=(0.8,), eta=0.12,
                        gamma=(0.08,), pd0=0.015, lgd0=0.4)
    cap = make_credit_capital(pf, cet1_0=6.0, rwa_0=50.0)
    config = SolverConfig(seed=0, n_starts=12)
    analytic = solve_design_point(correlated_model, cap, ConstraintSet(),
                                  config)
    fd = solve_design_point(correlated_model, NoGradient(cap),
                            ConstraintSet(), config)
    assert np.linalg.norm(analytic.y_star - fd.y_star) <= 1e-6
    assert analytic.mahalanobis_sq == pytest.approx(fd.mahalanobis_sq,
                                                    rel=1e-9)


def test_solver_deterministic(identity_model):
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    a = solve_design_point(identity_model, cap, ConstraintSet(),
                           SolverConfig(seed=3))
    b = solve_design_point(identity_model, cap, ConstraintSet(),
                           SolverConfig(seed=3))
    assert np.array_equal(a.s_star, b.s_star)
    assert a.mahalanobis_sq == b.mahalanobis_sq


def test_local_optima_are_deduplicated(identity_model):
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    res = solve_design_point(identity_model, cap, ConstraintSet(),
                             SolverConfig(seed=0, n_starts=24))
    Y = np.array([identity_model.whiten(o.s) for o in res.local_optima])
    for i in range(len(Y)):
        for j in range(i + 1, len(Y)):
            assert np.linalg.norm(Y[i] - Y[j]) > 1e-3


def test_grid_oracle_requires_2d():
    model = ReferenceModel.from_covariance(np.eye(3))
    cap = LinearCapital(weights=np.ones(3), level=3.0)
    with pytest.raises(InvalidInputError):
        grid_oracle(model, cap, ConstraintSet(), resolution=51,
                    x_bounds=(-3.0, 3.0), g_bounds=(0.0, 3.0))


def test_grid_oracle_returns_none_when_no_breach(identity_model):
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=100.0)
    out = grid_oracle(identity_model, cap, ConstraintSet(), resolution=51,
                      x_bounds=(-3.0, 3.0), g_bounds=(0.0, 3.0))
    assert out is None


def test_design_point_kkt_alignment(correlated_model):
    # with only the breach constraint active, the design point y* in
    # whitened space is a stationary point of |y|^2 on R(L y) = R*, so it
    # points along -grad_y R = -L^T grad R(s*)
    pf = make_portfolio(n=4, delta=0.8, eta=0.1, beta=(0.5,), gamma=(0.05,))
    rwa_0 = float(pf.ead @ risk_weight(pf.pd0, pf.lgd0, pf.rho, pf.maturity,
                                       LossQuantileSpec()))
    cap = make_credit_capital(pf, rwa_0=rwa_0, cet1_0=rwa_0, depletion=0.3)
    res = solve_design_point(correlated_model, cap, ConstraintSet(),
                             SolverConfig(seed=0, n_starts=4))
    assert res.active
    assert res.s_star[0] > 1e-3     # the g floor is not binding
    v = -correlated_model.chol.T @ cap.ratio_grad(res.s_star)
    cos = res.y_star @ v / (np.linalg.norm(res.y_star) * np.linalg.norm(v))
    assert cos >= 1.0 - 1e-6
