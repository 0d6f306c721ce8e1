import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult, minimize

from georst import (ConstraintSet, CreditCapitalModel, Family,
                    InfeasibleError, InvalidInputError, LinearCapital,
                    LossQuantileSpec, NonConvergenceError, ReferenceModel,
                    SolverConfig,
                    conditional_anchor, grid_oracle, risk_weight,
                    solve_design_point)
from georst import solver
from georst.capital import breaches
from georst.runner import RunConfig, build_context
from georst.scenario_sets import default_g_grid
from georst.solver import (TOL_CONSTRAINT, _build_constraints, _feasible,
                           _polish_to_frontier, _solve_from)
from georst.transmission import monotonicity_rows

from conftest import (CountingCapital, fd_grad, generate_inputs,
                      generate_toy_inputs, make_credit_capital, make_portfolio,
                      make_sensitivities, monotonicity_violation,
                      portfolio_from_rows, stack_sensitivities)
from test_acceptance import random_map_suite


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


def box_block(cons):
    """The linear block among _build_constraints' dicts, the box's finite
    bounds and the monotonicity rows, or None when it has no row."""
    blocks = [c for c in cons[1:] if c["type"] == "ineq"]
    assert len(blocks) <= 1
    return blocks[0] if blocks else None


quarters = st.integers(-16, 16).map(lambda k: k / 4.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_box_clip_satisfied_and_linear_block_agree(data, d, seed):
    # bounds and scenarios on a grid of quarters, so a scenario on a bound
    # is on it up to the round-off of s = L y, far inside TOL_CONSTRAINT
    g_min = data.draw(st.integers(1, 8)) / 4.0
    g_max = data.draw(st.none() | st.integers(1, 8).map(
        lambda k: g_min + k / 4.0))
    x_min = data.draw(st.none() | quarters
                      | st.lists(quarters, min_size=d - 1, max_size=d - 1))
    x_max = data.draw(st.none() | st.integers(1, 16).map(lambda k: k / 4.0))
    if x_max is not None:
        low = data.draw(quarters) if x_min is None else np.asarray(x_min)
        x_max = low + x_max
    box = ConstraintSet(g_min=g_min, g_max=g_max, x_min=x_min, x_max=x_max)
    # optional monotonicity rows on quarters too, so M s is a multiple of
    # 1/16 and never within round-off of -TOL_CONSTRAINT
    M = data.draw(st.none() | st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(quarters, min_size=d, max_size=d), min_size=k, max_size=k)))
    M = None if M is None else np.array(M)
    cons = ConstraintSet(g_min=g_min, g_max=g_max, x_min=x_min, x_max=x_max,
                         monotonicity=M)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    model = ReferenceModel.from_covariance(a @ a.T + 0.1 * np.eye(d))
    s = np.array(data.draw(st.lists(quarters, min_size=d, max_size=d)))
    assert box.satisfied(box.clip(s))

    y = model.whiten(s)
    s = model.chol @ y
    cap = LinearCapital(weights=np.ones(d), level=1.0)
    block = box_block(_build_constraints(model, cap, cons))
    assert block is not None    # g_min is always a finite bound
    assert (np.all(block["fun"](y) >= -TOL_CONSTRAINT)) == cons.satisfied(s)

    # with g fixed, g leaves the block for an equality and only x rows
    # and the monotonicity rows stay
    cons_g = _build_constraints(model, cap, cons, g_fixed=s[0])
    assert len(cons_g) <= 3
    assert [c["type"] for c in cons_g[:2]] == ["ineq", "eq"]
    assert cons_g[1]["fun"](y) == pytest.approx([0.0], abs=1e-12)
    lo, hi = cons.bounds(d)
    rows = [model.chol[i] for i in range(1, d) if np.isfinite(lo[i])]
    rows += [-model.chol[i] for i in range(1, d) if np.isfinite(hi[i])]
    if M is not None:
        rows += list(M @ model.chol)
    block = box_block(cons_g)
    if rows:
        assert np.array_equal(block["jac"](y), np.array(rows))
    else:
        assert block is None


def two_sector_capital():
    """Sector a is stressed by g and x; sector b's PD falls as x rises
    (beta < 0), so a breach driven by x improves sector b."""
    sectors = stack_sensitivities(
        make_sensitivities(delta=0.9, eta=0.12, beta=(0.8,), gamma=(0.08,),
                           sector_id="a"),
        make_sensitivities(delta=0.2, eta=0.0, beta=(-0.6,), gamma=(0.0,),
                           sector_id="b"))
    pf = portfolio_from_rows([(f"{k}{i}", k, 1.0, 0.03, 0.4, 0.2)
                              for k in "ab" for i in range(10)], sectors)
    return pf, make_credit_capital(pf, cet1_0=6.0, rwa_0=50.0)


def test_monotonicity_constraint_binds(correlated_model):
    pf, cap = two_sector_capital()
    config = SolverConfig(seed=0)
    free = solve_design_point(correlated_model, cap, ConstraintSet(), config)
    assert monotonicity_violation(pf, free.s_star) > 1e-3   # ~0.013
    cons = ConstraintSet(monotonicity=monotonicity_rows(pf))
    res = solve_design_point(correlated_model, cap, cons, config)
    assert monotonicity_violation(pf, res.s_star) <= TOL_CONSTRAINT
    assert res.mahalanobis_sq >= free.mahalanobis_sq
    assert breaches(cap.ratio(res.s_star), cap.r_star)
    # the flag that was ignored without a function is gone
    with pytest.raises(TypeError):
        ConstraintSet(enforce_monotonicity=True)


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


class FdGradient:
    """A capital map whose ratio_grad is central differences of its ratio:
    the reference path for the analytic gradient."""

    def __init__(self, inner):
        self.r0, self.r_star = inner.r0, inner.r_star
        self.ratio = inner.ratio

    def ratio_grad(self, s):
        return fd_grad(self.ratio, s)


def test_analytic_gradient_path_matches_finite_differences(correlated_model):
    pf = make_portfolio(n=20, delta=0.9, beta=(0.8,), eta=0.12,
                        gamma=(0.08,), pd0=0.015, lgd0=0.4)
    cap = make_credit_capital(pf, cet1_0=6.0, rwa_0=50.0)
    config = SolverConfig(seed=0, n_starts=12)
    analytic = solve_design_point(correlated_model, cap, ConstraintSet(),
                                  config)
    fd = solve_design_point(correlated_model, FdGradient(cap),
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


def test_grid_oracle_spans_the_constraints_box(correlated_model):
    cap = LinearCapital(weights=np.array([1.0, 0.5]), level=3.0)
    boxed = ConstraintSet(g_max=4.0, x_min=-3.0, x_max=3.0)
    out = grid_oracle(correlated_model, cap, boxed, resolution=41)
    given = grid_oracle(correlated_model, cap, ConstraintSet(), resolution=41,
                        x_bounds=(-3.0, 3.0), g_bounds=(boxed.g_min, 4.0))
    assert out.s.tobytes() == given.s.tobytes()
    assert out.cell_size == given.cell_size
    with pytest.raises(InvalidInputError):
        grid_oracle(correlated_model, cap, ConstraintSet(g_max=4.0),
                    resolution=41)


def test_grid_oracle_keeps_to_the_box_inside_wider_bounds(correlated_model):
    # explicit grid bounds wider than the box: the oracle's point lies in
    # the box, so its m^2 is not below the solver's (3, 1) with m^2 = 9.33;
    # a scan masked by g >= g_min alone returns (2, 2) with m^2 = 5.33
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    cons = ConstraintSet(x_max=1.0)
    res = solve_design_point(correlated_model, cap, cons, SolverConfig(seed=0))
    assert res.s_star == pytest.approx([3.0, 1.0], abs=1e-6)
    grid = grid_oracle(correlated_model, cap, cons, resolution=61,
                       g_bounds=(0.0, 4.0), x_bounds=(-4.0, 4.0))
    assert cons.satisfied(grid.s)
    assert grid.s[1] <= 1.0
    assert grid.mahalanobis_sq >= res.mahalanobis_sq


def test_constraint_set_tests_a_block_row_by_row():
    # the one row says s[1] - s[0] <= 0
    cons = ConstraintSet(g_max=2.0, x_min=-1.0,
                         monotonicity=np.array([[1.0, -1.0]]))
    S = np.array([[0.5, 0.25], [0.5, 0.75], [3.0, 0.0], [1.0, -2.0],
                  [1.0, 1.0 + 0.5 * TOL_CONSTRAINT]])
    many = cons.satisfied(S)
    assert many.tolist() == [cons.satisfied(s) for s in S]
    assert many.tolist() == [True, False, False, False, True]
    assert cons.satisfied(np.empty((0, 2))).shape == (0,)


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


def bisection_warm_start(model, capital, constraints, g_j, t_cap=4096.0):
    """A near-frontier start on the stress ray (g_j, t sigma_x), clipped to
    the box: the ray's origin when it breaches or when no t up to t_cap
    does; otherwise t doubles until point(t) breaches, and 40 halvings of
    the bracket from the last t that does not breach give point(hi)."""
    v = np.sqrt(np.diag(model.sigma)[1:])

    def point(t):
        return constraints.clip(np.concatenate([[g_j], t * v]))

    def breach(t):
        return breaches(capital.ratio(point(t)), capital.r_star)

    if breach(0.0):
        return point(0.0)
    lo, hi = 0.0, 1.0
    while not breach(hi):
        lo, hi = hi, 2.0 * hi
        if hi > t_cap:
            return point(0.0)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if breach(mid):
            hi = mid
        else:
            lo = mid
    return point(hi)


@pytest.mark.parametrize("g_fixed", [None, 0.7])
def test_polish_on_a_linear_map_is_the_newton_step(g_fixed):
    # R is affine, so the Newton step lands on the closed-form projection of
    # y onto the frontier hyperplane w . L y = level (at fixed g, with y_0
    # held). Round-off can leave that point a ulp short of breaching; one
    # doubling then lands on twice the step, which is within 1e-12 of the
    # projection only from a y that close to the frontier.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    model = ReferenceModel.from_covariance(a @ a.T + 0.1 * np.eye(4))
    w = rng.standard_normal(4)
    cap = LinearCapital(weights=w, level=2.0)
    counting = CountingCapital(cap)
    normal = model.chol.T @ w
    if g_fixed is not None:
        normal[0] = 0.0
    for trial in range(40):
        y = 3.0 * rng.standard_normal(4)
        s = model.unwhiten(y)
        if g_fixed is not None:
            s[0] = g_fixed
            y = model.whiten(s)
        to_frontier = (2.0 - w @ s) / (normal @ normal) * normal
        if trial % 2:
            # a y at most 5e-13 short of the frontier, as SLSQP leaves one
            short = rng.uniform(0.0, 5e-13) / np.linalg.norm(normal)
            y = y + to_frontier - short * normal
            s = model.unwhiten(y)
            to_frontier = (2.0 - w @ s) / (normal @ normal) * normal
        if breaches(cap.ratio(s), cap.r_star):
            continue
        projection = model.unwhiten(y + to_frontier)
        counting.calls = 0
        out = _polish_to_frontier(model, counting, y, g_fixed)
        assert counting.calls <= 3
        assert cap.ratio(out) <= cap.r_star
        assert g_fixed is None or out[0] == g_fixed
        doublings = counting.calls - 2
        assert np.abs(out - projection
                      - doublings * (projection - s)).max() <= 1e-12
        if trial % 2:
            assert np.abs(out - projection).max() <= 1e-12


def test_polish_gives_up_past_its_cap(identity_model):
    # R stays above r_star along the whole ray: one call at y, then the
    # Newton step and its 60 doublings, up to POLISH_GROWTH = 2^60 times it
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=2.0)
    counting = CountingCapital(cap, ratio=lambda s: cap.r0)
    assert _polish_to_frontier(identity_model, counting,
                               np.array([0.5, 0.5])) is None
    assert counting.calls == 1 + 61


def credit_fixture():
    pf = make_portfolio(n=20, delta=0.9, beta=(0.8,), eta=0.12,
                        gamma=(0.08,), pd0=0.015, lgd0=0.4)
    return make_credit_capital(pf, cet1_0=6.0, rwa_0=50.0)


def multi_start_anchor(model, capital, constraints, g_j, config):
    """The reference: the near-frontier start and max(6, n_starts // 4) - 1
    random starts at g_j, every one solved, the feasible result with the
    lowest m^2 kept."""
    d = model.d
    cons = _build_constraints(model, capital, constraints, g_fixed=g_j)
    rng = np.random.default_rng(config.seed + 1)
    starts = [model.whiten(bisection_warm_start(model, capital, constraints,
                                                g_j))]
    stds = np.sqrt(np.diag(model.sigma)[1:])
    radii = (1.0, 2.0, 3.0)
    for i in range(max(6, config.n_starts // 4) - 1):
        u = rng.standard_normal(d - 1)
        u /= max(np.linalg.norm(u), 1e-12)
        s = np.empty(d)
        s[0] = g_j
        s[1:] = radii[i % len(radii)] * u * stds
        starts.append(model.whiten(constraints.clip(s)))
    best = None
    for y0 in starts:
        res = _solve_from(y0, cons)
        if abs(model.unwhiten(res.x)[0] - g_j) > 1e-6 * max(1.0, abs(g_j)):
            continue
        s = _polish_to_frontier(model, capital, res.x, g_fixed=g_j)
        if s is None or not _feasible(capital, constraints, s):
            continue
        m2 = model.mahalanobis_sq(s)
        if best is None or m2 < best[0]:
            best = (m2, s)
    return None if best is None else best[1]


@pytest.fixture(params=["credit", "design-large-n", "scenario-list-sector"])
def anchor_setup(request, correlated_model, tmp_path):
    """(model, capital, constraints, solver config)."""
    if request.param == "credit":
        return (correlated_model, credit_fixture(), ConstraintSet(),
                SolverConfig(seed=0))
    ctx = build_context(RunConfig.from_file(
        generate_toy_inputs(request.param, tmp_path)))
    return ctx.model, ctx.capital, ctx.constraints, ctx.solver_config


def test_anchor_matches_the_multi_start_solve(anchor_setup):
    model, cap, cons, config = anchor_setup
    for g_j in default_g_grid(model, cons):
        g_j = float(g_j)
        oracle = multi_start_anchor(model, cap, cons, g_j, config)
        anchor = conditional_anchor(model, cap, cons, g_j)
        assert anchor[0] == g_j
        assert cap.ratio(anchor) <= cap.r_star
        assert (model.mahalanobis_sq(anchor)
                <= model.mahalanobis_sq(oracle) * (1.0 + 1e-9))


def test_polish_near_the_frontier_is_short(anchor_setup):
    # iterates within 1e-12 of the frontier, on either side of it: the
    # polish, free or at fixed g, breaches within 4 R(s) calls
    model, cap, cons, _ = anchor_setup
    counting = CountingCapital(cap)
    rng = np.random.default_rng(0)
    for g_j in default_g_grid(model, cons)[::3]:
        s_f = conditional_anchor(model, cap, cons, float(g_j))
        y_f = model.whiten(s_f)
        up = model.chol.T @ cap.ratio_grad(s_f)
        for v in (up, rng.standard_normal(model.d)):
            for delta in (1e-12, 1e-14, 0.0):
                y = y_f + delta * v / np.linalg.norm(v)
                for g_fixed in (None, s_f[0]):
                    counting.calls = 0
                    s = _polish_to_frontier(model, counting, y, g_fixed)
                    assert counting.calls <= 4
                    assert cap.ratio(s) <= cap.r_star
                    assert g_fixed is None or s[0] == g_fixed


def test_fixed_g_polish_reuses_the_kernel_pass_of_its_ratio(tmp_path,
                                                           monkeypatch):
    # ratio_grad at the s whose R(s) the polish just evaluated hits the
    # kernel's one-point memo; unwhiten(whiten(s)) lies a few ulps off s
    # on these inputs, so a gradient taken there costs one more pass
    ctx = build_context(RunConfig.from_file(
        generate_toy_inputs("scenario-list-sector", tmp_path)))
    model, cap = ctx.model, ctx.capital
    passes = []
    kernel = CreditCapitalModel._kernel

    def counting_kernel(self, arr):
        passes.append(1)
        return kernel(self, arr)

    monkeypatch.setattr(CreditCapitalModel, "_kernel", counting_kernel)
    counting = CountingCapital(cap)
    rng = np.random.default_rng(0)
    stepped = round_trip_off = 0
    for g_j in default_g_grid(model, ctx.constraints):
        y = 0.1 * rng.standard_normal(model.d)
        s = model.unwhiten(y)
        s[0] = g_j
        round_trip_off += not np.array_equal(model.unwhiten(model.whiten(s)), s)
        passes.clear()
        counting.calls = 0
        _polish_to_frontier(model, counting, y, g_fixed=float(g_j))
        stepped += counting.calls > 1
        assert len(passes) == counting.calls
    assert stepped and round_trip_off


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1),
       g_j=st.floats(0.0, 4.0), level=st.floats(0.1, 5.0))
def test_fixed_g_polish_keeps_g_and_breaches(d, seed, g_j, level):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    model = ReferenceModel.from_covariance(a @ a.T + 0.1 * np.eye(d))
    cap = LinearCapital(weights=rng.standard_normal(d), level=level)
    s = _polish_to_frontier(model, cap, rng.standard_normal(d), g_fixed=g_j)
    assert s[0] == g_j
    assert cap.ratio(s) <= cap.r_star


@pytest.fixture
def counted_minimize(monkeypatch):
    """Counts the SLSQP solves the solver module starts."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(solver, "minimize", counting)
    return calls


def test_feasible_anchor_solve_is_the_only_solve(correlated_model,
                                                 counted_minimize):
    cap = credit_fixture()
    cons = ConstraintSet()
    for g_j in default_g_grid(correlated_model, cons):
        counted_minimize.clear()
        anchor = conditional_anchor(correlated_model, cap, cons, float(g_j))
        assert anchor is not None
        assert len(counted_minimize) == 1


def test_anchor_makes_no_kernel_pass_before_its_solve(correlated_model,
                                                      monkeypatch):
    # the start (g_j, 0, ..., 0) costs no R(s) call: SLSQP makes the first
    events = []
    kernel = CreditCapitalModel._kernel
    solve_from = solver._solve_from

    def counting_kernel(self, arr):
        events.append("kernel")
        return kernel(self, arr)

    def marking_solve_from(*args):
        events.append("slsqp")
        return solve_from(*args)

    monkeypatch.setattr(CreditCapitalModel, "_kernel", counting_kernel)
    monkeypatch.setattr(solver, "_solve_from", marking_solve_from)
    cap = credit_fixture()
    cons = ConstraintSet()
    for g_j in default_g_grid(correlated_model, cons):
        events.clear()
        assert conditional_anchor(correlated_model, cap, cons,
                                  float(g_j)) is not None
        assert events[0] == "slsqp"
        assert events.count("slsqp") == 1


def test_an_anchor_that_does_not_exist_costs_one_solve(tmp_path,
                                                      counted_minimize):
    # with monotonicity no feasible x exists at g_min on the toy sector
    # inputs: the anchor's solve ends infeasible, and nothing else runs
    config = generate_toy_inputs("scenario-list-sector", tmp_path)
    raw = json.loads(config.read_text())
    raw["constraints"] = {"enforce_monotonicity": True}
    config.write_text(json.dumps(raw))
    ctx = build_context(RunConfig.from_file(config))
    counted_minimize.clear()
    assert conditional_anchor(ctx.model, ctx.capital, ctx.constraints,
                              ctx.constraints.g_min) is None
    assert len(counted_minimize) == 1


def test_design_point_stops_once_the_best_is_confirmed(correlated_model,
                                                      counted_minimize):
    # every sphere start reaches the one optimum: the first sets it, the
    # next CONFIRMATIONS re-find it, and no g-grid start is solved
    res = solve_design_point(correlated_model, credit_fixture(),
                             ConstraintSet(), SolverConfig(seed=0))
    assert len(counted_minimize) == solver.CONFIRMATIONS + 1
    assert res.n_starts == solver.CONFIRMATIONS + 1
    assert len(res.local_optima) == 1


def test_feasible_design_point_makes_no_breach_probe(correlated_model,
                                                     monkeypatch):
    # the probe evaluates R(s) at the solves' clipped ends to tell an
    # infeasible problem from a non-converged one; a solve that finds an
    # optimum never reads it, and no start costs an R(s) call, so the first
    # R(s) call is inside SLSQP
    events = []
    ratio = CreditCapitalModel.ratio
    solve_from = solver._solve_from

    def counting_ratio(self, s):
        events.append("ratio")
        return ratio(self, s)

    def marking_solve_from(*args):
        events.append("slsqp")
        return solve_from(*args)

    monkeypatch.setattr(CreditCapitalModel, "ratio", counting_ratio)
    monkeypatch.setattr(solver, "_solve_from", marking_solve_from)
    solve_design_point(correlated_model, credit_fixture(), ConstraintSet(),
                       SolverConfig(seed=0))
    assert events[0] == "slsqp"
    assert events.count("ratio") > 0


def test_a_start_that_does_not_confirm_resets_the_count(identity_model,
                                                        monkeypatch):
    # scripted start ends on the half-plane w . s >= 4: A is its design
    # point, B another breaching point, X does not breach; the second A
    # confirms, X and B reset the count, and the last two A's stop the solve
    a, b, x = [2.0 + 1e-9, 2.0 + 1e-9], [3.0, 3.0], [0.5, 0.5]
    ends = iter([a, a, x, a, b, a, a])
    monkeypatch.setattr(solver, "_solve_from", lambda y0, cons: (
        OptimizeResult(x=np.array(next(ends)))))
    monkeypatch.setattr(solver, "_polish_to_frontier", lambda *args: None)
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    res = solve_design_point(identity_model, cap, ConstraintSet(),
                             SolverConfig(seed=0))
    assert res.n_starts == 7
    assert res.s_star.tolist() == a


def test_a_breaching_end_outside_the_box_is_non_convergence(identity_model,
                                                            monkeypatch):
    # w . s >= 6 breaches and (3, 3) is feasible in the box x <= 4, but no
    # start breaches: the sphere's radius is at most 4 and the g-grid
    # starts sit at x = 0. Every solve is scripted to end at (2.5, 4.5),
    # which breaches outside the box; clipped to (2.5, 4) it still breaches,
    # so the solve did not converge, and the problem is not infeasible
    end = np.array([2.5, 4.5])
    monkeypatch.setattr(solver, "_solve_from", lambda y0, cons: (
        OptimizeResult(x=end.copy())))
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=6.0)
    cons = ConstraintSet(x_max=4.0)
    with pytest.raises(NonConvergenceError):
        solve_design_point(identity_model, cap, cons, SolverConfig(seed=0))


class TwoModeCapital:
    """R = r0 - slope max(w1 . s, w2 . s): the breach set is the union of
    two half-planes, with one local design point on each."""

    def __init__(self, w1, w2, level, r0=0.10, r_star=0.09):
        self.r0, self.r_star, self.level = r0, r_star, level
        self.w = np.array([w1, w2], dtype=float)
        self.slope = (r0 - r_star) / level

    def ratio(self, s):
        return float(self.ratio_many(np.asarray(s, dtype=float)[None, :])[0])

    def ratio_many(self, S):
        # last-axis sums, not a matmul, so ratio_many(S)[i] == ratio(S[i])
        S = np.asarray(S, dtype=float)
        severity = np.maximum((S * self.w[0]).sum(axis=-1),
                              (S * self.w[1]).sum(axis=-1))
        return self.r0 - self.slope * severity

    def ratio_grad(self, s):
        severities = self.w @ np.asarray(s, dtype=float)
        return -self.slope * self.w[np.argmax(severities)]


def test_synthetic_maps_ratio_grad_matches_finite_differences():
    # every capital map the tests hand the solver has an analytic gradient;
    # the points keep away from TwoModeCapital's kink w1 . s = w2 . s
    two_mode = TwoModeCapital([0.2, 1.0], [1.0, -0.6], level=3.0)
    maps = [*random_map_suite(seed=11), two_mode,
            CountingCapital(random_map_suite(n_maps=1, seed=12)[0]),
            CountingCapital(two_mode),
            LinearCapital(weights=np.array([0.4, 1.0]), level=3.0)]
    points = np.random.default_rng(5).uniform(-3.0, 3.0, size=(40, 2))
    points = points[np.abs(points @ (two_mode.w[0] - two_mode.w[1])) > 1e-3]
    for cap in maps:
        for s in points:
            fd = fd_grad(cap.ratio, s)
            assert np.allclose(cap.ratio_grad(s), fd, rtol=1e-6,
                               atol=1e-9 * cap.r0)


def test_early_stop_finds_the_global_of_two_modes(correlated_model):
    # the modes' closed forms s_i = level sigma w_i / (w_i' sigma w_i), m^2
    # = level^2 / (w_i' sigma w_i), both with g > 0 and each outside the
    # other half-plane; the first start lands on the worse one
    cap = TwoModeCapital([0.2, 1.0], [1.0, -0.6], level=3.0)
    sigma = correlated_model.sigma
    closed = [(cap.level ** 2 / (w @ sigma @ w),
               cap.level * sigma @ w / (w @ sigma @ w)) for w in cap.w]
    (m2_best, s_best), (m2_other, _) = sorted(closed, key=lambda c: c[0])
    assert m2_best < m2_other
    res = solve_design_point(correlated_model, cap, ConstraintSet(),
                             SolverConfig(seed=0))
    assert res.s_star == pytest.approx(s_best, abs=1e-6)
    assert res.mahalanobis_sq == pytest.approx(m2_best, rel=1e-9)
    assert [o.mahalanobis_sq for o in res.local_optima] == pytest.approx(
        [m2_best, m2_other], rel=1e-6)
    assert res.local_optima[1].start_index == 0
    assert res.n_starts < SolverConfig().n_starts


def test_early_stop_is_no_worse_than_the_full_schedule(monkeypatch):
    # 100 random smooth maps, some with two local optima: stopping early
    # never returns a worse design point than running every start
    model = ReferenceModel.from_covariance(np.array([[1.0, 0.2], [0.2, 1.0]]))
    maps = [cap for seed in range(10) for cap in random_map_suite(seed=seed)]

    def m2s():
        return [solve_design_point(model, cap, ConstraintSet(),
                                   SolverConfig(seed=0)).mahalanobis_sq
                for cap in maps]

    early = m2s()
    monkeypatch.setattr(solver, "CONFIRMATIONS", 10 ** 9)
    full = m2s()
    for e, f in zip(early, full):
        assert e <= f * (1.0 + 1e-9)


def test_conditional_anchor_rejects_g_above_g_max(identity_model):
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    cons = ConstraintSet(g_max=2.0)
    assert conditional_anchor(identity_model, cap, cons, 2.0) is not None
    for g_j in (2.5, np.inf, np.nan):
        with pytest.raises(InvalidInputError):
            conditional_anchor(identity_model, cap, cons, g_j)


def hlrf_design_point(model, capital, max_iter=200):
    """The reference: the Hasofer-Lind/Rackwitz-Fiessler iteration
    y <- (a . y - G(y)) / |a|^2 a, a = grad G(y), on G(y) = R(L y) - r_star
    in whitened space from y = 0, halving the step toward the new iterate
    while |G| grows. The fixed point is then scaled outward until it
    breaches."""
    L = model.chol

    def G(y):
        return capital.ratio(L @ y) - capital.r_star

    y = np.zeros(model.d)
    g_y = G(y)
    for _ in range(max_iter):
        a = L.T @ capital.ratio_grad(L @ y)
        target = (a @ y - g_y) / (a @ a) * a
        lam = 1.0
        while True:
            cand = y + lam * (target - y)
            g_c = G(cand)
            if abs(g_c) <= max(abs(g_y), 1e-15) or lam < 1e-3:
                break
            lam *= 0.5
        moved = np.linalg.norm(cand - y)
        y, g_y = cand, g_c
        if moved < 1e-12 * (1.0 + np.linalg.norm(y)):
            break
    else:
        raise AssertionError("HL-RF did not converge")
    for k in range(60):
        if breaches(capital.ratio(L @ y), capital.r_star):
            return L @ y
        y = y * (1.0 + 2.0 ** (k - 52))
    raise AssertionError("HL-RF point does not reach the breach set")


def test_design_point_matches_hlrf(correlated_model):
    cap = credit_fixture()
    s_hlrf = hlrf_design_point(correlated_model, cap)
    # the unconstrained FORM point satisfies the default constraints, so
    # the solver's constrained optimum can be no farther away
    assert s_hlrf[0] > ConstraintSet().g_min
    res = solve_design_point(correlated_model, cap, ConstraintSet(),
                             SolverConfig(seed=0))
    assert breaches(cap.ratio(res.s_star), cap.r_star)
    assert breaches(cap.ratio(s_hlrf), cap.r_star)
    assert (res.mahalanobis_sq
            <= correlated_model.mahalanobis_sq(s_hlrf) * (1.0 + 1e-9))


@pytest.fixture(scope="module")
def toy_anchor_solves(tmp_path_factory):
    """(SLSQP status of each solve, m^2 of each anchor) of the conditional
    anchors over the default g-grid on the toy design-large-n inputs."""
    ctx = build_context(RunConfig.from_file(generate_toy_inputs(
        "design-large-n", tmp_path_factory.mktemp("design-large-n"))))
    statuses, m2s = [], []

    def recording(*args, **kwargs):
        res = minimize(*args, **kwargs)
        statuses.append(res.status)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "minimize", recording)
        for g_j in default_g_grid(ctx.model, ctx.constraints):
            anchor = conditional_anchor(ctx.model, ctx.capital,
                                        ctx.constraints, float(g_j))
            m2s.append(ctx.model.mahalanobis_sq(anchor))
    return statuses, m2s


def test_anchor_solves_end_converged(toy_anchor_solves):
    # with an ftol below a few ulps of f = m^2 / 2 (m^2 up to ~398 here),
    # SLSQP kept iterating on round-off until its line search failed
    # (status 8) on some of these anchors
    statuses, m2s = toy_anchor_solves
    assert len(statuses) == len(m2s)
    assert statuses == [0] * len(statuses)


def test_slsqp_ftol_is_at_least_eight_ulps_of_the_objective(
        toy_anchor_solves):
    _, m2s = toy_anchor_solves
    assert max(m2s) > 300.0
    for m2 in m2s:
        assert solver.SLSQP_FTOL >= 8 * np.spacing(0.5 * m2)
    # and for every f = m^2 / 2 below 1024, whose ulp is at most 2^-43
    assert solver.SLSQP_FTOL >= 8 * np.spacing(np.nextafter(1024.0, 0.0))


COUNT_DESIGN_POINT_PASSES = """
import sys
from georst.capital import CreditCapitalModel
from georst.runner import RunConfig, build_context
from georst.solver import solve_design_point

counts = {"passes": 0, "rows": 0}
kernel = CreditCapitalModel._kernel

def counting(self, arr):
    if arr.ndim == 1:
        counts["passes"] += 1
    else:
        counts["rows"] += len(arr)
    return kernel(self, arr)

CreditCapitalModel._kernel = counting
ctx = build_context(RunConfig.from_file(sys.argv[1]))
counts.update(passes=0, rows=0)
solve_design_point(ctx.model, ctx.capital, ctx.constraints, ctx.solver_config)
print(counts["passes"], counts["rows"])
"""


def test_full_size_design_point_kernel_passes(tmp_path):
    # the one-point R(s) passes of the full-size design-large-n design point
    # (seed 0); ratio_many rows are counted apart. The process pins BLAS to
    # one thread, as the benchmark does: SciPy's SLSQP links its own
    # OpenBLAS, whose thread count changes SLSQP's iterates, and so the
    # count.
    config = generate_inputs("design-large-n", tmp_path, toy=False)
    src = str(Path(solver.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS"), "1"))
    out = subprocess.run(
        [sys.executable, "-c", COUNT_DESIGN_POINT_PASSES, str(config)],
        env=env, check=True, capture_output=True, text=True).stdout
    passes, rows = map(int, out.split())
    assert passes <= 23, (passes, rows)
