import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult, minimize

from georst import (ConstraintSet, CreditCapitalModel, Family,
                    InfeasibleError, InvalidInputError, LinearCapital,
                    LossQuantileSpec, ReferenceModel, SolverConfig,
                    conditional_anchor, grid_oracle, risk_weight,
                    solve_design_point)
from georst import solver
from georst.capital import breaches
from georst.runner import RunConfig, build_context
from georst.scenario_sets import default_g_grid
from georst.solver import (TOL_CONSTRAINT, _build_constraints, _feasible,
                           _frontier_t, _frontier_warm_start,
                           _polish_to_frontier, _solve_from)
from georst.transmission import monotonicity_rows, monotonicity_violation

from conftest import (CountingCapital, generate_toy_inputs,
                      make_credit_capital, make_portfolio,
                      make_sensitivities, portfolio_from_rows)
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
    sectors = {"a": make_sensitivities(delta=0.9, eta=0.12, beta=(0.8,),
                                       gamma=(0.08,), sector_id="a"),
               "b": make_sensitivities(delta=0.2, eta=0.0, beta=(-0.6,),
                                       gamma=(0.0,), sector_id="b")}
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
    """The reference: double t until point(t) breaches, then 40 halvings of
    the bracket from the last t that does not breach. Returns point(hi) and
    the final bracket width in t."""
    v = np.sqrt(np.diag(model.sigma)[1:])

    def point(t):
        return constraints.clip(np.concatenate([[g_j], t * v]))

    def breach(t):
        return breaches(capital.ratio(point(t)), capital.r_star)

    assert not breach(0.0)
    lo, hi = 0.0, 1.0
    while not breach(hi):
        lo, hi = hi, 2.0 * hi
        assert hi <= t_cap
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if breach(mid):
            hi = mid
        else:
            lo = mid
    return point(hi), hi - lo


@pytest.mark.parametrize("kind", ["linear", "credit"])
def test_frontier_warm_start_root_find(correlated_model, kind):
    if kind == "linear":
        cap = LinearCapital(weights=np.array([0.4, 1.0]), level=3.0)
    else:
        pf = make_portfolio(n=20, delta=0.9, beta=(0.8,), eta=0.12,
                            gamma=(0.08,), pd0=0.015, lgd0=0.4)
        cap = make_credit_capital(pf, cet1_0=6.0, rwa_0=50.0)
    cons = ConstraintSet()
    for g_j in (1e-6, 0.5, 1.2, 2.0):
        counting = CountingCapital(cap)
        s = _frontier_warm_start(correlated_model, counting, cons, g_j)
        # the start breaches, sits as close to the frontier as 40 halvings
        # put it, and costs a third of their R(s) calls or less
        assert s[0] == g_j
        assert breaches(cap.ratio(s), cap.r_star)
        ref, width = bisection_warm_start(correlated_model, cap, cons, g_j)
        assert abs(s[1] - ref[1]) <= width
        assert counting.calls <= 15


def test_frontier_t_stops_at_an_exact_root():
    # R equals r_star on a whole stretch of the ray, as it does at round-off
    # scale: regula falsi then keeps landing on hi and creeps down from it
    # in steps of half the width, so a bracket end with f = 0 ends the search
    calls = []

    def ratio_at(t):
        calls.append(t)
        assert len(calls) <= 50
        return max(1.0 - 2.0 * t, 0.0)

    assert _frontier_t(ratio_at, 0.0, 1.0, 1.0, 4096.0) == 1.0
    assert len(calls) == 1


def test_frontier_t_stops_at_the_round_off_floor():
    # a polish-scale ray: f is one ulp either side of a root at 3e-13, never
    # 0; the relative width hi 2^-41 alone takes 49 calls here
    r_star = 0.1
    ulp = np.spacing(r_star)
    calls = []

    def ratio_at(t):
        calls.append(t)
        return r_star + (ulp if t < 3e-13 else -ulp)

    hi = _frontier_t(ratio_at, r_star, r_star + ulp, 1e-12, 1.0)
    assert 3e-13 <= hi <= 3e-13 + 1e-15
    assert len(calls) <= 13


def test_frontier_t_gives_up_past_its_cap():
    calls = []

    def ratio_at(t):
        calls.append(t)
        return 1.0

    assert _frontier_t(ratio_at, 0.5, 1.0, 1.0, 100.0) is None
    assert calls == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]


def credit_fixture():
    pf = make_portfolio(n=20, delta=0.9, beta=(0.8,), eta=0.12,
                        gamma=(0.08,), pd0=0.015, lgd0=0.4)
    return make_credit_capital(pf, cet1_0=6.0, rwa_0=50.0)


def multi_start_anchor(model, capital, constraints, g_j, config,
                       warm_start=True):
    """The reference: the frontier warm start (unless warm_start is False)
    and max(6, n_starts // 4) - 1 random starts at g_j, every one solved,
    the feasible result with the lowest m^2 kept."""
    d = model.d
    cons = _build_constraints(model, capital, constraints, g_fixed=g_j)
    rng = np.random.default_rng(config.seed + 1)
    starts = [model.whiten(_frontier_warm_start(model, capital, constraints,
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
    for y0 in starts[0 if warm_start else 1:]:
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


def test_warm_start_anchor_matches_the_multi_start_solve(anchor_setup):
    model, cap, cons, config = anchor_setup
    for g_j in default_g_grid(model, cons):
        g_j = float(g_j)
        oracle = multi_start_anchor(model, cap, cons, g_j, config)
        anchor = conditional_anchor(model, cap, cons, g_j, config=config)
        assert anchor[0] == g_j
        assert cap.ratio(anchor) <= cap.r_star
        assert (model.mahalanobis_sq(anchor)
                <= model.mahalanobis_sq(oracle) * (1.0 + 1e-9))


def test_polish_near_the_frontier_is_short(anchor_setup):
    # iterates within 1e-12 of the frontier, on either side of it: the
    # polish, free or at fixed g, breaches within 10 R(s) calls
    model, cap, cons, config = anchor_setup
    counting = CountingCapital(cap)
    counting.ratio_grad = cap.ratio_grad
    rng = np.random.default_rng(0)
    for g_j in default_g_grid(model, cons)[::3]:
        s_f = conditional_anchor(model, cap, cons, float(g_j), config=config)
        y_f = model.whiten(s_f)
        up = model.chol.T @ cap.ratio_grad(s_f)
        for v in (up, rng.standard_normal(model.d)):
            for delta in (1e-12, 1e-14, 0.0):
                y = y_f + delta * v / np.linalg.norm(v)
                for g_fixed in (None, s_f[0]):
                    counting.calls = 0
                    s = _polish_to_frontier(model, counting, y, g_fixed)
                    assert counting.calls <= 10
                    assert cap.ratio(s) <= cap.r_star
                    assert g_fixed is None or s[0] == g_fixed


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


def test_feasible_warm_start_solve_is_the_only_solve(correlated_model,
                                                     counted_minimize):
    cap = credit_fixture()
    cons = ConstraintSet()
    for g_j in default_g_grid(correlated_model, cons):
        counted_minimize.clear()
        anchor = conditional_anchor(correlated_model, cap, cons, float(g_j),
                                    config=SolverConfig(seed=0))
        assert anchor is not None
        assert len(counted_minimize) == 1


def test_anchor_fallback_is_the_multi_start_solve(correlated_model,
                                                  counted_minimize,
                                                  monkeypatch):
    cap = credit_fixture()
    cons = ConstraintSet()
    config = SolverConfig(seed=0)
    grid = [float(g) for g in default_g_grid(correlated_model, cons)]
    expected = [multi_start_anchor(correlated_model, cap, cons, g_j, config,
                                   warm_start=False) for g_j in grid]
    # every candidate of the first solve (the warm start's) is infeasible
    feasible = solver._feasible
    monkeypatch.setattr(solver, "_feasible", lambda *args, **kwargs: (
        len(counted_minimize) > 1 and feasible(*args, **kwargs)))
    for g_j, want in zip(grid, expected):
        counted_minimize.clear()
        anchor = conditional_anchor(correlated_model, cap, cons, g_j,
                                    config=config)
        assert len(counted_minimize) == max(6, config.n_starts // 4)
        assert anchor.tobytes() == want.tobytes()


def test_design_point_stops_once_the_best_is_confirmed(correlated_model,
                                                      counted_minimize,
                                                      monkeypatch):
    # every sphere start reaches the one optimum: the first sets it, the
    # next CONFIRMATIONS re-find it, and no warm start is ever built
    def no_warm_start(*args):
        raise AssertionError("warm start built")

    monkeypatch.setattr(solver, "_frontier_warm_start", no_warm_start)
    res = solve_design_point(correlated_model, credit_fixture(),
                             ConstraintSet(), SolverConfig(seed=0))
    assert len(counted_minimize) == solver.CONFIRMATIONS + 1
    assert res.n_starts == solver.CONFIRMATIONS + 1
    assert len(res.local_optima) == 1


def test_feasible_design_point_makes_no_breach_probe(correlated_model,
                                                     monkeypatch):
    # the probe evaluates R(s) at the starts, before any solve, to tell an
    # infeasible problem from a non-converged one; a solve that finds an
    # optimum never reads it, so its first R(s) call is inside SLSQP
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
