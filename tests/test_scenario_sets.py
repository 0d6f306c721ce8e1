import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from georst import (ConstraintSet, CreditCapitalModel, Family,
                    InvalidInputError, LinearCapital,
                    Membership, NearOptimalSpec, NeighbourhoodSpec,
                    ReferenceModel,
                    SolverConfig, TargetSet, build_pool, conditional_anchor,
                    driver_decomposition, hit_and_run, local_sample,
                    reduce_farthest_point, solve_design_point)
from georst import scenario_sets
from georst.capital import breaches
from georst.runner import RunConfig, build_context, run_scenario_list
from georst.scenario_sets import (CandidatePool, PoolEntry,
                                  _farthest_point_indices, _pool_radius,
                                  default_g_grid)

from conftest import (CountingCapital, generate_toy_inputs,
                      make_credit_capital, make_portfolio)


@pytest.fixture
def half_plane(identity_model):
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    res = solve_design_point(identity_model, cap, ConstraintSet(),
                             SolverConfig(seed=0))
    return identity_model, cap, res


def test_neighbourhood_membership(half_plane):
    model, cap, res = half_plane
    mem = Membership(TargetSet.NEIGHBOURHOOD, model, cap, res.s_star,
                     NeighbourhoodSpec(radius_eta=1.0))
    assert mem(res.s_star)
    assert mem(np.array([2.5, 2.0]))        # breach, within the ball
    assert not mem(np.array([1.0, 1.0]))    # no breach
    assert not mem(np.array([5.0, 5.0]))    # breach but outside the ball
    # boundary of the ball is inclusive
    assert mem(res.s_star + np.array([1.0, 0.0]))


@pytest.mark.parametrize("target,spec", [
    (TargetSet.NEIGHBOURHOOD, NeighbourhoodSpec(radius_eta=1.0)),
    (TargetSet.NEAR_OPTIMAL, NearOptimalSpec(epsilon=2.0))])
def test_membership_tests_geometry_before_ratio(half_plane, target, spec):
    model, cap, res = half_plane
    # the same set with every point breaching: its geometric and region
    # tests alone
    always = CountingCapital(cap, ratio=lambda s: -np.inf)
    for region in (None, ConstraintSet(g_max=2.2)):
        counting = CountingCapital(cap)
        mem = Membership(target, model, counting, res.s_star, spec, region)
        geometry = Membership(target, model, always, res.s_star, spec, region)
        # a breaching point far outside the set costs no R(s) call
        assert breaches(cap.ratio(np.array([6.0, 6.0])), cap.r_star)
        assert not mem(np.array([6.0, 6.0]))
        # nor does a breaching point of the set's geometry outside the region
        if region is not None:
            s = np.array([2.3, 2.0])
            assert breaches(cap.ratio(s), cap.r_star)
            assert not region.satisfied(s)
            assert Membership(target, model, always, res.s_star, spec)(s)
            assert not mem(s)
        assert counting.calls == 0
        axis = np.linspace(-1.0, 5.0, 25)
        inside = 0
        for g in axis:
            for x in axis:
                s = np.array([g, x])
                # ratio first, then geometry: the order before the change
                old = breaches(cap.ratio(s), cap.r_star) and geometry(s)
                assert mem(s) == old
                inside += geometry(s)
        assert 0 < inside < axis.size ** 2
        assert counting.calls == inside


@pytest.fixture(scope="module")
def correlated_half_planes():
    """A Gaussian and a Student-t model with the same covariance, each with
    the design point of one half-plane breach set."""
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    out = []
    for family, nu in ((Family.GAUSSIAN, None), (Family.STUDENT_T, 5.0)):
        model = ReferenceModel.from_covariance(
            np.array([[1.0, 0.5], [0.5, 1.0]]), family=family, nu=nu)
        res = solve_design_point(model, cap, ConstraintSet(),
                                 SolverConfig(seed=0, n_starts=4))
        out.append((model, cap, res.s_star))
    return out


@settings(max_examples=100, deadline=None)
@given(case=st.integers(0, 1),
       offset=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       levels=st.lists(st.floats(0.0, 20.0, exclude_min=True), min_size=2,
                       max_size=2))
def test_membership_is_monotone_in_its_level(correlated_half_planes, case,
                                             offset, levels):
    # N_eps is contained in N_eps' and S_eta in S_eta' whenever
    # eps <= eps' and eta <= eta'
    model, cap, s_star = correlated_half_planes[case]
    s = s_star + np.array(offset)
    small, large = sorted(levels)
    for target, spec in ((TargetSet.NEAR_OPTIMAL, NearOptimalSpec),
                         (TargetSet.NEIGHBOURHOOD, NeighbourhoodSpec)):
        inner, outer = (Membership(target, model, cap, s_star, spec(level))
                        for level in (small, large))
        assert not inner(s) or outer(s)


NON_FINITE_ROWS = [[np.nan, 0.0], [np.inf, 1.0], [0.5, -np.inf]]


@settings(max_examples=100, deadline=None)
@given(case=st.integers(0, 1),
       offsets=st.lists(st.lists(st.floats(-3.0, 3.0), min_size=2,
                                 max_size=2), min_size=1, max_size=40),
       box=st.lists(st.floats(0.1, 3.0), min_size=4, max_size=4))
def test_membership_many_equals_the_oracle_row_by_row(correlated_half_planes,
                                                      case, offsets, box):
    # both families, both targets, the default region and a drawn box
    # around s*; non-finite rows are not members
    model, cap, s_star = correlated_half_planes[case]
    S = np.vstack([s_star + np.array(offsets), NON_FINITE_ROWS])
    g_lo, g_hi, x_lo, x_hi = box
    drawn = ConstraintSet(g_min=max(s_star[0] - g_lo, 1e-6),
                          g_max=s_star[0] + g_hi, x_min=s_star[1] - x_lo,
                          x_max=s_star[1] + x_hi)
    for region in (None, drawn):
        for target, spec in ((TargetSet.NEAR_OPTIMAL, NearOptimalSpec(2.0)),
                             (TargetSet.NEIGHBOURHOOD, NeighbourhoodSpec(1.0))):
            mem = Membership(target, model, cap, s_star, spec, region)
            many = mem.many(S)
            assert many.dtype == bool
            assert many.tolist() == [mem(s) for s in S]
            assert not many[-len(NON_FINITE_ROWS):].any()
            assert mem.constraints.satisfied(S[many]).all()
    # the squared norm behind both tests: each row's value, bit for bit,
    # does not depend on the block it sits in
    finite = S[:-len(NON_FINITE_ROWS)]
    assert model.mahalanobis_sq(finite).tobytes() == np.array(
        [model.mahalanobis_sq(row) for row in finite]).tobytes()


def test_membership_many_rejects_a_misshapen_block(half_plane):
    model, cap, res = half_plane
    mem = Membership(TargetSet.NEIGHBOURHOOD, model, cap, res.s_star,
                     NeighbourhoodSpec(radius_eta=1.0))
    assert mem.many(np.empty((0, 2))).shape == (0,)
    assert not mem(np.array([2.0, 2.0, 0.0]))
    with pytest.raises(InvalidInputError):
        mem.many(res.s_star)
    with pytest.raises(InvalidInputError):
        mem.many(np.zeros((3, 3)))


def test_near_optimal_membership(half_plane):
    model, cap, res = half_plane
    mem = Membership(TargetSet.NEAR_OPTIMAL, model, cap, res.s_star,
                     NearOptimalSpec(epsilon=2.0))
    assert mem(res.s_star)
    # Gaussian: membership is exactly d^2 <= d^2(s*) + epsilon on the
    # breach set
    assert mem(np.array([1.9, 2.2]))
    assert not mem(np.array([4.0, 4.0]))
    # negative g is excluded even when it breaches
    assert not mem(np.array([-0.5, 5.0]))


def test_near_optimal_epsilon_zero_pins_design_point(half_plane):
    model, cap, res = half_plane
    mem = Membership(TargetSet.NEAR_OPTIMAL, model, cap, res.s_star,
                     NearOptimalSpec(epsilon=0.0))
    assert mem(res.s_star)
    assert not mem(res.s_star + np.array([0.05, 0.05]))


def test_membership_spec_mismatch(half_plane):
    model, cap, res = half_plane
    with pytest.raises(InvalidInputError):
        Membership(TargetSet.NEIGHBOURHOOD, model, cap, res.s_star,
                   NearOptimalSpec(epsilon=1.0))


def test_local_sample_accepts_only_members(half_plane):
    model, cap, res = half_plane
    mem = Membership(TargetSet.NEIGHBOURHOOD, model, cap, res.s_star,
                     NeighbourhoodSpec(radius_eta=1.0))
    out = local_sample(model, res.s_star, (0.0, 1.0), 500, seed=1,
                       membership=mem)
    assert out.accepted
    assert not out.thin_region
    assert all(mem(s) for s in out.accepted)
    # roughly half of a centered ball around a frontier point is a breach
    assert 0.2 < out.acceptance_rate < 0.8


def per_draw_local_sample(model, anchor, radius_interval, n, seed,
                          membership):
    """The accepted draws of local_sample from the same block stream, each
    built on its own and tested with the one-row membership oracle, in
    draw order."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, model.d))
    radii = rng.uniform(*radius_interval, n)
    u /= np.maximum(np.linalg.norm(u, axis=1), 1e-12)[:, None]
    y_anchor = model.whiten(anchor)
    accepted = []
    for r, v in zip(radii, u):
        s = model.unwhiten(y_anchor + r * v)
        if membership(s):
            accepted.append(s)
    return accepted


@pytest.mark.parametrize("target,spec,radius", [
    (TargetSet.NEIGHBOURHOOD, NeighbourhoodSpec(radius_eta=1.0), 1.0),
    (TargetSet.NEAR_OPTIMAL, NearOptimalSpec(epsilon=1.0), 0.4)])
def test_local_sample_matches_the_per_draw_loop(correlated_model, target,
                                                spec, radius):
    pf = make_portfolio(n=20, delta=0.9, beta=(0.8,), eta=0.12,
                        gamma=(0.08,), pd0=0.015, lgd0=0.4)
    cap = make_credit_capital(pf, cet1_0=6.0, rwa_0=50.0)
    res = solve_design_point(correlated_model, cap, ConstraintSet(),
                             SolverConfig(seed=0))
    mem = Membership(target, correlated_model, cap, res.s_star, spec)
    for seed in (0, 1):
        out = local_sample(correlated_model, res.s_star, (0.0, radius), 300,
                           seed=seed, membership=mem)
        want = per_draw_local_sample(correlated_model, res.s_star,
                                     (0.0, radius), 300, seed, mem)
        assert 0 < len(want) < 300
        assert len(out.accepted) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(out.accepted, want))
        assert out.acceptance_rate == len(want) / 300


def test_local_sample_matches_the_per_draw_loop_at_d8_student_t():
    # the scenario-list-sector shape: d = 8 factors, a Student-t reference
    # and the near-optimal set at the pool's own sampling radius
    d = 8
    rng = np.random.default_rng(8)
    a = rng.standard_normal((d, d))
    model = ReferenceModel.from_covariance(
        a @ a.T / d + 0.5 * np.eye(d), family=Family.STUDENT_T, nu=6.0)
    pf = make_portfolio(n=16, delta=0.9, beta=tuple(rng.uniform(0.1, 0.6, 7)),
                        eta=0.12, gamma=tuple(rng.uniform(0.0, 0.05, 7)),
                        pd0=0.015, lgd0=0.4)
    cap = make_credit_capital(pf, cet1_0=6.0, rwa_0=50.0)
    res = solve_design_point(model, cap, ConstraintSet(),
                             SolverConfig(seed=0, n_starts=8))
    mem = Membership(TargetSet.NEAR_OPTIMAL, model, cap, res.s_star,
                     NearOptimalSpec(epsilon=1.0))
    radius = _pool_radius(mem)
    out = local_sample(model, res.s_star, (0.0, radius), 800, seed=3,
                       membership=mem)
    want = per_draw_local_sample(model, res.s_star, (0.0, radius), 800, 3,
                                 mem)
    assert 0 < len(want) < 800
    assert len(out.accepted) == len(want)
    assert all(u.tobytes() == v.tobytes() for u, v in zip(out.accepted, want))
    assert out.acceptance_rate == len(want) / 800


def test_local_sample_flags_thin_region(half_plane):
    model, cap, res = half_plane
    mem = Membership(TargetSet.NEAR_OPTIMAL, model, cap, res.s_star,
                     NearOptimalSpec(epsilon=1e-6))
    out = local_sample(model, res.s_star, (0.5, 1.0), 300, seed=2,
                       membership=mem)
    assert out.thin_region


def test_local_sample_rejects_non_member_anchor(half_plane):
    model, cap, res = half_plane
    mem = Membership(TargetSet.NEIGHBOURHOOD, model, cap, res.s_star,
                     NeighbourhoodSpec(radius_eta=1.0))
    with pytest.raises(InvalidInputError):
        local_sample(model, np.zeros(2), (0.0, 1.0), 10, seed=0,
                     membership=mem)


def test_local_sample_deterministic(half_plane):
    model, cap, res = half_plane
    mem = Membership(TargetSet.NEIGHBOURHOOD, model, cap, res.s_star,
                     NeighbourhoodSpec(radius_eta=1.0))
    a = local_sample(model, res.s_star, (0.0, 1.0), 100, seed=3,
                     membership=mem)
    b = local_sample(model, res.s_star, (0.0, 1.0), 100, seed=3,
                     membership=mem)
    assert len(a.accepted) == len(b.accepted)
    for u, v in zip(a.accepted, b.accepted):
        assert np.array_equal(u, v)


def test_hit_and_run_stays_in_set(half_plane):
    model, cap, res = half_plane
    mem = Membership(TargetSet.NEIGHBOURHOOD, model, cap, res.s_star,
                     NeighbourhoodSpec(radius_eta=2.0))
    chain = hit_and_run(model, res.s_star, 200, seed=4, membership=mem)
    assert len(chain) == 200
    assert all(mem(s) for s in chain)
    # the walk actually moves
    assert np.linalg.norm(chain[-1] - chain[0]) > 1e-3


def test_hit_and_run_box_membership(identity_model):
    # membership = unit box: the sampler fills it roughly uniformly
    lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])

    def in_box(s):
        return bool(np.all(s >= lo) and np.all(s <= hi))

    chain = hit_and_run(identity_model, np.array([0.5, 0.5]), 2000, seed=5,
                        membership=in_box)
    pts = np.vstack(chain)
    assert np.all(pts >= 0.0) and np.all(pts <= 1.0)
    assert pts.mean(axis=0) == pytest.approx([0.5, 0.5], abs=0.08)


def test_hit_and_run_stays_in_a_binding_region(half_plane):
    # x_max = 1 cuts the ball around the design point (2, 2) of the
    # unconstrained problem: the region binds the set and the design point
    model, cap, _ = half_plane
    region = ConstraintSet(x_max=1.0)
    res = solve_design_point(model, cap, region, SolverConfig(seed=0))
    assert res.s_star[1] == pytest.approx(1.0, abs=1e-6)
    for target, spec in ((TargetSet.NEIGHBOURHOOD,
                          NeighbourhoodSpec(radius_eta=2.0)),
                         (TargetSet.NEAR_OPTIMAL,
                          NearOptimalSpec(epsilon=2.0))):
        mem = Membership(target, model, cap, res.s_star, spec, region)
        chain = hit_and_run(model, res.s_star, 200, seed=7, membership=mem)
        assert all(mem(s) for s in chain)
        pts = np.vstack(chain)
        assert len(np.unique(pts, axis=0)) > 100
        assert np.ptp(pts, axis=0).min() > 0.1


def unit_triangle(s):
    """The triangle x + y >= 1 in the unit box: area 1/2, mean (2/3, 2/3)."""
    return bool(np.all((s >= 0.0) & (s <= 1.0)) and s[0] + s[1] >= 1.0)


def test_hit_and_run_is_uniform_on_a_triangle(identity_model):
    # 4 x 4 cells of the unit box: those above the anti-diagonal hold 1/8
    # of the triangle, those it crosses 1/16 and those below it none. The
    # chain's draws are correlated: over seeds 0-7 the worst cell is off by
    # 4-12 % and the mean by at most 0.011, while a window centred on the
    # current point, 1 unit wide, is off by over 24 %
    n = 20_000
    pts = np.vstack(hit_and_run(identity_model, np.array([0.75, 0.75]), n,
                                seed=0, membership=unit_triangle))
    cells = np.minimum((pts * 4).astype(int), 3)
    counts = np.zeros((4, 4))
    np.add.at(counts, (cells[:, 0], cells[:, 1]), 1)
    i, j = np.indices((4, 4))
    area = np.select([i + j >= 4, i + j == 3], [1 / 8, 1 / 16], 0.0)
    assert counts[area == 0].sum() == 0
    inside = area > 0
    assert np.abs(counts[inside] / (n * area[inside]) - 1.0).max() < 0.2
    assert pts.mean(axis=0) == pytest.approx([2 / 3, 2 / 3], abs=0.02)


def test_hit_and_run_costs_a_few_membership_calls_per_step(identity_model):
    calls = 0

    def counted(s):
        nonlocal calls
        calls += 1
        return unit_triangle(s)

    n = 2_000
    hit_and_run(identity_model, np.array([0.75, 0.75]), n, seed=12,
                membership=counted)
    assert calls / n <= 10


def test_hit_and_run_warns_on_degenerate_region(half_plane):
    model, cap, res = half_plane

    def only_start(s):
        return bool(np.linalg.norm(s - res.s_star) < 1e-12)

    with pytest.warns(RuntimeWarning):
        hit_and_run(model, res.s_star, 20, seed=6, membership=only_start)


def test_farthest_point_hand_trace(identity_model):
    # pool values {0, 1, 2, 10} along one axis, design point at 0:
    # the 3-entry list is [0, 10, 2] exactly
    pool = CandidatePool(
        target=TargetSet.NEIGHBOURHOOD,
        entries=[PoolEntry(s=np.array([v, 0.0]), origin="local_draw")
                 for v in (0.0, 1.0, 2.0, 10.0)])
    lst = reduce_farthest_point(identity_model, pool, np.zeros(2), P=3,
                                capital=LinearCapital(np.ones(2)))
    assert [float(e.s[0]) for e in lst.entries] == [0.0, 10.0, 2.0]
    # the maximin picks alone, seeded at the design point, are 10 then 2
    Y = np.array([[0.0], [1.0], [2.0], [10.0]])
    idx = _farthest_point_indices(Y, np.array([0.0]), 2)
    assert [float(Y[i][0]) for i in idx] == [10.0, 2.0]


def test_farthest_point_shuffle_invariance(identity_model):
    rng = np.random.default_rng(8)
    pts = rng.uniform(-3.0, 3.0, size=(40, 2))
    s_star = np.array([0.0, 0.0])
    reference = None
    for _ in range(100):
        perm = rng.permutation(len(pts))
        pool = CandidatePool(
            target=TargetSet.NEIGHBOURHOOD,
            entries=[PoolEntry(s=pts[i], origin="local_draw") for i in perm])
        lst = reduce_farthest_point(identity_model, pool, s_star, P=6,
                                    capital=LinearCapital(np.ones(2)))
        coords = np.vstack([e.s for e in lst.entries])
        if reference is None:
            reference = coords
        else:
            assert np.array_equal(coords, reference)


def test_reduce_puts_design_point_first(half_plane):
    model, cap, res = half_plane
    pool = CandidatePool(
        target=TargetSet.NEIGHBOURHOOD,
        entries=[PoolEntry(s=np.array([2.5, 2.0]), origin="local_draw"),
                 PoolEntry(s=np.array([2.0, 2.6]), origin="local_draw")])
    lst = reduce_farthest_point(model, pool, res.s_star, P=3, capital=cap)
    assert lst.entries[0].s == pytest.approx(res.s_star)
    assert lst.entries[0].ratio == pytest.approx(cap.r_star, abs=1e-6)
    assert len(lst) == 3


@pytest.mark.parametrize("rwa_0", [50.0, 1e7])
def test_reduce_evaluates_the_list_in_one_kernel_pass(correlated_model,
                                                       monkeypatch, rwa_0):
    # the listed scenarios' R(s) come from one ratio_many block, each equal
    # bit for bit to its own ratio call, with the same RWA-floor hits; at
    # rwa_0 = 1e7 every scenario is held at the floor
    pf = make_portfolio(n=20, delta=0.9, beta=(0.8,), eta=0.12,
                        gamma=(0.08,), pd0=0.015, lgd0=0.4)
    cap = make_credit_capital(pf, cet1_0=6.0, rwa_0=rwa_0)
    rng = np.random.default_rng(5)
    pool = CandidatePool(
        target=TargetSet.NEIGHBOURHOOD,
        entries=[PoolEntry(s=s, origin="local_draw")
                 for s in rng.standard_normal((30, 2))])
    passes = []
    kernel = CreditCapitalModel._kernel

    def counting_kernel(self, arr):
        passes.append(arr.shape)
        return kernel(self, arr)

    monkeypatch.setattr(CreditCapitalModel, "_kernel", counting_kernel)
    lst = reduce_farthest_point(correlated_model, pool, np.zeros(2), P=6,
                                capital=cap)
    assert passes == [(6, 2)]
    hits, cap.rwa_floor_hits = cap.rwa_floor_hits, 0
    assert all(e.ratio == cap.ratio(e.s) for e in lst.entries)
    assert cap.rwa_floor_hits == hits
    assert hits == (6 if rwa_0 > 1e6 else 0)


def test_reduce_rejects_oversized_list(half_plane):
    model, cap, res = half_plane
    pool = CandidatePool(target=TargetSet.NEIGHBOURHOOD, entries=[])
    with pytest.raises(InvalidInputError):
        reduce_farthest_point(model, pool, res.s_star, P=2, capital=cap)


def test_driver_decomposition_orders_by_magnitude(correlated_model):
    drivers = driver_decomposition(correlated_model, np.array([1.0, -2.0]),
                                   k=2)
    y = correlated_model.whiten(np.array([1.0, -2.0]))
    assert len(drivers) == 2
    assert drivers[0].magnitude >= drivers[1].magnitude
    assert drivers[0].magnitude == pytest.approx(np.max(np.abs(y)))
    signs = {d.factor: d.sign for d in drivers}
    assert signs["g"] == 1
    assert signs["x1"] == -1


def test_build_pool_members_all_pass_membership(half_plane):
    model, cap, res = half_plane
    mem = Membership(TargetSet.NEAR_OPTIMAL, model, cap, res.s_star,
                     NearOptimalSpec(epsilon=2.0))
    pool = build_pool(mem, res, n_target=300, seed=0)
    assert len(pool) >= 100
    assert all(mem(entry.s) for entry in pool.entries)
    origins = {entry.origin.split("(")[0] for entry in pool.entries}
    assert "anchor" in origins or "grid_anchor" in origins


def test_default_g_grid_spans_floor_to_cap(identity_model):
    grid = default_g_grid(identity_model, ConstraintSet())
    assert len(grid) == 8
    assert grid[0] == pytest.approx(1e-6)
    assert grid[-1] == pytest.approx(3.090232, abs=1e-5)


def _ulps_above(value, n):
    for _ in range(n):
        value = np.nextafter(value, np.inf)
    return value


def test_membership_boundary_inclusive_off_round_design_point(identity_model):
    # s* a few ulps above (2, 2): boundary points built from it by float
    # addition are members of both targets; points 1e-9 outside in d^2 are not
    cap = LinearCapital(weights=np.array([1.0, 1.0]), level=4.0)
    s_star = np.array([_ulps_above(2.0, 3), _ulps_above(2.0, 5)])
    ball = Membership(TargetSet.NEIGHBOURHOOD, identity_model, cap, s_star,
                      NeighbourhoodSpec(radius_eta=1.0))
    for step in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [0.8, 0.6]):
        step = np.array(step)
        assert ball(s_star + step)
        assert not ball(s_star + np.sqrt(1.0 + 1e-9) * step)
    # d^2(s) = d^2(s*) + 5 on (3, 2) and (2, 3), both well inside the breach
    near = Membership(TargetSet.NEAR_OPTIMAL, identity_model, cap, s_star,
                      NearOptimalSpec(epsilon=5.0))
    for step in ([1.0, 0.0], [0.0, 1.0]):
        s = s_star + np.array(step)
        assert near(s)
        m2 = identity_model.mahalanobis_sq(s)
        assert not near(s * np.sqrt((m2 + 1e-9) / m2))
    # the same points as one block give the same answers
    steps = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [0.8, 0.6]])
    S = np.vstack([s_star + steps, s_star + np.sqrt(1.0 + 1e-9) * steps])
    assert ball.many(S).tolist() == [True] * 4 + [False] * 4
    S = s_star + steps[:2]
    m2 = np.array([identity_model.mahalanobis_sq(s) for s in S])
    S = np.vstack([S, S * np.sqrt((m2 + 1e-9) / m2)[:, None]])
    assert near.many(S).tolist() == [True] * 2 + [False] * 2


def test_conditional_anchors_pass_the_breach_test(half_plane):
    model, cap, _ = half_plane
    cons = ConstraintSet()
    for g_j in default_g_grid(model, cons):
        anchor = conditional_anchor(model, cap, cons, float(g_j))
        assert anchor is not None
        assert anchor[0] == g_j
        assert cap.ratio(anchor) <= cap.r_star


def test_build_pool_keeps_every_grid_anchor_inside_the_set(half_plane):
    model, cap, res = half_plane
    cons = ConstraintSet()
    eps = 2.0
    mem = Membership(TargetSet.NEAR_OPTIMAL, model, cap, res.s_star,
                     NearOptimalSpec(epsilon=eps))
    pool = build_pool(mem, res, n_target=300, seed=0)
    origins = {entry.origin for entry in pool.entries}
    inside = 0
    for g_j in default_g_grid(model, cons):
        anchor = conditional_anchor(model, cap, cons, float(g_j))
        if model.mahalanobis_sq(anchor) <= res.mahalanobis_sq + eps:
            inside += 1
            assert f"grid_anchor({g_j:g})" in origins
    assert inside >= 3


@pytest.fixture
def counted_anchors(monkeypatch):
    """The g_j of each conditional anchor build_pool solves, in order."""
    solved = []

    def counting(model, capital, constraints, g_j):
        solved.append(g_j)
        return conditional_anchor(model, capital, constraints, g_j)

    monkeypatch.setattr(scenario_sets, "conditional_anchor", counting)
    return solved


def every_grid_anchor(mem, grid):
    """The reference: every grid point solved, and the g's of the anchors
    that exist and pass the membership test, in grid order."""
    admitted = []
    for g_j in grid:
        anchor = conditional_anchor(mem.model, mem.capital, mem.constraints,
                                    float(g_j))
        if anchor is not None and mem(anchor):
            admitted.append(g_j)
    return admitted


# h(g) = g^2 + (4 - g)^2 on the half-plane, convex with its minimum 8 at
# g* = 2; with epsilon 2 the anchors at g in [1, 3] are admitted
@pytest.mark.parametrize("grid, solves", [
    ([0.25, 0.5, 1.2, 1.6, 2.0, 2.4, 2.8, 3.5, 3.9], 7),
    ([2.4, 1.2, 2.4, 0.5, 0.25, 1.6, 3.5, 3.9], 6)])
def test_build_pool_walk_equals_solving_every_grid_point(half_plane,
                                                         counted_anchors,
                                                         grid, solves):
    model, cap, res = half_plane
    mem = Membership(TargetSet.NEAR_OPTIMAL, model, cap, res.s_star,
                     NearOptimalSpec(epsilon=2.0))
    admitted = every_grid_anchor(mem, grid)
    assert 0 < len(admitted) < len(grid)
    pool = build_pool(mem, res, g_grid=grid, n_target=100, seed=0)
    # the walk stops at the band ends: the outermost points are never solved
    assert len(counted_anchors) == solves
    assert min(grid) not in counted_anchors
    assert max(grid) not in counted_anchors
    # the pool of the grid cut to the admitted g's, whose anchors all pass
    want = build_pool(mem, res, g_grid=admitted, n_target=100, seed=0)
    assert ([e.origin for e in pool.entries]
            == [e.origin for e in want.entries])
    assert pool.scenarios.tobytes() == want.scenarios.tobytes()
    for g_j, entry in zip(admitted, pool.entries[1:]):
        anchor = conditional_anchor(model, cap, mem.constraints, float(g_j))
        assert entry.s.tobytes() == anchor.tobytes()


def test_build_pool_keeps_the_configured_grid_order(half_plane):
    # an unsorted grid with a duplicate: one anchor per admitted entry, in
    # the configured order; 0.25 lies beyond the band end
    model, cap, res = half_plane
    mem = Membership(TargetSet.NEAR_OPTIMAL, model, cap, res.s_star,
                     NearOptimalSpec(epsilon=2.0))
    pool = build_pool(mem, res, g_grid=[2.4, 1.2, 2.4, 0.25, 1.6],
                      n_target=50, seed=0)
    assert [e.origin for e in pool.entries if e.origin != "local_draw"] == [
        "anchor", "grid_anchor(2.4)", "grid_anchor(1.2)", "grid_anchor(2.4)",
        "grid_anchor(1.6)"]


@pytest.mark.parametrize("region, grid, bad", [
    (None, [1.6, 0.5, -1.0], -1.0),
    (ConstraintSet(g_max=3.2), [2.4, 2.9, 3.1, 3.9], 3.9)])
def test_build_pool_rejects_a_grid_entry_beyond_a_band_end(
        half_plane, counted_anchors, region, grid, bad):
    # the walk would stop before the entry; the range check runs first
    model, cap, res = half_plane
    mem = Membership(TargetSet.NEAR_OPTIMAL, model, cap, res.s_star,
                     NearOptimalSpec(epsilon=2.0), region)
    with pytest.raises(InvalidInputError,
                       match=rf"g_j={bad} outside the admissible range"):
        build_pool(mem, res, g_grid=grid, n_target=50)
    assert counted_anchors == []


def test_default_grid_solves_two_anchors_on_the_sector_inputs(
        tmp_path, counted_anchors):
    # g* = 2.592 lies above the default grid's end 2.475: the walk admits
    # the anchor at 2.475 and stops at the next one down, which fails
    config = generate_toy_inputs("scenario-list-sector", tmp_path)
    raw = json.loads(config.read_text())
    del raw["scenario_set"]["g_grid"]
    config.write_text(json.dumps(raw))
    ctx = build_context(RunConfig.from_file(config))
    run_scenario_list(ctx)
    grid = default_g_grid(ctx.model, ctx.constraints)
    assert counted_anchors == [grid[-1], grid[-2]]
