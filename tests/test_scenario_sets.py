import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from georst import (ConstraintSet, Family, InvalidInputError, LinearCapital,
                    Membership, NearOptimalSpec, NeighbourhoodSpec,
                    ReferenceModel,
                    SolverConfig, TargetSet, build_pool, conditional_anchor,
                    driver_decomposition, hit_and_run, local_sample,
                    reduce_farthest_point, solve_design_point)
from georst.scenario_sets import (CandidatePool, PoolEntry,
                                  _farthest_point_indices, default_g_grid)

from conftest import CountingCapital, make_credit_capital, make_portfolio


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
    counting = CountingCapital(cap)
    mem = Membership(target, model, counting, res.s_star, spec)
    # the same set with every point breaching: its geometric tests alone
    geometry = Membership(target, model,
                          CountingCapital(cap, ratio=lambda s: -np.inf),
                          res.s_star, spec)
    # a breaching point far outside the set costs no R(s) call
    assert cap.breach(np.array([6.0, 6.0]))
    assert not mem(np.array([6.0, 6.0]))
    assert counting.calls == 0
    axis = np.linspace(-1.0, 5.0, 25)
    inside = 0
    for g in axis:
        for x in axis:
            s = np.array([g, x])
            # ratio first, then geometry: the order before the change
            old = cap.breach(s) and geometry(s)
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
                                 max_size=2), min_size=1, max_size=40))
def test_membership_many_equals_the_oracle_row_by_row(correlated_half_planes,
                                                      case, offsets):
    # both families, both targets; non-finite rows are not members
    model, cap, s_star = correlated_half_planes[case]
    S = np.vstack([s_star + np.array(offsets), NON_FINITE_ROWS])
    for target, spec in ((TargetSet.NEAR_OPTIMAL, NearOptimalSpec(2.0)),
                         (TargetSet.NEIGHBOURHOOD, NeighbourhoodSpec(1.0))):
        mem = Membership(target, model, cap, s_star, spec)
        many = mem.many(S)
        assert many.dtype == bool
        assert many.tolist() == [mem(s) for s in S]
        assert not many[-len(NON_FINITE_ROWS):].any()
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
    """The accepted draws of local_sample as one membership call per draw,
    in draw order: the sampler before it tested its draws as one block."""
    rng = np.random.default_rng(seed)
    y_anchor = model.whiten(anchor)
    accepted = []
    for _ in range(n):
        u = rng.standard_normal(model.d)
        u /= max(np.linalg.norm(u), 1e-12)
        r = rng.uniform(*radius_interval)
        s = model.unwhiten(y_anchor + r * u)
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
    lst = reduce_farthest_point(identity_model, pool, np.zeros(2), P=3)
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
        lst = reduce_farthest_point(identity_model, pool, s_star, P=6)
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


def test_reduce_rejects_oversized_list(half_plane):
    model, cap, res = half_plane
    pool = CandidatePool(target=TargetSet.NEIGHBOURHOOD, entries=[])
    with pytest.raises(InvalidInputError):
        reduce_farthest_point(model, pool, res.s_star, P=2)


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
    cons = ConstraintSet()
    mem = Membership(TargetSet.NEAR_OPTIMAL, model, cap, res.s_star,
                     NearOptimalSpec(epsilon=2.0))
    pool = build_pool(model, cap, cons, SolverConfig(seed=0), mem, res,
                      n_target=300, seed=0)
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
        anchor = conditional_anchor(model, cap, cons, float(g_j),
                                    config=SolverConfig(seed=0))
        assert anchor is not None
        assert anchor[0] == g_j
        assert cap.ratio(anchor) <= cap.r_star


def test_build_pool_keeps_every_grid_anchor_inside_the_set(half_plane):
    model, cap, res = half_plane
    cons = ConstraintSet()
    eps = 2.0
    mem = Membership(TargetSet.NEAR_OPTIMAL, model, cap, res.s_star,
                     NearOptimalSpec(epsilon=eps))
    pool = build_pool(model, cap, cons, SolverConfig(seed=0), mem, res,
                      n_target=300, seed=0)
    origins = {entry.origin for entry in pool.entries}
    inside = 0
    for g_j in default_g_grid(model, cons):
        anchor = conditional_anchor(model, cap, cons, float(g_j),
                                    config=SolverConfig(seed=0))
        if model.mahalanobis_sq(anchor) <= res.mahalanobis_sq + eps:
            inside += 1
            assert f"grid_anchor({g_j:g})" in origins
    assert inside >= 3
