"""Set-valued reverse-stress outputs.

Membership tests for the local neighbourhood and the near-optimal set,
candidate-pool construction (local sphere draws with a hit-and-run fallback
for thin regions), farthest-point reduction to a short scenario list, and
driver decomposition in whitened coordinates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .capital import breaches
from .errors import InfeasibleError, InvalidInputError
from .reference import ReferenceModel, as_scenarios
from .solver import ConstraintSet, conditional_anchor, _g_cap

THIN_REGION_RATE = 0.01
SLICE_WIDTH = 8.0       # hit-and-run's window on each line, whitened units
N_GRID_POINTS = 8       # points of the default conditional-anchor g grid
DEFAULT_POOL_SIZE = 2000
DEFAULT_LIST_SIZE = 8
DEFAULT_TOP_K = 3
# round-off slack of Membership's geometric comparisons, relative to the
# magnitudes of the compared quantities (see Membership)
MEMBERSHIP_RTOL = 1e-12


class TargetSet(Enum):
    NEIGHBOURHOOD = "neighbourhood"   # breach within a Mahalanobis ball of s*
    NEAR_OPTIMAL = "near-optimal"     # breach with near-optimal plausibility


@dataclass(frozen=True)
class NeighbourhoodSpec:
    """Mahalanobis-squared radius of the ball around the design point."""

    radius_eta: float

    def __post_init__(self):
        if not self.radius_eta > 0:
            raise InvalidInputError("radius_eta must be positive")


@dataclass(frozen=True)
class NearOptimalSpec:
    """Plausibility slack epsilon for the near-optimal set."""

    epsilon: float

    def __post_init__(self):
        if not self.epsilon >= 0:
            raise InvalidInputError("epsilon must be non-negative")


class Membership:
    """Inclusive membership oracle for a target scenario set.

    Both sets hold breaching scenarios in ``constraints``, the feasible
    region the design point was solved over (``None`` is ``ConstraintSet()``,
    as in ``solve_design_point``). Neighbourhood: also d^2(s - s*) <= eta.
    Near-optimal: also neg-log-density within epsilon/2 of the design
    point's (under the Gaussian this is exactly d^2(s) <= d^2(s*) + epsilon).

    The breach is ``capital.breaches`` (R(s) <= r_star, no slack) and the
    region ``ConstraintSet.satisfied`` (TOL_CONSTRAINT slack), the tests the
    solver applies, so the design point, the local optima and the
    conditional anchors the solver returns always pass both. The geometric
    comparisons stay inclusive up to round-off: ``s - s*``, whitening and
    the log-density round with the magnitudes of their operands, so a point
    built on the boundary by float arithmetic can land a few ulps outside.
    Each comparison therefore allows a slack of MEMBERSHIP_RTOL (1e-12)
    times the magnitudes involved:

        d^2(s - s*) <= eta + rtol * (eta + m^2(s) + m^2(s*))
        nld(s) <= nld* + epsilon/2 + rtol * (epsilon/2 + |nld(s)| + |nld*|)

    with m^2 the squared Mahalanobis norm and nld the neg-log-density.

    :meth:`many` tests a block of scenarios and calling the oracle on one
    scenario is ``many`` on one row, so the two always agree. The squared
    norms come from ``ReferenceModel.mahalanobis_sq``, whose value for a
    row does not depend on the block it sits in; the breach test calls the
    capital map's ``ratio_many``.
    """

    def __init__(self, target: TargetSet, model: ReferenceModel, capital,
                 s_star, spec, constraints: ConstraintSet | None = None):
        self.target = TargetSet(target)
        self.model = model
        self.capital = capital
        self.constraints = constraints or ConstraintSet()
        self.s_star = as_scenarios(s_star, model.d, ndim=(1,))
        self.spec = spec
        if self.target is TargetSet.NEIGHBOURHOOD:
            if not isinstance(spec, NeighbourhoodSpec):
                raise InvalidInputError("neighbourhood target needs a NeighbourhoodSpec")
        elif not isinstance(spec, NearOptimalSpec):
            raise InvalidInputError("near-optimal target needs a NearOptimalSpec")
        self._m2_star = model.mahalanobis_sq(self.s_star)
        self._nld_star = model.neg_log_density_from_m2(self._m2_star)

    def __call__(self, s) -> bool:
        arr = np.asarray(s, dtype=float)
        return arr.shape == (self.model.d,) and bool(self.many(arr[None, :])[0])

    def many(self, S) -> np.ndarray:
        """Membership of each row of a block S (N, d), as a boolean (N,).

        Rows with a non-finite coordinate are not members. The geometric
        tests and the region test run on the rest, and R(s) (one
        ``ratio_many`` call) only on the rows that pass them.
        """
        S = np.asarray(S, dtype=float)
        if S.ndim != 2 or S.shape[1] != self.model.d:
            raise InvalidInputError(
                f"scenario block must have shape (N, {self.model.d}), "
                f"got {S.shape}")
        inside = np.isfinite(S).all(axis=1)
        rows = np.flatnonzero(inside)
        inside[rows] = (self._geometry(S[rows])
                        & self.constraints.satisfied(S[rows]))
        rows = rows[inside[rows]]
        if rows.size:
            inside[rows] = breaches(self.capital.ratio_many(S[rows]),
                                    self.capital.r_star)
        return inside

    def _geometry(self, S: np.ndarray) -> np.ndarray:
        """The set's geometric tests on finite rows, before the costly R(s)."""
        m2 = self.model.mahalanobis_sq(S)
        if self.target is TargetSet.NEIGHBOURHOOD:
            eta = self.spec.radius_eta
            slack = MEMBERSHIP_RTOL * (eta + m2 + self._m2_star)
            return self.model.mahalanobis_sq(S - self.s_star) <= eta + slack
        nld = self.model.neg_log_density_from_m2(m2)
        half_eps = 0.5 * self.spec.epsilon
        slack = MEMBERSHIP_RTOL * (half_eps + np.abs(nld) + abs(self._nld_star))
        return nld <= self._nld_star + half_eps + slack


@dataclass
class PoolEntry:
    s: np.ndarray
    origin: str  # anchor | grid_anchor(g) | local_draw | hit_and_run


@dataclass
class CandidatePool:
    target: TargetSet
    entries: list[PoolEntry]

    @property
    def scenarios(self) -> np.ndarray:
        return np.vstack([e.s for e in self.entries])

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class LocalSampleResult:
    accepted: list[np.ndarray]
    acceptance_rate: float
    thin_region: bool


def local_sample(model: ReferenceModel, anchor, radius_interval, n: int,
                 seed: int, membership) -> LocalSampleResult:
    """Uniform sphere-shell perturbations around an anchor in whitened space.

    The n directions and radii are drawn as one block each, the candidates
    built with one ``unwhiten`` and tested with one ``membership.many``
    call, and the members kept in draw order. Flags a thin region
    (acceptance below 1%) so the caller can switch to hit-and-run.
    Deterministic for a fixed seed.
    """
    anchor = as_scenarios(anchor, model.d, ndim=(1,))
    if not membership(anchor):
        raise InvalidInputError("anchor does not pass the membership test")
    r_lo, r_hi = float(radius_interval[0]), float(radius_interval[1])
    if r_lo < 0 or r_hi < r_lo:
        raise InvalidInputError("radius interval must satisfy 0 <= lo <= hi")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, model.d))
    radii = rng.uniform(r_lo, r_hi, n)
    u /= np.maximum(np.linalg.norm(u, axis=1), 1e-12)[:, None]
    candidates = model.unwhiten(model.whiten(anchor) + radii[:, None] * u)
    accepted = list(candidates[membership.many(candidates)])
    rate = len(accepted) / n if n > 0 else 0.0
    return LocalSampleResult(accepted=accepted, acceptance_rate=rate,
                             thin_region=rate < THIN_REGION_RATE)


def hit_and_run(model: ReferenceModel, start, n_steps: int, seed: int,
                membership) -> list[np.ndarray]:
    """Membership-oracle line sampler in whitened space.

    Each step draws a uniform direction and places a window of width
    SLICE_WIDTH on the line through the current point, at a uniform random
    offset. It draws uniformly in the window, moves on a member and on a
    miss shrinks the window toward the current point (slice sampling's
    shrinkage, Neal 2003), so every emitted point passes membership and
    the chain keeps the uniform law on the set. Forty misses are a stall,
    which repeats the current point; a majority of stalls triggers a
    warning.
    """
    start = as_scenarios(start, model.d, ndim=(1,))
    if not membership(start):
        raise InvalidInputError("hit-and-run start does not pass membership")
    rng = np.random.default_rng(seed)
    y = model.whiten(start)
    chain = []
    stalls = 0
    for _ in range(n_steps):
        u = rng.standard_normal(model.d)
        u /= max(np.linalg.norm(u), 1e-12)
        lo = -SLICE_WIDTH * rng.random()
        hi = lo + SLICE_WIDTH
        for _ in range(40):
            t = rng.uniform(lo, hi)
            if membership(model.unwhiten(y + t * u)):
                y = y + t * u
                break
            # shrink toward the current (member) point at t = 0
            if t > 0:
                hi = t
            else:
                lo = t
        else:
            stalls += 1
        chain.append(model.unwhiten(y))
    if n_steps > 0 and stalls > 0.5 * n_steps:
        warnings.warn(
            f"hit-and-run stalled on {stalls}/{n_steps} steps; "
            "the admissible region may be degenerate", RuntimeWarning)
    return chain


def build_pool(membership: Membership, design_result, g_grid=None,
               n_target: int = DEFAULT_POOL_SIZE, seed: int = 0) -> CandidatePool:
    """Anchors (multi-start optima and conditional g-grid anchors) densified
    by local sampling, with a hit-and-run fallback on thin regions. The
    model, the capital map and the feasible region are the membership's.

    The grid anchors are solved outward from the design point's g*: the
    entries at or below g* by descending g, those above it by ascending g.
    Each side stops at its first anchor that does not exist or fails the
    membership test, a band end, so the admitted g's are taken to be one
    band around g*, as they are where h(g) = min m^2 at fixed g rises away
    from g*. The admitted anchors join the pool in configured grid order,
    one per entry, duplicates included: the local-sample seeds are spawned
    per anchor.
    """
    model, capital = membership.model, membership.capital
    constraints = membership.constraints
    if n_target < 1:
        raise InvalidInputError(f"pool size {n_target} must be >= 1")
    anchors: list[PoolEntry] = []
    for opt in design_result.local_optima:
        if membership(opt.s):
            anchors.append(PoolEntry(s=opt.s, origin="anchor"))
    if g_grid is None:
        g_grid = default_g_grid(model, constraints)
    grid = [float(g_j) for g_j in g_grid]
    for g_j in grid:
        constraints.check_g(g_j)
    g_star = design_result.s_star[0]
    admitted = {}
    by_g = sorted(range(len(grid)), key=grid.__getitem__)
    for side in ([i for i in reversed(by_g) if grid[i] <= g_star],
                 [i for i in by_g if grid[i] > g_star]):
        for i in side:
            anchor = conditional_anchor(model, capital, constraints, grid[i])
            if anchor is None or not membership(anchor):
                break
            admitted[i] = anchor
    anchors.extend(PoolEntry(s=admitted[i], origin=f"grid_anchor({grid[i]:g})")
                   for i in sorted(admitted))
    if not anchors:
        raise InfeasibleError("no feasible anchors for the candidate pool")

    entries = list(anchors)
    per_anchor = max(1, math.ceil((n_target - len(entries)) / len(anchors)))
    radius = _pool_radius(membership)
    seeds = np.random.SeedSequence(seed).spawn(2 * len(anchors))
    for i, anchor in enumerate(anchors):
        draw_budget = max(per_anchor * 2, 50)
        result = local_sample(model, anchor.s, (0.0, radius), draw_budget,
                              seed=_seed_int(seeds[2 * i]), membership=membership)
        if result.thin_region:
            chain = hit_and_run(model, anchor.s, per_anchor,
                                seed=_seed_int(seeds[2 * i + 1]),
                                membership=membership)
            entries.extend(PoolEntry(s=s, origin="hit_and_run") for s in chain)
        else:
            entries.extend(PoolEntry(s=s, origin="local_draw")
                           for s in result.accepted[:per_anchor])
    if len(entries) < n_target:
        warnings.warn(
            f"candidate pool has {len(entries)} members, short of the "
            f"target {n_target}", RuntimeWarning)
    return CandidatePool(target=membership.target, entries=entries)


def _pool_radius(membership: Membership) -> float:
    """Sampling radius adapted to the target set geometry (whitened units)."""
    if membership.target is TargetSet.NEIGHBOURHOOD:
        return math.sqrt(membership.spec.radius_eta)
    m2_star = membership.model.mahalanobis_sq(membership.s_star)
    return math.sqrt(m2_star + membership.spec.epsilon) - math.sqrt(m2_star) + 1e-6


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1)[0])


def default_g_grid(model: ReferenceModel,
                   constraints: ConstraintSet) -> np.ndarray:
    """Equally spaced geopolitical intensities up to the marginal 99.9th pct."""
    return np.linspace(constraints.g_min, _g_cap(model, constraints),
                       N_GRID_POINTS)


@dataclass
class Driver:
    factor: str
    sign: int
    magnitude: float


@dataclass
class ScenarioEntry:
    s: np.ndarray
    ratio: float
    mahalanobis_sq: float
    tail_probability: float
    rarity: float
    g_value: float
    drivers: list[Driver] = field(default_factory=list)


@dataclass
class ScenarioList:
    target: TargetSet
    entries: list[ScenarioEntry]

    def __len__(self) -> int:
        return len(self.entries)


def driver_decomposition(model: ReferenceModel, s, k: int = DEFAULT_TOP_K) -> list[Driver]:
    """Top-k whitened coordinates by absolute value, with signs and labels."""
    if not 1 <= k <= model.d:
        raise InvalidInputError(f"k={k} outside 1..{model.d}")
    y = model.whiten(s)
    order = sorted(range(model.d), key=lambda j: (-abs(y[j]), j))
    return [Driver(factor=model.factor_names[j],
                   sign=int(np.sign(y[j])) if y[j] != 0 else 0,
                   magnitude=abs(float(y[j])))
            for j in order[:k]]


def _farthest_point_indices(Y: np.ndarray, y_star: np.ndarray, count: int) -> list[int]:
    """Maximin selection over whitened pool Y, seeded at the design point.

    Ties broken by lexicographically smallest whitened coordinates;
    permutation-invariant up to that tie-break.
    """
    n = Y.shape[0]
    selected: list[int] = []
    available = np.ones(n, dtype=bool)
    min_dist = np.linalg.norm(Y - y_star, axis=1)
    for _ in range(count):
        if n == 0:
            break
        best = np.max(min_dist[available])
        cand = np.flatnonzero(available & (min_dist >= best - 1e-12))
        # a stable lexicographic minimum: exact ties go to the lowest index
        pick = int(cand[np.lexsort(Y[cand].T[::-1])[0]])
        selected.append(pick)
        available[pick] = False
        min_dist = np.minimum(min_dist, np.linalg.norm(Y - Y[pick], axis=1))
    return selected


def reduce_farthest_point(model: ReferenceModel, pool: CandidatePool, s_star,
                          P: int, capital,
                          k: int = DEFAULT_TOP_K) -> ScenarioList:
    """Reduce the pool to P diverse representatives, the design point first."""
    s_star = as_scenarios(s_star, model.d, ndim=(1,))
    if P < 1:
        raise InvalidInputError("list size P must be >= 1")
    if P > len(pool) + 1:
        raise InvalidInputError(
            f"list size P={P} exceeds pool size {len(pool)} + 1")
    picks = [s_star]
    if P > 1:
        scenarios = pool.scenarios
        idx = _farthest_point_indices(model.whiten(scenarios),
                                      model.whiten(s_star), P - 1)
        picks.extend(scenarios[i] for i in idx)
    entries = []
    for s, ratio in zip(picks, capital.ratio_many(np.array(picks))):
        score = model.plausibility(s)
        entries.append(ScenarioEntry(
            s=s,
            ratio=float(ratio),
            mahalanobis_sq=score.mahalanobis_sq,
            tail_probability=score.tail_probability,
            rarity=score.rarity,
            g_value=float(s[0]),
            drivers=driver_decomposition(model, s, k=min(k, model.d)),
        ))
    return ScenarioList(target=pool.target, entries=entries)
