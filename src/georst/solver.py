"""Design-point solver: constrained maximum-likelihood reverse stress test.

Minimizes half the squared Mahalanobis distance over the capital-breaching
set, subject to g > 0 (as g >= g_min), optional box bounds, and optional
linear monotonicity rows. All optimization runs in whitened coordinates with
multi-start; a brute-force grid oracle validates 2-D problems.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.optimize import minimize

from .capital import breaches
from .errors import InfeasibleError, InvalidInputError, NonConvergenceError
from .reference import ReferenceModel
from .special_functions import normal_quantile

G_MIN_DEFAULT = 1e-6
FD_STEP = 1e-5          # central-difference step, whitened units
TOL_CONSTRAINT = 1e-8   # box and monotonicity; the breach has no slack
DEDUP_RADIUS = 1e-3     # whitened distance between distinct local optima
CONFIRMATIONS = 2       # consecutive starts re-finding the best that end a solve
MAX_INNER_ITER = 200    # SLSQP iterations per start
WARM_START_T_CAP = 4096.0  # longest warm-start ray, in marginal std devs
POLISH_GROWTH = 2.0 ** 60  # longest polish ray over its first step


@dataclass
class ConstraintSet:
    """The feasible region beyond the capital breach itself: the box
    g_min <= g <= g_max, x_min <= x <= x_max (an unset bound is no bound)
    and, when set, the monotonicity rows M (k, d): M s >= 0, as built by
    ``transmission.monotonicity_rows``."""

    g_min: float = G_MIN_DEFAULT
    g_max: float | None = None
    x_min: np.ndarray | float | None = None
    x_max: np.ndarray | float | None = None
    monotonicity: np.ndarray | None = None

    def __post_init__(self):
        if not self.g_min > 0:
            raise InvalidInputError("g_min must be positive")
        if self.g_max is not None and not self.g_max > self.g_min:
            raise InvalidInputError("g_max must exceed g_min")
        if self.x_min is not None and self.x_max is not None:
            if np.any(np.asarray(self.x_max) <= np.asarray(self.x_min)):
                raise InvalidInputError("x bounds define an empty box")

    def bounds(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The box as (lo, hi) arrays of shape (d,), -inf / +inf where a
        bound is unset."""
        lo, hi = np.empty(d), np.empty(d)
        lo[0] = self.g_min
        hi[0] = np.inf if self.g_max is None else self.g_max
        lo[1:] = -np.inf if self.x_min is None else self.x_min
        hi[1:] = np.inf if self.x_max is None else self.x_max
        return lo, hi

    def clip(self, s: np.ndarray) -> np.ndarray:
        """Project a scenario onto the box (used for start generation only)."""
        return np.clip(s, *self.bounds(s.size))

    def satisfied(self, S: np.ndarray):
        """The box and, when set, the monotonicity rows, each within
        TOL_CONSTRAINT: a bool for a scenario (d,), a boolean (N,) for the
        rows of a block (N, d). ``einsum`` sums each M s in one order, so a
        block row's answer is the scenario's."""
        block = np.atleast_2d(S)
        lo, hi = self.bounds(block.shape[1])
        ok = np.all((lo - TOL_CONSTRAINT <= block)
                    & (block <= hi + TOL_CONSTRAINT), axis=1)
        if self.monotonicity is not None:
            ok &= np.all(np.einsum("nk,mk->nm", block, self.monotonicity)
                         >= -TOL_CONSTRAINT, axis=1)
        return bool(ok[0]) if np.ndim(S) == 1 else ok


@dataclass
class SolverConfig:
    """Multi-start settings for the design-point solve."""

    n_starts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise InvalidInputError("n_starts must be >= 1")


@dataclass
class LocalOptimum:
    s: np.ndarray
    y: np.ndarray
    mahalanobis_sq: float
    ratio: float
    start_index: int


@dataclass
class DesignPointResult:
    s_star: np.ndarray
    y_star: np.ndarray
    mahalanobis_sq: float
    tail_probability: float
    ratio_at_optimum: float
    active: bool
    local_optima: list[LocalOptimum] = field(default_factory=list)
    # the starts actually run: the search stops early once CONFIRMATIONS
    # starts in a row re-find the best optimum, so SolverConfig.n_starts
    # is only the upper limit
    n_starts: int = 0


def _constraint_scale(capital) -> float:
    return max(capital.r0 - capital.r_star, 1e-12)


def _fd_grad(fun, y: np.ndarray, step: float) -> np.ndarray:
    g = np.empty_like(y)
    for j in range(y.size):
        e = np.zeros_like(y)
        e[j] = step
        g[j] = (fun(y + e) - fun(y - e)) / (2.0 * step)
    return g


def _breach_margin(model: ReferenceModel, capital):
    """The scaled breach margin c(y) = (r_star - R(L y)) / scale, c >= 0 on
    the breach set, and its gradient in y: analytic when the capital map has
    ``ratio_grad``, central differences otherwise."""
    L = model.chol
    scale = _constraint_scale(capital)

    def margin(y):
        return (capital.r_star - capital.ratio(L @ y)) / scale

    ratio_grad = getattr(capital, "ratio_grad", None)
    if ratio_grad is None:
        return margin, lambda y: _fd_grad(margin, y, FD_STEP)
    return margin, lambda y: -(ratio_grad(L @ y) @ L) / scale


def _build_constraints(model: ReferenceModel, capital, constraints: ConstraintSet,
                       g_fixed: float | None = None) -> list[dict]:
    """SLSQP's constraints in whitened coordinates y, s = L y: the breach
    margin; one linear block A y - b >= 0 over the box's finite bounds and
    the monotonicity rows M L y >= 0 when they are set; with g_fixed, the
    equality g = g_fixed in place of the block's g rows."""
    L = model.chol
    breach_fun, breach_jac = _breach_margin(model, capital)
    cons = [{"type": "ineq", "fun": breach_fun, "jac": breach_jac}]
    lo, hi = constraints.bounds(model.d)
    if g_fixed is not None:
        lo[0], hi[0] = -np.inf, np.inf
        cons.append({"type": "eq", "fun": lambda y: L[:1] @ y - g_fixed,
                     "jac": lambda y: L[:1]})
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    M = (np.empty((0, model.d)) if constraints.monotonicity is None
         else constraints.monotonicity)
    A = np.vstack([L[has_lo], -L[has_hi], M @ L])
    b = np.concatenate([lo[has_lo], -hi[has_hi], np.zeros(len(M))])
    if len(A):
        cons.append({"type": "ineq", "fun": lambda y: A @ y - b,
                     "jac": lambda y: A})
    return cons


def _g_cap(model: ReferenceModel, constraints: ConstraintSet) -> float:
    if constraints.g_max is not None:
        return constraints.g_max
    return normal_quantile(0.999) * model.marginal_std(0)


def _frontier_t(ratio_at, r_star: float, r_0: float, t: float,
                t_cap: float) -> float | None:
    """The breaching end of a bracket on the frontier R = r_star along a ray.

    ratio_at(t) is R at distance t along the ray and r_0 = ratio_at(0),
    which does not breach. Doubles t from the given first step until
    ratio_at(t) breaches, or returns None once t passes t_cap. Then shrinks
    the bracket [lo, hi] (lo does not breach, hi does) by Illinois regula
    falsi on f(t) = ratio_at(t) - r_star, bisecting when the secant point
    leaves the bracket, to the width max(hi 2^-41, 1e-15), or until f(hi)
    is exactly 0. The floor stops a search at round-off scale, where f is
    noise of a few ulps. Returns hi.
    """
    lo, f_lo = 0.0, r_0 - r_star
    while True:
        if t > t_cap:
            return None
        r = ratio_at(t)
        if breaches(r, r_star):
            break
        lo, f_lo, t = t, r - r_star, 2.0 * t
    hi, f_hi = t, r - r_star
    width = max(hi * 2.0 ** -41, 1e-15)
    kept = 0  # +1 / -1 when the last step kept lo / hi
    while hi - lo > width and f_hi != 0.0:
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo <= t <= hi:
            t = 0.5 * (lo + hi)
        # a step of at least width / 2 from each end closes the bracket
        # when the root sits at one end, where regula falsi stalls
        t = min(max(t, lo + 0.5 * width), hi - 0.5 * width)
        r = ratio_at(t)
        if breaches(r, r_star):
            hi, f_hi = t, r - r_star
            if kept == 1:
                f_lo *= 0.5
            kept = 1
        else:
            lo, f_lo = t, r - r_star
            if kept == -1:
                f_hi *= 0.5
            kept = -1
    return hi


def _frontier_warm_start(model: ReferenceModel, capital,
                         constraints: ConstraintSet,
                         g_j: float) -> np.ndarray:
    """A near-frontier start on the stress ray (g_j, t sigma_x), clipped to
    the box: the point at the breaching end of ``_frontier_t``'s bracket
    from t = 1, or the ray's origin when it breaches or when no t up to
    WARM_START_T_CAP does."""
    d = model.d
    v = np.sqrt(np.diag(model.sigma)[1:])

    def point(t):
        s = np.empty(d)
        s[0] = g_j
        s[1:] = t * v
        return constraints.clip(s)

    r_0 = capital.ratio(point(0.0))
    if breaches(r_0, capital.r_star):
        return point(0.0)
    t = _frontier_t(lambda t: capital.ratio(point(t)), capital.r_star, r_0,
                    1.0, WARM_START_T_CAP)
    return point(0.0 if t is None else t)


def _generate_starts(model: ReferenceModel, capital, constraints: ConstraintSet,
                     config: SolverConfig,
                     rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Half whitened-sphere draws, then half g-grid conditional warm starts,
    as a lazy sequence. The sphere draws are made here, up front: they cost
    no R(s) call. Each warm start costs a frontier search, so it is built
    only when the caller takes it."""
    d = model.d
    sphere = []
    n_sphere = config.n_starts // 2
    radii = (1.0, 2.0, 3.0, 4.0)
    for i in range(n_sphere):
        u = rng.standard_normal(d)
        u /= max(np.linalg.norm(u), 1e-12)
        y = radii[i % len(radii)] * u
        s = constraints.clip(model.unwhiten(y))
        sphere.append(model.whiten(s))
    n_grid = config.n_starts - n_sphere
    g_cap = _g_cap(model, constraints)
    g_values = np.linspace(constraints.g_min, g_cap, max(n_grid, 2))[:n_grid]
    return chain(sphere, (
        model.whiten(_frontier_warm_start(model, capital, constraints, g_j))
        for g_j in g_values))


def _polish_to_frontier(model: ReferenceModel, capital, y: np.ndarray,
                        g_fixed: float | None = None) -> np.ndarray | None:
    """Move a near-frontier iterate onto the breaching side of R = r_star.

    Returns s = L y, with s[0] set to g_fixed when given, if it breaches.
    Otherwise searches the ray from s along the breach margin's gradient in
    y with ``_frontier_t`` and returns the point at the breaching end of the
    bracket, or None when the ray finds no breach. With g_fixed the
    gradient's y_0 part is zeroed: L is lower triangular, so the ray's first
    component is exactly 0 and s[0] stays g_fixed bit for bit.
    """
    s = model.unwhiten(y)
    if g_fixed is not None:
        s[0] = g_fixed
        y = model.whiten(s)
    r_0 = capital.ratio(s)
    if breaches(r_0, capital.r_star):
        return s
    _, c_grad = _breach_margin(model, capital)
    grad = c_grad(y)
    if g_fixed is not None:
        grad[0] = 0.0
    norm = np.linalg.norm(grad)
    if not norm >= 1e-14:
        return None
    step = model.chol @ (grad / norm)
    # four times the linearized distance to the frontier
    t_0 = (r_0 - capital.r_star) / _constraint_scale(capital) / norm * 4.0
    t_0 += 1e-12
    t = _frontier_t(lambda t: capital.ratio(s + t * step), capital.r_star,
                    r_0, t_0, t_0 * POLISH_GROWTH)
    return None if t is None else s + t * step


def _solve_from(y0: np.ndarray, cons: list[dict]):
    return minimize(
        lambda y: 0.5 * float(y @ y),
        y0,
        jac=lambda y: y,
        method="SLSQP",
        constraints=cons,
        options={"maxiter": MAX_INNER_ITER, "ftol": 1e-14},
    )


def _feasible(capital, constraints: ConstraintSet, s: np.ndarray) -> bool:
    return (breaches(capital.ratio(s), capital.r_star)
            and constraints.satisfied(s))


def _dedup(optima: list[LocalOptimum]) -> list[LocalOptimum]:
    kept: list[LocalOptimum] = []
    for opt in sorted(optima, key=lambda o: (round(o.mahalanobis_sq, 9),
                                             tuple(o.y))):
        if all(np.linalg.norm(opt.y - k.y) > DEDUP_RADIUS for k in kept):
            kept.append(opt)
    return kept


def solve_design_point(model: ReferenceModel, capital,
                       constraints: ConstraintSet | None = None,
                       config: SolverConfig | None = None) -> DesignPointResult:
    """Find the most plausible capital-breaching scenario.

    Multi-start SLSQP in whitened coordinates, feasibility polish onto the
    breach frontier, deduplication of local optima, and a deterministic
    lexicographic tie-break. The starts run in order, sphere draws first,
    then g-grid warm starts, each warm start built only when reached. The
    search stops once CONFIRMATIONS starts in a row each end feasible
    within DEDUP_RADIUS of the best optimum so far; any other end (a new,
    distinct best, a different optimum, an infeasible point) resets the
    count. config.n_starts caps the starts, and the result's n_starts
    counts those run. Raises InfeasibleError when no breach exists within
    bounds, NonConvergenceError when starts exist but none converge to a
    feasible point.
    """
    if constraints is None:
        constraints = ConstraintSet()
    if config is None:
        config = SolverConfig()
    rng = np.random.default_rng(config.seed)
    starts = _generate_starts(model, capital, constraints, config, rng)
    cons = _build_constraints(model, capital, constraints)

    tried: list[np.ndarray] = []
    optima: list[LocalOptimum] = []
    incumbent: LocalOptimum | None = None
    confirmed = 0
    best_infeasible: tuple[float, np.ndarray] | None = None
    for idx, y0 in enumerate(starts):
        tried.append(y0)
        res = _solve_from(y0, cons)
        s = _polish_to_frontier(model, capital, res.x)
        if s is None:
            s = model.unwhiten(res.x)
        y = model.whiten(s)
        if not _feasible(capital, constraints, s):
            confirmed = 0
            obj = float(y @ y)
            if best_infeasible is None or obj < best_infeasible[0]:
                best_infeasible = (obj, s)
            continue
        opt = LocalOptimum(s=s, y=y, mahalanobis_sq=float(y @ y),
                           ratio=capital.ratio(s), start_index=idx)
        optima.append(opt)
        if (incumbent is not None
                and np.linalg.norm(y - incumbent.y) <= DEDUP_RADIUS):
            confirmed += 1
        else:
            confirmed = 0
        if incumbent is None or opt.mahalanobis_sq < incumbent.mahalanobis_sq:
            incumbent = opt
        if confirmed >= CONFIRMATIONS:
            break

    if not optima:
        # no start ended feasible, so none stopped the search early
        if not any(breaches(capital.ratio(constraints.clip(model.unwhiten(y))),
                            capital.r_star) for y in tried):
            raise InfeasibleError(
                "no capital-breaching scenario found within the admissible bounds")
        err = NonConvergenceError(
            "no start converged to a feasible design point")
        err.best_iterate = None if best_infeasible is None else best_infeasible[1]
        raise err

    deduped = _dedup(optima)
    best = deduped[0]
    ratio = capital.ratio(best.s)
    active = abs(ratio - capital.r_star) <= 1e-6 * capital.r0
    return DesignPointResult(
        s_star=best.s,
        y_star=best.y,
        mahalanobis_sq=best.mahalanobis_sq,
        tail_probability=model.tail_probability(best.mahalanobis_sq),
        ratio_at_optimum=ratio,
        active=active,
        local_optima=deduped,
        n_starts=len(tried),
    )


def conditional_anchor(model: ReferenceModel, capital,
                       constraints: ConstraintSet, g_j: float,
                       config: SolverConfig | None = None) -> np.ndarray | None:
    """Least-unlikely macro-financial companion shock at fixed g = g_j.

    Returns the anchor scenario (g_j, x*(g_j)), or None when no feasible x
    exists at this geopolitical intensity (the anchor is skipped). A returned
    anchor has g == g_j exactly and R <= r_star, so it passes the breach test
    of ``Membership``. Any g_j in [g_min, g_max] is admissible, with no upper
    end when g_max is unset.

    One SLSQP solve from the frontier warm start at g_j gives the anchor
    when its result is feasible. Only when it is not does the multi-start
    schedule run: max(6, n_starts // 4) - 1 random starts at g_j, drawn with
    seed + 1, keeping the feasible result with the lowest m^2.
    """
    if config is None:
        config = SolverConfig()
    g_max = np.inf if constraints.g_max is None else constraints.g_max
    if not (np.isfinite(g_j) and constraints.g_min <= g_j <= g_max):
        raise InvalidInputError(f"g_j={g_j} outside the admissible range")
    cons = _build_constraints(model, capital, constraints, g_fixed=g_j)

    def solve(s0):
        return _anchor_from(model, capital, constraints, cons, s0, g_j)

    anchor = solve(_frontier_warm_start(model, capital, constraints, g_j))
    if anchor is not None:
        return anchor

    d = model.d
    rng = np.random.default_rng(config.seed + 1)
    stds = np.sqrt(np.diag(model.sigma)[1:])
    radii = (1.0, 2.0, 3.0)
    best: tuple[float, np.ndarray] | None = None
    for i in range(max(6, config.n_starts // 4) - 1):
        u = rng.standard_normal(d - 1)
        u /= max(np.linalg.norm(u), 1e-12)
        s0 = np.empty(d)
        s0[0] = g_j
        s0[1:] = radii[i % len(radii)] * u * stds
        s = solve(constraints.clip(s0))
        if s is None:
            continue
        m2 = model.mahalanobis_sq(s)
        if best is None or m2 < best[0]:
            best = (m2, s)
    return None if best is None else best[1]


def _anchor_from(model: ReferenceModel, capital, constraints: ConstraintSet,
                 cons: list[dict], s0: np.ndarray,
                 g_j: float) -> np.ndarray | None:
    """One fixed-g solve from s0: SLSQP, then, when the solver ends at
    g_j to within its tolerance, the polish at g = g_j. Returns the polished
    scenario when it is feasible, else None."""
    res = _solve_from(model.whiten(s0), cons)
    if abs(model.unwhiten(res.x)[0] - g_j) > 1e-6 * max(1.0, abs(g_j)):
        return None
    s = _polish_to_frontier(model, capital, res.x, g_fixed=g_j)
    return s if s is not None and _feasible(capital, constraints, s) else None


@dataclass
class GridOracleResult:
    s: np.ndarray
    mahalanobis_sq: float
    cell_size: tuple[float, float]


def grid_2d(g_bounds: tuple[float, float], x_bounds: tuple[float, float],
            resolution: int) -> tuple[np.ndarray, tuple[float, float]]:
    """The resolution x resolution grid over g_bounds x x_bounds as a block
    (resolution**2, 2), g varying slowest, and its cell size (dg, dx)."""
    if resolution < 2:
        raise InvalidInputError("resolution must be >= 2")
    g_axis = np.linspace(g_bounds[0], g_bounds[1], resolution)
    x_axis = np.linspace(x_bounds[0], x_bounds[1], resolution)
    G, X = np.meshgrid(g_axis, x_axis, indexing="ij")
    cell = (g_axis[1] - g_axis[0], x_axis[1] - x_axis[0])
    return np.column_stack([G.ravel(), X.ravel()]), cell


def grid_oracle(model: ReferenceModel, capital, constraints: ConstraintSet,
                resolution: int, x_bounds: tuple[float, float] | None = None,
                g_bounds: tuple[float, float] | None = None) -> GridOracleResult | None:
    """Exhaustive 2-D scan: the feasible grid point with minimal distance.

    Independent validator for the solver; returns None when no grid point
    is feasible (infeasible signal). A point is feasible when it breaches
    and satisfies ``constraints``, box and monotonicity alike, so explicit
    bounds wider than the box do not admit points outside it. The grid
    spans the constraints' box unless g_bounds or x_bounds is given.
    """
    if model.d != 2:
        raise InvalidInputError("grid oracle only supports d = 2")
    lo, hi = constraints.bounds(2)
    g_bounds = (lo[0], hi[0]) if g_bounds is None else g_bounds
    x_bounds = (lo[1], hi[1]) if x_bounds is None else x_bounds
    if not np.all(np.isfinite([*g_bounds, *x_bounds])):
        raise InvalidInputError("grid oracle needs a finite box")
    S, cell = grid_2d(g_bounds, x_bounds, resolution)
    feasible = breaches(capital.ratio_many(S), capital.r_star)
    rows = np.flatnonzero(feasible)
    feasible[rows] = constraints.satisfied(S[rows])
    if not np.any(feasible):
        return None
    m2 = model.mahalanobis_sq(S[feasible])
    idx = int(np.argmin(m2))
    return GridOracleResult(s=S[feasible][idx], mahalanobis_sq=float(m2[idx]),
                            cell_size=cell)
