"""Design-point solver: constrained maximum-likelihood reverse stress test.

Minimizes half the squared Mahalanobis distance over the capital-breaching
set, subject to g > 0 (as g >= g_min), optional box bounds, and optional
linear monotonicity rows. All optimization runs in whitened coordinates with
multi-start; a brute-force grid oracle validates 2-D problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .capital import breaches
from .errors import InfeasibleError, InvalidInputError, NonConvergenceError
from .reference import ReferenceModel
from .special_functions import normal_quantile

G_MIN_DEFAULT = 1e-6
TOL_CONSTRAINT = 1e-8   # box and monotonicity; the breach has no slack
DEDUP_RADIUS = 1e-3     # whitened distance between distinct local optima
CONFIRMATIONS = 2       # consecutive starts re-finding the best that end a solve
MAX_INNER_ITER = 200    # SLSQP iterations per start
# SLSQP stops once |f_k - f_(k-1)| < SLSQP_FTOL, an absolute bound on
# f = m^2 / 2. 1e-12 is at least 8 ulps of f for every f < 1024
# (m^2 < 2048); a tighter bound sits below one ulp of f once f >= 64, and
# the solve then runs R(s) on round-off until the line search fails. The
# same bound limits the summed constraint violation: the polish steps onto
# the breaching side of the frontier, the fixed-g polish sets g back to g_j,
# and the box and monotonicity rows stay far inside TOL_CONSTRAINT.
SLSQP_FTOL = 1e-12
POLISH_GROWTH = 2.0 ** 60  # longest polish step over the Newton step


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

    def check_g(self, g_j: float) -> None:
        """Raise unless g_j is finite and in [g_min, g_max], with no upper
        end when g_max is unset: the admissible conditional-anchor g's."""
        g_max = np.inf if self.g_max is None else self.g_max
        if not (np.isfinite(g_j) and self.g_min <= g_j <= g_max):
            raise InvalidInputError(f"g_j={g_j} outside the admissible range")


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


def _breach_margin(model: ReferenceModel, capital):
    """The scaled breach margin c(y) = (r_star - R(L y)) / scale, c >= 0 on
    the breach set, and its gradient in y as a function of s = L y, from
    the capital map's ``ratio_grad`` at s itself."""
    L = model.chol
    scale = _constraint_scale(capital)

    def margin(y):
        return (capital.r_star - capital.ratio(model.unwhiten(y))) / scale

    return margin, lambda s: -(capital.ratio_grad(s) @ L) / scale


def _build_constraints(model: ReferenceModel, capital, constraints: ConstraintSet,
                       g_fixed: float | None = None) -> list[dict]:
    """SLSQP's constraints in whitened coordinates y, s = L y: the breach
    margin; one linear block A y - b >= 0 over the box's finite bounds and
    the monotonicity rows M L y >= 0 when they are set; with g_fixed, the
    equality g = g_fixed in place of the block's g rows."""
    L = model.chol
    breach_fun, breach_grad = _breach_margin(model, capital)
    cons = [{"type": "ineq", "fun": breach_fun,
             "jac": lambda y: breach_grad(model.unwhiten(y))}]
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


def _g_start(model: ReferenceModel, constraints: ConstraintSet,
             g_j: float) -> np.ndarray:
    """The whitened start (g_j, 0, ..., 0), clipped to the box. It need not
    breach: SLSQP accepts an infeasible start, and the polish moves its end
    onto the breaching side."""
    s = np.zeros(model.d)
    s[0] = g_j
    return model.whiten(constraints.clip(s))


def _generate_starts(model: ReferenceModel, constraints: ConstraintSet,
                     config: SolverConfig,
                     rng: np.random.Generator) -> list[np.ndarray]:
    """Half whitened-sphere draws, then half g-grid starts (g_j, 0, ..., 0).
    No start costs an R(s) call."""
    d = model.d
    starts = []
    n_sphere = config.n_starts // 2
    radii = (1.0, 2.0, 3.0, 4.0)
    for i in range(n_sphere):
        u = rng.standard_normal(d)
        u /= max(np.linalg.norm(u), 1e-12)
        y = radii[i % len(radii)] * u
        s = constraints.clip(model.unwhiten(y))
        starts.append(model.whiten(s))
    n_grid = config.n_starts - n_sphere
    g_cap = _g_cap(model, constraints)
    g_values = np.linspace(constraints.g_min, g_cap, max(n_grid, 2))[:n_grid]
    return starts + [_g_start(model, constraints, g_j) for g_j in g_values]


def _polish_to_frontier(model: ReferenceModel, capital, y: np.ndarray,
                        g_fixed: float | None = None) -> np.ndarray | None:
    """Move a near-frontier iterate onto the breaching side of R = r_star.

    Returns s = L y, with s[0] set to g_fixed when given, if it breaches.
    Otherwise steps from y along the breach margin's gradient in y, taken
    at s itself so that it reuses the kernel pass of R(s), by the Newton
    step onto the linearized frontier, t = -c(y) / |grad c(y)|, and
    doubles t until s + t L grad / |grad| breaches. Returns that first
    breaching point, or None once t passes POLISH_GROWTH times the Newton
    step. With g_fixed the gradient's y_0 part is zeroed: L is lower
    triangular, so the step's first component is exactly 0 and s[0] stays
    g_fixed bit for bit.
    """
    s = model.unwhiten(y)
    if g_fixed is not None:
        s[0] = g_fixed
    r_0 = capital.ratio(s)
    if breaches(r_0, capital.r_star):
        return s
    _, c_grad = _breach_margin(model, capital)
    grad = c_grad(s)
    if g_fixed is not None:
        grad[0] = 0.0
    norm = np.linalg.norm(grad)
    if not norm >= 1e-14:
        return None
    step = model.unwhiten(grad / norm)
    t = (r_0 - capital.r_star) / _constraint_scale(capital) / norm
    t_cap = t * POLISH_GROWTH
    while t <= t_cap:
        s_t = s + t * step
        if breaches(capital.ratio(s_t), capital.r_star):
            return s_t
        t *= 2.0
    return None


def _solve_from(y0: np.ndarray, cons: list[dict]):
    return minimize(
        lambda y: 0.5 * float(y @ y),
        y0,
        jac=lambda y: y,
        method="SLSQP",
        constraints=cons,
        options={"maxiter": MAX_INNER_ITER, "ftol": SLSQP_FTOL},
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
    then g-grid starts. The search stops once CONFIRMATIONS starts in a row
    each end feasible within DEDUP_RADIUS of the best optimum so far; any
    other end (a new, distinct best, a different optimum, an infeasible
    point) resets the count. config.n_starts caps the starts, and the
    result's n_starts counts those run. A solve's end is the polished point,
    or the SLSQP end when the polish finds none. When no end is feasible,
    raises NonConvergenceError if some end, clipped to the box, breaches,
    and InfeasibleError otherwise.
    """
    if constraints is None:
        constraints = ConstraintSet()
    if config is None:
        config = SolverConfig()
    rng = np.random.default_rng(config.seed)
    starts = _generate_starts(model, constraints, config, rng)
    cons = _build_constraints(model, capital, constraints)

    ends: list[np.ndarray] = []
    optima: list[LocalOptimum] = []
    incumbent: LocalOptimum | None = None
    confirmed = 0
    for idx, y0 in enumerate(starts):
        res = _solve_from(y0, cons)
        s = _polish_to_frontier(model, capital, res.x)
        if s is None:
            s = model.unwhiten(res.x)
        ends.append(s)
        if not _feasible(capital, constraints, s):
            confirmed = 0
            continue
        y = model.whiten(s)
        opt = LocalOptimum(s=s, y=y, mahalanobis_sq=model.mahalanobis_sq(s),
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
        if not any(breaches(capital.ratio(constraints.clip(s)), capital.r_star)
                   for s in ends):
            raise InfeasibleError(
                "no capital-breaching scenario found within the admissible bounds")
        raise NonConvergenceError(
            "no start converged to a feasible design point")

    deduped = _dedup(optima)
    best = deduped[0]
    active = abs(best.ratio - capital.r_star) <= 1e-6 * capital.r0
    return DesignPointResult(
        s_star=best.s,
        y_star=best.y,
        mahalanobis_sq=best.mahalanobis_sq,
        tail_probability=model.tail_probability(best.mahalanobis_sq),
        ratio_at_optimum=best.ratio,
        active=active,
        local_optima=deduped,
        n_starts=len(ends),
    )


def conditional_anchor(model: ReferenceModel, capital,
                       constraints: ConstraintSet, g_j: float) -> np.ndarray | None:
    """Least-unlikely macro-financial companion shock at fixed g = g_j.

    Returns the anchor scenario (g_j, x*(g_j)), or None when no feasible x
    exists at this geopolitical intensity (the anchor is skipped). A returned
    anchor has g == g_j exactly and R <= r_star, so it passes the breach test
    of ``Membership``. ``constraints.check_g`` gives the admissible g_j.

    The anchor is one SLSQP solve from (g_j, 0, ..., 0), clipped to the box,
    polished at fixed g; when that solve ends infeasible the anchor is None.
    """
    constraints.check_g(g_j)
    cons = _build_constraints(model, capital, constraints, g_fixed=g_j)
    res = _solve_from(_g_start(model, constraints, g_j), cons)
    # an SLSQP end off g = g_j beyond its tolerance is not polished
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
