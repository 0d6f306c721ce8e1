"""Design-point solver: constrained maximum-likelihood reverse stress test.

Minimizes half the squared Mahalanobis distance over the capital-breaching
set, subject to g > 0 (as g >= g_min), optional box bounds, and an optional
monotonicity constraint. All optimization runs in whitened coordinates with
multi-start; a brute-force grid oracle validates 2-D problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize

from .capital import breaches
from .errors import InfeasibleError, InvalidInputError, NonConvergenceError
from .reference import ReferenceModel
from .special_functions import normal_quantile

G_MIN_DEFAULT = 1e-6
FD_STEP = 1e-5          # central-difference step, whitened units
TOL_CONSTRAINT = 1e-8   # monotonicity only; the breach has no slack
DEDUP_RADIUS = 1e-3     # whitened distance between distinct local optima
MAX_INNER_ITER = 200    # SLSQP iterations per start


@dataclass
class ConstraintSet:
    """Feasibility restrictions beyond the capital breach itself."""

    g_min: float = G_MIN_DEFAULT
    g_max: float | None = None
    x_min: np.ndarray | float | None = None
    x_max: np.ndarray | float | None = None
    enforce_monotonicity: bool = False

    def __post_init__(self):
        if not self.g_min > 0:
            raise InvalidInputError("g_min must be positive")
        if self.g_max is not None and not self.g_max > self.g_min:
            raise InvalidInputError("g_max must exceed g_min")
        if self.x_min is not None and self.x_max is not None:
            if np.any(np.asarray(self.x_max) <= np.asarray(self.x_min)):
                raise InvalidInputError("x bounds define an empty box")

    def x_bound(self, which: str, d: int) -> np.ndarray | None:
        raw = self.x_min if which == "min" else self.x_max
        if raw is None:
            return None
        arr = np.broadcast_to(np.asarray(raw, dtype=float), (d - 1,)).copy()
        return arr

    def clip(self, s: np.ndarray) -> np.ndarray:
        """Project a scenario onto the box (used for start generation only)."""
        d = s.size
        out = s.copy()
        out[0] = max(out[0], self.g_min)
        if self.g_max is not None:
            out[0] = min(out[0], self.g_max)
        lo = self.x_bound("min", d)
        hi = self.x_bound("max", d)
        if lo is not None:
            out[1:] = np.maximum(out[1:], lo)
        if hi is not None:
            out[1:] = np.minimum(out[1:], hi)
        return out

    def satisfied(self, s: np.ndarray, tol: float = 1e-9) -> bool:
        d = s.size
        if s[0] < self.g_min - tol:
            return False
        if self.g_max is not None and s[0] > self.g_max + tol:
            return False
        lo = self.x_bound("min", d)
        hi = self.x_bound("max", d)
        if lo is not None and np.any(s[1:] < lo - tol):
            return False
        if hi is not None and np.any(s[1:] > hi + tol):
            return False
        return True


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
                       monotonicity_fn=None,
                       g_fixed: float | None = None) -> list[dict]:
    L = model.chol
    d = model.d
    breach_fun, breach_jac = _breach_margin(model, capital)
    cons = [{"type": "ineq", "fun": breach_fun, "jac": breach_jac}]
    row_g = L[0, :]
    if g_fixed is None:
        cons.append({
            "type": "ineq",
            "fun": lambda y: np.array([row_g @ y - constraints.g_min]),
            "jac": lambda y: row_g.reshape(1, -1),
        })
        if constraints.g_max is not None:
            cons.append({
                "type": "ineq",
                "fun": lambda y: np.array([constraints.g_max - row_g @ y]),
                "jac": lambda y: -row_g.reshape(1, -1),
            })
    else:
        cons.append({
            "type": "eq",
            "fun": lambda y: np.array([row_g @ y - g_fixed]),
            "jac": lambda y: row_g.reshape(1, -1),
        })
    lo = constraints.x_bound("min", d)
    hi = constraints.x_bound("max", d)
    rows_x = L[1:, :]
    if lo is not None:
        cons.append({
            "type": "ineq",
            "fun": lambda y: rows_x @ y - lo,
            "jac": lambda y: rows_x,
        })
    if hi is not None:
        cons.append({
            "type": "ineq",
            "fun": lambda y: hi - rows_x @ y,
            "jac": lambda y: -rows_x,
        })
    if monotonicity_fn is not None and constraints.enforce_monotonicity:
        def mono_fun(y):
            return -monotonicity_fn(L @ y)

        cons.append({
            "type": "ineq",
            "fun": mono_fun,
            "jac": lambda y: _fd_grad(mono_fun, y, FD_STEP),
        })
    return cons


def _g_cap(model: ReferenceModel, constraints: ConstraintSet) -> float:
    if constraints.g_max is not None:
        return constraints.g_max
    return normal_quantile(0.999) * model.marginal_std(0)


def _frontier_warm_start(model: ReferenceModel, capital,
                         constraints: ConstraintSet, g_j: float,
                         t_cap: float = 4096.0) -> np.ndarray:
    """A near-frontier start on a stress ray at fixed g.

    Doubles t until point(t) breaches, then shrinks the bracket [lo, hi]
    (lo does not breach, hi does) by Illinois regula falsi on
    f(t) = R(point(t)) - r_star, bisecting when the secant point leaves the
    bracket, to the width 40 halvings of the last doubling step reach.
    Returns point(hi), which breaches.
    """
    d = model.d
    v = np.sqrt(np.diag(model.sigma)[1:])
    r_star = capital.r_star

    def point(t):
        s = np.empty(d)
        s[0] = g_j
        s[1:] = t * v
        return constraints.clip(s)

    def ratio(t):
        return capital.ratio(point(t))

    lo, r_lo = 0.0, ratio(0.0)
    if breaches(r_lo, r_star):
        return point(0.0)
    hi, r_hi = 1.0, ratio(1.0)
    while not breaches(r_hi, r_star):
        lo, r_lo = hi, r_hi
        hi *= 2.0
        if hi > t_cap:
            return point(0.0)
        r_hi = ratio(hi)
    width = hi * 2.0 ** -41
    f_lo, f_hi = r_lo - r_star, r_hi - r_star
    kept = 0  # +1 / -1 when the last step kept lo / hi
    while hi - lo > width:
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo <= t <= hi:
            t = 0.5 * (lo + hi)
        # a step of at least width / 2 from each end closes the bracket
        # when the root sits at one end, where regula falsi stalls
        t = min(max(t, lo + 0.5 * width), hi - 0.5 * width)
        r = ratio(t)
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
    return point(hi)


def _generate_starts(model: ReferenceModel, capital, constraints: ConstraintSet,
                     config: SolverConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """Half whitened-sphere draws, half g-grid conditional warm starts."""
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
    if n_grid > 0:
        g_cap = _g_cap(model, constraints)
        g_values = np.linspace(constraints.g_min, g_cap, max(n_grid, 2))[:n_grid]
        for g_j in g_values:
            s = _frontier_warm_start(model, capital, constraints, g_j)
            starts.append(model.whiten(s))
    return starts


def _polish_to_frontier(model: ReferenceModel, capital,
                        y: np.ndarray) -> np.ndarray:
    """Push a near-frontier iterate exactly onto the feasible side.

    Moves along the constraint normal until the ratio crosses r_star, then
    keeps a strictly feasible point on the bracket.
    """
    c, c_grad = _breach_margin(model, capital)
    c0 = c(y)
    if c0 >= 0.0:
        return y
    grad = c_grad(y)
    norm = np.linalg.norm(grad)
    if norm < 1e-14:
        return y
    direction = grad / norm
    t_hi = abs(c0) / norm * 4.0 + 1e-12
    for _ in range(60):
        if c(y + t_hi * direction) > 0.0:
            break
        t_hi *= 2.0
    else:
        return y
    t_root = brentq(lambda t: c(y + t * direction), 0.0, t_hi, xtol=1e-15)
    # step just past the root so the iterate is feasible, not merely on it
    for pad in (0.0, 1e-12, 1e-10, 1e-8):
        cand = y + (t_root + pad * (1.0 + abs(t_root))) * direction
        if c(cand) >= 0.0:
            return cand
    return y


def _solve_from(y0: np.ndarray, cons: list[dict]):
    return minimize(
        lambda y: 0.5 * float(y @ y),
        y0,
        jac=lambda y: y,
        method="SLSQP",
        constraints=cons,
        options={"maxiter": MAX_INNER_ITER, "ftol": 1e-14},
    )


def _feasible(model: ReferenceModel, capital, constraints: ConstraintSet,
              s: np.ndarray, monotonicity_fn=None) -> bool:
    if not breaches(capital.ratio(s), capital.r_star):
        return False
    if not constraints.satisfied(s, tol=1e-8):
        return False
    if monotonicity_fn is not None and constraints.enforce_monotonicity:
        if monotonicity_fn(s) > TOL_CONSTRAINT:
            return False
    return True


def _dedup(optima: list[LocalOptimum]) -> list[LocalOptimum]:
    kept: list[LocalOptimum] = []
    for opt in sorted(optima, key=lambda o: (round(o.mahalanobis_sq, 9),
                                             tuple(o.y))):
        if all(np.linalg.norm(opt.y - k.y) > DEDUP_RADIUS for k in kept):
            kept.append(opt)
    return kept


def solve_design_point(model: ReferenceModel, capital,
                       constraints: ConstraintSet | None = None,
                       config: SolverConfig | None = None,
                       monotonicity_fn=None) -> DesignPointResult:
    """Find the most plausible capital-breaching scenario.

    Multi-start SLSQP in whitened coordinates, feasibility polish onto the
    breach frontier, deduplication of local optima, and a deterministic
    lexicographic tie-break. Raises InfeasibleError when no breach exists
    within bounds, NonConvergenceError when starts exist but none converge
    to a feasible point.
    """
    if constraints is None:
        constraints = ConstraintSet()
    if config is None:
        config = SolverConfig()
    rng = np.random.default_rng(config.seed)
    starts = _generate_starts(model, capital, constraints, config, rng)
    cons = _build_constraints(model, capital, constraints,
                              monotonicity_fn=monotonicity_fn)

    probe_breach = any(
        breaches(capital.ratio(constraints.clip(model.unwhiten(y))),
                 capital.r_star)
        for y in starts)

    optima: list[LocalOptimum] = []
    best_infeasible: tuple[float, np.ndarray] | None = None
    for idx, y0 in enumerate(starts):
        res = _solve_from(y0, cons)
        y = _polish_to_frontier(model, capital, res.x)
        s = model.unwhiten(y)
        if _feasible(model, capital, constraints, s, monotonicity_fn):
            optima.append(LocalOptimum(
                s=s, y=y, mahalanobis_sq=float(y @ y),
                ratio=capital.ratio(s), start_index=idx))
        else:
            obj = float(y @ y)
            if best_infeasible is None or obj < best_infeasible[0]:
                best_infeasible = (obj, s)

    if not optima:
        if not probe_breach:
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
        n_starts=len(starts),
    )


def conditional_anchor(model: ReferenceModel, capital,
                       constraints: ConstraintSet, g_j: float,
                       config: SolverConfig | None = None,
                       monotonicity_fn=None) -> np.ndarray | None:
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
    cons = _build_constraints(model, capital, constraints,
                              monotonicity_fn=monotonicity_fn, g_fixed=g_j)

    def solve(s0):
        return _anchor_from(model, capital, constraints, cons, s0, g_j,
                            monotonicity_fn)

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
                 cons: list[dict], s0: np.ndarray, g_j: float,
                 monotonicity_fn) -> np.ndarray | None:
    """One fixed-g solve from s0: SLSQP, then the polished iterate or, failing
    that, the raw one, snapped to g_j and moved into the breach set. Returns
    the first of the two that is feasible, or None."""
    res = _solve_from(model.whiten(s0), cons)
    for y in (_polish_to_frontier(model, capital, res.x), res.x):
        s = model.unwhiten(y)
        if abs(s[0] - g_j) > 1e-6 * max(1.0, abs(g_j)):
            continue
        s[0] = g_j  # snap away residual solver tolerance
        s = _breach_at_fixed_g(model, capital, s)
        if s is not None and _feasible(model, capital, constraints, s,
                                       monotonicity_fn):
            return s
    return None


def _breach_at_fixed_g(model: ReferenceModel, capital,
                       s: np.ndarray) -> np.ndarray | None:
    """Return s, or s moved outward in x at its fixed g so that R <= r_star.

    Snapping g back onto the grid value can leave a frontier iterate a few
    ulps above r_star. At a conditional optimum with an active breach
    constraint, R decreases along the x-part of grad m^2 (the KKT
    condition), so a short step along it restores the breach without
    touching g: the step is twice the secant estimate, quadrupled while it
    falls short. Returns None when R does not decrease along that direction.
    """
    r = capital.ratio(s)
    if breaches(r, capital.r_star):
        return s
    u = np.linalg.solve(model.sigma, s)
    u[0] = 0.0
    norm = np.linalg.norm(u)
    if not norm > 0.0:
        return None
    u /= norm
    h = 1e-7 * (1.0 + np.linalg.norm(s))
    slope = (capital.ratio(s + h * u) - r) / h
    if not slope < 0.0:
        return None
    t = 2.0 * (r - capital.r_star) / -slope
    for _ in range(8):
        cand = s + t * u
        if breaches(capital.ratio(cand), capital.r_star):
            return cand
        t *= 4.0
    return None


@dataclass
class GridOracleResult:
    s: np.ndarray
    mahalanobis_sq: float
    cell_size: tuple[float, float]


def grid_oracle(model: ReferenceModel, capital, constraints: ConstraintSet,
                resolution: int, x_bounds: tuple[float, float] | None = None,
                g_bounds: tuple[float, float] | None = None) -> GridOracleResult | None:
    """Exhaustive 2-D scan: the feasible grid point with minimal distance.

    Independent validator for the solver; returns None when no grid point
    breaches (infeasible signal).
    """
    if model.d != 2:
        raise InvalidInputError("grid oracle only supports d = 2")
    if resolution < 2:
        raise InvalidInputError("resolution must be >= 2")
    if g_bounds is None:
        if constraints.g_max is None:
            raise InvalidInputError("grid oracle needs finite g bounds")
        g_bounds = (constraints.g_min, constraints.g_max)
    if x_bounds is None:
        lo = constraints.x_bound("min", 2)
        hi = constraints.x_bound("max", 2)
        if lo is None or hi is None:
            raise InvalidInputError("grid oracle needs finite x bounds")
        x_bounds = (float(lo[0]), float(hi[0]))
    g_axis = np.linspace(g_bounds[0], g_bounds[1], resolution)
    x_axis = np.linspace(x_bounds[0], x_bounds[1], resolution)
    G, X = np.meshgrid(g_axis, x_axis, indexing="ij")
    S = np.column_stack([G.ravel(), X.ravel()])
    ratio = capital.ratio_many(S)
    feasible = breaches(ratio, capital.r_star) & (S[:, 0] >= constraints.g_min)
    if not np.any(feasible):
        return None
    m2 = model.mahalanobis_sq(S[feasible])
    idx = int(np.argmin(m2))
    cell = (g_axis[1] - g_axis[0], x_axis[1] - x_axis[0])
    return GridOracleResult(s=S[feasible][idx], mahalanobis_sq=float(m2[idx]),
                            cell_size=cell)
