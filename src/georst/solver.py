"""Design-point solver: constrained maximum-likelihood reverse stress test.

Minimizes half the squared Mahalanobis distance over the capital-breaching
set, subject to g > 0 (as g >= g_min), optional box bounds, and optional
linear monotonicity rows. All optimization runs in whitened coordinates with
multi-start, each start solved by a small sequential quadratic program
(``minimize``) in NumPy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .capital import breaches
from .errors import InfeasibleError, InvalidInputError, NonConvergenceError
from .reference import ReferenceModel
from .special_functions import normal_quantile

G_MIN_DEFAULT = 1e-6
TOL_CONSTRAINT = 1e-8   # box and monotonicity; the breach has no slack
DEDUP_RADIUS = 1e-3     # whitened distance between distinct local optima
CONFIRMATIONS = 2       # consecutive starts re-finding the best that end a solve
MAX_INNER_ITER = 200    # SQP iterations per start
# The SQP stops once |f_k - f_(k-1)| < FTOL, an absolute bound on
# f = m^2 / 2. 1e-12 is at least 8 ulps of f for every f < 1024
# (m^2 < 2048); a tighter bound sits below one ulp of f once f >= 64, and
# the solve then runs R(s) on round-off. The same bound limits the summed
# constraint violation: the polish steps onto the breaching side of the
# frontier, and the box and monotonicity rows stay far inside
# TOL_CONSTRAINT.
FTOL = 1e-12
LINE_SEARCH_MAX = 10    # merit evaluations per SQP iteration
RELAX_WEIGHT = 100.0    # Kraft's weight of the relaxation in an augmented QP
STEP_MIN = 0.1          # smallest line-search shrink factor
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


class _Problem:
    """One solve's problem over its free whitened coordinates x, the only
    code that knows a held g: x is all of y, s = L y; or, with g_fixed,
    y[1:], with y_0 = g_fixed / L_00 held and s[0] set to g_fixed (L is
    lower triangular, so s[0] depends on y_0 alone).

    margin(x) is the scaled breach margin c = (r_star - R(s)) / scale,
    c >= 0 on the breach set, and keeps its point's scenario s and ratio r;
    margin_grad() is c's gradient in x at s, which reuses that call's
    kernel pass. A x >= b are the linear rows: the box's finite bounds,
    L_i y >= lo_i and -L_i y >= -hi_i, and the monotonicity rows M L y >= 0
    when they are set. With g_fixed, g's own bounds drop out and the held
    y_0 moves the y_0 column into b.
    """

    def __init__(self, model: ReferenceModel, capital,
                 constraints: ConstraintSet, g_fixed: float | None = None):
        self.model, self.capital, self.g_fixed = model, capital, g_fixed
        self.scale = max(capital.r0 - capital.r_star, 1e-12)
        L = model.chol
        lo, hi = constraints.bounds(model.d)
        self.y = np.zeros(model.d)
        self.free = slice(None)
        if g_fixed is not None:
            lo[0], hi[0] = -np.inf, np.inf
            self.y[0] = g_fixed / L[0, 0]
            self.free = slice(1, None)
        has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
        M = (np.empty((0, model.d)) if constraints.monotonicity is None
             else constraints.monotonicity)
        A = np.vstack([L[has_lo], -L[has_hi], M @ L])
        b = np.concatenate([lo[has_lo], -hi[has_hi], np.zeros(len(M))])
        self.A = np.ascontiguousarray(A[:, self.free])
        self.b = b if g_fixed is None else b - A[:, 0] * self.y[0]

    def scenario(self, x: np.ndarray) -> np.ndarray:
        self.y[self.free] = x
        s = self.model.unwhiten(self.y)
        if self.g_fixed is not None:
            s[0] = self.g_fixed
        return s

    def margin(self, x: np.ndarray) -> float:
        self.s = self.scenario(x)
        self.r = self.capital.ratio(self.s)
        return (self.capital.r_star - self.r) / self.scale

    def margin_grad(self) -> np.ndarray:
        grad = self.capital.ratio_grad(self.s) @ self.model.chol
        return -grad[self.free] / self.scale


@dataclass
class SQPResult:
    """The end of one ``minimize`` solve: its point x, its status (0
    converged, 4 QP subproblem infeasible, 9 iteration cap), the iterations
    run and the last QP's multipliers, the breach row's first, then one per
    row of A."""

    x: np.ndarray
    status: int
    nit: int
    multipliers: np.ndarray

    @property
    def success(self) -> bool:
        return self.status == 0


def _qp_multipliers(Q: np.ndarray, q: np.ndarray) -> np.ndarray | None:
    """The multipliers lam >= 0 minimizing lam' Q lam / 2 - q' lam, the dual
    of the QP subproblem, or None when the QP is infeasible.

    A dual active set after Lawson & Hanson (1974, ch. 23) and Goldfarb &
    Idnani (1983): the index j with the largest gradient w_j = q_j - Q_j lam
    > 0 joins the free set P along the direction d (d_j = 1, d_P = -v,
    v = Q_PP^-1 Q_Pj) that keeps w_P = 0. Along d the objective falls at
    rate w_j with curvature s = Q_jj - Q_jP v, so the step is w_j / s,
    unless a free multiplier reaches 0 first and leaves P. With one free
    index that is the closed form lam_j = q_j / Q_jj. A row dependent on
    the free rows (s <= 1e-12 Q_jj) whose ray no free multiplier stops
    makes the dual unbounded: the QP is infeasible.
    """
    lam = np.zeros(len(q))
    P: list[int] = []   # the free indices
    tol = 1e-14 * (1.0 + float(np.abs(q).max()))
    for _ in range(3 * len(q)):
        w = q - Q @ lam
        w[P] = -np.inf
        j = int(w.argmax())
        if not w[j] > tol:
            break
        while True:
            v = (np.linalg.solve(Q[np.ix_(P, P)], Q[P, j]) if P
                 else np.zeros(0))
            s = float(Q[j, j] - Q[j, P] @ v)
            t = (q[j] - Q[j] @ lam) / s if s > 1e-12 * Q[j, j] else np.inf
            stops = np.flatnonzero(v > 0.0)
            if len(stops):
                ratios = lam[P][stops] / v[stops]
                k = int(ratios.argmin())
                if ratios[k] < t:
                    # a free multiplier reaches 0 first: it leaves P
                    lam[P] -= ratios[k] * v
                    lam[j] += ratios[k]
                    lam[P[stops[k]]] = 0.0
                    del P[stops[k]]
                    continue
            if t == np.inf:
                return None
            lam[P] -= t * v
            lam[j] += t
            P.append(j)
            break
    return lam


def _qp_step(H: np.ndarray, J: np.ndarray, x: np.ndarray, c: np.ndarray):
    """The QP step p = H (J' lam - x), its multipliers lam and the
    relaxation delta (0 unless the QP is infeasible), or None.

    An infeasible QP is replaced, as Kraft does, by the augmented QP in
    (p, delta), 0 <= delta <= 1, with cost RELAX_WEIGHT delta^2 / 2 added,
    where each violated row relaxes to J_j p + (1 - delta) c_j >= 0;
    p = 0, delta = 1 is feasible in it.
    """
    HJ = H @ J.T
    Hx = H @ x
    lam = _qp_multipliers(J @ HJ, J @ Hx - c)
    if lam is not None:
        return HJ @ lam - Hx, lam, 0.0
    (m, n), v = J.shape, np.maximum(-c, 0.0)
    H_aug = np.zeros((n + 1, n + 1))
    H_aug[:n, :n] = H
    H_aug[n, n] = 1.0 / RELAX_WEIGHT
    J_aug = np.zeros((m + 2, n + 1))
    J_aug[:m, :n], J_aug[:m, n], J_aug[m:, n] = J, v, (1.0, -1.0)
    HJ, Hx = H_aug @ J_aug.T, H_aug[:, :n] @ x
    lam = _qp_multipliers(J_aug @ HJ, J_aug @ Hx - np.append(c, (0.0, 1.0)))
    if lam is None:
        return None
    step = HJ @ lam - Hx
    return step[:n], lam[:m], float(step[n])


def minimize(x0: np.ndarray, margin, margin_grad, A: np.ndarray,
             b: np.ndarray) -> SQPResult:
    """Minimize f(x) = |x|^2 / 2 subject to margin(x) >= 0 and A x >= b.

    Sequential quadratic programming after Kraft (1988). Each iteration
    solves the QP min g'p + p'Bp / 2 subject to J p + c >= 0 (g = x, J the
    margin's gradient on top of A, c the constraint values) in its dual,
    through ``_qp_step``, with B the damped BFGS (Powell 1978,
    factor 0.2) model of the Lagrangian's Hessian, held as its inverse H
    from H = I, so p = H (J' lam - g). A backtracking line search on the
    l1 merit f + mu' max(-c, 0), with Kraft's mu update and his quadratic
    interpolation, takes the step; margin_grad() is the margin's gradient
    at the point of the last margin call. The solve stops (status 0) once
    the QP step is zero to FTOL (|g'p| + |lam|'|c| < FTOL) or f moves by
    less than FTOL, in each case with a summed violation below FTOL.
    Status 4 is an infeasible QP whose relaxation cannot reduce the
    violation, and 9 the iteration cap, the numbers of Kraft's code. Only
    NumPy runs, and every product is at most (d, d), so the iterates do not
    depend on the BLAS thread count.
    """
    x = np.array(x0, dtype=float)
    n, m = x.size, len(A) + 1
    H = np.eye(n)
    J = np.empty((m, n))
    J[1:] = A
    c = np.empty(m)
    c[0], c[1:] = margin(x), A @ x - b
    J[0] = margin_grad()
    f = 0.5 * float(x @ x)
    mu = np.zeros(m)
    for nit in range(1, MAX_INNER_ITER + 1):
        step = _qp_step(H, J, x, c)
        if step is None:
            return SQPResult(x, 4, nit, np.zeros(m))
        p, lam, relax = step
        gp = float(x @ p)
        viol = np.maximum(-c, 0.0)
        if relax and (1.0 - relax) * float(viol.sum()) < FTOL:
            # the linearization cannot reduce the violation: a stationary
            # point of infeasibility
            return SQPResult(x, 4, nit, lam)
        if (abs(gp) + float(lam @ np.abs(c)) < FTOL
                and float(viol.sum()) < FTOL):
            return SQPResult(x, 0, nit, lam)
        mu = np.maximum(lam, 0.5 * (mu + lam))
        penalty = float(mu @ viol)
        phi_0, slope = f + penalty, gp - (1.0 - relax) * penalty
        t = 1.0
        c_new = np.empty(m)
        for trial in range(1, LINE_SEARCH_MAX + 1):
            x_new = x + t * p
            c_new[0], c_new[1:] = margin(x_new), A @ x_new - b
            f_new = 0.5 * float(x_new @ x_new)
            viol = np.maximum(-c_new, 0.0)
            gain = f_new + float(mu @ viol) - phi_0
            if gain <= 0.1 * t * slope or trial == LINE_SEARCH_MAX:
                break
            t *= max(t * slope / (2.0 * (t * slope - gain)), STEP_MIN)
        if abs(f_new - f) < FTOL and float(viol.sum()) < FTOL:
            return SQPResult(x_new, 0, nit, lam)
        a_new = margin_grad()
        s = x_new - x
        Bs = t * (J.T @ lam - x)
        u = s - lam[0] * (a_new - J[0])
        sBs, su = float(s @ Bs), float(s @ u)
        if su < 0.2 * sBs:
            theta = 0.8 * sBs / (sBs - su)
            u = theta * u + (1.0 - theta) * Bs
            su = 0.2 * sBs
        if sBs > 0.0:
            Hu = H @ u
            H += ((su + float(u @ Hu)) / su * s[:, None] * s
                  - Hu[:, None] * s - s[:, None] * Hu) / su
        x, f, c, J[0] = x_new, f_new, c_new, a_new
    return SQPResult(x, 9, MAX_INNER_ITER, lam)


def _g_cap(model: ReferenceModel, constraints: ConstraintSet) -> float:
    if constraints.g_max is not None:
        return constraints.g_max
    return normal_quantile(0.999) * model.marginal_std(0)


def _g_start(model: ReferenceModel, constraints: ConstraintSet,
             g_j: float) -> np.ndarray:
    """The whitened start (g_j, 0, ..., 0), clipped to the box. It need not
    breach: ``minimize`` accepts an infeasible start (its l1 merit charges
    the violation, and an infeasible linearization is relaxed), and the
    polish moves its end onto the breaching side."""
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


def _polish_to_frontier(problem: _Problem, x: np.ndarray) -> np.ndarray | None:
    """Move a near-frontier SQP end x onto the breaching side of R = r_star.

    Returns the scenario of x if it breaches. Otherwise steps in x along
    the breach margin's gradient, taken at x itself so that it reuses the
    kernel pass of R(s), by the Newton step onto the linearized frontier,
    t = -c(x) / |grad c(x)|, and doubles t until x + t grad / |grad|
    breaches. Returns that first breaching scenario, or None once t passes
    POLISH_GROWTH times the Newton step. A held g is none of x's
    coordinates, so a fixed-g problem's scenarios keep g bit for bit.
    """
    r_star = problem.capital.r_star
    c = problem.margin(x)
    if breaches(problem.r, r_star):
        return problem.s
    grad = problem.margin_grad()
    norm = np.linalg.norm(grad)
    if not norm >= 1e-14:
        return None
    step = grad / norm
    t = -c / norm
    t_cap = t * POLISH_GROWTH
    while t <= t_cap:
        problem.margin(x + t * step)
        if breaches(problem.r, r_star):
            return problem.s
        t *= 2.0
    return None


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

    Multi-start SQP (``minimize``, NumPy alone, so the result does not
    depend on the BLAS thread count) in whitened coordinates, feasibility
    polish onto the breach frontier, deduplication of local optima, and a deterministic
    lexicographic tie-break. The starts run in order, sphere draws first,
    then g-grid starts. The search stops once CONFIRMATIONS starts in a row
    each end feasible within DEDUP_RADIUS of the best optimum so far; any
    other end (a new, distinct best, a different optimum, an infeasible
    point) resets the count. config.n_starts caps the starts, and the
    result's n_starts counts those run. A solve's end is the polished point,
    or the SQP's end when the polish finds none, whatever its status (0
    converged, 4 infeasible QP, 9 iteration cap). When no end is feasible,
    raises NonConvergenceError if some end, clipped to the box, breaches,
    and InfeasibleError otherwise.
    """
    if constraints is None:
        constraints = ConstraintSet()
    if config is None:
        config = SolverConfig()
    rng = np.random.default_rng(config.seed)
    starts = _generate_starts(model, constraints, config, rng)
    problem = _Problem(model, capital, constraints)

    ends: list[np.ndarray] = []
    optima: list[LocalOptimum] = []
    incumbent: LocalOptimum | None = None
    confirmed = 0
    for idx, y0 in enumerate(starts):
        res = minimize(y0, problem.margin, problem.margin_grad, problem.A,
                       problem.b)
        s = _polish_to_frontier(problem, res.x)
        if s is None:
            s = problem.scenario(res.x)
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

    The anchor is one ``minimize`` solve of the problem at g held at g_j,
    over y[1:] from (g_j, 0, ..., 0) clipped to the box, so the solve has
    no equality row. Its end is polished in the same coordinates; when that
    end is infeasible the anchor is None.
    """
    constraints.check_g(g_j)
    problem = _Problem(model, capital, constraints, g_fixed=g_j)
    res = minimize(_g_start(model, constraints, g_j)[problem.free],
                   problem.margin, problem.margin_grad, problem.A, problem.b)
    s = _polish_to_frontier(problem, res.x)
    return s if s is not None and _feasible(capital, constraints, s) else None


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
