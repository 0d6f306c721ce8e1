"""Run configuration, orchestration, and structured report output."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .capital import (CapitalState, CreditCapitalModel, LossBasis, RwaMode,
                      breaches, calibrate_linear_alpha)
from .dataio import (load_alpha, load_covariance, load_history,
                     load_portfolio, load_sector_portfolio, load_sensitivities)
from .errors import InvalidInputError
from .loss import LossQuantileSpec, mc_loss_quantile, loss_quantile
from .reference import Family, ReferenceModel, estimate_covariance
from .scenario_sets import (DEFAULT_LIST_SIZE, DEFAULT_POOL_SIZE,
                            DEFAULT_TOP_K, Membership, NearOptimalSpec,
                            NeighbourhoodSpec, TargetSet, build_pool,
                            reduce_farthest_point)
from .sectors import aggregate_sectors
from .solver import (G_MIN_DEFAULT, ConstraintSet, SolverConfig, grid_2d,
                     solve_design_point)
from .transmission import monotonicity_rows

DEFAULTS = {
    "q": LossQuantileSpec.q,
    "depletion": CapitalState.depletion,
    "g_min": G_MIN_DEFAULT,
    "pool_size": DEFAULT_POOL_SIZE,
    "list_size": DEFAULT_LIST_SIZE,
    "top_k": DEFAULT_TOP_K,
    "n_sims": 200000,
}

# The keys each config section may hold, exactly the ones the runner reads,
# and the JSON type of each value. Top level holds "seed" and these sections;
# any other key is an error, so a misspelt key cannot silently fall back to
# its default, and so is a value of another type ("false" is not false). A
# "count" is an integer >= 1, rejected here, before any R(s) call, rather
# than after the design point and the pool are built.
CONFIG_KEYS = {
    "reference": {"family": "string", "nu": "number", "covariance": "string",
                  "history": "string"},
    "portfolio": {"kind": "string", "path": "string",
                  "sensitivities": "string", "sign_constraints": "boolean"},
    "loss": {"q": "number", "n_sims": "integer"},
    "capital": {"cet1_0": "number", "rwa_0": "number", "depletion": "number",
                "r_star": "number", "rwa_mode": "string",
                "alpha_path": "string", "pnl_noncredit": "numbers",
                "loss_basis": "string", "maturity_adjustment": "boolean"},
    "constraints": {"g_min": "number", "g_max": "number", "x_min": "bounds",
                    "x_max": "bounds", "enforce_monotonicity": "boolean"},
    "solver": {"n_starts": "integer", "seed": "integer"},
    "scenario_set": {"target": "string", "eta": "number",
                     "epsilon": "number", "g_grid": "numbers",
                     "pool": "count", "list": "count", "top_k": "count"},
}


# each JSON type's Python types, and how an error message names it
JSON_TYPES = {
    "object": (dict, "an object"), "string": (str, "a string"),
    "boolean": (bool, "true or false"), "integer": (int, "an integer"),
    "count": (int, "an integer >= 1"),
    "number": ((int, float), "a finite number"),
    "numbers": (list, "a list of finite numbers"),
    "bounds": ((int, float, list), "a finite number or a list of them"),
}


def _is_a(kind: str, v) -> bool:
    """Whether a value parsed from JSON has the JSON type ``kind``."""
    if isinstance(v, bool):  # an int in Python, but JSON true is no number
        return kind == "boolean"
    if isinstance(v, list) and not all(_is_a("number", e) for e in v):
        return False
    if isinstance(v, float) and not math.isfinite(v):  # JSON NaN, Infinity
        return False
    if kind == "count" and isinstance(v, int) and v < 1:
        return False
    return isinstance(v, JSON_TYPES[kind][0])


def _check_keys(values: dict, types: dict, where: str):
    """Reject a key not in ``types`` or a value not of its type."""
    unknown = sorted(set(values).difference(types))
    if unknown:
        raise InvalidInputError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {where}")
    for key, value in values.items():
        if not _is_a(types[key], value):
            raise InvalidInputError(f"{key!r} in {where} must be "
                                    f"{JSON_TYPES[types[key]][1]}, "
                                    f"got {json.dumps(value)}")


@dataclass
class RunConfig:
    """Resolved run configuration (raw dict retained for hashing)."""

    raw: dict
    path: Path | None = None

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise InvalidInputError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"config {path} is not valid JSON: {exc}") from exc
        return cls(raw=raw, path=path)

    def section(self, name: str) -> dict:
        return self.raw.get(name, {})

    def check(self):
        """Reject an unknown key, a value of the wrong JSON type or a count
        below 1, naming its section and key."""
        if not isinstance(self.raw, dict):
            raise InvalidInputError("config must be a JSON object")
        _check_keys(self.raw, {"seed": "integer",
                               **dict.fromkeys(CONFIG_KEYS, "object")},
                    "the config's top level")
        for name, types in CONFIG_KEYS.items():
            _check_keys(self.section(name), types, f"config section {name!r}")

    def hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def _resolve(self, p) -> Path:
        p = Path(p)
        if not p.is_absolute() and self.path is not None:
            return self.path.parent / p
        return p


@dataclass
class RunContext:
    """Everything a command needs, assembled from a RunConfig."""

    config: RunConfig
    model: ReferenceModel
    portfolio: object
    capital: CreditCapitalModel
    constraints: ConstraintSet
    solver_config: SolverConfig
    loss_spec: LossQuantileSpec
    scenario_cfg: dict
    seed: int
    portfolio_kind: str


def build_context(config: RunConfig) -> RunContext:
    config.check()
    seed = config.raw.get("seed", 0)

    ref = config.section("reference")
    family = Family(ref.get("family", "gaussian"))
    nu = ref.get("nu")
    if "covariance" in ref:
        sigma, names = load_covariance(config._resolve(ref["covariance"]))
        model = ReferenceModel.from_covariance(sigma, family=family, nu=nu,
                                               factor_names=names)
    elif "history" in ref:
        X, names = load_history(config._resolve(ref["history"]))
        model = estimate_covariance(X, family=family, nu=nu, factor_names=names)
    else:
        raise InvalidInputError(
            "reference section needs a 'covariance' or 'history' path")

    pf = config.section("portfolio")
    if "path" not in pf or "sensitivities" not in pf:
        raise InvalidInputError("portfolio section needs 'path' and 'sensitivities'")
    sens = load_sensitivities(config._resolve(pf["sensitivities"]),
                              model.factor_names)
    sign_constraints = pf.get("sign_constraints", True)
    kind = pf.get("kind", "exposure")
    if kind == "exposure":
        portfolio = load_portfolio(config._resolve(pf["path"]), sens,
                                   sign_constraints=sign_constraints)
        engine_portfolio = portfolio
    elif kind == "sector":
        portfolio = load_sector_portfolio(config._resolve(pf["path"]), sens,
                                          sign_constraints=sign_constraints)
        engine_portfolio = portfolio.to_portfolio()
    else:
        raise InvalidInputError(f"unknown portfolio kind {kind!r}")
    if engine_portfolio.d != model.d:
        raise InvalidInputError(
            f"portfolio dimension {engine_portfolio.d} != reference dimension {model.d}")

    loss_cfg = config.section("loss")
    loss_spec = LossQuantileSpec(q=float(loss_cfg.get("q", DEFAULTS["q"])))

    cap = config.section("capital")
    for key in ("cet1_0", "rwa_0"):
        if key not in cap:
            raise InvalidInputError(f"capital section needs {key!r}")
    rwa_mode = RwaMode(cap.get("rwa_mode", CapitalState.rwa_mode))
    maturity_adjustment = cap.get("maturity_adjustment",
                                  CapitalState.maturity_adjustment)
    alpha = None
    if rwa_mode is RwaMode.LINEAR:
        if "alpha_path" in cap and cap["alpha_path"]:
            alpha = load_alpha(config._resolve(cap["alpha_path"]), engine_portfolio)
        else:
            alpha = calibrate_linear_alpha(engine_portfolio, loss_spec,
                                           maturity_adjustment)
    state = CapitalState(
        cet1_0=float(cap["cet1_0"]),
        rwa_0=float(cap["rwa_0"]),
        depletion=float(cap.get("depletion", DEFAULTS["depletion"])),
        r_star_override=cap.get("r_star"),
        rwa_mode=rwa_mode,
        alpha=alpha,
        pnl_noncredit=cap.get("pnl_noncredit"),
        loss_basis=LossBasis(cap.get("loss_basis", CapitalState.loss_basis)),
        maturity_adjustment=maturity_adjustment,
    )
    capital = CreditCapitalModel(engine_portfolio, state, loss_spec)

    con = config.section("constraints")
    for key in ("x_min", "x_max"):
        if isinstance(con.get(key), list) and len(con[key]) != model.d - 1:
            raise InvalidInputError(
                f"{key!r} in config section 'constraints' must be a number "
                f"or a list of {model.d - 1} numbers, got {json.dumps(con[key])}")
    # the constraints section's keys are ConstraintSet's fields, except
    # enforce_monotonicity, which sets its monotonicity rows
    con = dict(con, g_min=float(con.get("g_min", DEFAULTS["g_min"])))
    if con.pop("enforce_monotonicity", False):
        con["monotonicity"] = monotonicity_rows(engine_portfolio)
    constraints = ConstraintSet(**con)

    solver_config = SolverConfig(**{"seed": seed,
                                    **config.section("solver")})

    return RunContext(
        config=config, model=model, portfolio=engine_portfolio,
        capital=capital, constraints=constraints, solver_config=solver_config,
        loss_spec=loss_spec, scenario_cfg=config.section("scenario_set"),
        seed=seed, portfolio_kind=kind,
    )


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


class ReportWriter:
    """Deterministic key-value report; identical inputs give identical bytes."""

    def __init__(self, title: str, ctx: RunContext):
        self.lines = [f"# georst {title}"]
        self.kv("engine_version", __version__)
        self.kv("config_hash", ctx.config.hash())
        self.kv("seed", ctx.seed)

    def section(self, name: str):
        self.lines.append(f"[{name}]")

    def kv(self, key: str, value):
        self.lines.append(f"{key} = {_fmt(value)}")

    def row(self, *cells):
        self.lines.append("  ".join(_fmt(c) for c in cells))

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit_defaults(w: ReportWriter, ctx: RunContext):
    w.section("defaults")
    w.kv("q", ctx.loss_spec.q)
    w.kv("depletion", ctx.capital.state.depletion)
    w.kv("g_min", ctx.constraints.g_min)
    w.kv("n_starts", ctx.solver_config.n_starts)
    w.kv("pool_size", ctx.scenario_cfg.get("pool", DEFAULTS["pool_size"]))
    w.kv("list_size", ctx.scenario_cfg.get("list", DEFAULTS["list_size"]))
    w.kv("top_k", ctx.scenario_cfg.get("top_k", DEFAULTS["top_k"]))
    w.kv("rwa_mode", ctx.capital.state.rwa_mode.value)
    w.kv("loss_basis", ctx.capital.state.loss_basis.value)
    w.kv("maturity_adjustment", ctx.capital.state.maturity_adjustment)
    w.kv("family", ctx.model.family.value)
    if ctx.model.nu is not None:
        w.kv("nu", ctx.model.nu)
    w.kv("r0", ctx.capital.r0)
    w.kv("r_star", ctx.capital.r_star)


def _emit_design_point(w: ReportWriter, ctx: RunContext, result):
    w.section("design_point")
    for name, value in zip(ctx.model.factor_names, result.s_star):
        w.kv(f"s_star.{name}", value)
    w.kv("mahalanobis_sq", result.mahalanobis_sq)
    w.kv("tail_probability", result.tail_probability)
    w.kv("ratio", result.ratio_at_optimum)
    w.kv("constraint_active", result.active)
    w.section("local_optima")
    w.row("index", "mahalanobis_sq", "ratio", *ctx.model.factor_names)
    for i, opt in enumerate(result.local_optima):
        w.row(i, opt.mahalanobis_sq, opt.ratio, *opt.s)


def _emit_sector_table(w: ReportWriter, ctx: RunContext, s_star):
    w.section("sector_table")
    aggregates_0 = aggregate_sectors(ctx.portfolio, np.zeros(ctx.model.d))
    aggregates = aggregate_sectors(ctx.portfolio, s_star)
    w.row("sector_id", "ead", "pd0", "pd_star", "lgd0", "lgd_star")
    for base, agg in zip(aggregates_0, aggregates):
        w.row(agg.sector_id, agg.weight_total, base.pd_star, agg.pd_star,
              base.lgd_star, agg.lgd_star)


def run_design_point(ctx: RunContext) -> tuple[str, object]:
    result = solve_design_point(ctx.model, ctx.capital, ctx.constraints,
                                ctx.solver_config)
    w = ReportWriter("design-point report", ctx)
    _emit_defaults(w, ctx)
    _emit_design_point(w, ctx, result)
    _emit_sector_table(w, ctx, result.s_star)
    return w.render(), result


def _membership_from_cfg(ctx: RunContext, s_star, target: str | None = None):
    cfg = ctx.scenario_cfg
    target = TargetSet(target or cfg.get("target", "near-optimal"))
    if target is TargetSet.NEIGHBOURHOOD:
        spec = NeighbourhoodSpec(radius_eta=float(cfg.get("eta", 1.0)))
    else:
        spec = NearOptimalSpec(epsilon=float(cfg.get("epsilon", 1.0)))
    return Membership(target, ctx.model, ctx.capital, s_star, spec,
                      ctx.constraints)


def run_scenario_list(ctx: RunContext, target: str | None = None) -> tuple[str, object]:
    result = solve_design_point(ctx.model, ctx.capital, ctx.constraints,
                                ctx.solver_config)
    cfg = ctx.scenario_cfg
    membership = _membership_from_cfg(ctx, result.s_star, target)
    pool = build_pool(membership, result, g_grid=cfg.get("g_grid"),
                      n_target=cfg.get("pool", DEFAULTS["pool_size"]),
                      seed=ctx.seed)
    # a short pool (already warned of) lists every member after s*
    listing = reduce_farthest_point(
        ctx.model, pool, result.s_star,
        P=min(cfg.get("list", DEFAULTS["list_size"]), len(pool) + 1),
        capital=ctx.capital, k=cfg.get("top_k", DEFAULTS["top_k"]))

    w = ReportWriter("scenario-list report", ctx)
    _emit_defaults(w, ctx)
    w.kv("target", membership.target.value)
    if membership.target is TargetSet.NEIGHBOURHOOD:
        w.kv("eta", membership.spec.radius_eta)
    else:
        w.kv("epsilon", membership.spec.epsilon)
    _emit_design_point(w, ctx, result)
    w.section("pool")
    w.kv("pool_members", len(pool))
    w.section("scenario_list")
    w.row("index", "ratio", "mahalanobis_sq", "tail_probability", "rarity",
          "g", "drivers")
    for i, entry in enumerate(listing.entries):
        drivers = ";".join(
            f"{d.factor}{'+' if d.sign >= 0 else '-'}{d.magnitude:.6g}"
            for d in entry.drivers)
        w.row(i, entry.ratio, entry.mahalanobis_sq, entry.tail_probability,
              entry.rarity, entry.g_value, drivers)
    w.section("scenario_coordinates")
    w.row("index", *ctx.model.factor_names)
    for i, entry in enumerate(listing.entries):
        w.row(i, *entry.s)
    _emit_sector_table(w, ctx, result.s_star)
    return w.render(), (result, pool, listing)


def emit_contours(ctx: RunContext, resolution: int,
                  g_bounds: tuple[float, float] | None = None,
                  x_bounds: tuple[float, float] | None = None) -> str:
    """Grid of (g, x, m2, ratio, breach, in_S_eta, in_N_eps) for plotting."""
    if ctx.model.d != 2:
        raise InvalidInputError("contour output requires d = 2")
    if g_bounds is None:
        hi = ctx.constraints.g_max
        if hi is None:
            hi = 4.0 * ctx.model.marginal_std(0)
        g_bounds = (0.0, hi)
    if x_bounds is None:
        lim = 4.0 * ctx.model.marginal_std(1)
        x_bounds = (-lim, lim)
    S, _ = grid_2d(g_bounds, x_bounds, resolution)
    result = solve_design_point(ctx.model, ctx.capital, ctx.constraints,
                                ctx.solver_config)
    m_eta = _membership_from_cfg(ctx, result.s_star, TargetSet.NEIGHBOURHOOD)
    m_eps = _membership_from_cfg(ctx, result.s_star, TargetSet.NEAR_OPTIMAL)
    ratio = ctx.capital.ratio_many(S)
    columns = zip(S.tolist(), ctx.model.mahalanobis_sq(S).tolist(),
                  ratio.tolist(), breaches(ratio, ctx.capital.r_star),
                  m_eta.many(S), m_eps.many(S))
    lines = ["g,x,m2,ratio,breach,in_S_eta,in_N_eps"]
    for (g, x), m2, r, breach, in_eta, in_eps in columns:
        lines.append(",".join([
            repr(g), repr(x), repr(m2), repr(r), "1" if breach else "0",
            "1" if in_eta else "0", "1" if in_eps else "0"]))
    return "\n".join(lines) + "\n"


def run_validate(ctx: RunContext) -> str:
    """Dry-run consistency summary after a successful ingestion."""
    w = ReportWriter("validate report", ctx)
    _emit_defaults(w, ctx)
    w.section("inputs")
    w.kv("dimension", ctx.model.d)
    w.kv("factors", ",".join(ctx.model.factor_names))
    w.kv("portfolio_kind", ctx.portfolio_kind)
    w.kv("n_exposures", ctx.portfolio.n)
    w.kv("n_sectors", len(ctx.portfolio.sectors))
    w.kv("total_ead", ctx.portfolio.total_ead)
    w.kv("baseline_loss_quantile",
         loss_quantile(ctx.portfolio, np.zeros(ctx.model.d), ctx.loss_spec))
    r_zero = ctx.capital.ratio(np.zeros(ctx.model.d))
    w.kv("baseline_ratio", r_zero)
    w.kv("baseline_breach", breaches(r_zero, ctx.capital.r_star))
    return w.render()


def run_mc_check(ctx: RunContext, scenario=None, n_sims: int | None = None) -> str:
    """Analytic tail-loss quantile against the Monte Carlo oracle."""
    s = (np.zeros(ctx.model.d) if scenario is None
         else np.asarray(scenario, dtype=float))
    if n_sims is None:
        n_sims = ctx.config.section("loss").get("n_sims", DEFAULTS["n_sims"])
    analytic = loss_quantile(ctx.portfolio, s, ctx.loss_spec)
    mc = mc_loss_quantile(ctx.portfolio, s, ctx.loss_spec, n_sims=n_sims,
                          seed=ctx.seed)
    w = ReportWriter("mc-check report", ctx)
    _emit_defaults(w, ctx)
    w.section("comparison")
    for name, value in zip(ctx.model.factor_names, s):
        w.kv(f"scenario.{name}", float(value))
    w.kv("n_sims", mc.n_sims)
    w.kv("analytic_quantile", analytic)
    w.kv("mc_quantile", mc.quantile)
    w.kv("mc_std_error", mc.std_error)
    z = abs(analytic - mc.quantile) / mc.std_error if mc.std_error > 0 else 0.0
    w.kv("abs_z_score", z)
    w.kv("within_3_se", z <= 3.0)
    return w.render()
