"""Metric definitions and the per-layer metrics computed from a trace.

Each per-layer metric names the end-to-end metric it should move, the
workloads where it should, and the workloads where it should not.
``BENCHMARK.json`` lists the same names, units and directions; the
self-test checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracing import Tracer

DL, SL = "design-large-n", "scenario-list-sector"
ALL = (DL, SL)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""
    on: tuple[str, ...] = ()
    not_on: tuple[str, ...] = ()


END_TO_END = [
    Metric("setup_s", "s", "lower", "build_context on the generated files: "
           "CSV parse, Portfolio arrays, baseline loss quantile, linear-alpha "
           "calibration; median of builds spread over the whole run"),
    Metric("wall_s", "s", "lower", "median time of the command body after "
           "setup, report rendering included, tracing off"),
    Metric("peak_rss_mb", "MiB", "lower", "high-water resident memory of the "
           "workload's own process"),
    Metric("design_m2", "1", "lower", "squared Mahalanobis distance of the "
           "returned design point"),
]


def _m(name, unit, better, moves, on, not_on=()):
    return Metric(name, unit, better, moves, tuple(on), tuple(not_on))


PER_LAYER = [
    _m("dataio.load_s", "s", "lower", "setup_s", [DL], [SL]),
    _m("dataio.rows", "count", "lower", "setup_s", [DL], [SL]),
    _m("transmission.portfolio_init_s", "s", "lower", "setup_s", [DL], [SL]),
    _m("transmission.stressed_pd.calls", "count", "lower", "wall_s", [DL], [SL]),
    _m("transmission.stressed_pd.self_s", "s", "lower", "wall_s", [DL], [SL]),
    _m("transmission.stressed_lgd.self_s", "s", "lower", "wall_s", [DL], [SL]),
    _m("special_functions.normal_quantile.calls", "count", "lower", "wall_s",
       [DL, SL]),
    _m("special_functions.normal_quantile.elements", "count", "lower",
       "wall_s", [DL, SL]),
    _m("special_functions.normal_quantile.self_s", "s", "lower", "wall_s",
       [DL, SL]),
    _m("loss.loss_quantile.calls", "count", "lower", "wall_s", [DL]),
    _m("loss.loss_quantile.self_s", "s", "lower", "wall_s", [DL]),
    _m("capital.ratio.calls", "count", "lower", "wall_s", ALL),
    _m("capital.ratio.self_s", "s", "lower", "wall_s", ALL),
    _m("capital.ratio.us_per_call", "us", "lower", "wall_s", [DL]),
    _m("capital.ratio.wall_frac", "ratio", "lower", "wall_s", ALL),
    _m("capital.cet1.self_s", "s", "lower", "wall_s", ALL),
    _m("capital.rwa.self_s", "s", "lower", "wall_s", ALL),
    _m("capital.ratio_many.rows", "count", "higher", "wall_s peak_rss_mb",
       [SL], [DL]),
    _m("capital.rwa_floor_hits", "count", "lower", "wall_s", ALL),
    _m("reference.whiten.calls", "count", "lower", "wall_s", [SL], [DL]),
    _m("reference.mahalanobis_sq.calls", "count", "lower", "wall_s", [SL],
       [DL]),
    _m("reference.self_s", "s", "lower", "wall_s", [SL], [DL]),
    _m("reference.tail_probability.self_s", "s", "lower", "wall_s", [SL],
       [DL]),
    _m("solver.solve_design_point.s", "s", "lower", "wall_s", [SL, DL]),
    _m("solver.solve_design_point.ratio_calls", "count", "lower", "wall_s",
       [SL, DL]),
    _m("solver.slsqp.calls", "count", "lower", "wall_s", [SL, DL]),
    _m("solver.slsqp.nit", "count", "lower", "wall_s", [SL, DL]),
    _m("solver.slsqp.success_frac", "ratio", "higher", "design_m2", [SL, DL],),
    _m("solver.slsqp.ratio_calls", "count", "lower", "wall_s", [SL, DL]),
    _m("solver.optima_distinct_frac", "ratio", "higher", "wall_s", [SL, DL],),
    _m("solver.conditional_anchor.calls", "count", "lower", "wall_s", [SL],),
    _m("solver.conditional_anchor.s", "s", "lower", "wall_s", [SL]),
    _m("solver.conditional_anchor.ratio_calls", "count", "lower", "wall_s",
       [SL]),
    _m("solver.anchor_kept_frac", "ratio", "higher", "wall_s", [SL]),
    _m("scenario_sets.build_pool.s", "s", "lower", "wall_s", [SL], [DL]),
    _m("scenario_sets.build_pool.ratio_calls", "count", "lower", "wall_s",
       [SL], [DL]),
    _m("scenario_sets.membership.calls", "count", "lower", "wall_s", [SL],
       [DL]),
    _m("scenario_sets.membership.self_s", "s", "lower", "wall_s", [SL],
       [DL]),
    _m("scenario_sets.membership.accept_frac", "ratio", "higher", "wall_s",
       [SL], [DL]),
    _m("scenario_sets.local_sample.draws", "count", "lower", "wall_s", [SL],
       [DL]),
    _m("scenario_sets.local_sample.accept_frac", "ratio", "higher", "wall_s",
       [SL], [DL]),
    _m("scenario_sets.hit_and_run.steps", "count", "lower", "wall_s", [SL],
       [DL]),
    _m("scenario_sets.hit_and_run.stall_frac", "ratio", "lower", "wall_s",
       [SL], [DL]),
    _m("scenario_sets.hit_and_run_stall_warnings", "count", "lower", "wall_s",
       [SL], [DL]),
    _m("scenario_sets.pool.anchor", "count", "higher", "pool_fill", [SL], [DL]),
    _m("scenario_sets.pool.grid_anchor", "count", "higher", "pool_fill", [SL],
       [DL]),
    _m("scenario_sets.pool.local_draw", "count", "higher", "pool_fill", [SL],
       [DL]),
    _m("scenario_sets.pool.hit_and_run", "count", "higher", "pool_fill", [SL],
       [DL]),
    _m("scenario_sets.pool_fill", "ratio", "higher", "pool_fill", [SL], [DL]),
    _m("scenario_sets.pool_shortfall_warnings", "count", "lower", "pool_fill",
       [SL], [DL]),
    _m("scenario_sets.reduce_farthest_point.s", "s", "lower", "wall_s", [SL],
       [DL]),
    _m("sectors.aggregate_sectors.s", "s", "lower", "wall_s", [DL], [SL]),
    _m("runner.build_context.s", "s", "lower", "setup_s", ALL),
    _m("runner.report.s", "s", "lower", "wall_s", ALL),
    _m("trace.wall_s", "s", "lower", "wall_s", ALL),
    _m("trace.overhead_frac", "ratio", "lower", "", ALL),
]

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def _frac(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def setup_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced ``build_context``."""
    return {
        "dataio.load_s": t.self_s("dataio"),
        "dataio.rows": t.counts["dataio.rows"],
        "transmission.portfolio_init_s": t.total_s("transmission.portfolio_init"),
        "runner.build_context.s": t.total_s("runner.build_context"),
    }


def command_metrics(t: Tracer, wall_s: float, floor_hits: int,
                    warnings: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced command."""
    c = t.counts
    ratio_calls = t.calls("capital.ratio")
    ratio_s = t.total_s("capital.ratio")
    pool_members = pool_target = 0
    origins = {"anchor": 0, "grid_anchor": 0, "local_draw": 0, "hit_and_run": 0}
    for composition, target in t.pools:
        pool_members += sum(composition.values())
        pool_target += target
        for origin, count in composition.items():
            origins[origin] += count
    anchors_tried = t.calls("solver.conditional_anchor", "pool_build")
    return {
        "transmission.stressed_pd.calls": t.calls("transmission.stressed_pd"),
        "transmission.stressed_pd.self_s": t.self_s("transmission.stressed_pd"),
        "transmission.stressed_lgd.self_s": t.self_s("transmission.stressed_lgd"),
        "special_functions.normal_quantile.calls":
            t.calls("special_functions.normal_quantile"),
        "special_functions.normal_quantile.elements":
            c["normal_quantile.elements"],
        "special_functions.normal_quantile.self_s":
            t.self_s("special_functions.normal_quantile"),
        "loss.loss_quantile.calls": t.calls("loss.loss_quantile"),
        "loss.loss_quantile.self_s": t.self_s("loss.loss_quantile"),
        "capital.ratio.calls": ratio_calls,
        "capital.ratio.self_s": t.self_s("capital.ratio"),
        "capital.ratio.us_per_call": 1e6 * _frac(ratio_s, ratio_calls),
        "capital.ratio.wall_frac": _frac(ratio_s, wall_s),
        "capital.cet1.self_s": t.self_s("capital.cet1"),
        "capital.rwa.self_s": t.self_s("capital.rwa"),
        "capital.ratio_many.rows": c["ratio_many.rows"],
        "capital.rwa_floor_hits": floor_hits,
        "reference.whiten.calls": t.calls("reference.whiten"),
        "reference.mahalanobis_sq.calls": t.calls("reference.mahalanobis_sq"),
        "reference.self_s": t.self_s("reference"),
        "reference.tail_probability.self_s":
            t.self_s("reference.tail_probability"),
        "solver.solve_design_point.s": t.total_s("solver.solve_design_point"),
        "solver.solve_design_point.ratio_calls":
            t.calls("capital.ratio", "design_point"),
        "solver.slsqp.calls": t.calls("solver.slsqp"),
        "solver.slsqp.nit": c["slsqp.nit"],
        "solver.slsqp.success_frac":
            _frac(c["slsqp.success"], t.calls("solver.slsqp")),
        "solver.slsqp.ratio_calls": c["solver.slsqp.ratio_calls"],
        "solver.optima_distinct_frac":
            _frac(c["design.optima"], c["design.starts"]),
        "solver.conditional_anchor.calls": t.calls("solver.conditional_anchor"),
        "solver.conditional_anchor.s": t.total_s("solver.conditional_anchor"),
        "solver.conditional_anchor.ratio_calls":
            t.calls("capital.ratio", "conditional_anchor"),
        "solver.anchor_kept_frac": _frac(origins["grid_anchor"], anchors_tried),
        "scenario_sets.build_pool.s": t.total_s("scenario_sets.build_pool"),
        "scenario_sets.build_pool.ratio_calls":
            t.calls("capital.ratio", "pool_build"),
        "scenario_sets.membership.calls": t.calls("scenario_sets.membership"),
        "scenario_sets.membership.self_s": t.self_s("scenario_sets.membership"),
        "scenario_sets.membership.accept_frac":
            _frac(c["membership.accepted"], t.calls("scenario_sets.membership")),
        "scenario_sets.local_sample.draws": c["local_sample.draws"],
        "scenario_sets.local_sample.accept_frac":
            _frac(c["local_sample.accepted"], c["local_sample.draws"]),
        "scenario_sets.hit_and_run.steps": c["hit_and_run.steps"],
        "scenario_sets.hit_and_run.stall_frac":
            _frac(c["hit_and_run.stalls"], c["hit_and_run.steps"]),
        "scenario_sets.hit_and_run_stall_warnings": warnings["hit_and_run_stall"],
        **{f"scenario_sets.pool.{k}": v for k, v in origins.items()},
        "scenario_sets.pool_fill": _frac(pool_members, pool_target),
        "scenario_sets.pool_shortfall_warnings": warnings["pool_shortfall"],
        "scenario_sets.reduce_farthest_point.s":
            t.total_s("scenario_sets.reduce_farthest_point"),
        "sectors.aggregate_sectors.s": t.total_s("sectors.aggregate_sectors"),
        "runner.report.s": sum(t.self_s(f"runner.{n}") for n in
                               ("run_design_point", "run_scenario_list")),
    }
