"""Span tracing of georst from outside the program.

``Tracer.install()`` replaces every binding of the wrapped functions and
methods in the loaded ``georst`` modules, names imported with
``from .x import y`` included, and ``uninstall()`` puts the originals back.
Each span records its parent: self time is the span's duration minus the
time of its wrapped children. Spans are aggregated in memory per
(span name, innermost enclosing stage); a stage is one of the spans in
``STAGES``, so every ``R(s)`` call is charged to the stage that caused it.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

import numpy as np
from scipy.linalg import solve_triangular

# span name -> stage label, for spans that open a stage
STAGES = {
    "runner.build_context": "setup",
    "runner.run_design_point": "report",
    "runner.run_scenario_list": "report",
    "solver.solve_design_point": "design_point",
    "solver.conditional_anchor": "conditional_anchor",
    "scenario_sets.build_pool": "pool_build",
    "scenario_sets.reduce_farthest_point": "reduction",
}

# module -> wrapped public functions; every binding of each function object
# in any georst module is patched
FUNCTIONS = {
    "dataio": ["load_covariance", "load_history", "load_sensitivities",
               "load_portfolio", "load_sector_portfolio", "load_alpha"],
    "transmission": ["smooth_monotonicity_violation"],
    "special_functions": ["normal_quantile", "normal_cdf", "normal_pdf",
                          "chi2_cdf", "f_cdf", "regularized_incomplete_gamma",
                          "regularized_incomplete_beta"],
    "loss": ["loss_quantile", "conditional_default_prob"],
    "capital": ["risk_weight", "risk_weight_pd_derivative",
                "calibrate_linear_alpha", "rwa_stressed_flagged",
                "cet1_stressed"],
    "reference": ["estimate_covariance"],
    "solver": ["solve_design_point", "conditional_anchor"],
    "scenario_sets": ["build_pool", "local_sample", "hit_and_run",
                      "reduce_farthest_point", "driver_decomposition",
                      "default_g_grid"],
    "sectors": ["aggregate_sectors"],
    "runner": ["build_context", "run_design_point", "run_scenario_list"],
}

# (module, class, method, span name); methods are patched on the class
METHODS = [
    ("transmission", "Portfolio", "__post_init__", "transmission.portfolio_init"),
    ("transmission", "Portfolio", "stressed_pd", "transmission.stressed_pd"),
    ("transmission", "Portfolio", "stressed_lgd", "transmission.stressed_lgd"),
    ("capital", "CreditCapitalModel", "ratio", "capital.ratio"),
    ("capital", "CreditCapitalModel", "ratio_many", "capital.ratio_many"),
    ("capital", "CreditCapitalModel", "cet1", "capital.cet1"),
    ("capital", "CreditCapitalModel", "rwa", "capital.rwa"),
    ("reference", "ReferenceModel", "whiten", "reference.whiten"),
    ("reference", "ReferenceModel", "whiten_many", "reference.whiten_many"),
    ("reference", "ReferenceModel", "unwhiten", "reference.unwhiten"),
    ("reference", "ReferenceModel", "mahalanobis_sq", "reference.mahalanobis_sq"),
    ("reference", "ReferenceModel", "mahalanobis_sq_many",
     "reference.mahalanobis_sq_many"),
    ("reference", "ReferenceModel", "neg_log_density", "reference.neg_log_density"),
    ("reference", "ReferenceModel", "tail_probability", "reference.tail_probability"),
    ("reference", "ReferenceModel", "plausibility", "reference.plausibility"),
    ("scenario_sets", "Membership", "__call__", "scenario_sets.membership"),
    ("sectors", "SectorPortfolio", "to_portfolio", "sectors.to_portfolio"),
]

SLSQP = "solver.slsqp"


class Tracer:
    """In-memory span aggregation plus the counters the hooks fill in."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.spans: dict[tuple[str, str], list[float]] = {}
        self.counts: Counter = Counter()
        self.pools: list[tuple[dict, int]] = []
        self._stack: list[list[float]] = []
        self._stages: list[str] = []
        self._slsqp_depth = 0

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "georst" or name.startswith("georst.")]
        for short, names in FUNCTIONS.items():
            mod = sys.modules[f"georst.{short}"]
            for attr in names:
                orig = getattr(mod, attr)
                self._rebind(modules, orig,
                             self._wrap(f"{short}.{attr}", orig))
        solver = sys.modules["georst.solver"]
        self._rebind(modules, solver.minimize,
                     self._wrap(SLSQP, solver.minimize))
        for short, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"georst.{short}"], cls_name)
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(span, orig))

    def _rebind(self, modules, orig, wrapped):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stage = STAGES.get(name)
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        sig = inspect.signature(fn) if hook is not None else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack, stages = self._stack, self._stages
            parent_stage = stages[-1] if stages else "none"
            if name == "capital.ratio" and self._slsqp_depth:
                self.counts["solver.slsqp.ratio_calls"] += 1
            elif name == SLSQP:
                self._slsqp_depth += 1
            if stage is not None:
                stages.append(stage)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                if stage is not None:
                    stages.pop()
                if name == SLSQP:
                    self._slsqp_depth -= 1
                agg = self.spans.get((name, parent_stage))
                if agg is None:
                    agg = self.spans[(name, parent_stage)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
            if hook is not None:
                hook(lambda: _arguments(sig, args, kwargs), result)
            return result

        return wrapper

    # -- hooks: counts read from arguments and results ----------------------

    def _on_special_functions_normal_quantile(self, a, result):
        self.counts["normal_quantile.elements"] += int(np.size(result))

    def _on_solver_slsqp(self, a, result):
        self.counts["slsqp.nit"] += int(result.nit)
        self.counts["slsqp.success"] += bool(result.success)

    def _on_solver_solve_design_point(self, a, result):
        self.counts["design.optima"] += len(result.local_optima)
        self.counts["design.starts"] += result.n_starts

    def _on_scenario_sets_membership(self, a, result):
        self.counts["membership.accepted"] += bool(result)

    def _on_scenario_sets_local_sample(self, a, result):
        self.counts["local_sample.draws"] += int(a()["n"])
        self.counts["local_sample.accepted"] += len(result.accepted)

    def _on_scenario_sets_hit_and_run(self, a, result):
        a = a()
        chol = a["model"].chol
        # the chain's first point is the start after a whitening round trip
        prev = chol @ solve_triangular(chol, np.asarray(a["start"], dtype=float),
                                       lower=True)
        stalls = 0
        for s in result:
            stalls += bool(np.array_equal(s, prev))
            prev = s
        self.counts["hit_and_run.steps"] += int(a["n_steps"])
        self.counts["hit_and_run.stalls"] += stalls

    def _on_scenario_sets_build_pool(self, a, result):
        origins = Counter(e.origin.split("(")[0] for e in result.entries)
        self.pools.append((dict(origins), int(a()["n_target"])))

    def _on_capital_ratio_many(self, a, result):
        self.counts["ratio_many.rows"] += len(result)

    def _on_dataio_load_portfolio(self, a, result):
        self.counts["dataio.rows"] += result.n

    def _on_dataio_load_sector_portfolio(self, a, result):
        self.counts["dataio.rows"] += len(result.records)

    def _on_dataio_load_sensitivities(self, a, result):
        self.counts["dataio.rows"] += len(result)

    def _on_dataio_load_covariance(self, a, result):
        self.counts["dataio.rows"] += result[0].shape[0]

    def _on_dataio_load_history(self, a, result):
        self.counts["dataio.rows"] += result[0].shape[0]

    def _on_dataio_load_alpha(self, a, result):
        self.counts["dataio.rows"] += result.size

    # -- aggregates ---------------------------------------------------------

    def calls(self, name: str, stage: str | None = None) -> int:
        return sum(v[0] for (n, s), v in self.spans.items()
                   if n == name and (stage is None or s == stage))

    def total_s(self, name: str, stage: str | None = None) -> float:
        return sum(v[1] for (n, s), v in self.spans.items()
                   if n == name and (stage is None or s == stage))

    def self_s(self, prefix: str) -> float:
        """Self time of the span ``prefix`` or of every span under it."""
        return sum(v[2] for (n, _), v in self.spans.items()
                   if n == prefix or n.startswith(prefix + "."))


def _arguments(sig: inspect.Signature, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments
