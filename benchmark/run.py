"""georst benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The run generates the workload's input files
from the seed, imports georst from ``src/``, builds the run context, then
runs the workload's command in a closed loop with one client for S seconds,
rebuilding the context between commands to time setup (``setup_s``), and
checks every output. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced commands and reports
the per-layer metrics, the traced wall time and the tracing overhead. Lines starting with ``#`` give the environment,
every sample time, warnings and failed checks; the last line of standard
output is one JSON object, ``{"correct", "attempted", "failed",
"metrics"}``, where failed / attempted is the failure fraction.
"""

import os

# Pin BLAS/OpenMP before numpy is imported: with more threads the reduction
# order changes, and so do R(s) call counts and the last digits of m^2.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from generate import ROOT, import_georst  # noqa: E402
from metrics import (END_TO_END, PER_LAYER, UNITS, command_metrics,  # noqa: E402
                     setup_metrics)
from tracing import Tracer  # noqa: E402
from workloads import M2_BAND, REFERENCE_SEED, WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
# setup is repeated at least SETUP_REPEATS times before the first command
# (and for SETUP_SECONDS in a traced run). In an untraced run more builds
# follow each command, outside its wall time, until builds have taken
# SETUP_SHARE of the time since the first command, so the setup_s median
# covers the same stretch of the host's speed as wall_s, not only its start.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_SHARE = 0.1
MIN_SAMPLES = 3
# relative tolerance of the design-point m^2 against the recorded reference
# and against the benchmark's own HL-RF point
M2_REL_TOL = 1e-6
WARNING_KINDS = {"candidate pool has": "pool_shortfall",
                 "hit-and-run stalled": "hit_and_run_stall"}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    task_dir = Path("/proc/self/task")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "process_threads": (len(list(task_dir.iterdir()))
                            if task_dir.is_dir() else None),
    }


def generate_inputs(workload_name: str, seed: int, toy: bool,
                    work: Path) -> dict:
    cmd = [sys.executable, str(HERE / "generate.py"), "--workload",
           workload_name, "--seed", str(seed), "--out", str(work)]
    subprocess.run(cmd + (["--toy"] if toy else []), check=True, timeout=170,
                   stdout=subprocess.DEVNULL)
    return json.loads((work / "calibration.json").read_text())


class Workbench:
    """One workload's context, command body and output checks."""

    def __init__(self, georst, workload: Workload, config_path: Path,
                 calibration: dict, reference_m2: float | None):
        self.runner = georst.runner
        self.sets = georst.scenario_sets
        self.workload = workload
        self.config_path = config_path
        self.calibration = calibration
        self.reference_m2 = reference_m2
        self.ctx = None
        self.first_text: str | None = None

    def build(self):
        self.ctx = self.runner.build_context(
            self.runner.RunConfig.from_file(self.config_path))
        return self.ctx

    def timed_spare_build(self) -> float:
        """Time one more build; the commands keep using ``self.ctx``."""
        t0 = time.perf_counter()
        self.runner.build_context(
            self.runner.RunConfig.from_file(self.config_path))
        return time.perf_counter() - t0

    def command(self):
        """Run the workload's command once: (output text, result, listing)."""
        w, ctx = self.workload, self.ctx
        if w.command == "design-point":
            text, result = self.runner.run_design_point(ctx)
            return text, result, None
        text, (result, pool, listing) = self.runner.run_scenario_list(ctx)
        return text, result, (pool, listing)

    # -- checks -------------------------------------------------------------

    def check(self, text: str, result, listing) -> list[str]:
        failures = []
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            failures.append("output differs from the first run's bytes")
        failures += self._check_design_point(result)
        if listing is not None:
            failures += self._check_listing(result, listing[1])
        return failures

    def _check_design_point(self, result) -> list[str]:
        ctx, out = self.ctx, []
        ratio = ctx.capital.ratio(result.s_star)
        if not ratio <= ctx.capital.r_star:
            out.append(f"R(s*) = {ratio!r} > R* = {ctx.capital.r_star!r}")
        if not result.s_star[0] >= ctx.constraints.g_min:
            out.append(f"g* = {result.s_star[0]!r} < g_min")
        m2 = result.mahalanobis_sq
        if not M2_BAND[0] <= m2 <= M2_BAND[1]:
            out.append(f"m2 = {m2!r} outside {M2_BAND}")
        hlrf = self.calibration["hlrf_m2"]
        if m2 > hlrf * (1 + M2_REL_TOL):
            out.append(f"m2 = {m2!r} worse than the HL-RF point {hlrf!r}")
        ref = self.reference_m2
        if ref is not None and abs(m2 - ref) > M2_REL_TOL * ref:
            out.append(f"m2 = {m2!r} differs from the reference {ref!r}")
        return out

    def _check_listing(self, result, listing) -> list[str]:
        ctx, sets = self.ctx, self.sets
        cfg = ctx.scenario_cfg
        target = sets.TargetSet(cfg.get("target", "near-optimal"))
        if target is sets.TargetSet.NEIGHBOURHOOD:
            spec = sets.NeighbourhoodSpec(float(cfg.get("eta", 1.0)))
        else:
            spec = sets.NearOptimalSpec(float(cfg.get("epsilon", 1.0)))
        member = sets.Membership(target, ctx.model, ctx.capital,
                                 result.s_star, spec)
        bad = [i for i, e in enumerate(listing.entries) if not member(e.s)]
        return [f"listed scenarios {bad} fail Membership"] if bad else []


def timed_command(bench: Workbench, warning_counts: Counter):
    """One command, timed; RuntimeWarnings are counted, not printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        t0 = time.perf_counter()
        try:
            out, error = bench.command(), None
        except Exception as exc:  # an operation that raised counts as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    for w in caught:
        message = str(w.message)
        kind = next((k for p, k in WARNING_KINDS.items() if p in message),
                    "other")
        warning_counts[kind] += 1
    return dt, out, error


def summarise(values: list[dict]) -> dict:
    """Per key: the value when every sample agrees, else the median."""
    out = {}
    for key in values[0]:
        column = [v[key] for v in values]
        out[key] = (column[0] if all(c == column[0] for c in column)
                    else statistics.median(column))
    return out


def run(args) -> dict:
    georst = import_georst()
    workload = WORKLOADS[args.workload]
    if args.toy:
        workload = workload.toy()
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        calibration = generate_inputs(workload.name, args.seed, args.toy, work)
        reference = None
        if not args.toy:
            table = json.loads((HERE / "reference_m2.json").read_text())
            reference = table.get(workload.name, {}).get(str(args.seed))
        bench = Workbench(georst, workload, work / "run.json", calibration,
                          reference)
        return measure(bench, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(bench: Workbench, args) -> dict:
    tracer = Tracer() if args.trace else None
    setups, setup_layers = [], []
    while (len(setups) < SETUP_REPEATS
           or (tracer and sum(setups) < SETUP_SECONDS)):
        if tracer:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            bench.build()
        finally:
            dt = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        setups.append(dt)
        if tracer:
            setup_layers.append(setup_metrics(tracer))

    walls = {False: [], True: []}
    layers, errors, warning_counts = [], Counter(), Counter()
    attempted = failed = 0
    design_m2 = pool_fill = None
    start = time.perf_counter()
    deadline = start + args.seconds
    interleaved_setup = 0.0
    share = 0.0 if tracer else SETUP_SHARE
    kinds = (False, True) if tracer else (False,)
    traced = False
    # no command starts that would, at the median pace so far and with its
    # share of setup builds, end after the deadline, once every kind has
    # MIN_SAMPLES
    while (min(len(walls[k]) for k in kinds) < MIN_SAMPLES
           or time.perf_counter()
           + statistics.median(walls[False] + walls[True]) * (1 + share)
           < deadline):
        traced = bool(tracer) and not traced
        sample_warnings = Counter()
        floor_hits = bench.ctx.capital.rwa_floor_hits
        if traced:
            tracer.reset()
            tracer.install()
        try:
            dt, out, error = timed_command(bench, sample_warnings)
            if traced:
                layers.append(command_metrics(
                    tracer, dt, bench.ctx.capital.rwa_floor_hits - floor_hits,
                    sample_warnings))
        finally:
            if traced:
                tracer.uninstall()
        warning_counts.update(sample_warnings)
        walls[traced].append(dt)
        attempted += 1
        failures = [error] if error else bench.check(*out)
        if failures:
            failed += 1
            errors.update(failures)
        while interleaved_setup < share * (time.perf_counter() - start):
            dt = bench.timed_spare_build()
            setups.append(dt)
            interleaved_setup += dt
        if out is not None and design_m2 is None:
            design_m2 = out[1].mahalanobis_sq
            if out[2] is not None:
                target = int(bench.ctx.scenario_cfg["pool"])
                pool_fill = len(out[2][0]) / target

    wall_s = statistics.median(walls[False])
    report = {
        "workload": bench.workload.name, "seed": args.seed,
        "loop": bench.workload.loop, "sizing": bench.workload.sizing,
        "environment": environment(),
        "samples_untraced": len(walls[False]),
        "samples_traced": len(walls[True]),
        "wall_s_min_median_max": [min(walls[False]), wall_s, max(walls[False])],
        "wall_s_samples": [round(t, 4) for t in walls[False]],
        "setup_runs": len(setups),
        "setup_s_min_median_max": [min(setups), statistics.median(setups),
                                   max(setups)],
        "fail_frac": failed / attempted,
        "pool_fill": pool_fill,
        "warnings": dict(warning_counts),
        "failures": dict(errors),
        "calibration": bench.calibration,
        "reference_m2": bench.reference_m2,
    }
    if tracer:
        traced_wall = statistics.median(walls[True])
        metrics = {**summarise(setup_layers), **summarise(layers),
                   "trace.wall_s": traced_wall,
                   "trace.overhead_frac": traced_wall / wall_s - 1.0}
        names = [m.name for m in PER_LAYER]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "design_m2": design_m2 or 0.0,
        }
        names = [m.name for m in END_TO_END]
    return {"report": report, "attempted": attempted, "failed": failed,
            "metrics": {n: metrics[n] for n in names}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="run the workload at its self-test size")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "georst" / "__init__.py").is_file():
        print(f"error: no georst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = run(args)
    for key, value in out["report"].items():
        print(f"# {key}: {json.dumps(value)}")
    for name, value in out["metrics"].items():
        print(f"{name:48s} {value!r:>24} {UNITS[name]}")
    print(f"{'fail_frac':48s} {out['report']['fail_frac']!r:>24} ratio")
    if out["report"]["pool_fill"] is not None:
        print(f"{'pool_fill':48s} {out['report']['pool_fill']!r:>24} ratio")
    correct = out["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": v, "unit": UNITS[n]}
                    for n, v in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
