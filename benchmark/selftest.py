"""Self-test of the benchmark, at toy sizes.

    python3 benchmark/selftest.py

Checks that the generator is deterministic, that every workload prints every
end-to-end and per-layer metric with its unit and a correct result, that
traced counts repeat exactly between two runs, that ``BENCHMARK.json``
agrees with ``metrics.py`` and ``workloads.py``, and that the benchmark
fails without printing a result when the georst sources are missing.
Exits 0 when every check passes.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
failures: list[str] = []


def check(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return out.returncode, out.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_generator():
    dirs = [WORK / f"gen{i}" for i in range(2)]
    for d in dirs:
        subprocess.run([sys.executable, str(HERE / "generate.py"), "--workload",
                        "scenario-list-sector", "--seed", "7", "--out", str(d),
                        "--toy"], check=True, stdout=subprocess.DEVNULL,
                       timeout=170)
    names = sorted(p.name for p in dirs[0].iterdir())
    _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names,
                                           shallow=False)
    check(not mismatch and not errors and "run.json" in names,
          "generator: the same seed gives byte-identical files")


def check_workload(name: str):
    code, stdout = bench(name, 0)
    res = result_of(stdout)
    check(code == 0 and set(res) == {"correct", "attempted", "failed",
                                     "metrics"},
          f"{name}: exit 0 and a result line with exactly the four keys")
    check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
          f"{name}: outputs pass every check")
    want = {m.name: m.unit for m in END_TO_END}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    check(got == want, f"{name}: every end-to-end metric with its unit")
    for metric in want:
        check(any(line.split()[:1] == [metric] and line.split()[-1] == want[metric]
                  for line in stdout.splitlines()),
              f"{name}: {metric} printed by name with its unit")

    traced = [result_of(bench(name, 1)[1]) for _ in range(2)]
    want = {m.name: m.unit for m in PER_LAYER}
    got = {k: v["unit"] for k, v in traced[0]["metrics"].items()}
    check(got == want, f"{name}: every per-layer metric with its unit")
    counts = [{k: v["value"] for k, v in t["metrics"].items()
               if v["unit"] == "count"} for t in traced]
    check(counts[0] == counts[1],
          f"{name}: traced counts repeat exactly between two runs")
    check(counts[0]["capital.ratio.calls"] > 0,
          f"{name}: the trace saw R(s) calls")


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
          == [(m.name, m.unit, m.better) for m in END_TO_END],
          "BENCHMARK.json end_to_end matches metrics.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == [(m.name, m.unit, m.better) for m in PER_LAYER],
          "BENCHMARK.json per_layer matches metrics.py")
    check({w["name"]: w["why"] for w in spec["workloads"]}
          == {w.name: w.why for w in WORKLOADS.values()},
          "BENCHMARK.json workloads match workloads.py")


def check_without_sources():
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, stdout = bench("scenario-list-sector", 0, cwd=bare)
    check(code != 0 and '"correct"' not in stdout,
          "without src/: non-zero exit and no result")


def main() -> int:
    try:
        check_benchmark_json()
        check_generator()
        check_without_sources()
        for name in WORKLOADS:
            check_workload(name)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
