"""Record the design-point m^2 per seed into ``reference_m2.json``.

    python3 benchmark/record_reference.py --seeds 0-31

The benchmark checks every design point it measures against this table,
recorded once from a known-good commit, with ``run.M2_REL_TOL``.
"""

import argparse
import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy is imported


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-31", help="first-last, inclusive")
    args = p.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    georst = run.import_georst()
    path = run.HERE / "reference_m2.json"
    table = json.loads(path.read_text())
    for name, workload in run.WORKLOADS.items():
        for seed in range(first, last + 1):
            work = run.ROOT / ".bench_work" / f"reference-{name}-{seed}-{os.getpid()}"
            try:
                calibration = run.generate_inputs(name, seed, False, work)
                bench = run.Workbench(georst, workload, work / "run.json",
                                      calibration, None)
                bench.build()
                _, result, _ = bench.command()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            table.setdefault(name, {})[str(seed)] = result.mahalanobis_sq
            print(name, seed, result.mahalanobis_sq, flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
