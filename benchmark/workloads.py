"""Workload definitions shared by the generator, the runner and the self-test.

Each workload runs one georst command in a closed loop with one client: the
next command starts only when the previous one has returned. Every workload
runs in its own process with BLAS/OpenMP pinned to one thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# Calibration shared by every generated case: rwa_0 is the IRB RWA at s = 0,
# cet1_0 is the baseline loss quantile, and the sector loadings are scaled so
# that the design point sits at this squared Mahalanobis distance.
DEPLETION = 0.30
TARGET_M2 = 12.0
M2_BAND = (10.0, 15.0)
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # design-point | scenario-list
    why: str
    loop: str
    sizing: str
    kind: str               # exposure | sector
    n_exposures: int        # exposures (exposure kind) or rows (sector kind)
    n_sectors: int
    d: int
    family: str = "gaussian"
    nu: float | None = None
    rwa_mode: str = "irb_full"
    n_starts: int = 32
    scenario_set: dict = field(default_factory=dict)

    def toy(self) -> "Workload":
        """The same workload at a size that runs in about a second."""
        return replace(
            self,
            n_exposures=min(self.n_exposures, 60),
            n_starts=min(self.n_starts, 4),
            scenario_set={**self.scenario_set, "pool": 40, "list": 4,
                          "g_grid": [0.5, 1.0]}
            if self.scenario_set else {},
        )


CLOSED_LOOP = "closed loop, one client, one command at a time, own process"

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="design-large-n",
            command="design-point",
            why="per-exposure kernel work dominates: 6,000 exposures, ~800 "
                "R(s) calls of ~3 ms; setup parses 6,000 CSV rows; no "
                "scenario sets, anchors or grid",
            loop=CLOSED_LOOP,
            sizing="n = 6,000 exposures in 12 sectors, d = 4, Gaussian, "
                   "irb_full, 8 starts; ~2.7 s per command on a shared "
                   "2-vCPU Xeon host",
            kind="exposure", n_exposures=6_000, n_sectors=12, d=4,
            n_starts=8,
        ),
        Workload(
            name="scenario-list-sector",
            command="scenario-list",
            why="16 sector rows, so time is per-call overhead times ~12k "
                "R(s) calls: FD Jacobians, 8 conditional anchors, local "
                "sampling, farthest-point reduction",
            loop=CLOSED_LOOP,
            sizing="sector portfolio of 16 rows, each aggregated from 500 "
                   "exposures, d = 8, Student-t nu = 6, linear RWA, "
                   "near-optimal eps = 1, 8 starts, pool 400, list 8; "
                   "~4.5 s per command",
            kind="sector", n_exposures=16, n_sectors=16, d=8,
            family="student_t", nu=6.0, rwa_mode="linear", n_starts=8,
            scenario_set={"target": "near-optimal", "epsilon": 1.0,
                          "pool": 400, "list": 8},
        ),
    )
}
