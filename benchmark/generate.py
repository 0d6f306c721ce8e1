"""Seeded generator of georst inputs for one benchmark workload.

    python3 benchmark/generate.py --workload design-large-n --seed 0 --out DIR

writes ``cov.csv``, ``sensitivities.csv``, ``portfolio.csv`` and ``run.json``
(the config form ``georst --config`` accepts) into DIR, plus
``calibration.json`` for the benchmark's own checks. The same seed gives
byte-identical files.

Calibration, identical for every workload:
  * ``cet1_0`` is the baseline loss quantile, ``rwa_0`` the IRB RWA at s = 0,
    so R(0) = r0, and the depletion is 0.30;
  * the sector loadings are scaled by one factor k so that the design point
    sits at m^2 = TARGET_M2. Loadings enter R only through k * s, so
    R_k(s) = R_1(k s) and m^2 scales as 1 / k^2; m^2 at k = 1 comes from a
    Hasofer-Lind/Rackwitz-Fiessler (HL-RF) iteration in this file, not from
    the program's solver, so the inputs do not move when the solver changes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import zlib
from pathlib import Path

import numpy as np
from scipy.special import expit

from workloads import DEPLETION, M2_BAND, TARGET_M2, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SECTOR_BOOK = 500   # exposures aggregated into each row of a sector portfolio


def import_georst():
    """Import georst from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "georst" / "__init__.py").is_file():
        raise SystemExit(f"georst sources not found under {src}")
    sys.path.insert(0, str(src))
    import georst
    import georst.runner  # noqa: F401  (loads every layer module)
    if Path(georst.__file__).resolve().parent != (src / "georst").resolve():
        raise SystemExit(f"imported georst from {georst.__file__}, not {src}")
    return georst


def _rngs(workload: Workload, seed: int):
    """(model rng, portfolio rng): the factor model and the sector loadings
    are fixed per workload, the seed draws the portfolio."""
    key = zlib.crc32(workload.name.encode())
    return np.random.default_rng([key]), np.random.default_rng([seed, key])


def _csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else repr(float(c)) for c in row)
              for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _draw(workload: Workload, seed: int) -> dict:
    rng, pf_rng = _rngs(workload, seed)
    d = workload.d
    names = ["g"] + [f"x{j}" for j in range(1, d)]
    vols = np.exp(rng.uniform(-0.3, 0.3, d))
    a = rng.standard_normal((d, d))
    c = a @ a.T + d * np.eye(d)
    c = c / np.sqrt(np.outer(np.diag(c), np.diag(c)))
    sigma = c * np.outer(vols, vols)

    ns = workload.n_sectors
    sectors = [f"S{k:02d}" for k in range(ns)]
    loadings = {
        "delta": rng.uniform(0.4, 1.0, ns),
        "eta": rng.uniform(0.0, 0.06, ns),
        "beta": rng.normal(0.0, 0.35, (ns, d - 1)),
        "gamma": rng.normal(0.0, 0.03, (ns, d - 1)),
    }
    rng = pf_rng
    n = workload.n_exposures
    if workload.kind == "sector":
        # each sector row aggregates a book of exposures, EAD-weighted
        book = _credit(rng, ns * SECTOR_BOOK)
        sector_of = np.repeat(np.arange(ns), SECTOR_BOOK)
        ead = np.bincount(sector_of, book["ead"])
        credit = {"sector_of": np.arange(ns), "ead": ead}
        for k in ("pd0", "lgd0", "rho", "maturity"):
            credit[k] = np.bincount(sector_of, book["ead"] * book[k]) / ead
    else:
        credit = _credit(rng, n)
        credit["sector_of"] = np.concatenate(
            [np.arange(ns), rng.integers(0, ns, n - ns)])
    credit["pd0"] = _logit_fixed_points(credit["pd0"])
    return {"names": names, "sigma": sigma, "sectors": sectors,
            "loadings": loadings, "credit": credit}


def _credit(rng: np.random.Generator, n: int) -> dict:
    return {
        "ead": rng.lognormal(0.0, 1.0, n),
        "pd0": np.exp(rng.uniform(math.log(0.003), math.log(0.04), n)),
        "lgd0": rng.uniform(0.25, 0.55, n),
        "rho": rng.uniform(0.08, 0.24, n),
        "maturity": rng.uniform(1.0, 5.0, n),
    }


def _logit_fixed_points(pd: np.ndarray) -> np.ndarray:
    """Nudge each PD by ulps until expit(logit(pd)) == pd, as the program
    evaluates it, so the stressed PD at s = 0 is the baseline PD exactly."""
    pd = pd.copy()
    for _ in range(64):
        bad = expit(np.log(pd / (1.0 - pd))) != pd
        if not bad.any():
            return pd
        pd[bad] = np.nextafter(pd[bad], 1.0)
    raise RuntimeError("no PD with expit(logit(pd)) == pd nearby")


def _write_inputs(workload: Workload, draw: dict, scale: float, out: Path,
                  cet1_0: float, rwa_0: float) -> Path:
    names, sectors = draw["names"], draw["sectors"]
    _csv(out / "cov.csv", names, draw["sigma"])
    L = draw["loadings"]
    _csv(out / "sensitivities.csv",
         ["sector_id", "delta", "eta"] + [f"beta_{f}" for f in names[1:]]
         + [f"gamma_{f}" for f in names[1:]],
         [[sid, scale * L["delta"][k], scale * L["eta"][k],
           *(scale * L["beta"][k]), *(scale * L["gamma"][k])]
          for k, sid in enumerate(sectors)])
    c = draw["credit"]
    cols = ["ead", "pd0", "lgd0", "rho", "maturity"]
    if workload.kind == "sector":
        _csv(out / "portfolio.csv", ["sector_id"] + cols,
             [[sectors[c["sector_of"][i]]] + [c[k][i] for k in cols]
              for i in range(workload.n_exposures)])
    else:
        _csv(out / "portfolio.csv", ["exposure_id", "sector_id"] + cols,
             [[f"E{i:06d}", sectors[c["sector_of"][i]]]
              + [c[k][i] for k in cols] for i in range(workload.n_exposures)])
    config = {
        "seed": 0,
        "reference": {"family": workload.family, "covariance": "cov.csv"},
        "portfolio": {"kind": workload.kind, "path": "portfolio.csv",
                      "sensitivities": "sensitivities.csv"},
        "capital": {"cet1_0": cet1_0, "rwa_0": rwa_0, "depletion": DEPLETION,
                    "rwa_mode": workload.rwa_mode,
                    "loss_basis": "incremental"},
        "loss": {"q": 0.999},
        "solver": {"n_starts": workload.n_starts},
    }
    if workload.nu is not None:
        config["reference"]["nu"] = workload.nu
    if workload.scenario_set:
        config["scenario_set"] = dict(workload.scenario_set)
    path = out / "run.json"
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    return path


def hlrf_design_point(ratio, r_star: float, chol: np.ndarray,
                      step: float = 1e-6, max_iter: int = 200) -> np.ndarray:
    """FORM design point of {R(L y) <= r_star} in whitened space (HL-RF).

    Iterates y <- (grad G . y - G(y)) / |grad G|^2 * grad G with
    G(y) = (R(L y) - r_star) / r_star and a central-difference gradient,
    halving the step toward the new iterate when |G| grows.
    """
    d = chol.shape[0]

    def G(y):
        return (ratio(chol @ y) - r_star) / r_star

    def grad(y):
        e = np.eye(d) * step
        return np.array([(G(y + e[j]) - G(y - e[j])) / (2 * step)
                         for j in range(d)])

    y = np.zeros(d)
    g_y = G(y)
    for _ in range(max_iter):
        a = grad(y)
        target = (a @ y - g_y) / (a @ a) * a
        lam = 1.0
        while True:
            cand = y + lam * (target - y)
            g_c = G(cand)
            if abs(g_c) <= max(abs(g_y), 1e-10) or lam < 1e-3:
                break
            lam *= 0.5
        moved = np.linalg.norm(cand - y)
        y, g_y = cand, g_c
        if moved < 1e-10 * (1.0 + np.linalg.norm(y)) and abs(g_y) < 1e-12:
            return y
    raise RuntimeError("HL-RF calibration did not converge")


def generate(workload: Workload, seed: int, out: Path) -> dict:
    """Write the inputs for one workload and seed; return the calibration."""
    georst = import_georst()
    from georst.capital import CapitalState, CreditCapitalModel, RwaMode
    from georst.runner import RunConfig, build_context

    out.mkdir(parents=True, exist_ok=True)
    draw = _draw(workload, seed)

    # Pass 1, unit loadings and placeholder capital: baseline numbers and the
    # k = 1 design point.
    cfg = _write_inputs(workload, draw, 1.0, out, cet1_0=1.0, rwa_0=1.0)
    ctx = build_context(RunConfig.from_file(cfg))
    zero = np.zeros(workload.d)
    cet1_0 = float(f"{ctx.capital.loss_quantile(zero):.6g}")
    irb = CreditCapitalModel(ctx.portfolio, CapitalState(
        cet1_0=1.0, rwa_0=1.0, depletion=DEPLETION,
        rwa_mode=RwaMode.IRB_FULL), ctx.loss_spec)
    rwa_0 = irb.rwa(zero)
    cfg = _write_inputs(workload, draw, 1.0, out, cet1_0=cet1_0, rwa_0=rwa_0)
    ctx = build_context(RunConfig.from_file(cfg))
    y1 = hlrf_design_point(ctx.capital.ratio, ctx.capital.r_star,
                           ctx.model.chol)
    m2_unit = float(y1 @ y1)
    scale = float(f"{math.sqrt(m2_unit / TARGET_M2):.6g}")

    # Pass 2, scaled loadings: the files the program receives.
    cfg = _write_inputs(workload, draw, scale, out, cet1_0=cet1_0, rwa_0=rwa_0)
    ctx = build_context(RunConfig.from_file(cfg))
    r_zero = ctx.capital.ratio(zero)
    if r_zero != ctx.capital.r0:
        raise AssertionError(f"R(0) = {r_zero!r} differs from r0 = "
                             f"{ctx.capital.r0!r}")
    s_cal = ctx.model.chol @ (y1 / scale)
    m2_cal = ctx.model.mahalanobis_sq(s_cal)
    if not M2_BAND[0] <= m2_cal <= M2_BAND[1]:
        raise AssertionError(f"calibrated m2 = {m2_cal} outside {M2_BAND}")
    if not s_cal[0] > 0.0:
        raise AssertionError("calibrated design point has g <= 0")
    calibration = {
        "workload": workload.name, "seed": seed, "scale": scale,
        "cet1_0": cet1_0, "rwa_0": rwa_0, "r0": ctx.capital.r0,
        "r_star": ctx.capital.r_star, "m2_unit": m2_unit,
        "hlrf_m2": m2_cal, "hlrf_ratio": ctx.capital.ratio(s_cal),
        "hlrf_s": [float(v) for v in s_cal],
        "georst_version": georst.__version__,
    }
    (out / "calibration.json").write_text(json.dumps(calibration, indent=1)
                                          + "\n")
    return calibration


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--toy", action="store_true",
                   help="generate the workload at its self-test size")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.toy:
        workload = workload.toy()
    cal = generate(workload, args.seed, args.out)
    print(json.dumps(cal))
    return 0


if __name__ == "__main__":
    sys.exit(main())
