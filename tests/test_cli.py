import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from georst import cli
from georst.cli import build_parser, main
from georst.dataio import (load_alpha, load_covariance, load_history,
                           load_portfolio, load_sector_portfolio,
                           load_sensitivities)
from georst.errors import (GeorstError, InfeasibleError, InvalidInputError,
                           NonConvergenceError)
from georst.capital import breaches
from georst.runner import (CONFIG_KEYS, RunConfig, build_context,
                           emit_contours, run_scenario_list)
from georst.scenario_sets import (Membership, NearOptimalSpec,
                                  NeighbourhoodSpec, TargetSet)
from georst.solver import (TOL_CONSTRAINT, ConstraintSet, _g_cap,
                           conditional_anchor, solve_design_point)
from georst.transmission import monotonicity_rows

from conftest import generate_toy_inputs, monotonicity_violation

COVARIANCE = "g,x1\n1.0,0.3\n0.3,1.0\n"
SENSITIVITIES = ("sector_id,delta,eta,beta_x1,gamma_x1\n"
                 "corp,0.9,0.12,0.8,0.08\n")
PORTFOLIO = ("exposure_id,sector_id,ead,pd0,lgd0,rho,maturity\n"
             + "".join(f"e{i},corp,1.0,0.015,0.4,0.2,2.5\n" for i in range(8)))


def write_inputs(tmp_path, **config_overrides):
    (tmp_path / "cov.csv").write_text(COVARIANCE)
    (tmp_path / "sens.csv").write_text(SENSITIVITIES)
    (tmp_path / "portfolio.csv").write_text(PORTFOLIO)
    config = {
        "seed": 0,
        "reference": {"covariance": "cov.csv"},
        "portfolio": {"kind": "exposure", "path": "portfolio.csv",
                      "sensitivities": "sens.csv"},
        "capital": {"cet1_0": 1.0, "rwa_0": 10.0},
        "loss": {"q": 0.999},
        "solver": {"n_starts": 6},
        "scenario_set": {"target": "near-optimal", "epsilon": 1.0,
                         "pool": 60, "list": 4},
    }
    config.update(config_overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return path


def test_load_covariance_round_trip(tmp_path):
    p = tmp_path / "cov.csv"
    p.write_text(COVARIANCE)
    sigma, names = load_covariance(p)
    assert names == ("g", "x1")
    assert sigma == pytest.approx(np.array([[1.0, 0.3], [0.3, 1.0]]))


def test_load_covariance_shape_error(tmp_path):
    p = tmp_path / "cov.csv"
    p.write_text("g,x1\n1.0,0.3\n")
    with pytest.raises(InvalidInputError):
        load_covariance(p)


def test_load_history(tmp_path):
    p = tmp_path / "hist.csv"
    p.write_text("g,x1\n0.1,0.2\n-0.3,0.4\n0.0,0.1\n")
    X, names = load_history(p)
    assert X.shape == (3, 2)
    assert names == ("g", "x1")


@pytest.mark.parametrize("loader", [load_covariance, load_history])
def test_matrix_loaders_reject_a_ragged_row(tmp_path, loader):
    # a short or long row used to fail in np.array with numpy's
    # "inhomogeneous shape" error, naming neither file nor line
    path = tmp_path / "ragged.csv"
    for text, line, cells in (("g,x1\n1.0,0.3\n0.3\n", 3, 1),
                              ("g,x1\n1.0,0.3,0.1\n0.3,1.0\n", 2, 3)):
        path.write_text(text)
        with pytest.raises(InvalidInputError,
                           match=rf"ragged\.csv: line {line} has {cells} "
                                 "cells, the header has 2"):
            loader(path)


def test_load_sensitivities_and_portfolio(tmp_path):
    sens_path = tmp_path / "sens.csv"
    sens_path.write_text(SENSITIVITIES)
    sens = load_sensitivities(sens_path, ("g", "x1"))
    assert sens.sector_id == ["corp"]
    assert sens.pd[0, 0] == 0.9
    assert sens.pd[0, 1:] == pytest.approx([0.8])
    pf_path = tmp_path / "pf.csv"
    pf_path.write_text(PORTFOLIO)
    pf = load_portfolio(pf_path, sens)
    assert pf.n == 8
    assert pf.total_ead == pytest.approx(8.0)


def test_load_sensitivities_missing_column(tmp_path):
    p = tmp_path / "sens.csv"
    p.write_text("sector_id,delta,eta,beta_x1\ncorp,0.9,0.1,0.8\n")
    with pytest.raises(InvalidInputError):
        load_sensitivities(p, ("g", "x1"))


def test_load_portfolio_non_numeric_names_offender(tmp_path):
    sens_path = tmp_path / "sens.csv"
    sens_path.write_text(SENSITIVITIES)
    sens = load_sensitivities(sens_path, ("g", "x1"))
    p = tmp_path / "pf.csv"
    p.write_text("exposure_id,sector_id,ead,pd0,lgd0,rho,maturity\n"
                 "e0,corp,abc,0.02,0.4,0.2,2.5\n")
    with pytest.raises(InvalidInputError, match="e0.*ead"):
        load_portfolio(p, sens)


def test_load_alpha_requires_all_exposures(tmp_path):
    sens_path = tmp_path / "sens.csv"
    sens_path.write_text(SENSITIVITIES)
    sens = load_sensitivities(sens_path, ("g", "x1"))
    pf_path = tmp_path / "pf.csv"
    pf_path.write_text(PORTFOLIO)
    pf = load_portfolio(pf_path, sens)
    alpha_path = tmp_path / "alpha.csv"
    alpha_path.write_text("exposure_id,alpha\ne0,100.0\n")
    with pytest.raises(InvalidInputError):
        load_alpha(alpha_path, pf)
    alpha_path.write_text("exposure_id,alpha\n"
                          + "".join(f"e{i},{10.0 * i}\n" for i in range(8)))
    alpha = load_alpha(alpha_path, pf)
    assert alpha == pytest.approx([10.0 * i for i in range(8)])


def test_load_sensitivities_rejects_a_repeated_sector(tmp_path):
    # the second row for corp used to replace the first silently
    p = tmp_path / "sens.csv"
    p.write_text(SENSITIVITIES + "corp,0.5,0.12,0.8,0.08\n")
    with pytest.raises(InvalidInputError, match="sens.csv.*'corp'"):
        load_sensitivities(p, ("g", "x1"))


def test_load_portfolio_rejects_a_repeated_exposure(tmp_path):
    sens_path = tmp_path / "sens.csv"
    sens_path.write_text(SENSITIVITIES)
    sens = load_sensitivities(sens_path, ("g", "x1"))
    p = tmp_path / "pf.csv"
    p.write_text(PORTFOLIO + "e3,corp,2.0,0.015,0.4,0.2,2.5\n")
    with pytest.raises(InvalidInputError, match="pf.csv.*'e3'"):
        load_portfolio(p, sens)


def test_load_sector_portfolio_rejects_a_repeated_sector(tmp_path):
    sens_path = tmp_path / "sens.csv"
    sens_path.write_text(SENSITIVITIES)
    sens = load_sensitivities(sens_path, ("g", "x1"))
    p = tmp_path / "sectors.csv"
    p.write_text("sector_id,ead,pd0,lgd0,rho,maturity\n"
                 "corp,4.0,0.015,0.4,0.2,2.5\n"
                 "corp,4.0,0.015,0.4,0.2,2.5\n")
    with pytest.raises(InvalidInputError, match="sectors.csv.*'corp'"):
        load_sector_portfolio(p, sens)
    # one row per sector loads
    p.write_text("sector_id,ead,pd0,lgd0,rho,maturity\n"
                 "corp,8.0,0.015,0.4,0.2,2.5\n")
    assert len(load_sector_portfolio(p, sens).records) == 1


SECTOR_PORTFOLIO = ("sector_id,ead,pd0,lgd0,rho,maturity\n"
                    "corp,8.0,0.015,0.4,0.2,2.5\n")
ALPHA = "exposure_id,alpha\n" + "".join(f"e{i},{10.0 * i}\n" for i in range(8))


@pytest.mark.parametrize("loader", ["portfolio", "sensitivities",
                                    "sector_portfolio", "alpha"])
def test_loaders_reject_a_ragged_row(tmp_path, loader):
    # a row with an extra cell or a missing cell used to end in an
    # AttributeError on csv.DictReader's None key or None cell
    sens_path = tmp_path / "sens.csv"
    sens_path.write_text(SENSITIVITIES)
    sens = load_sensitivities(sens_path, ("g", "x1"))
    pf_path = tmp_path / "pf.csv"
    pf_path.write_text(PORTFOLIO)
    pf = load_portfolio(pf_path, sens)
    text, load = {
        "portfolio": (PORTFOLIO, lambda p: load_portfolio(p, sens)),
        "sensitivities": (SENSITIVITIES,
                          lambda p: load_sensitivities(p, ("g", "x1"))),
        "sector_portfolio": (SECTOR_PORTFOLIO,
                             lambda p: load_sector_portfolio(p, sens)),
        "alpha": (ALPHA, lambda p: load_alpha(p, pf)),
    }[loader]
    header, first, *rest = text.splitlines()
    path = tmp_path / "ragged.csv"
    for bad in (first + ",0.5", first.split(",")[0]):
        # a blank line counts in the line number and is skipped
        path.write_text("\n".join([header, "", bad, *rest]) + "\n")
        with pytest.raises(InvalidInputError,
                           match=r"ragged\.csv: line 3 has \d+ cells, the header"):
            load(path)


def test_load_portfolio_names_the_first_bad_cell_in_file_order(tmp_path):
    sens_path = tmp_path / "sens.csv"
    sens_path.write_text(SENSITIVITIES)
    sens = load_sensitivities(sens_path, ("g", "x1"))
    p = tmp_path / "pf.csv"
    p.write_text("exposure_id,sector_id,ead,pd0,lgd0,rho,maturity\n"
                 "e0,corp,1.0,0.02,0.4,0.2,2.5\n"
                 "e1,corp,1.0,0.02,0.4,x,2.5\n"
                 "e2,corp,y,0.02,0.4,0.2,2.5\n")
    with pytest.raises(InvalidInputError, match="e1: column 'rho'"):
        load_portfolio(p, sens)
    p.write_text("exposure_id,sector_id,ead,pd0,lgd0,rho,maturity\n"
                 "e0,corp,1.0,0.02,0.4,0.2,2.5\n"
                 "e1,corp,1.0,0.02,0.4,0.0,2.5\n"
                 "e2,corp,-1.0,0.02,0.4,0.2,2.5\n")
    with pytest.raises(InvalidInputError, match="e1: rho=0.0"):
        load_portfolio(p, sens)


def dictreader_rows(path):
    with open(path, newline="") as fh:
        return [{k.strip(): v for k, v in row.items()}
                for row in csv.DictReader(fh)]


@pytest.mark.parametrize("inputs", ["cli", "design-large-n",
                                    "scenario-list-sector"])
def test_portfolio_columns_match_a_per_cell_parse(tmp_path, inputs):
    # the oracle: csv.DictReader and float() per cell, row by row
    config = (write_inputs(tmp_path) if inputs == "cli"
              else generate_toy_inputs(inputs, tmp_path))
    ctx = build_context(RunConfig.from_file(config))
    pf = ctx.portfolio
    paths = json.loads(config.read_text())["portfolio"]
    sens = {row["sector_id"].strip(): row
            for row in dictreader_rows(tmp_path / paths["sensitivities"])}
    rows = dictreader_rows(tmp_path / paths["path"])
    sector = [sens[row["sector_id"].strip()] for row in rows]
    x_names = ctx.model.factor_names[1:]

    def bits(values):
        return np.array(values, dtype=float).tobytes()

    for c in ("ead", "pd0", "lgd0", "rho", "maturity"):
        assert getattr(pf, c).tobytes() == bits([float(r[c]) for r in rows])
    for name, g_name, loadings in (("beta", "delta", pf.pd_loadings),
                                   ("gamma", "eta", pf.lgd_loadings)):
        per_row = [[float(s[f"{name}_{f}"]) for f in x_names] for s in sector]
        # one C-contiguous (d, n) array, a column per exposure
        assert loadings.flags.c_contiguous
        assert loadings.T.tobytes() == bits(
            [[float(s[g_name])] + r for s, r in zip(sector, per_row)])
    assert list(pf.sector_rows) == list(sens)
    for sector_id, idx in pf.sector_rows.items():
        assert idx.dtype == np.intp
        assert idx.tolist() == [i for i, row in enumerate(rows)
                                if row["sector_id"].strip() == sector_id]


@pytest.mark.parametrize("inputs", ["cli", "design-large-n",
                                    "scenario-list-sector"])
def test_sensitivity_rows_match_a_per_cell_parse(tmp_path, inputs):
    # the oracle: csv.DictReader and float() per cell, row by row
    config = (write_inputs(tmp_path) if inputs == "cli"
              else generate_toy_inputs(inputs, tmp_path))
    path = tmp_path / json.loads(config.read_text())["portfolio"]["sensitivities"]
    factor_names = build_context(RunConfig.from_file(config)).model.factor_names
    table = load_sensitivities(path, factor_names)
    rows = dictreader_rows(path)
    assert len(table) == len(rows)
    assert table.sector_id == [row["sector_id"].strip() for row in rows]
    for loadings, g_name, name in ((table.pd, "delta", "beta"),
                                   (table.lgd, "eta", "gamma")):
        assert loadings.tobytes() == np.array(
            [[float(row[g_name])]
             + [float(row[f"{name}_{f}"]) for f in factor_names[1:]]
             for row in rows], dtype=float).tobytes()


def test_validate_rejects_a_sector_without_exposures(tmp_path, capsys):
    # it used to pass validate, and design-point failed in aggregate_sectors
    # only after the solve
    config = write_inputs(tmp_path)
    (tmp_path / "sens.csv").write_text(SENSITIVITIES
                                       + "unused,0.5,0.1,0.3,0.05\n")
    assert main(["validate", "--config", str(config)]) == 2
    assert "sector unused has no exposures" in capsys.readouterr().err


def test_load_alpha_rejects_a_repeated_exposure(tmp_path, capsys):
    config = write_inputs(tmp_path)
    pf = load_portfolio(tmp_path / "portfolio.csv",
                        load_sensitivities(tmp_path / "sens.csv", ("g", "x1")))
    alpha_path = tmp_path / "alpha.csv"
    alpha_path.write_text("exposure_id,alpha\n"
                          + "".join(f"e{i},{10.0 * i}\n" for i in range(8))
                          + "e0,5.0\n")
    with pytest.raises(InvalidInputError, match="alpha.csv.*'e0'"):
        load_alpha(alpha_path, pf)
    # and through the runner, exit code 2
    raw = json.loads(config.read_text())
    raw["capital"].update(rwa_mode="linear", alpha_path="alpha.csv")
    config.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(config)]) == 2
    assert "duplicate exposure_id 'e0'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "design-point"])
@pytest.mark.parametrize("bad", ["delta", "alpha"])
def test_a_non_finite_input_exits_2_naming_the_file(tmp_path, capsys, bad,
                                                    command):
    # a nan delta used to pass validate (baseline_loss_quantile = nan) and
    # end design-point with exit 3; a nan alpha gave baseline_ratio = nan
    config = write_inputs(tmp_path)
    if bad == "delta":
        (tmp_path / "sens.csv").write_text(
            SENSITIVITIES.replace("corp,0.9,", "corp,nan,"))
        where = "sens.csv: corp: column 'delta'"
    else:
        (tmp_path / "alpha.csv").write_text(
            "exposure_id,alpha\n"
            + "".join(f"e{i},{'nan' if i == 3 else 10.0 * i}\n"
                      for i in range(8)))
        raw = json.loads(config.read_text())
        raw["capital"].update(rwa_mode="linear", alpha_path="alpha.csv")
        config.write_text(json.dumps(raw))
        where = "alpha.csv: e3: column 'alpha'"
    assert main([command, "--config", str(config), "--out",
                 str(tmp_path / "out")]) == 2
    assert f"{where} is not finite: nan" in capsys.readouterr().err


def test_cli_validate_smoke(tmp_path, capsys):
    config = write_inputs(tmp_path)
    rc = main(["validate", "--config", str(config)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "n_exposures = 8" in out
    assert "baseline_ratio" in out


def test_cli_design_point_writes_report(tmp_path):
    config = write_inputs(tmp_path)
    out_dir = tmp_path / "out"
    rc = main(["design-point", "--config", str(config), "--out", str(out_dir)])
    assert rc == 0
    report = (out_dir / "design_point.txt").read_text()
    assert "s_star.g = " in report
    assert "constraint_active = true" in report
    assert "q = 0.999" in report
    assert "g_min = 1e-06" in report


def test_cli_reports_are_byte_identical_for_same_seed(tmp_path):
    config = write_inputs(tmp_path)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(["design-point", "--config", str(config), "--out",
                 str(a_dir)]) == 0
    assert main(["design-point", "--config", str(config), "--out",
                 str(b_dir)]) == 0
    assert (a_dir / "design_point.txt").read_bytes() == (
        b_dir / "design_point.txt").read_bytes()


def test_cli_missing_config_is_invalid_input(tmp_path, capsys):
    rc = main(["design-point", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_portfolio_is_invalid_input(tmp_path, capsys):
    config = write_inputs(tmp_path)
    for row in ("e0,corp,1.0,2.0,0.4,0.2,2.5", "e0,corp,1.0,0.02,0.4,0.2,2.5,1",
                "e0"):
        (tmp_path / "portfolio.csv").write_text(
            "exposure_id,sector_id,ead,pd0,lgd0,rho,maturity\n" + row + "\n")
        rc = main(["validate", "--config", str(config)])
        assert rc == 2


def test_cli_infeasible_exit_code(tmp_path, capsys):
    # a tiny box makes any breach unreachable
    config = write_inputs(
        tmp_path,
        constraints={"g_max": 0.01, "x_min": -0.01, "x_max": 0.01})
    rc = main(["design-point", "--config", str(config)])
    assert rc == 3


@pytest.mark.parametrize("error,code", [
    (InvalidInputError("bad input"), 2), (InfeasibleError("no breach"), 3),
    (NonConvergenceError("no convergence"), 4), (GeorstError("engine"), 2),
    (ValueError("bad value"), 2)])
def test_cli_exit_code_of_each_error(tmp_path, capsys, monkeypatch, error,
                                     code):
    def fail(config):
        raise error

    monkeypatch.setattr(cli, "build_context", fail)
    config = write_inputs(tmp_path)
    assert main(["design-point", "--config", str(config)]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


def test_cli_contour_columns_and_grid(tmp_path):
    config = write_inputs(tmp_path)
    out_dir = tmp_path / "out"
    rc = main(["contour", "--config", str(config), "--out", str(out_dir),
               "--resolution", "5",
               "--g-bounds", "0", "2", "--x-bounds", "-2", "2"])
    assert rc == 0
    lines = (out_dir / "contour.csv").read_text().splitlines()
    assert lines[0] == "g,x,m2,ratio,breach,in_S_eta,in_N_eps"
    assert len(lines) == 1 + 25
    first = lines[1].split(",")
    assert len(first) == 7
    assert first[4] in {"0", "1"}


def contours_per_point(ctx, resolution):
    """emit_contours' CSV from one ratio and two Membership calls per grid
    point, as it was built before the block kernel."""
    res = solve_design_point(ctx.model, ctx.capital, ctx.constraints,
                             ctx.solver_config)
    m_eta = Membership(TargetSet.NEIGHBOURHOOD, ctx.model, ctx.capital,
                       res.s_star, NeighbourhoodSpec(radius_eta=1.0))
    m_eps = Membership(TargetSet.NEAR_OPTIMAL, ctx.model, ctx.capital,
                       res.s_star, NearOptimalSpec(epsilon=1.0))
    lines = ["g,x,m2,ratio,breach,in_S_eta,in_N_eps"]
    for g in np.linspace(0.0, 4.0, resolution):
        for x in np.linspace(-4.0, 4.0, resolution):
            s = np.array([g, x])
            ratio = ctx.capital.ratio(s)
            lines.append(",".join([
                repr(float(g)), repr(float(x)),
                repr(ctx.model.mahalanobis_sq(s)), repr(ratio),
                "1" if breaches(ratio, ctx.capital.r_star) else "0",
                "1" if m_eta(s) else "0", "1" if m_eps(s) else "0"]))
    return "\n".join(lines) + "\n"


def test_contours_equal_a_per_point_loop(tmp_path):
    ctx = build_context(RunConfig.from_file(write_inputs(tmp_path)))
    text = emit_contours(ctx, 41)
    assert text == contours_per_point(ctx, 41)
    # the grid crosses the breach frontier and both sets' boundaries
    for column in zip(*(line.split(",")[4:] for line in text.splitlines()[1:])):
        assert set(column) == {"0", "1"}


def test_cli_enforce_monotonicity_is_the_constrained_solve(tmp_path):
    # two sectors: x stresses sector a and improves sector b (beta < 0)
    config = write_inputs(tmp_path, capital={"cet1_0": 6.0, "rwa_0": 50.0},
                          constraints={"enforce_monotonicity": True})
    (tmp_path / "cov.csv").write_text("g,x1\n1.0,0.5\n0.5,1.0\n")
    (tmp_path / "sens.csv").write_text(
        "sector_id,delta,eta,beta_x1,gamma_x1\n"
        "a,0.9,0.12,0.8,0.08\nb,0.2,0.0,-0.6,0.0\n")
    (tmp_path / "portfolio.csv").write_text(
        "exposure_id,sector_id,ead,pd0,lgd0,rho,maturity\n" + "".join(
            f"{k}{i},{k},1.0,0.03,0.4,0.2,2.5\n" for k in "ab"
            for i in range(10)))
    ctx = build_context(RunConfig.from_file(config))
    pf = ctx.portfolio
    assert pf.sign_constraints
    # the constraint binds: the free design point improves sector b
    free = solve_design_point(ctx.model, ctx.capital, ConstraintSet(),
                              ctx.solver_config)
    assert monotonicity_violation(pf, free.s_star) > 1e-3
    want = solve_design_point(
        ctx.model, ctx.capital,
        ConstraintSet(monotonicity=monotonicity_rows(pf)), ctx.solver_config)
    assert monotonicity_violation(pf, want.s_star) <= TOL_CONSTRAINT

    out_dir = tmp_path / "out"
    assert main(["design-point", "--config", str(config), "--out",
                 str(out_dir)]) == 0
    report = (out_dir / "design_point.txt").read_text()
    assert f"mahalanobis_sq = {want.mahalanobis_sq!r}\n" in report
    for name, value in zip(("g", "x1"), want.s_star):
        assert f"s_star.{name} = {float(value)!r}\n" in report


def test_enforce_monotonicity_binds_on_the_sector_workload(tmp_path):
    # the free design point improves a sector; the constrained one does not
    config = generate_toy_inputs("scenario-list-sector", tmp_path)
    raw = json.loads(config.read_text())
    raw["constraints"] = {"enforce_monotonicity": True}
    config.write_text(json.dumps(raw))
    ctx = build_context(RunConfig.from_file(config))
    pf = ctx.portfolio
    free = solve_design_point(ctx.model, ctx.capital,
                              ConstraintSet(g_min=ctx.constraints.g_min),
                              ctx.solver_config)
    assert monotonicity_violation(pf, free.s_star) > 1e-3
    res = solve_design_point(ctx.model, ctx.capital, ctx.constraints,
                             ctx.solver_config)
    assert monotonicity_violation(pf, res.s_star) <= TOL_CONSTRAINT
    assert res.mahalanobis_sq > free.mahalanobis_sq


def report_sections(text):
    """A report's sections: name -> the lines under its [name] header."""
    sections, lines = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            lines = sections[line.strip("[]")] = []
        elif lines is not None:
            lines.append(line)
    return sections


@pytest.mark.parametrize("constraints", [{}, {"enforce_monotonicity": True}])
def test_toy_scenario_list_obeys_the_design_point(tmp_path, constraints):
    # every listed scenario lies in the region the design point was solved
    # over, and the list's row 0, s*, carries the design point's m^2
    config = generate_toy_inputs("scenario-list-sector", tmp_path)
    raw = json.loads(config.read_text())
    raw["constraints"] = constraints
    config.write_text(json.dumps(raw))
    assert main(["scenario-list", "--config", str(config), "--out",
                 str(tmp_path / "out")]) == 0
    sections = report_sections(
        (tmp_path / "out" / "scenario_list.txt").read_text())
    ctx = build_context(RunConfig.from_file(config))
    S = np.array([[float(v) for v in row.split()[1:]]
                  for row in sections["scenario_coordinates"][1:]])
    assert len(S) == raw["scenario_set"]["list"]
    assert ctx.constraints.satisfied(S).all()
    m2 = dict(line.split(" = ") for line in sections["design_point"])
    assert sections["scenario_list"][1].split()[2] == m2["mahalanobis_sq"]


def test_scenario_list_reports_its_pool_size_apart_from_the_settings(
        tmp_path):
    # pool_members is a result of the run: not in [defaults] but in its own
    # [pool] section, right before the list
    ctx = build_context(RunConfig.from_file(write_inputs(tmp_path)))
    report, (_, pool, _) = run_scenario_list(ctx)
    sections = report_sections(report)
    assert not any(line.startswith("pool_members")
                   for line in sections["defaults"])
    assert sections["pool"] == [f"pool_members = {len(pool)}"]
    names = list(sections)
    assert names.index("pool") + 1 == names.index("scenario_list")


def test_cli_config_hash_is_the_files(tmp_path):
    # no override adds an empty section the file does not have
    config = write_inputs(tmp_path)
    raw = json.loads(config.read_text())
    del raw["scenario_set"]
    config.write_text(json.dumps(raw))
    assert main(["design-point", "--config", str(config), "--out",
                 str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "design_point.txt").read_text()
    want = RunConfig.from_file(config).hash()
    assert f"config_hash = {want}\n" in report


def test_cli_mc_check(tmp_path):
    config = write_inputs(tmp_path, loss={"q": 0.999, "n_sims": 20000})
    out_dir = tmp_path / "out"
    rc = main(["mc-check", "--config", str(config), "--out", str(out_dir)])
    assert rc == 0
    report = (out_dir / "mc_check.txt").read_text()
    assert "analytic_quantile = " in report
    assert "mc_quantile = " in report


def test_cli_scenario_list(tmp_path):
    config = write_inputs(tmp_path)
    out_dir = tmp_path / "out"
    rc = main(["scenario-list", "--config", str(config), "--out",
               str(out_dir), "--list", "3", "--pool", "40"])
    assert rc == 0
    report = (out_dir / "scenario_list.txt").read_text()
    assert "[scenario_list]" in report
    assert "target = near-optimal" in report


def test_cli_output_dir_env_var(tmp_path, monkeypatch, capsys):
    config = write_inputs(tmp_path)
    out_dir = tmp_path / "from_env"
    monkeypatch.setenv("GEORST_OUTPUT_DIR", str(out_dir))
    rc = main(["design-point", "--config", str(config)])
    assert rc == 0
    assert (out_dir / "design_point.txt").exists()


def test_cli_seed_override_changes_hash(tmp_path):
    config = write_inputs(tmp_path)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(["validate", "--config", str(config), "--seed", "1"]) == 0


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(language):
    text = README.read_text()
    start = text.index(f"```{language}\n", text.index("## Command line"))
    return text[start + len(language) + 4:text.index("```", start + 3)]


def test_readme_config_example_runs(tmp_path):
    config = json.loads(readme_block("json"))
    (tmp_path / "cov.csv").write_text(COVARIANCE)
    (tmp_path / "portfolio.csv").write_text(PORTFOLIO)
    (tmp_path / "sensitivities.csv").write_text(SENSITIVITIES)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["validate", "--config", str(path)]) == 0
    # the documented keys are the ones the runner reads
    ctx = build_context(RunConfig.from_file(path))
    assert ctx.constraints.g_min == config["constraints"]["g_min"]
    assert ctx.solver_config.n_starts == config["solver"]["n_starts"]
    assert ctx.scenario_cfg == config["scenario_set"]
    assert ctx.capital.state.rwa_mode.value == config["capital"]["rwa_mode"]


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    # misspelt keys used to run silently on the defaults
    config = write_inputs(tmp_path, solver={"g_min": 0.5},
                          scenario_sets={"pool_size": 60})
    assert main(["validate", "--config", str(config)]) == 2
    assert "'scenario_sets' in the config's top level" in capsys.readouterr().err
    base = json.loads(write_inputs(tmp_path).read_text())
    for section in CONFIG_KEYS:
        bad = dict(base, **{section: {**base.get(section, {}), "bogus": 1}})
        config.write_text(json.dumps(bad))
        assert main(["validate", "--config", str(config)]) == 2
        assert (f"'bogus' in config section '{section}'"
                in capsys.readouterr().err)


@pytest.mark.parametrize("section, entries", [
    ("capital", {"maturity_adjustment": "false"}),
    ("portfolio", {"sign_constraints": "false"}),
    ("constraints", {"enforce_monotonicity": "false"}),
    ("constraints", {"g_max": "3.0"}),
    ("capital", {"r_star": "0.05"}),
    ("reference", {"family": "student_t", "nu": "6"}),
    ("capital", {"depletion": None}),
    ("loss", {"q": "0.999"}),
    ("loss", {"n_sims": 20000.0}),
    ("solver", {"n_starts": 2.7}),
    ("solver", {"seed": True}),
    ("scenario_set", {"list": 2.9}),
    ("scenario_set", {"g_grid": [1.0, "2.0"]}),
    ("constraints", {"x_min": [-1, -2, -3]}),
    (None, {"seed": "1"}),
    # JSON's NaN and Infinity are numbers to Python's json, not finite ones
    pytest.param("reference", {"family": "student_t", "nu": float("inf")},
                 id="reference-nu-inf"),
    pytest.param("scenario_set", {"epsilon": float("inf")},
                 id="scenario_set-epsilon-inf"),
    pytest.param("capital", {"pnl_noncredit": [float("nan"), 0.0]},
                 id="capital-pnl_noncredit-nan"),
    pytest.param("constraints", {"x_min": float("nan")},
                 id="constraints-x_min-nan"),
], ids=lambda v: "-".join(v) if isinstance(v, dict) else str(v))
def test_config_values_of_the_wrong_type_are_rejected(tmp_path, capsys,
                                                      section, entries):
    # each used to run with a coerced value ("false" as true, 2.7 as 2, a
    # 3-vector bound on 2 factors), to crash with a TypeError, or, for a
    # non-finite number, to run (nu = Infinity gave tail_probability 1.0),
    # to crash with an OverflowError or to exit with a misleading error
    raw = json.loads(write_inputs(tmp_path).read_text())
    if section is None:
        raw.update(entries)
        where = "the config's top level"
    else:
        raw[section] = {**raw[section], **entries} if section in raw else entries
        where = f"config section {section!r}"
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw))
    for command in ("validate", "design-point"):
        assert main([command, "--config", str(config), "--out",
                     str(tmp_path / "out")]) == 2
        key = list(entries)[-1]
        assert f"{key!r} in {where} must be" in capsys.readouterr().err


def test_cli_mc_check_rejects_zero_sims(tmp_path, capsys):
    # --sims 0 used to fall back to the config's n_sims
    config = write_inputs(tmp_path, loss={"q": 0.999, "n_sims": 20000})
    assert main(["mc-check", "--config", str(config), "--out",
                 str(tmp_path / "out"), "--sims", "0"]) == 2
    assert "n_sims=0" in capsys.readouterr().err


@pytest.mark.parametrize("entries", [
    {"pool": -3, "list": 2}, {"pool": 0, "list": 2}, {"top_k": -1},
    {"top_k": 0},
], ids=["pool-3", "pool0", "top_k-1", "top_k0"])
def test_cli_scenario_list_rejects_counts_below_one(tmp_path, capsys,
                                                    entries):
    # each used to exit 0: a pool of -3 reported pool_size = -3, top_k = -1
    # listed d - 1 drivers per row (a slice order[:-1]) and top_k = 0 none;
    # the config check rejects them before the pool is built, so no
    # pool-shortfall warning comes first
    config = write_inputs(tmp_path, scenario_set={
        "target": "near-optimal", "epsilon": 1.0, "pool": 60, "list": 4,
        **entries})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["scenario-list", "--config", str(config), "--out",
                     str(tmp_path / "out")]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    key, value = list(entries.items())[0]
    assert (f"{key!r} in config section 'scenario_set' must be an integer "
            f">= 1, got {value}" in capsys.readouterr().err)


@pytest.mark.parametrize("workload", ["design-large-n", "scenario-list-sector"])
def test_generated_benchmark_configs_validate(tmp_path, workload):
    config = generate_toy_inputs(workload, tmp_path)
    assert main(["validate", "--config", str(config)]) == 0


def test_anchor_beyond_the_default_grid_end(tmp_path):
    # the design point has g* = 2.592, beyond the default grid's end
    # Phi^-1(0.999) sigma_g = 2.475; g_max is unset, so 2.6 is admissible
    config = generate_toy_inputs("scenario-list-sector", tmp_path)
    raw = json.loads(config.read_text())
    raw["scenario_set"]["g_grid"] = [1.0, 2.6]
    config.write_text(json.dumps(raw))
    assert main(["scenario-list", "--config", str(config), "--out",
                 str(tmp_path / "out")]) == 0
    ctx = build_context(RunConfig.from_file(config))
    assert _g_cap(ctx.model, ctx.constraints) < 2.6
    anchor = conditional_anchor(ctx.model, ctx.capital, ctx.constraints, 2.6)
    assert anchor[0] == 2.6
    assert ctx.capital.ratio(anchor) <= ctx.capital.r_star


def test_readme_command_lines_parse():
    lines = [line.split("#")[0].split() for line in
             readme_block("sh").splitlines() if line.startswith("georst ")]
    assert {args[1] for args in lines} == {
        "design-point", "scenario-list", "contour", "mc-check", "validate"}
    for args in lines:
        build_parser().parse_args(args[1:])


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_scenario_list_report_is_a_function_of_the_seed(tmp_path_factory,
                                                        seed):
    config = write_inputs(tmp_path_factory.mktemp("seed"), seed=seed,
                          scenario_set={"pool": 30, "list": 3})
    ctx = build_context(RunConfig.from_file(config))
    first = run_scenario_list(ctx)[0]
    # the same context a second time, its capital model already used, and a
    # fresh context give the same bytes
    assert run_scenario_list(ctx)[0] == first
    assert run_scenario_list(
        build_context(RunConfig.from_file(config)))[0] == first
