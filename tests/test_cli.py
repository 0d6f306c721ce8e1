import json
from pathlib import Path

import numpy as np
import pytest

from georst.cli import build_parser, main
from georst.dataio import (load_alpha, load_covariance, load_history,
                           load_portfolio, load_sensitivities)
from georst.errors import InvalidInputError
from georst.runner import RunConfig, build_context

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


def test_load_sensitivities_and_portfolio(tmp_path):
    sens_path = tmp_path / "sens.csv"
    sens_path.write_text(SENSITIVITIES)
    sens = load_sensitivities(sens_path, ("g", "x1"))
    assert sens["corp"].delta == 0.9
    assert sens["corp"].beta == pytest.approx([0.8])
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
    (tmp_path / "portfolio.csv").write_text(
        "exposure_id,sector_id,ead,pd0,lgd0,rho,maturity\n"
        "e0,corp,1.0,2.0,0.4,0.2,2.5\n")
    rc = main(["validate", "--config", str(config)])
    assert rc == 2


def test_cli_infeasible_exit_code(tmp_path, capsys):
    # a tiny box makes any breach unreachable
    config = write_inputs(
        tmp_path,
        constraints={"g_max": 0.01, "x_min": -0.01, "x_max": 0.01})
    rc = main(["design-point", "--config", str(config)])
    assert rc == 3


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


def test_readme_command_lines_parse():
    lines = [line.split("#")[0].split() for line in
             readme_block("sh").splitlines() if line.startswith("georst ")]
    assert {args[1] for args in lines} == {
        "design-point", "scenario-list", "contour", "mc-check", "validate"}
    for args in lines:
        build_parser().parse_args(args[1:])
