import json

import pytest

from owfsim.cli import build_parser, main
from owfsim.scenario import PRESETS, get_preset


def test_build_parser_knows_all_subcommands():
    parser = build_parser()
    args = parser.parse_args(["list-presets"])
    assert args.command == "list-presets"
    args = parser.parse_args(["run", "blackstart-virtual", "--t-end", "0.02"])
    assert args.targets == ["blackstart-virtual"]
    assert args.t_end == 0.02


def test_list_presets_prints_every_preset(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(PRESETS)


def test_run_writes_record_and_metrics(tmp_path, capsys):
    rc = main(["run", "blackstart-virtual", "--out", str(tmp_path),
               "--dt", "100e-6", "--t-end", "0.02"])
    assert rc == 0
    csv_path = tmp_path / "blackstart-virtual.csv"
    metrics_path = tmp_path / "blackstart-virtual.metrics.json"
    assert csv_path.exists() and metrics_path.exists()
    metrics = json.loads(metrics_path.read_text())
    assert metrics["status"] == "converged"
    assert "blackstart-virtual" in capsys.readouterr().out


def test_run_is_reproducible_across_invocations(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", "blackstart-virtual", "--out", str(out),
                     "--dt", "100e-6", "--t-end", "0.02"]) == 0
    capsys.readouterr()
    assert ((a / "blackstart-virtual.csv").read_bytes()
            == (b / "blackstart-virtual.csv").read_bytes())


def test_run_accepts_scenario_json_file(tmp_path, capsys):
    cfg = tmp_path / "myrun.json"
    spec = get_preset("blackstart-virtual")
    spec.name = "myrun"
    cfg.write_text(spec.to_json())
    rc = main(["run", str(cfg), "--out", str(tmp_path),
               "--dt", "100e-6", "--t-end", "0.02"])
    assert rc == 0
    assert (tmp_path / "myrun.csv").exists()


def test_metrics_subcommand_recomputes(tmp_path, capsys):
    assert main(["run", "blackstart-virtual", "--out", str(tmp_path),
                 "--dt", "100e-6", "--t-end", "0.02"]) == 0
    capsys.readouterr()
    rc = main(["metrics", str(tmp_path / "blackstart-virtual.csv")])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["status"] == "converged"


def test_unknown_target_is_usage_error(tmp_path, capsys):
    rc = main(["run", "no-such-preset", "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_malformed_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"name\": \"x\"}")
    rc = main(["run", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_invalid_sim_step_is_usage_error(tmp_path, capsys):
    rc = main(["run", "blackstart-virtual", "--out", str(tmp_path),
               "--dt", "-1"])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("option, value, field", [
    ("--t-end", "inf", "t_end"),
    ("--t-end", "nan", "t_end"),
    ("--ts", "inf", "ts_control"),
    ("--ts", "nan", "ts_control"),
    ("--dt", "inf", "dt_plant"),
    ("--dt", "nan", "dt_plant"),
])
def test_non_finite_sim_setting_is_usage_error(tmp_path, capsys, option, value, field):
    rc = main(["run", "blackstart-virtual", "--out", str(tmp_path), option, value])
    assert rc == 1
    assert f"error: {field} must be positive and finite" in capsys.readouterr().err


def test_off_grid_horizon_is_a_usage_error(tmp_path, capsys):
    rc = main(["run", "blackstart-virtual", "--out", str(tmp_path), "--t-end", "0.0013"])
    assert rc == 1
    assert "error: t_end must be a whole number >= 1 of control samples" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("field", ["v_ramp_delay", "p_ramp_delay"])
def test_off_grid_start_delay_is_a_usage_error(tmp_path, capsys, field):
    doc = get_preset("blackstart-virtual").to_dict()
    doc["strings"][1][field] = 0.3001
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert (f"error: strings[1].{field} must be a whole number >= 0 of control samples"
            in capsys.readouterr().err)
    assert not out.exists()


def test_dead_controller_ts_is_a_usage_error(tmp_path, capsys):
    # The sample period is the run's --ts; schema 1 has no controller copy of it.
    doc = get_preset("blackstart-virtual").to_dict()
    doc["controller"]["ts"] = 200e-6
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    assert "controller.ts: unknown key" in capsys.readouterr().err


def test_module_entry_point_exists():
    import owfsim.__main__  # noqa: F401
