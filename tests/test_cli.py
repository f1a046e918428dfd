import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import owfsim
from owfsim import cli
from owfsim.cli import build_parser, main
from owfsim.record import RunRecord
from owfsim.scenario import PRESETS, ScenarioSpec, build_black_start, compute_metrics, get_preset
from owfsim.sim import SimConfig, run


def test_build_parser_knows_all_subcommands():
    parser = build_parser()
    args = parser.parse_args(["list-presets"])
    assert args.command == "list-presets"
    args = parser.parse_args(["run", "blackstart-virtual", "--t-end", "0.02"])
    assert args.targets == ["blackstart-virtual"]
    assert args.t_end == 0.02


def test_run_defaults_are_the_sim_config_defaults():
    args = build_parser().parse_args(["run", "x"])
    cfg = SimConfig()
    assert (args.dt, args.ts, args.t_end, args.decimation) == (
        cfg.dt_plant, cfg.ts_control, cfg.t_end, cfg.record_decimation)


def test_parallel_run_writes_the_files_of_a_serial_run(tmp_path, capsys):
    targets = ["blackstart-virtual", "ramp-pmin-virtual"]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", *targets, "--out", str(serial), "--t-end", "0.002"]) == 0
    assert main(["run", *targets, "--out", str(parallel), "--t-end", "0.002",
                 "--jobs", "2"]) == 0
    capsys.readouterr()
    for name in targets:
        for suffix in (".csv", ".metrics.json"):
            assert ((parallel / (name + suffix)).read_bytes()
                    == (serial / (name + suffix)).read_bytes()), name + suffix


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


@pytest.mark.parametrize("edit, message", [
    ({"dt_plant": -1.0}, "dt_plant must be positive, got -1.0"),
    ({"energy_audit": "yes"}, "energy_audit: expected bool, got 'yes'"),
    ({"extra": 1}, "got an unexpected keyword argument 'extra'"),
    ({"dt_plant": 3e-5}, "ts_control must be a whole number >= 1 of plant steps of 3e-05 s"),
    ({"energy_audit": None}, None),  # a header written before energy_audit was recorded
])
def test_metrics_refuses_a_header_sim_that_cannot_re_run(tmp_path, capsys, edit, message):
    path = tmp_path / "run.csv"
    record = run(get_preset("blackstart-virtual"), SimConfig(t_end=0.01))
    for key, value in edit.items():
        if value is None:
            del record.header["sim"][key]
        else:
            record.header["sim"][key] = value
    record.to_csv(path)
    rc = main(["metrics", str(path)])
    out, err = capsys.readouterr()
    if message is None:
        assert rc == 0 and json.loads(out) == compute_metrics(record).to_dict()
        return
    assert rc == 1 and out == ""
    assert err.startswith(f"error: {path}: line 1: header.sim: ") and message in err


def test_a_denormal_control_period_runs_and_sustains_no_deviation(tmp_path, capsys):
    # A record sampled every 1e-323 s holds no LOS_SUSTAIN = 0.1 s: LOS_SUSTAIN / dt is inf.
    doc = tmp_path / "nodelay.json"
    doc.write_text(build_black_start(0.0, name="nodelay").to_json())
    assert main(["run", str(doc), "--ts", "5e-324", "--dt", "5e-324", "--t-end", "1e-320",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["metrics", str(tmp_path / "nodelay.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["los_detected"] is False


@pytest.mark.parametrize("decimation", [2**63, 10**30, 10**400],
                         ids=["2**63", "10**30", "10**400"])
def test_a_decimation_past_the_horizon_records_the_first_sample(tmp_path, capsys, decimation):
    assert main(["run", "blackstart-virtual", "--t-end", "0.001", "--decimation",
                 str(decimation), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    record = RunRecord.from_csv(tmp_path / "blackstart-virtual.csv")
    assert record.t.tolist() == [0.0]
    assert record.header["sim"]["record_decimation"] == decimation
    assert main(["metrics", str(tmp_path / "blackstart-virtual.csv")]) == 0
    assert (json.loads(capsys.readouterr().out)
            == json.loads((tmp_path / "blackstart-virtual.metrics.json").read_text()))


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


def _bad_json(path):
    path.write_text('{"schema": 1,')
    return "not a JSON document: Expecting property name enclosed in double quotes"


def _not_utf8(path):
    path.write_bytes(b"\xff{}")
    return "not a JSON document: 'utf-8' codec can't decode byte 0xff"


def _huge_integer(path):
    # 5001 digits: past the parser's int-string conversion limit (4300 digits).
    doc = get_preset("blackstart-virtual").to_dict()
    doc["v_ext"]["target"] = "HUGE"
    path.write_text(json.dumps(doc).replace('"HUGE"', "1" * 5001))
    return "not a JSON document: Exceeds the limit (4300 digits) for integer string conversion"


def _deep_document(path):
    path.write_text("[" * 100_000 + "]" * 100_000)
    return "not a JSON document: maximum recursion depth exceeded"


def _deep_header(path):
    path.write_text("# " + "[" * 100_000 + "]" * 100_000 + "\n")
    return "line 1: header is not JSON: maximum recursion depth exceeded"


def _directory(path):
    path.mkdir()
    return "cannot read: Is a directory"


def _missing(path):
    return "cannot read: No such file or directory"


@pytest.mark.parametrize("command, make", [
    ("run", _bad_json), ("run", _not_utf8), ("run", _huge_integer), ("run", _deep_document),
    ("run", _directory), ("metrics", _deep_header), ("metrics", _directory),
    ("metrics", _missing),
])
def test_an_input_that_cannot_be_read_is_named_and_a_usage_error(tmp_path, capsys,
                                                                 command, make):
    path = tmp_path / "input"
    reason = make(path)
    out = tmp_path / "out"
    args = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {reason}")
    assert not out.exists()


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
    assert f"error: {field}: {value} is not a finite number" in capsys.readouterr().err


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
    assert (f"error: {path}: strings[1].{field} must be a whole number >= 0 of control samples"
            in capsys.readouterr().err)
    assert not out.exists()


def test_a_later_off_grid_target_stops_the_run_before_any_output(tmp_path, capsys):
    # Every target is checked against the run's grid before the first is simulated.
    doc = get_preset("blackstart-virtual").to_dict()
    doc["strings"][1]["v_ramp_delay"] = 0.3001
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "blackstart-virtual", str(path), "--out", str(out),
                 "--t-end", "0.002"]) == 1
    assert (f"error: {path}: strings[1].v_ramp_delay must be a whole number >= 0 of control "
            "samples" in capsys.readouterr().err)
    assert not out.exists()


def test_targets_writing_one_file_are_refused_before_any_run(tmp_path, capsys):
    doc = get_preset("blackstart-virtual").to_dict()
    doc["name"] = "custom"  # two documents of one name
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for path in (first, second):
        path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for targets, name in ((["blackstart-virtual", "blackstart-virtual"], "blackstart-virtual"),
                          ([str(first), str(second)], "custom")):
        assert main(["run", *targets, "--out", str(out), "--t-end", "0.002"]) == 1
        assert (f"error: {targets[1]}: target {targets[0]} also writes {out / name}.csv"
                in capsys.readouterr().err)
        assert not out.exists()


@pytest.mark.parametrize("path, value, message", [
    (("controller", "alpha_f"), 3.0, "controller.alpha_f must not exceed r_a/l_f"),
    (("controller", "i_max"), "x",
     "malformed scenario document: controller.i_max: expected float, got 'x'"),
    (("schema",), None, "malformed scenario document: schema: missing key"),
], ids=lambda v: v[-1] if isinstance(v, tuple) else None)
def test_each_refusal_of_a_later_target_names_it(tmp_path, capsys, monkeypatch, path, value,
                                                 message):
    # The second target's document with the value at its key path, or without the key for None.
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    doc = get_preset("blackstart-virtual").to_dict()
    good.write_text(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    bad.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "run_sim", _no_run)
    out = tmp_path / "out"
    for targets in ([bad], [good, bad]):
        assert main(["run", *map(str, targets), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()


def _no_run(*args):
    pytest.fail("a target was simulated")


def test_a_repeated_nested_key_is_refused_before_any_run(tmp_path, capsys, monkeypatch):
    # json.loads alone keeps a repeated key's last value: this controller would run with i_max 1.2.
    bad = tmp_path / "twice.json"
    bad.write_text(get_preset("blackstart-virtual").to_json()
                   .replace('"controller": {', '"controller": {"i_max": 9.0, ', 1))
    monkeypatch.setattr(cli, "run_sim", _no_run)
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f'error: {bad}: not a JSON document: repeated key "i_max"\n'
    assert not out.exists()


def test_an_unexpected_failure_exits_2(tmp_path, capsys, monkeypatch):
    def failing_run(*args):
        raise RuntimeError("numeric failure")

    monkeypatch.setattr(cli, "run_sim", failing_run)
    assert main(["run", "blackstart-virtual", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "unexpected error: numeric failure\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("out, reason", [("afile", "File exists"),
                                         ("afile/sub", "Not a directory")])
def test_an_out_that_cannot_be_a_directory_is_a_usage_error_before_any_run(
        tmp_path, capsys, monkeypatch, out, reason):
    (tmp_path / "afile").write_text("")
    monkeypatch.setattr(cli, "run_sim", _no_run)
    out = tmp_path / out
    assert main(["run", "blackstart-virtual", "--out", str(out)]) == 1
    assert (f"error: --out {out}: cannot create the output directory: {reason}\n"
            == capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


@pytest.mark.parametrize("name", ["sub/x", "../escape", "", ".", "..", "back\\slash", "nul\0"])
def test_a_name_that_is_not_a_plain_file_name_is_refused_before_any_run(
        tmp_path, capsys, monkeypatch, name):
    # The name names <out>/<name>.csv: a path in it would write elsewhere, or fail after the run.
    doc = get_preset("blackstart-virtual").to_dict()
    doc["name"] = name
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "run_sim", _no_run)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert (f"error: {path}: name {name!r} is not a plain file name"
            in capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


@pytest.mark.parametrize("char", ["x", "\u00e9"])
def test_a_name_too_long_for_out_is_refused_before_any_run(tmp_path, capsys, char):
    # The longer file name, <name>.metrics.json, counts in bytes against the limit of
    # --out or, before it is made, of its nearest existing parent.
    name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
    fits = char * ((name_max - len(".metrics.json")) // len(char.encode()))
    path, out = tmp_path / "doc.json", tmp_path / "out" / "sub"
    for name, rc in ((fits + char, 1), (fits, 0)):
        path.write_text(json.dumps({**get_preset("blackstart-virtual").to_dict(), "name": name}))
        assert main(["run", str(path), "--out", str(out), "--t-end", "0.002"]) == rc
        assert out.exists() == (rc == 0)  # a refusal comes before --out is made
    size = len(f"{fits}{char}.metrics.json".encode())
    assert capsys.readouterr().err == (f"error: {path}: {fits}{char}.metrics.json is a file name "
                                       f"of {size} bytes, longer than the {name_max} that --out "
                                       "allows\n")
    assert sorted(p.name for p in out.iterdir()) == [f"{fits}.csv", f"{fits}.metrics.json"]


@pytest.mark.parametrize("suffix", [".csv", ".metrics.json"])
def test_a_directory_at_an_output_path_is_refused_before_any_run(tmp_path, capsys, suffix):
    taken = tmp_path / f"blackstart-virtual{suffix}"
    taken.mkdir()
    assert main(["run", "blackstart-virtual", "--out", str(tmp_path), "--t-end", "0.002"]) == 1
    assert capsys.readouterr().err == f"error: blackstart-virtual: output {taken} is a directory\n"
    assert list(tmp_path.iterdir()) == [taken] and not any(taken.iterdir())


def test_a_non_finite_metric_is_written_as_null(tmp_path, capsys, monkeypatch):
    record = run(get_preset("blackstart-virtual"), SimConfig(t_end=0.02))
    record.columns["q_1"][-1], record.columns["i_mag_2"][3] = math.nan, math.inf
    metrics = compute_metrics(record)  # the in-memory metrics keep their floats
    assert math.isnan(metrics.reactive_imbalance) and metrics.max_current[1] == math.inf
    record.to_csv(tmp_path / "run.csv")
    assert main(["metrics", str(tmp_path / "run.csv")]) == 0
    printed = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert printed == metrics.to_dict() and printed["max_current"][0] > 0.0
    assert printed["reactive_imbalance"] is None and printed["max_current"][1] is None
    monkeypatch.setattr(cli, "run_sim", lambda scenario, cfg: record)
    assert main(["run", "blackstart-virtual", "--out", str(tmp_path)]) == 0
    written = (tmp_path / "blackstart-virtual.metrics.json").read_text()
    assert json.loads(written, parse_constant=pytest.fail) == printed


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    out = tmp_path / "out"
    assert main(["run", "blackstart-virtual", "--out", str(out), "--t-end", "0.002",
                 "--jobs", jobs]) == 1
    assert f"error: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_the_pool_has_no_more_workers_than_targets(tmp_path, capsys, monkeypatch):
    sizes = []

    class InProcessPool:  # records its size and runs each job here, forking nothing
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    assert main(["run", "blackstart-virtual", "ramp-pmin-virtual", "--out", str(tmp_path),
                 "--t-end", "0.002", "--jobs", "4"]) == 0
    capsys.readouterr()
    assert sizes == [2]
    assert (tmp_path / "ramp-pmin-virtual.csv").exists()


def test_importing_the_cli_leaves_the_worker_pool_unimported():
    # A fresh interpreter: this one has concurrent.futures from conftest.py.
    # The pool's module, and the logging it imports, load only for a pool run.
    code = ("import sys, owfsim.cli; "
            "sys.exit(sorted({'concurrent.futures', 'logging'} & sys.modules.keys()) or None)")
    src = str(Path(owfsim.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")


def test_dead_controller_ts_is_a_usage_error(tmp_path, capsys):
    # The sample period is the run's --ts; schema 1 has no controller copy of it.
    doc = get_preset("blackstart-virtual").to_dict()
    doc["controller"]["ts"] = 200e-6
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    assert "controller.ts: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_each_target_is_read_once_and_runs_as_checked(tmp_path, capsys, monkeypatch, jobs):
    # b.json is rewritten into an invalid document once the first target has
    # run; the run still simulates the document it read and checked before.
    doc = get_preset("blackstart-virtual").to_dict()
    doc["name"] = "b"
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    reads = tmp_path / "reads"  # a file, so reads in pool workers count too
    load, run_sim = cli._load_scenario, cli.run_sim

    def counted_load(target):
        with open(reads, "a") as f:
            f.write(target + "\n")
        return load(target)

    def run_then_rewrite(scenario, cfg):
        record = run_sim(scenario, cfg)
        path.write_text(json.dumps({**doc, "t_end": -1.0}))
        return record

    monkeypatch.setattr(cli, "_load_scenario", counted_load)
    monkeypatch.setattr(cli, "run_sim", run_then_rewrite)
    out = tmp_path / "out"
    assert main(["run", "blackstart-virtual", str(path), "--out", str(out), "--t-end", "0.002",
                 "--jobs", jobs]) == 0
    capsys.readouterr()
    assert reads.read_text().split() == ["blackstart-virtual", str(path)]
    assert RunRecord.from_csv(out / "b.csv").header["scenario"] == doc


def test_module_entry_point_exists():
    import owfsim.__main__  # noqa: F401


def _set(*path, value, message="must be positive", also=()):
    """A document edit setting the value at a key path (and the edits in also)."""
    dotted = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
    return pytest.param([(path, value), *also], f"{dotted} {message}, got {value}", id=dotted)


@pytest.mark.parametrize("edits, message", [
    _set("plant", "link", "c_off", value=0.0),
    _set("plant", "link", "c_on", value=0.0),
    _set("plant", "link", "l_dc", value=0.0),
    _set("plant", "dru", "r_comm", value=0.0),
    _set("plant", "comp_cap", value=-0.1, message="must be nonnegative"),
    _set("plant", "strings", 1, "l_f", value=0.0),
    _set("plant", "n_wt", 1, value=0),
    _set("controller", "l_f", value=0.0),
    _set("controller", "omega_1", value=0.0),
    # The virtual inertia 2 * inertia_h * omega_1 underflows to 0.0, and the
    # damper feedthrough td / m_virtual divides by it.
    pytest.param([(("controller", "inertia_h"), 5e-324), (("controller", "omega_1"), 0.1)],
                 "controller.inertia_h: the virtual inertia 2 * inertia_h * omega_1 must be "
                 "positive, got 0.0", id="controller.m_virtual=0"),
    _set("controller", "v_ref_floor", value=0.0),
    # limit_reverse_power divides by |v_pcc,f|^2 once it reaches v_proj_floor^2.
    _set("controller", "v_proj_floor", value=0.0, also=[(("controller", "p_min"), 0.1)]),
    pytest.param([(("controller", "v_proj_floor"), -0.0), (("controller", "p_min"), 0.1)],
                 "controller.v_proj_floor must be positive, got -0.0", id="controller.v_proj_floor=-0"),
    _set("controller", "r_a", value=0.0, also=[(("controller", "alpha_f"), 0.0)]),
    _set("plant", "omega_base", value=0.0),
    pytest.param([(("plant", "omega_base"), -314.0)], "plant.omega_base must be positive, "
                 "got -314.0", id="plant.omega_base<0"),
    # alpha_q * omega_1 * ts = -2 zeroes the Tustin denominator 2 + alpha * omega_1 * ts.
    _set("controller", "alpha_q", value=-31.830988618379067, message="must be nonnegative"),
    _set("controller", "alpha_p", value=-0.5, message="must be nonnegative"),
    _set("controller", "alpha_f", value=-1.0, message="must be nonnegative"),
    _set("controller", "alpha_a", value=-0.01, message="must be nonnegative"),
    # limit_current_magnitude divides by the magnitude v_dc / 2; a negative
    # v_ref_max would clamp v_ref below zero.
    _set("controller", "v_dc", value=-1.9754),
    _set("controller", "v_ref_max", value=-0.5),
])
def test_a_zero_divisor_is_a_usage_error_before_any_output(tmp_path, capsys, edits, message):
    doc = get_preset("blackstart-measured-droop").to_dict()
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    bad = tmp_path / "z.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for targets in ([str(bad)], ["blackstart-virtual", str(bad)]):
        assert main(["run", *targets, "--out", str(out), "--t-end", "0.002"]) == 1
        assert f"error: {bad}: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_a_tiny_reverse_power_projection_floor_runs(tmp_path, capsys):
    spec = get_preset("blackstart-virtual")
    spec.controller.v_proj_floor = 1e-200   # squares to 0.0
    spec.controller.p_min = 0.1
    doc = tmp_path / "tiny.json"
    doc.write_text(spec.to_json())
    out = tmp_path / "out"
    assert main(["run", str(doc), "--out", str(out), "--t-end", "0.01"]) == 0
    assert (out / "blackstart-virtual.csv").stat().st_size > 0


def test_a_turbine_count_beyond_float64_runs(tmp_path, capsys):
    # Each share of the farm base is a correctly rounded integer division: string 2's
    # 38 of 10**400 + 38 turbines rounds to a share of 0.0, and the run goes on.
    doc = get_preset("blackstart-virtual").to_dict()
    doc["plant"]["n_wt"] = [10**400, 38]
    assert ScenarioSpec.from_dict(doc).plant.s_frac == [1.0, 0.0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--t-end", "0.01"]) == 0
    assert RunRecord.from_csv(out / "blackstart-virtual.csv").header["scenario"] == doc
