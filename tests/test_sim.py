import dataclasses
import functools
import gc
import importlib.util
import itertools
import json
import pickle
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import owfsim as o
from owfsim import check, plant, record, schema, sim
from owfsim.controller import Controller, ControllerParams
from owfsim.cli import main
from owfsim.plant import OnshoreSource, PlantParams, StringElectrical
from owfsim.record import STATUS_DIVERGED, RunRecord, column_names
from owfsim.scenario import (PRESETS, RampProfile, ScenarioSpec, StringSpec, build_black_start,
                             build_power_ramp)
from owfsim.sim import SimConfig
from owfsim.spacevec import wrap_angle

_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).resolve().parent / "data" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


# --- config validation ----------------------------------------------------------

def test_sim_config_defaults_valid():
    check(SimConfig())


@pytest.mark.parametrize("kwargs", [
    {"dt_plant": 0.0},
    {"ts_control": -1.0},
    {"dt_plant": 30e-6, "ts_control": 200e-6},   # not an integer ratio
    {"record_decimation": 0},
    {"t_end": 0.0},
])
def test_sim_config_rejects(kwargs):
    with pytest.raises(ValueError):
        check(SimConfig(**kwargs))


@pytest.mark.parametrize("kwargs, field", [
    ({"t_end": 0.0013}, "t_end"),                 # 6.5 samples: round() would run 6
    ({"t_end": 5e-5}, "t_end"),                   # a quarter sample: zero intervals
    ({"t_end": 1e-20}, "t_end"),                  # zero samples, to 1e-9
    ({"t_end": 0.3, "ts_control": 0.2, "dt_plant": 0.1}, "t_end"),
    ({"record_decimation": 1.5}, "record_decimation"),
    ({"record_decimation": True}, "record_decimation"),
    ({"record_decimation": "2"}, "record_decimation"),
    ({"t_end": True}, "t_end"),                   # would run 1 s and write "t_end": true
    ({"dt_plant": True}, "dt_plant"),
    ({"ts_control": True}, "ts_control"),
    ({"t_end": "3"}, "t_end"),
    ({"ts_control": "200e-6"}, "ts_control"),
    ({"dt_plant": None}, "dt_plant"),             # only t_end defaults to the scenario's
])
def test_sim_config_rejects_horizons_and_decimations_it_would_not_honour(kwargs, field):
    value = kwargs[field]
    expected = int if field == "record_decimation" else float
    if type(value) is expected:  # off the sample grid
        match = f"^{field} must be"
    else:  # the field's type, as a scenario document's
        match = f"^{field}: expected {expected.__name__}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=match):
        check(SimConfig(**kwargs))


def test_an_off_grid_control_period_names_ts_control():
    with pytest.raises(ValueError, match=r"^ts_control must be a whole number >= 1 of plant "
                                         r"steps of 3e-05 s, got 0\.0002$"):
        check(SimConfig(dt_plant=30e-6))


def test_sim_config_accepts_numpy_floats():
    check(SimConfig(dt_plant=np.float64(20e-6), ts_control=np.float64(200e-6),
                    t_end=np.float64(0.3)))


def test_off_grid_scenario_horizon_is_rejected_by_run():
    scenario = o.get_preset("blackstart-virtual")
    scenario.t_end = 0.0013
    with pytest.raises(ValueError, match="^t_end must be a whole number"):
        o.run(scenario, SimConfig(dt_plant=100e-6))


def test_header_horizon_is_the_simulated_one():
    # A horizon within 1e-9 of a sample count is on the grid; the record then
    # ends at the horizon its header states.
    scenario = o.get_preset("blackstart-virtual")
    for t_end in (0.0012, 0.0003 + 0.0009):  # 6 samples; 5.999999999999999
        r = o.run(scenario, SimConfig(dt_plant=100e-6, t_end=t_end, record_decimation=1))
        assert r.header["sim"]["t_end"] == t_end
        assert r.t[-1] == pytest.approx(t_end, abs=1e-12)
        assert len(r.t) == 7


# --- start-signal delays ------------------------------------------------------------

def test_samples_counts_whole_steps():
    assert schema.samples(0.3, 200e-6, "t_end") == 1500
    assert schema.samples(0.0, 200e-6, "delay", minimum=0) == 0
    assert schema.samples(0.0012 * (1 + 1e-12), 200e-6, "t_end") == 6  # within 1e-9 of a step


@pytest.mark.parametrize("value, minimum", [(0.3001, 0), (0.0003, 0), (-0.0002, 0), (0.0, 1)])
def test_samples_refuses_off_grid_and_too_small_values(value, minimum):
    with pytest.raises(ValueError, match=f"^x must be a whole number >= {minimum} "
                                         f"of control samples of 0.0002 s, got {value}$"):
        schema.samples(value, 200e-6, "x", minimum=minimum)


def test_samples_refuses_a_count_beyond_the_float_range():
    # 1e300 / 1e-300 is inf, which has no whole number to round to.
    with pytest.raises(ValueError, match="^x must be a whole number >= 1 of control samples "
                                         "of 1e-300 s, got 1e[+]300$"):
        schema.samples(1e300, 1e-300, "x")


def test_delayed_start_signals_are_shifted_by_whole_samples(monkeypatch):
    # String 1 reads the undelayed references; string 2 the same floats 3
    # (v_ext) and 5 (p_ref) samples later, and 0.0 before them.  The ramps
    # start before t = 0, so no sample reads 0.0 from the ramp itself.
    scenario = build_black_start(0.0)
    scenario.v_ext = RampProfile(0.8, 0.6, -0.01)
    scenario.p_ref = RampProfile(1.0, 20.0, -0.001)
    scenario.strings[1].v_ramp_delay = 0.0006
    scenario.strings[1].p_ramp_delay = 0.001
    seen = {}
    step = Controller.step

    def spy(self, p_ref, q_ref, v_ext, v_pcc_s, i_s):
        seen.setdefault(id(self), []).append((v_ext, p_ref))
        return step(self, p_ref, q_ref, v_ext, v_pcc_s, i_s)

    monkeypatch.setattr(Controller, "step", spy)
    ts = 200e-6
    o.run(scenario, SimConfig(dt_plant=100e-6, t_end=20 * ts))
    (v1, p1), (v2, p2) = (list(zip(*calls)) for calls in seen.values())
    assert list(v1) == [scenario.v_ext.value(k * ts) for k in range(21)]
    assert list(p1) == [scenario.p_ref.value(k * ts) for k in range(21)]
    assert min(v1) > 0.0 and min(p1) > 0.0
    assert list(v2) == [0.0] * 3 + list(v1[:-3])
    assert list(p2) == [0.0] * 5 + list(p1[:-5])


@pytest.mark.parametrize("field", ["v_ramp_delay", "p_ramp_delay"])
@pytest.mark.parametrize("delay", [0.3001, 0.0003])  # 1500.5 and 1.4999999999999998 samples
def test_off_grid_start_delay_is_rejected_by_run(field, delay):
    scenario = build_black_start(0.0)
    setattr(scenario.strings[1], field, delay)
    with pytest.raises(ValueError, match=rf"^strings\[1\]\.{field} must be a whole number "
                                         rf">= 0 of control samples"):
        o.run(scenario, SimConfig(dt_plant=100e-6, t_end=0.002))


# --- the run loop -----------------------------------------------------------------

def _small_cfg(**kw):
    return SimConfig(dt_plant=100e-6, t_end=0.2, **kw)


def test_run_is_bit_identical():
    scenario = o.get_preset("blackstart-virtual")
    r1 = o.run(scenario, _small_cfg())
    r2 = o.run(scenario, _small_cfg())
    assert r1.columns.keys() == r2.columns.keys()
    for name in r1.columns:
        assert np.array_equal(r1.columns[name], r2.columns[name])


def test_record_shape_and_time_grid():
    scenario = o.get_preset("blackstart-virtual")
    cfg = _small_cfg(record_decimation=4)
    r = o.run(scenario, cfg)
    assert list(r.columns.keys()) == column_names(2)
    dt = np.diff(r.t)
    assert np.allclose(dt, 4 * cfg.ts_control, atol=0.0)
    assert r.t[0] == 0.0
    assert r.n_strings == 2


def test_t_end_override():
    scenario = o.get_preset("blackstart-virtual")
    r = o.run(scenario, SimConfig(dt_plant=100e-6, t_end=0.1))
    assert r.t[-1] == pytest.approx(0.1, abs=1e-9)


@pytest.mark.parametrize("n", [1, 3])
def test_each_recorded_string_column_is_its_named_signal(monkeypatch, n):
    # The goldens pin 2-string plants and a 1-string stiff bus: here every
    # string column of a 1- and a 3-string plant's record is checked, bit for bit,
    # against what the controller returned at that sample and the PCC state
    # it read.  A fast voltage ramp into a low current limit sets lim_i, and
    # staggered start signals and string sizes keep the strings apart.
    scenario = ScenarioSpec(
        strings=[StringSpec(v_ramp_delay=0.0004 * k) for k in range(n)],
        v_ext=RampProfile(1.0, 100.0, 0.0), t_end=0.01,
        controller=ControllerParams(i_max=0.05),
        plant=PlantParams(strings=[StringElectrical() for _ in range(n)],
                          n_wt=[36, 38, 40][:n]))
    calls = []
    step = Controller.step

    def spy(self, p_ref, q_ref, v_ext, v_pcc_s, i_s):
        out = step(self, p_ref, q_ref, v_ext, v_pcc_s, i_s)
        calls.append((out, v_pcc_s, i_s))
        return out

    monkeypatch.setattr(Controller, "step", spy)
    cfg = SimConfig()
    r = o.run(scenario, cfg)
    assert list(r.columns) == column_names(n)
    w = scenario.plant.omega_base
    samples = range(0, len(calls) // n, cfg.record_decimation)
    assert r.t.tolist() == [s * cfg.ts_control for s in samples]
    for k in range(1, n + 1):
        seen = [calls[s * n + k - 1] for s in samples]
        expected = {
            "vpcc_mag": [abs(v) for _, v, _ in seen], "i_mag": [abs(i) for _, _, i in seen],
            "p": [c.p for c, _, _ in seen], "q": [c.q for c, _, _ in seen],
            "p_virt": [c.p_virt for c, _, _ in seen], "q_virt": [c.q_virt for c, _, _ in seen],
            "i_ref0_mag": [abs(c.i_ref0) for c, _, _ in seen],
            "omega": [c.omega for c, _, _ in seen], "v_ref": [c.v_ref for c, _, _ in seen],
            "phi_rel": [wrap_angle(c.phi - w * t) for (c, _, _), t in zip(seen, r.t.tolist())],
            "lim_p": [float(c.lim_p_active) for c, _, _ in seen],
            "lim_i": [float(c.lim_i_active) for c, _, _ in seen]}
        assert sorted(expected) == sorted(record.STRING_COLUMNS)
        for name, values in expected.items():
            assert r.col(name, k).tobytes() == np.array(values).tobytes(), (name, k)
    lim_i = np.concatenate([r.col("lim_i", k) for k in range(1, n + 1)])
    assert 0.0 < lim_i.mean() < 1.0


def _diverging_black_start():
    # An inverted frequency droop is exponentially unstable.
    scenario = build_black_start(0.0)
    scenario.controller = ControllerParams(km=-20.0)
    scenario.t_end = 4.0
    return scenario


def test_divergence_is_detected_and_timestamped():
    # The run must end with a diverged status, a timestamp, and a truncated
    # (finite) record.
    r = o.run(_diverging_black_start(), SimConfig(dt_plant=100e-6))
    assert r.status == STATUS_DIVERGED
    assert r.diverged_at is not None and 0.0 < r.diverged_at < 4.0
    for name, col in r.columns.items():
        assert np.all(np.isfinite(col)), name


@functools.cache
def _divergence_step() -> int:
    """The control step d at which the diverging black start at 100 us diverges."""
    cfg = SimConfig(dt_plant=100e-6)
    return round(o.run(_diverging_black_start(), cfg).diverged_at / cfg.ts_control)


@pytest.mark.parametrize("smallest", [2, 7])
def test_a_diverging_run_round_trips_through_metrics(smallest, tmp_path, capsys):
    # The record holds the rows of steps 0 ... d - 1 for a divergence found at step d,
    # and owfsim metrics judges it.  The decimation is the first from smallest on
    # that does not divide d, so the last row is a partial stride whatever step
    # an ulp moves the divergence to.
    d = _divergence_step()
    decimation = next(k for k in itertools.count(smallest) if d % k)
    cfg = SimConfig(dt_plant=100e-6, record_decimation=decimation)
    r = o.run(_diverging_black_start(), cfg)
    assert r.status == STATUS_DIVERGED and round(r.diverged_at / cfg.ts_control) == d
    assert len(r.t) == -(-d // decimation) and d % decimation
    # The run's table has a row for each sample of its 4 s horizon; the record
    # holds the rows recorded, and its pickled copy carries only those.
    assert r.table.shape == (len(r.t), len(column_names(r.n_strings)))
    assert r.table.base.shape[0] == round(4.0 / cfg.ts_control) // decimation + 1 > 2 * len(r.t)
    data = pickle.dumps(r)
    assert len(data) < r.table.nbytes + len(pickle.dumps(r.header)) + 1024
    assert pickle.loads(data).table.tobytes() == r.table.tobytes()
    path = tmp_path / "run.csv"
    r.to_csv(path)
    assert main(["metrics", str(path)]) == 0
    assert o.compute_metrics(RunRecord.from_csv(path)) == o.compute_metrics(r)


def test_a_plant_state_past_the_bound_diverges_at_the_first_check(tmp_path, capsys):
    # Every other diverging test trips on a controller state first.  A stiff bus at
    # twice the bound starts there: no row is recorded, the audit's one block is
    # empty and its residual 0.0, and owfsim metrics judges the empty record.
    scenario = ScenarioSpec(strings=[StringSpec()], plant=PlantParams(
        strings=[StringElectrical()], n_wt=[36], stiff_bus_voltage=2.0 * sim.DIVERGENCE_BOUND))
    r = o.run(scenario, SimConfig(energy_audit=True))
    assert (r.status, r.diverged_at, len(r.t)) == (STATUS_DIVERGED, 0.0, 0)
    assert r.header["energy_audit"] == {"final_residual": 0.0, "max_abs_residual": 0.0}
    path = tmp_path / "run.csv"
    r.to_csv(path)
    assert main(["metrics", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == o.compute_metrics(r).to_dict()


def test_an_audited_run_that_overflows_ends_diverged_with_a_standard_json_header(tmp_path):
    # A negative filter resistance feeds the currents until the audit's squares
    # overflow; the run diverges as it does unaudited, and no residual is NaN.
    scenario = o.get_preset("blackstart-virtual")
    for s in scenario.plant.strings:
        s.r_f = -1e6
    check(scenario)
    unaudited = o.run(scenario, SimConfig(t_end=0.01))
    r = o.run(scenario, SimConfig(t_end=0.01, energy_audit=True))
    assert (r.status, r.diverged_at) == (STATUS_DIVERGED, unaudited.diverged_at)
    assert r.table.tobytes() == unaudited.table.tobytes()
    assert r.header["energy_audit"]["final_residual"] is None
    path = tmp_path / "run.csv"
    r.to_csv(path)
    meta = json.loads(path.read_text().split("\n", 1)[0][2:], parse_constant=pytest.fail)
    assert meta["header"]["energy_audit"] == r.header["energy_audit"]


def test_header_reconstructs_scenario():
    scenario = o.get_preset("blackstart-virtual")
    r = o.run(scenario, _small_cfg())
    rebuilt = ScenarioSpec.from_dict(r.header["scenario"])
    r2 = o.run(rebuilt, _small_cfg())
    for name in r.columns:
        assert np.array_equal(r.columns[name], r2.columns[name])


@pytest.mark.parametrize("name", [*sorted(PRESETS), "blackstart-virtual-audit"])
def test_csv_header_re_runs_its_record(name, tmp_path, capsys):
    # The header's scenario is the scenario document and its sim every setting
    # of the run: together they re-run the record to the same CSV bytes.
    if name in PRESETS:
        assert main(["run", name, "--out", str(tmp_path), "--dt", "100e-6", "--t-end", "0.02"]) == 0
        capsys.readouterr()
        scenario, first = o.get_preset(name), tmp_path / f"{name}.csv"
    else:  # the audited golden case: the CLI has no audit flag
        scenario, cfg = make_golden.cases()[name]
        first = tmp_path / "first.csv"
        o.run(scenario, cfg).to_csv(first)
    h = RunRecord.from_csv(first).header
    assert h["scenario"] == scenario.to_dict()
    o.run(ScenarioSpec.from_dict(h["scenario"]), SimConfig(**h["sim"])).to_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == first.read_bytes()


def _peak_traced_bytes(scenario, cfg):
    tracemalloc.start()
    try:
        o.run(scenario, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_deleted_record_frees_its_table_without_the_cyclic_collector():
    # The recorder holds the table as a closure cell.  Held as a global of the
    # recorder's namespace, it would stay alive in the cycle of that namespace
    # and its _make until the cyclic collector ran.
    gc.disable()
    try:
        rec = o.run(o.get_preset("blackstart-virtual"), SimConfig(dt_plant=100e-6, t_end=0.01))
        table = weakref.ref(rec.table.base)
        del rec
        assert table() is None
    finally:
        gc.enable()


def test_recording_costs_about_eight_bytes_per_value(monkeypatch):
    # A run allocates its float64 table once, at its horizon's size: each extra
    # recorded value adds its 8 bytes to the run's peak, not a boxed float
    # (~36 B) nor buffer growth.  The slack, 1/32 B per value, covers the
    # peak's other allocations: the difference reads 7.99 to 8.00 B per value.
    # The plant is held at its state: its allocations do not grow with the
    # horizon, so they cancel in the difference, and tracemalloc need not
    # trace each float the kernel forms.
    monkeypatch.setattr(plant, "rk4", lambda model, h, n_sub: lambda t, y, v_conv: y)
    scenario = o.get_preset("blackstart-virtual")
    cfgs = [SimConfig(dt_plant=100e-6, t_end=t_end, record_decimation=1)
            for t_end in (0.1, 0.4)]
    o.run(scenario, cfgs[0])  # warm-up: one-time allocations stay out of the peaks
    short, long = (_peak_traced_bytes(scenario, cfg) for cfg in cfgs)
    n_values = len(column_names(2)) * 1500  # 0.3 s more at one row per 200 µs
    assert (long - short) / n_values <= 8.0 + 1 / 32


def test_an_audited_run_holds_at_most_one_block_of_points(monkeypatch):
    # The run appends each interval's end point to the audit's list, and
    # evaluate() empties it every AUDIT_BLOCK intervals and once at the end:
    # the audit holds at most one block of points, whatever the horizon.
    held = []
    evaluate = sim._EnergyAudit.evaluate

    def measured(audit):
        held.append(len(audit.points))
        evaluate(audit)

    monkeypatch.setattr(sim._EnergyAudit, "evaluate", measured)
    cfg = SimConfig(dt_plant=100e-6, t_end=(3 * sim.AUDIT_BLOCK + 5) * _TS, energy_audit=True)
    o.run(o.get_preset("blackstart-virtual"), cfg)
    width = 1 + 2 + len(plant.state_names(2))  # t_end, each v_conv_k, the state
    assert held == [sim.AUDIT_BLOCK * width] * 3 + [5 * width]


# --- the energy audit against a per-interval scalar loop ----------------------------

def _reference_audit(scenario, cfg, monkeypatch):
    """Run with the audit on, and replay the energy audit on the run's own
    states as a per-control-interval scalar loop.  Returns (record,
    final_residual, max_abs_residual); the loop evaluates one point at a time.
    An interval starts at the previous interval's end point (the run's initial
    state at t = 0 for the first), under its own v_conv, and ends at the time
    of its last substep's end, t + (n_sub - 1) * h + h."""
    intervals = []  # (t, y, v_conv, y_new) per control interval
    rk4 = plant.rk4

    def recording_rk4(model, h, n_sub):
        advance = rk4(model, h, n_sub)

        def recording_advance(t, y, v_conv):
            y_new = advance(t, y, v_conv)
            intervals.append((t, y, v_conv, y_new))
            return y_new
        return recording_advance

    monkeypatch.setattr(plant, "rk4", recording_rk4)
    record = sim.run(scenario, cfg)
    monkeypatch.undo()

    model = plant.PlantModel(scenario.plant)
    n_sub = int(round(cfg.ts_control / cfg.dt_plant))
    h = cfg.ts_control / n_sub

    def balance(t, y, v_conv):
        p_in, p_diss, p_exp = plant.power_flows(model, t, y, v_conv)
        return p_in - p_diss - p_exp

    residual = max_abs = t_prev = 0.0
    y_prev = plant.initial_state(scenario.plant)
    e_prev = plant.stored_energy(model, y_prev)
    for t, y, v_conv, y_new in intervals:
        assert y == y_prev  # an interval starts where the previous one ended
        t_end = t + (n_sub - 1) * h + h
        e_now = plant.stored_energy(model, y_new)
        bal = balance(t_prev, y, v_conv) + balance(t_end, y_new, v_conv)
        residual += (e_now - e_prev) - 0.5 * (t_end - t_prev) * bal
        max_abs = max(max_abs, abs(residual))
        t_prev, y_prev, e_prev = t_end, y_new, e_now
    return record, residual, max_abs


def _black_start_with(onshore):
    """blackstart-virtual with its onshore source replaced by onshore."""
    scenario = o.get_preset("blackstart-virtual")
    scenario.plant.onshore = onshore
    return scenario


_TS = SimConfig().ts_control
AUDIT_CASES = {
    "blackstart-virtual 0.25 s": (lambda: o.get_preset("blackstart-virtual"),
                                  SimConfig(t_end=0.25, energy_audit=True)),
    "stiff bus": (make_golden.stiff_bus,
                  SimConfig(dt_plant=50e-6, t_end=0.6, energy_audit=True)),
    "diverging": (_diverging_black_start,
                  SimConfig(dt_plant=100e-6, energy_audit=True)),
    "shorter than one block": (
        lambda: o.get_preset("blackstart-virtual"),
        SimConfig(t_end=(sim.AUDIT_BLOCK // 2) * _TS, energy_audit=True)),
    "ends in a partial block": (
        lambda: o.get_preset("blackstart-measured-droop"),
        SimConfig(t_end=(2 * sim.AUDIT_BLOCK + 5) * _TS, energy_audit=True)),
    # 1157 intervals from 0.7686 s on block the rectifier throughout: the
    # interval map and the dc kernel step them.
    "intervals stepped by the map": (
        lambda: o.get_preset("blackstart-measured-droop"),
        SimConfig(t_end=1.0, energy_audit=True)),
    # The two branches of the regulator's output that no preset takes.  Without
    # feedforward v_on stays below 0.65 pu for 1 s, so a source regulating to
    # 1.0 pu would never conduct; regulating to 0.1 pu it absorbs from 0.139 s.
    "onshore source allowed to energize": (
        lambda: _black_start_with(OnshoreSource(energize_allowed=True)),
        SimConfig(t_end=0.25, energy_audit=True)),
    "onshore source without feedforward": (
        lambda: _black_start_with(OnshoreSource(feedforward=False, v_ref=0.1)),
        SimConfig(t_end=0.25, energy_audit=True)),
}


@pytest.mark.parametrize("case", list(AUDIT_CASES))
def test_block_audit_matches_per_interval_loop(case, monkeypatch):
    make, cfg = AUDIT_CASES[case]
    scenario = make()
    record, final, max_abs = _reference_audit(scenario, cfg, monkeypatch)
    audit = record.header["energy_audit"]
    assert audit["final_residual"] == pytest.approx(final, rel=0.0, abs=1e-15)
    assert audit["max_abs_residual"] == pytest.approx(max_abs, rel=0.0, abs=1e-15)
    assert max_abs > 0.0
    if case == "diverging":
        assert record.status == STATUS_DIVERGED
    # The audit only reads the run: the record is the one of a run without it.
    plain = sim.run(scenario, dataclasses.replace(cfg, energy_audit=False))
    assert record.columns.keys() == plain.columns.keys()
    for name, col in record.columns.items():
        assert col.tobytes() == plain.columns[name].tobytes(), name


def _fast_power_ramp(r_comm=None):
    """A short power ramp: both strings to 0.8 pu at 4 pu/s from 1 s, over 1.5 s."""
    scenario = build_power_ramp(delay_s2=0.0)
    scenario.p_ref = RampProfile(0.8, 4.0, 1.0)
    scenario.t_end = 1.5
    if r_comm is not None:
        scenario.plant.dru.r_comm = r_comm
    return scenario


@pytest.mark.parametrize("r_comm, dt_plant, stable", [
    (None, 20e-6, True),
    (0.025, 20e-6, False),  # the DRU bus mode's step bound halves with r_comm
    (None, 40e-6, False),   # past the bound at the default r_comm
], ids=["stable", "r_comm 0.025", "dt_plant 40 us"])
def test_the_audit_flags_a_step_past_the_stability_bound(r_comm, dt_plant, stable):
    # Past RK4's stability bound on the DRU bus mode the diode clamp bounds the
    # unstable mode and the run converges to another operating point: the
    # per-interval residual is what shows it, orders of magnitude above a
    # stable run's.
    r = o.run(_fast_power_ramp(r_comm), SimConfig(dt_plant=dt_plant, energy_audit=True))
    assert r.diverged_at is None
    final = abs(r.header["energy_audit"]["final_residual"])
    assert final < 1e-5 if stable else final > 1e-3
