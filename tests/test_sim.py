import tracemalloc

import numpy as np
import pytest

import owfsim as o
from owfsim.controller import ControllerParams
from owfsim.record import STATUS_DIVERGED, column_names
from owfsim.scenario import build_black_start
from owfsim.sim import DelayLine, SimConfig


# --- config validation ----------------------------------------------------------

def test_sim_config_defaults_valid():
    SimConfig().validate()


@pytest.mark.parametrize("kwargs", [
    {"dt_plant": 0.0},
    {"ts_control": -1.0},
    {"dt_plant": 30e-6, "ts_control": 200e-6},   # not an integer ratio
    {"record_decimation": 0},
    {"t_end": 0.0},
])
def test_sim_config_rejects(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs).validate()


# --- delay line -------------------------------------------------------------------

def test_delay_line_exact_shift():
    d = DelayLine(delay=3 * 0.1, ts=0.1, fill=0.0)
    seq = [1.0, 2.0, 3.0, 4.0, 5.0]
    out = [d.step(x) for x in seq]
    assert out == [0.0, 0.0, 0.0, 1.0, 2.0]


def test_delay_line_zero_delay_passthrough():
    d = DelayLine(0.0, 0.1)
    assert [d.step(x) for x in (1.0, 2.0)] == [1.0, 2.0]


def test_delay_line_rejects_negative_delay():
    with pytest.raises(ValueError):
        DelayLine(-0.1, 0.1)


def test_delay_line_rounds_to_sample_grid():
    assert DelayLine(0.3, 200e-6).n == 1500


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


def test_divergence_is_detected_and_timestamped():
    # An inverted frequency droop is exponentially unstable; the run must end
    # with a diverged status, a timestamp, and a truncated (finite) record.
    scenario = build_black_start(0.0)
    scenario.controller = ControllerParams(km=-20.0)
    scenario.t_end = 4.0
    r = o.run(scenario, SimConfig(dt_plant=100e-6))
    assert r.status == STATUS_DIVERGED
    assert r.diverged_at is not None and 0.0 < r.diverged_at < 4.0
    for name, col in r.columns.items():
        assert np.all(np.isfinite(col)), name


def test_header_reconstructs_scenario():
    from owfsim.scenario import ScenarioSpec
    scenario = o.get_preset("blackstart-virtual")
    r = o.run(scenario, _small_cfg())
    rebuilt_dict = dict(r.header["scenario"])
    rebuilt_dict.pop("n_strings")
    rebuilt = ScenarioSpec.from_dict(rebuilt_dict)
    r2 = o.run(rebuilt, _small_cfg())
    for name in r.columns:
        assert np.array_equal(r.columns[name], r2.columns[name])


def _peak_traced_bytes(scenario, cfg):
    tracemalloc.start()
    try:
        o.run(scenario, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_recording_costs_about_eight_bytes_per_value():
    # Record columns are float64 buffers: each extra recorded value adds its
    # 8 bytes plus buffer growth to the run's peak, not a boxed float (~36 B).
    scenario = o.get_preset("blackstart-virtual")
    cfgs = [SimConfig(dt_plant=100e-6, t_end=t_end, record_decimation=1)
            for t_end in (0.1, 0.2)]
    o.run(scenario, cfgs[0])  # warm-up: one-time allocations stay out of the peaks
    short, long = (_peak_traced_bytes(scenario, cfg) for cfg in cfgs)
    n_values = len(column_names(2)) * 500  # 0.1 s more at one row per 200 µs
    assert (long - short) / n_values <= 12.0
