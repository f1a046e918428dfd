"""Records must stay bit-identical to the pinned golden digests
(tests/data/golden.json, written by tests/data/make_golden.py).  Every
preset's whole trajectory must also stay within a tolerance of its fingerprint
(tests/data/fingerprints.npz): the gate of a change of numerics, whose digests
are re-pinned only once it passes."""
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from owfsim import plant, record, sim
from owfsim.scenario import PRESETS, get_preset

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("make_golden", DATA / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

GOLDEN = json.loads((DATA / "golden.json").read_text())
CASES = make_golden.cases()
with np.load(make_golden.FINGERPRINTS) as _npz:
    FINGERPRINTS = {name: _npz[name] for name in _npz.files}

# The fingerprint gate: each fingerprint column within FINGERPRINT_TOL of the
# fingerprint over the whole horizon; a preset that loses synchronism only up to
# PRE_LOS_MARGIN before its fingerprint's LOS, its los_time within LOS_SAMPLES
# record samples, since its trajectory after LOS is chaotic.
FINGERPRINT_TOL = 1e-9  # pu
PRE_LOS_MARGIN = 50e-3  # s
LOS_SAMPLES = 2

# Session fixture (tests/conftest.py) of each preset at SimConfig().
PRESET_FIXTURES = {
    "blackstart-virtual": "blackstart_virtual",
    "blackstart-measured-droop": "blackstart_measured",
    "ramp-nopmin-measured": "ramp_nopmin_measured",
    "ramp-pmin-measured-pv": "ramp_pmin_measured_pv",
    "ramp-pmin-virtual": "ramp_pmin_virtual",
}


def test_every_case_has_a_golden_digest():
    assert sorted(GOLDEN) == sorted(CASES)


def _assert_golden(name, record):
    golden = GOLDEN[name]
    assert make_golden.digest(record) == golden["digest"], name
    if "final_residual" in golden:
        # The audit residual is a running sum that may move in its last bits
        # when the bookkeeping reuses a power-flow evaluation at a time an
        # ulp away; the simulated columns above must not move at all.
        residual = record.header["energy_audit"]["final_residual"]
        assert residual == pytest.approx(golden["final_residual"], rel=0.0, abs=1e-12)


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_matches_golden_digest(name):
    _assert_golden(name, sim.run(*CASES[name]))


def test_a_reversed_state_layout_reproduces_every_golden_record(monkeypatch):
    # plant.state_names is the only statement of the state order and
    # record.STRING_COLUMNS the only one of the row order and of each string
    # column's value: the kernels, the energy audit and the recorder read each
    # state by its name, and each run generates its recorder from
    # STRING_COLUMNS, so with both reversed each named column holds the forward
    # run's values.  The kernels are built per structure and cached, so the
    # cache is rebuilt under each order.  The digest hashes the columns by name
    # in the forward order, so it is taken once that order is back.
    forward = plant.state_names
    reversed_columns = list(record.STRING_COLUMNS)[::-1]
    monkeypatch.setattr(plant, "state_names", lambda n: forward(n)[::-1])
    monkeypatch.setattr(record, "STRING_COLUMNS",
                        {c: record.STRING_COLUMNS[c] for c in reversed_columns})
    plant._kernel.cache_clear()
    records = {}
    try:
        for name, (scenario, cfg) in sorted(CASES.items()):
            assert list(plant.PlantModel(scenario.plant).index)[0] == "i_ff"
            run = records[name] = sim.run(scenario, cfg)
            string_1 = list(run.columns)[1:1 + len(reversed_columns)]
            assert string_1 == [f"{c}_1" for c in reversed_columns], name
    finally:
        monkeypatch.undo()
        plant._kernel.cache_clear()
    for name, run in records.items():
        _assert_golden(name, run)


def test_a_wrapped_derivatives_reproduces_every_golden_record(monkeypatch):
    # rk4 binds the staged step, the interval kernel's text with one observed
    # plant.derivatives call per stage, once a wrapper has replaced it (so a
    # tracer sees every evaluation), and the fused step otherwise: the two give
    # the same records, bit for bit.
    calls = [0]
    deriv = plant.derivatives

    def wrapped(*args):
        calls[0] += 1
        return deriv(*args)

    monkeypatch.setattr(plant, "derivatives", wrapped)
    for name, (scenario, cfg) in sorted(CASES.items()):
        before = calls[0]
        record = sim.run(scenario, cfg)
        assert calls[0] > before, name
        _assert_golden(name, record)


def fingerprint_deviation(name, record, until=math.inf) -> float:
    """The largest |deviation| of the record's fingerprint from preset name's pinned one,
    over their common rows at times up to until; NaN wherever the record holds a NaN."""
    pinned = FINGERPRINTS[name]
    rows = make_golden.fingerprint(record)[:len(pinned)]
    t = record.t[::make_golden.FINGERPRINT_EVERY][:len(rows)]
    return float(np.max(np.abs(rows - pinned[:len(rows)])[t <= until], initial=0.0))


def test_the_fingerprints_cover_every_preset():
    assert sorted(PRESET_FIXTURES) == sorted(PRESETS)
    assert sorted(FINGERPRINTS) == sorted([*PRESETS, *(f"{name}.outcome" for name in PRESETS)])


# Each case names its session fixture as its fixture parameter, so the session
# submits every run at its start (tests/conftest.py), also when this file runs alone.
@pytest.mark.parametrize("name, fixture", sorted(PRESET_FIXTURES.items()),
                         ids=sorted(PRESET_FIXTURES))
def test_every_preset_stays_within_its_fingerprint(name, fixture, request):
    record, _ = request.getfixturevalue(fixture)
    assert record.header["scenario"]["name"] == name
    assert make_golden.fingerprint(record).shape == FINGERPRINTS[name].shape
    pinned = dict(zip(make_golden.OUTCOME, FINGERPRINTS[f"{name}.outcome"]))
    got = dict(zip(make_golden.OUTCOME, make_golden.outcome(record)))
    for key in ("los_detected", "voltage_settled", "ramp_completed"):
        assert got[key] == pinned[key], key
    until = math.inf
    if pinned["los_detected"]:
        sample = record.t[1] - record.t[0]
        assert abs(got["los_time"] - pinned["los_time"]) <= LOS_SAMPLES * sample * (1 + 1e-9)
        until = pinned["los_time"] - PRE_LOS_MARGIN
    deviation = fingerprint_deviation(name, record, until)
    assert deviation <= FINGERPRINT_TOL, f"{name}: {deviation:.3e} pu from its fingerprint"


def test_a_25_us_plant_step_fails_the_fingerprint_gate():
    # The gate's negative control: RK4 at 25 us instead of 20 us moves the
    # black start by about 1.25e-5 pu within 0.5 s, far past the tolerance.
    record = sim.run(get_preset("blackstart-virtual"), sim.SimConfig(dt_plant=25e-6, t_end=0.5))
    assert fingerprint_deviation("blackstart-virtual", record) > 1e3 * FINGERPRINT_TOL


def test_a_session_fixture_record_equals_its_run_in_process(blackstart_virtual):
    # The session fixtures run in worker processes (tests/conftest.py): the
    # record one returns must be the one this process computes, bit for bit.
    record, _ = blackstart_virtual
    direct = sim.run(get_preset("blackstart-virtual"), sim.SimConfig())
    assert make_golden.digest(record) == make_golden.digest(direct)
    assert (record.header, record.diverged_at) == (direct.header, direct.diverged_at)
