"""Records must stay bit-identical to the pinned golden digests
(tests/data/golden.json, written by tests/data/make_golden.py), also when
they are run from the scenario documents written before schema 1
(tests/data/scenarios_v0.json)."""
import importlib.util
import json
from pathlib import Path

import pytest

from owfsim import plant, record, sim
from owfsim.scenario import ScenarioSpec

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("make_golden", DATA / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

GOLDEN = json.loads((DATA / "golden.json").read_text())
V0_DOCS = json.loads((DATA / "scenarios_v0.json").read_text())
CASES = make_golden.cases()


def test_every_case_has_a_golden_digest():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_matches_golden_digest(name):
    scenario, cfg = CASES[name]
    record = sim.run(scenario, cfg)
    golden = GOLDEN[name]
    assert make_golden.digest(record) == golden["digest"]
    if "final_residual" in golden:
        # The audit residual is a running sum that may move in its last bits
        # when the bookkeeping reuses a power-flow evaluation at a time an
        # ulp away; the simulated columns above must not move at all.
        residual = record.header["energy_audit"]["final_residual"]
        assert residual == pytest.approx(golden["final_residual"], rel=0.0, abs=1e-12)


@pytest.mark.parametrize("name", sorted(CASES))
def test_schema_0_document_reproduces_golden_digest(name):
    scenario, cfg = CASES[name]
    doc = V0_DOCS[name.removesuffix("-audit")]
    assert "schema" not in doc
    upgraded = ScenarioSpec.from_dict(doc)
    assert upgraded == scenario
    assert make_golden.digest(sim.run(upgraded, cfg)) == GOLDEN[name]["digest"]


def test_a_reversed_state_layout_reproduces_every_golden_record(monkeypatch):
    # plant.state_names is the only statement of the state order: the kernels,
    # the energy audit and the recorder read each state by its name, so the
    # reversed order gives the same records.  The kernels are built per
    # structure and cached, so the cache is rebuilt under each order.
    forward = plant.state_names
    monkeypatch.setattr(plant, "state_names", lambda n: forward(n)[::-1])
    plant._kernel.cache_clear()
    try:
        for name, (scenario, cfg) in sorted(CASES.items()):
            assert list(plant.PlantModel(scenario.plant).index)[0] == "i_ff"
            record = sim.run(scenario, cfg)
            golden = GOLDEN[name]
            assert make_golden.digest(record) == golden["digest"], name
            if "final_residual" in golden:
                residual = record.header["energy_audit"]["final_residual"]
                assert residual == pytest.approx(golden["final_residual"], rel=0.0, abs=1e-12)
    finally:
        monkeypatch.undo()
        plant._kernel.cache_clear()


def test_a_wrapped_derivatives_reproduces_every_golden_record(monkeypatch):
    # rk4 binds the staged step, whose stages call plant.derivatives, once a
    # wrapper has replaced it (so a tracer sees every evaluation), and the fused
    # step otherwise: the two give the same records, bit for bit.
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
        golden = GOLDEN[name]
        assert make_golden.digest(record) == golden["digest"], name
        if "final_residual" in golden:
            residual = record.header["energy_audit"]["final_residual"]
            assert residual == pytest.approx(golden["final_residual"], rel=0.0, abs=1e-12)


@pytest.mark.parametrize("permute", [lambda c: c[::-1], lambda c: c[5:] + c[:5]],
                         ids=["reversed", "rotated-by-5"])
def test_a_permuted_record_layout_keeps_every_named_golden_column(monkeypatch, permute):
    # record.STRING_COLUMNS is the only statement of the row order and of each
    # string column's value: each run generates its recorder from it, so no
    # recorder cache needs clearing, and under any order each named column
    # holds the forward run's values.  The digest hashes the columns by name in the forward order, so
    # it is taken once that order is back.
    forward = list(record.STRING_COLUMNS.items())
    permuted = permute(forward)
    assert sorted(permuted) == sorted(forward) and permuted != forward
    monkeypatch.setattr(record, "STRING_COLUMNS", dict(permuted))
    try:
        records = {name: sim.run(scenario, cfg) for name, (scenario, cfg) in CASES.items()}
        for run in records.values():
            assert list(run.columns) == record.column_names(run.n_strings)
    finally:
        monkeypatch.undo()
    for name, run in sorted(records.items()):
        golden = GOLDEN[name]
        assert make_golden.digest(run) == golden["digest"], name
        if "final_residual" in golden:
            residual = run.header["energy_audit"]["final_residual"]
            assert residual == pytest.approx(golden["final_residual"], rel=0.0, abs=1e-12)
