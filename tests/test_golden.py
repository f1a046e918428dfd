"""Records must stay bit-identical to the pinned golden digests
(tests/data/golden.json, written by tests/data/make_golden.py).  The scenario
documents written before schema 1 (tests/data/scenarios_v0.json) must upgrade
to the golden cases' scenarios bit for bit, so they run to the same digests."""
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_schema_0_document_reproduces_golden_digest(name):
    scenario = CASES[name][0]
    doc = V0_DOCS[name.removesuffix("-audit")]
    assert "schema" not in doc
    upgraded = ScenarioSpec.from_dict(doc)
    # == holds for -0.0 against 0.0; the JSON text keeps them apart, so the two scenarios are
    # equal bit for bit and test_record_matches_golden_digest's run pins both digests.
    assert upgraded == scenario
    assert upgraded.to_json() == scenario.to_json()


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
        _assert_golden(name, record)
