"""Records must stay bit-identical to the pinned golden digests
(tests/data/golden.json, written by tests/data/make_golden.py), also when
they are run from the scenario documents written before schema 1
(tests/data/scenarios_v0.json)."""
import importlib.util
import json
from pathlib import Path

import pytest

from owfsim import sim
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
