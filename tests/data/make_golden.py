"""Golden record digests: the cases, the digest, and the generator of golden.json.

    PYTHONPATH=src python3 tests/data/make_golden.py

Each case is simulated and the sha256 of its simulated columns (in CSV column
order, as little-endian float64 bytes) is written to golden.json beside this
file, with the final energy-audit residual where the case runs the audit.
tests/test_golden.py re-runs every case and requires the same digests, so a
change that claims bit-identical records is checked against the code that
generated this file.  Regenerate only for a deliberate change of numerics.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from owfsim import sim
from owfsim.controller import ControllerParams
from owfsim.plant import PlantParams, StringElectrical
from owfsim.record import column_names
from owfsim.scenario import PRESETS, RampProfile, ScenarioSpec, StringSpec, get_preset

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def stiff_bus() -> ScenarioSpec:
    """The single string against a stiff 1 pu bus of acceptance criterion 2."""
    return ScenarioSpec(
        name="stiff-bus",
        strings=[StringSpec()],
        v_ext=RampProfile(target=1.0, slope=10.0, start=-1.0),
        p_ref=RampProfile(target=0.5, slope=1.0, start=0.5),
        t_end=10.0,
        controller=ControllerParams(v_dc=4.0, p_min=-1e9, i_max=1e9),
        plant=PlantParams(strings=[StringElectrical()], n_wt=[36],
                          stiff_bus_voltage=1.0),
    )


def cases() -> dict[str, tuple[ScenarioSpec, sim.SimConfig]]:
    out = {name: (get_preset(name), sim.SimConfig(t_end=0.5)) for name in sorted(PRESETS)}
    out["stiff-bus"] = (stiff_bus(), sim.SimConfig(dt_plant=50e-6, t_end=1.0))
    out["blackstart-virtual-audit"] = (get_preset("blackstart-virtual"),
                                       sim.SimConfig(t_end=0.25, energy_audit=True))
    return out


def digest(record) -> str:
    h = hashlib.sha256()
    for name in column_names(record.n_strings):
        h.update(np.ascontiguousarray(record.columns[name], dtype="<f8").tobytes())
    return h.hexdigest()


def golden_entry(scenario: ScenarioSpec, cfg: sim.SimConfig) -> dict:
    record = sim.run(scenario, cfg)
    entry = {"digest": digest(record)}
    if cfg.energy_audit:
        entry["final_residual"] = record.header["energy_audit"]["final_residual"]
    return entry


def main() -> None:
    golden = {name: golden_entry(*case) for name, case in cases().items()}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
