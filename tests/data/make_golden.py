"""Golden record digests and trajectory fingerprints: the cases, and the
generator of golden.json and fingerprints.npz.

    PYTHONPATH=src python3 tests/data/make_golden.py digests
    PYTHONPATH=src python3 tests/data/make_golden.py fingerprints

digests simulates each case and writes the sha256 of its simulated columns (in
CSV column order, as little-endian float64 bytes) to golden.json beside this
file, with the final energy-audit residual where the case runs the audit.
tests/test_golden.py re-runs every case and requires the same digests, so a
change that claims bit-identical records is checked against the code that
generated this file.

fingerprints simulates each preset at SimConfig() and writes every
FINGERPRINT_EVERY-th record row (4 ms apart) of FINGERPRINT_COLUMNS, and the
preset's OUTCOME, to fingerprints.npz: the tolerance gate of
tests/test_golden.py for a change that does not claim bit-identical records.

A deliberate change of numerics regenerates in this order: the fingerprints
from the parent (the code before the change), then the gate run on the
change, then, once it passes, the digests from the change.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from owfsim import sim
from owfsim.controller import ControllerParams
from owfsim.plant import PlantParams, StringElectrical
from owfsim.record import column_names
from owfsim.scenario import (PRESETS, RampProfile, ScenarioSpec, StringSpec, compute_metrics,
                             get_preset)

GOLDEN = Path(__file__).resolve().parent / "golden.json"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.npz"
FINGERPRINT_EVERY = 10  # record rows: 4 ms at SimConfig()'s 0.4 ms record step
FINGERPRINT_COLUMNS = tuple(f"{c}_{k}" for c in ("vpcc_mag", "p", "q", "omega", "i_mag")
                            for k in (1, 2)) + ("v_on", "v_dc_off", "i_dc")
OUTCOME = ("los_detected", "los_time", "voltage_settled", "ramp_completed")


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


def fingerprint(record) -> np.ndarray:
    """Every FINGERPRINT_EVERY-th row of the record's FINGERPRINT_COLUMNS, one column each."""
    return np.stack([record.columns[c][::FINGERPRINT_EVERY] for c in FINGERPRINT_COLUMNS], axis=1)


def outcome(record) -> np.ndarray:
    """The record's OUTCOME as floats: a bool as 0.0 or 1.0, a los_time of None as NaN."""
    metrics = compute_metrics(record).to_dict()
    return np.array([math.nan if metrics[key] is None else float(metrics[key]) for key in OUTCOME])


def write_fingerprints() -> None:
    arrays = {}
    for name in sorted(PRESETS):
        record = sim.run(get_preset(name), sim.SimConfig())
        arrays[name], arrays[f"{name}.outcome"] = fingerprint(record), outcome(record)
    np.savez_compressed(FINGERPRINTS, **arrays)
    print(f"wrote {len(PRESETS)} fingerprints to {FINGERPRINTS} "
          f"({FINGERPRINTS.stat().st_size} bytes)")


def write_digests() -> None:
    golden = {name: golden_entry(*case) for name, case in cases().items()}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN}")


if __name__ == "__main__":
    writers = {"digests": write_digests, "fingerprints": write_fingerprints}
    if len(sys.argv) != 2 or sys.argv[1] not in writers:
        sys.exit(f"usage: make_golden.py {{{','.join(writers)}}}")
    writers[sys.argv[1]]()
