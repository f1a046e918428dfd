"""Seeded scenario documents, expected outcomes, pinned reference trajectories
and record digests for the owfsim benchmark.

The seed only chooses the string-2 delay of each scenario from a fixed list;
every delay in a list was checked to keep the preset's expected outcome, and
seed 0 gives the paper's delays (0.3 s black start, 1.0 s power ramp).
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from owfsim.record import column_names
from owfsim.scenario import ScenarioSpec, get_preset

# 0.35 s is left out: virtual black start then does not settle within 3 s.
DELAYS = {"blackstart": (0.3, 0.25), "ramp": (1.0, 0.9, 1.1)}
CONVERGING = ("blackstart-virtual", "ramp-pmin-virtual")

REF_DIR = Path(__file__).resolve().parent / "refs"
REF_DT_PLANT = 10e-6   # RK4 step of the pinned references
REF_SPACING = 4e-3     # s between stored reference samples; includes the
                       # black-start i_dc transient at 44 ms
TRAJ_COLUMNS = tuple(f"{c}_{k}" for c in ("vpcc_mag", "p", "q", "omega", "i_mag")
                     for k in (1, 2)) + ("v_on", "v_dc_off", "i_dc")


def family(preset: str) -> str:
    return "blackstart" if preset.startswith("blackstart") else "ramp"


def delay_for(preset: str, seed: int) -> float:
    delays = DELAYS[family(preset)]
    return delays[seed % len(delays)]


def scenario(preset: str, delay: float) -> ScenarioSpec:
    """The preset with its string-2 start signal delayed by `delay` seconds."""
    spec = get_preset(preset)
    s2 = spec.strings[1]
    if family(preset) == "blackstart":
        s2.v_ramp_delay = delay
    else:  # the ramp horizon runs a fixed time past the delayed ramp start
        spec.t_end = spec.t_end - s2.p_ramp_delay + delay
        s2.p_ramp_delay = delay
    return spec


def outcome_ok(preset: str, metrics: dict, vpcc_end: list[float]) -> bool:
    """The outcome the README table gives for the preset."""
    if preset == "blackstart-virtual":
        return (not metrics["los_detected"] and metrics["voltage_settled"]
                and all(abs(v - 0.8) <= 0.02 for v in vpcc_end))
    if preset == "blackstart-measured-droop":
        return metrics["los_detected"]
    if preset == "ramp-pmin-virtual":
        return metrics["ramp_completed"] and not metrics["los_detected"]
    if preset == "ramp-pmin-measured-pv":
        return metrics["los_detected"] or not metrics["ramp_completed"]
    raise ValueError(f"no expected outcome for {preset!r}")


def ref_path(preset: str, delay: float) -> Path:
    return REF_DIR / f"{preset}_{delay:.2f}.npz"


def traj_err(record, preset: str, delay: float) -> float:
    """Worst deviation (pu) of the record from the pinned reference, at the
    reference's sample times; inf if the record does not cover them."""
    with np.load(ref_path(preset, delay)) as ref:
        t_ref = ref["t"]
        t = record.t
        idx = np.rint(t_ref / (t[1] - t[0])).astype(int)
        if idx[-1] >= len(t) or np.max(np.abs(t[idx] - t_ref)) > 1e-9:
            return math.inf
        return max(float(np.max(np.abs(record.columns[c][idx] - ref[c])))
                   for c in TRAJ_COLUMNS)


def digest(record) -> str:
    """sha256 of the simulated columns, in CSV column order, as float64 bytes."""
    h = hashlib.sha256()
    for name in column_names(record.n_strings):
        h.update(np.ascontiguousarray(record.columns[name], dtype="<f8").tobytes())
    return h.hexdigest()
