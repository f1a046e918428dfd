"""Declarative scenario construction, the shipped presets, and post-run metrics.

A ScenarioSpec is a plain data document (JSON round-trippable) describing the
string lineup, reference ramp profiles, per-string start-signal delays, limiter
settings and feedback-source configuration.  The five shipped presets cover
the delayed black start and delayed power ramp studies in both their robust
(virtual-power) and failing (measured-feedback) variants.  A text that is not
JSON is refused with a ValueError beginning "not a JSON document: ", and a
document the schema refuses with one beginning "malformed scenario document: ".
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .controller import ControllerParams, FeedbackConfig
from .plant import PlantParams
from .record import STATUS_DIVERGED, RunRecord, require_keys
from .schema import NonNegative, Positive, PositiveInt, Range, leaf, read, samples, unique_keys


@dataclass
class RampProfile:
    """Saturated ramp: 0 before start, then slope * (t - start) up to target."""

    target: Annotated[float, Range(0.0, 1.2)] = 0.0
    slope: NonNegative = 0.0  # pu/s
    start: float = 0.0        # s

    def value(self, t: float) -> float:
        target, slope = self.target, self.slope
        if target <= 0.0 or slope <= 0.0:
            return 0.0
        # min(target, max(0.0, v)) without the calls, -0.0 and NaN v giving 0.0.
        v = slope * (t - self.start)
        if not v > 0.0:
            v = 0.0
        return v if v < target else target


@dataclass
class StringSpec:
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    v_ramp_delay: NonNegative = 0.0   # communication delay of the voltage ramp start (s)
    p_ramp_delay: NonNegative = 0.0   # communication delay of the power ramp start (s)


SCHEMA = 1  # written into every document as "schema"


@dataclass
class ScenarioSpec:
    """A study.  The defaults are the paper's black start with no start-signal
    delay and every outer loop on virtual power: two strings whose local
    voltage ramps to 0.8 pu at 0.6 pu/s over a 3 s horizon, no power ramp, and
    the controller and plant defaults."""

    name: str = "custom"
    strings: list[StringSpec] = field(default_factory=lambda: [StringSpec(), StringSpec()])
    v_ext: RampProfile = field(default_factory=lambda: RampProfile(0.8, 0.6, 0.0))
    p_ref: RampProfile = field(default_factory=RampProfile)
    q_ref: float = 0.0          # no grid-operator communication by default
    t_end: Positive = 3.0
    controller: ControllerParams = field(default_factory=ControllerParams)
    plant: PlantParams = field(default_factory=PlantParams)

    def _rules(self) -> None:
        if len(self.plant.strings) != len(self.strings):
            raise ValueError("plant.strings must match the scenario string count")

    def to_dict(self) -> dict:
        return {"schema": SCHEMA, **dataclasses.asdict(self)}

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False, **kwargs)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        """Strict: every field required, no other key, typed, finite; errors name the key path."""
        try:
            if not isinstance(d, dict):
                raise ValueError(f"expected an object, got {d!r}")
            d = dict(d)
            if "schema" not in d:
                raise ValueError("schema: missing key")
            if (version := d.pop("schema")) != SCHEMA or type(version) is not int:
                raise ValueError(f"schema: unsupported version {version!r}, expected {SCHEMA}")
            return read(cls, d)
        except ValueError as exc:
            raise ValueError(f"malformed scenario document: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """from_dict of the JSON text, which the JSON parser must accept, no key repeated."""
        try:
            doc = json.loads(text, object_pairs_hook=unique_keys)
        except (ValueError, RecursionError) as exc:  # also past the digit or nesting limit
            raise ValueError(f"not a JSON document: {exc}") from None
        return cls.from_dict(doc)


def build_black_start(delay_s2: float = 0.3, feedback: FeedbackConfig = FeedbackConfig(),
                      name: str = "blackstart") -> ScenarioSpec:
    """ScenarioSpec's black start with the second string's voltage ramp start
    signal delayed by delay_s2."""
    return ScenarioSpec(name=name, strings=[StringSpec(feedback=feedback),
                                            StringSpec(feedback=feedback, v_ramp_delay=delay_s2)])


def build_power_ramp(delay_s2: float = 1.0, p_min: float | None = ControllerParams.p_min,
                     feedback: FeedbackConfig = FeedbackConfig(),
                     name: str = "power-ramp") -> ScenarioSpec:
    """Power ramp after ScenarioSpec's black start replayed in the same run:
    active power references ramp to 0.8 pu at 0.5 pu/s from 2.5 s, the second
    string's ramp start delayed by delay_s2."""
    return ScenarioSpec(
        name=name,
        strings=[StringSpec(feedback=feedback),
                 StringSpec(feedback=feedback, p_ramp_delay=delay_s2)],
        p_ref=RampProfile(target=0.8, slope=0.5, start=2.5),
        t_end=6.5 + delay_s2,
        controller=ControllerParams(p_min=p_min),
    )


PRESETS = {
    "blackstart-virtual": build_black_start,
    "blackstart-measured-droop": lambda: build_black_start(
        feedback=FeedbackConfig(qv_uses_virtual=False, pv_uses_virtual=False)),
    "ramp-nopmin-measured": lambda: build_power_ramp(
        p_min=None, feedback=FeedbackConfig(False, False, False)),
    "ramp-pmin-measured-pv": lambda: build_power_ramp(
        feedback=FeedbackConfig(pv_uses_virtual=False)),
    "ramp-pmin-virtual": build_power_ramp,
}


def get_preset(name: str) -> ScenarioSpec:
    """The preset's scenario, named by its key."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return dataclasses.replace(PRESETS[name](), name=name)


# --- post-run metrics ------------------------------------------------------

SETTLE_WINDOW = 0.5  # s, the record's tail over which settling is judged
VOLTAGE_BAND = 0.02  # pu, the largest PCC voltage error of a settled string
POWER_BAND = 0.05    # pu, the largest mean power error of a completed ramp
LOS_FREQ_DEV = 0.1   # pu, a string frequency deviation that counts toward LOS
LOS_SUSTAIN = 0.1    # s, how long that deviation must last to be LOS
LOS_ANGLE_DRIFT = math.pi  # rad, an inter-string angle drift that is LOS


def _runs(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start index, length) of each run of True in a boolean array, in order."""
    edges = np.flatnonzero(np.diff(flags, prepend=False, append=False))
    return edges[::2], edges[1::2] - edges[::2]


def detect_los(record: RunRecord) -> tuple[bool, float | None]:
    """Loss-of-synchronism detection on a finished run.

    Flags when any string's frequency deviation exceeds LOS_FREQ_DEV for
    LOS_SUSTAIN, when an inter-string angle difference drifts past
    LOS_ANGLE_DRIFT, or when the run diverged.
    """
    t = record.t
    if len(t) < 2:
        return (record.status == STATUS_DIVERGED, record.diverged_at)
    dt = float(t[1] - t[0])
    if not 0.0 < dt < math.inf:  # also NaN
        raise ValueError(f"t: the first interval must be positive and finite, got {dt} s")
    # No run of samples outlasts the record, so a count past it detects the same; the
    # cap keeps the count finite where LOS_SUSTAIN / dt is not (a denormal dt).
    n_sustain = max(1, round(min(LOS_SUSTAIN / dt, len(t) + 1)))
    candidates: list[float] = []

    for deviated in np.abs(record.col("omega") - 1.0) > LOS_FREQ_DEV:
        starts, lengths = _runs(deviated)
        sustained = starts[lengths >= n_sustain]
        if len(sustained):  # flagged at the sample that completes the interval
            candidates.append(float(t[sustained[0] + n_sustain - 1]))

    # Each pair's angle difference (string a less b, a < b), less its first value.
    # Unwrapped row by row: np.unwrap of the whole block (axis=1) holds temporaries
    # n_strings rows wide, and the ramp benchmark's peak RSS read 1.1 MiB higher
    # with it (2-CPU VM, Python 3.11, numpy 2.4).
    block = record.col("phi_rel")
    phi = np.array([np.unwrap(row) for row in block]).reshape(block.shape)
    a, b = np.triu_indices(len(phi), 1)
    pairs = phi[a] - phi[b]
    drifted = (np.abs(pairs - pairs[:, :1]) > LOS_ANGLE_DRIFT).any(axis=0)
    if drifted.any():
        candidates.append(float(t[np.argmax(drifted)]))

    if record.status == STATUS_DIVERGED:
        candidates.append(record.diverged_at)

    if candidates:
        return True, min(candidates)
    return False, None


@dataclass
class Metrics:
    los_detected: bool
    los_time: float | None
    max_current: list[float]
    max_freq_dev: list[float]
    reactive_imbalance: float
    voltage_settled: bool
    ramp_completed: bool
    lim_i_max_duration: list[float]
    status: str
    diverged_at: float | None

    def to_dict(self) -> dict:
        """The fields as JSON values; one that is not finite is None (null), as JSON has no NaN."""
        return json.loads(json.dumps(dataclasses.asdict(self)), parse_constant=lambda _: None)


def compute_metrics(record: RunRecord) -> Metrics:
    """Deterministic pure function of a run record.

    The settling window is the last SETTLE_WINDOW seconds of the record (cut
    short where the run diverged); all extrema are taken over the full record.
    A record must hold exactly the rows its run recorded, so a truncated or
    relabelled file is refused rather than judged: a converged record every
    row its header's sim entry gives, a diverged one the rows before
    diverged_at, which is on the control grid and not past sim.t_end.  Every
    record's t must be that sample grid.  The header's numbers are read
    with schema.leaf: ts_control and t_end positive, record_decimation a
    positive int, each ramp target a float; each finite.  A refusal names its
    key by the dotted path from the record's root, header.sim.t_end.
    """
    header = record.header
    require_keys({"header": header}, (f"header.{key}" for key in (
        "scenario.strings", "sim.ts_control", "sim.t_end", "sim.record_decimation",
        "scenario.v_ext.target", "scenario.p_ref.target")))
    v_target, p_target = (leaf(float, header["scenario"][ramp]["target"],
                               f"header.scenario.{ramp}.target") for ramp in ("v_ext", "p_ref"))
    ts, t_end = (leaf(Positive, header["sim"][key], f"header.sim.{key}")
                 for key in ("ts_control", "t_end"))
    decimation = leaf(PositiveInt, header["sim"]["record_decimation"],
                      "header.sim.record_decimation")
    # A run records every record_decimation-th of its steps: steps 0 ... t_end / ts when it
    # converged, steps 0 ... d - 1 when the check at step d found it diverged.
    steps = samples(t_end, ts, "header.sim.t_end")
    key, run, rows = "header.sim.t_end", f"a converged run of {t_end} s", steps // decimation + 1
    if record.status == STATUS_DIVERGED:
        d = samples(record.diverged_at, ts, "diverged_at", minimum=0)
        if d > steps:
            raise ValueError(f"diverged_at: {record.diverged_at} s is past sim.t_end, {t_end} s")
        key, run = "diverged_at", f"a run that diverged at {record.diverged_at} s"
        rows = -(-d // decimation)
    if len(record.t) != rows:
        raise ValueError(f"{key}: {run} at ts_control {ts} s and record_decimation {decimation} "
                         f"records {rows} rows, this record has {len(record.t)}")
    t = record.t
    # Row i was recorded at step i * decimation, t = step * ts (a diverged run's rows are a
    # prefix).  Any decimation past the last step records step 0 alone: capping the stride
    # there keeps it a float64 for a decimation of any size.
    stride = float(min(decimation, steps + 1))
    on_grid = np.abs(t - np.arange(len(t)) * stride * ts) <= 1e-9 * ts  # NaN is off it
    if not on_grid.all():
        i = int(np.argmin(on_grid))
        raise ValueError(f"t: sample {i} is at {t[i]} s, off the record's grid of "
                         f"{decimation} x {ts} s steps")
    n = record.n_strings

    los, los_t = detect_los(record)
    if len(t) < 2:
        return Metrics(los, los_t, [0.0] * n, [0.0] * n, 0.0, False, False,
                       [0.0] * n, record.status, record.diverged_at)
    dt = float(t[1] - t[0])
    window = t >= (t[-1] - SETTLE_WINDOW)

    max_current = np.max(record.col("i_mag"), axis=1).tolist()
    max_freq_dev = np.max(np.abs(record.col("omega") - 1.0), axis=1).tolist()
    lim_dur = [int(_runs(limited)[1].max(initial=0)) * dt for limited in record.col("lim_i") > 0.5]

    q = record.col("q")[:, window]
    imbalance = float(np.max(np.ptp(q, axis=0))) if n >= 2 else 0.0

    converged = record.status != STATUS_DIVERGED
    voltage_settled = converged and bool(np.all(
        np.max(np.abs(record.col("vpcc_mag")[:, window] - v_target), axis=1) < VOLTAGE_BAND))
    if p_target > 0.0:
        ramp_completed = converged and not los and bool(np.all(
            np.abs(np.mean(record.col("p")[:, window], axis=1) - p_target) < POWER_BAND))
    else:
        ramp_completed = voltage_settled and not los

    return Metrics(los, los_t, max_current, max_freq_dev, imbalance,
                   voltage_settled, ramp_completed, lim_dur,
                   record.status, record.diverged_at)
