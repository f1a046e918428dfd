"""Declarative scenario construction, the shipped presets, and post-run metrics.

A ScenarioSpec is a plain data document (JSON round-trippable) describing the
string lineup, reference ramp profiles, per-string start-signal delays, limiter
settings and feedback-source configuration.  The five shipped presets cover
the delayed black start and delayed power ramp studies in both their robust
(virtual-power) and failing (measured-feedback) variants.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from .controller import ControllerParams, FeedbackConfig
from .plant import PlantParams
from .record import STATUS_DIVERGED, RunRecord, require_keys


@dataclass
class RampProfile:
    """Saturated ramp: 0 before start, then slope * (t - start) up to target."""

    target: float = 0.0
    slope: float = 0.0     # pu/s
    start: float = 0.0     # s

    def value(self, t: float) -> float:
        if self.target <= 0.0 or self.slope <= 0.0:
            return 0.0
        return min(self.target, max(0.0, self.slope * (t - self.start)))


@dataclass
class StringSpec:
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    v_ramp_delay: float = 0.0   # communication delay of the voltage ramp start (s)
    p_ramp_delay: float = 0.0   # communication delay of the power ramp start (s)


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
    t_end: float = 3.0
    controller: ControllerParams = field(default_factory=ControllerParams)
    plant: PlantParams = field(default_factory=PlantParams)

    def validate(self) -> None:
        _require_finite(self, "")
        if not self.strings:
            raise ValueError("scenario needs at least one string")
        if self.t_end <= 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        for name in ("v_ext", "p_ref"):
            ramp = getattr(self, name)
            if ramp.slope < 0.0:
                raise ValueError(f"{name}.slope must be nonnegative, got {ramp.slope}")
            if not 0.0 <= ramp.target <= 1.2:
                raise ValueError(f"{name}.target must lie within [0, 1.2] pu, got {ramp.target}")
        for i, s in enumerate(self.strings):
            for name in ("v_ramp_delay", "p_ramp_delay"):
                delay = getattr(s, name)
                if delay < 0.0:
                    raise ValueError(f"strings[{i}].{name} must be nonnegative, got {delay}")
        for path, part in (("controller", self.controller), ("plant", self.plant)):
            try:
                part.validate()
            except ValueError as exc:  # each message starts with the field's name
                raise ValueError(f"{path}.{exc}") from None
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
                d = _upgrade_v0(d)
            elif (schema := d.pop("schema")) != SCHEMA or type(schema) is not int:
                raise ValueError(f"schema: unsupported version {schema!r}, expected {SCHEMA}")
            return _read(cls, d, "")
        except ValueError as exc:
            raise ValueError(f"malformed scenario document: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """from_dict of the JSON text; a text the parser refuses raises NotJSONError."""
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also past the digit or nesting limit
            raise NotJSONError(exc) from None
        return cls.from_dict(doc)


class NotJSONError(ValueError):
    """A scenario text that the JSON parser refuses: its syntax, an integer past
    the int-string conversion limit, or nesting past the recursion limit."""


def _read(tp, value, path: str):
    """The value of type tp that JSON data `value` at key `path` describes."""
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{path}: expected an object, got {value!r}")
        hints = typing.get_type_hints(tp)
        names = [f.name for f in dataclasses.fields(tp)]
        prefix = f"{path}." if path else ""
        for key in sorted(value.keys() ^ set(names)):
            raise ValueError(f"{prefix}{key}: {'unknown' if key in value else 'missing'} key")
        return tp(**{n: _read(hints[n], value[n], prefix + n) for n in names})
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            raise ValueError(f"{path}: expected a list, got {value!r}")
        return [_read(typing.get_args(tp)[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(tp, types.UnionType):  # X | None
        return None if value is None else _read(typing.get_args(tp)[0], value, path)
    if tp is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if type(value) is not tp:
        raise ValueError(f"{path}: expected {tp.__name__}, got {value!r}")
    _require_finite(value, path)
    return value


def _require_finite(obj, path: str) -> None:
    """Refuse a non-finite float (np.float64 is one) anywhere in obj, a
    value read from a document or a spec built in Python, naming its key path."""
    if dataclasses.is_dataclass(obj):
        prefix = f"{path}." if path else ""
        for f in dataclasses.fields(obj):
            _require_finite(getattr(obj, f.name), prefix + f.name)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _require_finite(v, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"{path}: {obj} is not a finite number")


def _upgrade_v0(d: dict) -> dict:
    """Schema 0 kept p_min and i_max at the top level, overriding the
    controller's dead copies (and its sample period ts), disabled the floor
    with -inf, and copied plant.n_wt into every string."""
    d = copy.deepcopy(d)
    try:
        limits = {key: d.pop(key) for key in ("p_min", "i_max") if key in d}
        ctrl = d["controller"]
        ctrl.pop("ts", None)
        ctrl.update(limits)
        ctrl["p_min"] = None if ctrl["p_min"] == -math.inf else ctrl["p_min"]
        for k, (s, n) in enumerate(zip(d["strings"], d["plant"]["n_wt"]), start=1):
            if (own := s.pop("n_wt", n)) != n:  # the plant runs on plant.n_wt
                raise ValueError(f"strings[{k - 1}].n_wt: string {k}: strings n_wt = {own} "
                                 f"disagrees with plant.n_wt = {n}")
    except (KeyError, TypeError, AttributeError):
        pass  # malformed: the schema-1 reader names what is wrong
    return d


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
    n_sustain = max(1, int(round(LOS_SUSTAIN / dt)))
    candidates: list[float] = []

    for k in range(1, record.n_strings + 1):
        starts, lengths = _runs(np.abs(record.col("omega", k) - 1.0) > LOS_FREQ_DEV)
        sustained = starts[lengths >= n_sustain]
        if len(sustained):  # flagged at the sample that completes the interval
            candidates.append(float(t[sustained[0] + n_sustain - 1]))

    phi = [np.unwrap(record.col("phi_rel", k)) for k in range(1, record.n_strings + 1)]
    for a in range(len(phi)):
        for b in range(a + 1, len(phi)):
            drift = np.abs((phi[a] - phi[b]) - (phi[a][0] - phi[b][0]))
            idx = np.argmax(drift > LOS_ANGLE_DRIFT)
            if drift[idx] > LOS_ANGLE_DRIFT:
                candidates.append(float(t[idx]))

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
        return dataclasses.asdict(self)


def _header_number(header: dict, keys: str) -> float:
    """The finite number at a dotted key path of a record header, as a float."""
    value = header
    for key in keys.split("."):
        value = value[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"header: {keys}: expected a number, got {json.dumps(value)}")
    try:
        number = float(value)  # an int beyond float64 overflows
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"header: {keys}: expected a finite number, got {json.dumps(value)}")
    return number


def compute_metrics(record: RunRecord) -> Metrics:
    """Deterministic pure function of a run record.

    The settling window is the last SETTLE_WINDOW seconds of the record (cut
    short where the run diverged); all extrema are taken over the full record.
    A converged record must hold every row its header's sim entry says the
    run recorded, so a truncated file is refused rather than judged, and
    every record's t must be that sample grid.
    """
    from .sim import samples  # sim imports this module

    require_keys(record.header, ("scenario.strings", "sim.ts_control", "sim.t_end",
                                 "sim.record_decimation", "scenario.v_ext.target",
                                 "scenario.p_ref.target"), "header")
    v_target, p_target = (_header_number(record.header, f"scenario.{ramp}.target")
                          for ramp in ("v_ext", "p_ref"))
    # A converged run records every record_decimation-th of its samples, both ends included.
    ts, t_end = (_header_number(record.header, f"sim.{key}") for key in ("ts_control", "t_end"))
    decimation = record.header["sim"]["record_decimation"]
    if not ts > 0.0:
        raise ValueError(f"header: sim.ts_control: expected a positive number, got {ts}")
    if type(decimation) is not int or decimation < 1:
        raise ValueError(f"header: sim.record_decimation: expected an int >= 1, "
                         f"got {json.dumps(decimation)}")
    rows = samples(t_end, ts, "header: sim.t_end") // decimation + 1
    if record.status != STATUS_DIVERGED and len(record.t) != rows:
        raise ValueError(f"header: sim.t_end: a converged run of {t_end} s at ts_control "
                         f"{ts} s and record_decimation {decimation} records {rows} rows, "
                         f"this record has {len(record.t)}")
    t = record.t
    # Row i was recorded at step i * decimation, t = step * ts (a diverged run's rows are a prefix).
    on_grid = np.abs(t - np.arange(len(t)) * decimation * ts) <= 1e-9 * ts  # NaN is off it
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

    max_current = [float(np.max(record.col("i_mag", k))) for k in range(1, n + 1)]
    max_freq_dev = [float(np.max(np.abs(record.col("omega", k) - 1.0)))
                    for k in range(1, n + 1)]
    lim_dur = [int(_runs(record.col("lim_i", k) > 0.5)[1].max(initial=0)) * dt
               for k in range(1, n + 1)]

    if n >= 2:
        q = np.stack([record.col("q", k) for k in range(1, n + 1)])
        imbalance = float(np.max(np.max(q[:, window], axis=0) - np.min(q[:, window], axis=0)))
    else:
        imbalance = 0.0

    converged = record.status != STATUS_DIVERGED
    voltage_settled = converged and all(
        np.max(np.abs(record.col("vpcc_mag", k)[window] - v_target)) < VOLTAGE_BAND
        for k in range(1, n + 1))
    if p_target > 0.0:
        ramp_completed = converged and not los and all(
            abs(float(np.mean(record.col("p", k)[window])) - p_target) < POWER_BAND
            for k in range(1, n + 1))
    else:
        ramp_completed = voltage_settled and not los

    return Metrics(los, los_t, max_current, max_freq_dev, imbalance,
                   voltage_settled, ramp_completed, lim_dur,
                   record.status, record.diverged_at)
