"""Declarative scenario construction, the shipped presets, and post-run metrics.

A ScenarioSpec is a plain data document (JSON round-trippable) describing the
string lineup, reference ramp profiles, per-string start-signal delays, limiter
settings and feedback-source configuration.  The five shipped presets cover
the delayed black start and delayed power ramp studies in both their robust
(virtual-power) and failing (measured-feedback) variants.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .controller import ControllerParams, FeedbackConfig
from .plant import DruModel, HvdcLink, OnshoreSource, PlantParams, StringElectrical
from .record import STATUS_DIVERGED, RunRecord


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
    n_wt: int = 36
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    v_ramp_delay: float = 0.0   # communication delay of the voltage ramp start (s)
    p_ramp_delay: float = 0.0   # communication delay of the power ramp start (s)


@dataclass
class ScenarioSpec:
    name: str = "custom"
    strings: list[StringSpec] = field(default_factory=lambda: [StringSpec(36), StringSpec(38)])
    v_ext: RampProfile = field(default_factory=lambda: RampProfile(0.8, 0.6, 0.0))
    p_ref: RampProfile = field(default_factory=RampProfile)
    q_ref: float = 0.0          # no grid-operator communication by default
    p_min: float = 0.0
    i_max: float = 1.2
    t_end: float = 3.0
    controller: ControllerParams = field(default_factory=ControllerParams)
    plant: PlantParams = field(default_factory=PlantParams)

    def validate(self) -> None:
        if not self.strings:
            raise ValueError("scenario needs at least one string")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        for ramp in (self.v_ext, self.p_ref):
            if ramp.slope < 0.0:
                raise ValueError("ramp slopes must be nonnegative")
            if not 0.0 <= ramp.target <= 1.2:
                raise ValueError("ramp targets must lie within [0, 1.2] pu")
        for s in self.strings:
            if s.n_wt <= 0:
                raise ValueError("n_wt must be positive")
            if s.v_ramp_delay < 0.0 or s.p_ramp_delay < 0.0:
                raise ValueError("delays must be nonnegative")
        self.controller.validate()
        self.plant.validate()
        if len(self.plant.strings) != len(self.strings):
            raise ValueError("plant.strings must match the scenario string count")
        # The plant's shares of the farm base come from plant.n_wt; a string
        # count that says otherwise would be silently ignored.
        for k, (s, n_wt) in enumerate(zip(self.strings, self.plant.n_wt), start=1):
            if s.n_wt != n_wt:
                raise ValueError(f"string {k}: strings n_wt = {s.n_wt} disagrees "
                                 f"with plant.n_wt = {n_wt}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        try:
            strings = [StringSpec(n_wt=s["n_wt"],
                                  feedback=FeedbackConfig(**s["feedback"]),
                                  v_ramp_delay=s["v_ramp_delay"],
                                  p_ramp_delay=s["p_ramp_delay"])
                       for s in d["strings"]]
            plant_d = d["plant"]
            plant = PlantParams(
                strings=[StringElectrical(**s) for s in plant_d["strings"]],
                n_wt=list(plant_d["n_wt"]),
                dru=DruModel(**plant_d["dru"]),
                link=HvdcLink(**plant_d["link"]),
                onshore=OnshoreSource(**plant_d["onshore"]),
                comp_cap=plant_d["comp_cap"],
                comp_cap_enabled=plant_d["comp_cap_enabled"],
                omega_base=plant_d["omega_base"],
                stiff_bus_voltage=plant_d["stiff_bus_voltage"],
            )
            return cls(
                name=d["name"],
                strings=strings,
                v_ext=RampProfile(**d["v_ext"]),
                p_ref=RampProfile(**d["p_ref"]),
                q_ref=d["q_ref"],
                p_min=d["p_min"],
                i_max=d["i_max"],
                t_end=d["t_end"],
                controller=ControllerParams(**d["controller"]),
                plant=plant,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed scenario document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


def _plant_for(n_strings: int) -> PlantParams:
    return PlantParams(strings=[StringElectrical() for _ in range(n_strings)],
                       n_wt=[36, 38][:n_strings] or [36])


def build_black_start(delay_s2: float = 0.3,
                      feedback: FeedbackConfig | None = None,
                      name: str = "blackstart") -> ScenarioSpec:
    """Two-string black start: local voltage ramps to 0.8 pu at 0.6 pu/s, the
    second string's ramp start signal delayed by delay_s2."""
    fb = feedback if feedback is not None else FeedbackConfig()
    spec = ScenarioSpec(
        name=name,
        strings=[StringSpec(36, feedback=fb),
                 StringSpec(38, feedback=fb, v_ramp_delay=delay_s2)],
        v_ext=RampProfile(target=0.8, slope=0.6, start=0.0),
        p_ref=RampProfile(),
        p_min=0.0,
        i_max=1.2,
        t_end=3.0,
        plant=_plant_for(2),
    )
    return spec


def build_power_ramp(delay_s2: float = 1.0, p_min: float = 0.0,
                     feedback: FeedbackConfig | None = None,
                     name: str = "power-ramp") -> ScenarioSpec:
    """Power ramp after a synchronous (zero-delay) black start replayed in the
    same run: active power references ramp to 0.8 pu at 0.5 pu/s, the second
    string's ramp start delayed by delay_s2."""
    fb = feedback if feedback is not None else FeedbackConfig()
    spec = ScenarioSpec(
        name=name,
        strings=[StringSpec(36, feedback=fb),
                 StringSpec(38, feedback=fb, p_ramp_delay=delay_s2)],
        v_ext=RampProfile(target=0.8, slope=0.6, start=0.0),
        p_ref=RampProfile(target=0.8, slope=0.5, start=2.5),
        p_min=p_min,
        i_max=1.2,
        t_end=6.5 + delay_s2,
        plant=_plant_for(2),
    )
    return spec


PRESETS = {
    "blackstart-virtual": lambda: build_black_start(
        0.3, FeedbackConfig(True, True, True), name="blackstart-virtual"),
    "blackstart-measured-droop": lambda: build_black_start(
        0.3, FeedbackConfig(sync_uses_virtual=True, qv_uses_virtual=False,
                            pv_uses_virtual=False),
        name="blackstart-measured-droop"),
    "ramp-nopmin-measured": lambda: build_power_ramp(
        1.0, -math.inf, FeedbackConfig(False, False, False),
        name="ramp-nopmin-measured"),
    "ramp-pmin-measured-pv": lambda: build_power_ramp(
        1.0, 0.0, FeedbackConfig(sync_uses_virtual=True, qv_uses_virtual=True,
                                 pv_uses_virtual=False),
        name="ramp-pmin-measured-pv"),
    "ramp-pmin-virtual": lambda: build_power_ramp(
        1.0, 0.0, FeedbackConfig(True, True, True), name="ramp-pmin-virtual"),
}


def get_preset(name: str) -> ScenarioSpec:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")


# --- post-run metrics ------------------------------------------------------

@dataclass
class LosThresholds:
    freq_dev: float = 0.1       # pu
    sustain: float = 0.1        # s
    angle_drift: float = math.pi  # rad


def detect_los(record: RunRecord,
               thresholds: LosThresholds | None = None) -> tuple[bool, float | None]:
    """Loss-of-synchronism detection on a finished run.

    Flags when any string's frequency deviation exceeds the threshold for a
    sustained interval, when the inter-string angle difference drifts past the
    angle threshold, or when the run diverged.
    """
    th = thresholds if thresholds is not None else LosThresholds()
    t = record.t
    if len(t) < 2:
        return (record.status == STATUS_DIVERGED, record.diverged_at)
    dt = float(t[1] - t[0])
    n_sustain = max(1, int(round(th.sustain / dt)))
    candidates: list[float] = []

    for k in range(1, record.n_strings + 1):
        dev = np.abs(record.col("omega", k) - 1.0) > th.freq_dev
        run_len = 0
        for i, flag in enumerate(dev):
            run_len = run_len + 1 if flag else 0
            if run_len >= n_sustain:
                candidates.append(float(t[i]))
                break

    if record.n_strings >= 2:
        phi = [np.unwrap(record.col("phi_rel", k)) for k in range(1, record.n_strings + 1)]
        for a in range(len(phi)):
            for b in range(a + 1, len(phi)):
                drift = np.abs((phi[a] - phi[b]) - (phi[a][0] - phi[b][0]))
                idx = np.argmax(drift > th.angle_drift)
                if drift[idx] > th.angle_drift:
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


def _max_contiguous_duration(flags: np.ndarray, dt: float) -> float:
    best = run = 0
    for f in flags:
        run = run + 1 if f else 0
        best = max(best, run)
    return best * dt


def compute_metrics(record: RunRecord, settle_window: float = 0.5,
                    voltage_band: float = 0.02, power_band: float = 0.05) -> Metrics:
    """Deterministic pure function of a run record.

    The settling window is the last settle_window seconds of the (possibly
    truncated) record; all extrema are taken over the full record.
    """
    n = record.n_strings
    t = record.t
    scen = record.header["scenario"]
    v_target = scen["v_ext"]["target"]
    p_target = scen["p_ref"]["target"]

    los, los_t = detect_los(record)
    if len(t) < 2:
        return Metrics(los, los_t, [0.0] * n, [0.0] * n, 0.0, False, False,
                       [0.0] * n, record.status, record.diverged_at)
    dt = float(t[1] - t[0])
    window = t >= (t[-1] - settle_window)

    max_current = [float(np.max(record.col("i_mag", k))) for k in range(1, n + 1)]
    max_freq_dev = [float(np.max(np.abs(record.col("omega", k) - 1.0)))
                    for k in range(1, n + 1)]
    lim_dur = [_max_contiguous_duration(record.col("lim_i", k) > 0.5, dt)
               for k in range(1, n + 1)]

    if n >= 2:
        q = np.stack([record.col("q", k) for k in range(1, n + 1)])
        imbalance = float(np.max(np.max(q[:, window], axis=0) - np.min(q[:, window], axis=0)))
    else:
        imbalance = 0.0

    converged = record.status != STATUS_DIVERGED
    voltage_settled = converged and all(
        np.max(np.abs(record.col("vpcc_mag", k)[window] - v_target)) < voltage_band
        for k in range(1, n + 1))
    if p_target > 0.0:
        ramp_completed = converged and not los and all(
            abs(float(np.mean(record.col("p", k)[window])) - p_target) < power_band
            for k in range(1, n + 1))
    else:
        ramp_completed = voltage_settled and not los

    return Metrics(los, los_t, max_current, max_freq_dev, imbalance,
                   voltage_settled, ramp_completed, lim_dur,
                   record.status, record.diverged_at)
