"""Deterministic fixed-step simulator of a diode-rectifier HVDC offshore wind
farm whose strings run grid-forming power-synchronization control with
virtual-power outer loops."""

from .controller import (
    Controller,
    ControllerParams,
    ControllerState,
    FeedbackConfig,
    limit_current_magnitude,
    limit_reverse_power,
)
from .plant import DruModel, HvdcLink, OnshoreSource, PlantModel, PlantParams, StringElectrical
from .record import RunRecord, STATUS_CONVERGED, STATUS_DIVERGED
from .scenario import (
    Metrics,
    PRESETS,
    RampProfile,
    ScenarioSpec,
    StringSpec,
    build_black_start,
    build_power_ramp,
    compute_metrics,
    detect_los,
    get_preset,
)
from .schema import check
from .sim import SimConfig, run
from .spacevec import complex_power, to_dq, wrap_angle

__version__ = "0.1.0"
