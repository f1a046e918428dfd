import json
import math

import numpy as np
import pytest

import owfsim as o
from owfsim.controller import FeedbackConfig
from owfsim.record import RunRecord, STATUS_CONVERGED, column_names
from owfsim.scenario import (
    LosThresholds,
    PRESETS,
    RampProfile,
    ScenarioSpec,
    build_black_start,
    build_power_ramp,
    compute_metrics,
    detect_los,
    get_preset,
)


# --- ramp profiles -----------------------------------------------------------------

def test_ramp_profile_values():
    r = RampProfile(target=0.8, slope=0.6, start=1.0)
    assert r.value(0.5) == 0.0
    assert r.value(1.0) == 0.0
    assert r.value(2.0) == pytest.approx(0.6)
    assert r.value(10.0) == 0.8   # saturated


def test_ramp_profile_inactive_when_unset():
    assert RampProfile().value(5.0) == 0.0


# --- scenario documents ---------------------------------------------------------------

def test_presets_exist_and_validate():
    assert set(PRESETS) == {
        "blackstart-virtual", "blackstart-measured-droop",
        "ramp-nopmin-measured", "ramp-pmin-measured-pv", "ramp-pmin-virtual",
    }
    for name in PRESETS:
        spec = get_preset(name)
        spec.validate()
        assert spec.name == name


def test_unknown_preset_raises():
    with pytest.raises(ValueError, match="unknown preset"):
        get_preset("nope")


def test_json_round_trip_is_lossless():
    for name in PRESETS:
        spec = get_preset(name)
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone.to_dict() == spec.to_dict()


def test_malformed_document_names_problem():
    with pytest.raises(ValueError, match="malformed scenario document"):
        ScenarioSpec.from_dict({"name": "x"})


def test_validation_catches_bad_targets():
    spec = build_black_start()
    spec.v_ext.target = 1.5
    with pytest.raises(ValueError):
        spec.validate()


def test_validation_rejects_contradictory_turbine_counts():
    # The plant's farm-base shares come from plant.n_wt; a document whose
    # strings say otherwise must be refused, not run with the plant's counts.
    doc = build_black_start().to_dict()
    doc["strings"][1]["n_wt"] = 40
    spec = ScenarioSpec.from_dict(doc)
    with pytest.raises(ValueError, match="string 2: strings n_wt = 40 disagrees "
                                         "with plant.n_wt = 38"):
        spec.validate()
    with pytest.raises(ValueError, match="disagrees"):
        o.run(spec)


def test_builders_wire_delays():
    bs = build_black_start(delay_s2=0.3)
    assert bs.strings[0].v_ramp_delay == 0.0
    assert bs.strings[1].v_ramp_delay == 0.3
    pr = build_power_ramp(delay_s2=1.0, p_min=0.0)
    assert pr.strings[1].p_ramp_delay == 1.0
    assert pr.p_min == 0.0
    assert math.isinf(build_power_ramp(p_min=-math.inf).p_min)


# --- loss-of-synchronism detection -----------------------------------------------------

def _synthetic_record(omega_dev=0.0, dev_duration=0.0, drift=0.0, n=2,
                      t_end=1.0, ts=1e-3):
    """Build a well-formed record with injected frequency/angle anomalies."""
    t = np.arange(0.0, t_end + ts / 2, ts)
    cols = {name: np.zeros_like(t) for name in column_names(n)}
    cols["t"] = t
    for k in range(1, n + 1):
        cols[f"omega_{k}"] += 1.0
        cols[f"vpcc_mag_{k}"] += 0.8
    mask = (t >= 0.4) & (t < 0.4 + dev_duration)
    cols["omega_1"][mask] += omega_dev
    cols["phi_rel_1"] += np.linspace(0.0, drift, len(t))
    header = {"scenario": {"n_strings": n,
                           "v_ext": {"target": 0.8},
                           "p_ref": {"target": 0.0}}}
    return RunRecord(header=header, columns=cols, status=STATUS_CONVERGED)


def test_detect_los_quiet_record_is_clean():
    los, t_los = detect_los(_synthetic_record())
    assert not los and t_los is None


def test_detect_los_sustained_frequency_deviation():
    rec = _synthetic_record(omega_dev=0.2, dev_duration=0.2)
    los, t_los = detect_los(rec)
    assert los
    assert 0.4 < t_los < 0.7


def test_detect_los_ignores_short_excursion():
    rec = _synthetic_record(omega_dev=0.2, dev_duration=0.02)
    assert not detect_los(rec)[0]


def test_detect_los_angle_drift():
    rec = _synthetic_record(drift=2 * math.pi)
    assert detect_los(rec)[0]


def test_detect_los_monotone_in_threshold():
    # Raising the frequency threshold must never create a detection.
    rec = _synthetic_record(omega_dev=0.2, dev_duration=0.2)
    detected = [detect_los(rec, LosThresholds(freq_dev=th))[0]
                for th in (0.05, 0.1, 0.15, 0.25, 0.5)]
    for earlier, later in zip(detected, detected[1:]):
        assert earlier or not later


# --- metrics ---------------------------------------------------------------------------

def test_metrics_symmetric_record_balanced():
    rec = _synthetic_record()
    m = compute_metrics(rec)
    assert m.reactive_imbalance == 0.0
    assert not m.los_detected
    assert m.voltage_settled      # flat 0.8 against a 0.8 target
    assert m.status == STATUS_CONVERGED


def test_metrics_reactive_imbalance_is_max_spread():
    rec = _synthetic_record()
    rec.columns["q_1"] += 0.10
    rec.columns["q_2"] -= 0.02
    m = compute_metrics(rec)
    assert m.reactive_imbalance == pytest.approx(0.12)


def test_metrics_voltage_band():
    rec = _synthetic_record()
    rec.columns["vpcc_mag_1"][-5:] = 0.85   # leaves the +-0.02 band at the end
    assert not compute_metrics(rec).voltage_settled


def test_zero_delay_black_start_is_symmetric_for_any_feedback():
    # Identical start signals must give identical per-string trajectories, for
    # virtual and for measured feedback alike.
    for fb in (FeedbackConfig(True, True, True),
               FeedbackConfig(False, False, False)):
        spec = build_black_start(0.0, fb)
        rec = o.run(spec, o.SimConfig(dt_plant=100e-6, t_end=0.5))
        for base in ("vpcc_mag", "p", "q", "omega", "v_ref", "phi_rel"):
            assert np.array_equal(rec.col(base, 1), rec.col(base, 2)), base
