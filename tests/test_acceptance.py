"""Acceptance suite.

Each test prints one ``criterion N: PASS/FAIL`` line with the measured numbers
before asserting, so a plain ``pytest -v`` run doubles as the acceptance report.
"""
from __future__ import annotations

import cmath
import importlib.util
import math
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import owfsim as o
from owfsim.controller import (
    Controller,
    ControllerParams,
    FeedbackConfig,
    limit_current_magnitude,
    limit_reverse_power,
)
from owfsim.record import STATUS_DIVERGED
from owfsim.scenario import build_black_start, compute_metrics
from owfsim.spacevec import complex_power

_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).resolve().parent / "data" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

TS = 200e-6  # control sample period of the unit-level loop checks (s)


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    # Also write past pytest's capture so the report survives in a plain -v log.
    print(line, file=sys.__stdout__)
    assert ok, line


# --- 1. limiter property suite ---------------------------------------------------

def test_criterion_1_limiter_properties():
    rng = random.Random(1)
    i_max = 1.2
    worst_p = worst_q = worst_ang = worst_mag = 0.0
    n_samples = 100_000
    t0 = time.perf_counter()
    for _ in range(n_samples):
        v = cmath.rect(rng.uniform(0.05, 1.3), rng.uniform(-math.pi, math.pi))
        i0 = cmath.rect(rng.uniform(0.0, 3.0), rng.uniform(-math.pi, math.pi))
        p_min = rng.uniform(-1.0, 0.0)

        _, q0 = complex_power(v, i0)
        i1 = limit_reverse_power(i0, v, p_min)
        p1, q1 = complex_power(v, i1)
        worst_p = max(worst_p, p_min - p1)          # projection enforces the floor
        worst_q = max(worst_q, abs(q1 - q0))        # and never touches Q

        i2 = limit_current_magnitude(i1, i_max)
        worst_mag = max(worst_mag, abs(i2) - i_max)
        if abs(i1) > 0.0:
            dang = abs(cmath.phase(i2 / i1))        # pure scaling keeps the angle
            worst_ang = max(worst_ang, dang)
        p2, _ = complex_power(v, i2)
        worst_p = max(worst_p, p_min - p2)          # composed output still honors it

    wall = time.perf_counter() - t0
    ok = (worst_p <= 1e-12 and worst_q <= 1e-12 and worst_mag <= 1e-12
          and worst_ang <= 1e-12 and wall < 5.0)
    _report(1, ok, f"{n_samples} samples, floor slack {worst_p:.1e}, "
                   f"dQ {worst_q:.1e}, mag slack {worst_mag:.1e}, "
                   f"dangle {worst_ang:.1e}, wall {wall:.1f} s")


# Beside criterion 1, not part of it: the same algebra on inputs hypothesis
# picks, over wider ranges and with a floor of either sign.  |v| stays above
# limit_reverse_power's 0.01 pu voltage floor, where the projection applies.
@settings(max_examples=1000, deadline=None)
@given(v=st.builds(cmath.rect, st.floats(0.011, 10.0), st.floats(-math.pi, math.pi)),
       angle=st.floats(-math.pi, math.pi),
       ratio=st.one_of(st.floats(0.0, 10.0), st.floats(0.99, 1.01)),  # |i0| / i_max
       p_min=st.floats(-100.0, 100.0), i_max=st.floats(1e-3, 10.0))
def test_limiters_hold_their_bounds_on_arbitrary_inputs(v, angle, ratio, p_min, i_max):
    i0 = cmath.rect(ratio * i_max, angle)
    slack = 1e-12 * max(1.0, abs(v) * abs(i0), abs(p_min))  # rounding of P and Q
    i1 = limit_reverse_power(i0, v, p_min)
    p1, q1 = complex_power(v, i1)
    assert p1 >= p_min - slack                          # the projection meets the floor
    assert abs(q1 - complex_power(v, i0)[1]) <= slack   # and keeps Q
    for i in (i0, i1):
        # The rescaling onto the disc rounds by a few ulps.
        assert abs(limit_current_magnitude(i, i_max)) <= i_max * (1.0 + 4 * sys.float_info.epsilon)
    if p_min <= 0.0:
        # Zero current meets such a floor, so the floor is feasible inside the
        # disc, and scaling toward zero keeps it met.
        assert complex_power(v, limit_current_magnitude(i1, i_max))[0] >= p_min - slack


# --- 2. virtual-equals-measured consistency ---------------------------------------

def _virtual_less_measured(rec) -> tuple[float, float]:
    """|p_virt - p| and |q_virt - q| of string 1 at the record's last sample."""
    return (abs(rec.col("p_virt", 1)[-1] - rec.col("p", 1)[-1]),
            abs(rec.col("q_virt", 1)[-1] - rec.col("q", 1)[-1]))


def test_criterion_2_virtual_equals_measured():
    # One string on a stiff 1 pu bus, v_ext held at 1 pu, limits wide open.
    t0 = time.perf_counter()
    rec = o.run(make_golden.stiff_bus(), o.SimConfig(dt_plant=50e-6))
    wall = time.perf_counter() - t0
    dp, dq = _virtual_less_measured(rec)
    ok = dp < 1e-3 and dq < 1e-3 and wall < 10.0
    _report(2, ok, f"dP {dp:.2e} pu, dQ {dq:.2e} pu, wall {wall:.1f} s")


@pytest.mark.parametrize("l_f, dp_band, dq_band", [(None, (0.0, 1e-5), (0.0, 1e-4)),
                                                   (0.09, (2e-3, 4e-3), (0.1, 0.15))],
                         ids=["l_f=matched", "l_f=0.09"])
def test_a_mismatched_current_loop_separates_virtual_from_measured_power(l_f, dp_band, dq_band):
    # The virtual powers come from the unmodified current reference, so they
    # equal the delivered ones only where the current loop realizes it: on
    # criterion 2's stiff bus at 3 s they agree to 1.1e-6 / 5.4e-6 pu with the
    # controller's l_f matched to the plant's 0.18, and miss by 2.6e-3 / 0.123 pu
    # with l_f = 0.09, though no limiter ever acts.
    scenario = make_golden.stiff_bus()
    scenario.t_end = 3.0
    if l_f is not None:
        scenario.controller.l_f = l_f
    rec = o.run(scenario, o.SimConfig(dt_plant=50e-6))
    dp, dq = _virtual_less_measured(rec)
    assert dp_band[0] <= dp < dp_band[1] and dq_band[0] <= dq < dq_band[1], (dp, dq)
    assert not (rec.col("lim_i").any() or rec.col("lim_p").any())


# --- 3. droop statics --------------------------------------------------------------

def test_criterion_3_droop_statics():
    p = ControllerParams()
    assert p.km == 20.0 and p.k_qv == 0.05

    c = Controller(TS, p)
    dp = 0.1
    for _ in range(30000):
        _, omega = c.sync_step(dp, 0.0)
    freq_err = abs((omega - 1.0) - dp / p.km)

    c = Controller(TS, p)
    dq = -0.3
    for _ in range(30000):
        v_ref = c.voltage_ref_step(0.8, 0.0, -dq, 0.0, 0.0)
    qv_err = abs((v_ref - 0.8) - p.k_qv * dq)

    ok = freq_err < 1e-4 and qv_err < 1e-4
    _report(3, ok, f"frequency droop error {freq_err:.2e} pu, "
                   f"QV droop error {qv_err:.2e} pu")


# --- 4. delayed black start, all-virtual ---------------------------------------------

def test_criterion_4_black_start_all_virtual(blackstart_virtual):
    rec, wall = blackstart_virtual
    m = compute_metrics(rec)
    v_end = [rec.col("vpcc_mag", k)[-1] for k in (1, 2)]
    voltage_ok = all(abs(v - 0.8) <= 0.02 for v in v_end)
    current_ok = all(c <= 1.2 * 1.02 for c in m.max_current)
    ok = (voltage_ok and m.voltage_settled and not m.los_detected
          and current_ok and m.status != STATUS_DIVERGED and wall < 60.0)
    _report(4, ok, f"|v_pcc| end {v_end[0]:.3f}/{v_end[1]:.3f} pu, "
                   f"max|i| {max(m.max_current):.3f} pu, los {m.los_detected}, "
                   f"wall {wall:.1f} s")


# --- 5. delayed black start, droops on measurements ----------------------------------

def test_criterion_5_black_start_measured_droops_fails(blackstart_measured):
    rec, wall = blackstart_measured
    m = compute_metrics(rec)
    ok = (m.los_detected or m.status == STATUS_DIVERGED) and wall < 60.0
    _report(5, ok, f"los {m.los_detected} at t={m.los_time}, status {m.status}, "
                   f"wall {wall:.1f} s")


# --- 6. power ramp, unrestricted reverse power, all-measured -------------------------

def test_criterion_6_ramp_no_pmin_measured(ramp_nopmin_measured):
    rec, _ = ramp_nopmin_measured
    m = compute_metrics(rec)
    ok = m.ramp_completed and m.reactive_imbalance < 0.05
    _report(6, ok, f"ramp completed {m.ramp_completed}, "
                   f"reactive imbalance {m.reactive_imbalance:.3f} pu")


# --- 7. power ramp, zero floor, PV loop on measurements ------------------------------

def test_criterion_7_ramp_pmin_measured_pv_fails(ramp_pmin_measured_pv):
    rec, _ = ramp_pmin_measured_pv
    m = compute_metrics(rec)
    sustained_limit = max(m.lim_i_max_duration) > 0.1
    ok = m.los_detected or m.status == STATUS_DIVERGED or sustained_limit
    _report(7, ok, f"los {m.los_detected}, status {m.status}, "
                   f"longest current-limit dwell {max(m.lim_i_max_duration):.2f} s")


# --- 8. power ramp, zero floor, all-virtual -------------------------------------------

def test_criterion_8_ramp_pmin_virtual(ramp_pmin_virtual):
    rec, _ = ramp_pmin_virtual
    m = compute_metrics(rec)
    spec = o.get_preset("ramp-pmin-virtual")
    t0 = spec.p_ref.start
    t1 = t0 + spec.strings[1].p_ramp_delay
    window = (rec.t >= t0) & (rec.t <= t1)
    min_p_virt_2 = float(np.min(rec.col("p_virt", 2)[window]))
    min_p_2 = float(np.min(rec.col("p", 2)))
    ok = (m.ramp_completed and not m.los_detected
          and m.reactive_imbalance < 0.05
          and min_p_virt_2 < 0.0
          and min_p_2 >= spec.controller.p_min - 0.01)
    _report(8, ok, f"ramp completed {m.ramp_completed}, los {m.los_detected}, "
                   f"reactive imbalance {m.reactive_imbalance:.3f} pu, "
                   f"min virtual P2 {min_p_virt_2:.4f} pu, "
                   f"min measured P2 {min_p_2:.4f} pu")


# --- 9. zero-delay symmetry baseline --------------------------------------------------

def test_criterion_9_zero_delay_symmetry():
    worst = 0.0
    for fb in (FeedbackConfig(True, True, True),
               FeedbackConfig(False, False, False)):
        spec = build_black_start(0.0, fb)
        rec = o.run(spec, o.SimConfig(dt_plant=100e-6, t_end=1.0))
        for base in ("vpcc_mag", "p", "q", "omega", "v_ref", "phi_rel"):
            worst = max(worst, float(np.max(
                np.abs(rec.col(base, 1) - rec.col(base, 2)))))
    ok = worst <= 1e-9
    _report(9, ok, f"max per-string trajectory difference {worst:.2e} pu")


# --- 10. numerical convergence under step halving -------------------------------------

def test_criterion_10_step_halving_convergence(blackstart_virtual,
                                               blackstart_virtual_half_dt):
    rec, _ = blackstart_virtual
    rec_h, _ = blackstart_virtual_half_dt
    dv = max(abs(rec.col("vpcc_mag", k)[-1] - rec_h.col("vpcc_mag", k)[-1])
             for k in (1, 2))
    ok = dv < 1e-4
    _report(10, ok, f"terminal voltage change {dv:.2e} pu")
