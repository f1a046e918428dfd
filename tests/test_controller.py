import cmath
import math
import random

import pytest

from owfsim.controller import (
    Controller,
    ControllerParams,
    FeedbackConfig,
    TustinLowPass,
    current_control,
    limit_current_magnitude,
    limit_reverse_power,
    modulation_limit,
    select_feedback,
    virtual_power,
)
from owfsim.spacevec import complex_power

TS = 200e-6  # control sample period of the unit-level tests (s)


# --- parameter validation ----------------------------------------------------

def test_default_params_valid():
    ControllerParams().validate()


@pytest.mark.parametrize("kwargs", [
    {"alpha_q": 1.0},
    {"alpha_p": 1.5},
    {"alpha_a": 0.05},
    {"alpha_f": 3.0},          # above r_a / l_f = 2.0
    {"i_max": 0.0},
    {"p_min": -math.inf},      # a disabled floor is None
    {"inertia_h": 0.0},
])
def test_param_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        ControllerParams(**kwargs).validate()


def test_alpha_f_boundary_value_is_accepted():
    # The published defaults sit exactly at alpha_f = r_a / l_f.
    ControllerParams(alpha_f=0.36 / 0.18).validate()


# --- limiters -----------------------------------------------------------------

def test_reverse_power_projection_clamps_p_and_preserves_q():
    v = 0.9 + 0.1j
    i = -1.0 + 0.4j   # strongly absorbing
    p0, q0 = complex_power(v, i)
    assert p0 < 0.0
    out = limit_reverse_power(i, v, 0.0)
    p1, q1 = complex_power(v, out)
    assert p1 == pytest.approx(0.0, abs=1e-12)
    assert q1 == pytest.approx(q0, abs=1e-12)


def test_reverse_power_projection_no_op_above_floor():
    v = 1.0 + 0j
    i = 0.5 - 0.2j
    assert limit_reverse_power(i, v, 0.0) == i


def test_reverse_power_projection_disabled_with_minus_inf():
    v = 1.0 + 0j
    i = -2.0 + 0j
    assert limit_reverse_power(i, v, -math.inf) == i


def test_reverse_power_projection_disabled_with_none():
    v = 1.0 + 0j
    i = -2.0 + 0j
    assert limit_reverse_power(i, v, None) is i


def test_reverse_power_projection_bypassed_at_tiny_voltage():
    v = 0.001 + 0.001j
    i = -2.0 + 0j
    assert limit_reverse_power(i, v, 0.0, v_floor=0.01) == i


def test_reverse_power_projection_nonzero_floor():
    v = 1.0 + 0j
    i = -1.0 + 0.5j
    out = limit_reverse_power(i, v, -0.25)
    p, q = complex_power(v, out)
    assert p == pytest.approx(-0.25, abs=1e-12)
    assert q == pytest.approx(complex_power(v, i)[1], abs=1e-12)


def test_current_limit_preserves_angle():
    i = 3.0 * cmath.exp(1j * 0.8)
    out = limit_current_magnitude(i, 1.2)
    assert abs(out) == pytest.approx(1.2, abs=1e-12)
    assert cmath.phase(out) == pytest.approx(0.8, abs=1e-12)


def test_current_limit_no_op_inside_disc():
    i = 0.5 + 0.5j
    assert limit_current_magnitude(i, 1.2) == i


def test_modulation_limit():
    v = 2.0 + 0j
    out = modulation_limit(v, 1.9754)
    assert abs(out) == pytest.approx(1.9754 / 2.0, abs=1e-12)
    assert modulation_limit(0.3 + 0.2j, 1.9754) == 0.3 + 0.2j


# --- feedback routing and virtual power ---------------------------------------

def test_virtual_power_is_complex_power_of_reference():
    v, i = 0.8 + 0.1j, 0.3 - 0.2j
    assert virtual_power(v, i) == complex_power(v, i)


@pytest.mark.parametrize("sync,qv,pv", [
    (True, True, True), (False, False, False),
    (True, False, False), (False, True, False), (False, False, True),
])
def test_select_feedback_routing(sync, qv, pv):
    cfg = FeedbackConfig(sync, qv, pv)
    measured, virtual = (1.0, 2.0), (10.0, 20.0)
    p_sync, p_pv, q_qv = select_feedback(cfg, measured, virtual)
    assert p_sync == (10.0 if sync else 1.0)
    assert p_pv == (10.0 if pv else 1.0)
    assert q_qv == (20.0 if qv else 2.0)


# --- low-pass filter -----------------------------------------------------------

def test_tustin_low_pass_dc_gain_is_one():
    f = TustinLowPass(bandwidth_rad=100.0, ts=200e-6)
    y = 0.0
    for _ in range(20000):
        y = f.step(1.0)
    assert y == pytest.approx(1.0, abs=1e-9)


def test_tustin_low_pass_tracks_analytic_step_response():
    # Trapezoid discretization matches the continuous response at the sample
    # midpoints, so compare against the exact response half a step back.
    a, ts = 50.0, 1e-5
    f = TustinLowPass(a, ts)
    for k in range(1, 2001):
        y = f.step(1.0)
        y_exact = 1.0 - math.exp(-a * (k - 0.5) * ts)
        assert y == pytest.approx(y_exact, abs=1e-5)


# --- loop statics (unit level) --------------------------------------------------

def test_sync_loop_static_frequency_droop():
    # Constant power error dp settles at a frequency offset of dp / km.
    p = ControllerParams()
    c = Controller(TS, p)
    dp = 0.1
    for _ in range(20000):
        _, omega = c.sync_step(dp, 0.0)
    assert omega - 1.0 == pytest.approx(dp / p.km, abs=1e-9)


def test_voltage_ref_static_qv_droop():
    # With a balanced active-power channel, the voltage offset is k_qv * dq.
    p = ControllerParams()
    c = Controller(TS, p)
    dq = -0.3
    for _ in range(20000):
        v_ref = c.voltage_ref_step(0.8, 0.0, -dq, 0.0, 0.0)
    assert v_ref - 0.8 == pytest.approx(p.k_qv * dq, abs=1e-9)


def test_pv_integrator_conditional_antiwindup():
    p = ControllerParams()
    c = Controller(TS, p)
    # Large positive power error drives v_ref into the upper clamp; the
    # integrator must stop winding once it is there.
    for _ in range(50000):
        v_ref = c.voltage_ref_step(1.0, 0.0, 0.0, 1.0, 0.0)
    assert v_ref == p.v_ref_max
    frozen = c.state.pv_integrator
    for _ in range(1000):
        c.voltage_ref_step(1.0, 0.0, 0.0, 1.0, 0.0)
    assert c.state.pv_integrator == frozen


def test_avc_zero_error_returns_feedforward_only():
    c = Controller(TS)
    c.vpcc_filter.y = 1.0 + 0j
    c.vpcc_filter.u_prev = 1.0 + 0j
    i_ref0, v_f = c.avc_step(0.5, 0.1, 1.0, 1.0 + 0j)
    assert v_f == pytest.approx(1.0 + 0j)
    assert i_ref0 == pytest.approx(complex(0.5, -0.1), abs=1e-12)
    assert c.state.avc_integrator == pytest.approx(0.0, abs=1e-15)


def test_avc_division_guard_at_zero_voltage_reference():
    p = ControllerParams()
    i_ref0, _ = Controller(TS, p).avc_step(1.0, 0.0, 0.0, 0j)
    assert abs(i_ref0) <= 1.0 / p.v_ref_floor + 1.0  # finite, guarded


def test_current_control_formula():
    p = ControllerParams()
    i_ref, i, v_f = 0.5 + 0.1j, 0.4 + 0.1j, 0.9 + 0j
    v = current_control(i_ref, i, v_f, p)
    expected = p.r_a * (i_ref - i) + 1j * p.l_f * i_ref + v_f
    assert v == pytest.approx(expected, abs=1e-15)


# --- the assembled controller ----------------------------------------------------

def test_controller_deterministic_replay():
    rng = random.Random(42)
    inputs = [(rng.uniform(0, 1), 0.0, rng.uniform(0, 1.1),
               complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
               complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
              for _ in range(2000)]
    outs = []
    for _ in range(2):
        c = Controller(TS)
        outs.append([c.step(*u) for u in inputs])
    for a, b in zip(*outs):
        assert a == b


def test_controller_bounded_inputs_keep_outputs_finite():
    rng = random.Random(7)
    c = Controller(TS)
    for _ in range(100000):
        out = c.step(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3),
                     rng.uniform(0, 1.2),
                     complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                     complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
        assert math.isfinite(out.p) and math.isfinite(out.q)
        assert math.isfinite(abs(out.v_ref_s))
        assert abs(out.v_ref_s) <= c.params.v_dc / 2.0 + 1e-12
        assert abs(out.i_ref) <= c.params.i_max + 1e-12


def test_controller_current_limit_always_respected():
    c = Controller(TS, ControllerParams(i_max=0.7))
    rng = random.Random(11)
    for _ in range(5000):
        out = c.step(rng.uniform(0, 2), 0.0, rng.uniform(0, 1.2),
                     complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                     complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        assert abs(out.i_ref) <= 0.7 + 1e-12
