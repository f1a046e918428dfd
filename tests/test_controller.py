import cmath
import itertools
import math
import random
import sys

import pytest

from owfsim import check
from owfsim.controller import (
    Controller,
    ControllerParams,
    FeedbackConfig,
    TustinLowPass,
    limit_current_magnitude,
    limit_reverse_power,
)
from owfsim.spacevec import complex_power, to_dq

TS = 200e-6  # control sample period of the unit-level tests (s)
EPS = sys.float_info.epsilon


def _random_inputs(seed, n):
    """n random (p_ref, q_ref, v_ext, v_pcc_s, i_s) tuples for Controller.step."""
    rng = random.Random(seed)
    return [(rng.uniform(0, 1), 0.0, rng.uniform(0, 1.1),
             complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            for _ in range(n)]


# --- parameter validation ----------------------------------------------------

def test_default_params_valid():
    check(ControllerParams())


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
        check(ControllerParams(**kwargs))


def test_alpha_f_boundary_value_is_accepted():
    # The published defaults sit exactly at alpha_f = r_a / l_f.
    check(ControllerParams(alpha_f=0.36 / 0.18))


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


@pytest.mark.parametrize("v", [0j, 1e-160 + 0j, 1e-160j])
def test_reverse_power_projection_bypassed_at_zero_voltage_under_a_tiny_floor(v):
    # 1e-200 squared underflows to 0.0, and the projection divides by |v|^2,
    # which is 0.0 or subnormal here.
    i = 0.5 + 0.1j
    assert limit_reverse_power(i, v, 0.1, 1e-200) == i


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
    # A sample whose unclamped converter voltage leaves the |v| <= v_dc/2 disc
    # is scaled onto it at its angle; a twin without the clamp gives the
    # unclamped voltage.  Inside the disc the voltage passes unchanged.
    p = ControllerParams()
    for v_pcc_s, inside in ((1.4 + 0.2j, False), (0.3 + 0.2j, True)):
        clamped, free = Controller(TS, p), Controller(TS, ControllerParams(v_dc=1e9))
        for c in (clamped, free):
            c.initialize(v_pcc_s)
        out = clamped.step(0.5, 0.0, 0.8, v_pcc_s, 0.1j).v_ref_s
        unclamped = free.step(0.5, 0.0, 0.8, v_pcc_s, 0.1j).v_ref_s
        assert (abs(unclamped) <= p.v_dc / 2.0) is inside
        if inside:
            assert out == unclamped
        else:
            assert abs(abs(out) - p.v_dc / 2.0) <= 4 * EPS * p.v_dc / 2.0
            assert abs(cmath.phase(out / unclamped)) <= 4 * EPS


# --- feedback routing and virtual power ---------------------------------------

def test_virtual_power_is_complex_power_of_reference():
    # Virtual power is formed from the previous sample's *unmodified* current
    # reference, against the PCC voltage in the dq frame advanced by one
    # sample of rotation.  i_max = 0.3 makes the current limiter engage, so a
    # virtual power formed from the limited reference would differ.
    p = ControllerParams(i_max=0.3)
    c = Controller(TS, p)
    prev = c.step(*_random_inputs(3, 1)[0])
    limited = 0
    for u in _random_inputs(4, 1999):
        phi_pred = c.state.phi + TS * p.omega_1 * c.state.omega
        out = c.step(*u)
        assert (out.p_virt, out.q_virt) == complex_power(to_dq(u[3], phi_pred), prev.i_ref0)
        limited += prev.lim_i_active
        prev = out
    assert limited > 1000


@pytest.mark.parametrize("sync,qv,pv", list(itertools.product((True, False), repeat=3)))
def test_select_feedback_routing(sync, qv, pv, monkeypatch):
    # Each outer loop receives the power its FeedbackConfig switch names.
    c = Controller(TS, feedback=FeedbackConfig(sync, qv, pv))
    seen = {}
    sync_step, voltage_ref_step = c.sync_step, c.voltage_ref_step

    def sync_spy(p_ref, p_bar):
        seen["sync"] = p_bar
        return sync_step(p_ref, p_bar)

    def voltage_spy(v_ext, q_ref, q_bar, p_ref, p_bar):
        seen["qv"], seen["pv"] = q_bar, p_bar
        return voltage_ref_step(v_ext, q_ref, q_bar, p_ref, p_bar)

    monkeypatch.setattr(c, "sync_step", sync_spy)
    monkeypatch.setattr(c, "voltage_ref_step", voltage_spy)
    differing = 0
    for u in _random_inputs(5, 50):
        out = c.step(*u)
        if out.p == out.p_virt or out.q == out.q_virt:
            continue
        differing += 1
        assert seen["sync"] == (out.p_virt if sync else out.p)
        assert seen["pv"] == (out.p_virt if pv else out.p)
        assert seen["qv"] == (out.q_virt if qv else out.q)
    assert differing > 40


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
    # With the current and modulation limits out of reach and no reverse-power
    # floor, the converter voltage is the law of the module docstring: the
    # current loop with feedforward, rotated by one sample.
    p = ControllerParams(i_max=1e9, v_dc=1e9, p_min=None)
    c = Controller(TS, p)
    for u in _random_inputs(6, 500):
        i_s = u[4]
        out = c.step(*u)
        rot = cmath.exp(1j * out.phi)
        i_ref_s, v_pcc_f_s = out.i_ref * rot, c.vpcc_filter.y * rot
        expected = cmath.exp(1j * p.omega_1 * TS) * (
            (p.r_a * (i_ref_s - i_s) + 1j * p.l_f * i_ref_s + v_pcc_f_s) + p.r_f * i_ref_s)
        assert out.v_ref_s == expected


# --- the assembled controller ----------------------------------------------------

def test_controller_deterministic_replay():
    inputs = _random_inputs(42, 2000)
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
