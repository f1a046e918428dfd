import cmath
import copy
import inspect
import itertools
import math
import random
import sys
from dataclasses import dataclass, fields

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


@pytest.mark.parametrize("v", [0j, 1e-160 + 0j, 1e-160j, 1.5e-154 + 0j, 2e-154 + 0j])
def test_reverse_power_projection_bypassed_at_zero_voltage_under_a_tiny_floor(v):
    # 1e-200 squared underflows to 0.0, and the projection divides by |v|^2,
    # which is 0.0 or subnormal here, or normal but so small that the
    # quotient overflows: projecting would return inf + nan j.
    i = 0.5 + 0.1j
    assert limit_reverse_power(i, v, 10.0, 1e-200) == i


def test_reverse_power_projection_is_finite_at_any_tiny_voltage():
    for exponent in range(-160, -149):
        for mantissa in (1.0, 1.5, 2.0, 5.0):
            for angle in (0.0, 0.7, -2.0):
                v = cmath.rect(mantissa * 10.0 ** exponent, angle)
                for p_min in (0.1, 1.0, 10.0, 100.0):
                    out = limit_reverse_power(0.5 + 0.1j, v, p_min, 1e-200)
                    assert cmath.isfinite(out), (v, p_min, out)


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
def test_select_feedback_routing(sync, qv, pv):
    # Each outer loop receives the power its FeedbackConfig switch names: a
    # twin of the controller, copied before each sample and driven through
    # sync_step and voltage_ref_step with those powers, lands on the step's
    # phi, omega and v_ref bit for bit.
    c = Controller(TS, feedback=FeedbackConfig(sync, qv, pv))
    differing = 0
    for p_ref, q_ref, v_ext, v_pcc_s, i_s in _random_inputs(5, 50):
        twin = copy.deepcopy(c)
        out = c.step(p_ref, q_ref, v_ext, v_pcc_s, i_s)
        if out.p == out.p_virt or out.q == out.q_virt:
            continue
        differing += 1
        p_sync, p_pv = (out.p_virt if sync else out.p), (out.p_virt if pv else out.p)
        phi, omega = twin.sync_step(p_ref, p_sync)
        v_ref = twin.voltage_ref_step(v_ext, q_ref, out.q_virt if qv else out.q, p_ref, p_pv)
        assert repr((phi, omega, v_ref)) == repr((out.phi, out.omega, out.v_ref))
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


# --- the step against the chain as first written --------------------------------

def _reference_low_pass(f, u):
    f.y = f.a1 * f.y + f.b * (u + f.u_prev)
    f.u_prev = u
    return f.y


def _reference_wrap_angle(phi):
    r = math.remainder(phi, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


def _reference_to_dq(v_s, phi):
    return v_s * cmath.exp(-1j * phi)


def _reference_complex_power(v, i):
    s = v * i.conjugate()
    return s.real, s.imag


def _reference_limit_reverse_power(i_ref0, v_pcc_f, p_min, v_floor):
    if p_min is None:
        return i_ref0
    vsq = v_pcc_f.real * v_pcc_f.real + v_pcc_f.imag * v_pcc_f.imag
    if vsq < v_floor * v_floor or vsq < sys.float_info.min:
        return i_ref0
    p = (v_pcc_f * i_ref0.conjugate()).real
    excess = min(0.0, p - p_min)
    if excess == 0.0 or math.isinf(scale := excess / vsq):
        return i_ref0
    return i_ref0 - v_pcc_f * scale


def _reference_limit_current_magnitude(i_refr, i_max):
    mag = abs(i_refr)
    if mag <= i_max:
        return i_refr
    return i_refr * (i_max / mag)


@dataclass
class _ReferenceOutputs:
    v_ref_s: complex = 0.0
    p: float = 0.0
    q: float = 0.0
    p_virt: float = 0.0
    q_virt: float = 0.0
    v_ref: float = 0.0
    omega: float = 1.0
    phi: float = 0.0
    i_ref0: complex = 0.0
    i_ref: complex = 0.0
    lim_p_active: bool = False
    lim_i_active: bool = False


def _reference_step(c, ts, p_ref, q_ref, v_ext, v_pcc_s, i_s):
    """Controller.step as first written, on c's state and filters: the loop
    methods' and helpers' calls, the constants folded as its constructor
    folded them, and a dataclass output.  The oracle for bit-identity."""
    p = c.params
    st = c.state
    d_c = p.td / p.m_virtual
    dp_gain = 1.0 - p.km * d_c
    two_h = 2.0 * p.inertia_h
    ts_omega_1 = ts * p.omega_1
    ts_avc_gain = ts * (p.alpha_a * p.omega_1 / p.r_a)
    hold_rot = cmath.exp(1j * p.omega_1 * ts)

    def sync_step(p_ref, p_bar):
        dp = p_ref - p_bar
        st.sync_state += (ts * (dp_gain * dp - p.km * st.sync_state) / two_h)
        omega_dev = st.sync_state + d_c * dp
        st.omega = 1.0 + omega_dev
        st.phi = _reference_wrap_angle(st.phi + ts_omega_1 * st.omega)
        return st.phi, st.omega

    def voltage_ref_step(v_ext, q_ref, q_bar, p_ref, p_bar):
        e_q = q_ref - _reference_low_pass(c.q_filter, q_bar)
        e_p = p_ref - _reference_low_pass(c.p_filter, p_bar)
        v_raw = v_ext + p.k_qv * e_q + p.k_pv * e_p + st.pv_integrator
        v_ref = min(max(v_raw, 0.0), p.v_ref_max)
        winding_in = (v_raw > p.v_ref_max and e_p > 0.0) or (v_raw < 0.0 and e_p < 0.0)
        if not winding_in:
            st.pv_integrator += ts * p.k_pv_i * e_p
        return v_ref

    def avc_step(p_ref, q_ref, v_ref, v_pcc):
        v_pcc_f = _reference_low_pass(c.vpcc_filter, v_pcc)
        err = complex(v_ref, 0.0) - v_pcc_f
        v_div = max(v_ref, p.v_ref_floor)
        i_ref0 = (complex(p_ref, -q_ref) / v_div
                  + err / p.r_a
                  + st.avc_integrator)
        st.avc_integrator += ts_avc_gain * err
        return i_ref0, v_pcc_f

    p_meas, q_meas = _reference_complex_power(v_pcc_s, i_s)
    phi_pred = st.phi + ts_omega_1 * st.omega
    p_virt, q_virt = _reference_complex_power(_reference_to_dq(v_pcc_s, phi_pred), st.i_ref0_prev)
    p_sync = p_virt if c.cfg.sync_uses_virtual else p_meas
    p_pv = p_virt if c.cfg.pv_uses_virtual else p_meas
    q_qv = q_virt if c.cfg.qv_uses_virtual else q_meas

    phi, omega = sync_step(p_ref, p_sync)
    v_pcc = _reference_to_dq(v_pcc_s, phi)
    v_ref = voltage_ref_step(v_ext, q_ref, q_qv, p_ref, p_pv)
    i_ref0, v_pcc_f = avc_step(p_ref, q_ref, v_ref, v_pcc)

    i_refr = _reference_limit_reverse_power(i_ref0, v_pcc_f, p.p_min, p.v_proj_floor)
    lim_p = i_refr is not i_ref0
    i_ref = _reference_limit_current_magnitude(i_refr, p.i_max)
    lim_i = abs(i_refr) > p.i_max

    rot = cmath.exp(1j * phi)
    st.i_ref0_prev = i_ref0
    i_ref_s = i_ref * rot
    v_pcc_f_s = v_pcc_f * rot
    v_out = hold_rot * ((p.r_a * (i_ref_s - i_s) + 1j * p.l_f * i_ref_s + v_pcc_f_s)
                        + p.r_f * i_ref_s)
    v_out = _reference_limit_current_magnitude(v_out, 0.5 * p.v_dc)

    return _ReferenceOutputs(
        v_ref_s=v_out, p=p_meas, q=q_meas, p_virt=p_virt, q_virt=q_virt,
        v_ref=v_ref, omega=omega, phi=phi, i_ref0=i_ref0, i_ref=i_ref,
        lim_p_active=lim_p, lim_i_active=lim_i,
    )


def _oracle_inputs(seed, n):
    """n step inputs: 20 samples of a dead network (the black start's first
    samples), then random ones wide enough for every limit to engage, then one
    with a NaN PCC voltage and a few after it."""
    rng = random.Random(seed)
    dead = [(0.0, 0.0, 0.0, 0j, 0j)] * 20
    wide = [(rng.uniform(-1.0, 2.0), rng.uniform(-0.3, 0.3), rng.uniform(0.0, 1.3),
             complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6)),
             complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
            for _ in range(n)]
    return dead + wide + [(0.5, 0.0, 0.8, complex(math.nan, 0.1), 0.1j)] + wide[:5]


def _state_repr(c):
    return repr((c.state, *((f.y, f.u_prev) for f in (c.q_filter, c.p_filter, c.vpcc_filter))))


@pytest.mark.parametrize("i_max", [1.2, 0.3])
@pytest.mark.parametrize("p_min", [None, 0.0, -0.25])
@pytest.mark.parametrize("feedback", list(itertools.product((True, False), repeat=3)))
def test_step_is_the_chain_as_first_written_bit_for_bit(feedback, p_min, i_max):
    # Twin controllers, one stepped by Controller.step and one by the oracle:
    # every output field and every state field agree by repr after each call,
    # signed zeros and NaN included.
    params = ControllerParams(p_min=p_min, i_max=i_max)
    c, ref = (Controller(TS, params, FeedbackConfig(*feedback)) for _ in range(2))
    for twin in (c, ref):
        twin.initialize(0j)
    engaged = {"lim_p": 0, "lim_i": 0, "modulation": 0}
    inputs = _oracle_inputs(repr((feedback, p_min, i_max)), 300)
    for u in inputs:
        out = c.step(*u)
        expected = _reference_step(ref, TS, *u)
        assert [repr(getattr(out, f.name)) for f in fields(_ReferenceOutputs)] == \
            [repr(getattr(expected, f.name)) for f in fields(_ReferenceOutputs)], u
        assert _state_repr(c) == _state_repr(ref), u
        engaged["lim_p"] += out.lim_p_active
        engaged["lim_i"] += out.lim_i_active
        engaged["modulation"] += abs(out.v_ref_s) >= params.v_dc / 2.0 * (1.0 - 4 * EPS)
    assert math.isnan(c.state.phi)  # the NaN sample reached the state
    assert 0 < engaged["modulation"] < len(inputs)
    assert 0 < engaged["lim_i"] < len(inputs)
    assert (0 < engaged["lim_p"] < len(inputs)) is (p_min is not None)


def test_step_calls_no_python_function():
    # One sample runs in the step's own frame: a profiler sees the step's call
    # and C calls (cmath.exp, math.remainder, abs, ...), and no other Python call.
    c = Controller(TS, ControllerParams(i_max=0.3))
    inputs = _random_inputs(8, 3)
    c.step(*inputs[0])
    events = []
    sys.setprofile(lambda frame, event, arg: events.append((event, frame.f_code.co_name)))
    try:
        c.step(*inputs[1])
    finally:
        sys.setprofile(None)
    calls = [e for e in events if e[0] == "call"]
    assert calls == [("call", "step")], calls
    assert {e for e, _ in events} <= {"call", "return", "c_call", "c_return"}
    assert any(e == "c_call" for e, _ in events)


@pytest.mark.parametrize("function,head", [
    (Controller.step, "def step(self, p_ref, q_ref, v_ext, v_pcc_s, i_s):"),
    (Controller.sync_step, "def sync_step(self, p_ref, p_bar):"),
    (TustinLowPass.step, "def step(self, u):"),
    (limit_current_magnitude, "def limit_current_magnitude(i_refr, i_max):"),
])
def test_each_compiled_rule_shows_its_own_source(function, head):
    # Two compiled functions named step keep apart in linecache, so each
    # traceback shows its own lines; each def sits in its _make.
    assert inspect.getsource(function).splitlines()[0].strip() == head
    assert function.__code__.co_filename == f"<owfsim {function.__qualname__}>"
