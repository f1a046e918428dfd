"""Grid-forming control of one aggregated wind-turbine string.

The control chain, executed once per sample by Controller.step:

  measurements -> (virtual) power computation -> per-loop feedback selection
  -> power synchronization loop -> voltage magnitude reference (QV droop +
  PV control) -> alternating voltage controller (AVC) -> reverse-power
  projection -> current magnitude limit -> stationary-frame current control
  -> modulation limit.

"Virtual" active/reactive power is computed from the *unmodified* AVC current
reference instead of the measured current.  Feeding the outer loops with the
virtual quantities keeps them blind to limiter action, which is what makes
delayed black starts and power ramps survivable; each loop's feedback source
is a fixed per-run switch.

The converter voltage reference, in the stationary frame, is

  v_ref_s = e^(j w1 Ts) [R_a (i_ref - i) + (R_f + j L_f) i_ref + v_pcc,f]

clamped to |v_ref_s| <= v_dc / 2 at its angle.  The bracket is current control
on the limited reference with PCC-voltage and filter-impedance feedforward;
without R_f the proportional loop keeps a static error.  The rotation makes the
vector meet the frame at its application instant, one control sample late
(computation and modulator update delay).

Each rule of the chain is stated once, as a text: the synchronization loop,
the voltage reference, the AVC, the Tustin filter update, the angle wrap
(spacevec.WRAP_ANGLE), the reverse-power projection and the magnitude limit.
Controller.step is compiled once, at import, from a template that splices
every text in: one frame per sample that calls no Python function, only the C
builtins cmath.exp, math.remainder, abs, min, max, complex and math.isinf, on
the complex arithmetic of the chain term for term, and returns a
ControllerOutputs named tuple.  TustinLowPass.step, Controller.sync_step,
voltage_ref_step and avc_step, limit_reverse_power and limit_current_magnitude
are each one text compiled alone.  The state stays in ControllerState and the
three TustinLowPass objects.

Time bases: all gains are per unit.  Bandwidths (alpha_*) and the frequency
droop are per unit of the nominal frequency; the inertia constant H and the
PV integral gain are kept in SI seconds (see README).
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Annotated, NamedTuple

from .plant import StringElectrical
from .schema import NonNegative, Positive, Range, check
from .spacevec import OMEGA_BASE_50HZ, WRAP_ANGLE, SpaceVector, compile_function, to_dq


# A filter bandwidth in pu: zero divides by nothing; below the nominal frequency.
Bandwidth = Annotated[NonNegative, Range(0.0, 1.0, "[)")]


@dataclass
class ControllerParams:
    km: float = 20.0              # frequency droop (pu)
    inertia_h: Positive = 1.0     # inertia time constant (s)
    td: float = 0.0               # damper emulation time constant (pu)
    k_qv: float = 0.05            # QV droop gain (pu)
    alpha_q: Bandwidth = 0.2      # Q-feedback filter bandwidth (pu)
    k_pv: float = 0.75            # PV proportional gain (pu)
    k_pv_i: float = 5.0           # PV integral gain (1/s)
    alpha_p: Bandwidth = 0.5      # P-feedback filter bandwidth (pu)
    r_a: Positive = 0.36          # active resistance / current P gain (pu)
    alpha_a: Annotated[NonNegative, Range(0.0, 0.05, "[)")] = 0.01  # AVC integral bandwidth (pu)
    alpha_f: NonNegative = 2.0    # PCC voltage feedforward filter bandwidth (pu)
    i_max: Positive = 1.2         # current magnitude limit (pu)
    p_min: float | None = 0.0     # reverse power floor (pu, None disables)
    # omega_1, l_f and r_f are the controller's own model of the plant, by
    # default the plant's own values; setting them apart is a model-mismatch study.
    omega_1: Positive = OMEGA_BASE_50HZ  # nominal frequency, rad/s (= 1 pu)
    l_f: Positive = StringElectrical.l_f  # filter/transformer inductance (pu)
    r_f: float = StringElectrical.r_f  # filter/transformer resistance (pu)
    v_dc: Positive = 1.9754       # available DC-link voltage (pu)
    v_ref_max: Positive = 1.2     # voltage reference clamp (pu)
    v_ref_floor: Positive = 0.05  # guard for the AVC feedforward division (pu)
    v_proj_floor: Positive = 0.01  # bypass threshold of the reverse-power projection (pu)

    def _rules(self) -> None:
        # non-strict: the published defaults sit exactly at alpha_f = r_a/l_f
        if self.alpha_f > self.r_a / self.l_f:
            raise ValueError("alpha_f must not exceed r_a/l_f")
        if not self.m_virtual > 0.0:  # the damper feedthrough divides by it
            raise ValueError(f"inertia_h: the virtual inertia 2 * inertia_h * omega_1 must be "
                             f"positive, got {self.m_virtual!r}")

    @property
    def m_virtual(self) -> float:
        """Virtual inertia M in normalized time, from the swing convention M = 2 H w1."""
        return 2.0 * self.inertia_h * self.omega_1


@dataclass(frozen=True)
class FeedbackConfig:
    """Per-loop choice between virtual and measured power feedback."""

    sync_uses_virtual: bool = True
    qv_uses_virtual: bool = True
    pv_uses_virtual: bool = True


class TustinLowPass:
    """First-order low pass H_a(s) = a/(s+a), discretized with the bilinear
    transform so the DC gain stays exactly 1."""

    __slots__ = ("b", "a1", "y", "u_prev")

    def __init__(self, bandwidth_rad: float, ts: float):
        x = bandwidth_rad * ts
        self.b = x / (2.0 + x)
        self.a1 = (2.0 - x) / (2.0 + x)
        self.y = 0.0
        self.u_prev = 0.0

    # step(u) -> y: _TUSTIN on the filter itself (below).


@dataclass
class ControllerState:
    """The dynamic state of one controller, apart from the filters Controller owns."""

    phi: float = 0.0              # dq angle (rad), wrapped to (-pi, pi]
    omega: float = 1.0            # internal frequency (pu)
    sync_state: float = 0.0       # internal state of K_P(s)/(frequency offset)
    pv_integrator: float = 0.0
    avc_integrator: complex = 0.0
    # Unmodified current reference of the previous sample, stored in the dq
    # frame so the stationary-frame rotation accrued over one sample does not
    # skew the virtual power (it would leak Q into P_virt as ~omega*Ts*Q).
    i_ref0_prev: complex = 0.0


class ControllerOutputs(NamedTuple):
    """Actuation plus every intermediate signal worth logging."""

    v_ref_s: complex = 0.0        # converter voltage reference, stationary frame
    p: float = 0.0
    q: float = 0.0
    p_virt: float = 0.0
    q_virt: float = 0.0
    v_ref: float = 0.0            # voltage magnitude reference
    omega: float = 1.0
    phi: float = 0.0
    i_ref0: complex = 0.0         # dq
    i_ref: complex = 0.0          # dq
    lim_p_active: bool = False
    lim_i_active: bool = False


# The rules of the chain (module docstring), each a text on the names it reads
# and binds.  One sample of the low pass {f} (a TustinLowPass) on the input
# {u}: its output {y}.
_TUSTIN = """\
{y} = {f}.y = {f}.a1 * {f}.y + {f}.b * ({u} + {f}.u_prev)
{f}.u_prev = {u}
"""

# The power synchronization loop, one forward-Euler sample of
# phi = (1/s)[w1 + K_P(s)(p_ref - p_bar)] with K_P(s) = (s Td + 1)/(s M + km);
# for Td = 0 this is the swing equation d(w_dev)/dt = (dP - km w_dev) / (2H)
# with phi' = w1 (1 + w_dev).  It binds the updated phi and omega.
_SYNC = """\
dp = p_ref - p_bar
st.sync_state = sync_state = st.sync_state + ts * (dp_gain * dp - km * st.sync_state) / two_h
st.omega = omega = 1.0 + (sync_state + d_c * dp)
phi = st.phi + ts_omega_1 * omega
""" + WRAP_ANGLE + """\
st.phi = phi
"""

# The voltage magnitude reference v_ref.  QV branch: proportional on the
# low-pass-filtered Q error.  PV branch: PI on the filtered P error, with
# conditional-integration anti-windup against the [0, v_ref_max] clamp.
_VOLTAGE_REF = (_TUSTIN.format(f="q_filter", u="q_bar", y="q_f")
                + _TUSTIN.format(f="p_filter", u="p_bar", y="p_f") + """\
e_q = q_ref - q_f
e_p = p_ref - p_f
v_raw = v_ext + k_qv * e_q + k_pv * e_p + st.pv_integrator
v_ref = min(max(v_raw, 0.0), v_ref_max)
if not ((v_raw > v_ref_max and e_p > 0.0) or (v_raw < 0.0 and e_p < 0.0)):
    st.pv_integrator += ts * k_pv_i * e_p
""")

# The alternating voltage controller, in the dq frame:
# i_ref0 = (p_ref - j q_ref)/v_ref + (1/R_a)(1 + alpha_a/s)[v_ref - v_pcc_f],
# v_ref the real-axis target vector and v_pcc_f the filtered PCC voltage.  The
# division is guarded by v_ref_floor (a black start begins at zero volts).
_AVC = _TUSTIN.format(f="vpcc_filter", u="v_pcc", y="v_pcc_f") + """\
err = complex(v_ref, 0.0) - v_pcc_f
i_ref0 = complex(p_ref, -q_ref) / max(v_ref, v_ref_floor) + err / r_a + st.avc_integrator
st.avc_integrator += ts_avc_gain * err
"""

# The reverse-power projection: i_refr is i_ref0 projected so that
# Re{v_pcc_f i_refr*} >= p_min, Im{v_pcc_f i_refr*} preserved.  It is i_ref0
# itself, the same object, when the limit is disabled (p_min is None) or the
# voltage is too small for the projection to be defined: below v_floor, or so
# small that the projection's scale overflows (a floor below about 1.5e-154
# squares to a subnormal or 0.0).
_REVERSE_POWER = """\
i_refr = i_ref0
if p_min is not None:
    vsq = v_pcc_f.real * v_pcc_f.real + v_pcc_f.imag * v_pcc_f.imag
    if not (vsq < v_floor * v_floor or vsq < float_min):
        excess = min(0.0, (v_pcc_f * i_ref0.conjugate()).real - p_min)
        if not (excess == 0.0 or isinf(scale := excess / vsq)):
            i_refr = i_ref0 - v_pcc_f * scale
"""

# The angle-preserving scaling of {x} onto the |{y}| <= {limit} disc, {mag} = |{x}|.
_MAGNITUDE_LIMIT = """\
{mag} = abs({x})
{y} = {x} if {mag} <= {limit} else {x} * ({limit} / {mag})
"""

# The constants of the texts, each from the params p and the sample period ts.
# A product of them that every sample would otherwise recompute is a
# parenthesised or left-associated subexpression of the rule it serves, so
# folding it leaves the arithmetic bit-identical.
_CONSTANTS = {
    "ts": lambda p, ts: ts, "km": lambda p, ts: p.km,
    "d_c": lambda p, ts: p.td / p.m_virtual,  # lead feedthrough of K_P(s)
    "dp_gain": lambda p, ts: 1.0 - p.km * (p.td / p.m_virtual),
    "two_h": lambda p, ts: 2.0 * p.inertia_h, "ts_omega_1": lambda p, ts: ts * p.omega_1,
    "k_qv": lambda p, ts: p.k_qv, "k_pv": lambda p, ts: p.k_pv, "k_pv_i": lambda p, ts: p.k_pv_i,
    "v_ref_max": lambda p, ts: p.v_ref_max, "v_ref_floor": lambda p, ts: p.v_ref_floor,
    "r_a": lambda p, ts: p.r_a, "ts_avc_gain": lambda p, ts: ts * (p.alpha_a * p.omega_1 / p.r_a),
    "p_min": lambda p, ts: p.p_min, "v_floor": lambda p, ts: p.v_proj_floor,
    "i_max": lambda p, ts: p.i_max, "l_f": lambda p, ts: p.l_f, "r_f": lambda p, ts: p.r_f,
    "hold_rot": lambda p, ts: cmath.exp(1j * p.omega_1 * ts),
    "v_out_max": lambda p, ts: 0.5 * p.v_dc}
# ... then the feedback switches, each bound by its FeedbackConfig field name.
_SWITCHES = tuple(f.name for f in fields(FeedbackConfig))

# What a method binds before its rule: the constants, the state, the filters.
_BIND = (", ".join((*_CONSTANTS, *_SWITCHES)) + """, = self.constants
st = self.state
q_filter, p_filter, vpcc_filter = self.q_filter, self.p_filter, self.vpcc_filter
""")

# One sample of the chain of the module docstring: the measured and virtual
# powers (complex_power of to_dq, written out), each loop's feedback by its
# switch, the loops, the limits and the current control.  The virtual power
# evaluates the one-sample-old reference against the PCC voltage in the frame
# advanced by one sample of rotation, otherwise ~omega*Ts of the reactive
# power leaks into P_virt and winds the PV integrator.
_STEP = _BIND + """\
s = v_pcc_s * i_s.conjugate()
p_meas, q_meas = s.real, s.imag
s = v_pcc_s * exp(-1j * (st.phi + ts_omega_1 * st.omega)) * st.i_ref0_prev.conjugate()
p_virt, q_virt = s.real, s.imag
p_bar = p_virt if sync_uses_virtual else p_meas
""" + _SYNC + """\
v_pcc = v_pcc_s * exp(-1j * phi)
q_bar = q_virt if qv_uses_virtual else q_meas
p_bar = p_virt if pv_uses_virtual else p_meas
""" + _VOLTAGE_REF + _AVC + _REVERSE_POWER + _MAGNITUDE_LIMIT.format(
    x="i_refr", y="i_ref", limit="i_max", mag="i_mag") + """\
rot = exp(1j * phi)
st.i_ref0_prev = i_ref0
i_ref_s = i_ref * rot
v_out = hold_rot * ((r_a * (i_ref_s - i_s) + 1j * l_f * i_ref_s + v_pcc_f * rot) + r_f * i_ref_s)
""" + _MAGNITUDE_LIMIT.format(x="v_out", y="v_out", limit="v_out_max", mag="v_mag") + """\
return new(ControllerOutputs, (v_out, p_meas, q_meas, p_virt, q_virt, v_ref, omega, phi,
                               i_ref0, i_ref, i_refr is not i_ref0, i_mag > i_max))
"""

# The texts' globals: C builtins and constants only.
_NAMESPACE = {"exp": cmath.exp, "remainder": math.remainder, "tau": math.tau, "pi": math.pi,
              "isinf": math.isinf, "float_min": sys.float_info.min, "new": tuple.__new__,
              "ControllerOutputs": ControllerOutputs}


def _rule(qualname: str, args: str, body: str, doc: str):
    """The function qualname(args) of the text body, compiled as <owfsim qualname>."""
    name = qualname.rpartition(".")[2]
    function = compile_function(f"<owfsim {qualname}>", name, args, body, _NAMESPACE)()
    function.__qualname__, function.__doc__ = qualname, doc
    return function


TustinLowPass.step = _rule(
    "TustinLowPass.step", "self, u", _TUSTIN.format(f="self", u="u", y="y") + "return y",
    "One sample: the output for the input u.")

limit_reverse_power = _rule(
    "limit_reverse_power", "i_ref0, v_pcc_f, p_min, v_floor", _REVERSE_POWER + "return i_refr",
    "Project the current reference so Re{v i*} >= p_min, preserving Im{v i*}; "
    "i_ref0 itself when the limit is disabled (p_min None) or bypassed.")
limit_reverse_power.__defaults__ = (ControllerParams.v_proj_floor,)

limit_current_magnitude = _rule(
    "limit_current_magnitude", "i_refr, i_max",
    _MAGNITUDE_LIMIT.format(x="i_refr", y="i_ref", limit="i_max", mag="mag") + "return i_ref",
    "Angle-preserving scaling onto the |i| <= i_max disc.")


class Controller:
    """One string controller instance: a self-contained state machine that
    step() advances by one sample through the three loop steps; instances
    share nothing."""

    def __init__(self, ts: float, params: ControllerParams | None = None,
                 feedback: FeedbackConfig | None = None):
        self.params = replace(params) if params is not None else ControllerParams()
        check(self.params)
        self.cfg = feedback if feedback is not None else FeedbackConfig()
        p = self.params
        self.state = ControllerState()
        self.q_filter = TustinLowPass(p.alpha_q * p.omega_1, ts)
        self.p_filter = TustinLowPass(p.alpha_p * p.omega_1, ts)
        self.vpcc_filter = TustinLowPass(p.alpha_f * p.omega_1, ts)
        # The names of _BIND, in its order.
        self.constants = (*(value(p, ts) for value in _CONSTANTS.values()),
                          *(getattr(self.cfg, name) for name in _SWITCHES))

    def initialize(self, v_pcc_s: SpaceVector) -> None:
        """Preload the PCC voltage filter with the measurement at enable time,
        preventing a spurious inrush at controller enable."""
        v_pcc = to_dq(v_pcc_s, self.state.phi)
        self.vpcc_filter.y = v_pcc
        self.vpcc_filter.u_prev = v_pcc

    sync_step = _rule("Controller.sync_step", "self, p_ref, p_bar", _BIND + _SYNC + "return phi, omega",
                      "Advance the power synchronization loop by one sample: (phi, omega).")
    voltage_ref_step = _rule(
        "Controller.voltage_ref_step", "self, v_ext, q_ref, q_bar, p_ref, p_bar",
        _BIND + _VOLTAGE_REF + "return v_ref",
        "One sample of the voltage magnitude reference generation: v_ref.")
    avc_step = _rule("Controller.avc_step", "self, p_ref, q_ref, v_ref, v_pcc",
                     _BIND + _AVC + "return i_ref0, v_pcc_f",
                     "One sample of the alternating voltage controller: (i_ref0, v_pcc_f).")
    step = _rule("Controller.step", "self, p_ref, q_ref, v_ext, v_pcc_s, i_s", _STEP,
                 "One sample of the chain in the module docstring: a ControllerOutputs.")
