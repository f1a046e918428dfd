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

Time bases: all gains are per unit.  Bandwidths (alpha_*) and the frequency
droop are per unit of the nominal frequency; the inertia constant H and the
PV integral gain are kept in SI seconds (see README).
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from typing import Annotated

from .plant import StringElectrical
from .schema import NonNegative, Positive, Range, check
from .spacevec import (
    OMEGA_BASE_50HZ,
    SpaceVector,
    complex_power,
    to_dq,
    wrap_angle,
)


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

    def step(self, u):
        self.y = self.a1 * self.y + self.b * (u + self.u_prev)
        self.u_prev = u
        return self.y


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


@dataclass
class ControllerOutputs:
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


def limit_reverse_power(i_ref0: SpaceVector, v_pcc_f: SpaceVector, p_min: float | None,
                        v_floor: float = ControllerParams.v_proj_floor) -> SpaceVector:
    """Project the current reference so Re{v i*} >= p_min, preserving Im{v i*}.

    Bypassed when the limit is disabled (p_min is None) or the voltage is too
    small for the projection to be defined: below v_floor, or so small that
    the projection's scale overflows.
    """
    if p_min is None:
        return i_ref0
    vsq = v_pcc_f.real * v_pcc_f.real + v_pcc_f.imag * v_pcc_f.imag
    # The projection divides by vsq; a floor below about 1.5e-154 squares to a subnormal or 0.0.
    if vsq < v_floor * v_floor or vsq < sys.float_info.min:
        return i_ref0
    p = (v_pcc_f * i_ref0.conjugate()).real
    excess = min(0.0, p - p_min)
    if excess == 0.0 or math.isinf(scale := excess / vsq):
        return i_ref0
    return i_ref0 - v_pcc_f * scale


def limit_current_magnitude(i_refr: SpaceVector, i_max: float) -> SpaceVector:
    """Angle-preserving scaling onto the |i| <= i_max disc."""
    mag = abs(i_refr)
    if mag <= i_max:
        return i_refr
    return i_refr * (i_max / mag)


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
        self._hold_rot = cmath.exp(1j * p.omega_1 * ts)
        # Products of the parameters and ts that every sample would otherwise
        # recompute.  Each is a parenthesised or left-associated subexpression
        # of the loop it serves, so using it leaves the arithmetic bit-identical.
        self.ts = ts
        self.d_c = p.td / p.m_virtual  # lead feedthrough of K_P(s)
        self.dp_gain = 1.0 - p.km * self.d_c
        self.two_h = 2.0 * p.inertia_h
        self.ts_omega_1 = ts * p.omega_1
        self.ts_avc_gain = ts * (p.alpha_a * p.omega_1 / p.r_a)

    def initialize(self, v_pcc_s: SpaceVector) -> None:
        """Preload the PCC voltage filter with the measurement at enable time,
        preventing a spurious inrush at controller enable."""
        v_pcc = to_dq(v_pcc_s, self.state.phi)
        self.vpcc_filter.y = v_pcc
        self.vpcc_filter.u_prev = v_pcc

    def sync_step(self, p_ref: float, p_bar: float) -> tuple[float, float]:
        """Advance the power synchronization loop by one sample (forward Euler).

        Realizes phi = (1/s)[w1 + K_P(s)(p_ref - p_bar)] with
        K_P(s) = (s Td + 1)/(s M + km); for Td = 0 this is the swing equation
        d(w_dev)/dt = (dP - km w_dev) / (2H) with phi' = w1 (1 + w_dev).
        Returns the updated (phi, omega).
        """
        st = self.state
        dp = p_ref - p_bar
        st.sync_state += (self.ts * (self.dp_gain * dp - self.params.km * st.sync_state)
                          / self.two_h)
        omega_dev = st.sync_state + self.d_c * dp
        st.omega = 1.0 + omega_dev
        st.phi = wrap_angle(st.phi + self.ts_omega_1 * st.omega)
        return st.phi, st.omega

    def voltage_ref_step(self, v_ext: float, q_ref: float, q_bar: float,
                         p_ref: float, p_bar: float) -> float:
        """One sample of the voltage magnitude reference generation.

        QV branch: proportional on the low-pass-filtered Q error.  PV branch: PI
        on the filtered P error, with conditional-integration anti-windup
        against the [0, v_ref_max] clamp.
        """
        p = self.params
        st = self.state
        e_q = q_ref - self.q_filter.step(q_bar)
        e_p = p_ref - self.p_filter.step(p_bar)
        v_raw = v_ext + p.k_qv * e_q + p.k_pv * e_p + st.pv_integrator
        v_ref = min(max(v_raw, 0.0), p.v_ref_max)
        winding_in = (v_raw > p.v_ref_max and e_p > 0.0) or (v_raw < 0.0 and e_p < 0.0)
        if not winding_in:
            st.pv_integrator += self.ts * p.k_pv_i * e_p
        return v_ref

    def avc_step(self, p_ref: float, q_ref: float, v_ref: float,
                 v_pcc: SpaceVector) -> tuple[SpaceVector, SpaceVector]:
        """One sample of the alternating voltage controller, in the dq frame.

        i_ref0 = (p_ref - j q_ref)/v_ref + (1/R_a)(1 + alpha_a/s)[v_ref - v_pcc_f]
        where v_ref is the real-axis target vector and v_pcc_f the filtered PCC
        voltage.  The division is guarded by v_ref_floor (black start begins at
        zero volts).  Returns (i_ref0, v_pcc_f).
        """
        p = self.params
        st = self.state
        v_pcc_f = self.vpcc_filter.step(v_pcc)
        err = complex(v_ref, 0.0) - v_pcc_f
        v_div = max(v_ref, p.v_ref_floor)
        i_ref0 = (complex(p_ref, -q_ref) / v_div
                  + err / p.r_a
                  + st.avc_integrator)
        st.avc_integrator += self.ts_avc_gain * err
        return i_ref0, v_pcc_f

    def step(self, p_ref: float, q_ref: float, v_ext: float,
             v_pcc_s: SpaceVector, i_s: SpaceVector) -> ControllerOutputs:
        """One sample of the chain in the module docstring: actuation plus logged signals."""
        p = self.params
        st = self.state

        p_meas, q_meas = complex_power(v_pcc_s, i_s)
        # The stored reference is one sample old; evaluate it against the PCC
        # voltage in the frame advanced by one sample of rotation, otherwise
        # ~omega*Ts of the reactive power leaks into P_virt and winds the PV
        # integrator.
        phi_pred = st.phi + self.ts_omega_1 * st.omega
        p_virt, q_virt = complex_power(to_dq(v_pcc_s, phi_pred), st.i_ref0_prev)
        p_sync = p_virt if self.cfg.sync_uses_virtual else p_meas
        p_pv = p_virt if self.cfg.pv_uses_virtual else p_meas
        q_qv = q_virt if self.cfg.qv_uses_virtual else q_meas

        phi, omega = self.sync_step(p_ref, p_sync)
        v_pcc = to_dq(v_pcc_s, phi)
        v_ref = self.voltage_ref_step(v_ext, q_ref, q_qv, p_ref, p_pv)
        i_ref0, v_pcc_f = self.avc_step(p_ref, q_ref, v_ref, v_pcc)

        i_refr = limit_reverse_power(i_ref0, v_pcc_f, p.p_min, p.v_proj_floor)
        lim_p = i_refr is not i_ref0
        i_ref = limit_current_magnitude(i_refr, p.i_max)
        lim_i = abs(i_refr) > p.i_max

        rot = cmath.exp(1j * phi)
        st.i_ref0_prev = i_ref0
        i_ref_s = i_ref * rot
        v_pcc_f_s = v_pcc_f * rot
        v_out = self._hold_rot * ((p.r_a * (i_ref_s - i_s) + 1j * p.l_f * i_ref_s + v_pcc_f_s)
                                  + p.r_f * i_ref_s)
        v_out = limit_current_magnitude(v_out, 0.5 * p.v_dc)

        return ControllerOutputs(
            v_ref_s=v_out, p=p_meas, q=q_meas, p_virt=p_virt, q_virt=q_virt,
            v_ref=v_ref, omega=omega, phi=phi, i_ref0=i_ref0, i_ref=i_ref,
            lim_p_active=lim_p, lim_i_active=lim_i,
        )
