"""Averaged electrical model of the offshore network and the HVDC export link.

Topology, in per unit with SI time:

  per string: converter voltage source -> R_f + L_f -> PCC capacitor
              -> collector cable (series R, L with shunt halves)
  offshore bus: cable ends + switchable compensation capacitor + averaged
              24-pulse diode rectifier (AC sink)
  DC side:    rectifier EMF k_dru |v_off| behind a commutation-equivalent
              resistance -> offshore capacitor -> R-L cable -> onshore
              capacitor -> controlled current source regulating v_on

String quantities are on their own aggregation base; bus and DC quantities
on the farm base.  Rectifier, cable and link parameters are engineering
assumptions (documented in the README) since no authoritative values exist.

The state vector is a flat Python list (complex for AC, float for DC) to keep
the fixed-step integrator cheap.  PlantParams is the user-facing description;
a run builds one PlantModel from it, which holds every constant the equations
need (state offsets, per-string shares of the farm base, bus capacitance,
onshore gains, rectifier and link constants), so derivatives, stored_energy
and power_flows only look values up.  Each constant is computed exactly as the
expression it replaces, so the records do not change by a bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import cos, sin

import numpy as np

from .spacevec import OMEGA_BASE_50HZ


@dataclass
class StringElectrical:
    """Per-string circuit parameters, on the string's own base."""

    l_f: float = 0.18        # transformer stray inductance (pu)
    r_f: float = 0.01        # transformer resistance (pu)
    c_pcc: float = 0.05      # PCC shunt: WT filter bank + near cable half (pu)
    # Series impedance of the aggregated collector cable plus string
    # switchgear.  The resistive part is deliberately on the high side of the
    # plausible range: it damps the inter-string swing mode that is otherwise
    # only marginally damped by the converter controls.
    cable_r: float = 0.04    # collector cable series resistance (pu)
    cable_l: float = 0.04    # collector cable series inductance (pu)
    cable_c: float = 0.02    # collector cable far-end shunt (pu)

    def validate(self) -> None:
        if min(self.l_f, self.c_pcc, self.cable_l, self.cable_c) <= 0.0:
            raise ValueError("string inductances/capacitances must be positive")


@dataclass
class DruModel:
    """Averaged 24-pulse diode rectifier unit."""

    # AC magnitude to no-load DC voltage gain.  Chosen so conduction starts
    # when the bus reaches 0.8 pu at rated DC voltage: exporting therefore
    # never requires more converter voltage than the modulation limit allows,
    # and the no-load bus voltage has a unique, load-coupled equilibrium.
    k_dru: float = 1.25
    r_comm: float = 0.05     # commutation-equivalent (lossless) resistance (pu)
    kappa_q: float = 0.4     # reactive consumption ratio Q/P
    v_floor: float = 0.05    # AC voltage magnitude guard for the sink current


@dataclass
class HvdcLink:
    c_off: float = 0.002     # offshore DC capacitor (pu-seconds)
    r_dc: float = 0.01       # DC cable resistance (pu)
    l_dc: float = 0.1        # DC cable inductance (pu)
    c_on: float = 0.002      # onshore DC capacitor (pu-seconds)


@dataclass
class OnshoreSource:
    """Controlled current source regulating the onshore DC voltage.

    PI plus a current feedforward, both tuned to 25 Hz; when
    energize_allowed is false the source can only absorb (i_src >= 0),
    so the link can never be charged from shore.
    """

    bandwidth_hz: float = 25.0
    feedforward: bool = True
    energize_allowed: bool = False
    v_ref: float = 1.0

    @property
    def omega_bw(self) -> float:
        return 2.0 * math.pi * self.bandwidth_hz


@dataclass
class PlantParams:
    strings: list[StringElectrical] = field(default_factory=lambda: [StringElectrical(), StringElectrical()])
    n_wt: list[int] = field(default_factory=lambda: [36, 38])
    dru: DruModel = field(default_factory=DruModel)
    link: HvdcLink = field(default_factory=HvdcLink)
    onshore: OnshoreSource = field(default_factory=OnshoreSource)
    comp_cap: float = 0.1          # offshore bus compensation capacitor (farm pu)
    comp_cap_enabled: bool = True
    omega_base: float = OMEGA_BASE_50HZ
    # When set, the offshore bus is replaced by a stiff voltage of this
    # magnitude rotating at omega_base; DRU and DC side are inert.
    stiff_bus_voltage: float | None = None

    def validate(self) -> None:
        if len(self.strings) != len(self.n_wt) or not self.strings:
            raise ValueError("strings and n_wt must have equal, nonzero length")
        if min(self.n_wt) <= 0:
            raise ValueError("n_wt must be positive")
        for s in self.strings:
            s.validate()

    @property
    def n_strings(self) -> int:
        return len(self.strings)

    @property
    def s_frac(self) -> list[float]:
        """Per-string share of the farm base (turbine ratings cancel)."""
        total = float(sum(self.n_wt))
        return [n / total for n in self.n_wt]

    @property
    def c_bus(self) -> float:
        """Total offshore bus capacitance on the farm base."""
        c = self.comp_cap if self.comp_cap_enabled else 0.0
        for s, f in zip(self.strings, self.s_frac):
            c += s.cable_c * f
        return c


# State layout: [i_conv, v_pcc, i_cable] per string (complex, string base),
# then v_off (complex, farm base), then v_dc_off, i_dc, v_on, x_on, i_ff (float).
N_DC_STATES = 5


def initial_state(params: PlantParams) -> list:
    y: list = [0j] * (3 * params.n_strings + 1)
    y += [0.0] * N_DC_STATES
    if params.stiff_bus_voltage is not None:
        # The stiff-bus harness starts pre-energized at the bus voltage
        # (zero branch currents); energizing against an already-live bus is
        # not what that mode is for and only produces a meaningless inrush.
        for k in range(params.n_strings):
            y[3 * k + 1] = complex(params.stiff_bus_voltage, 0.0)
        y[3 * params.n_strings] = complex(params.stiff_bus_voltage, 0.0)
    return y


def onshore_gains(params: PlantParams) -> tuple[float, float]:
    """(kp, ki) placing the v_on regulation at the configured bandwidth."""
    wb = params.onshore.omega_bw
    kp = wb * params.link.c_on
    ki = 0.25 * wb * kp
    return kp, ki


class PlantModel:
    """The plant equations' constants, built once per run from PlantParams.

    Holds everything derivatives, clamp_state, stored_energy and power_flows
    would otherwise recompute or look up on every call: the state offsets,
    s_frac, c_bus, the onshore gains, the DRU and link constants and one
    (r_f, l_f, c_pcc, cable_r, cable_l, s_frac) tuple per string.  Every
    value is computed by the same operations, in the same order, as the
    expression it stands in for, so the equations give bit-identical results.
    The params are read once: changing them later does not change the model.
    """

    __slots__ = (
        "omega_base", "two_w", "stiff_bus_voltage",
        "i_voff", "i_idc", "s_frac", "c_bus", "strings",
        "k_dru", "r_comm", "kappa_q", "v_floor",
        "c_off", "r_dc", "l_dc", "c_on", "half_c_off", "half_c_on",
        "kp", "ki", "omega_bw", "v_ref", "feedforward", "energize_allowed",
    )

    def __init__(self, params: PlantParams):
        params.validate()
        n = params.n_strings
        self.omega_base = params.omega_base
        self.two_w = 2.0 * params.omega_base
        self.stiff_bus_voltage = params.stiff_bus_voltage
        self.i_voff = 3 * n        # v_off; the DC states follow it
        self.i_idc = 3 * n + 2     # i_dc, the diode-clamped cable current
        self.s_frac = tuple(params.s_frac)
        self.c_bus = params.c_bus
        self.strings = tuple((s.r_f, s.l_f, s.c_pcc, s.cable_r, s.cable_l, f)
                             for s, f in zip(params.strings, self.s_frac))
        dru, link, src = params.dru, params.link, params.onshore
        self.k_dru, self.r_comm = dru.k_dru, dru.r_comm
        self.kappa_q, self.v_floor = dru.kappa_q, dru.v_floor
        self.c_off, self.r_dc, self.l_dc, self.c_on = link.c_off, link.r_dc, link.l_dc, link.c_on
        self.half_c_off = 0.5 * link.c_off
        self.half_c_on = 0.5 * link.c_on
        self.kp, self.ki = onshore_gains(params)
        self.omega_bw = src.omega_bw
        self.v_ref = src.v_ref
        self.feedforward = src.feedforward
        self.energize_allowed = src.energize_allowed

    def onshore_source(self, v_on: float, x_on: float, i_ff: float) -> tuple[float, float]:
        """(i_src, d x_on/dt) of the onshore regulator.

        PI on the v_on error plus the current feedforward.  An absorb-only
        source clamps its output at zero; its integrator is then frozen while
        the error would wind it further into the clamp (conditional
        integration).  A source allowed to energize is never clamped.
        """
        err = v_on - self.v_ref
        i_raw = self.kp * err + x_on + (i_ff if self.feedforward else 0.0)
        if self.energize_allowed:
            return i_raw, self.ki * err
        if i_raw < 0.0 and err < 0.0:
            return 0.0, 0.0
        return (i_raw if i_raw > 0.0 else 0.0), self.ki * err


# The stiff bus is held: v_off and the inert DC states do not move.
_STIFF_BUS_TAIL = (0j,) + (0.0,) * N_DC_STATES


def derivatives(model: PlantModel, t: float, y: list, v_conv: list) -> list:
    """Time derivative of the full plant state, in state order.

    v_conv holds the modulation-limited converter voltage of each string
    (string base) as a phasor referenced to t = 0: between control samples the
    modulator keeps rotating it at the nominal frequency, so the instantaneous
    source voltage is v_conv[k] * exp(j w t).
    """
    w = model.omega_base
    rot_t = complex(cos(w * t), sin(w * t))
    stiff = model.stiff_bus_voltage

    # DC side first: the rectifier sink current feeds the bus equation.
    if stiff is None:
        i_voff = model.i_voff
        v_off = y[i_voff]
        v_dc_off, i_dc, v_on, x_on, i_ff = y[i_voff + 1:]
        # Rectifier current and AC sink; tests/test_plant.py keeps them as
        # separate reference functions.
        v_mag = abs(v_off)
        i_rect = (model.k_dru * v_mag - v_dc_off) / model.r_comm
        if i_rect > 0.0:
            p_ac = (model.k_dru * v_mag - model.r_comm * i_rect) * i_rect
            v_floor = model.v_floor
            v_div = v_floor if v_floor > v_mag else v_mag
            i_bus = -(complex(p_ac, -(model.kappa_q * p_ac)) * (v_off / (v_div * v_div)))
        else:
            i_rect = 0.0  # the diodes block any reverse flow
            i_bus = -0j
        i_src, d_xon = model.onshore_source(v_on, x_on, i_ff)
        d_idc = w * (v_dc_off - model.r_dc * i_dc - v_on) / model.l_dc
        if i_dc <= 0.0 and d_idc < 0.0:
            d_idc = 0.0  # diode-enforced unidirectional cable current
        dc = ((i_rect - i_dc) / model.c_off, d_idc, (i_dc - i_src) / model.c_on,
              d_xon, model.omega_bw * (i_dc - i_ff))
    else:
        v_off = stiff * rot_t

    dy = []
    j = 0
    for (r_f, l_f, c_pcc, cable_r, cable_l, f), v_k in zip(model.strings, v_conv):
        i_c = y[j]
        v_p = y[j + 1]
        i_cb = y[j + 2]
        j += 3
        dy += (w * (v_k * rot_t - r_f * i_c - v_p) / l_f,
               w * (i_c - i_cb) / c_pcc,
               w * (v_p - cable_r * i_cb - v_off) / cable_l)
        if stiff is None:
            i_bus += i_cb * f  # farm base

    if stiff is None:
        dy.append(w * i_bus / model.c_bus)
        dy += dc
    else:
        dy += _STIFF_BUS_TAIL
    return dy


def clamp_state(model: PlantModel, y: list) -> None:
    """Enforce the diode clamp after an accepted integration step."""
    if y[model.i_idc] < 0.0:
        y[model.i_idc] = 0.0


def stored_energy(model: PlantModel, y: list) -> float:
    """Total stored electrical energy, farm base, in pu-seconds.

    y is one state, or a block of states: one array per state entry (the DC
    entries real), each holding that entry at every point of the block.  The
    result is then an array of the same shape.
    """
    two_w = model.two_w
    e = 0.0
    j = 0
    for _r_f, l_f, c_pcc, _cable_r, cable_l, f in model.strings:
        i_c = y[j]
        v_p = y[j + 1]
        i_cb = y[j + 2]
        j += 3
        e_k = (l_f * abs(i_c) ** 2 + cable_l * abs(i_cb) ** 2
               + c_pcc * abs(v_p) ** 2) / two_w
        e += e_k * f
    if model.stiff_bus_voltage is None:
        v_off = y[j]
        v_dc_off, i_dc, v_on = y[j + 1], y[j + 2], y[j + 3]
        e += model.c_bus * abs(v_off) ** 2 / two_w
        e += model.half_c_off * v_dc_off ** 2
        e += model.half_c_on * v_on ** 2
        e += model.l_dc * i_dc ** 2 / two_w
    return e


def power_flows(model: PlantModel, t: float, y: list, v_conv: list) -> tuple[float, float, float]:
    """(p_in, p_dissipated, p_exported) on the farm base.

    p_in is the power injected by the converter sources, p_exported the power
    absorbed by the onshore current source.  The rectifier itself is lossless
    in this model, so together with the stored-energy derivative these close
    the balance.  Like stored_energy, this takes one point or a block of
    points: t, each entry of y and each v_conv[k] may then be arrays that
    broadcast to the block's shape, and so are the results.
    """
    w = model.omega_base
    rot_t = np.cos(w * t) + 1j * np.sin(w * t)
    p_in = 0.0
    p_diss = 0.0
    j = 0
    for (r_f, _l_f, _c_pcc, cable_r, _cable_l, f), v_k in zip(model.strings, v_conv):
        i_c = y[j]
        i_cb = y[j + 2]
        j += 3
        p_in += (v_k * rot_t * i_c.conjugate()).real * f
        p_diss += (r_f * abs(i_c) ** 2 + cable_r * abs(i_cb) ** 2) * f
    p_exp = 0.0
    if model.stiff_bus_voltage is None:
        v_dc_off, i_dc, v_on, x_on, i_ff = y[j + 1:]
        p_diss += model.r_dc * i_dc ** 2
        if np.ndim(v_on):
            # The regulator rule is scalar; apply it point by point.
            sources = map(model.onshore_source, v_on.ravel().tolist(),
                          x_on.ravel().tolist(), i_ff.ravel().tolist())
            i_src = np.fromiter((s[0] for s in sources), float, v_on.size).reshape(v_on.shape)
        else:
            i_src, _ = model.onshore_source(v_on, x_on, i_ff)
        p_exp = v_on * i_src
    else:
        v_off = model.stiff_bus_voltage * rot_t
        for k, f in enumerate(model.s_frac):
            p_exp += (v_off * y[3 * k + 2].conjugate()).real * f
    return p_in, p_diss, p_exp
