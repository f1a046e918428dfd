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

The state is a flat Python list, complex apart from the real DC_STATES, in
the order state_names(n) gives: the one statement of that order.  Every
reader, the generated kernels included, takes a state by its name, so a
permuted order gives the same records.  A run builds one PlantModel from the
user-facing PlantParams: its own copy of them, the one source of every
constant, and only what the equations derive from them.

The right-hand side and the two forms of the RK4 step are generated per plant
structure (number of strings, stiff bus or not) by one generator from one
statement of each equation: straight-line source, compiled once by
spacevec.compile_function, which registers it in linecache, so tracebacks
show it.  The equations are stated on float pairs: each complex state is
unpacked into a (re, im) pair of float locals, and the equations multiply by
the constants w / l_f, w / c_pcc, w / cable_l, w / c_bus, w / l_dc,
1 / r_comm, 1 / c_off and 1 / c_on, each divided once per run.  They call no Python function but cos, sin and
math.hypot: the onshore regulator's rule, the one text onshore_source is
compiled from, runs inline.  Each derivative is stated as a coefficient cell
and an expression, the derivative their product, but for d_idc and d_xon,
which the bus text forms itself.  The right-hand side multiplies them out.
rk4(model, h, n_sub) binds the interval kernel, which runs n_sub RK4 steps in
one call, each of its four stages running the right-hand side's own text on
the components' own names and keeping each expression bare: the stage inputs
and the update multiply it by hh, h or h6 times its coefficient, cells rk4
forms once per run.  Once a wrapper has replaced plant.derivatives, rk4 binds
the staged kernel instead: the interval kernel's own text plus one call of
plant.derivatives per stage, at the stage's time and on its state, whose
result is not used, so the wrapper sees every evaluation and the two give the
same bits by construction.  Either unpacks the state list once per call,
packs the end state once, applies the diode clamp after every step and, given
a sink, appends the float64 bytes of the interval's end point once per call
(its time, the held sources and the state), which the energy audit reads.  A
model binds its constants (model.cells), and rk4 the step's coefficients, as
closure cells once per run; no value is ever written into the source.  The
rotation exp(j w t) is (cos(w t), sin(w t)), and each string's source is
rotated once with it.
"""
from __future__ import annotations

import copy
import functools
import math
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .schema import NonNegative, Positive, PositiveInt, check
from .spacevec import OMEGA_BASE_50HZ, compile_function


@dataclass
class StringElectrical:
    """Per-string circuit parameters, on the string's own base."""

    l_f: Positive = 0.18     # transformer stray inductance (pu)
    r_f: float = 0.01        # transformer resistance (pu)
    c_pcc: Positive = 0.05   # PCC shunt: WT filter bank + near cable half (pu)
    # Series impedance of the aggregated collector cable plus string
    # switchgear.  The resistive part is deliberately on the high side of the
    # plausible range: it damps the inter-string swing mode that is otherwise
    # only marginally damped by the converter controls.
    cable_r: float = 0.04    # collector cable series resistance (pu)
    cable_l: Positive = 0.04  # collector cable series inductance (pu)
    cable_c: Positive = 0.02  # collector cable far-end shunt (pu)


@dataclass
class DruModel:
    """Averaged 24-pulse diode rectifier unit."""

    # AC magnitude to no-load DC voltage gain.  Chosen so conduction starts
    # when the bus reaches 0.8 pu at rated DC voltage: exporting therefore
    # never requires more converter voltage than the modulation limit allows,
    # and the no-load bus voltage has a unique, load-coupled equilibrium.
    k_dru: float = 1.25
    r_comm: Positive = 0.05  # commutation-equivalent (lossless) resistance (pu)
    kappa_q: float = 0.4     # reactive consumption ratio Q/P
    v_floor: float = 0.05    # AC voltage magnitude guard for the sink current


@dataclass
class HvdcLink:
    c_off: Positive = 0.002  # offshore DC capacitor (pu-seconds)
    r_dc: float = 0.01       # DC cable resistance (pu)
    l_dc: Positive = 0.1     # DC cable inductance (pu)
    c_on: Positive = 0.002   # onshore DC capacitor (pu-seconds)


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
    n_wt: list[PositiveInt] = field(default_factory=lambda: [36, 38])
    dru: DruModel = field(default_factory=DruModel)
    link: HvdcLink = field(default_factory=HvdcLink)
    onshore: OnshoreSource = field(default_factory=OnshoreSource)
    comp_cap: NonNegative = 0.1    # offshore bus compensation capacitor (farm pu)
    comp_cap_enabled: bool = True
    omega_base: Positive = OMEGA_BASE_50HZ
    # When set, the offshore bus is replaced by a stiff voltage of this
    # magnitude rotating at omega_base; DRU and DC side are inert.
    stiff_bus_voltage: float | None = None

    def _rules(self) -> None:
        if len(self.strings) != len(self.n_wt) or not self.strings:
            raise ValueError("strings and n_wt must have equal, nonzero length")

    @property
    def n_strings(self) -> int:
        return len(self.strings)

    @property
    def s_frac(self) -> list[float]:
        """Per-string share of the farm base (turbine ratings cancel), divided as integers."""
        total = sum(self.n_wt)
        return [n / total for n in self.n_wt]

    @property
    def c_bus(self) -> float:
        """Total offshore bus capacitance on the farm base."""
        c = self.comp_cap if self.comp_cap_enabled else 0.0
        for s, f in zip(self.strings, self.s_frac):
            c += s.cable_c * f
        return c


# Per string k, counted from 1 like the record's columns, the complex states on
# the string base; then v_off (complex, farm base) and the real DC states.
_STRING_STATES = ("i_conv", "v_pcc", "i_cable")
DC_STATES = ("v_dc_off", "i_dc", "v_on", "x_on", "i_ff")
_BUS_STATES = ("v_off", *DC_STATES)


def state_names(n: int) -> list[str]:
    """The states of an n-string plant by name, in state order: its one statement."""
    names = [f"{s}_{k}" for k in range(1, n + 1) for s in _STRING_STATES]
    return names + list(_BUS_STATES)


def initial_state(params: PlantParams) -> list:
    names = state_names(params.n_strings)
    y: list = [0.0 if name in DC_STATES else 0j for name in names]
    if params.stiff_bus_voltage is not None:
        # The stiff-bus harness starts pre-energized at the bus voltage
        # (zero branch currents); energizing against an already-live bus is
        # not what that mode is for and only produces a meaningless inrush.
        for i, name in enumerate(names):
            if name == "v_off" or name.startswith("v_pcc_"):
                y[i] = complex(params.stiff_bus_voltage, 0.0)
    return y


def onshore_gains(params: PlantParams) -> tuple[float, float]:
    """(kp, ki) placing the v_on regulation at the configured bandwidth."""
    wb = params.onshore.omega_bw
    kp = wb * params.link.c_on
    ki = 0.25 * wb * kp
    return kp, ki


class PlantModel:
    """The plant equations of one run: params, the model's own deep copy of the
    PlantParams (a later change to the caller's does not reach the model and
    every formula reads this copy), and what derives from it: index (the offset
    of each of state_names), onshore_source(v_on, x_on, i_ff) -> (i_src, d
    x_on/dt) (_ONSHORE compiled alone), cells (the closure cells of its kernels,
    by name: string k's _STRING_CONSTANTS from params.strings, params.s_frac and
    omega_base, then a live bus's _LIVE_BUS_CONSTANTS, the onshore regulator's
    among them) and rhs, the generated right-hand side."""

    __slots__ = ("params", "index", "onshore_source", "cells", "rhs")

    def __init__(self, params: PlantParams):
        check(params)
        self.params = p = copy.deepcopy(params)
        n, w = p.n_strings, p.omega_base
        self.index = {name: i for i, name in enumerate(state_names(n))}
        bus = {c: value(p, w) for c, value in _LIVE_BUS_CONSTANTS.items()}
        self.onshore_source = _make_onshore_source(**bus)
        stiff = p.stiff_bus_voltage is not None
        cells = {f"{c}_{k}": value(s, f, w)
                 for k, (s, f) in enumerate(zip(p.strings, p.s_frac), 1)
                 for c, value in _STRING_CONSTANTS.items()}
        if stiff:
            cells["stiff_bus_voltage"] = p.stiff_bus_voltage
        else:
            cells.update(bus)
        self.cells = dict(w=w, **cells)
        self.rhs = _kernel(n, stiff, "rhs")(**self.cells)


# The onshore regulator at one point, the one statement of its rule: PI on the
# v_on error plus the current feedforward.  An absorb-only source clamps i_src at
# zero, and its integrator is frozen while the error would wind it further into
# the clamp (conditional integration).  A source allowed to energize is never
# clamped.  The kernels run this text inline; onshore_source is it compiled
# alone, and the energy audit calls it point by point.
_ONSHORE = """\
err = v_on - v_ref
i_src = kp * err + x_on + (i_ff if feedforward else 0.0)
d_xon = ki * err
if not energize_allowed:
    if i_src < 0.0 and err < 0.0:
        i_src = d_xon = 0.0
    elif not i_src > 0.0:
        i_src = 0.0
"""

# DC side first: the rectifier sink current feeds the bus equation.  The
# commutation drop is lossless, so the rectifier's AC power is v_dc_off * i_rect,
# and the sink draws it with kappa_q of it as reactive power: the current
# -(g - j kappa_q g) * v_off, g that power over v_div**2.  |v_off| is math.hypot,
# CPython's own algorithm (the same bits on CPython 3.10 to 3.13), not abs() of
# a complex, the C library's hypot.
_LIVE_BUS = """\
v_mag = hypot(v_off_r, v_off_i)
i_rect = (k_dru * v_mag - v_dc_off) * inv_r_comm
if i_rect > 0.0:
    v_div = v_floor if v_floor > v_mag else v_mag
    g = v_dc_off * i_rect / (v_div * v_div)
    g_q = kappa_q * g
    i_bus_r = -(g * v_off_r + g_q * v_off_i)
    i_bus_i = -(g * v_off_i - g_q * v_off_r)
else:
    i_rect = 0.0  # the diodes block any reverse flow
    i_bus_r = i_bus_i = -0.0
""" + _ONSHORE + """\
d_idc = w_l_dc * (v_dc_off - r_dc * i_dc - v_on)
if i_dc <= 0.0 and d_idc < 0.0:
    d_idc = 0.0  # diode-enforced unidirectional cable current
"""
# The live bus's constants, each the cell <name>, from the plant p and
# omega_base w: the onshore regulator's gains, v_ref and flags, and the
# constants of the equations, which multiply by 1 / r_comm, 1 / c_off,
# 1 / c_on, w / l_dc and w / c_bus, each divided once per run.
_LIVE_BUS_CONSTANTS = {
    "kp": lambda p, w: onshore_gains(p)[0], "ki": lambda p, w: onshore_gains(p)[1],
    "v_ref": lambda p, w: p.onshore.v_ref, "feedforward": lambda p, w: p.onshore.feedforward,
    "energize_allowed": lambda p, w: p.onshore.energize_allowed,
    "k_dru": lambda p, w: p.dru.k_dru, "inv_r_comm": lambda p, w: 1.0 / p.dru.r_comm,
    "kappa_q": lambda p, w: p.dru.kappa_q, "v_floor": lambda p, w: p.dru.v_floor,
    "inv_c_off": lambda p, w: 1.0 / p.link.c_off, "r_dc": lambda p, w: p.link.r_dc,
    "w_l_dc": lambda p, w: w / p.link.l_dc, "inv_c_on": lambda p, w: 1.0 / p.link.c_on,
    "omega_bw": lambda p, w: p.onshore.omega_bw, "w_c_bus": lambda p, w: w / p.c_bus}
# The live bus's derivatives, each (coefficient, expression) as for a string
# below; d_idc and d_xon are formed in _LIVE_BUS itself, so they have none.
_LIVE_BUS_DERIVATIVES = {
    "v_off": ("w_c_bus", ("i_bus_r", "i_bus_i")),
    "v_dc_off": ("inv_c_off", "i_rect - i_dc"), "i_dc": (None, "d_idc"),
    "v_on": ("inv_c_on", "i_dc - i_src"), "x_on": (None, "d_xon"),
    "i_ff": ("omega_bw", "i_dc - i_ff")}

# The stiff bus is held: v_off and the inert DC states do not move.
_STIFF_BUS = "v_off_r = stiff_bus_voltage * rot_r\nv_off_i = stiff_bus_voltage * rot_i\n"
_STIFF_BUS_DERIVATIVES = {"v_off": (None, ("0.0", "0.0")),
                          **dict.fromkeys(DC_STATES, (None, "0.0"))}

# String k's constants, each the cell <name>_k, from its circuit s, its farm-base
# share f and omega_base w: the AC equations multiply by w / l_f, w / c_pcc and
# w / cable_l, each divided once per run.
_STRING_CONSTANTS = {
    "r_f": lambda s, f, w: s.r_f, "w_l_f": lambda s, f, w: w / s.l_f,
    "w_c_pcc": lambda s, f, w: w / s.c_pcc, "cable_r": lambda s, f, w: s.cable_r,
    "w_cable_l": lambda s, f, w: w / s.cable_l, "f": lambda s, f, w: f}

# Per string k, the derivative of each of its states as (coefficient, (real
# part, imaginary part)): the derivative is the coefficient cell times each
# expression.  The source v_conv_k exp(j w t) is (src_k_r, src_k_i), formed with
# the rotation.
_STRING_DERIVATIVES = {
    "i_conv": ("w_l_f_{k}", ("src_{k}_r - r_f_{k} * i_conv_{k}_r - v_pcc_{k}_r",
                             "src_{k}_i - r_f_{k} * i_conv_{k}_i - v_pcc_{k}_i")),
    "v_pcc": ("w_c_pcc_{k}", ("i_conv_{k}_r - i_cable_{k}_r", "i_conv_{k}_i - i_cable_{k}_i")),
    "i_cable": ("w_cable_l_{k}", ("v_pcc_{k}_r - cable_r_{k} * i_cable_{k}_r - v_off_r",
                                  "v_pcc_{k}_i - cable_r_{k} * i_cable_{k}_i - v_off_i"))}


_make_onshore_source = compile_function("<owfsim onshore_source>", "onshore_source",
                                        "v_on, x_on, i_ff", _ONSHORE + "return i_src, d_xon",
                                        {}, _LIVE_BUS_CONSTANTS)


def derivatives(model: PlantModel, t: float, y: list, v_conv: list) -> list:
    """Time derivative of the full plant state, in state order.

    v_conv holds the modulation-limited converter voltage of each string
    (string base) as a phasor referenced to t = 0: between control samples the
    modulator keeps rotating it at the nominal frequency, so the instantaneous
    source voltage is v_conv[k] * exp(j w t).  The equations are the model's
    generated rhs.  The RK4 kernels do not call it: a wrapper that replaces
    it observes the staged kernel's stages and does not change the dynamics.
    """
    return model.rhs(t, y, v_conv)


_OWN_DERIVATIVES = derivatives

_STEP_CELLS = ["h", "hh", "h6", "n_sub"]
_STAGE_TIMES = ("t_sub", "t_mid", "t_mid", "t_end")


def _derivative_table(n: int, stiff: bool) -> dict:
    """Each state of the n-string plant by name: (its coefficient cell, None if
    it has none, and its expression, a complex state's as (real, imaginary))."""
    dy = {f"{s}_{k}": (c.format(k=k), tuple(e.format(k=k) for e in pair))
          for k in range(1, n + 1) for s, (c, pair) in _STRING_DERIVATIVES.items()}
    dy.update(_STIFF_BUS_DERIVATIVES if stiff else _LIVE_BUS_DERIVATIVES)
    return dy


def _coefficients(n: int, stiff: bool) -> list:
    """The coefficient cells of the n-string plant's derivatives, each once."""
    return list(dict.fromkeys(c for c, _ in _derivative_table(n, stiff).values() if c))


# Every kernel is generated per plant structure (the number of strings, stiff
# bus or not) by _kernel, and compiled once by spacevec.compile_function: the
# string loop unrolled, each constant a closure cell of its _make (r_f_1 is
# string 1's r_f).  No value is formatted into the source.  The equations run
# on floats: a complex state x is the pair of locals x_r, x_i, a state in
# DC_STATES the local x; these are the state's components.
#   rhs       y's states unpacked into their components, the rotation, the
#             equations' body, and each state's derivative, its coefficient
#             times its expression, returned in state_names order (a complex
#             state's as complex(d_r, d_i)).
#   rk4       the interval kernel: n_sub classical RK4 steps of h from t,
#             v_conv held.  y is unpacked on entry, a component's value at a
#             step's start kept as y_<component>, and the end state packed on
#             return.  Stage s assigns its inputs to the components' own
#             names, forms the rotation (stages 2 and 3 share one), runs the
#             equations' body as rhs does and keeps each derivative's
#             expression, without its coefficient c, as k<s>_<component>; the
#             next stage's input and the update scale it by the cell
#             hh_<c>, h_<c> or h6_<c> (hh, h or h6 where there is no c).
#   staged    the rk4 text, plus in each stage, once its inputs are assigned,
#             one derivatives(model, stage time, stage state, v_conv) call,
#             derivatives looked up on this module once per call of the
#             kernel; its result is not used.
# After each step the step's kernels apply the diode clamp to i_dc.  After the
# last, given a sink bytearray, they append the interval's end point to it, one
# point per call: its time t_end as (t_end, 0.0), each held v_conv_k, then each
# state in state_names order, each as two float64s, (x, 0.0) for a DC state, so
# that the sink reads as complex128.
@functools.cache
def _kernel(n: int, stiff: bool, kind: str):
    """The compiled _make of the n-string kernel of kind "rhs", "rk4" or "staged"."""
    ks = range(1, n + 1)
    names = state_names(n)
    parts = {x: [x] if x in DC_STATES else [f"{x}_r", f"{x}_i"] for x in names}
    components = [c for x in names for c in parts[x]]
    read = [x for x in names if not (stiff and x in _BUS_STATES)]  # the equations' inputs
    constants = [f"{c}_{k}" for k in ks for c in _STRING_CONSTANTS]
    constants += ["stiff_bus_voltage"] if stiff else list(_LIVE_BUS_CONSTANTS)
    equations = _STIFF_BUS if stiff else _LIVE_BUS + "".join(
        f"i_bus_r += i_cable_{k}_r * f_{k}  # farm base\ni_bus_i += i_cable_{k}_i * f_{k}\n"
        for k in ks)
    coefficient, term = {}, {}  # each component's coefficient cell (or None) and expression
    for x, (c, e) in _derivative_table(n, stiff).items():
        for part, expr in zip(parts[x], (e,) if x in DC_STATES else e):
            coefficient[part], term[part] = c, expr

    def derivative(c):  # component c's derivative
        return term[c] if coefficient[c] is None else f"{coefficient[c]} * ({term[c]})"

    def scaled(step, c):  # the step coefficient step times component c's coefficient
        return step if coefficient[c] is None else f"{step}_{coefficient[c]}"

    def unpack(values, prefix="", states=names):
        """Lines binding prefix<component> to each component of the states of the list values."""
        text = ", ".join(prefix + x if x in states else "_" for x in names) + f", = {values}\n"
        return text + "".join(f"{prefix}{x}_r = {prefix}{x}.real\n"
                              f"{prefix}{x}_i = {prefix}{x}.imag\n"
                              for x in states if x not in DC_STATES)

    def pack(value):
        """The state list, each component c as value(c)."""
        return "[" + ", ".join(value(x) if x in DC_STATES else
                               f"complex({value(x + '_r')}, {value(x + '_i')})"
                               for x in names) + "]"

    def rotation(t):  # exp(j w t) and each string's source v_conv_k exp(j w t)
        return f"angle = w * {t}\nrot_r = cos(angle)\nrot_i = sin(angle)\n" + "".join(
            f"src_{k}_r = v_conv_{k}_r * rot_r - v_conv_{k}_i * rot_i\n"
            f"src_{k}_i = v_conv_{k}_r * rot_i + v_conv_{k}_i * rot_r\n" for k in ks)

    def stage_input(s, c):  # component c's input to stage s
        step = scaled("h" if s == 4 else "hh", c)
        return f"y_{c}" if s == 1 else f"y_{c} + {step} * k{s - 1}_{c}"

    sources = ", ".join(f"v_conv_{k}" for k in ks) + ", = v_conv\n" + "".join(
        f"v_conv_{k}_r, v_conv_{k}_i = v_conv_{k}.real, v_conv_{k}.imag\n" for k in ks)
    if kind == "rhs":
        cells, args = ["w", *constants], "t, y, v_conv"
        body = (sources + unpack("y", states=read) + rotation("t") + equations
                + "return " + pack(derivative) + "\n")
    else:
        args = "t, y, v_conv, sink=None"
        inputs = [c for x in read for c in parts[x]]
        steps = ""
        for s, t in enumerate(_STAGE_TIMES, 1):
            steps += "".join(f"{c} = {stage_input(s, c)}\n" for c in inputs)
            if kind == "staged":  # the observed call; its result is not used
                stage = pack(lambda c: c if c in inputs else stage_input(s, c))
                steps += f"deriv(model, {t}, {stage}, v_conv)\n"
            steps += ("" if s == 3 else rotation(t)) + equations
            steps += "".join(f"k{s}_{c} = {term[c]}\n" for c in components)
        steps += "".join(f"y_{c} = y_{c} + {scaled('h6', c)} * "
                         f"(k1_{c} + 2.0 * (k2_{c} + k3_{c}) + k4_{c})\n" for c in components)
        steps += "if y_i_dc < 0.0:\n    y_i_dc = 0.0  # the diodes block a reverse cable current\n"
        to_sink = ("if sink is not None:\n    sink += pack(t_end, 0.0, " + "".join(
            f"v_conv_{k}_r, v_conv_{k}_i, " for k in ks) + ", ".join(
            f"y_{x}, 0.0" if x in DC_STATES else f"y_{x}_r, y_{x}_i" for x in names) + ")\n")
        cells = [*_STEP_CELLS, "w", *constants,
                 *(f"{step}_{c}" for c in _coefficients(n, stiff) for step in ("hh", "h", "h6"))]
        head = sources
        if kind == "staged":
            cells, head = ["model", *cells], head + "deriv = plant_mod.derivatives\n"
        loop = "t_sub = t + sub * h\nt_mid = t_sub + hh\nt_end = t_sub + h\n" + steps
        body = (head + unpack("y", "y_") + "for sub in range(n_sub):\n"
                + "".join(f"    {line}\n" for line in loop.splitlines())
                + to_sink + "return " + pack(lambda c: f"y_{c}") + "\n")
    return compile_function(f"<owfsim kernel {kind} n={n}{' stiff' * stiff}>", kind, args, body, {
        "cos": math.cos, "sin": math.sin, "hypot": math.hypot,
        "pack": struct.Struct(f"{2 * (1 + n + len(names))}d").pack,
        "plant_mod": sys.modules[__name__]}, cells)


def rk4(model: PlantModel, h: float, n_sub: int = 1):
    """advance(t, y, v_conv, sink=None): the state at t + n_sub * h, from state y
    at t, by n_sub classical RK4 steps of h of model's plant (v_conv held), each
    followed by the diode clamp; a sink bytearray gains the interval's end
    point (time, held sources and state), as _kernel lays it out.  The
    interval kernel, or the staged one, which calls plant.derivatives once per
    stage and discards the result, if plant.derivatives is wrapped: the same
    text, so the same bits either way.  hh, h and h6 times each derivative's
    coefficient are formed here, once per run."""
    n, stiff = model.params.n_strings, model.params.stiff_bus_voltage is not None
    kind = "rk4" if derivatives is _OWN_DERIVATIVES else "staged"
    hh, h6 = 0.5 * h, h / 6.0
    cells = dict(model.cells, h=h, hh=hh, h6=h6, n_sub=n_sub)
    for c in _coefficients(n, stiff):  # each derivative's coefficient folded into the step's
        value = model.cells[c]
        cells.update({f"hh_{c}": hh * value, f"h_{c}": h * value, f"h6_{c}": h6 * value})
    if kind == "staged":
        cells["model"] = model
    return _kernel(n, stiff, kind)(**cells)


def stored_energy(model: PlantModel, y: list) -> float:
    """Total stored electrical energy, farm base, in pu-seconds.

    y is one state, or a block of states: one array per state entry (the DC
    entries real), each holding that entry at every point of the block.  The
    result is then an array of the same shape.
    """
    x, p = dict(zip(model.index, y)), model.params
    two_w, link = 2.0 * p.omega_base, p.link
    e = 0.0
    for k, (s, f) in enumerate(zip(p.strings, p.s_frac), 1):
        e_k = (s.l_f * abs(x[f"i_conv_{k}"]) ** 2 + s.cable_l * abs(x[f"i_cable_{k}"]) ** 2
               + s.c_pcc * abs(x[f"v_pcc_{k}"]) ** 2) / two_w
        e += e_k * f
    if p.stiff_bus_voltage is None:
        e += p.c_bus * abs(x["v_off"]) ** 2 / two_w
        e += 0.5 * link.c_off * x["v_dc_off"] ** 2
        e += 0.5 * link.c_on * x["v_on"] ** 2
        e += link.l_dc * x["i_dc"] ** 2 / two_w
    return e


def power_flows(model: PlantModel, t: float, y: list, v_conv: list) -> tuple[float, float, float]:
    """(p_in, p_dissipated, p_exported) on the farm base.

    p_in is the power injected by the converter sources, p_exported the power
    absorbed by the onshore current source.  The rectifier itself is lossless
    in this model, so together with the stored-energy derivative these close
    the balance.  Like stored_energy, this takes one point or a block of
    points: t, each entry of y and each v_conv[k] may then be arrays that
    broadcast to the block's shape, and so are the results.  The onshore
    source's current is model.onshore_source's, called once per point of
    v_on, x_on and i_ff, which must then share one shape.
    """
    x = dict(zip(model.index, y))
    p = model.params
    rot_t = np.cos(p.omega_base * t) + 1j * np.sin(p.omega_base * t)
    stiff = p.stiff_bus_voltage is not None
    v_off = p.stiff_bus_voltage * rot_t if stiff else None
    p_in = 0.0
    p_diss = 0.0
    p_exp = 0.0
    for k, (s, f, v_k) in enumerate(zip(p.strings, p.s_frac, v_conv), 1):
        i_c, i_cb = x[f"i_conv_{k}"], x[f"i_cable_{k}"]
        p_in += (v_k * rot_t * i_c.conjugate()).real * f
        p_diss += (s.r_f * abs(i_c) ** 2 + s.cable_r * abs(i_cb) ** 2) * f
        if stiff:  # the held bus exports what the cables deliver
            p_exp += (v_off * i_cb.conjugate()).real * f
    if not stiff:
        v_on = x["v_on"]
        p_diss += p.link.r_dc * x["i_dc"] ** 2
        i_src = [i for i, _ in map(model.onshore_source, *(
            np.ravel(x[name]).tolist() for name in ("v_on", "x_on", "i_ff")))]
        p_exp = v_on * np.reshape(i_src, np.shape(v_on))
    return p_in, p_diss, p_exp
