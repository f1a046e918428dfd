"""Fixed-step simulation engine.

The plant is advanced with classical RK4 at a fine step; each string
controller executes on its own (coarser) sample grid with a one-sample
actuation delay, its output held constant between samples.  The RK4 step is
straight-line source generated once per state size, like the plant's
right-hand side (plant.py), and calls plant.derivatives four times.  The
horizon and each start-signal delay must be whole numbers of control
samples: a string whose signal is delayed by n samples reads, at sample step,
the reference at (step - n) * ts, and 0.0 before that.  A run is
strictly single-threaded and deterministic: identical inputs produce
bit-identical records.  Recorded columns accumulate in float64 buffers (8
bytes per value), which the returned record's arrays take over without a copy.

With SimConfig.energy_audit the run also closes a stored-energy balance: per
plant substep, the change of stored energy minus the trapezoid integral of the
net power flow adds to a residual that the record header reports.  The run
buffers the states of AUDIT_BLOCK control intervals and evaluates each block
in numpy through plant.power_flows and plant.stored_energy, adding the terms
in substep order; the audit only reads states, so the simulated columns are
the same with it on or off.

Numeric divergence (any state magnitude beyond 10^3 pu) ends the run with a
Diverged status and timestamp.  That is an expected, first-class outcome for
the deliberately unstable ablation scenarios, not a simulator failure.
"""
from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import plant as plant_mod
from .controller import Controller
from .record import STATUS_CONVERGED, STATUS_DIVERGED, STRING_COLUMNS, RunRecord, column_names
from .scenario import ScenarioSpec
from .spacevec import wrap_angle

DIVERGENCE_BOUND = 1e3  # pu

# Control intervals whose energy-audit terms are evaluated together.
AUDIT_BLOCK = 32


@dataclass
class SimConfig:
    dt_plant: float = 20e-6
    ts_control: float = 200e-6
    t_end: float | None = None   # defaults to the scenario horizon
    record_decimation: int = 2   # record every Nth control sample
    energy_audit: bool = False   # accumulate the stored-energy balance residual

    def validate(self) -> None:
        for name in ("dt_plant", "ts_control", "t_end"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:  # also catches NaN
                raise ValueError(f"{name} must be positive and finite, got {value}")
        samples(self.ts_control, self.dt_plant, "ts_control", unit="plant steps")
        if self.t_end is not None:
            samples(self.t_end, self.ts_control, "t_end")
        decimation = self.record_decimation
        if isinstance(decimation, bool) or not isinstance(decimation, int) or decimation < 1:
            raise ValueError(f"record_decimation must be an int >= 1, got {decimation!r}")


def samples(value: float, step: float, name: str, minimum: int = 1,
            unit: str = "control samples") -> int:
    """The whole number n >= minimum with value = n * step, to 1e-9 of a step.

    Otherwise a ValueError naming the field: an off-grid horizon or delay
    would be recorded in the header but a rounded one simulated.
    """
    ratio = value / step
    n = round(ratio)
    if abs(ratio - n) > 1e-9 or n < minimum:
        raise ValueError(f"{name} must be a whole number >= {minimum} of {unit} "
                         f"of {step} s, got {value}")
    return n


# The RK4 step is generated per state size: the entries unrolled and unpacked
# into locals, each stage's input built as one list display.  derivatives and
# clamp_state are looked up on the plant module at every step, not bound once,
# so a wrapper installed on plant.derivatives sees every evaluation.
_RK4_TEMPLATE = """\
def rk4(model, t, y, v_conv, h):
    deriv = plant_mod.derivatives
    hh = 0.5 * h
    t_mid = t + hh
    {y}, = y
    {a}, = deriv(model, t, y, v_conv)
    y2 = [{y2}]
    {b}, = deriv(model, t_mid, y2, v_conv)
    y3 = [{y3}]
    {c}, = deriv(model, t_mid, y3, v_conv)
    y4 = [{y4}]
    {d}, = deriv(model, t + h, y4, v_conv)
    h6 = h / 6.0
    y_new = [{y_new}]
    plant_mod.clamp_state(model, y_new)
    return y_new
"""


@functools.cache
def _rk4_kernel(size: int):
    """The compiled RK4 step for states of size entries."""
    # y_i, the state entries, must not collide with the stage inputs y2..y4.
    y, a, b, c, d = ([f"{p}_{i}" for i in range(size)] for p in "yabcd")

    def display(exprs):
        return "".join(f"\n        {e}," for e in exprs) + "\n    "

    source = _RK4_TEMPLATE.format(
        y=", ".join(y), a=", ".join(a), b=", ".join(b), c=", ".join(c), d=", ".join(d),
        y2=display(f"{yi} + hh * {ki}" for yi, ki in zip(y, a)),
        y3=display(f"{yi} + hh * {ki}" for yi, ki in zip(y, b)),
        y4=display(f"{yi} + h * {ki}" for yi, ki in zip(y, c)),
        y_new=display(f"{yi} + h6 * ({ai} + 2.0 * ({bi} + {ci}) + {di})"
                      for yi, ai, bi, ci, di in zip(y, a, b, c, d)))
    return plant_mod.compile_kernel(f"<owfsim kernel rk4 size={size}>", source,
                                    {"plant_mod": plant_mod})["rk4"]


def _rk4_step(model, t, y, v_conv, h):
    """One classical RK4 step of the plant, then the diode clamp."""
    return _rk4_kernel(len(y))(model, t, y, v_conv, h)


def _diverged(y, controllers) -> bool:
    for v in y:
        if not (abs(v) < DIVERGENCE_BOUND):  # also catches NaN
            return True
    for c in controllers:
        st = c.state
        if not (abs(st.pv_integrator) < DIVERGENCE_BOUND
                and abs(st.avc_integrator) < DIVERGENCE_BOUND
                and abs(st.omega) < DIVERGENCE_BOUND):
            return True
    return False


class _EnergyAudit:
    """The stored-energy balance of a run, evaluated once per block of intervals.

    Over each plant substep, the change of stored energy minus the trapezoid
    integral of the net power flow (p_in - p_dissipated - p_exported) is one
    term of a running residual.  The run buffers each control interval's start
    time, held v_conv, start state and the end state of each substep; every
    AUDIT_BLOCK intervals, and once when the run ends (also by divergence),
    evaluate() computes the terms of the buffered points in numpy and adds
    them in substep order, so the sum is the one a per-substep loop would form.
    """

    def __init__(self, model, y0, h, n_sub):
        self.model, self.h, self.n_sub = model, h, n_sub
        self.intervals = []  # (t, v_conv) per buffered control interval
        self.states = []     # per interval: start state, then each substep's end state
        self.e_prev = plant_mod.stored_energy(model, y0)
        self.residual = 0.0
        self.max_abs_residual = 0.0

    def evaluate(self) -> None:
        k = len(self.intervals)
        if not k:
            return
        model, h, n_sub = self.model, self.h, self.n_sub
        starts, v_convs = zip(*self.intervals)
        t0 = np.array(starts)
        t = np.empty((k, n_sub + 1))
        t[:, 0] = t0
        t[:, 1:] = (t0[:, None] + np.arange(n_sub) * h) + h  # t_sub + h, as the run forms it
        # Per string, a (k, 1) column of held phasors: one per interval.
        v_conv = list(np.array(v_convs).T[..., None])
        states = np.fromiter(self.states, complex, len(self.states))
        cols = list(np.moveaxis(states.reshape(k, n_sub + 1, -1), -1, 0))
        n_ac = model.i_voff + 1  # the real DC states follow v_off
        y = cols[:n_ac] + [c.real for c in cols[n_ac:]]
        p_in, p_diss, p_exp = plant_mod.power_flows(model, t, y, v_conv)
        bal = p_in - p_diss - p_exp
        e_end = plant_mod.stored_energy(model, [c[:, 1:] for c in y])
        e = np.concatenate(([self.e_prev], e_end.ravel()))
        terms = np.diff(e) - ((0.5 * h) * (bal[:, :-1] + bal[:, 1:])).ravel()
        # accumulate adds left to right, as the per-substep sum does.
        acc = np.add.accumulate(np.concatenate(([self.residual], terms)))
        # fmax skips NaN, as builtin max(max_so_far, nan) does.
        self.max_abs_residual = float(np.fmax.reduce(np.abs(acc), initial=self.max_abs_residual))
        self.e_prev = float(e[-1])
        self.residual = float(acc[-1])
        self.intervals.clear()
        self.states.clear()


def run(scenario: ScenarioSpec, config: SimConfig | None = None) -> RunRecord:
    """Simulate one scenario and return the sampled record."""
    cfg = config if config is not None else SimConfig()
    cfg.validate()
    scenario.validate()

    pp = scenario.plant
    n = pp.n_strings
    ts = cfg.ts_control
    t_end = cfg.t_end if cfg.t_end is not None else scenario.t_end
    n_ctrl = samples(t_end, ts, "t_end")
    n_sub = samples(ts, cfg.dt_plant, "ts_control", unit="plant steps")
    h = ts / n_sub
    w = pp.omega_base
    # Per string, the start-signal delays (v_ext, p_ref) in control samples.
    lags = [(samples(s.v_ramp_delay, ts, f"strings[{i}].v_ramp_delay", minimum=0),
             samples(s.p_ramp_delay, ts, f"strings[{i}].p_ramp_delay", minimum=0))
            for i, s in enumerate(scenario.strings)]

    controllers = [Controller(ts, scenario.controller, s.feedback) for s in scenario.strings]

    model = plant_mod.PlantModel(pp)
    y = plant_mod.initial_state(pp)
    v_conv = [0j] * n
    for k, c in enumerate(controllers):
        c.initialize(y[3 * k + 1])

    names = column_names(n)
    data = {name: array("d") for name in names}
    # Per string, the columns in the order the loop below fills them.
    string_cols = [tuple(data[f"{c}_{k}"] for c in STRING_COLUMNS)
                   for k in range(1, n + 1)]
    t_col = data["t"]
    dc_cols = (data["v_on"], data["v_dc_off"], data["i_dc"])
    stiff = pp.stiff_bus_voltage is not None
    status = STATUS_CONVERGED
    diverged_at = None

    audit = _EnergyAudit(model, y, h, n_sub) if cfg.energy_audit else None

    for step in range(n_ctrl + 1):
        t = step * ts

        if _diverged(y, controllers):
            status = STATUS_DIVERGED
            diverged_at = t
            break

        outs = []
        for k, (c, (n_v, n_p)) in enumerate(zip(controllers, lags)):
            # (step - n) * ts is the instant the delayed value was computed at.
            v_ext = scenario.v_ext.value((step - n_v) * ts) if step >= n_v else 0.0
            p_ref = scenario.p_ref.value((step - n_p) * ts) if step >= n_p else 0.0
            outs.append(c.step(p_ref, scenario.q_ref, v_ext,
                               y[3 * k + 1], y[3 * k]))

        if step % cfg.record_decimation == 0:
            t_col.append(t)
            for k, (o, cols) in enumerate(zip(outs, string_cols)):
                values = (abs(y[3 * k + 1]), o.p, o.q, o.p_virt, o.q_virt,
                          abs(y[3 * k]), abs(o.i_ref0), o.omega, o.v_ref,
                          wrap_angle(o.phi - w * t),
                          1.0 if o.lim_p_active else 0.0,
                          1.0 if o.lim_i_active else 0.0)
                for col, v in zip(cols, values):
                    col.append(v)
            dc = (0.0, 0.0, 0.0) if stiff else (y[3 * n + 3], y[3 * n + 1], y[3 * n + 2])
            for col, v in zip(dc_cols, dc):
                col.append(v)

        if step == n_ctrl:
            break

        # One-sample actuation delay: the plant over [t, t+ts) is driven by
        # the outputs computed at the previous control instant, rotating at
        # nominal frequency within the hold interval (see plant.derivatives).
        if audit is not None:
            audit.intervals.append((t, v_conv))
            audit.states.extend(y)
        for sub in range(n_sub):
            y = _rk4_step(model, t + sub * h, y, v_conv, h)
            if audit is not None:
                audit.states.extend(y)
        if audit is not None and len(audit.intervals) == AUDIT_BLOCK:
            audit.evaluate()
        # v_ref_s is the stationary-frame vector intended at the start of its
        # application interval (t + ts); de-rotate to the t = 0 reference used
        # by plant.derivatives.
        derot = complex(math.cos(w * (t + ts)), -math.sin(w * (t + ts)))
        v_conv = [o.v_ref_s * derot for o in outs]

    header = {
        "scenario": {**scenario.to_dict(), "n_strings": n},
        "sim": {"dt_plant": cfg.dt_plant, "ts_control": ts, "t_end": t_end,
                "record_decimation": cfg.record_decimation},
        "bases": {"omega_base": w, "n_wt": list(pp.n_wt),
                  "note": "string base = 18 MVA x n_wt; farm base = sum of strings"},
    }
    if audit is not None:
        audit.evaluate()
        header["energy_audit"] = {"final_residual": audit.residual,
                                  "max_abs_residual": audit.max_abs_residual}

    # Zero-copy: from here on the arrays own the buffers, which must not grow.
    columns = {name: np.frombuffer(col, dtype=float) for name, col in data.items()}
    return RunRecord(header=header, columns=columns, status=status,
                     diverged_at=diverged_at)
