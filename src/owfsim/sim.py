"""Fixed-step simulation engine.

The plant is advanced with classical RK4 at a fine step; each string
controller executes on its own (coarser) sample grid with a one-sample
actuation delay, its output held constant between samples.  This module only
schedules: the state layout, the RK4 kernel and the diode clamp are
plant.py's; a run binds plant.rk4(model, h, n_sub) once, calls it once per
control interval to take that interval's n_sub substeps, and reads each state
by name at PlantModel.index.  That steps an interval with the interval
kernel, or, on a live bus in an interval that blocks the rectifier at every
stage input, with plant's interval map and dc kernel.  When a wrapper (a
tracer) has replaced plant.derivatives before the run, either path calls it
once per stage, whose result it does not use, so both give the same records,
bit for bit.
The horizon and each start-signal delay must be whole numbers of control
samples (SimConfig's sample-grid rule checks the horizon, run_grid each delay,
and the CLI calls run_grid for every target before the first run): a string
whose signal is delayed by n samples reads, at sample step, the reference at
(step - n) * ts, and 0.0 before that.  A run is strictly single-threaded and
deterministic: identical inputs produce bit-identical records, and the
header's scenario and sim (all of run_grid's SimConfig) re-run a record byte
for byte.  A run allocates its table once, one float64 row (8 bytes per
value) for each sample the horizon can record, and a recorder generated once
per run packs each recorded sample into its row, walking
record.column_names: the order stated in record.STRING_COLUMNS and
DC_COLUMNS and nowhere else, each per-string name's value the expression
STRING_COLUMNS maps it to.  The returned record's table is the rows recorded,
a view of that table with no copy, in the layout RunRecord.from_csv returns
too.  A stiff bus records its held +0.0 DC states.

With SimConfig.energy_audit the run also closes a stored-energy balance: per
control interval, the change of stored energy minus the trapezoid integral of
the net power flow over the interval adds to a residual that the record header
reports.  The trapezoid over a whole interval is the audit's quadrature error:
stable runs read 4.6e-6 to 6.5e-6 pu.s (3.9e-6 per plant substep).  A step
past RK4's stability bound reads 0.194 and 9.81e-2 on two unstable ramps, but
need not read high: criterion 9's black start at 100 us reads 1.00e-5, and
blackstart-virtual at 40 us 5.35e-6.  After each interval the run appends
its end point (its time, the held v_conv and the state) to the audit's flat
list; it buffers AUDIT_BLOCK control intervals and evaluates each block in
numpy through plant.stored_energy and plant.power_flows, which calls the
onshore regulator once per point, adding the terms in interval order.  The
audit only reads states, so the simulated columns are the same with it on or
off, and a run whose states overflow diverges as it does unaudited, a
residual that is not finite written as None (null in the CSV header).

Numeric divergence (any state magnitude beyond 10^3 pu) ends the run at the
record's diverged_at.  That is an expected, first-class outcome for the
deliberately unstable ablation scenarios, not a simulator failure.
"""
from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import plant as plant_mod
from . import record as record_mod
from .controller import Controller
from .record import RunRecord
from .scenario import ScenarioSpec
from .schema import Positive, PositiveInt, check, samples
from .spacevec import compile_function, wrap_angle

DIVERGENCE_BOUND = 1e3  # pu

# Control intervals whose energy-audit terms are evaluated together, one point
# each.  On a 1 s blackstart-virtual run on a shared 2-CPU VM, audit on over off
# (40 in-process rounds) read 1.032 at 128, 1.016 at 512 and 1.015 at 1024, but
# the peak RSS of both black-start presets audited in one process read 32.2 MiB
# at 128 against 32.8-32.9 at 1024, and the blackstart benchmark's was not lower
# at 1024 (0.3 MiB below 128's in one series of runs, 0.1-0.3 above in another).
AUDIT_BLOCK = 128


@dataclass
class SimConfig:
    dt_plant: Positive = 20e-6
    ts_control: Positive = 200e-6
    t_end: Positive | None = None       # defaults to the scenario horizon
    record_decimation: PositiveInt = 2  # record every Nth control sample
    energy_audit: bool = False          # accumulate the stored-energy balance residual

    def _rules(self) -> None:  # the sample grid
        samples(self.ts_control, self.dt_plant, "ts_control", unit="plant steps")
        if self.t_end is not None:
            samples(self.t_end, self.ts_control, "t_end")


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

    Over each control interval, the change of stored energy minus the
    trapezoid integral of the net power flow (p_in - p_dissipated -
    p_exported) is one term of a running residual.  The run appends each
    interval's end point to points, with its time and the held v_conv; an
    interval's start point is the previous end point (the run's initial
    point, t = 0 and initial_state, for the first) with the interval's own
    v_conv, and its length the difference of the two times.  Every AUDIT_BLOCK
    intervals, and once when the run ends (also by divergence), evaluate()
    computes the terms of the buffered intervals together and adds them in
    interval order, so the sum is the one a per-interval loop would form.
    """

    def __init__(self, model):
        self.model = model
        # Per interval its end point, flat: t_end, each v_conv_k, then the state.
        self.points = []
        # The last point evaluated, as one of points: t, each v_conv_k (unread: a
        # start point takes its interval's), the state.
        n = model.params.n_strings
        self.last = np.array([0.0] * (1 + n) + plant_mod.initial_state(model.params), complex)
        self.residual = 0.0
        self.max_abs_residual = 0.0

    def evaluate(self) -> None:
        if not self.points:
            return
        model, n = self.model, self.model.params.n_strings
        # The last point, then the block's.
        points = np.concatenate((self.last[None], np.array(self.points, complex).reshape(
            -1, len(self.last))))
        t, *cols = points.T
        t, states = t.real, cols[n:]
        y = [c.real if name in plant_mod.DC_STATES else c for name, c in zip(model.index, states)]
        # Each point under the v_conv of the interval it starts (row 0) and of the
        # one it ends (row 1, the point's own); the row-0 entry of the last point
        # and the row-1 entry of the first are not read.  p_diss and p_exp do not
        # depend on v_conv: the regulator runs once per point.
        v_conv = [np.stack((np.roll(c, -1), c)) for c in cols[:n]]
        # The audit only reads states: an overflow is the diverging run's, not the audit's.
        with np.errstate(over="ignore", invalid="ignore"):
            p_in, p_diss, p_exp = plant_mod.power_flows(model, t, y, v_conv)
            bal = p_in - p_diss - p_exp
            e = plant_mod.stored_energy(model, y)
            terms = np.diff(e) - 0.5 * np.diff(t) * (bal[0, :-1] + bal[1, 1:])
            # accumulate adds left to right, as the per-interval sum does.
            acc = np.add.accumulate(np.concatenate(([self.residual], terms)))
        # fmax skips NaN, as builtin max(max_so_far, nan) does.
        self.max_abs_residual = float(np.fmax.reduce(np.abs(acc), initial=self.max_abs_residual))
        self.residual = float(acc[-1])
        self.last = points[-1].copy()
        self.points.clear()


def recorder(n: int, w: float, index: dict, table: np.ndarray):
    """row(i, t, y, outs) writes row i of table, a C-ordered float64 array of
    len(column_names(n)) columns: the sample at t, from plant state y (index:
    each state's offset), the n controllers' outputs and omega_base w.  A DC
    column's value is its state, a string column's the expression that
    record.STRING_COLUMNS states for it."""
    names = record_mod.column_names(n)
    values = {"t": "t", **{c: f"y[{c}]" for c in record_mod.DC_COLUMNS}}
    values.update((f"{c}_{k}", e.format(k=k)) for k in range(1, n + 1)
                  for c, e in record_mod.STRING_COLUMNS.items())
    outs = ", ".join(f"o_{k}" for k in range(1, n + 1))
    packed = ", ".join(values[name] for name in names)
    body = f"{outs}, = outs\npack_into(table, i * {table.strides[0]}, {packed})"
    # w, the table and the state offsets are cells of row's _make.  The table
    # is not a global: the globals and _make form a cycle, which would hold the
    # table until the cyclic collector ran.
    return compile_function(f"<owfsim recorder n={n}>", "row", "i, t, y, outs", body, {
        "wrap_angle": wrap_angle, "pack_into": struct.Struct(f"{len(names)}d").pack_into},
        ("w", "table", *index))(w, table, **index)


def run_grid(scenario: ScenarioSpec, cfg: SimConfig) -> tuple[SimConfig, int, int, list]:
    """Every check run makes before it simulates, and the counts they give.

    Checks cfg, its horizon resolved to the scenario's where cfg sets none,
    and the scenario, then counts each string's start-signal delays (v_ext,
    p_ref) in control samples; a broken rule raises a ValueError naming its
    key path.  Returns (cfg, n_ctrl, n_sub, lags): that checked SimConfig,
    which the record header states whole, and each count the check found whole.
    """
    cfg = replace(cfg, t_end=cfg.t_end if cfg.t_end is not None else scenario.t_end)
    check(cfg)
    check(scenario)
    ts = cfg.ts_control
    n_ctrl, n_sub = round(cfg.t_end / ts), round(ts / cfg.dt_plant)
    lags = [(samples(s.v_ramp_delay, ts, f"strings[{i}].v_ramp_delay", minimum=0),
             samples(s.p_ramp_delay, ts, f"strings[{i}].p_ramp_delay", minimum=0))
            for i, s in enumerate(scenario.strings)]
    return cfg, n_ctrl, n_sub, lags


def run(scenario: ScenarioSpec, config: SimConfig | None = None) -> RunRecord:
    """Simulate one scenario and return the sampled record."""
    cfg, n_ctrl, n_sub, lags = run_grid(scenario, config if config is not None else SimConfig())

    pp = scenario.plant
    n = pp.n_strings
    ts = cfg.ts_control
    h = ts / n_sub
    w = pp.omega_base

    controllers = [Controller(ts, scenario.controller, s.feedback) for s in scenario.strings]

    model = plant_mod.PlantModel(pp)
    advance = plant_mod.rk4(model, h, n_sub)
    index = model.index
    # Per string: its controller, its start-signal lags and its PCC states' offsets.
    strings = [(c, n_v, n_p, index[f"v_pcc_{k}"], index[f"i_conv_{k}"])
               for k, (c, (n_v, n_p)) in enumerate(zip(controllers, lags), 1)]
    # One row per recordable sample: steps 0, d, 2d, ... up to n_ctrl, for decimation d.
    table = np.empty((n_ctrl // cfg.record_decimation + 1, len(record_mod.column_names(n))))
    row = recorder(n, w, index, table)
    recorded = 0
    y = plant_mod.initial_state(pp)
    v_conv = [0j] * n
    for c, _, _, i_v, _ in strings:
        c.initialize(y[i_v])

    diverged_at = None

    audit = _EnergyAudit(model) if cfg.energy_audit else None

    v_ext_at, p_ref_at, q_ref = scenario.v_ext.value, scenario.p_ref.value, scenario.q_ref
    for step in range(n_ctrl + 1):
        t = step * ts

        if _diverged(y, controllers):
            diverged_at = t
            break

        outs = []
        for c, n_v, n_p, i_v, i_c in strings:
            # (step - n) * ts is the instant the delayed value was computed at.
            v_ext = v_ext_at((step - n_v) * ts) if step >= n_v else 0.0
            p_ref = p_ref_at((step - n_p) * ts) if step >= n_p else 0.0
            outs.append(c.step(p_ref, q_ref, v_ext, y[i_v], y[i_c]))

        if step % cfg.record_decimation == 0:
            row(recorded, t, y, outs)
            recorded += 1

        if step == n_ctrl:
            break

        # One-sample actuation delay: the plant over [t, t+ts) is driven by
        # the outputs computed at the previous control instant, rotating at
        # nominal frequency within the hold interval (see plant.derivatives).
        y = advance(t, y, v_conv)
        if audit is not None:
            # The interval's end point, at its last substep's end time as the kernel forms it.
            audit.points += (t + (n_sub - 1) * h + h, *v_conv, *y)
            if step % AUDIT_BLOCK == AUDIT_BLOCK - 1:
                audit.evaluate()
        # v_ref_s is the stationary-frame vector intended at the start of its
        # application interval (t + ts); de-rotate to the t = 0 reference used
        # by plant.derivatives.
        derot = complex(math.cos(w * (t + ts)), -math.sin(w * (t + ts)))
        v_conv = [o.v_ref_s * derot for o in outs]

    header = {
        "scenario": scenario.to_dict(),
        "sim": asdict(cfg),
        "bases": {"note": "string base = 18 MVA x n_wt; farm base = sum of strings"},
    }
    if audit is not None:
        audit.evaluate()
        # A run that overflowed may leave no finite residual: null, as JSON has no NaN.
        header["energy_audit"] = {key: value if math.isfinite(value) else None for key, value in
                                  (("final_residual", audit.residual),
                                   ("max_abs_residual", audit.max_abs_residual))}

    return RunRecord(header, table[:recorded], diverged_at=diverged_at)
