"""Workloads, checks and metrics of the owfsim benchmark (see run.py)."""
from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import owfsim.cli
import owfsim.scenario
import owfsim.sim
from owfsim.record import STATUS_DIVERGED, RunRecord

import calib
import seeded
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"  # span dumps of traced runs; scratch space of every run
SETUP_REPEATS = 5
SETUP_SLICES = 4  # calibration slices before set-up, which is too short for the timer


def simulated_s(record) -> float:
    if record.status == STATUS_DIVERGED:
        return record.diverged_at
    return record.header["sim"]["t_end"]


def plant_and_control_steps(record) -> tuple[int, int]:
    """RK4 steps and controller steps (all strings) that sim.run executes."""
    sim = record.header["sim"]
    ts = sim["ts_control"]
    n_sub = int(round(ts / sim["dt_plant"]))
    n = record.n_strings
    if record.status == STATUS_DIVERGED:
        d = int(round(record.diverged_at / ts))
        return d * n_sub, d * n
    n_ctrl = int(round(sim["t_end"] / ts))
    return n_ctrl * n_sub, (n_ctrl + 1) * n


class Op:
    """One operation's outcome: its checks, and what the metrics need.
    Durations are calibrated (see calib.py)."""

    def __init__(self, label: str):
        self.label = label
        self.errors: list[str] = []
        self.wall = math.nan
        self.speed = math.nan      # calibration factor applied to its durations
        self.sim_run_s = 0.0
        self.record = None         # simulated record, if the operation simulated
        self.traj_err = None
        self.audit_residual = None
        self.csv_rows = 0          # rows and bytes of the CSV record it wrote
        self.csv_bytes = 0

    def check(self, cond: bool, what: str) -> None:
        if not cond:
            self.errors.append(what)


class Workload:
    """Set-up, cycle of operations and checks of one workload."""

    presets: tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path, cal: calib.Calibrator):
        self.work = work
        self.cal = cal
        self.delay = seeded.delay_for(self.presets[0], seed)
        self.setup_ops: list[Op] = []  # simulations made during set-up
        self.digests: dict[str, str] = {}

    def make_documents(self) -> None:
        self.docs = {p: seeded.scenario(p, self.delay).to_json() for p in self.presets}

    def setup(self) -> float:
        """Generate the documents SETUP_REPEATS times; the median counts."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = self.cal.now()
            self.make_documents()
            times.append(self.cal.now() - t0)
        return statistics.median(times)

    def label(self, preset: str) -> str:
        return f"{preset}@{self.delay:.2f}"

    def ops(self):
        """(label, work) per operation of one cycle.  work() does the timed
        part and returns a function that checks its outputs into an Op."""
        for preset in self.presets:
            yield self.label(preset), self._op(preset)

    def check_record(self, op: Op, preset: str, record, metrics: dict) -> None:
        """Outcome, trajectory error and repeatability of one simulated record."""
        vpcc_end = [float(record.col("vpcc_mag", k)[-1]) for k in range(1, record.n_strings + 1)]
        op.check(seeded.outcome_ok(preset, metrics, vpcc_end), f"unexpected outcome {metrics}")
        if preset in seeded.CONVERGING:
            op.traj_err = seeded.traj_err(record, preset, self.delay)
            op.check(math.isfinite(op.traj_err), "record does not cover the reference")
        d = seeded.digest(record)
        op.check(self.digests.setdefault(op.label, d) == d, "record differs from the previous cycle")
        op.record = record
        csv = self.work / f"{preset}.csv"
        if csv.exists():
            op.csv_rows, op.csv_bytes = len(record.t), csv.stat().st_size


class BlackStart(Workload):
    """API path of cli._run_one with the energy audit on."""

    presets = ("blackstart-virtual", "blackstart-measured-droop")

    def _op(self, preset):
        def work():
            spec = owfsim.scenario.ScenarioSpec.from_json(self.docs[preset])
            record = owfsim.sim.run(spec, owfsim.sim.SimConfig(energy_audit=True))
            metrics = owfsim.scenario.compute_metrics(record)
            record.to_csv(self.work / f"{spec.name}.csv")

            def check(op: Op):
                self.check_record(op, preset, record, metrics.to_dict())
                op.audit_residual = record.header["energy_audit"]["max_abs_residual"]
                op.check(math.isfinite(op.audit_residual), "audit residual not finite")
            return check
        return work


class Ramp(Workload):
    """`owfsim run <doc.json> --out <dir>` through cli.main, audit off."""

    presets = ("ramp-pmin-virtual", "ramp-pmin-measured-pv")

    def make_documents(self) -> None:
        super().make_documents()
        self.paths = {}
        for preset, doc in self.docs.items():
            self.paths[preset] = self.work / f"{preset}.json"
            self.paths[preset].write_text(doc)

    def _op(self, preset):
        def work():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = owfsim.cli.main(["run", str(self.paths[preset]), "--out", str(self.work)])

            def check(op: Op):
                op.check(code == 0, f"owfsim run exited {code}")
                if code != 0:
                    return
                metrics = json.loads((self.work / f"{preset}.metrics.json").read_text())
                record = RunRecord.from_csv(self.work / f"{preset}.csv")
                self.check_record(op, preset, record, metrics)
            return check
        return work


class Records(Workload):
    """Write, read back and re-analyse one genuine black-start record."""

    presets = ("blackstart-virtual",)

    def setup(self) -> float:
        docs_s = super().setup()
        preset = self.presets[0]
        op = Op(f"{self.label(preset)} (set-up, decimation 1)")
        tracer = spans.Tracer(self.cal.now)
        t0 = self.cal.now()
        spec = owfsim.scenario.ScenarioSpec.from_json(self.docs[preset])
        with tracer:
            self.record = owfsim.sim.run(spec, owfsim.sim.SimConfig(record_decimation=1))
        metrics = owfsim.scenario.compute_metrics(self.record).to_dict()
        self.expected = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
        record_s = self.cal.now() - t0

        op.sim_run_s = sum(tracer.durations("sim.run"))
        self.check_record(op, preset, self.record, metrics)
        self.setup_ops.append(op)
        self.csv = self.work / f"{spec.name}.csv"
        return docs_s + record_s

    def ops(self):
        yield f"records:{self.label(self.presets[0])}", self._op

    def _op(self):
        self.record.to_csv(self.csv)
        back = RunRecord.from_csv(self.csv)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = owfsim.cli.main(["metrics", str(self.csv)])

        def check(op: Op):
            a, b = self.record, back
            op.check(a.header == b.header and a.status == b.status
                     and a.diverged_at == b.diverged_at and a.columns.keys() == b.columns.keys()
                     and all(a.columns[k].tobytes() == b.columns[k].tobytes() for k in a.columns),
                     "CSV round trip is not bit-exact")
            op.check(code == 0, f"owfsim metrics exited {code}")
            op.check(out.getvalue() == self.expected,
                     "owfsim metrics output differs from the in-memory metrics")
            op.csv_rows, op.csv_bytes = len(a.t), self.csv.stat().st_size
        return check


WORKLOADS = {"blackstart": BlackStart, "ramp": Ramp, "records": Records}


def run_op(cal: calib.Calibrator, tracer: spans.Tracer, label: str, work) -> Op:
    """Run one operation under calibration, then check it (untimed, untraced)."""
    op = Op(label)
    first = len(tracer.spans)
    check = None
    with cal.segment() as seg:
        with tracer, tracer.root(label) as root:
            try:
                check = work()
            except Exception:  # an operation that raises is a failed operation
                op.errors.append(traceback.format_exc(limit=3).strip())
    op.speed = seg.factor
    op.wall = (root.end - root.start) * seg.factor
    op.sim_run_s = seg.factor * sum(s.end - s.start for s in tracer.spans[first:]
                                    if s.name == "sim.run")
    if check is not None:
        try:
            check(op)
        except Exception:
            op.errors.append(traceback.format_exc(limit=3).strip())
    status = "ok" if not op.errors else "FAILED: " + "; ".join(op.errors)
    print(f"op {label}: {op.wall:.3f} s (speed factor {op.speed:.3f}) {status}", flush=True)
    return op


def timed_cycles(workload: Workload, tracer: spans.Tracer, seconds: float) -> list[list[Op]]:
    """Closed loop: run whole cycles until `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    cycles = []
    while not cycles or time.perf_counter() < deadline:
        cycles.append([run_op(workload.cal, tracer, label, work)
                       for label, work in workload.ops()])
    return cycles


def end_to_end(workload: Workload, cycles, setup_s: float) -> dict:
    ops = [op for c in cycles for op in c]
    simulated = [op for op in ops + workload.setup_ops if op.record is not None]
    errs = [op.traj_err for op in ops + workload.setup_ops if op.traj_err is not None]
    failed = sum(1 for op in ops if op.errors)
    return {
        "wall_s": (statistics.median(sum(op.wall for op in c) for c in cycles), "s"),
        "sim_rate": (sum(simulated_s(op.record) for op in simulated)
                     / sum(op.sim_run_s for op in simulated), "s/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "traj_err": (max(errs, default=math.inf), "pu"),
        "ops_ok": (1.0 - failed / len(ops), "fraction"),
    }


def per_layer(tracer: spans.Tracer, cycles, speed: float,
              overhead: float) -> tuple[dict, list[str]]:
    """Per-cycle layer metrics of the traced phase, and the count mismatches."""
    n = len(cycles)
    tot = tracer.layer_totals()

    def get(name, key):
        return tot.get(name, {}).get(key, 0)

    def secs(name, key="s"):
        return speed * get(name, key) / n

    ops = [op for c in cycles for op in c]
    records = [op.record for op in ops if op.record is not None]
    sim_s = sum(simulated_s(r) for r in records) / n
    rhs_calls = get("plant.rhs", "calls")
    steps = get("controller.step", "calls")
    audits = [op.audit_residual for op in ops if op.audit_residual is not None]
    metrics = {
        "plant.rhs_calls": (rhs_calls / n, "count"),
        "plant.rhs_s": (secs("plant.rhs"), "s"),
        "plant.rhs_us": (1e6 * secs("plant.rhs") * n / max(1, rhs_calls), "us"),
        "plant.audit_calls": (get("plant.audit", "calls") / n, "count"),
        "plant.audit_s": (secs("plant.audit"), "s"),
        "plant.audit_residual": (max(audits, default=0.0), "pu.s"),
        "sim.run_s": (secs("sim.run"), "s"),
        "sim.self_s": (secs("sim.run", "self_s"), "s"),
        "sim.sim_s": (sim_s, "s"),
        "sim.rhs_per_sim_s": (rhs_calls / n / sim_s if sim_s else 0.0, "1/s"),
        "controller.steps": (steps / n, "count"),
        "controller.step_s": (secs("controller.step"), "s"),
        "controller.step_us": (1e6 * secs("controller.step") * n / max(1, steps), "us"),
        "record.rows": (sum(op.csv_rows for op in ops) / n, "count"),
        "record.bytes": (sum(op.csv_bytes for op in ops) / n, "B"),
        "record.write_s": (secs("record.write"), "s"),
        "record.read_s": (secs("record.read"), "s"),
        "scenario.load_s": (secs("scenario.load"), "s"),
        "scenario.metrics_s": (secs("scenario.metrics"), "s"),
        "scenario.los_s": (secs("scenario.los"), "s"),
        "cli.self_s": (secs("cli.main", "self_s"), "s"),
        "trace.overhead": (overhead, "ratio"),
    }

    problems = []
    want_rhs = want_steps = 0
    for r in records:
        plant_steps, ctrl_steps = plant_and_control_steps(r)
        want_rhs += 4 * plant_steps
        want_steps += ctrl_steps
    if rhs_calls != want_rhs:
        problems.append(f"plant.rhs calls {rhs_calls} != 4 x plant steps {want_rhs}")
    if steps != want_steps:
        problems.append(f"controller.step calls {steps} != (samples + 1) x strings {want_steps}")
    if records:
        dt_plant = records[0].header["sim"]["dt_plant"]
        if abs(metrics["sim.rhs_per_sim_s"][0] * dt_plant / 4.0 - 1.0) > 1e-9:
            problems.append(f"sim.rhs_per_sim_s {metrics['sim.rhs_per_sim_s'][0]} != 4 / dt_plant")
    return metrics, problems


def print_table(ops: list[Op]) -> None:
    """Per-preset sim.run time in the form of ROADMAP's baseline table."""
    rows: dict[str, list[Op]] = {}
    for op in ops:
        if op.record is not None:
            rows.setdefault(op.label, []).append(op)
    print("| preset | sim horizon | wall | sim s / wall s |")
    print("|---|---|---|---|")
    for label, runs in rows.items():
        horizon = simulated_s(runs[0].record)
        wall = statistics.median(op.sim_run_s for op in runs)
        print(f"| {label} | {horizon:.1f} s | {wall:.2f} s | {horizon / wall:.3f} |")


def main(args, import_s: float) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return run(args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, import_s: float) -> int:
    cal = calib.Calibrator()
    workload = WORKLOADS[args.workload](args.seed, work, cal)
    print(f"workload {args.workload}, seed {args.seed}, string-2 delay {workload.delay} s",
          flush=True)
    with cal.segment(SETUP_SLICES) as seg:
        setup_net = workload.setup()
    setup_s = (import_s + setup_net) * seg.factor
    for op in workload.setup_ops:
        op.speed = seg.factor
        op.sim_run_s *= seg.factor
    problems = [f"{op.label}: {e}" for op in workload.setup_ops for e in op.errors]

    if not args.trace:
        cycles = timed_cycles(workload, spans.Tracer(cal.now), args.seconds)
        metrics = end_to_end(workload, cycles, setup_s)
        ops = [op for c in cycles for op in c]
    else:
        # Tracing cost: the first operation untraced, then traced whole cycles.
        plain = spans.Tracer(cal.now)
        label, work_fn = next(iter(workload.ops()))
        deadline = time.perf_counter() + args.seconds
        untraced = [run_op(cal, plain, label, work_fn)]
        while time.perf_counter() < deadline:
            untraced.append(run_op(cal, plain, label, work_fn))
        tracer = spans.Tracer(cal.now, spans.ALL_POINTS)
        first_slice = len(cal.slices)
        cycles = timed_cycles(workload, tracer, args.seconds)
        speed = calib.REF_SLICE_S / statistics.mean(cal.slices[first_slice:])
        overhead = (statistics.median(c[0].wall for c in cycles)
                    / statistics.median(op.wall for op in untraced) - 1.0)
        metrics, count_problems = per_layer(tracer, cycles, speed, overhead)
        problems += count_problems
        ops = untraced + [op for c in cycles for op in c]
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")

    failed = sum(1 for op in ops if op.errors)
    for label, d in workload.digests.items():
        print(f"digest {label} sha256:{d}")
    print_table(workload.setup_ops + ops)
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:.6g} {unit}")
    for p in problems:
        print(f"check failed: {p}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
