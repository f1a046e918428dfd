"""Command-line front end.

Subcommands:
  run <preset|config.json> ...   simulate, write <name>.csv + <name>.metrics.json
                                 (each target and its file names checked, before any run)
  list-presets                   print the shipped scenario presets
  metrics <record.csv>           recompute metrics for an existing record

Exit codes: 0 = run completed and metrics computed (including runs that end in
an expected divergence), 1 = usage/configuration error, 2 = unexpected failure.
Metrics are written as standard JSON: a value that is not finite is null.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .record import RunRecord
from .scenario import PRESETS, ScenarioSpec, compute_metrics, get_preset
from .schema import check
from .sim import SimConfig, run as run_sim, run_grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owfsim",
        description="Deterministic simulator of a diode-rectifier HVDC offshore "
                    "wind farm with grid-forming string control.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate presets or scenario config files")
    p_run.add_argument("targets", nargs="+",
                       help="preset names or paths to scenario JSON files")
    p_run.add_argument("--out", default=".", help="output directory (default: .)")
    p_run.add_argument("--dt", type=float, default=SimConfig.dt_plant,
                       help="plant integration step in seconds (default %(default)s)")
    p_run.add_argument("--ts", type=float, default=SimConfig.ts_control,
                       help="control sample period in seconds (default %(default)s)")
    p_run.add_argument("--t-end", type=float, default=SimConfig.t_end,
                       help="override the scenario horizon (s)")
    p_run.add_argument("--decimation", type=int, default=SimConfig.record_decimation,
                       help="record every Nth control sample (default %(default)s)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="run multiple targets concurrently")

    sub.add_parser("list-presets", help="list the shipped scenario presets")

    p_met = sub.add_parser("metrics", help="recompute metrics for a record CSV")
    p_met.add_argument("record", help="path to a record CSV")
    return parser


def _load_scenario(target: str) -> ScenarioSpec:
    if target in PRESETS:
        return get_preset(target)
    path = Path(target)
    if not path.exists():
        raise ValueError("neither a preset nor an existing config file")
    try:
        return ScenarioSpec.from_json(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"not a JSON document: {exc}") from None


def _run_one(scenario: ScenarioSpec, out_dir: str, sim_cfg: SimConfig) -> dict:
    record = run_sim(scenario, sim_cfg)
    metrics = compute_metrics(record)

    out = Path(out_dir)
    csv_path = out / f"{scenario.name}.csv"
    record.to_csv(csv_path)
    metrics_path = out / f"{scenario.name}.metrics.json"
    metrics_path.write_text(json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n")
    return {"name": scenario.name, "csv": str(csv_path),
            "metrics": str(metrics_path), "status": record.status,
            "los": metrics.los_detected}


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    sim_cfg = SimConfig(dt_plant=args.dt, ts_control=args.ts, t_end=args.t_end,
                        record_decimation=args.decimation)
    check(sim_cfg)  # its refusal names no target; each target's horizon is run_grid's
    out = Path(args.out)
    # The file name limit of --out, or of its nearest existing parent before it is made.
    name_max = (os.pathconf(next(p for p in (out, *out.parents) if p.exists()), "PC_NAME_MAX")
                if hasattr(os, "pathconf") else -1)
    writers = {}  # output name -> the target that writes it
    scenarios = []  # each target's document, read once and checked before any run
    for target in args.targets:
        try:  # every refusal of a target begins with it
            scenario = _load_scenario(target)
            run_grid(scenario, sim_cfg)
            if scenario.name in ("", ".", "..") or any(c in scenario.name for c in "/\\\0"):
                raise ValueError(f"name {scenario.name!r} is not a plain file name "
                                 f"(it names the target's files in --out)")
            if 0 <= name_max < (size := len(os.fsencode(f"{scenario.name}.metrics.json"))):
                raise ValueError(f"{scenario.name}.metrics.json is a file name of {size} bytes, "
                                 f"longer than the {name_max} that --out allows")
            if scenario.name in writers:
                raise ValueError(f"target {writers[scenario.name]} also writes "
                                 f"{out / scenario.name}.csv")
            for path in (out / f"{scenario.name}.csv", out / f"{scenario.name}.metrics.json"):
                if path.is_dir():
                    raise ValueError(f"output {path} is a directory")
        except ValueError as exc:
            raise ValueError(f"{target}: {exc}") from None
        writers[scenario.name] = target
        scenarios.append(scenario)
    try:  # made here, once; _run_one and pool workers write into it
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--out {args.out}: cannot create the output directory: "
                         f"{exc.strerror}") from None

    if args.jobs > 1 and len(scenarios) > 1:
        # Imported here: it brings in logging, which a one-target run never uses.
        import concurrent.futures
        workers = min(args.jobs, len(scenarios))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_one, s, args.out, sim_cfg) for s in scenarios]
            results = [f.result() for f in futures]
    else:
        results = [_run_one(s, args.out, sim_cfg) for s in scenarios]

    for r in results:
        print(f"{r['name']}: status={r['status']} los={r['los']} "
              f"csv={r['csv']} metrics={r['metrics']}")
    return 0


def _cmd_metrics(args) -> int:
    record = RunRecord.from_csv(args.record)
    metrics = compute_metrics(record)  # refuses the sim settings that it reads first
    try:  # the header's sim must re-run the record, as SimConfig(**header["sim"]) does
        check(SimConfig(**record.header["sim"]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{args.record}: line 1: header.sim: {exc}") from None
    print(json.dumps(metrics.to_dict(), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-presets":
            for name in sorted(PRESETS):
                print(name)
            return 0
        return _cmd_metrics(args)  # the subparsers are required: metrics is the one left
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # unexpected numeric or I/O failure
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
