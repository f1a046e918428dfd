"""Command-line front end.

Subcommands:
  run <preset|config.json> ...   simulate, write <name>.csv + <name>.metrics.json
  list-presets                   print the shipped scenario presets
  metrics <record.csv>           recompute metrics for an existing record

Exit codes: 0 = run completed and metrics computed (including runs that end in
an expected divergence), 1 = usage/configuration error, 2 = unexpected failure.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
from pathlib import Path

from .record import RunRecord
from .scenario import PRESETS, ScenarioSpec, compute_metrics, get_preset
from .sim import SimConfig, run as run_sim


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
    p_run.add_argument("--dt", type=float, default=20e-6,
                       help="plant integration step in seconds (default 20e-6)")
    p_run.add_argument("--ts", type=float, default=200e-6,
                       help="control sample period in seconds (default 200e-6)")
    p_run.add_argument("--t-end", type=float, default=None,
                       help="override the scenario horizon (s)")
    p_run.add_argument("--decimation", type=int, default=2,
                       help="record every Nth control sample (default 2)")
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
        raise ValueError(f"{target!r} is neither a preset nor an existing config file")
    return ScenarioSpec.from_json(path.read_text())


def _run_one(target: str, out_dir: str, sim_cfg: SimConfig) -> dict:
    scenario = _load_scenario(target)
    record = run_sim(scenario, sim_cfg)
    metrics = compute_metrics(record)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{scenario.name}.csv"
    record.to_csv(csv_path)
    metrics_path = out / f"{scenario.name}.metrics.json"
    metrics_path.write_text(json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n")
    return {"name": scenario.name, "csv": str(csv_path),
            "metrics": str(metrics_path), "status": record.status,
            "los": metrics.los_detected}


def _cmd_run(args) -> int:
    sim_cfg = SimConfig(dt_plant=args.dt, ts_control=args.ts, t_end=args.t_end,
                        record_decimation=args.decimation)
    sim_cfg.validate()
    for target in args.targets:  # validate everything before any work starts
        _load_scenario(target)

    if args.jobs > 1 and len(args.targets) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_run_one, t, args.out, sim_cfg) for t in args.targets]
            results = [f.result() for f in futures]
    else:
        results = [_run_one(t, args.out, sim_cfg) for t in args.targets]

    for r in results:
        print(f"{r['name']}: status={r['status']} los={r['los']} "
              f"csv={r['csv']} metrics={r['metrics']}")
    return 0


def _cmd_metrics(args) -> int:
    record = RunRecord.from_csv(args.record)
    metrics = compute_metrics(record)
    print(json.dumps(metrics.to_dict(), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-presets":
            for name in sorted(PRESETS):
                print(name)
            return 0
        if args.command == "metrics":
            return _cmd_metrics(args)
        parser.error(f"unknown command {args.command!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # unexpected numeric or I/O failure
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
