"""Command-line front end.

Subcommands:
  run <preset|config.json> ...   simulate, write <name>.csv + <name>.metrics.json
                                 (each target read and checked once, before any run)
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
from .scenario import PRESETS, NotJSONError, ScenarioSpec, compute_metrics, get_preset
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
        raise ValueError(f"{target!r} is neither a preset nor an existing config file")
    try:
        return ScenarioSpec.from_json(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"{target}: cannot read: {exc.strerror}") from None
    except (UnicodeDecodeError, NotJSONError) as exc:  # schema errors name their key
        raise ValueError(f"{target}: not a JSON document: {exc}") from None


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
    writers = {}  # output name -> the target that writes it
    scenarios = []  # each target's document, read once and checked before any run
    for target in args.targets:
        scenario = _load_scenario(target)
        run_grid(scenario, sim_cfg)
        if scenario.name in ("", ".", "..") or any(c in scenario.name for c in "/\\\0"):
            raise ValueError(f"target {target!r}: name {scenario.name!r} is not a plain "
                             f"file name (it names the target's files in --out)")
        if scenario.name in writers:
            raise ValueError(f"targets {writers[scenario.name]!r} and {target!r} both write "
                             f"{Path(args.out) / scenario.name}.csv")
        writers[scenario.name] = target
        scenarios.append(scenario)
    try:  # made here, once; _run_one and pool workers write into it
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--out {args.out}: cannot create the output directory: "
                         f"{exc.strerror}") from None

    if args.jobs > 1 and len(scenarios) > 1:
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
    metrics = compute_metrics(record)
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
