"""owfsim benchmark: one workload, run closed loop in this single process.

    python3 perfbench/run.py --workload {blackstart,ramp,records} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the simulator is imported from its
src/ directory and nowhere else.  The seed only chooses the string-2 delay
written into the scenario documents the simulator loads (seeded.py).  The
timed phase repeats the workload's cycle, one operation at a time, until S
seconds have passed (at least one cycle), and checks every operation's
outputs.  --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced phase (README.md).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time includes the imports in main()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description="owfsim benchmark")
    p.add_argument("--workload", required=True, choices=("blackstart", "ramp", "records"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not (SRC / "owfsim" / "__init__.py").is_file():
        print(f"owfsim sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import owfsim
    if Path(owfsim.__file__).resolve().parent != SRC / "owfsim":
        print(f"imported owfsim from {owfsim.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import workloads
    return workloads.main(args, time.perf_counter() - T_START)


if __name__ == "__main__":
    sys.exit(main())
