"""Regenerate the pinned reference trajectories in perfbench/refs.

    python3 perfbench/make_refs.py

Each converging preset is run at every delay of its list with RK4 at 10 us
(the benchmark runs the default 20 us); the decimated trajectory of the
columns that traj_err compares is stored as refs/<preset>_<delay>.npz, and
refs/manifest.json records how the files were made.  The references pin the
simulator as it was when they were made, so a change and its parent are both
measured against the same files: regenerate them only in a change that
touches nothing else.  Takes about four minutes on a 2-CPU x86 host.
"""
from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import owfsim  # noqa: E402
from owfsim.scenario import compute_metrics  # noqa: E402
from owfsim.sim import SimConfig, run  # noqa: E402

import seeded  # noqa: E402


def main() -> int:
    cfg = SimConfig(dt_plant=seeded.REF_DT_PLANT)
    files = {}
    for preset in seeded.CONVERGING:
        for delay in seeded.DELAYS[seeded.family(preset)]:
            record = run(seeded.scenario(preset, delay), cfg)
            metrics = compute_metrics(record).to_dict()
            vpcc_end = [float(record.col("vpcc_mag", k)[-1]) for k in (1, 2)]
            if not seeded.outcome_ok(preset, metrics, vpcc_end):
                print(f"{preset} at {delay} s: unexpected outcome {metrics}", file=sys.stderr)
                return 1
            t = record.t
            step = int(round(seeded.REF_SPACING / (t[1] - t[0])))
            arrays = {c: record.columns[c][::step] for c in ("t",) + seeded.TRAJ_COLUMNS}
            path = seeded.ref_path(preset, delay)
            np.savez_compressed(path, **arrays)
            files[path.name] = {"preset": preset, "delay_s2": delay,
                                "rows": len(arrays["t"]),
                                "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
            print(f"wrote {path.name}", flush=True)
    manifest = {
        "command": "python3 perfbench/make_refs.py",
        "owfsim_version": owfsim.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dt_plant": cfg.dt_plant,
        "ts_control": cfg.ts_control,
        "record_decimation": cfg.record_decimation,
        "spacing_s": seeded.REF_SPACING,
        "columns": list(seeded.TRAJ_COLUMNS),
        "files": files,
    }
    (seeded.REF_DIR / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
