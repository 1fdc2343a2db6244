"""nilgrowth benchmark: run one workload in fresh processes and print its metrics.

    python3 perfbench/run.py --workload ball_classes --seed 1 --seconds 60 --trace 0

Each sample is a new single-threaded Python process (workload.py) that imports
nilgrowth from src/ of this checkout, builds its inputs from the seed, runs the workload's
fixed task list once and checks every output.  Samples run one after another
until --seconds have passed (at least MIN_SAMPLES); the metrics are medians
over the samples.  wall_s and cpu_s are scaled by a reference loop timed
around every task, so that they do not follow the host's speed swings (see
REF_S in workload.py); raw_wall_s and ref_wall_s in the info line are the
unscaled task time and the reference loop's time.  With --trace 1, traced and untraced samples alternate and
the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}
The lines before it give the machine, the seed and every metric by name with
its unit, including fail_frac (failed / attempted).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER
from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
MIN_SAMPLES = 3
TIME_LIMIT_S = 170  # the whole run must end within 180 s


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NILGROWTH_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_sample(args, traced: bool, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
        "--trace", str(int(traced)), "--t0", repr(t0),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=max(1.0, deadline - t0)
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads((proc.stdout.strip().splitlines() or [""])[-1])
    result["duration_s"] = time.monotonic() - t0
    return result


def median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def measure(args) -> tuple[list[dict], list[dict]]:
    """Run samples until --seconds are used up; return (untraced, traced)."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    plain, traced = [], []
    while True:
        use_trace = bool(args.trace) and len(traced) < len(plain)
        (traced if use_trace else plain).append(run_sample(args, use_trace, deadline))
        enough = len(plain) >= MIN_SAMPLES and (not args.trace or len(traced) >= MIN_SAMPLES)
        typical = statistics.median(s["duration_s"] for s in plain + traced)
        if enough and time.monotonic() - start + typical > args.seconds:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full", help="toy radii are for tests only")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nilgrowth" / "__init__.py").is_file():
        print(f"error: no nilgrowth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        plain, traced = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples)
    failures = [f for s in samples for f in s["failures"]]
    for failure in sorted(set(failures)):
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        layers = {name: statistics.median(s["layers"][name] for s in traced) for name in PER_LAYER if name != "trace.overhead_frac"}
        layers["trace.overhead_frac"] = median(traced, "wall_s") / median(plain, "wall_s") - 1
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": median(plain, name), "unit": unit} for name, unit in END_TO_END.items()}

    info = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale, "trace": args.trace,
        "samples": len(plain), "traced_samples": len(traced),
        "raw_wall_s": median(plain, "raw_wall_s"), "ref_wall_s": median(plain, "ref_wall_s"),
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": samples[0]["python"], "numpy": samples[0]["numpy"],
    }
    print("# " + json.dumps(info))
    for name, m in metrics.items():
        print(f"{name:34} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':34} {len(failures) / attempted:.6g} ratio")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
