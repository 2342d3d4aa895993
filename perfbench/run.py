"""Benchmark of the precycles library: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/``.
Each workload runs in fresh single-threaded processes: four that stop
after set-up, then one that also runs the timed rounds and checks every
output.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  The
same object is written to ``perfbench/out/``, and a traced run also
writes its spans there.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("exact-window", "estimate", "recognize", "certify")
# Set-up is sampled this many times per run (the measured process is
# one of them) and reported as the median.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    return "count"


def _child(args, mode: str, trace_file: Path | None = None) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="precycles benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "precycles" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'precycles'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = OUT / f"spans-{tag}.jsonl" if args.trace else None
    try:
        setups = [_child(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        run = _child(args, "run", trace_file)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])
    if args.trace:
        values = run["layers"]
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": run["wall_s"],
                  "cpu_s": run["cpu_s"], "peak_rss_mb": run["peak_rss_mb"]}
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
    result = {"correct": run["correct"], "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: {run['rounds']} rounds, "
          f"set-up samples {', '.join(f'{s:.3f}' for s in setups)} s")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
