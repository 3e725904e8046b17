"""Run one linkdecay benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload planted-sweep --seed 0 \
        --seconds 20 --trace 0

The workload runs in a child process (``workloads.py``) with ``src`` on
``PYTHONPATH``; the child's environment alone limits OpenMP/BLAS to one
thread and fixes ``PYTHONHASHSEED``.  The child's own output goes to
stderr.  This script prints the run's key=value notes and then, as the
last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  A missing
source tree or a crashed child exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_run"
CHILD_TIMEOUT_S = 170


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "linkdecay" / "__init__.py").is_file():
        print("error: src/linkdecay not found; run from a linkdecay checkout",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    # One numeric thread; a fixed string hash, so that dict and set timings
    # of node tokens do not vary from process to process.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", str(result_path), "--work", str(work)]
    try:
        child = subprocess.run(command, env=env, cwd=ROOT, stdout=sys.stderr,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if child.returncode != 0 or not result_path.is_file():
        print(f"error: workload exited with {child.returncode}", file=sys.stderr)
        return 3
    result = json.loads(result_path.read_text())

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = dict(result["metrics"])
    if not args.trace:
        # ru_maxrss is in KiB on Linux; the only child waited for is the workload.
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        measured["peak_rss_mb"] = peak / 1024
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing and result["failed"] == 0:
        print(f"error: workload did not report {missing}", file=sys.stderr)
        return 3
    for key, value in sorted(result["info"].items()):
        print(f"{key}={value}")
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
