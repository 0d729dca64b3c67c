"""Benchmark of the thermofield package: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 32 --trace 0

Workloads: ``verify_sweep``, ``verify_small``, ``state_files`` (see
``perfbench/README.md``).  The inputs are made from ``--seed`` in this
process, then every set-up and every measurement runs in a fresh worker
process with BLAS limited to ``BLAS_THREADS`` threads.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics of a traced pass and writes a trace file.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
same object is saved under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from tracing import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is timed in this many fresh processes (the measuring worker is
# the last of them) and reported as their median.
SETUP_SAMPLES = 5

# Every process this script starts must end before this many seconds.
DEADLINE_S = 170.0

UNITS = {"op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mib": "MiB", "setup_s": "s"}


def run_worker(plan_path: str, deadline: float, *extra: str) -> dict:
    """Start one worker, wait for it, and return its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), plan_path, repr(spawned_at), *extra],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: worker did not finish within {DEADLINE_S:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "thermofield", "__init__.py")):
        print(f"error: no thermofield package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RESULTS, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plan = {
            "workload": args.workload,
            "inputs": WORKLOADS[args.workload]().make_inputs(args.seed, workdir),
        }
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as f:
            json.dump(plan, f)

        if args.trace:
            trace_file = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.json")
            worker = run_worker(plan_path, deadline, "--seconds", str(args.seconds),
                                "--trace-file", trace_file)
            metrics = worker["metrics"]
            units = dict(metric_names(), **{"trace.overhead_pct": "%"})
        else:
            setups = [
                run_worker(plan_path, deadline, "--setup-only")["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            worker = run_worker(plan_path, deadline, "--seconds", str(args.seconds))
            metrics = dict(worker["metrics"], setup_s=statistics.median(setups + [worker["setup_s"]]))
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in worker["failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    text = json.dumps(result)
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as f:
        f.write(text + "\n")
    print(text)
    return 0 if worker["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
