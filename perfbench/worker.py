"""One workload in one fresh process: set up, warm up, time, check, report.

Started by ``run.py`` with the BLAS thread count already fixed in the
environment.  Usage::

    python3 perfbench/worker.py PLAN_JSON SPAWNED_AT [--setup-only]
        [--seconds S] [--trace-file PATH]

``SPAWNED_AT`` is the launcher's ``time.monotonic()`` just before it started
this process (one system-wide clock on Linux), so the set-up time includes
interpreter start.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

from workloads import WORKLOADS


def run_rounds(workload, first_round: int, *, rounds: int = 0, seconds: float = 0.0, tracer=None):
    """Run whole rounds until ``rounds`` are done or ``seconds`` have passed.

    Returns per-op samples ``(kind, wall_s, ok)``, the kept outcomes per
    round and any error raised by an operation.  Only the operation itself
    is inside its timing; bookkeeping between operations is not.
    """
    samples, kept, errors = [], [], []
    started = time.perf_counter()
    n = 0
    while True:
        outcomes = []
        for position, (kind, op) in enumerate(workload.round(first_round + n)):
            if tracer is not None:
                tracer.start_op(len(samples), kind)
            t0 = time.perf_counter()
            try:
                outcome = op()
            except Exception as exc:
                wall = time.perf_counter() - t0
                errors.append(f"round {n} op {position} ({kind}) raised {type(exc).__name__}: {exc}")
                samples.append((kind, wall, False))
                continue
            wall = time.perf_counter() - t0
            samples.append((kind, wall, workload.succeeded(outcome)))
            outcomes.append(workload.keep(outcome, first_round + n))
        kept.append(outcomes)
        n += 1
        if (n >= rounds) if rounds else (time.perf_counter() - started >= seconds):
            return samples, kept, errors


def op_p50(samples) -> float:
    """Median op wall time; a failed op counts as the slowest op of the run."""
    slowest = max(wall for _, wall, _ in samples)
    return statistics.median(wall if ok else slowest for _, wall, ok in samples)


def measure(workload, seconds: float):
    """The untraced timed batch and its end-to-end metrics."""
    samples, timed, errors = run_rounds(workload, 1, seconds=seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    completed = sum(ok for _, _, ok in samples)
    metrics = {
        "op_p50_s": op_p50(samples),
        "ops_per_s": completed / sum(wall for _, wall, _ in samples),
        "peak_rss_mib": peak_kib / 1024.0,
    }
    return samples, timed, errors, metrics


def measure_traced(workload, seconds: float, trace_file: str):
    """Alternate untraced and traced rounds; per-layer metrics per round.

    Alternating makes drift in machine speed affect both sides of the
    overhead figure alike.
    """
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, timed, errors = [], [], [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        for side, active in ((plain, None), (traced, tracer)):
            with active or contextlib.nullcontext():
                samples, kept, more = run_rounds(workload, 1 + len(timed), rounds=1, tracer=active)
            side += samples
            timed += kept
            errors += more
    plain_s = sum(wall for _, wall, _ in plain)
    traced_s = sum(wall for _, wall, _ in traced)
    rounds = len(timed) // 2
    ops = Counter(kind for kind, _, _ in traced)
    metrics = tracer.metrics(rounds)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    with open(trace_file, "w", encoding="utf-8") as f:
        json.dump(
            {
                "rounds": rounds,
                "ops_per_kind": ops,
                "counts_per_op": {
                    kind: {key: value / ops[kind] for key, value in counts.items()}
                    for kind, counts in tracer.counts_by_kind().items()
                },
                "untraced_s": plain_s,
                "traced_s": traced_s,
                "metrics_per_round": metrics,
            },
            f,
            indent=1,
            sort_keys=True,
        )
    return plain + traced, timed, errors, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    with open(args.plan, encoding="utf-8") as f:
        plan = json.load(f)
    workload = WORKLOADS[plan["workload"]]()
    workload.setup(plan["inputs"])
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    _, first, errors = run_rounds(workload, 0, rounds=1)
    if args.trace_file is None:
        samples, timed, more, metrics = measure(workload, args.seconds)
    else:
        samples, timed, more, metrics = measure_traced(workload, args.seconds, args.trace_file)
    failures = errors + more
    if not failures:
        try:
            failures = workload.check(first + timed)
        except Exception:  # malformed output: report it as a failed check
            failures = [traceback.format_exc()]
    print(json.dumps({
        "setup_s": setup_s,
        "metrics": metrics,
        "correct": not failures,
        "attempted": len(samples),
        "failed": sum(not ok for _, _, ok in samples),
        "failures": failures[:20],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
