"""perfbench: one steady benchmark over a live ``rascad serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

The run sets the system up three times and drives a third of the timed
window over HTTP after each set-up; it then checks every answer.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds the
in-process replay of the same seeded inputs and prints the per-layer
metrics.
The last line of standard output is the result object; the line before
it is the full record (provenance, per-operation counts, samples).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from common import ROOT, SRC, BenchError, WorkDir, require_source
from workloads import WORKLOADS

#: Set-ups per run; set-up time and memory are their medians.
SETUPS = 3
REFERENCE_LOOP = 2_000_000


def _reference_loop_s() -> float:
    """A fixed pure-Python loop, timed: host speed context only."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return time.perf_counter() - start


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(args) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(live, setups: List[tuple], primary: str) -> Dict[str, dict]:
    main = live.ops[primary].summary()
    if "upper_ms" not in main:
        raise BenchError("too few samples for a tail percentile; run longer")
    return {
        "setup_s": _metric(statistics.median(s for s, _ in setups), "s"),
        "setup_rss_mb": _metric(statistics.median(r for _, r in setups), "MB"),
        "ops_per_s": _metric(live.completed / live.elapsed, "1/s"),
        "p50_ms": _metric(main["p50_ms"], "ms"),
        "p90_ms": _metric(main["upper_ms"], "ms"),
    }


def per_layer_metrics(workload, args, inputs, work, live) -> Dict[str, dict]:
    from replay import EXACT_COUNTS, exact_counts_in_child, per_layer, replay
    from spans import Tracer

    first = replay(workload, inputs, work.sub("replay-traced"), Tracer())
    plain = replay(workload, inputs, work.sub("replay-untraced"), None)
    layers = per_layer(first)
    again = exact_counts_in_child(workload, args.seed, work.sub("replay-child"), work.env())
    differing = [k for k in EXACT_COUNTS if layers[k] != again[k]]
    if differing:
        raise BenchError(
            "two traced replays of one seed disagree on "
            + ", ".join(f"{k} ({layers[k]} vs {again[k]})" for k in differing)
            + ": the generator or the program is not deterministic"
        )
    mean = statistics.fmean
    layers["trace.overhead_pct"] = 100.0 * (
        mean(first.op_seconds) / mean(plain.op_seconds) - 1.0
    )
    http_ms = sum(count * live.ops[op].mean_ok_ms() for op, count in workload.http_ops)
    layers["unattributed_ms"] = http_ms - 1e3 * mean(plain.http_seconds)
    layers["store.busy_retries"] = live.busy_retries / max(live.completed, 1)
    for label, op in (("write", "submit"), ("read", "status")):
        summary = live.ops[op].summary() if op in live.ops else {}
        layers[f"http.{label}_p50_ms"] = summary.get("p50_ms", 0.0)
        layers[f"http.{label}_p90_ms"] = summary.get("upper_ms", 0.0)
    layers["http.probe_p90_ms"] = live.ops["probe"].summary().get("upper_ms", 0.0)
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: _metric(layers[m["name"]], m["unit"]) for m in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    work = WorkDir(args.workload)
    work.adopt_env()
    try:
        return _run(args, work)
    finally:
        work.remove()


def _run(args, work: WorkDir) -> int:
    from repro import e10000_model
    from repro.spec import model_to_spec

    from checks import wrong_answers
    from inputs import Inputs
    from live import LiveRun, run_window, set_up

    record: Dict[str, object] = provenance(args)
    record["loadavg_before"] = os.getloadavg()
    record["reference_loop_s_before"] = _reference_loop_s()
    inputs = Inputs(args.seed, model_to_spec(e10000_model()))
    workload = WORKLOADS[args.workload]

    # The window is split over the set-ups, so it samples several
    # server processes and a longer stretch of a noisy host.
    live = LiveRun(workload, inputs)
    setups = []
    for index in range(SETUPS):
        system, seconds, rss = set_up(work, workload, inputs, f"setup-{index}")
        setups.append((seconds, rss))
        try:
            run_window(live, system, args.seconds / SETUPS)
        finally:
            system.stop()

    check_started = time.perf_counter()
    wrong, checked = wrong_answers(workload, inputs, work.path, live.kept)
    check_seconds = time.perf_counter() - check_started
    late_wrong = 0
    for op, index, _, _ in wrong:
        if index is None:
            late_wrong += 1  # a job that finished after the window
        else:
            live.ops[op].mark_wrong(index)

    if args.trace:
        metrics = per_layer_metrics(workload, args, inputs, work, live)
    else:
        metrics = end_to_end(live, setups, workload.primary)

    record["loadavg_after"] = os.getloadavg()
    record["reference_loop_s_after"] = _reference_loop_s()
    record["setups"] = [{"seconds": s, "rss_mb": r} for s, r in setups]
    record["operations"] = {name: log.summary() for name, log in live.ops.items()}
    record["late_jobs"] = {
        "finished": live.late_finished,
        "failures": dict(live.late_failures),
        "wrong": late_wrong,
    }
    record["checked"] = checked
    record["check_seconds"] = check_seconds
    record["wrong_answers"] = len(wrong)
    record["window_seconds"] = live.elapsed
    print(json.dumps({"record": record}, sort_keys=True))
    late_failed = sum(live.late_failures.values())
    attempted = (sum(log.attempted for log in live.ops.values())
                 + live.late_finished + late_failed)
    failed = sum(log.failed for log in live.ops.values()) + late_failed + late_wrong
    print(json.dumps({
        "correct": not wrong and checked > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)
