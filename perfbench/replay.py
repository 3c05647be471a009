"""The traced replay: the same seeded inputs, in process, layer by layer.

Requests go through ``App.handle`` of an embedded
:class:`repro.service.Server` (no sockets) and, for ``durable``, each
job runs through the worker path (``Worker.run`` on its own store and
engine, as the ``rascad jobs worker`` process does).  Operations run
one at a time, so every span recorded during an operation belongs to
it and the counts repeat exactly for a seed.

Run as a script, it makes one traced replay and prints its exact
counts; ``run.py`` starts it so that a second replay runs in a fresh
interpreter::

    python3 perfbench/replay.py --workload sweep --seed 1 --dir DIR
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import BenchError, require_source
from inputs import CHECKPOINT_EVERY, Inputs, encode, take
from spans import DRILL_SPANS, LAYER_SPANS, Tracer, drill_totals, layer_self_ms
from workloads import Workload


class Replay:
    """One replay's per-operation durations, spans and counters."""

    def __init__(self) -> None:
        self.op_seconds: List[float] = []
        #: Per operation: the seconds spent in App.handle-equivalent
        #: requests (the part an HTTP client sees).
        self.http_seconds: List[float] = []
        self.layer: List = []
        self.drill: List = []
        self.counts: Dict[str, float] = {}


def _request(method: str, path: str, body: Optional[dict] = None):
    from repro.service.protocol import Request

    return Request(method, path, {}, {}, encode(body) if body is not None else b"")


async def _handle(app, method, path, body=None):
    response = await app.handle(_request(method, path, body))
    wire = response.encode()  # what the connection loop sends
    if not 200 <= response.status < 300:
        raise BenchError(f"replay {method} {path} answered {response.status}: {wire[-300:]!r}")
    return json.loads(response.body)


def _engine_counts(*engines) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for engine in engines:
        snap = engine.stats_snapshot()
        for key in ("system_solves", "system_cache_hits", "block_solves", "block_cache_hits"):
            totals[key] = totals.get(key, 0) + getattr(snap, key)
    return totals


def _txns(*stores) -> int:
    return sum(store.db.health()["transactions"] for store in stores if store is not None)


async def _replay(workload: Workload, inputs: Inputs, directory: Path,
                  tracer: Optional[Tracer]) -> Replay:
    from repro.engine import Engine
    from repro.jobs import JobStore, Worker, WorkerConfig
    from repro.jobs.runner import Checkpointer
    from repro.service import ServiceConfig
    from repro.service.lifecycle import Server

    jobs_db = directory / "jobs.sqlite3" if workload.jobs else None
    server = Server(ServiceConfig(port=0, request_timeout=60.0, jobs_db=jobs_db))
    server.queue.start()
    app = server.app
    worker = worker_store = None
    if workload.jobs:
        worker_store = JobStore(jobs_db)
        worker = Worker(
            worker_store, Engine(), Checkpointer(directory / "checkpoints"),
            WorkerConfig(once=True, max_jobs=1, checkpoint_every=CHECKPOINT_EVERY),
        )
    result = Replay()
    count = workload.replay_ops

    async def run_op(body) -> float:
        """One operation; returns the seconds its requests took.

        A job is submit, read, work, read; the worker's part is not a
        request.
        """
        start = time.perf_counter()
        if not workload.jobs:
            await _handle(app, "POST", workload.path, body)
            return time.perf_counter() - start
        job = (await _handle(app, "POST", workload.path, body))["job"]
        await _handle(app, "GET", f"/v1/jobs/{job['id']}")
        requests = time.perf_counter() - start
        worker.run()
        start = time.perf_counter()
        done = (await _handle(app, "GET", f"/v1/jobs/{job['id']}"))["job"]
        requests += time.perf_counter() - start
        if done["state"] != "succeeded":
            raise BenchError(f"replayed job ended {done['state']}: {done.get('error')}")
        return requests

    try:
        # Set-up and one untimed pass, as the live run makes them.
        for method, path, body in workload.setup(inputs):
            await _handle(app, method, path, body)
        for item in workload.warm(inputs):
            await run_op(workload.body(item))
        await _handle(app, "GET", "/healthz")
        bodies = [workload.body(item) for item in take(workload.stream(inputs), count)]

        engines = [server.engine] + ([worker.engine] if worker else [])
        before = _engine_counts(*engines)
        txns_before = _txns(server.jobs, worker_store)
        if tracer is not None:
            tracer.install()
            tracer.take()
        try:
            for body in bodies:
                start = time.perf_counter()
                result.http_seconds.append(await run_op(body))
                result.op_seconds.append(time.perf_counter() - start)
                if tracer is not None:
                    layer, drill = tracer.take()
                    result.layer += layer
                    result.drill += drill
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = _engine_counts(*engines)
        delta = {key: after[key] - before[key] for key in after}
        lookups = delta["system_solves"] + delta["system_cache_hits"]
        blocks = delta["block_solves"] + delta["block_cache_hits"]
        result.counts = {
            "core.block_solves": delta["block_solves"] / count,
            "engine.system_hit_ratio": delta["system_cache_hits"] / lookups if lookups else 0.0,
            "engine.block_hit_ratio": delta["block_cache_hits"] / blocks if blocks else 0.0,
            "store.txns_per_job": (
                (_txns(server.jobs, worker_store) - txns_before) / count
                if workload.jobs else 0.0
            ),
        }
    finally:
        await server.shutdown()
        if worker_store is not None:
            worker_store.close()
        if server.jobs is not None:
            server.jobs.close()
    return result


def replay(workload: Workload, inputs: Inputs, directory: Path,
           tracer: Optional[Tracer]) -> Replay:
    """Replay ``workload``'s first operations in a fresh system kept
    under ``directory``."""
    return asyncio.run(_replay(workload, inputs, directory, tracer))


#: Count metrics that must repeat exactly between two traced replays.
EXACT_COUNTS = (
    "num.expm_calls", "core.block_solves", "store.txns_per_job",
    "engine.system_hit_ratio", "engine.block_hit_ratio",
)
CHILD_TIMEOUT = 150.0


def per_layer(traced: Replay) -> Dict[str, float]:
    """Mean self time per operation for every span, plus the counts."""
    ops = len(traced.op_seconds)
    selfs = layer_self_ms(traced.layer)
    drills = drill_totals(traced.drill)
    out: Dict[str, float] = {}
    for name in LAYER_SPANS:
        out[f"{name}_ms"] = selfs.get(name, 0.0) / ops
    for name in DRILL_SPANS:
        out[f"{name}_ms"] = drills.get(name, (0.0, 0))[0] / ops
    out["num.expm_calls"] = drills.get("num.expm", (0.0, 0))[1] / ops
    out.update(traced.counts)
    return out


def exact_counts(traced: Replay) -> Dict[str, float]:
    layers = per_layer(traced)
    return {name: layers[name] for name in EXACT_COUNTS}


def exact_counts_in_child(workload: Workload, seed: int, directory: Path,
                          env: Dict[str, str]) -> Dict[str, float]:
    """The exact counts of a traced replay in a fresh interpreter.

    The child runs with another ``PYTHONHASHSEED`` than this process,
    so an ordering that depends on the hash seed, or on state left in
    this process, shows as a difference.
    """
    own = os.environ.get("PYTHONHASHSEED", "")
    env = dict(env)
    env["PYTHONHASHSEED"] = str((int(own) + 1) % 2**32 if own.isdigit() else 1)
    try:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(seed), "--dir", str(directory)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("the child replay did not finish in time") from None
    if completed.returncode != 0:
        raise BenchError(f"the child replay failed: {completed.stderr[-1500:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    """Print the exact counts of one traced replay, as a JSON line."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)
    require_source()
    args.dir.mkdir(parents=True, exist_ok=True)
    from repro import e10000_model
    from repro.spec import model_to_spec

    from workloads import WORKLOADS

    inputs = Inputs(args.seed, model_to_spec(e10000_model()))
    traced = replay(WORKLOADS[args.workload], inputs, args.dir, Tracer())
    print(json.dumps(exact_counts(traced)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"perfbench replay: {error}", file=sys.stderr)
        sys.exit(2)
