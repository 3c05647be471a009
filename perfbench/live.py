"""The live run: set-up, the timed window over HTTP, and the raw record.

One generator process drives the server over two connections: a closed
loop carrying the workload's requests, and a paced ``GET /healthz``
probe.  Responses are kept as raw bytes and checked after the window.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from collections import Counter, deque
from typing import Dict, List

from client import Connection
from common import BenchError, WorkDir
from inputs import PROBE_GAP, STATUS_GAP, Inputs, encode
from procs import System
from stats import OpLog
from workloads import Workload

REQUEST_TIMEOUT = 30.0
#: Outstanding ``durable`` jobs: keeps the worker from idling.
JOB_WINDOW = 4
DRAIN_TIMEOUT = 60.0


class LiveRun:
    """Everything the timed windows produced, for checks and metrics.

    One request sequence runs on across the windows of all set-ups.
    """

    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        self.workload = workload
        self.requests = workload.stream(inputs)
        self.probe_gaps = inputs.gaps("probe", PROBE_GAP)
        self.status_gaps = inputs.gaps("status", STATUS_GAP)
        self.ops: Dict[str, OpLog] = {}
        #: (op name, log index, request, raw response body) to check.
        self.kept: List[tuple] = []
        self.elapsed = 0.0
        self.completed = 0
        self.busy_retries = 0
        self.last_done = 0.0
        #: Jobs submitted inside the window that ended while it drained:
        #: checked, but outside the latency sample and ``ops_per_s``.
        self.late_finished = 0
        self.late_failures: Counter = Counter()

    def log(self, name: str) -> OpLog:
        return self.ops.setdefault(name, OpLog(name))

    def done(self) -> None:
        """Count one primary operation completed inside the window."""
        self.completed += 1
        self.last_done = time.perf_counter()


async def _call(conn, log: OpLog, method, path, body=b""):
    """One timed request: ``(log index, status, body, start)``.

    Status, body and start are ``None`` when no response arrived.
    """
    start = time.perf_counter()
    try:
        status, payload = await conn.request(method, path, body, REQUEST_TIMEOUT)
    except asyncio.TimeoutError:
        return log.fail("timeout"), None, None, None
    except (OSError, asyncio.IncompleteReadError):
        return log.fail("connection"), None, None, None
    seconds = time.perf_counter() - start
    if 200 <= status < 300:
        return log.ok(seconds), status, payload, start
    return log.fail(f"status_{status}"), status, payload, start


async def _probe(conn, gaps, deadline: float, log: OpLog) -> None:
    due = time.perf_counter()
    while True:
        due += next(gaps)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        else:
            due = time.perf_counter()  # skip slots a stall swallowed
        if time.perf_counter() >= deadline:
            return
        await _call(conn, log, "GET", "/healthz")


# ----------------------------------------------------------------------
# closed loops: one for request workloads, one for job workloads
# ----------------------------------------------------------------------
async def _request_loop(conn, deadline, run: LiveRun) -> None:
    """One request at a time until the deadline."""
    workload = run.workload
    log = run.log(workload.primary)
    while time.perf_counter() < deadline:
        item = next(run.requests)
        index, status, payload, _ = await _call(
            conn, log, "POST", workload.path, encode(workload.body(item))
        )
        run.kept.append((workload.primary, index, item, payload))
        if status is not None and 200 <= status < 300:
            run.done()


async def _job_loop(conn, deadline, run: LiveRun) -> None:
    """Submit jobs, keep four outstanding, poll the oldest one paced.

    The worker runs jobs oldest first, so only the head of the window
    can be the next to finish; its turnaround runs from the submit
    until the first status read that shows ``succeeded``.  Jobs still
    outstanding at the deadline are drained, checked and, if they
    fail, counted as late failures.
    """
    submits, reads, jobs = run.log("submit"), run.log("status"), run.log("job")
    window: deque = deque()
    draining_until = None
    while True:
        now = time.perf_counter()
        if now >= deadline and draining_until is None:
            draining_until = now + DRAIN_TIMEOUT
        if draining_until is not None and (not window or now > draining_until):
            if window:
                run.late_failures["timeout"] += len(window)
            return
        if draining_until is None and len(window) < JOB_WINDOW:
            body = run.workload.body(next(run.requests))
            _, status, payload, start = await _call(
                conn, submits, "POST", run.workload.path, encode(body)
            )
            if payload is not None and status in (200, 202):
                job_id = json.loads(payload)["job"]["id"]
                window.append([job_id, body, start, time.perf_counter() + next(run.status_gaps)])
            else:
                jobs.fail("submit_failed")
            continue
        job_id, body, submitted, due = window[0]
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        _, status, payload, _ = await _call(
            conn, reads, "GET", f"/v1/jobs/{job_id}"
        )
        state = json.loads(payload)["job"]["state"] if status == 200 else None
        if state == "succeeded":
            window.popleft()
            if draining_until is None:
                index = jobs.ok(time.perf_counter() - submitted)
                run.done()
            else:
                index = None  # finished after the window: checked only
                run.late_finished += 1
            run.kept.append(("job", index, body, payload))
        elif state in ("failed", "cancelled") or status is None:
            window.popleft()
            reason = f"job_{state or 'unreadable'}"
            if draining_until is None:
                jobs.fail(reason)
            else:
                run.late_failures[reason] += 1
        else:
            window[0][3] = time.perf_counter() + next(run.status_gaps)



# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
async def _wait_healthy(conn: Connection, deadline: float) -> None:
    while True:
        try:
            status, _ = await conn.request("GET", "/healthz", b"", 5.0)
            if status == 200:
                return
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            pass
        if time.perf_counter() > deadline:
            raise BenchError("server never answered /healthz")
        await asyncio.sleep(0.005)


async def _expect(conn, method, path, body) -> dict:
    status, payload = await conn.request(method, path, body, 120.0)
    if not 200 <= status < 300:
        raise BenchError(f"set-up {method} {path} answered {status}: {payload[:300]!r}")
    return json.loads(payload)


async def warm(conn: Connection, workload: Workload, inputs: Inputs) -> None:
    """Publish what the timed requests rely on and make one untimed pass
    over every request shape the window sends."""
    for method, path, body in workload.setup(inputs):
        await _expect(conn, method, path, encode(body))
    for item in workload.warm(inputs):
        answer = await _expect(conn, "POST", workload.path, encode(workload.body(item)))
        if not workload.jobs:
            continue
        job = answer["job"]
        while job["state"] != "succeeded":
            if job["state"] in ("failed", "cancelled"):
                raise BenchError(f"warm-up job ended {job['state']}: {job.get('error')}")
            await asyncio.sleep(0.01)
            job = (await _expect(conn, "GET", f"/v1/jobs/{job['id']}", b""))["job"]
    await _expect(conn, "GET", "/healthz", b"")


def set_up(work: WorkDir, workload: Workload, inputs: Inputs, label: str):
    """Spawn and warm one system; returns ``(system, seconds, rss_mb)``.

    The clock runs from process spawn until the system is warm, so
    work moved between start-up and the first requests nets out.
    """
    jobs_db = None
    if workload.jobs:
        from repro.jobs import JobStore

        jobs_db = work.sub(f"{label}-db") / "jobs.sqlite3"
        # The database exists before the clock starts, as a deployed
        # one would; creating it here also keeps the two processes
        # from racing to apply its schema.
        JobStore(jobs_db).close()
    system = System(work, label, jobs_db)
    started = time.perf_counter()
    system.spawn()
    try:
        host, port = system.wait_listening()

        async def warm_up() -> None:
            conn = Connection(host, port)
            try:
                await _wait_healthy(conn, time.perf_counter() + 60.0)
                await warm(conn, workload, inputs)
            finally:
                await conn.close()

        asyncio.run(warm_up())
        seconds = time.perf_counter() - started
        return system, seconds, system.peak_rss_mb()
    except BaseException:
        system.stop()
        raise


async def _busy_retries(conn: Connection) -> int:
    """Busy retries so far, summed over the server's stores."""
    status, payload = await conn.request("GET", "/metrics", b"", 30.0)
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    stores = json.loads(payload).get("storage", {}).values()
    return sum(store.get("busy_retries", 0) for store in stores)


def run_window(run: LiveRun, system: System, seconds: float) -> None:
    """One timed window on ``system``: the closed loop plus the probe."""
    host, port = system.address

    async def drive() -> None:
        load, probe = Connection(host, port), Connection(host, port)
        try:
            busy = await _busy_retries(load)
            # Open both connections before the clock starts.
            await probe.request("GET", "/healthz", b"", 30.0)
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                run.last_done = started
                deadline = started + seconds
                probe_task = asyncio.create_task(
                    _probe(probe, run.probe_gaps, deadline, run.log("probe"))
                )
                try:
                    loop = _job_loop if run.workload.jobs else _request_loop
                    await loop(load, deadline, run)
                finally:
                    await probe_task
                run.elapsed += run.last_done - started
            finally:
                gc.enable()
            run.busy_retries += await _busy_retries(load) - busy
        finally:
            await load.close()
            await probe.close()

    asyncio.run(drive())
