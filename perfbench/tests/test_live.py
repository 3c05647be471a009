"""Failure accounting of the ``durable`` loop, against a scripted server."""

import asyncio
import json
import time

from inputs import Inputs
from live import LiveRun, _job_loop
from workloads import WORKLOADS


class ScriptedJobs:
    """Accepts every submit; every job reads as ``running`` until
    ``flip_at`` and as ``end_state`` after it."""

    def __init__(self, flip_at: float, end_state: str) -> None:
        self.flip_at = flip_at
        self.end_state = end_state
        self.submitted = 0

    async def request(self, method, path, body, timeout):
        await asyncio.sleep(0.001)
        if method == "POST":
            self.submitted += 1
            job = {"id": f"job-{self.submitted}", "state": "queued"}
            return 202, json.dumps({"job": job}).encode()
        state = "running" if time.perf_counter() < self.flip_at else self.end_state
        return 200, json.dumps({"job": {"id": path.rsplit("/", 1)[1], "state": state}}).encode()


def drive(end_state: str) -> LiveRun:
    run = LiveRun(WORKLOADS["durable"], Inputs(1, {"globals": {}}))
    deadline = time.perf_counter() + 0.1
    server = ScriptedJobs(flip_at=deadline + 0.05, end_state=end_state)
    asyncio.run(_job_loop(server, deadline, run))
    return run


def test_jobs_failing_while_the_window_drains_are_counted():
    run = drive("failed")
    assert run.late_failures == {"job_failed": 4}
    assert run.late_finished == 0
    assert run.ops["job"].attempted == 0


def test_jobs_finishing_while_the_window_drains_are_kept_for_checks():
    run = drive("succeeded")
    assert run.late_finished == 4 and not run.late_failures
    assert [entry[1] for entry in run.kept] == [None] * 4
