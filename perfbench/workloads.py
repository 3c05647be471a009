"""The three workloads, each described in one place.

A :class:`Workload` holds everything that differs between workloads:
its primary operation, its seeded request stream, its set-up and warm-up
requests, the length of its traced replay, the HTTP requests one
replayed operation makes, and the check its answers go through.  The
live run (``live.py``), the replay (``replay.py``), the checks
(``checks.py``) and the metrics (``run.py``) read it from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

import checks
from inputs import Inputs, hot_name, take

#: Status reads per replayed job: one while queued, one when done.
READS_PER_JOB = 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: The operation whose latency is ``p50_ms``/``p90_ms`` and whose
    #: completions make ``ops_per_s``.
    primary: str
    #: The endpoint one generated item is posted to.
    path: str
    #: Job workloads submit to ``/v1/jobs`` and wait for a worker
    #: process; the others make one request per operation.
    jobs: bool
    #: The endless seeded item stream: ``stream(inputs, stream_name)``.
    stream: Callable[..., Iterator[Dict]]
    #: The request body of one item.
    body: Callable[[Dict], Dict]
    #: Untimed items sent once during set-up, after :attr:`setup`.
    warm: Callable[[Inputs], List[Dict]]
    #: Checks kept ``(op, index, item, body)`` answers against a
    #: :class:`checks.Checker`; returns the wrong ones.
    check: Callable[..., List[tuple]]
    #: Operations per traced replay; fixed, not timed, so counts repeat.
    replay_ops: int
    #: The HTTP requests one replayed operation makes, as
    #: ``(operation log, count)``: what ``unattributed_ms`` compares.
    http_ops: Tuple[Tuple[str, int], ...]
    #: Set-up requests ``(method, path, body)`` that publish state the
    #: timed requests rely on.
    setup: Callable[[Inputs], List[Tuple[str, str, Dict]]] = lambda inputs: []
    #: The answered entries to check: ``select(inputs, entries)``.
    select: Callable[[Inputs, List[tuple]], List[tuple]] = checks.select_all
    #: Processes the checks are split over, after the window.
    check_processes: int = 2


def _publish_hot_set(inputs: Inputs) -> List[Tuple[str, str, Dict]]:
    return [
        ("POST", "/v1/models", {"name": hot_name(index), "spec": doc})
        for index, doc in enumerate(inputs.hot_specs())
    ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="solve",
            primary="solve",
            path="/v1/solve",
            jobs=False,
            stream=Inputs.solve_requests,
            body=lambda item: item["body"],
            setup=_publish_hot_set,
            warm=Inputs.warm_solves,
            select=checks.select_solves,
            check=checks.check_solves,
            # Few answers to recompute, most of them BLAS-bound measures;
            # two check processes, each with its own OpenBLAS threads,
            # only oversubscribe two CPUs.
            check_processes=1,
            replay_ops=20,
            http_ops=(("solve", 1),),
        ),
        Workload(
            name="sweep",
            primary="sweep",
            path="/v1/sweep",
            jobs=False,
            stream=Inputs.sweep_requests,
            body=lambda item: item,
            warm=lambda inputs: take(inputs.sweep_requests("warm"), 1),
            check=checks.check_sweeps,
            replay_ops=12,
            http_ops=(("sweep", 1),),
        ),
        Workload(
            name="durable",
            primary="job",
            path="/v1/jobs",
            jobs=True,
            stream=Inputs.job_requests,
            body=lambda item: item,
            warm=lambda inputs: take(inputs.job_requests("warm"), 1),
            check=checks.check_jobs,
            replay_ops=12,
            http_ops=(("submit", 1), ("status", READS_PER_JOB)),
        ),
    )
}
