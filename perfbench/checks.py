"""Output checks, run after the timed window against in-process results.

* ``solve``: every hot response, and a seeded sample of cold ones,
  equals ``solution_payload(Engine().solve(parse_spec(doc)))`` field
  for field.
* ``sweep``: every response equals an in-process
  ``Engine.sweep_block_field`` over its values.
* ``durable``: every job's ``result_digest`` equals that of an
  in-process ``execute_job`` of the same ``JobSpec``.

A response that differs is a wrong answer: its operation is failed.
Recomputing every sweep and job costs about as much CPU as the window
did, so those answers are split over the workload's check processes,
each with its own engine.  They are plain child processes running this
file, and every one is waited for before the checks return.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import BenchError, require_source
from inputs import CHECKPOINT_EVERY, Inputs

#: Cold ``solve`` responses checked in full (every hot one is).
COLD_SAMPLE = 8


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True)


class Checker:
    """The in-process engine one check process compares answers with."""

    def __init__(self, inputs: Inputs, work_dir) -> None:
        from repro.engine import Engine

        self.inputs = inputs
        self.work_dir = work_dir
        self.engine = Engine()
        self.expected_hot: Dict[int, str] = {}

    def expected_solve(self, doc: Dict[str, object]) -> str:
        from repro.service.app import solution_payload
        from repro.spec import parse_spec

        return _canonical(solution_payload(self.engine.solve(parse_spec(doc))))


def wrong_answers(workload, inputs: Inputs, work_dir, kept: List[tuple]) -> Tuple[List[tuple], int]:
    """``(wrong entries, checked count)`` of the kept
    ``(op, index, item, body)`` entries.

    Entries without a body already failed as requests.
    """
    answered = [entry for entry in kept if entry[3] is not None]
    selected = workload.select(inputs, answered)
    processes = workload.check_processes
    if processes == 1:
        return workload.check(Checker(inputs, work_dir), selected), len(selected)
    chunks = [selected[i::processes] for i in range(processes)]
    chunks = [chunk for chunk in chunks if chunk]
    results = _check_in_children(workload, inputs, work_dir, chunks)
    wrong = [chunk[i] for chunk, indices in zip(chunks, results) for i in indices]
    return wrong, len(selected)


#: Seconds all check processes of one run may take together.
CHECK_TIMEOUT = 90.0


def _check_in_children(workload, inputs: Inputs, work_dir, chunks) -> List[List[int]]:
    """Check each chunk in a child process of its own; returns the
    indices of the wrong entries of each chunk.

    The children are started with ``subprocess`` rather than
    ``multiprocessing``: the latter leaves a resource-tracker process
    behind that outlives the run.  A fresh interpreter also avoids
    sharing this process's OpenBLAS thread pool, with which forked
    checks ran up to 4x slower.
    """
    children = []
    try:
        for number, chunk in enumerate(chunks):
            base = Path(work_dir) / f"check-{number}"
            task = base.with_suffix(".task")
            task.write_bytes(pickle.dumps((workload.name, inputs, work_dir, chunk)))
            with open(base.with_suffix(".err"), "wb") as err:
                process = subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), str(task)],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                )
            children.append((process, base))
        deadline = time.perf_counter() + CHECK_TIMEOUT
        results = []
        for process, base in children:
            try:
                process.wait(timeout=max(0.0, deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                raise BenchError("the check processes did not finish in time") from None
            if process.returncode != 0:
                error = base.with_suffix(".err").read_text(errors="replace")
                raise BenchError(
                    f"a check process exited with {process.returncode}:\n{error[-1500:]}"
                )
            results.append(json.loads(base.with_suffix(".json").read_text()))
        return results
    finally:
        for process, _ in children:
            if process.poll() is None:
                process.kill()
            process.wait()


def check_main(task: Path) -> int:
    """Check one pickled chunk; write the wrong indices beside it."""
    require_source()
    from workloads import WORKLOADS

    name, inputs, work_dir, chunk = pickle.loads(task.read_bytes())
    checker = Checker(inputs, work_dir)
    wrong = {id(entry) for entry in WORKLOADS[name].check(checker, chunk)}
    indices = [i for i, entry in enumerate(chunk) if id(entry) in wrong]
    task.with_suffix(".json").write_text(json.dumps(indices))
    return 0


# ----------------------------------------------------------------------
# per workload: which answers to check, and how
# ----------------------------------------------------------------------
def select_all(inputs: Inputs, entries: List[tuple]) -> List[tuple]:
    return entries


def select_solves(inputs: Inputs, entries: List[tuple]) -> List[tuple]:
    """Every hot answer and a seeded sample of :data:`COLD_SAMPLE` cold ones."""
    cold = [entry for entry in entries if entry[2]["hot"] is None]
    if len(cold) > COLD_SAMPLE:
        rng = random.Random(f"perfbench/{inputs.seed}/check/cold")
        cold = rng.sample(cold, COLD_SAMPLE)
    sampled = {id(entry) for entry in cold}
    return [e for e in entries if e[2]["hot"] is not None or id(e) in sampled]


def check_solves(checker: Checker, entries: List[tuple]) -> List[tuple]:
    hot = checker.inputs.hot_specs()
    wrong = []
    for entry in entries:
        index = entry[2]["hot"]
        if index is None:
            expected = checker.expected_solve(entry[2]["body"]["spec"])
        else:
            if index not in checker.expected_hot:
                checker.expected_hot[index] = checker.expected_solve(hot[index])
            expected = checker.expected_hot[index]
        if _canonical(json.loads(entry[3])) != expected:
            wrong.append(entry)
    return wrong


def check_sweeps(checker: Checker, entries: List[tuple]) -> List[tuple]:
    from repro.spec import parse_spec

    wrong = []
    for entry in entries:
        request = entry[2]
        model = parse_spec(request["spec"])
        points = checker.engine.sweep_block_field(
            model, request["block"], request["field"], request["values"]
        )
        expected = {
            "model": model.name,
            "field": request["field"],
            "block": request["block"],
            "points": [
                {
                    "value": point.value,
                    "availability": point.availability,
                    "yearly_downtime_minutes": point.yearly_downtime_minutes,
                }
                for point in points
            ],
        }
        if _canonical(json.loads(entry[3])) != _canonical(expected):
            wrong.append(entry)
    return wrong


def check_jobs(checker: Checker, entries: List[tuple]) -> List[tuple]:
    from repro.jobs import JobSpec, JobStore
    from repro.jobs.runner import Checkpointer, execute_job

    store = JobStore(":memory:")
    checkpointer = Checkpointer(checker.work_dir / f"check-checkpoints-{os.getpid()}")
    wrong = []
    try:
        for entry in entries:
            request = entry[2]
            spec = JobSpec(
                kind=request["kind"], spec=request["spec"], params=request["params"],
            )
            record, _ = store.submit(spec)
            leased = store.lease(worker="perfbench-check")
            execute_job(
                leased, store, checker.engine, checkpointer,
                checkpoint_every=CHECKPOINT_EVERY,
            )
            expected = store.get(record.id).result
            served = json.loads(entry[3])["job"]
            if (
                served["id"] != record.id
                or served["result"] is None
                or expected is None
                or served["result"]["result_digest"] != expected["result_digest"]
            ):
                wrong.append(entry)
    finally:
        store.close()
    return wrong


if __name__ == "__main__":
    # Import this file under its module name, as ``workloads`` does,
    # so the pickled inputs and the checks come from one module.
    import checks

    sys.exit(checks.check_main(Path(sys.argv[1])))
