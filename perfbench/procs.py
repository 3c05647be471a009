"""The live system under test: a ``rascad serve`` and, for ``durable``,
a ``rascad jobs worker`` sharing its job database.

Both run as child processes of the benchmark from the checkout's
``src``; their output goes to files in the run's work directory, and
:meth:`System.stop` ends them and waits for them.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from common import BenchError, WorkDir

LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")
#: The CPUs this process may use when it starts (before any pinning).
CPUS = sorted(os.sched_getaffinity(0))
START_TIMEOUT = 90.0
STOP_TIMEOUT = 20.0


def _tail(path: Path, lines: int = 20) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


class Child:
    """One child process with its stdout/stderr captured to files."""

    def __init__(self, name: str, argv: List[str], directory: Path, env) -> None:
        self.name = name
        self.out = directory / f"{name}.out"
        self.err = directory / f"{name}.err"
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            self.process = subprocess.Popen(
                argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=env, cwd=str(directory),
            )

    def wait_for_output(self, pattern: re.Pattern, deadline: float):
        """Block until stdout matches ``pattern``; returns the match."""
        while True:
            try:
                match = pattern.search(self.out.read_text(errors="replace"))
            except OSError:
                match = None
            if match:
                return match
            if self.process.poll() is not None:
                raise BenchError(
                    f"{self.name} exited with {self.process.returncode}:\n"
                    f"{_tail(self.err)}"
                )
            if time.perf_counter() > deadline:
                raise BenchError(f"{self.name} did not start in time")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` from ``/proc``: the process's peak resident memory."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def signal_stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)

    def reap(self) -> None:
        try:
            self.process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


class System:
    """A server, plus a worker when a job database is configured."""

    def __init__(self, work: WorkDir, label: str, jobs_db: Optional[Path]) -> None:
        self.directory = work.sub(label)
        self.env = work.env()
        self.jobs_db = jobs_db
        self.server: Optional[Child] = None
        self.worker: Optional[Child] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)

    def spawn(self) -> None:
        """Start the processes; :meth:`wait_listening` waits for them."""
        python = sys.executable
        argv = [
            python, "-m", "repro", "serve", "--host", "127.0.0.1",
            "--port", "0", "--request-timeout", "60",
        ]
        if self.jobs_db is not None:
            argv += ["--jobs-db", str(self.jobs_db)]
        self.server = Child("server", argv, self.directory, self.env)
        if self.jobs_db is not None:
            from inputs import CHECKPOINT_EVERY

            self.worker = Child(
                "worker",
                [
                    python, "-m", "repro", "jobs", "worker",
                    "--db", str(self.jobs_db), "--poll", "0.2",
                    "--checkpoint-every", str(CHECKPOINT_EVERY),
                ],
                self.directory, self.env,
            )
            self._pin_worker()

    def _pin_worker(self) -> None:
        """Give the worker a CPU of its own; the server and this
        generator share the rest.

        Three busy processes on two CPUs otherwise run wherever the
        scheduler happens to place them, and job turnaround jumps
        between a fast and a slow mode from run to run.
        """
        if len(CPUS) < 2:
            return
        shared = set(CPUS[:-1])
        os.sched_setaffinity(self.worker.process.pid, {CPUS[-1]})
        os.sched_setaffinity(self.server.process.pid, shared)
        os.sched_setaffinity(0, shared)

    def wait_listening(self) -> Tuple[str, int]:
        deadline = time.perf_counter() + START_TIMEOUT
        match = self.server.wait_for_output(LISTENING, deadline)
        self.address = (match.group(1), int(match.group(2)))
        if self.worker is not None:
            self.worker.wait_for_output(re.compile(r"polling"), deadline)
        return self.address

    def peak_rss_mb(self) -> float:
        return sum(c.peak_rss_mb() for c in self.children())

    def children(self) -> List[Child]:
        return [c for c in (self.server, self.worker) if c is not None]

    def stop(self) -> None:
        for child in self.children():
            child.signal_stop()
        for child in self.children():
            child.reap()
        os.sched_setaffinity(0, CPUS)
        # Processes that ran into trouble leave their tracebacks here.
        for child in self.children():
            if child.process.returncode not in (0, -signal.SIGTERM):
                raise BenchError(
                    f"{child.name} exited with {child.process.returncode}:\n"
                    f"{_tail(child.err)}"
                )
