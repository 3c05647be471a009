"""Paths, child-process environment and the run's working directory.

Everything the benchmark writes lands under ``.perfbench_work/`` at the
root of the checkout, and the directory of one run is removed when the
run ends.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"


class BenchError(RuntimeError):
    """A failure that ends the run without a result line."""


def require_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or fail.

    The benchmark measures the program in the checkout it runs from;
    without that source there is nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class WorkDir:
    """A fresh per-run directory under ``.perfbench_work/``."""

    def __init__(self, label: str) -> None:
        self.path = WORK_ROOT / f"{label}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        (self.path / "tmp").mkdir()
        (self.path / "cache").mkdir()

    def sub(self, name: str) -> Path:
        """A new empty subdirectory."""
        target = self.path / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        return target

    def env(self) -> dict:
        """The environment for child processes and in-process stores.

        ``RASCAD_CACHE_DIR`` and ``TMPDIR`` keep every default location
        the program writes to inside the checkout.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        env["RASCAD_CACHE_DIR"] = str(self.path / "cache")
        env["TMPDIR"] = str(self.path / "tmp")
        return env

    def adopt_env(self) -> None:
        """Point this process's default locations into the work dir."""
        os.environ["RASCAD_CACHE_DIR"] = str(self.path / "cache")
        os.environ["TMPDIR"] = str(self.path / "tmp")

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
