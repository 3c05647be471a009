"""Seeded request generation for the three workloads.

Every input is a pure function of the seed: the same seed gives the
same request sequence, byte for byte, and each stream (hot set, solve
mix, sweeps, jobs, probe pacing, warm-up) draws from its own
``random.Random`` so that consuming more of one never shifts another.
All workloads use one model family, the library E10000 server, so that
no percentile sits on the boundary between two model costs.
"""

from __future__ import annotations

import copy
import json
import random
from typing import Dict, Iterator, List

#: Hot ``model_ref`` variants published during set-up (``solve``).
HOT_VARIANTS = 8
#: Hot and cold requests in every block of ten ``solve`` requests.
#: 70 % hot puts p50 inside the hot group and p90 inside the cold one.
HOT_PER_TEN = 7
#: The swept block field (``sweep`` and ``durable``).
SWEEP_BLOCK = "E10000 Server/Memory Bank"
SWEEP_FIELD = "mtbf_hours"
SWEEP_RANGE = (400_000.0, 1_600_000.0)
SWEEP_POINTS = 32
#: ``durable`` job size and checkpoint interval.  Jobs of 8 points with a
#: checkpoint every 2 made job throughput swing by up to 2x between runs
#: on a shared disk and two CPUs; 32 points with a checkpoint every 8
#: swung no more than the CPU-bound ``sweep`` did at the same time.
JOB_POINTS = 32
CHECKPOINT_EVERY = 8
#: Fresh global values for cold ``solve`` specs and hot variants.
REBOOT_RANGE = (10.0, 40.0)
MTTM_RANGE = (12.0, 48.0)
#: Mean gap between ``/healthz`` probes, in seconds (uniform +-50 %).
PROBE_GAP = 0.02
#: Mean gap between ``durable`` status reads of one job (uniform +-50 %).
#: Jittered so that job completions are not seen on a fixed 20 ms grid,
#: which put the turnaround median on one of a few grid points.
STATUS_GAP = 0.02


def hot_name(index: int) -> str:
    return f"perfbench-e10000-{index}"


def hot_ref(index: int) -> str:
    return f"{hot_name(index)}@latest"


class Inputs:
    """All generated inputs of one seed, over one base spec document."""

    def __init__(self, seed: int, base_spec: Dict[str, object]) -> None:
        self.seed = int(seed)
        self.base = base_spec

    def _rng(self, stream: str) -> random.Random:
        return random.Random(f"perfbench/{self.seed}/{stream}")

    def _with_globals(self, rng: random.Random) -> Dict[str, object]:
        doc = copy.deepcopy(self.base)
        doc["globals"]["reboot_minutes"] = rng.uniform(*REBOOT_RANGE)
        doc["globals"]["mttm_hours"] = rng.uniform(*MTTM_RANGE)
        return doc

    # ------------------------------------------------------------------
    # solve
    # ------------------------------------------------------------------
    def hot_specs(self) -> List[Dict[str, object]]:
        """The hot set, published under :func:`hot_name` names."""
        rng = self._rng("hot")
        return [self._with_globals(rng) for _ in range(HOT_VARIANTS)]

    def solve_requests(self, stream: str = "solve") -> Iterator[Dict]:
        """Endless ``POST /v1/solve`` bodies, 70 % hot and 30 % cold.

        Each item is ``{"hot": index or None, "body": {...}}``; cold
        bodies carry an inline spec with fresh global values, so they
        miss the engine's system cache.
        """
        rng = self._rng(stream)
        while True:
            kinds = [True] * HOT_PER_TEN + [False] * (10 - HOT_PER_TEN)
            rng.shuffle(kinds)
            for hot in kinds:
                if hot:
                    index = rng.randrange(HOT_VARIANTS)
                    yield {"hot": index, "body": {"model_ref": hot_ref(index)}}
                else:
                    yield {"hot": None, "body": {"spec": self._with_globals(rng)}}

    def warm_solves(self) -> List[Dict]:
        """One hot and one cold request from the warm-up stream."""
        block = take(self.solve_requests("warm"), 10)
        return [
            next(item for item in block if (item["hot"] is None) == cold)
            for cold in (False, True)
        ]

    # ------------------------------------------------------------------
    # sweep and durable
    # ------------------------------------------------------------------
    def _values(self, rng: random.Random, count: int) -> List[float]:
        return [rng.uniform(*SWEEP_RANGE) for _ in range(count)]

    def sweep_requests(self, stream: str = "sweep") -> Iterator[Dict]:
        """Endless 32-point ``POST /v1/sweep`` bodies with fresh values."""
        rng = self._rng(stream)
        while True:
            yield {
                "spec": self.base,
                "block": SWEEP_BLOCK,
                "field": SWEEP_FIELD,
                "values": self._values(rng, SWEEP_POINTS),
            }

    def job_requests(self, stream: str = "jobs") -> Iterator[Dict]:
        """Endless 32-point sweep job submissions with fresh values."""
        rng = self._rng(stream)
        while True:
            yield {
                "kind": "sweep",
                "spec": self.base,
                "params": {
                    "block": SWEEP_BLOCK,
                    "field": SWEEP_FIELD,
                    "values": self._values(rng, JOB_POINTS),
                },
            }

    # ------------------------------------------------------------------
    # pacing
    # ------------------------------------------------------------------
    def gaps(self, stream: str, mean: float) -> Iterator[float]:
        """Seeded pacing gaps in seconds, uniform within +-50 % of ``mean``."""
        rng = self._rng(stream)
        while True:
            yield mean * rng.uniform(0.5, 1.5)


def take(iterator: Iterator, count: int) -> List:
    return [next(iterator) for _ in range(count)]


def encode(body: Dict[str, object]) -> bytes:
    return json.dumps(body).encode("utf-8")
