"""Spans recorded by the benchmark around calls into the program's layers.

The traced replay patches public functions of ``repro`` (and the one
library routine the measures call, ``scipy.linalg.expm``) with thin
wrappers that record ``(name, start_ns, end_ns)``.  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` restores every original.

Two kinds of span:

* **layer** spans tile the operation: self time is the span minus its
  layer children, and the self times of one operation add up to its
  traced duration.
* **drill** spans (the measures stages and ``expm``) break one layer's
  time down further.  They report their own inclusive time and calls
  but are transparent to layer self time, so ``core.measures`` stays
  the whole measures stage.

A layer span opened while another span of the same layer is open on
the same thread is folded into the outer one when its patch says so
(``JobStore.cancel_requested`` reads through ``JobStore.get``, and the
engine's sweep calls its own point task).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Callable, Dict, List, Tuple

from stats import self_times

#: (owner module, attribute path, span name, kind, fold same layer).
#: The owner is where callers look the name up, so each entry patches
#: the binding the program actually calls through.
PATCHES: Tuple[Tuple[str, str, str, str, bool], ...] = (
    ("repro.service.app", "App.handle", "service.handle", "layer", False),
    ("repro.service.protocol", "Request.json", "service.decode", "layer", False),
    ("repro.service.queue", "SolveQueue.solve", "service.queue_wait", "layer", False),
    ("repro.service.app", "json_response", "service.encode", "layer", False),
    ("repro.service.app", "solution_payload", "service.encode", "layer", False),
    ("repro.service.protocol", "Response.encode", "service.encode", "layer", False),
    ("repro.service.app", "parse_spec", "spec.parse", "layer", False),
    ("repro.jobs.types", "parse_spec", "spec.parse", "layer", False),
    ("repro.jobs.runner", "parse_spec", "spec.parse", "layer", False),
    ("repro.registry.registry", "ModelRegistry.resolve_spec", "registry.resolve", "layer", False),
    ("repro.engine.engine", "Engine.solve", "engine.lookup", "layer", False),
    ("repro.engine.engine", "block_digest", "engine.digest", "layer", False),
    ("repro.engine.engine", "Engine.sweep_block_field", "engine.sweep", "layer", True),
    ("repro.engine.engine", "_sweep_point_task", "engine.sweep", "layer", True),
    ("repro.jobs.runner", "_sweep_point_task", "engine.sweep", "layer", True),
    ("repro.engine.engine", "translate", "core.translate", "layer", False),
    ("repro.core.translator", "generate_block_chain", "core.generate", "layer", False),
    ("repro.core.translator", "solve_steady", "num.steady", "layer", False),
    ("repro.service.app", "compute_measures", "core.measures", "layer", False),
    ("repro.core.translator", "SystemSolution.point_availability_grid", "core.measures.interval", "drill", False),
    ("repro.core.measures", "system_mttf", "core.measures.mttf", "drill", False),
    ("scipy.linalg", "expm", "num.expm", "drill", False),
    ("repro.jobs.store", "JobStore.submit", "store.submit", "layer", True),
    ("repro.jobs.store", "JobStore.get", "store.get", "layer", True),
    ("repro.jobs.store", "JobStore.lease", "store.lease", "layer", True),
    ("repro.jobs.store", "JobStore.heartbeat", "store.heartbeat", "layer", True),
    ("repro.jobs.store", "JobStore.succeed", "store.succeed", "layer", True),
    ("repro.jobs.store", "JobStore.cancel_requested", "store.cancel_check", "layer", True),
    ("repro.jobs.runner", "Checkpointer.save", "jobs.checkpoint", "layer", False),
    ("repro.jobs.runner", "execute_job", "jobs.solve", "layer", False),
)

#: Every span name the patches can record, in report order.
LAYER_SPANS = tuple(dict.fromkeys(p[2] for p in PATCHES if p[3] == "layer"))
DRILL_SPANS = tuple(dict.fromkeys(p[2] for p in PATCHES if p[3] == "drill"))


class Tracer:
    """Installs the span wrappers and collects what they record."""

    def __init__(self) -> None:
        self.layer: List[Tuple[str, int, int]] = []
        self.drill: List[Tuple[str, int, int]] = []
        self._open = threading.local()
        self._originals: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def take(self) -> Tuple[List, List]:
        """Hand over and reset the spans recorded so far."""
        layer, self.layer = self.layer, []
        drill, self.drill = self.drill, []
        return layer, drill

    def _folded(self, layer: str) -> bool:
        return getattr(self._open, layer, 0) > 0

    def _enter(self, layer: str) -> None:
        setattr(self._open, layer, getattr(self._open, layer, 0) + 1)

    def _exit(self, layer: str) -> None:
        setattr(self._open, layer, getattr(self._open, layer) - 1)

    def _wrap(self, fn: Callable, name: str, kind: str, fold: bool):
        layer = name.split(".", 1)[0]
        clock = time.perf_counter_ns
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.layer.append((name, start, clock()))

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fold:
                if tracer._folded(layer):
                    return fn(*args, **kwargs)
                tracer._enter(layer)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if fold:
                    tracer._exit(layer)
                (tracer.layer if kind == "layer" else tracer.drill).append(
                    (name, start, end)
                )

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            return
        for module_name, path, name, kind, fold in PATCHES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind, fold))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def layer_self_ms(spans: List[Tuple[str, int, int]]) -> Dict[str, float]:
    """Self time per layer span name, in milliseconds."""
    return {name: ns / 1e6 for name, ns in self_times(spans).items()}


def drill_totals(spans: List[Tuple[str, int, int]]) -> Dict[str, Tuple[float, int]]:
    """Inclusive milliseconds and call count per drill span name."""
    out: Dict[str, Tuple[float, int]] = {}
    for name, start, end in spans:
        ms, calls = out.get(name, (0.0, 0))
        out[name] = (ms + (end - start) / 1e6, calls + 1)
    return out
