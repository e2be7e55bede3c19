"""Timing wrappers for the traced run, installed from outside the program.

Each wrapper replaces a public function or method at the name where the
program looks it up (``plan_batch`` as bound in ``repro.serve.batcher``,
``AdmissionQueue.oldest_arrival`` on its class, ...).  Untraced runs never
import this module, so they carry no wrapper at all.

Two kinds of call are recorded:

* *coarse* calls (engine runs, control epochs, plans, candidate
  evaluations) keep one span each -- name, start, end, round and the index
  of the enclosing coarse span -- in memory; they are written out when the
  run ends;
* *per-event* calls (``oldest_arrival``, ``batch_seconds``, ``offer``,
  ...) only aggregate a call count and self time, so a traced run of
  hundreds of thousands of events still fits in memory.

Self time is a call's duration minus the time covered by wrapped calls
made inside it, whichever kind they are.
"""

from __future__ import annotations

import importlib
import json
import os
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "install", "PER_LAYER"]

#: (metric, unit, better) for every per-layer metric, in report order;
#: BENCHMARK.json's ``per_layer`` list mirrors this table
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("serve.queue.offer.calls", "count", "lower"),
    ("serve.queue.oldest_arrival.calls", "count", "lower"),
    ("serve.queue.oldest_arrival.self_s", "s", "lower"),
    ("serve.queue.pop_batch.calls", "count", "lower"),
    ("serve.queue.pop_batch.self_s", "s", "lower"),
    ("serve.queue.depth_at_pop_mean", "requests", "lower"),
    ("serve.batcher.batch_seconds.calls", "count", "lower"),
    ("serve.batcher.batch_seconds.self_s", "s", "lower"),
    ("serve.batcher.memo_hit_rate", "ratio", "higher"),
    ("serve.batcher.memo_entries", "count", "lower"),
    ("serve.engine.run.self_s", "s", "lower"),
    ("serve.engine.advance_to.calls", "count", "lower"),
    ("serve.engine.advance_to.self_s", "s", "lower"),
    ("serve.engine.busy_overlap.calls", "count", "lower"),
    ("serve.engine.busy_overlap.self_s", "s", "lower"),
    ("serve.engine.finish.self_s", "s", "lower"),
    ("serve.metrics.summary.self_s", "s", "lower"),
    ("serve.failover.run.calls", "count", "lower"),
    ("serve.failover.run.self_s", "s", "lower"),
    ("control.telemetry.observe.calls", "count", "lower"),
    ("control.telemetry.observe.self_s", "s", "lower"),
    ("control.policy.plan.self_s", "s", "lower"),
    ("control.actuator.apply.self_s", "s", "lower"),
    ("control.verifier.check.self_s", "s", "lower"),
    ("control.epoch_p50_ms", "ms", "lower"),
    ("control.epoch_p99_ms", "ms", "lower"),
    ("resilience.degrade.self_s", "s", "lower"),
    ("cluster.replica.batch_seconds.calls", "count", "lower"),
    ("cluster.replica.batch_seconds.self_s", "s", "lower"),
    ("capacity.bounds.self_s", "s", "lower"),
    ("capacity.evaluate.calls", "count", "lower"),
    ("capacity.evaluate.self_s", "s", "lower"),
    ("capacity.pruned", "count", "higher"),
    ("adaptive.plan_network.calls", "count", "lower"),
    ("adaptive.plan_network.self_s", "s", "lower"),
    ("adaptive.plan_batch.calls", "count", "lower"),
    ("adaptive.plan_batch.self_s", "s", "lower"),
    ("perf.cache.hits", "count", "higher"),
    ("perf.cache.misses", "count", "lower"),
    ("perf.cache.hit_rate", "ratio", "higher"),
    ("perf.cache.schedule_s", "s", "lower"),
    ("perf.cache.entries", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
)

#: (module, attribute path, layer name, coarse?) -- every wrapped name.
#: A function bound under several module names is wrapped at each one,
#: because callers look it up where they imported it.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.serve.queue", "AdmissionQueue.offer", "serve.queue.offer", False),
    (
        "repro.serve.queue",
        "AdmissionQueue.oldest_arrival",
        "serve.queue.oldest_arrival",
        False,
    ),
    ("repro.serve.queue", "AdmissionQueue.pop_batch", "serve.queue.pop_batch", False),
    (
        "repro.serve.batcher",
        "BatchCoster.batch_seconds",
        "serve.batcher.batch_seconds",
        False,
    ),
    ("repro.serve.engine", "ServingEngine.run", "serve.engine.run", True),
    (
        "repro.serve.engine",
        "AdaptiveServingEngine.advance_to",
        "serve.engine.advance_to",
        True,
    ),
    (
        "repro.serve.engine",
        "AdaptiveServingEngine.busy_overlap",
        "serve.engine.busy_overlap",
        False,
    ),
    ("repro.serve.engine", "AdaptiveServingEngine.finish", "serve.engine.finish", True),
    ("repro.serve.metrics", "MetricsCollector.summary", "serve.metrics.summary", False),
    ("repro.serve.failover", "FailoverEngine.run", "serve.failover.run", True),
    ("repro.control.loop", "ControlLoop.run", "control.loop.run", True),
    (
        "repro.control.healing",
        "SelfHealingControlLoop.run",
        "control.loop.run",
        True,
    ),
    ("repro.control.telemetry", "Detector.observe", "control.telemetry.observe", True),
    ("repro.control.policy", "Planner.plan", "control.policy.plan", False),
    ("repro.control.actuator", "Actuator.apply", "control.actuator.apply", False),
    ("repro.control.chaos", "FlakyActuator.apply", "control.actuator.apply", False),
    ("repro.control.verifier", "Verifier.check", "control.verifier.check", False),
    ("repro.control.healing", "degraded_config", "resilience.degrade", False),
    ("repro.control.chaos", "degraded_config", "resilience.degrade", False),
    (
        "repro.cluster.replica",
        "PipelinedReplica.batch_seconds",
        "cluster.replica.batch_seconds",
        False,
    ),
    ("repro.capacity.planner", "candidate_capacity_rps", "capacity.bounds", False),
    ("repro.capacity.planner", "attainment_bound", "capacity.bounds", False),
    ("repro.serve.candidates", "evaluate_candidate", "capacity.evaluate", True),
    ("repro.adaptive.planner", "plan_network", "adaptive.plan_network", True),
    ("repro.resilience.degrade", "plan_network", "adaptive.plan_network", True),
    ("repro.adaptive.batch", "plan_batch", "adaptive.plan_batch", True),
    ("repro.serve.batcher", "plan_batch", "adaptive.plan_batch", True),
    ("repro.adaptive.planner", "cached_schedule", "perf.cache.schedule", False),
    ("repro.adaptive.search", "cached_schedule", "perf.cache.schedule", False),
)


class Tracer:
    """Call counts, self times and coarse spans of the wrapped calls."""

    def __init__(self) -> None:
        #: open frames: [child seconds, index of nearest open coarse span]
        self._stack: List[List] = []
        #: per-round aggregates: layer -> [calls, self seconds]
        self.agg: Dict[str, List] = {}
        #: coarse spans: (name, start, end, parent index or -1, round)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.round = 0
        self.depth_sum = 0
        self.depth_pops = 0
        #: every BatchCoster built this round (memo counters are public)
        self.costers: List[object] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        name: str,
        coarse: bool,
        before: Optional[Callable] = None,
    ) -> Callable:
        stack = self._stack
        agg = self.agg
        spans = self.spans

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1][1] if stack else -1
            index = -1
            if coarse:
                index = len(spans)
                spans.append(None)  # reserved: children link to this index
            frame = [0.0, index if coarse else parent]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                entry = agg.get(name)
                if entry is None:
                    entry = agg[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if coarse:
                    spans[index] = (name, start, end, parent, self.round)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every name in :data:`TARGETS` (plus the depth/coster hooks)."""
        for module_name, path, name, coarse in TARGETS:
            owner: object = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            before = None
            if path == "AdmissionQueue.pop_batch":
                before = self._note_depth
            fn = owner.__dict__[attr]
            self._patch(owner, attr, self._wrap(fn, name, coarse, before))
        from repro.serve.batcher import BatchCoster

        init = BatchCoster.__dict__["__init__"]
        costers = self.costers

        def registering_init(coster, *args, **kwargs):
            init(coster, *args, **kwargs)
            costers.append(coster)

        self._patch(BatchCoster, "__init__", registering_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _note_depth(self, args) -> None:
        self.depth_sum += len(args[0])
        self.depth_pops += 1

    # -- per-round bookkeeping ---------------------------------------------

    def end_round(self, wall_s: float, cache_stats) -> Dict[str, float]:
        """Reduce this round's aggregates to per-layer values; reset them."""
        values: Dict[str, float] = {}

        def calls(name: str) -> int:
            return self.agg.get(name, (0, 0.0))[0]

        def self_s(name: str) -> float:
            return self.agg.get(name, (0, 0.0))[1]

        for metric, _, _ in PER_LAYER:
            stem, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls(stem)
            elif kind == "self_s":
                values[metric] = self_s(stem)
        values["serve.queue.depth_at_pop_mean"] = (
            self.depth_sum / self.depth_pops if self.depth_pops else 0.0
        )
        hits = sum(c.memo_hits for c in self.costers)
        misses = sum(c.memo_misses for c in self.costers)
        values["serve.batcher.memo_hit_rate"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        # one memo entry is stored per miss
        values["serve.batcher.memo_entries"] = misses
        values["perf.cache.hits"] = cache_stats.hits
        values["perf.cache.misses"] = cache_stats.misses
        values["perf.cache.hit_rate"] = cache_stats.hit_rate
        values["perf.cache.entries"] = cache_stats.size
        values["perf.cache.schedule_s"] = self_s("perf.cache.schedule")
        values["trace.wall_s"] = wall_s
        self.agg.clear()
        self.costers.clear()
        self.depth_sum = self.depth_pops = 0
        self.round += 1
        return values

    def epoch_ms(self, scales: Sequence[float]) -> List[float]:
        """Milliseconds per control epoch, over every traced round.

        ``scales[r]`` converts round ``r``'s host time to reference-speed
        time (see ``run.py``).

        A control loop calls ``advance_to`` exactly once per epoch, so an
        epoch runs from the start of one top-level ``advance_to`` span to
        the start of the next, and the last one ends where ``finish``
        starts.
        """
        children: Dict[int, List[Tuple[str, float]]] = {}
        for name, start, _, parent, _ in self.spans:
            if name in ("serve.engine.advance_to", "serve.engine.finish"):
                children.setdefault(parent, []).append((name, start))
        out: List[float] = []
        for index, (name, _, _, _, round_) in enumerate(self.spans):
            if name != "control.loop.run":
                continue
            marks = sorted(children.get(index, ()), key=lambda m: m[1])
            for (kind, start), (_, nxt) in zip(marks, marks[1:]):
                if kind == "serve.engine.advance_to":
                    out.append((nxt - start) * 1e3 * scales[round_])
        return out

    def write(self, path: str) -> None:
        """Write every coarse span as JSON (one list per span)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "round"],
                    "spans": [list(span) for span in self.spans],
                },
                handle,
            )


def install() -> Tracer:
    tracer = Tracer()
    tracer.install()
    return tracer
