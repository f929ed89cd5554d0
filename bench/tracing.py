"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public callables of the ``repro`` package from the
outside — module and class attributes are swapped for timing wrappers
while a traced iteration runs and restored afterwards — so nothing in
``src/`` knows it is being measured.  Each call becomes one span
``(name, start, end, parent)`` held in flat arrays; a layer's *self*
time is its spans' duration minus the part covered by child spans.

Only the calling process is traced: forked pool workers inherit the
wrappers but their spans never reach the parent.  Their cost shows up
as the parent's wait (``trace.chunk_wait_s``) and as child CPU time.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.histogram_bank import HistogramBank
from repro.platform import cluster, invoker, loadbalancer, replay
from repro.platform.controller import Controller
from repro.policies import bank
from repro.simulation import engine, fused, metrics, sweep_engine
from repro.simulation.coldstart import ColdStartSimulator
from repro.trace import store, store_writer, stream

__all__ = ["Tracer", "layer_metrics", "traced"]


class Tracer:
    """Spans and counters of one traced iteration."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, func: Callable, after: Callable | None = None) -> Callable:
        """A wrapper recording one span per call of ``func``.

        ``after(tracer, args, result)`` runs once the call returns, to take
        counts at the same boundary.
        """
        name_id = self._name_ids.setdefault(name, len(self._names))
        if name_id == len(self._names):
            self._names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced_call(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced_call

    def wrap_iterator(self, name: str, counter: str, func: Callable) -> Callable:
        """Wrap a generator function: one span per ``next()``, one count per item."""

        @functools.wraps(func)
        def traced_iterator(*args: Any, **kwargs: Any) -> Iterator:
            iterator = iter(func(*args, **kwargs))
            next_item = self.wrap(name, iterator.__next__)
            try:
                while True:
                    try:
                        item = next_item()
                    except StopIteration:
                        return
                    self.count(counter)
                    yield item
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()

        return traced_iterator

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """``name -> (total seconds, self seconds, calls)`` of names that ran."""
        if not len(self.name):
            return {}
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        child = np.bincount(
            parents[nested], weights=duration[nested], minlength=duration.size
        )
        own = duration - child
        size = len(self._names)
        total = np.bincount(names, weights=duration, minlength=size)
        self_total = np.bincount(names, weights=own, minlength=size)
        calls = np.bincount(names, minlength=size)
        return {
            name: (float(total[i]), float(self_total[i]), int(calls[i]))
            for i, name in enumerate(self._names)
            if calls[i]
        }

    def top_level_seconds(self) -> float:
        parents = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        return float(duration[parents < 0].sum())


def _count_rows(name: str) -> Callable:
    def after(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.count(name, len(args[0]))

    return after


def _count_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("trace.bytes_written", os.path.getsize(result))


def _count_events(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("platform.events", args[0].loop.processed_events)


def _patch_points(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """``(owner, attribute, replacement)`` for every traced callable.

    Functions imported by name are patched where the caller looks them
    up (``fused.iter_chunk_columns``, ``bank.decide_idle_times``, ...).
    Classmethods stay classmethods around the wrapped function.
    """
    wrap = tracer.wrap

    def method(owner: type, attribute: str, name: str, after: Callable | None = None):
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            return owner, attribute, classmethod(wrap(name, raw.__func__, after))
        return owner, attribute, wrap(name, raw, after)

    def function(module: Any, attribute: str, name: str, after: Callable | None = None):
        return module, attribute, wrap(name, getattr(module, attribute), after)

    points = [
        function(fused, "simulate_streamed", "simulation.fused"),
        function(stream, "stream_workload_to_store", "trace.stream"),
        method(store.InvocationStore, "from_app_columns", "trace.from_app_columns"),
        method(store.InvocationStore, "open", "trace.store_open"),
        method(store_writer.InvocationStoreWriter, "append_apps", "trace.writer_append"),
        method(store_writer.InvocationStoreWriter, "close", "trace.writer_close", _count_bytes),
        method(sweep_engine.SweepEngine, "run_policies", "simulation.run_policies"),
        method(engine.SimulationEngine, "run_policy", "simulation.per_policy"),
        method(ColdStartSimulator, "simulate_apps_banked", "simulation.banked"),
        function(engine, "merge_results", "simulation.aggregate"),
        function(sweep_engine, "merge_results", "simulation.aggregate"),
        method(metrics.AggregateResult, "summary", "simulation.aggregate"),
        method(bank.HybridPolicyBank, "on_invocations", "policies.bank_step"),
        method(HistogramBank, "observe_prefix", "core.histogram_bank"),
        method(HistogramBank, "bin_count_cv_prefix", "core.histogram_bank"),
        method(HistogramBank, "percentile_bins_prefix", "core.histogram_bank"),
        function(bank, "decide_idle_times", "core.arima", _count_rows("core.arima_rows")),
        function(
            sweep_engine, "forecast_idle_times", "core.arima", _count_rows("core.arima_rows")
        ),
        method(replay.ReplayFeed, "__init__", "platform.feed_build"),
        method(cluster.FaasCluster, "run", "platform.run", _count_events),
        method(Controller, "submit", "platform.submit"),
        method(invoker.Invoker, "handle_activation", "platform.activation"),
        method(replay.ReplayResult, "summary", "platform.summary"),
    ]
    for balancer in (
        loadbalancer.LoadBalancer,
        loadbalancer.ConsistentHashBalancer,
        loadbalancer.LeastLoadedBalancer,
    ):
        points.append(method(balancer, "place", "platform.placement"))
    for module in (stream, fused):
        points.append(
            (
                module,
                "iter_chunk_columns",
                tracer.wrap_iterator(
                    "trace.chunk_wait", "trace.chunks", module.iter_chunk_columns
                ),
            )
        )
    return points


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer``'s wrappers for the duration of the block."""
    points = _patch_points(tracer)
    originals = [(owner, attribute, owner.__dict__[attribute]) for owner, attribute, _ in points]
    try:
        for owner, attribute, replacement in points:
            setattr(owner, attribute, replacement)
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


#: Span-derived layer metrics: ``metric -> (statistic, span name)``, where
#: the statistic is the spans' total time, their self time, or their count.
SPAN_METRICS = {
    "trace.chunk_wait_s": ("total", "trace.chunk_wait"),
    "trace.from_app_columns_s": ("total", "trace.from_app_columns"),
    "trace.writer_append_s": ("total", "trace.writer_append"),
    "trace.writer_close_s": ("total", "trace.writer_close"),
    "trace.store_open_s": ("total", "trace.store_open"),
    "simulation.fused_self_s": ("self", "simulation.fused"),
    "simulation.run_policies_s": ("total", "simulation.run_policies"),
    "simulation.banked_self_s": ("self", "simulation.banked"),
    "simulation.banked_calls": ("calls", "simulation.banked"),
    "simulation.per_policy_s": ("total", "simulation.per_policy"),
    "simulation.per_policy_calls": ("calls", "simulation.per_policy"),
    "simulation.family_self_s": ("self", "simulation.run_policies"),
    "simulation.aggregate_s": ("total", "simulation.aggregate"),
    "policies.bank_step_s": ("self", "policies.bank_step"),
    "policies.bank_steps": ("calls", "policies.bank_step"),
    "core.histogram_bank_s": ("self", "core.histogram_bank"),
    "core.histogram_bank_calls": ("calls", "core.histogram_bank"),
    "core.arima_s": ("total", "core.arima"),
    "platform.feed_build_s": ("total", "platform.feed_build"),
    "platform.submit_self_s": ("self", "platform.submit"),
    "platform.submissions": ("calls", "platform.submit"),
    "platform.activation_s": ("total", "platform.activation"),
    "platform.activations": ("calls", "platform.activation"),
    "platform.placement_s": ("total", "platform.placement"),
    "platform.placements": ("calls", "platform.placement"),
    "platform.loop_other_s": ("self", "platform.run"),
    "platform.summary_s": ("total", "platform.summary"),
}

_STATISTIC = {"total": 0, "self": 1, "calls": 2}


def layer_metrics(tracer: Tracer, wall_seconds: float) -> dict[str, float]:
    """The layer metrics of one traced iteration.

    Only layers the iteration reached appear; counters are already keyed
    by metric name.
    """
    spans = tracer.totals()
    metrics = {
        metric: float(spans[span][_STATISTIC[statistic]])
        for metric, (statistic, span) in SPAN_METRICS.items()
        if span in spans
    }
    metrics.update({name: float(value) for name, value in tracer.counters.items()})
    metrics["bench.span_coverage"] = tracer.top_level_seconds() / wall_seconds
    return metrics
