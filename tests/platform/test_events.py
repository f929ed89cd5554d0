"""Tests for the discrete-event loop."""

from __future__ import annotations

import heapq
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.events import EventLoop


class TestScheduling:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(5.0, lambda: order.append("b"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(10.0, lambda: order.append("c"))
        loop.run()
        assert order == ["a", "b", "c"]
        assert loop.now == 10.0
        assert loop.processed_events == 3

    def test_fifo_tie_breaking(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append("first"))
        loop.schedule(1.0, lambda: order.append("second"))
        loop.run()
        assert order == ["first", "second"]

    def test_schedule_at_absolute_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(3.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [3.0]

    def test_cannot_schedule_in_the_past(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: loop.schedule(0.5, lambda: None))
        with pytest.raises(ValueError):
            loop.schedule(-1.0, lambda: None)
        # Nested scheduling relative to "now" inside a callback is fine.
        loop.run()

    def test_schedule_at_past_rejected(self):
        loop = EventLoop()
        loop.schedule(5.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule_at(1.0, lambda: None)

    def test_events_scheduled_during_run_are_processed(self):
        loop = EventLoop()
        seen = []

        def chain():
            seen.append(loop.now)
            if len(seen) < 3:
                loop.schedule(2.0, chain)

        loop.schedule(1.0, chain)
        loop.run()
        assert seen == [1.0, 3.0, 5.0]


class TestCancellationAndHorizon:
    def test_cancelled_event_does_not_run(self):
        loop = EventLoop()
        seen = []
        handle = loop.schedule(1.0, lambda: seen.append("x"))
        handle.cancel()
        assert handle.cancelled
        loop.run()
        assert seen == []

    def test_run_until_horizon_leaves_future_events(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append("early"))
        loop.schedule(100.0, lambda: seen.append("late"))
        loop.run(until_seconds=10.0)
        assert seen == ["early"]
        assert loop.now == 10.0
        assert loop.pending_events == 1
        loop.run()
        assert seen == ["early", "late"]

    def test_step_processes_single_event(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(2.0, lambda: seen.append(2))
        assert loop.step() is True
        assert seen == [1]
        assert loop.step() is True
        assert loop.step() is False

    def test_step_skips_cancelled_events(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append("x"))
        cancelled = loop.schedule(2.0, lambda: seen.append("dropped"))
        loop.schedule(3.0, lambda: seen.append("y"))
        cancelled.cancel()
        assert loop.step() is True
        assert (seen, loop.now) == (["x"], 1.0)
        assert loop.step() is True
        assert (seen, loop.now) == (["x", "y"], 3.0)
        assert loop.step() is False
        assert loop.processed_events == 2
        assert loop.pending_events == 0


class TestBatches:
    """Every event sharing the earliest timestamp drains as one batch."""

    def test_callback_scheduling_at_its_own_time_runs_after_the_batch(self):
        loop = EventLoop()
        order = []

        def first():
            order.append(("a", loop.now))
            loop.schedule(0.0, lambda: order.append(("child", loop.now)))

        loop.schedule(1.0, first)
        loop.schedule(1.0, lambda: order.append(("b", loop.now)))
        loop.schedule(2.0, lambda: order.append(("c", loop.now)))
        loop.run()
        assert order == [("a", 1.0), ("b", 1.0), ("child", 1.0), ("c", 2.0)]
        assert loop.processed_events == 4

    def test_cancelled_event_inside_a_batch_does_not_run(self):
        loop = EventLoop()
        order = []
        handles = {}
        loop.schedule(1.0, lambda: (order.append("a"), handles["b"].cancel()))
        handles["b"] = loop.schedule(1.0, lambda: order.append("b"))
        loop.schedule(1.0, lambda: order.append("c")).cancel()
        loop.schedule(1.0, lambda: order.append("d"))
        # A cancelled straggler at a later time does not move the clock.
        loop.schedule(2.0, lambda: order.append("e")).cancel()
        assert loop.run() == 1.0
        assert order == ["a", "d"]
        assert loop.processed_events == 2
        assert loop.pending_events == 0

    def test_large_same_time_batch_runs_in_fifo_order(self):
        loop = EventLoop()
        hits = []
        for i in range(300):
            loop.schedule(1.0, lambda i=i: hits.append(i))
        later = []
        loop.schedule(2.0, lambda: later.append(loop.now))
        loop.run()
        assert hits == list(range(300))
        assert later == [2.0]
        assert loop.processed_events == 301
        assert loop.pending_events == 0


class TestOrderingAtScale:
    """Thousands of queued events still run by time, then FIFO among ties."""

    @pytest.mark.parametrize("seed", range(5))
    def test_coarse_random_times_run_by_time_then_fifo(self, seed):
        rng = random.Random(seed)
        loop = EventLoop()
        times = [float(rng.randrange(40)) for _ in range(500)]
        executed = []
        for i, time in enumerate(times):
            loop.schedule(time, lambda i=i: executed.append((loop.now, i)))
        loop.run()
        # Sorting (time, index) pairs orders ties by scheduling order.
        assert executed == sorted((time, i) for i, time in enumerate(times))
        assert loop.now == max(times)
        assert loop.processed_events == 500

    def test_events_scheduled_latest_first_run_earliest_first(self):
        loop = EventLoop()
        total = 5000
        hits = []
        for i in range(total):
            loop.schedule(float(total - i), lambda i=i: hits.append(i))
        loop.run()
        assert hits == list(reversed(range(total)))
        assert loop.now == float(total)


class _ListSource:
    """A sorted submission source over ``(time, callback)`` entries."""

    def __init__(self, entries: list) -> None:
        self.entries = entries
        self._index = 0

    def next_time(self) -> float | None:
        return self.entries[self._index][0] if self._index < len(self.entries) else None

    def emit_next(self) -> float | None:
        self.entries[self._index][1]()
        self._index += 1
        return self.next_time()


class _ModelLoop:
    """Reference semantics of :class:`EventLoop`: one heap ordered by
    ``(time, class, sequence)``, where a submission is class 0 and so wins
    ties against events; cancelled entries are skipped when popped."""

    def __init__(self) -> None:
        self.now = 0.0
        self.processed_events = 0
        self._heap: list[list] = []
        self._sequence = itertools.count()

    @property
    def pending_events(self) -> int:
        return sum(1 for entry in self._heap if entry[1] == 1)

    def _push(self, time: float, kind: int, callback) -> list:
        entry = [time, kind, next(self._sequence), callback, False]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule(self, delay: float, callback) -> "_ModelHandle":
        return _ModelHandle(self._push(self.now + delay, 1, callback))

    def run(self, until: float | None = None, *, source: _ListSource | None = None) -> float:
        for time, callback in source.entries if source is not None else ():
            self._push(time, 0, callback)
        while self._heap and (until is None or self._heap[0][0] <= until):
            time, _, _, callback, cancelled = heapq.heappop(self._heap)
            if not cancelled:
                self.now = time
                callback()
                self.processed_events += 1
        if until is not None and until > self.now:
            self.now = until
        return self.now


class _ModelHandle:
    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> None:
        self._entry[4] = True


#: One event: (time, cancelled before the run, pick of a later event at the
#: same time to cancel, delays of the children it schedules).  Coarse
#: integer times force ties.
_EVENTS = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.booleans(),
        st.none() | st.integers(0, 3),
        st.lists(st.integers(0, 2), max_size=2),
    ),
    max_size=12,
)
_SUBMISSIONS = st.none() | st.lists(
    st.tuples(st.integers(0, 4), st.lists(st.integers(0, 2), max_size=1)), max_size=6
)


def _drive(loop, events, submissions, horizon):
    """Run one drawn scenario on ``loop``; return everything observable."""
    executed = []
    handles = {}

    def callback(label, children, cancel=None):
        def run():
            executed.append((label, loop.now))
            for k, delay in enumerate(children):
                loop.schedule(delay, callback(f"{label}.{k}", ()))
            if cancel is not None:
                handles[cancel].cancel()

        return run

    for i, (time, _, pick, children) in enumerate(events):
        later = [j for j in range(i + 1, len(events)) if events[j][0] == time]
        cancel = later[pick % len(later)] if later and pick is not None else None
        handles[i] = loop.schedule(float(time), callback(f"e{i}", children, cancel))
    for i, (_, cancelled, _, _) in enumerate(events):
        if cancelled:
            handles[i].cancel()
    source = None
    if submissions is not None:
        source = _ListSource(
            [
                (float(time), callback(f"s{i}", children))
                for i, (time, children) in enumerate(sorted(submissions))
            ]
        )
    end = loop.run(horizon, source=source)
    return executed, end, loop.now, loop.processed_events, loop.pending_events


@settings(max_examples=300, deadline=None)
@given(
    events=_EVENTS,
    submissions=_SUBMISSIONS,
    horizon=st.none() | st.integers(0, 6).map(float),
)
def test_event_loop_matches_reference_model(events, submissions, horizon):
    assert _drive(EventLoop(), events, submissions, horizon) == _drive(
        _ModelLoop(), events, submissions, horizon
    )
