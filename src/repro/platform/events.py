"""Discrete-event simulation engine for the FaaS platform substrate.

A minimal, deterministic event loop: events are ``[time, sequence,
callback, cancelled]`` records ordered by time with FIFO tie-breaking,
and the simulation advances by draining the earliest timestamp.  All
platform components (controller, invokers, containers) schedule their
work through one :class:`EventLoop` instance, which makes the whole
platform reproducible and easy to unit-test.

Three properties matter for replaying production-scale traces:

* **flat event records** — events are plain lists, so the heap compares
  ``(time, sequence)`` prefixes at C speed instead of dispatching into a
  generated dataclass ``__lt__`` for every sift;
* **batched drain** — :meth:`EventLoop.run` pops *every* event sharing
  the earliest timestamp in one go and then executes the batch in FIFO
  order, so bursts of same-timestamp events (completion storms, expiring
  keep-alives) cost one horizon check instead of one per event;
* **submission sources** — instead of pre-scheduling one closure per
  trace invocation into the heap, a cursor-driven
  :class:`SubmissionSource` (the columnar replay feed) is merged with
  the event stream at run time: the loop interleaves
  ``source.emit_next()`` calls with event batches in global time order,
  with submissions winning ties, exactly as if every submission had been
  scheduled before any dynamic event.  The heap then only ever holds the
  *in-flight* events (executions, keep-alive expiries, pre-warms), not
  the whole trace.

Times are in **seconds** inside the platform substrate (container starts
and function executions are sub-minute); the trace replayer converts from
the trace's minutes at the boundary.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional, Protocol

#: Field offsets of an event record ``[time, sequence, callback, cancelled]``.
_TIME, _SEQUENCE, _CALLBACK, _CANCELLED = 0, 1, 2, 3


class SubmissionSource(Protocol):
    """A cursor of externally driven work merged with the event stream.

    A run asks for :meth:`next_time` when it starts.  Whenever the
    cursor's timestamp is at or before the earliest queued event, the
    run advances the clock to it and calls :meth:`emit_next`, which
    performs that submission (typically one trace invocation sent to the
    controller), moves the cursor forward and returns the next timestamp
    — one Python call per submission on a path crossed hundreds of
    thousands of times per replay.  Submissions at the same timestamp as
    queued events run *first*, mirroring the reference path, where every
    submission was scheduled before any dynamic event and therefore
    carried a lower sequence number.
    """

    def next_time(self) -> float | None:
        """Timestamp of the next submission, or ``None`` when drained."""
        ...

    def emit_next(self) -> float | None:
        """Perform the next submission at the current loop time and return
        the timestamp of the one after it (``None`` when drained)."""
        ...


class EventHandle:
    """Handle to a scheduled event, allowing cancellation."""

    __slots__ = ("_event",)

    def __init__(self, event: list) -> None:
        self._event = event

    def cancel(self) -> None:
        """Cancel the event; a cancelled event's callback never runs."""
        self._event[_CANCELLED] = True

    @property
    def cancelled(self) -> bool:
        return self._event[_CANCELLED]

    @property
    def time(self) -> float:
        return self._event[_TIME]


class EventLoop:
    """Deterministic discrete-event loop with batched same-time draining."""

    def __init__(self) -> None:
        #: Current simulation time in seconds.  A plain attribute (it is
        #: read on every scheduling decision of every platform component);
        #: only the loop itself writes it.
        self.now = 0.0
        self._processed = 0
        self._queue: list[list] = []
        self._sequence = itertools.count()

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    @property
    def processed_events(self) -> int:
        """Number of callbacks (and source submissions) executed so far."""
        return self._processed

    def schedule(self, delay_seconds: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay_seconds`` from now."""
        if delay_seconds < 0:
            raise ValueError("cannot schedule an event in the past")
        # Inlined schedule_at (one event per execution makes this hot).
        event = [self.now + delay_seconds, next(self._sequence), callback, False]
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def schedule_at(self, time_seconds: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time."""
        if time_seconds < self.now:
            raise ValueError(
                f"cannot schedule at {time_seconds} before current time {self.now}"
            )
        event = [float(time_seconds), next(self._sequence), callback, False]
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def run(
        self,
        until_seconds: Optional[float] = None,
        *,
        source: SubmissionSource | None = None,
    ) -> float:
        """Run until the queue (and the source) drain or the horizon is hit.

        Args:
            until_seconds: Optional horizon; events (and submissions)
                scheduled after it stay put and the clock stops at the
                horizon.
            source: Optional :class:`SubmissionSource` merged with the
                event stream in time order (submissions first on ties).

        Returns:
            The simulation time when the run stopped.
        """
        queue = self._queue
        heappop = heapq.heappop
        processed = 0
        if source is not None:
            next_submission = source.next_time()
            emit_next = source.emit_next
        else:
            next_submission = None
        while True:
            head_time = queue[0][_TIME] if queue else None
            if next_submission is not None and (
                head_time is None or next_submission <= head_time
            ):
                # Submission next; ties go to the source (see class docs).
                if until_seconds is not None and next_submission > until_seconds:
                    break
                self.now = next_submission
                next_submission = emit_next()
                processed += 1
                continue
            if head_time is None:
                break
            if until_seconds is not None and head_time > until_seconds:
                break
            # Batched drain: pop every event sharing the earliest timestamp,
            # then execute in FIFO (sequence) order.  Cancellation is checked
            # at execution time, so an earlier callback in the batch can
            # still cancel a later one; the clock only advances when a
            # callback actually runs (cancelled stragglers do not move it).
            # The one-event batch (the common case) skips the batch list.
            event = heappop(queue)
            if not (queue and queue[0][_TIME] == head_time):
                if not event[_CANCELLED]:
                    self.now = head_time
                    event[_CALLBACK]()
                    processed += 1
                continue
            batch = [event]
            while queue and queue[0][_TIME] == head_time:
                batch.append(heappop(queue))
            for event in batch:
                if not event[_CANCELLED]:
                    self.now = head_time
                    event[_CALLBACK]()
                    processed += 1
        self._processed += processed
        if until_seconds is not None and until_seconds > self.now:
            self.now = until_seconds
        return self.now

    def step(self) -> bool:
        """Process exactly one (non-cancelled) event; returns False when empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event[_CANCELLED]:
                continue
            self.now = event[_TIME]
            event[_CALLBACK]()
            self._processed += 1
            return True
        return False
