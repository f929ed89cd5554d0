"""Shared fork-based worker-pool infrastructure.

The parallel backbone of the repo: the simulation engine's sharded runs,
the sweep engine's family passes, the platform replay campaigns, and the
parallel trace generator all fan tasks over the same ``fork``-based pool.
Tasks travel to workers as an inherited closure (policy factories and
generators capture state that cannot be pickled — only the *results*
must pickle), and results come back keyed by task id so every caller can
reassemble deterministic, worker-count-independent output.

Two dispatch shapes:

* :func:`fork_pool_map` — run every task, return the full result list
  ordered by task id (results for all tasks are held at once).
* :func:`fork_pool_imap` — *stream* results in task-id order with a
  bounded number of tasks in flight.  This is the in-order bounded
  reassembly queue behind parallel trace generation: the consumer
  (e.g. the incremental store writer, or the fused simulation pass)
  applies backpressure simply by iterating, so peak memory is the
  in-flight window, never the whole output.

Both fall back to an in-process loop — same results, same order — when
one worker is requested or the platform lacks ``fork``.

A worker that dies mid-run (killed, or exiting from inside a task) would
otherwise lose its task silently: ``multiprocessing.Pool`` forks a
replacement and the caller waits forever for the lost result.  While
they wait, both shapes poll the exit codes of the workers they forked,
terminate the pool and raise :class:`WorkerDiedError` naming the exit
code or signal and the tasks still outstanding.  A replacement worker
never inherited the task closure, so it runs no task; it reports the
task it took back as not run, which raises the same error.
"""

from __future__ import annotations

import itertools
import multiprocessing
import signal
import threading
from typing import Callable, Iterable, Iterator

__all__ = ["WorkerDiedError", "fork_pool_map", "fork_pool_imap"]

#: ``(pool token, task closure)`` inherited by forked pool workers (engine
#: shards and replay campaigns capture policy factories, which hold
#: closures that cannot be pickled, so the whole task travels by fork
#: instead of by pickle).  Guarded by _POOL_TASK_LOCK from assignment
#: until the pool has forked.
_POOL_TASK: tuple[int, Callable[[int], object]] | None = None
_POOL_TASK_LOCK = threading.Lock()
_POOL_TOKENS = itertools.count()

#: Longest wait for a result between two checks that the pool's workers
#: are alive.  A result that is ready is returned at once.
_LIVENESS_POLL_SECONDS = 0.2


class WorkerDiedError(RuntimeError):
    """A pool worker exited while tasks were outstanding."""


def _pool_entry(job: tuple[int, int]) -> tuple[int, bool, object]:
    """Worker entry point: run one task of the forked closure.

    Returns ``(task id, ran, result)``.  A worker that did not inherit
    this pool's closure — one the pool forked later to replace a dead
    worker — runs nothing and returns ``ran=False``.
    """
    token, task_id = job
    if _POOL_TASK is None or _POOL_TASK[0] != token:
        return task_id, False, None
    return task_id, True, _POOL_TASK[1](task_id)


def _fork_pool(task: Callable[[int], object], workers: int):
    """Fork a pool whose workers inherit ``task`` as the pool closure.

    Returns the pool, its token, and the worker processes it forked.  The
    lock covers assignment through fork: once ``Pool()`` has forked its
    workers they hold an inherited copy of the task, so the parent can
    clear the global immediately and concurrent runs cannot observe (or
    fork with) each other's state.
    """
    global _POOL_TASK
    context = multiprocessing.get_context("fork")
    with _POOL_TASK_LOCK:
        token = next(_POOL_TOKENS)
        _POOL_TASK = (token, task)
        try:
            pool = context.Pool(processes=workers)
        finally:
            _POOL_TASK = None
    # The pool's own list drops a worker once it has replaced it; keep
    # the originals to read their exit codes.
    return pool, token, list(pool._pool)


def _next_result(
    get: Callable[[float], tuple[int, bool, object]],
    workers: list,
    outstanding: Callable[[], Iterable[int]],
) -> tuple[int, object]:
    """The next ``(task id, result)`` from ``get``, watching the workers.

    ``get(timeout)`` raises ``multiprocessing.TimeoutError`` while no
    result is ready; between attempts every original worker must still
    be running, and a task reported as not run means one has died.
    """
    while True:
        try:
            task_id, ran, result = get(_LIVENESS_POLL_SECONDS)
        except multiprocessing.TimeoutError:
            _check_alive(workers, outstanding())
            continue
        if ran:
            return task_id, result
        # The pool reaps a dead worker before it forks the replacement
        # that took this task, so its exit code is already known.
        _check_alive(workers, outstanding())
        raise WorkerDiedError(  # pragma: no cover - the check above raises
            f"a replacement pool worker took task {task_id}; a worker died"
        )


def _check_alive(workers: list, outstanding: Iterable[int]) -> None:
    """Raise :class:`WorkerDiedError` if any of ``workers`` has exited."""
    for worker in workers:
        code = worker.exitcode
        if code is None:
            continue
        if code < 0:
            try:
                cause = f"killed by {signal.Signals(-code).name}"
            except ValueError:
                cause = f"killed by signal {-code}"
        else:
            cause = f"exited with code {code}"
        raise WorkerDiedError(
            f"pool worker {worker.pid} {cause} with tasks "
            f"{sorted(outstanding)} outstanding; the pool was terminated"
        )


def fork_pool_map(
    task: Callable[[int], object],
    num_tasks: int,
    workers: int,
    *,
    on_result: Callable[[int, object], None] | None = None,
) -> list:
    """Run ``task(task_id)`` for every id over a fork-based worker pool.

    Tasks are dispatched to forked workers and the returned list is
    ordered by task id regardless of completion order or worker count.
    Falls back to an in-process loop (same results) when only one worker
    is requested or the platform lacks ``fork``.

    Args:
        task: Closure mapping a task id in ``range(num_tasks)`` to a
            picklable result.
        num_tasks: Number of tasks.
        workers: Maximum pool size (clamped to ``num_tasks``).
        on_result: Optional callback invoked as ``(task_id, result)`` in
            completion order (progress reporting).
    """
    if num_tasks == 0:
        return []
    workers = max(1, min(int(workers), num_tasks))
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        results = []
        for task_id in range(num_tasks):
            result = task(task_id)
            results.append(result)
            if on_result is not None:
                on_result(task_id, result)
        return results

    pool, token, pool_workers = _fork_pool(task, workers)
    ordered: list = [None] * num_tasks
    outstanding = set(range(num_tasks))
    with pool:
        results = pool.imap_unordered(_pool_entry, ((token, i) for i in range(num_tasks)))
        while outstanding:
            task_id, result = _next_result(results.next, pool_workers, lambda: outstanding)
            outstanding.discard(task_id)
            ordered[task_id] = result
            if on_result is not None:
                on_result(task_id, result)
    return ordered


def fork_pool_imap(
    task: Callable[[int], object],
    num_tasks: int,
    workers: int,
) -> Iterator[object]:
    """Yield ``task(task_id)`` results **in task-id order**, streaming.

    The in-order bounded reassembly queue: at most ``workers + 2`` tasks
    — enough to keep every worker busy while the consumer drains the
    head of the queue — are dispatched ahead of the consumer, so a slow
    consumer throttles the workers (backpressure) and peak memory is one
    window of results, never ``num_tasks`` of them.  Results are yielded
    strictly in task-id order no matter which worker finishes first, so
    consumers see exactly the sequence a serial loop would produce.

    Falls back to a lazy in-process loop (same results, same order) when
    one worker is requested or the platform lacks ``fork``.  Closing the
    generator early terminates the pool and its outstanding tasks.

    Args:
        task: Closure mapping a task id in ``range(num_tasks)`` to a
            picklable result.
        num_tasks: Number of tasks.
        workers: Maximum pool size (clamped to ``num_tasks``).
    """
    if num_tasks == 0:
        return
    workers = max(1, min(int(workers), num_tasks))
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        for task_id in range(num_tasks):
            yield task(task_id)
        return
    max_pending = workers + 2

    pool, token, pool_workers = _fork_pool(task, workers)
    try:
        with pool:
            pending: list = []
            next_submit = 0
            while pending or next_submit < num_tasks:
                while next_submit < num_tasks and len(pending) < max_pending:
                    pending.append(pool.apply_async(_pool_entry, ((token, next_submit),)))
                    next_submit += 1
                # Head-of-line blocking get(): later tasks keep running in
                # the pool, but results are handed out in task-id order.
                first = next_submit - len(pending)
                _, result = _next_result(
                    pending[0].get, pool_workers, lambda: range(first, next_submit)
                )
                pending.pop(0)
                yield result
    finally:
        # An abandoned generator (consumer stopped early or raised) must
        # not leave forked workers running.
        pool.terminate()
        pool.join()
