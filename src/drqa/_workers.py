"""The worker threads of a run.

A run holds one :class:`_Pool` (:func:`_run_pool`) for as long as it
lasts, the only holder of the worker count: a reduce stage, the agree
pass and the loess plot look it up (:func:`_pool`; outside a run, a pool
of one worker) and map their work on it, the last two sized by its
worker count, so pools are never nested.  A pool is sized by its worker
count alone: one worker is the thread that calls, and only a pool of more
workers has threads of its own, one per worker.  ``DRQA_THREADS`` sets
the worker count of a pipeline's run (:func:`_pool_workers`), and is read
nowhere else.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager

#: ``pool``: the :class:`_Pool` of the run that the thread works for.  A
#: pool's threads join it when they start, and the thread that opened it
#: while it is open (:func:`_run_pool`).
_runs = threading.local()


class _Pool:
    """The ``workers`` of one run.  One worker is the thread that makes
    each call; more are that many threads of the pool's own.

    Stages are submitted one at a time (:meth:`submit`); the items of a
    stage's loops (a reduce stage's reducer calls, the agree pass's
    blocks of rows, the loess plot's grid rows) are mapped (:meth:`map`).
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._executor = None
        if workers > 1:
            self._executor = ThreadPoolExecutor(workers,
                                                initializer=self._join)

    def _join(self) -> None:
        _runs.pool = self

    def submit(self, fn, *args) -> Future:
        """``fn(*args)`` as a future; without threads it has run when it
        is returned."""
        if self._executor is None:
            return _called(fn, *args)
        return self._executor.submit(fn, *args)

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]``, the items handed to the workers.

        While it waits, the calling thread runs every item that no worker
        has started, so a worker that maps never waits for an item that
        cannot start, and no thread is added.  The first exception in item
        order is raised once every started item has finished.
        """
        items = list(items)
        if self._executor is None or len(items) < 2:
            return [fn(item) for item in items]
        # a cancelled job stays queued until a worker drops it, which may
        # be seconds away: its slot is emptied, so that it holds nothing
        slots = [[fn, item] for item in items]
        futures = [self._executor.submit(_run_slot, slot) for slot in slots]
        try:
            outcomes = [_called(*slot) if future.cancel() else future
                        for future, slot in zip(futures, slots)]
            return [outcome.result() for outcome in outcomes]
        finally:
            running = []
            for future, slot in zip(futures, slots):
                if future.cancel():
                    slot.clear()
                else:
                    running.append(future)
            # a cancelled future counts as done only once a worker has
            # dequeued it, so wait for the others alone
            wait(running)

    def close(self) -> None:
        """Drop the jobs not yet started and wait for the running ones."""
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)


def _run_slot(slot: list):
    fn, item = slot
    return fn(item)


def _called(fn, *args) -> Future:
    """A finished future holding ``fn(*args)`` or the exception it raised."""
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


@contextmanager
def _run_pool(workers: int):
    """A pool of ``workers`` for the ``with`` block, which the calling
    thread's maps use too.  When the block is left, no job of the pool is
    running."""
    pool = _Pool(workers)
    outer = getattr(_runs, "pool", None)
    _runs.pool = pool
    try:
        yield pool
    finally:
        _runs.pool = outer
        pool.close()


def _pool() -> _Pool:
    """The pool of the run that the calling thread works for, or outside
    a run one of a single worker."""
    # a run restores the pool it found, which is None outside any run
    return getattr(_runs, "pool", None) or _NO_THREADS


_NO_THREADS = _Pool(1)


def _pool_workers() -> int:
    """The workers of a pipeline's run: as many as ``DRQA_THREADS`` asks
    for, one per CPU when it is unset or 0."""
    raw = os.environ.get("DRQA_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError("DRQA_THREADS must be an integer") from None
    if value < 0:
        raise ValueError("DRQA_THREADS must be >= 0")
    return value or os.cpu_count() or 1
