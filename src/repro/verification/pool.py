"""One worker-pool layer for every process fan-out in the repo.

Campaign queries, CEGAR leaves, portfolio racers, stream shards and
bench cells all fan out through :class:`WorkerPool`, which alone owns
the start method (:func:`mp_context`: fork where available), the
per-worker state (``initializer(*initargs)`` returns it; every task
function is called as ``fn(state, *task)``), shipping task arrays in
shared memory, and the degrade contract: when a worker dies or the pool
cannot start, results already received are kept, only the rest is
computed in-process by the site's ``fallback``, and
:meth:`WorkerPool.label` names the failure.  ``workers <= 1`` starts
no process.  See the architecture page, "Worker pools".
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import islice
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.verification import shm

__all__ = ["WorkerPool", "mp_context"]

#: what the initializer returned, in a worker process
_STATE: Any = None


def mp_context():
    """The multiprocessing context of every pool (and of its events)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else methods[0])


def _init_worker(initializer: Callable | None, initargs: tuple) -> None:
    global _STATE
    _STATE = initializer(*initargs) if initializer is not None else initargs


class _Slot(int):
    """Stands in for the array at this index of the chunk's segment."""


def _run_task(fn: Callable, args: tuple) -> Any:
    return fn(_STATE, *args)


def _run_chunk(fn: Callable, handle: "shm.ShmHandle | None", chunk: list) -> list:
    arrays = shm.attach(handle) if handle is not None else []
    return [
        fn(_STATE, *(arrays[a] if isinstance(a, _Slot) else a for a in task))
        for task in chunk
    ]


class WorkerPool:
    """A process pool with in-process degrade; use as a context manager.

    Parameters
    ----------
    workers : int
        Pool width; ``<= 1`` starts no process at all.
    initializer, initargs : optional
        ``initializer(*initargs)`` runs once per worker and returns the
        state every task function receives; without an initializer the
        state is ``initargs`` itself.
    """

    def __init__(
        self,
        workers: int,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> None:
        self.workers = workers
        #: exception name that made the pool degrade, else None
        self.failure: str | None = None
        self._executor: ProcessPoolExecutor | None = None
        self._shm = False
        if workers > 1:
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=mp_context(),
                    initializer=_init_worker,
                    initargs=(initializer, initargs),
                )
                self._shm = shm.available()
            except Exception as exc:  # no fork/spawn, no semaphores, ...
                self.drop(exc)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def live(self) -> bool:
        """True while work still goes to worker processes."""
        return self._executor is not None

    def label(self, parallel: str) -> str:
        """Executor label: ``parallel`` on a clean pooled run,
        ``sequential`` without a pool, and the failure named on a
        degrade."""
        if self.failure is not None:
            return f"{parallel} (degraded to in-process: {self.failure})"
        return parallel if self.workers > 1 else "sequential"

    def map(
        self,
        fn: Callable,
        tasks: Iterable[Sequence],
        *,
        fallback: Callable,
        chunksize: int = 1,
        window: int | None = None,
    ) -> list:
        """``fn(state, *task)`` for every task; results in task order.

        ``fallback(*task)`` is the site's in-process equivalent, used
        for every task without a live pool.  ``tasks`` may be a lazy
        iterable; at most ``window`` chunks are in flight when given.
        A genuine exception from ``fn`` propagates.
        """
        results: list = []
        inflight: deque = deque()  # (future, chunk, shm block or None)

        def settle() -> None:
            future, chunk, block = inflight.popleft()
            try:
                results.extend(future.result())
            except BrokenProcessPool as exc:
                self.drop(exc)
                results.extend(fallback(*task) for task in chunk)
            finally:
                if block is not None:
                    block.release()

        it = iter(tasks)
        try:
            for chunk in iter(lambda: list(islice(it, chunksize)), []):
                if self._executor is None:
                    while inflight:
                        settle()
                    results.extend(fallback(*task) for task in chunk)
                    continue
                handle, staged, block = self._stage(chunk)
                future = self._send(_run_chunk, fn, handle, staged)
                inflight.append((future, chunk, block))
                if window is not None and len(inflight) >= window:
                    settle()
            while inflight:
                settle()
        finally:
            for _future, _chunk, block in inflight:
                if block is not None:
                    block.release()
        return results

    def submit(self, fn: Callable, *args: Any) -> Future:
        """``fn(state, *args)`` on a worker; the arguments pickle as-is.

        Once the pool is gone the future fails with
        ``BrokenProcessPool``; the site then calls :meth:`drop`.
        """
        return self._send(_run_task, fn, args)

    def drop(self, exc: BaseException) -> None:
        """Forget the executor after ``exc``; later work runs in-process."""
        if self.failure is None:
            self.failure = type(exc).__name__
        self.close()

    def close(self) -> None:
        """Shut the workers down and reap them (idempotent; a broken
        executor's teardown errors are swallowed)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=True, cancel_futures=True)
            except Exception:  # a broken executor may fail its teardown
                pass

    def _send(self, *call: Any) -> Future:
        try:
            if self._executor is None:
                raise BrokenProcessPool("the pool is gone")
            return self._executor.submit(*call)
        except Exception as exc:  # broken, or workers cannot start
            self.drop(exc)
            future: Future = Future()
            future.set_exception(BrokenProcessPool(str(exc)))
            return future

    def _stage(self, chunk: list) -> tuple:
        """``(handle, chunk with arrays swapped for slots, block)``."""
        arrays = [a for task in chunk for a in task if isinstance(a, np.ndarray)]
        if not (arrays and self._shm):
            return None, chunk, None
        block = shm.pack_arrays(arrays)
        slots = iter(range(len(arrays)))
        staged = [
            tuple(_Slot(next(slots)) if isinstance(a, np.ndarray) else a for a in task)
            for task in chunk
        ]
        return block.handle, staged, block
