"""Zero-copy shared-memory handoff of array batches to pool workers.

Pickled task payloads of region batches are dominated by the numpy
arrays themselves.  This module replaces that with POSIX shared memory
(:mod:`multiprocessing.shared_memory`): the parent packs a batch of
arrays into one segment, tasks carry only a tiny picklable
:class:`ShmHandle` (segment name + array specs), and workers attach the
segment once and read the arrays in place.  The segment lifecycle —
pack per submitted chunk, release once it settles, succeeded or failed
— belongs to :class:`repro.verification.pool.WorkerPool`; ``attach``
caches worker mappings in a bounded FIFO.

Workers must treat attached arrays as **read-only** — they are views
into memory shared with the parent and every sibling worker.

When the platform lacks ``multiprocessing.shared_memory`` (or segment
creation fails, e.g. ``/dev/shm`` is unavailable), :func:`available`
returns False and callers fall back to pickling payloads per task.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - always present on CPython >= 3.8
    _shared_memory = None

__all__ = ["ShmBlock", "ShmHandle", "attach", "available", "pack_arrays"]

#: attached segments a worker keeps mapped (FIFO; rounds are ordered)
_CACHE_LIMIT = 4
_ATTACHED: dict[str, tuple[object, list[np.ndarray]]] = {}


def available() -> bool:
    """True when shared-memory segments can be created on this host."""
    if _shared_memory is None:
        return False
    try:
        probe = _shared_memory.SharedMemory(create=True, size=16)
    except OSError:  # pragma: no cover - e.g. /dev/shm missing
        return False
    probe.close()
    probe.unlink()
    return True


@dataclass(frozen=True)
class ShmHandle:
    """Picklable descriptor of arrays packed into one shared segment.

    ``specs`` is one ``(shape, dtype string, byte offset)`` triple per
    array, in pack order.
    """

    name: str
    specs: tuple[tuple[tuple[int, ...], str, int], ...]


class ShmBlock:
    """Parent-side owner of a packed segment; release after the round."""

    def __init__(self, shm, handle: ShmHandle):
        self._shm = shm
        self.handle = handle

    def release(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self._shm is None:
            return
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double release race
            pass
        self._shm = None


def pack_arrays(arrays: list[np.ndarray]) -> ShmBlock:
    """Copy ``arrays`` into one fresh shared segment (parent side)."""
    if _shared_memory is None:
        raise RuntimeError("shared memory is unavailable on this platform")
    specs = []
    offset = 0
    prepared = []
    for a in arrays:
        a = np.ascontiguousarray(a)
        prepared.append(a)
        # 64-byte alignment keeps attached views vector-load friendly
        offset = (offset + 63) & ~63
        specs.append((tuple(a.shape), a.dtype.str, offset))
        offset += a.nbytes
    shm = _shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for a, (shape, dtype, off) in zip(prepared, specs):
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
        view[...] = a
    return ShmBlock(shm, ShmHandle(shm.name, tuple(specs)))


def attach(handle: ShmHandle) -> list[np.ndarray]:
    """Read-only views of the packed arrays (worker side, cached)."""
    cached = _ATTACHED.get(handle.name)
    if cached is None:
        shm = _shared_memory.SharedMemory(name=handle.name)
        arrays = []
        for shape, dtype, off in handle.specs:
            view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
            view.flags.writeable = False
            arrays.append(view)
        cached = (shm, arrays)
        _ATTACHED[handle.name] = cached
        while len(_ATTACHED) > _CACHE_LIMIT:
            oldest = next(iter(_ATTACHED))
            old_shm, old_arrays = _ATTACHED.pop(oldest)
            _close_when_views_die(old_shm, old_arrays)
    return cached[1]


def _close_when_views_die(shm, arrays: list[np.ndarray]) -> None:
    """Unmap an evicted segment only once no view into it survives.

    ``SharedMemory.close`` does **not** refuse to unmap while numpy
    views of ``shm.buf`` are alive (no ``BufferError`` on this path) —
    an eager close here would turn a caller still holding an evicted
    round's array into a segfault.  Finalizers on the views defer the
    unmap to the moment the last one is collected.
    """
    if not arrays:
        shm.close()
        return
    remaining = {"count": len(arrays)}

    def _view_died() -> None:
        remaining["count"] -= 1
        if remaining["count"] == 0:
            shm.close()

    for view in arrays:
        weakref.finalize(view, _view_died)
