"""A content-keyed, size-bounded, thread-safe memo.

The closed-form measurement pipeline memoizes by structure: compiled
modules (:mod:`repro.codegen.compiler`), evaluated region trees and
branch fractions (:mod:`repro.sim.counting`).  All three share this
memo, so every in-process memo has a fixed cap and the same locking: the
tuning service prices on several threads of one process.
"""

from __future__ import annotations

import threading


class BoundedMemo:
    """A mapping of at most ``cap`` entries, evicted oldest first.

    Keys must identify content (never ``id()``).  Reads take no lock and
    do not reorder entries, so a hit costs one dict lookup: the pricing
    path reads these memos several times per measured point.  Writes are
    locked, and :meth:`put` keeps the value already stored under a key,
    so threads that computed the same entry concurrently all end up
    holding one object.
    """

    def __init__(self, cap: int):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cap = cap
        self._data: dict = {}
        self._lock = threading.Lock()
        self.get = self._data.get
        """``get(key)``: the value under ``key``, or None."""

    def put(self, key, value):
        """Store ``value`` unless ``key`` is present; returns the value
        the memo holds for ``key`` afterwards."""
        with self._lock:
            held = self._data.setdefault(key, value)
            while len(self._data) > self.cap:
                del self._data[next(iter(self._data))]
            return held

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)
