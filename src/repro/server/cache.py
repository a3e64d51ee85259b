"""Thread-safe LRU cache for encoded session responses.

The endpoint dispatcher in :mod:`repro.server.app` builds the keys from
each operation's declared :class:`~repro.server.schema.CacheKey`:
``(session id, generation, operation, canonical request, encoding[,
sort spec, flatten depth])``, and stores each response already encoded,
so a hit is a byte write.  The session
*generation* — a counter bumped on every mutation (derived-metric
definition, flatten, unflatten) — makes stale entries unreachable the
moment a mutation lands; :meth:`RenderCache.invalidate_session`
additionally drops them eagerly so a mutated session does not pin dead
responses in the LRU.

Hits, misses and fills are also counted per operation (``table``,
``render``, ``hotpath``, ``query``) for ``/v1/stats`` and
``/v1/metrics``.

The cache never stores failures: only successful responses are put, so
an error (e.g. a formula that fails to evaluate) is recomputed — and
re-reported — on every attempt.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

__all__ = ["RenderCache"]


class RenderCache:
    """A bounded LRU mapping with hit/miss/eviction accounting."""

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = max(0, int(maxsize))
        self._lock = threading.Lock()
        self._data: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: operation -> [hits, misses, fills]
        self._by_op: dict[str, list[int]] = {}

    # ------------------------------------------------------------------ #
    def get(self, key: Hashable, op: str | None = None):
        """The cached value for *key*, or None; refreshes LRU order.

        *op* names the operation the lookup counts against.
        """
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                if op is not None:
                    self._by_op.setdefault(op, [0, 0, 0])[1] += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            if op is not None:
                self._by_op.setdefault(op, [0, 0, 0])[0] += 1
            return value

    def put(self, key: Hashable, value, op: str | None = None) -> None:
        """Fill *key*; *op* names the operation the fill counts against."""
        if self.maxsize == 0:
            return
        with self._lock:
            if op is not None:
                self._by_op.setdefault(op, [0, 0, 0])[2] += 1
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    # ------------------------------------------------------------------ #
    def invalidate_session(self, sid: str) -> int:
        """Drop every entry belonging to session *sid* (key[0] == sid)."""
        with self._lock:
            stale = [k for k in self._data if k and k[0] == sid]
            for k in stale:
                del self._data[k]
            self.invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self.invalidations += len(self._data)
            self._data.clear()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
                "operations": {
                    op: {"hits": hits, "misses": misses, "fills": fills}
                    for op, (hits, misses, fills) in sorted(
                        self._by_op.items()
                    )
                },
            }
