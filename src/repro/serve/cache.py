"""Bounded LRU result cache for the serving layer.

Serving traffic is heavily skewed (Zipfian over entities and relations), so
a small exact-match cache in front of the scoring engine absorbs most of
the load: the same ``(h, r, k)`` top-k question arrives over and over.  The
cache is deliberately simple — an ``OrderedDict`` in recency order with
hit/miss/eviction counters — because its correctness contract is strict:

* a hit must return a value bitwise-equal to what a cold miss would
  compute (the engine stores immutable, read-only results);
* eviction is exact LRU — the entry untouched longest goes first;
* keys carry every input that shapes the result (direction, anchor,
  relation, k, filtered), so entries can never leak across relations or
  between head- and tail-side queries.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable


class LRUCache:
    """Exact-LRU mapping with capacity bound and telemetry counters.

    ``capacity=0`` disables caching entirely (every ``get`` is a miss and
    ``put`` is a no-op), which keeps the engine's code path uniform.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable):
        """The cached value (promoted to most-recent), or None on a miss."""
        if key not in self._entries:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh ``key``, evicting the LRU entry when full."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = value

    def clear(self) -> None:
        """Drop every entry; counters are kept (they are run telemetry)."""
        self._entries.clear()

    def invalidate(self) -> int:
        """Drop every entry because the backing data changed (a store
        swap): same effect as :meth:`clear`, but counted separately so
        telemetry can distinguish reload invalidation from housekeeping.
        Returns the number of entries dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += 1
        return dropped
