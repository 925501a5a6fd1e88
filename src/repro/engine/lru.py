"""One LRU cache, shared by every plan memo in the stack.

Three layers grew their own copy of the same five lines — an
``OrderedDict``, a ``move_to_end`` on lookup, a ``popitem(last=False)``
loop on insert, and ad-hoc hit/miss/eviction counters:
:class:`~repro.engine.plan.LaunchPlanCache` (launch plans),
:class:`~repro.engine.scheduler.TileScheduler` (tile plans) and, with the
autotuner, the :class:`~repro.plan.planner.Planner` decision memo.  This
module is the single implementation all of them delegate to.

:class:`LRUCache` is thread-safe (one ``RLock`` guards the map and the
statistics — value *construction* under :meth:`get_or_create` happens
inside the lock so racing threads always receive the same object, the
invariant the serving layer's concurrency tests pin) and exports uniform
statistics: ``hits`` / ``misses`` / ``evictions`` attributes plus, when a
``metrics_prefix`` is given, ``<prefix>.evictions`` (counter) and
``<prefix>.size`` (gauge) in the process
:class:`~repro.obs.metrics.MetricsRegistry`, with ``<prefix>.hits`` /
``<prefix>.misses`` counters when ``emit_lookups=True``.  Call sites that
predate this module keep their historical metric names by choosing the
prefix they already published (``engine.plan_cache`` for launch plans).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, List, Optional, Tuple

from ..obs.metrics import count, get_metrics

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction and statistics.

    Parameters
    ----------
    max_size:
        Upper bound on live entries; inserting past it evicts LRU-first.
    metrics_prefix:
        When given, eviction counts and the live size are mirrored into
        the process metrics registry as ``<prefix>.evictions`` /
        ``<prefix>.size``.
    emit_lookups:
        Also publish ``<prefix>.hits`` / ``<prefix>.misses`` counters per
        lookup.  Off by default: the launch-plan cache publishes
        *per-image* hit counts through its own accounting and must not
        gain a second, conflicting pair under the same prefix.
    """

    def __init__(self, max_size: int, *, metrics_prefix: Optional[str] = None,
                 emit_lookups: bool = False):
        self.max_size = max(1, int(max_size))
        self.metrics_prefix = metrics_prefix
        self.emit_lookups = bool(emit_lookups) and metrics_prefix is not None
        #: Shared with wrappers that keep sibling statistics (the
        #: launch-plan cache's per-image hit counts) so one lock orders
        #: every mutation.
        self.lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- mapping surface -------------------------------------------------
    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self.lock:
            return key in self._entries

    def keys(self) -> List[Hashable]:
        """Live keys, LRU-first (a consistent point-in-time copy)."""
        with self.lock:
            return list(self._entries.keys())

    def values(self) -> List[Any]:
        """Live values, LRU-first (a consistent point-in-time copy)."""
        with self.lock:
            return list(self._entries.values())

    # -- lookups ---------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Counted lookup: refreshes recency on hit."""
        with self.lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                hit = False
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                hit = True
        self._note_lookup(hit)
        return default if value is _MISSING else value

    def get_or_create(self, key: Hashable,
                      factory: Callable[[], Any]) -> Tuple[Any, bool]:
        """The value for ``key``; ``(value, created)``.

        ``factory`` runs under the cache lock, so exactly one value is
        ever constructed per key even under racing threads.  Keep
        factories cheap (plan shells, not cold runs — execution belongs
        under per-value locks, as :class:`~repro.engine.plan.SatPlan`
        does).
        """
        evicted = 0
        with self.lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self.hits += 1
                self._note_lookup(True)
                return value, False
            self.misses += 1
            while len(self._entries) >= self.max_size:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
            value = factory()
            self._entries[key] = value
            size = len(self._entries)
        self._note_lookup(False)
        self._note_insert(evicted, size)
        return value, True

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite without touching hit/miss statistics."""
        evicted = 0
        with self.lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
            else:
                while len(self._entries) >= self.max_size:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    evicted += 1
                self._entries[key] = value
            size = len(self._entries)
        self._note_insert(evicted, size)

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self.lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
        if self.metrics_prefix:
            get_metrics().gauge(f"{self.metrics_prefix}.size").set(0)

    # -- statistics ------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        with self.lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def _note_lookup(self, hit: bool) -> None:
        if self.emit_lookups:
            name = "hits" if hit else "misses"
            count(f"{self.metrics_prefix}.{name}")

    def _note_insert(self, evicted: int, size: int) -> None:
        if self.metrics_prefix:
            if evicted:
                count(f"{self.metrics_prefix}.evictions", evicted)
            get_metrics().gauge(f"{self.metrics_prefix}.size").set(size)
