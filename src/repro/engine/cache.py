"""Design-level result cache keyed by content hash.

The paper's cost model counts *expensive simulations*; a design that has
already been simulated is free.  :class:`DesignCache` maps the exact bytes of
a (clipped) design vector -- plus the problem name, so two testbenches never
collide -- to its :class:`~repro.bo.problem.EvaluatedDesign`, with LRU
eviction and hit/miss statistics.

Hashing is exact (full float64 bytes, no rounding): only a bit-identical
design is a hit, which keeps cached replays byte-identical to fresh runs for
deterministic simulators.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.bo.problem import EvaluatedDesign


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`DesignCache`.

    ``hits`` counts every simulation the cache layer saved -- stored-entry
    lookups *and* within-batch duplicates the engine deduplicated.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "hit_rate": self.hit_rate}


@dataclass
class DesignCache:
    """LRU cache from design content hash to evaluated design.

    All entry and counter mutations happen under one lock, so a cache may be
    shared between engines whose coordinating threads run concurrently (the
    in-process ``--distributed`` workers, the threaded HTTP API).
    (Thread-safety audit: every path that touches ``_entries`` or ``stats``
    -- :meth:`get`, :meth:`put`, :meth:`record_saved_duplicate`,
    :meth:`clear` -- acquires ``_lock`` first; ``stats`` reads outside the
    lock may observe a counter mid-update but never torn state, since the
    fields are plain ints.  ``tests/test_cache_hammer.py`` hammers a shared
    cache from many threads and checks counter conservation.)

    Parameters
    ----------
    maxsize:
        Maximum number of entries kept; ``None`` disables eviction.
    """

    maxsize: int | None = 100_000
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: OrderedDict[str, EvaluatedDesign] = field(default_factory=OrderedDict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False,
                                  compare=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]  # locks are not picklable; restored fresh
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @staticmethod
    def key_for(cache_token: str, x: np.ndarray) -> str:
        """Content hash of one design vector scoped by a problem identity.

        ``cache_token`` should be the problem's
        :attr:`~repro.bo.problem.OptimizationProblem.cache_token`, which
        distinguishes differently-configured instances sharing a name.
        """
        data = np.ascontiguousarray(np.asarray(x, dtype=float).ravel())
        digest = hashlib.sha1(data.tobytes())
        digest.update(cache_token.encode("utf-8"))
        return digest.hexdigest()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> EvaluatedDesign | None:
        """Look up one key, counting the hit/miss and refreshing LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
            else:
                self._entries.move_to_end(key)
                self.stats.hits += 1
        if entry is None:
            telemetry.inc("repro_cache_misses_total")
            return None
        telemetry.inc("repro_cache_hits_total")
        return entry

    def put(self, key: str, evaluation: EvaluatedDesign) -> None:
        evicted = 0
        with self._lock:
            self._entries[key] = evaluation
            self._entries.move_to_end(key)
            if self.maxsize is not None:
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
                    evicted += 1
        telemetry.inc("repro_cache_puts_total")
        if evicted:
            telemetry.inc("repro_cache_evictions_total", evicted)

    def record_saved_duplicate(self) -> None:
        """Count a within-batch duplicate served without simulation as a hit."""
        with self._lock:
            self.stats.hits += 1
        telemetry.inc("repro_cache_hits_total")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
