"""Engine-level cross-policy subplan cache.

Every physical subtree that joins the same set of filtered relations with
the same join predicates produces the same multiset of rows, *regardless of
join order or physical operator choice*.  Because the late-materialization
executor represents intermediate results as row-id chunks (no payload
columns), a cached subtree result is also column-agnostic: a consumer can
gather whatever columns it needs from the relations the chunk kept (joins
drop those nothing above reads), so a lookup names the aliases it reads.

The :class:`SubplanCache` exploits both properties.  It is keyed by the
canonical subtree signature (see :meth:`repro.plan.physical.PlanNode.signature`):

``(frozenset of (table, alias, is_temp, filters) per scan,
   frozenset of join predicates)``

so QuerySplit and the plan-driven re-optimization baselines hit the same
entries when they (re-)compute an identical subtree -- even when their
optimizers picked different join orders.  The cache is *opt-in*: an
:class:`~repro.executor.executor.Executor` only consults it when one is
passed at construction, and a workload driver shares one instance across
every policy/algorithm it runs.

Keying rules (see ARCHITECTURE.md for the full discussion):

* subtrees touching **temporary tables have no key** -- temp names are
  recycled between queries, so :meth:`~repro.plan.physical.PlanNode.signature`
  returns ``None`` for them and the executor neither looks them up nor
  stores them;
* entries larger than ``max_rows`` are not cached (memory bound);
* entries are evicted LRU beyond ``max_entries``.

Base tables are load-once, so an entry stays valid for the life of the
database it was computed on: nothing is ever invalidated.

A cache instance is bound to one loaded :class:`~repro.storage.database.Database`
(signatures name tables, not data): never share one across differently loaded
databases.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.executor.chunk import Chunk

#: Signature type: (frozenset of scan tuples, frozenset of join predicates).
Signature = tuple[frozenset, frozenset]


class SubplanCache:
    """LRU cache of executed subtree results keyed by canonical signature.

    Memory is bounded three ways: per-entry rows (``max_rows``), entry count
    (``max_entries``), and *total retained bytes* across all entries
    (``max_bytes``) -- a chunk costs roughly 8 bytes per row per source
    relation, so a handful of wide 2M-row subtrees would otherwise dwarf the
    entry-count bound.

    The cache is **thread-safe**: every public operation (including the
    counter updates and the eviction loop inside :meth:`put`) runs under one
    internal lock, so the serving layer (:mod:`repro.serving`) can share a
    single instance across a pool of worker threads.  Cached chunks are
    treated as immutable by every consumer, so handing the same chunk to two
    concurrent executors is safe.  The byte accounting
    (``total_bytes == sum(per-entry bytes) <= max_bytes`` after any put)
    holds under arbitrary interleavings; ``tests/test_subplan_cache_concurrency.py``
    hammers exactly these invariants.
    """

    def __init__(self, max_entries: int = 256, max_rows: int = 2_000_000,
                 max_bytes: int = 512 * 2 ** 20):
        self.max_entries = max_entries
        self.max_rows = max_rows
        self.max_bytes = max_bytes
        self._entries: OrderedDict[Signature, Chunk] = OrderedDict()
        self._entry_bytes: dict[Signature, int] = {}
        self._database = None
        self._lock = threading.RLock()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.rejected = 0

    def bind(self, database) -> None:
        """Bind this cache to one loaded database; reject any other.

        Signatures name tables, not data, so a cache reused against a
        *different* database instance would silently serve the old
        database's rows.  Every executor binds on construction, turning
        that misuse into a loud error.  Session views
        (:meth:`repro.storage.database.Database.session_view`) of one loaded
        database expose the same data, so binding compares *origins*: every
        view of an already-bound database is accepted.
        """
        database = getattr(database, "origin", database)
        with self._lock:
            if self._database is None:
                self._database = database
            elif self._database is not database:
                raise ValueError(
                    "SubplanCache is already bound to a different Database "
                    "instance; use one cache per loaded database (or clear() a "
                    "cache before reusing it, after rebuilding its consumers)")

    @staticmethod
    def _chunk_bytes(chunk: Chunk) -> int:
        """Retained size: the row-id vectors kept alive beyond the tables."""
        if not chunk.sources:
            return chunk.num_rows * 8
        return sum(source.retained_bytes for source in chunk.sources)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, signature: Signature,
            reads: frozenset[str] = frozenset()) -> Chunk | None:
        """Cached chunk for ``signature`` that covers every alias in
        ``reads``, or None."""
        with self._lock:
            chunk = self._entries.get(signature)
            if chunk is None or not chunk.covers_all(reads):
                self.misses += 1
                return None
            self._entries.move_to_end(signature)
            self.hits += 1
            return chunk

    def put(self, signature: Signature, chunk: Chunk) -> None:
        """Store a subtree result unless the keying rules forbid it,
        replacing any entry under ``signature``."""
        cost = self._chunk_bytes(chunk)
        with self._lock:
            if chunk.num_rows > self.max_rows or cost > self.max_bytes:
                self.rejected += 1
                return
            previous = self._entries.get(signature)
            self._entries[signature] = chunk
            if previous is not None:
                self.total_bytes -= self._entry_bytes[signature]
            self._entry_bytes[signature] = cost
            self.total_bytes += cost
            self._entries.move_to_end(signature)
            while (len(self._entries) > self.max_entries
                   or self.total_bytes > self.max_bytes):
                evicted_sig, _chunk = self._entries.popitem(last=False)
                self.total_bytes -= self._entry_bytes.pop(evicted_sig)

    def peek(self, signature: Signature) -> Chunk | None:
        """Non-mutating lookup: no hit/miss counters, no LRU promotion.

        For read-only observers (the end-to-end benchmark's tracer asks
        whether a put is fresh), so looking neither distorts the
        executor-reuse hit rate nor evicts entries the executor would reuse.
        """
        with self._lock:
            return self._entries.get(signature)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every entry, reset the counters, and unbind the database."""
        with self._lock:
            self._entries.clear()
            self._entry_bytes.clear()
            self._database = None
            self.total_bytes = 0
            self.hits = 0
            self.misses = 0
            self.rejected = 0

    def check_invariants(self) -> list[str]:
        """Every violated structural invariant (empty list = consistent).

        Taken under the lock, so a concurrent stress test can interleave
        checks with live traffic and still observe a consistent snapshot:
        the entry map and the byte ledger must track the same signatures,
        ``total_bytes`` must equal the ledger sum, and both budgets must
        hold whenever the cache is at rest.
        """
        with self._lock:
            problems: list[str] = []
            if set(self._entries) != set(self._entry_bytes):
                problems.append("entry map and byte ledger disagree on keys")
            ledger = sum(self._entry_bytes.values())
            if self.total_bytes != ledger:
                problems.append(
                    f"total_bytes={self.total_bytes} != ledger sum {ledger}")
            if self.total_bytes > self.max_bytes:
                problems.append(
                    f"total_bytes={self.total_bytes} exceeds budget {self.max_bytes}")
            if len(self._entries) > self.max_entries:
                problems.append(
                    f"{len(self._entries)} entries exceed max {self.max_entries}")
            return problems

    def __repr__(self) -> str:
        return (f"SubplanCache(entries={len(self._entries)}, "
                f"bytes={self.total_bytes}, hits={self.hits}, "
                f"misses={self.misses}, rejected={self.rejected})")
