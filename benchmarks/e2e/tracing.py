"""Span tracing installed around the engine from the benchmark's side.

The engine has no trace of its own yet (ROADMAP "Measurement foundation
(a)"), so the traced pass monkeypatches timing wrappers around each
layer's public entry points and removes them again afterwards; untimed
and end-to-end passes run the unmodified code.  A span is
``[id, name, start, end, parent_id, query_id]`` (seconds on the
``time.perf_counter`` axis, ``parent_id`` -1 for a root); a span's *self
time* is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import zlib
from collections import Counter
from contextlib import contextmanager, nullcontext

ID, NAME, START, END, PARENT, QUERY = range(6)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        #: ``(arrival_time, submit_time)`` per served ticket, by stream index.
        self.submits: dict[int, tuple[float, float]] = {}
        #: Running CRC32 of every physical plan made for a query, by query id.
        self.plan_crcs: Counter = Counter()
        self._ids = itertools.count()  # next() is atomic under the GIL
        self._local = threading.local()
        self._patches = [(owner, attr, vars(owner)[attr], wrapper)
                         for owner, attr, wrapper in self._build_patches()]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, query_id: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if query_id is None and parent is not None:
            query_id = parent[QUERY]
        record = [next(self._ids), name, 0.0, 0.0,
                  parent[ID] if parent is not None else -1, query_id]
        stack.append(record)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    @contextmanager
    def installed(self):
        """Patch the engine's entry points for the duration of the block."""
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _wrapper in self._patches:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Patch table
    # ------------------------------------------------------------------
    def _traced(self, original, name=None, query_id=None, after=None):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                qid = query_id(args) if query_id is not None else None
                with self.span(name, qid):
                    result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _build_patches(self):
        def target(path, attr, **kwargs):
            module_name, _, cls = path.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls)
            return owner, attr, self._traced(vars(owner)[attr], **kwargs)

        counters = self.counters
        run_query_id = lambda args: args[1].name  # noqa: E731  run(self, query)

        def after_execute(_args, result):
            times = result.operator_times
            scans = sum(t for label, t in times.items() if label.startswith("Scan["))
            nodes = [t for label, t in times.items() if label != "Aggregate"]
            counters["scan_s"] += scans
            # Node times are inclusive of their subtree and the call's root
            # is the largest, so the joins' own share is root minus scans.
            counters["join_s"] += max(max(nodes, default=0.0) - scans, 0.0)
            counters["aggregate_s"] += times.get("Aggregate", 0.0)
            counters["scan_blocks_total"] += result.scan_blocks_total
            counters["scan_blocks_pruned"] += result.scan_blocks_pruned
            counters["fused_rows_touched"] += result.fused_rows_touched
            counters["semijoin_pruned_rows"] += result.semijoin_pruned_rows
            counters["materialized_bytes"] += result.materialized_bytes

        def after_plan(_args, plan):
            query_id = self._local.stack[-1][QUERY]  # the caller's span
            self.plan_crcs[query_id] = zlib.crc32(
                plan.explain().encode(), self.plan_crcs[query_id])

        def after_register_temp(args, _result):
            counters["temp_tables"] += 1
            counters["temp_bytes_peak"] = max(counters["temp_bytes_peak"],
                                              args[0].temp_memory_bytes())

        def after_subqueries(_args, result):
            counters["subqueries"] += len(result)

        def after_submit(args, _result):
            ticket = args[1]
            self.submits[ticket.index] = (ticket.arrival_time, ticket.submit_time)

        def counting_put(original):
            @functools.wraps(original)
            def put(cache, signature, chunk):
                fresh = cache.peek(signature) is None
                before, rejected = len(cache), cache.rejected
                original(cache, signature, chunk)
                if fresh and cache.rejected == rejected:
                    counters["cache_evictions"] += before + 1 - len(cache)
            return put

        from repro.executor.subplan_cache import SubplanCache

        aggregate = dict(name="executor.aggregate")
        return [
            target("repro.storage.database:Database", "load_table", name="storage.load"),
            target("repro.storage.database", "analyze_table",
                   name="catalog.setup_analyze"),
            target("repro.bench.harness", "make_algorithm",
                   name="bench.make_algorithm"),
            target("repro.core.splitter:QuerySplitExecutor", "run",
                   name="core.run", query_id=run_query_id),
            target("repro.reopt.base:AlgorithmBase", "run",
                   name="reopt.run", query_id=run_query_id),
            target("repro.core.splitter", "generate_subqueries",
                   after=after_subqueries),
            target("repro.optimizer.optimizer:Optimizer", "plan",
                   name="optimizer.plan", after=after_plan),
            target("repro.optimizer.optimizer:Optimizer", "estimate",
                   name="optimizer.estimate"),
            target("repro.executor.executor:Executor", "execute",
                   name="executor.execute", after=after_execute),
            target("repro.core.nonspj", "group_aggregate", **aggregate),
            target("repro.core.splitter", "group_aggregate", **aggregate),
            target("repro.core.splitter", "_scalar_aggregate", **aggregate),
            target("repro.core.splitter", "analyze_columns", name="catalog.analyze"),
            target("repro.reopt.base", "analyze_columns", name="catalog.analyze"),
            target("repro.storage.database:Database", "register_temp",
                   name="storage.temp_register", after=after_register_temp),
            target("repro.serving.server:EngineServer", "submit",
                   after=after_submit),
            (SubplanCache, "put", counting_put(vars(SubplanCache)["put"])),
        ]


def span(tracer: Tracer | None, name: str, query_id: str | None = None):
    """``tracer.span(...)``, or nothing when tracing is off."""
    return tracer.span(name, query_id) if tracer else nullcontext()


# ----------------------------------------------------------------------
# Reading spans
# ----------------------------------------------------------------------
def totals(spans) -> tuple[Counter, Counter, Counter]:
    """``(seconds, self seconds, calls)`` per span name.

    A span nested directly inside one of the same name's layer family
    (``optimizer.plan`` inside ``optimizer.estimate``) is counted under
    its parent only, so the optimizer's two numbers add up.
    """
    by_id = {span[ID]: span for span in spans}
    children = Counter()
    for span in spans:
        children[span[PARENT]] += span[END] - span[START]
    seconds, self_seconds, calls = Counter(), Counter(), Counter()
    for span in spans:
        parent = by_id.get(span[PARENT])
        if (span[NAME] == "optimizer.plan" and parent is not None
                and parent[NAME] == "optimizer.estimate"):
            continue
        duration = span[END] - span[START]
        seconds[span[NAME]] += duration
        self_seconds[span[NAME]] += duration - children[span[ID]]
        calls[span[NAME]] += 1
    return seconds, self_seconds, calls


def root_seconds(spans) -> float:
    """Seconds covered by root spans (what the trace accounts for)."""
    return sum(span[END] - span[START] for span in spans if span[PARENT] == -1)


def write_spans(path, spans) -> None:
    """One JSON object per line: name, start, end, parent, query_id."""
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps({
                "id": span[ID], "name": span[NAME], "start": span[START],
                "end": span[END], "parent": span[PARENT],
                "query_id": span[QUERY]}) + "\n")
