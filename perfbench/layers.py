"""The traced run's per-layer metrics, measured from outside.

Every number here comes from timing a public call of one layer — the
service over HTTP, ``ShardedDatabase``, ``IncompleteDatabase``, the bitmap
and VA-file indexes, WAH bitvectors, ``save_sharded`` / ``load_sharded`` —
with a span recorded around it.  Each function returns
``{name: (value, unit, samples)}``.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    Tracer,
    median,
    random_rows,
    to_predicate,
    to_query,
)
from repro import IncompleteDatabase
from repro.bitvector import OpCounter, words_of
from repro.dataset.table import IncompleteTable, concat_tables
from repro.errors import QueryError
from repro.query import MissingSemantics
from repro.observability import NULL_REGISTRY, MetricsRegistry, set_registry
from repro.shard import ShardedDatabase
from repro.shard.manifest import load_sharded, save_sharded
from repro.vafile.vafile import VaQueryStats
from serve_load import (
    IDLE_WRITES,
    REJECT_STATUSES,
    Client,
    ServeSession,
    failures,
    histogram_mean_ms,
    scrape_histograms,
)

#: Indexes of the in-process probe database.
INDEX_KINDS = ("bee", "bre", "vafile")
#: Queries each in-process probe times (bounded so the traced run stays short).
PROBE_QUERIES = 40
REPLAY_REQUESTS = 120
STORAGE_REPEATS = 3


def build_engine(table) -> IncompleteDatabase:
    db = IncompleteDatabase(table)
    for kind in INDEX_KINDS:
        db.create_index(kind, kind)
    return db


def timed(tracer: Tracer, name: str, fn, *args, **kwargs):
    """``(fn(*args, **kwargs), milliseconds)`` with a span around the call."""
    with tracer.span(name):
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter_ns() - start
    return result, elapsed / 1e6


def range_queries(requests) -> list[tuple[dict, str]]:
    """``(bounds, semantics)`` of the range queries among ``requests``."""
    out = []
    for request in requests:
        if "bounds" in request:
            out.append((request["bounds"], request["semantics"]))
        elif "queries" in request:
            out.extend((q, request["semantics"]) for q in request["queries"][:2])
    return out


def batches(requests) -> list[tuple[list, str]]:
    return [(r["queries"], r["semantics"]) for r in requests if "queries" in r]


# -- serve -------------------------------------------------------------------------


def traced_serve(root, tmp, table, seed, tracer: Tracer, seconds: float,
                 writer: bool) -> tuple[dict, ServeSession, int, int]:
    """Serve ``table`` for ``seconds`` with every other read traced.

    Returns the serve.* / epoch.* / trace.* metrics, the session, and the
    attempted / failed counts of the whole session.
    """
    readers = 1 if writer else 2
    session = ServeSession(root, tmp, table, seed, tracer)
    try:
        session.setup(repeats=1)
        session.warm_up(readers)
        client = Client(session.server.host, session.server.port)
        before = scrape_histograms(client)
        session.run(seconds, readers, writer, healthz_every=4,
                    idle_writes=0 if writer else IDLE_WRITES // 2)
        after = scrape_histograms(client)
        client.close()
    finally:
        session.teardown()
    attempted, failed = failures(session, session.verify())
    reads = [r for r in session.reads if r.measured and r.status == 200]
    engine = [r for r in reads if r.elapsed_ms is not None]
    layers = {
        "serve.http_floor_ms": (median(session.healthz_ms), "ms",
                                len(session.healthz_ms)),
        "serve.engine_share": (
            sum(r.elapsed_ms for r in engine) / sum(r.latency_ms for r in engine),
            "ratio", len(engine)),
        "serve.nonengine_ms": (
            median([r.latency_ms - r.elapsed_ms for r in engine]), "ms", len(engine)),
        "serve.response_kb": (
            sum(r.size for r in reads) / len(reads) / 1024, "KiB", len(reads)),
        "serve.wait_ms": (
            histogram_mean_ms(before, after, "repro_serve_wait_ns"), "ms",
            len(session.reads)),
        "serve.rejected": (
            sum(1 for r in session.reads + session.writes
                if r.status in REJECT_STATUSES), "count",
            len(session.reads) + len(session.writes)),
        "epoch.publish_ms": (
            histogram_mean_ms(before, after, "repro_epoch_publish_ns"), "ms",
            len(session.writes)),
        "trace.overhead_ms": (
            median([r.latency_ms for r in reads if r.traced])
            - median([r.latency_ms for r in reads if not r.traced]),
            "ms", len(reads)),
    }
    return layers, session, attempted, failed


def rebuild_layer(table, seed: int, tracer: Tracer) -> dict:
    """serve.rebuild_ms: the writer's next snapshot for one 50-row append."""
    rng = np.random.default_rng(seed + 101)
    cards = {n: table.schema.cardinality(n) for n in table.schema.names}
    missing = {n: table.missing_fraction(n) for n in table.schema.names}
    times = []
    for _ in range(5):
        rows = random_rows(rng, 50, cards, missing)
        chunk = IncompleteTable(table.schema,
                                {n: np.asarray(v) for n, v in rows.items()})
        with tracer.span("serve.rebuild"):
            start = time.perf_counter_ns()
            db = ShardedDatabase(concat_tables(table, chunk), num_shards=4)
            db.create_index("bre", "bre")
            db.create_index("va", "vafile")
            times.append((time.perf_counter_ns() - start) / 1e6)
        db.close()
    return {"serve.rebuild_ms": (median(times), "ms", len(times))}


# -- shard + storage ---------------------------------------------------------------


def _run_on(db, request: dict):
    semantics = request["semantics"]
    route = request["route"]
    if route == "/batch":
        return db.execute_batch([to_query(q) for q in request["queries"]], semantics)
    if route == "/boolean":
        return db.query_predicate(to_predicate(request["predicate"]), semantics)
    if route == "/count":
        return db.count(to_query(request["bounds"]), semantics)
    return db.execute(to_query(request["bounds"]), semantics)


def shard_storage_layers(directory, tmp, requests, tracer: Tracer) -> dict:
    """Replay served requests on ``load_sharded(directory)`` and time storage."""
    load_s, save_s = [], []
    sharded = None
    for attempt in range(STORAGE_REPEATS):
        if sharded is not None:
            sharded.close()
        sharded, ms = timed(tracer, "storage.load_sharded", load_sharded, directory)
        load_s.append(ms / 1e3)
        _, ms = timed(tracer, "storage.save_sharded", save_sharded, sharded,
                      tmp / f"resave{attempt}")
        save_s.append(ms / 1e3)
    flat = IncompleteDatabase(sharded.table)
    flat.create_index("bre", "bre")
    flat.create_index("va", "vafile")
    sharded_ms, flat_ms, pruned, skew = [], [], [], []
    for request in requests[:REPLAY_REQUESTS]:
        name = "shard." + request["route"][1:]
        report, ms = timed(tracer, name, _run_on, sharded, request)
        sharded_ms.append(ms)
        _, ms = timed(tracer, "core." + request["route"][1:], _run_on, flat, request)
        flat_ms.append(ms)
        if request["route"] == "/query":
            pruned.append(report.num_pruned / sharded.num_shards)
            if hasattr(report, "skew"):
                skew.append(report.skew)
    sharded.close()
    return {
        "shard.execute_ms": (median(sharded_ms), "ms", len(sharded_ms)),
        "shard.vs_unsharded": (sum(sharded_ms) / sum(flat_ms), "ratio",
                               len(sharded_ms)),
        "shard.pruned_frac": (float(np.mean(pruned)), "ratio", len(pruned)),
        "shard.skew": (float(np.mean(skew)), "ratio", len(skew)),
        "storage.save_s": (median(save_s), "s", len(save_s)),
        "storage.load_s": (median(load_s), "s", len(load_s)),
    }


# -- core, query, bitmap, bitvector, vafile ----------------------------------------------


def _forced_and_auto(db, queries, tracer):
    plan_ms, auto_ms, best_ms, both_ms, is_ms = [], [], [], [], []
    for bounds, semantics in queries:
        query = to_query(bounds)
        costing = MissingSemantics("is_match" if semantics == "both" else semantics)
        chosen, ms = timed(tracer, "core.choose_index", db.choose_index, query,
                           costing)
        plan_ms.append(ms)
        _, ms = timed(tracer, "core.execute", db.execute, query, semantics)
        auto_ms.append(ms)
        forced = [
            timed(tracer, "core.execute_forced", db.execute, query, semantics,
                  using=name)[1]
            for name in db.index_names if db.get_index(name).covers(query)
        ]
        best_ms.append(min(forced))
        using = chosen.name if chosen is not None else None
        both_ms.append(timed(tracer, "query.both", db.execute, query, "both",
                             using=using)[1])
        is_ms.append(timed(tracer, "query.is_match", db.execute, query,
                           "is_match", using=using)[1])
    return plan_ms, auto_ms, best_ms, both_ms, is_ms


def _registry_overhead(db, queries, tracer) -> float:
    live_ms, null_ms = [], []
    registry = MetricsRegistry()
    for i, (bounds, semantics) in enumerate(queries):
        query = to_query(bounds)
        order = (registry, NULL_REGISTRY) if i % 2 else (NULL_REGISTRY, registry)
        for installed in order:
            previous = set_registry(installed)
            try:
                _, ms = timed(tracer, "observability.execute", db.execute, query,
                              semantics)
            finally:
                set_registry(previous)
            (live_ms if installed is registry else null_ms).append(ms)
    return sum(live_ms) / sum(null_ms)


def _bitmap_layer(db, kind, queries, tracer, counter):
    index = db.get_index(kind).index
    times = []
    for bounds, semantics in queries:
        query = to_query(bounds)
        if semantics == "both":
            _, ms = timed(tracer, f"bitmap.{kind}.execute_ids_both",
                          index.execute_ids_both, query, counter)
        else:
            _, ms = timed(tracer, f"bitmap.{kind}.execute_ids", index.execute_ids,
                          query, MissingSemantics(semantics), counter)
        times.append(ms)
    return times


def _ns_per_word(db, tracer) -> tuple[float, int]:
    index = db.get_index("bre").index
    attribute = max(index.attributes, key=index.num_bitmaps)
    vectors = []
    for j in range(index.cardinality(attribute) + 1):
        try:
            vectors.append(index.bitmap(attribute, j))
        except QueryError:
            pass  # a slot this encoding does not store
    total_ns, words = 0, 0
    for _ in range(5):
        for left, right in zip(vectors, vectors[1:]):
            for name, fn, operand_words in (
                ("bitvector.and", lambda: left & right, words_of(left) + words_of(right)),
                ("bitvector.or", lambda: left | right, words_of(left) + words_of(right)),
                ("bitvector.not", lambda: ~left, words_of(left)),
            ):
                _, ms = timed(tracer, name, fn)
                total_ns += ms * 1e6
                words += operand_words
    return total_ns / words, words


def _vafile_layer(db, queries, tracer):
    index = db.get_index("vafile").index
    execute_ms, scan_ms = [], []
    stats, exact = VaQueryStats(), 0
    for bounds, semantics in queries:
        query = to_query(bounds)
        single = MissingSemantics("is_match" if semantics == "both" else semantics)
        _, ms = timed(tracer, "vafile.candidate_mask", index.candidate_mask,
                      query, single)
        scan_ms.append(ms)
        ids, ms = timed(tracer, "vafile.execute_ids", index.execute_ids, query,
                        single, stats)
        execute_ms.append(ms)
        exact += len(ids)
    return execute_ms, scan_ms, exact / max(stats.candidates, 1)


def _append_vs_build(table, seed, tracer) -> float:
    scratch = IncompleteDatabase(table)
    _, build_ms = timed(tracer, "bitmap.build", scratch.create_index, "bre", "bre")
    rng = np.random.default_rng(seed + 7)
    cards = {n: table.schema.cardinality(n) for n in table.schema.names}
    missing = {n: table.missing_fraction(n) for n in table.schema.names}
    rows = random_rows(rng, 50, cards, missing)
    chunk = IncompleteTable(table.schema, {n: np.asarray(v) for n, v in rows.items()})
    _, append_ms = timed(tracer, "bitmap.append", scratch.get_index("bre").index.append,
                         chunk)
    return append_ms / build_ms


def engine_layers(db: IncompleteDatabase, requests, seed: int, tracer: Tracer) -> dict:
    """core / query / observability / bitmap / bitvector / vafile probes on
    ``db`` (which carries ``bee``, ``bre`` and ``vafile`` indexes)."""
    queries = range_queries(requests)[:PROBE_QUERIES]
    plan_ms, auto_ms, best_ms, both_ms, is_ms = _forced_and_auto(db, queries, tracer)

    cache = db.sub_result_cache
    before = cache.stats()
    groups = batches(requests)[:10]
    for group, semantics in groups:
        timed(tracer, "core.execute_batch", db.execute_batch,
              [to_query(q) for q in group], semantics)
    after = cache.stats()
    hits, misses = after.hits - before.hits, after.misses - before.misses

    counter = OpCounter()
    bee_ms = _bitmap_layer(db, "bee", queries, tracer, counter)
    bre_ms = _bitmap_layer(db, "bre", queries, tracer, counter)
    calls = len(bee_ms) + len(bre_ms)
    ns_per_word, words = _ns_per_word(db, tracer)
    va_ms, scan_ms, refine_frac = _vafile_layer(db, queries, tracer)
    n = len(queries)
    return {
        "core.plan_ms": (median(plan_ms), "ms", n),
        "core.execute_ms": (median(auto_ms), "ms", n),
        "core.plan_regret": (sum(auto_ms) / sum(best_ms), "ratio", n),
        "core.cache_hit_rate": (hits / max(hits + misses, 1), "ratio", hits + misses),
        "core.cache_evictions": (after.evictions - before.evictions, "count",
                                 len(groups)),
        "core.registry_overhead": (_registry_overhead(db, queries, tracer), "ratio", n),
        "query.both_ratio": (sum(both_ms) / sum(is_ms), "ratio", n),
        "bitmap.bee.execute_ms": (median(bee_ms), "ms", len(bee_ms)),
        "bitmap.bre.execute_ms": (median(bre_ms), "ms", len(bre_ms)),
        "bitmap.words_per_query": (counter.words_processed / calls, "count", calls),
        "bitmap.bitmaps_per_query": (counter.bitmaps_touched / calls, "count", calls),
        "bitmap.append_vs_build": (_append_vs_build(db.table, seed, tracer), "ratio", 1),
        "bitvector.ns_per_word": (ns_per_word, "ns", words),
        "vafile.execute_ms": (median(va_ms), "ms", len(va_ms)),
        "vafile.scan_ms": (median(scan_ms), "ms", len(scan_ms)),
        "vafile.refine_frac": (refine_frac, "ratio", len(va_ms)),
    }
