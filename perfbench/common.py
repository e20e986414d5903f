"""Shared pieces of the benchmark: seeded inputs, the oracle, statistics, spans.

Requests are plain JSON-able dicts in the service's wire format, so one
generator feeds both the HTTP workloads and the in-process replays:

* ``{"route": "/query" | "/count", "bounds": {attr: [lo, hi]}, "semantics": s}``
* ``{"route": "/boolean", "predicate": {"and": [...]}, "semantics": s}``
* ``{"route": "/batch", "queries": [{attr: [lo, hi]}, ...], "semantics": s}``

The oracle never calls an index: it evaluates every request with
``repro.query.ground_truth.evaluate_mask`` over the table the answer was
computed from, combining predicate nodes by the three-valued rules
(certain(NOT p) = NOT possible(p), possible(NOT p) = NOT certain(p)).
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import statistics
import subprocess
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.dataset.table import IncompleteTable
from repro.query import (
    And,
    Atom,
    MissingSemantics,
    Not,
    RangeQuery,
    WorkloadGenerator,
    evaluate_mask,
)

IS_MATCH = MissingSemantics.IS_MATCH
NOT_MATCH = MissingSemantics.NOT_MATCH
SEMANTICS = ("is_match", "not_match", "both")
GLOBAL_SELECTIVITIES = (0.001, 0.01, 0.1)

#: The served data: 30k rows, four attributes.
SERVE_ROWS = 30_000
SERVE_CARDINALITIES = {"a": 100, "b": 50, "c": 20, "d": 10}
SERVE_MISSING = {"a": 0.10, "b": 0.20, "c": 0.30, "d": 0.05}


def random_rows(rng, count, cardinalities, missing) -> dict:
    """``count`` new rows as ``{attr: [values]}`` (0 = missing)."""
    rows = {}
    for name, card in cardinalities.items():
        values = rng.integers(1, card + 1, size=count)
        values[rng.random(count) < missing[name]] = 0
        rows[name] = [int(v) for v in values]
    return rows


# -- request generation -------------------------------------------------------


def _bounds(query: RangeQuery) -> dict:
    return {name: [iv.lo, iv.hi] for name, iv in query.items()}


def _atom(name, lo, hi) -> dict:
    return {"atom": {"attribute": name, "lo": int(lo), "hi": int(hi)}}


class _TableStats:
    """What ``WorkloadGenerator`` reads from a table, computed once."""

    def __init__(self, table):
        self.schema = table.schema
        self._missing = {n: table.missing_fraction(n) for n in table.schema.names}

    def missing_fraction(self, name: str) -> float:
        return self._missing[name]


class _Deck:
    """Draws ``items`` in shuffled rounds, so every share is exact over a
    round and runs on different seeds see the same mix."""

    def __init__(self, rng, items):
        self._rng, self._items, self._left = rng, list(items), []

    def draw(self):
        if not self._left:
            order = self._rng.permutation(len(self._items))
            self._left = [self._items[i] for i in order]
        return self._left.pop()


class RequestMix:
    """A seeded stream of read requests over ``table``.

    ``weights`` maps route -> share (in twentieths); ``max_k`` caps query
    dimensionality; ``batch_size`` is the number of overlapping queries in
    a ``/batch``.  Route, semantics, dimensionality and global selectivity
    each come from their own deck.
    """

    def __init__(self, table, seed, weights, max_k, batch_size):
        self._names = list(table.schema.names)
        self._rng = np.random.default_rng(seed)
        self._gen = WorkloadGenerator(
            _TableStats(table), seed=int(self._rng.integers(2**31)))
        self._routes = _Deck(self._rng, [
            route for route, share in weights.items()
            for _ in range(round(share * 20))])
        self._semantics = _Deck(self._rng, SEMANTICS)
        self._dims = _Deck(self._rng, range(1, max_k + 1))
        self._selectivities = _Deck(self._rng, GLOBAL_SELECTIVITIES)
        self._boolean_dims = _Deck(self._rng, (2, 3))
        self._batch_size = batch_size

    def _query(self, k) -> RangeQuery:
        attrs = [str(a) for a in self._rng.choice(self._names, k, replace=False)]
        return self._gen.query(attrs, self._selectivities.draw())

    def next(self) -> dict:
        route = self._routes.draw()
        request = {"route": route, "semantics": self._semantics.draw()}
        if route in ("/query", "/count"):
            request["bounds"] = _bounds(self._query(self._dims.draw()))
        elif route == "/boolean":
            # AND of two or three atoms with one of them negated.
            query = self._query(self._boolean_dims.draw())
            atoms = [_atom(n, iv.lo, iv.hi) for n, iv in query.items()]
            atoms[-1] = {"not": atoms[-1]}
            request["predicate"] = {"and": atoms}
        else:
            # Overlapping batch: every query shares the base query's
            # attributes and keeps all but one of its intervals.
            base = self._query(max(2, self._dims.draw()))
            queries = []
            for _ in range(self._batch_size):
                bounds = _bounds(base)
                name = str(self._rng.choice(list(bounds)))
                iv = self._gen.interval_for(name, float(self._rng.uniform(0.05, 0.5)))
                bounds[name] = [iv.lo, iv.hi]
                queries.append(bounds)
            request["queries"] = queries
        return request


class WriteMix:
    """Seeded writes: ``/append`` of 50 rows (3 of 4) or ``/delete`` of 20
    live ids (1 of 4).  Tracks the live row count to pick delete ids."""

    APPEND_ROWS = 50
    DELETE_IDS = 20

    def __init__(self, cardinalities, missing, num_rows, seed):
        self._cards = cardinalities
        self._missing = missing
        self._rng = np.random.default_rng(seed)
        self._ops = _Deck(self._rng, ("/append", "/append", "/append", "/delete"))
        self.num_rows = num_rows

    def next(self) -> dict:
        if self._ops.draw() == "/append":
            rows = random_rows(
                self._rng, self.APPEND_ROWS, self._cards, self._missing
            )
            self.num_rows += self.APPEND_ROWS
            return {"route": "/append", "rows": rows}
        ids = self._rng.choice(self.num_rows, self.DELETE_IDS, replace=False)
        self.num_rows -= self.DELETE_IDS
        return {"route": "/delete", "record_ids": sorted(int(i) for i in ids)}


def apply_write(table: IncompleteTable, write: dict) -> IncompleteTable:
    """The table after ``write``, with the service's renumbering on delete."""
    if write["route"] == "/append":
        return IncompleteTable(
            table.schema,
            {
                name: np.concatenate(
                    [table.column(name), np.asarray(write["rows"][name])]
                )
                for name in table.schema.names
            },
            validate=False,
        )
    keep = np.setdiff1d(
        np.arange(table.num_records), np.asarray(write["record_ids"])
    )
    return table.take(keep)


# -- conversion to library objects ---------------------------------------------


def to_query(bounds: dict) -> RangeQuery:
    return RangeQuery.from_bounds({n: (lo, hi) for n, (lo, hi) in bounds.items()})


def to_predicate(node: dict):
    (op, value), = node.items()
    if op == "atom":
        return Atom.of(value["attribute"], value["lo"], value["hi"])
    if op == "and":
        return And(tuple(to_predicate(child) for child in value))
    if op == "not":
        return Not(to_predicate(value))
    raise ValueError(f"unsupported predicate node {op!r}")


# -- oracle -----------------------------------------------------------------------


class Oracle:
    """Brute-force answers over one table, independent of every index.

    Each atom ``(attribute, lo, hi, semantics)`` is one
    ``ground_truth.evaluate_mask`` call over a single-attribute query; a
    range query is the AND of its atoms, exactly as ``evaluate_mask``
    combines attributes.  A small LRU of atom masks serves the intervals
    that overlapping batch queries share.
    """

    def __init__(self, table: IncompleteTable, cache_entries: int = 32):
        # Narrow columns: same answers, less memory traffic.
        self.table = IncompleteTable(
            table.schema,
            {n: table.column(n).astype(np.uint8) for n in table.schema.names},
            validate=False,
        )
        self._cache: OrderedDict = OrderedDict()
        self._cache_entries = cache_entries

    def _atom(self, name, lo, hi, semantics) -> np.ndarray:
        key = (name, lo, hi, semantics)
        mask = self._cache.get(key)
        if mask is None:
            query = RangeQuery.from_bounds({name: (lo, hi)})
            mask = evaluate_mask(self.table, query, semantics)
            self._cache[key] = mask
            if len(self._cache) > self._cache_entries:
                self._cache.popitem(last=False)
        else:
            self._cache.move_to_end(key)
        return mask

    def _range(self, bounds, semantics) -> np.ndarray:
        return np.logical_and.reduce(
            [self._atom(n, lo, hi, semantics) for n, (lo, hi) in bounds.items()])

    def _pair(self, bounds):
        return self._range(bounds, NOT_MATCH), self._range(bounds, IS_MATCH)

    def _predicate(self, node):
        """(certain, possible) masks of a predicate tree, three-valued."""
        (op, value), = node.items()
        if op == "atom":
            return self._pair({value["attribute"]: (value["lo"], value["hi"])})
        if op == "not":
            certain, possible = self._predicate(value)
            return ~possible, ~certain
        pairs = [self._predicate(child) for child in value]
        return (
            np.logical_and.reduce([c for c, _ in pairs]),
            np.logical_and.reduce([p for _, p in pairs]),
        )

    def _finish(self, certain, possible, semantics, count_only):
        if semantics == "both":
            if count_only:
                return {"certain_count": int(certain.sum()),
                        "possible_count": int(possible.sum())}
            return {"certain": certain, "possible": possible}
        mask = possible if semantics == "is_match" else certain
        return {"count": int(mask.sum())} if count_only else {"ids": mask}

    def _single(self, bounds, semantics, count_only) -> dict:
        if semantics == "both":
            return self._finish(*self._pair(bounds), semantics, count_only)
        mask = self._range(bounds, MissingSemantics(semantics))
        return self._finish(mask, mask, semantics, count_only)

    def expected(self, request: dict):
        """The answer to ``request``: a dict, or a list for ``/batch``.

        Id sets come back as boolean masks over the rows; compare them with
        :func:`same_answer`."""
        semantics = request["semantics"]
        route = request["route"]
        if route == "/batch":
            return [self._single(q, semantics, False) for q in request["queries"]]
        if route == "/boolean":
            return self._finish(*self._predicate(request["predicate"]), semantics, False)
        return self._single(request["bounds"], semantics, route == "/count")


def _ids(part: dict) -> np.ndarray:
    ids = np.asarray(part["record_ids"], dtype=np.int64)
    if part.get("truncated") or len(ids) != part["matches"]:
        raise ValueError("id list is truncated or disagrees with its count")
    return ids


def _single_from_payload(payload: dict, semantics: str, count_only: bool) -> dict:
    if semantics == "both":
        if count_only:
            return {"certain_count": payload["certain_matches"],
                    "possible_count": payload["possible_matches"]}
        answer = {"certain": _ids(payload["certain"]),
                  "possible": _ids(payload["possible"])}
        if (payload.get("certain_matches", len(answer["certain"]))
                != len(answer["certain"])
                or payload.get("possible_matches", len(answer["possible"]))
                != len(answer["possible"])):
            raise ValueError("match counts disagree with the id lists")
        return answer
    if count_only:
        return {"count": payload["matches"]}
    return {"ids": _ids(payload)}


def answer_from_payload(request: dict, payload: dict):
    """Normalize a service response to the oracle's answer shape."""
    semantics = request["semantics"]
    if payload.get("semantics") != semantics:
        raise ValueError(f"response semantics {payload.get('semantics')!r}")
    if request["route"] == "/batch":
        results = payload["results"]
        if len(results) != len(request["queries"]):
            raise ValueError("batch result count differs from the request")
        return [_single_from_payload(r, semantics, False) for r in results]
    return _single_from_payload(payload, semantics, request["route"] == "/count")


def _same_ids(ids, mask: np.ndarray) -> bool:
    """Whether sorted unique ``ids`` are exactly the rows set in ``mask``."""
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) != np.count_nonzero(mask):
        return False
    if len(ids) == 0:
        return True
    return bool(
        ids[0] >= 0 and ids[-1] < len(mask)
        and (np.diff(ids) > 0).all() and mask[ids].all()
    )


def same_answer(got, want) -> bool:
    """``got`` (ids as arrays) against an :meth:`Oracle.expected` answer."""
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(same_answer(g, w) for g, w in zip(got, want))
        )
    if not isinstance(got, dict) or got.keys() != want.keys():
        return False
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            if not _same_ids(got[key], value):
                return False
        elif int(got[key]) != value:
            return False
    return True


# -- statistics ---------------------------------------------------------------------


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


# -- spans ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    request_id: int | None
    name: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory spans recorded around the benchmark's calls into each layer.

    A disabled tracer's :meth:`span` does nothing, so the untraced run and
    the traced run share one code path.  Parents come from a per-thread
    stack; a span inherits its parent's request id unless given one.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, request_id: int | None = None):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent[1]
        span_id = next(self._ids)
        stack.append((span_id, request_id))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(Span(
                    span_id, parent[0] if parent else None, request_id,
                    name, start, end,
                ))

    def self_time_ms(self) -> dict[str, float]:
        """Total self time per span name: duration minus child coverage."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        totals: dict[str, float] = {}
        for span in self.spans:
            covered, cursor = 0, span.start_ns
            for child in sorted(children.get(span.span_id, ()),
                                key=lambda s: s.start_ns):
                lo, hi = max(child.start_ns, cursor), min(child.end_ns, span.end_ns)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[span.name] = totals.get(span.name, 0.0) + (
                span.duration_ns - covered) / 1e6
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(s.__dict__) + "\n")


# -- environment -------------------------------------------------------------------


def environment(root: Path) -> dict:
    from repro import bitvector

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": bitvector.get_backend().name,
        "nproc": os.cpu_count(),
    }
