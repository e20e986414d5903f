"""JSON query service over epoch-pinned snapshots (stdlib HTTP).

:class:`QueryService` is the serving front end of ROADMAP item 1: a
``ThreadingHTTPServer`` (the same idiom as the telemetry endpoint) whose
read routes pin the current epoch for exactly the duration of one
request, and whose write routes go through the serialized
:class:`~repro.serve.writer.SnapshotWriter`.

Routes (JSON in/out unless noted):

=================  ====  ==================================================
``/healthz``       GET   liveness + current epoch
``/metrics``       GET   Prometheus exposition of the installed registry
``/epochs``        GET   epoch lifecycle stats (current, retained, pins...)
``/query``         POST  range query -> matching record ids
``/count``         POST  range query -> match count only
``/batch``         POST  many range queries through the batch executor
``/boolean``       POST  AND/OR/NOT predicate tree query
``/ranked``        POST  probabilistic query -> ids ranked by match chance
``/explain``       POST  the sharded plan for a range query, as text
``/append``        POST  append rows (new epoch)
``/delete``        POST  remove rows by id (new epoch)
``/compact``       POST  rewrite into a fresh generation (new epoch)
``/create-index``  POST  add an index (new epoch)
``/drop-index``    POST  remove an index (new epoch)
=================  ====  ==================================================

Read requests accept ``semantics`` (``"is_match"`` / ``"not_match"`` /
``"both"`` — the last returns the certain/possible answer pair, see
``docs/semantics.md``), ``using`` (force an index), ``limit`` (cap
returned record ids; a non-negative integer), and ``deadline_ms`` (a
positive number, also settable via an ``X-Deadline-Ms`` header).
``/ranked`` additionally accepts ``threshold`` (minimum match
probability).  A malformed field is a **400** naming it.  Responses are
compact JSON (no indentation, no key sorting).

Admission control: at most ``max_inflight`` requests execute at once;
up to ``queue_limit`` more wait their turn.  Beyond that the service
answers **429** (queue full).  A request whose deadline expires while
queued gets **408**; once :meth:`QueryService.stop` starts draining, new
requests get **503** while in-flight ones finish.  Every outcome is
metered under ``serve.*`` (see ``docs/observability.md``) and every
executed query flows through the installed workload recorder via the
engine's own instrumentation.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from repro.errors import QueryError, ReproError
from repro.observability import get_registry, record
from repro.observability.export import render_prometheus
from repro.query.boolean import And, Atom, Not, Or, Predicate
from repro.query.model import BOTH, MissingSemantics, RangeQuery, resolve_semantics
from repro.serve.epoch import EpochManager
from repro.serve.writer import SnapshotWriter
from repro.shard.sharded import ShardedDatabase

__all__ = ["QueryService"]

#: Route -> metric suffix for ``serve.requests.<route>`` counters.
_ROUTE_KEYS = {
    "/healthz": "healthz",
    "/metrics": "metrics",
    "/epochs": "epochs",
    "/query": "query",
    "/count": "count",
    "/batch": "batch",
    "/boolean": "boolean",
    "/ranked": "ranked",
    "/explain": "explain",
    "/append": "append",
    "/delete": "delete",
    "/compact": "compact",
    "/create-index": "create_index",
    "/drop-index": "drop_index",
}

_MAX_BODY_BYTES = 64 * 1024 * 1024


class _Reject(Exception):
    """An admission-control or client error mapped to an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _parse_semantics(value):
    try:
        return resolve_semantics(value)
    except QueryError as exc:
        raise _Reject(400, str(exc))


def _parse_bounds(body: dict, key: str = "bounds") -> RangeQuery:
    bounds = body.get(key)
    if not isinstance(bounds, dict) or not bounds:
        raise _Reject(400, f"body must carry {key!r}: {{attribute: [lo, hi]}}")
    try:
        return RangeQuery.from_bounds(
            {name: (int(lo), int(hi)) for name, (lo, hi) in bounds.items()}
        )
    except (TypeError, ValueError) as exc:
        raise _Reject(400, f"malformed {key!r}: {exc}")


def _parse_predicate(node) -> Predicate:
    """``{"and": [...]}`` / ``{"or": [...]}`` / ``{"not": ...}`` /
    ``{"atom": {"attribute", "lo", "hi"}}`` -> a Predicate tree."""
    if not isinstance(node, dict) or len(node) != 1:
        raise _Reject(
            400,
            "predicate nodes are single-key objects: "
            "atom / and / or / not",
        )
    (op, value), = node.items()
    try:
        if op == "atom":
            if not isinstance(value, dict):
                raise TypeError(
                    f"atom body must be an object, got "
                    f"{type(value).__name__}"
                )
            attribute = value["attribute"]
            if not isinstance(attribute, str):
                raise TypeError(
                    f"'attribute' must be a string, got "
                    f"{type(attribute).__name__}"
                )
            return Atom.of(
                attribute, int(value["lo"]),
                int(value.get("hi", value["lo"])),
            )
        if op == "and":
            return And(tuple(_parse_predicate(child) for child in value))
        if op == "or":
            return Or(tuple(_parse_predicate(child) for child in value))
        if op == "not":
            return Not(_parse_predicate(value))
    except _Reject:
        raise
    except KeyError as exc:
        raise _Reject(
            400, f"malformed predicate node {op!r}: missing key {exc}"
        )
    except (TypeError, ValueError, ReproError) as exc:
        # ReproError covers constructor-level rejections — empty and/or
        # children, inverted intervals — which used to escape as opaque
        # errors; a client typo should always come back as a 400 naming
        # the offending node.
        raise _Reject(400, f"malformed predicate node {op!r}: {exc}")
    raise _Reject(400, f"unknown predicate operator {op!r}")


def _parse_limit(value) -> int | None:
    if value is None:
        return None
    if type(value) is not int or value < 0:  # bool is not a count
        raise _Reject(
            400, f"'limit' must be a non-negative integer, got {value!r}"
        )
    return value


def _parse_deadline_ms(value, field: str) -> float:
    try:
        ms = float(value)
    except (TypeError, ValueError):
        raise _Reject(400, f"{field!r} must be a number, got {value!r}")
    if not math.isfinite(ms) or ms <= 0:
        raise _Reject(400, f"{field!r} must be positive, got {value!r}")
    return ms


def _ids_payload(record_ids: np.ndarray, limit: int | None) -> dict:
    matches = int(len(record_ids))
    if limit is not None:
        record_ids = record_ids[:limit]
    return {
        "matches": matches,
        "record_ids": record_ids.tolist(),
        "truncated": matches > len(record_ids),
    }


class _ServiceHTTPServer(ThreadingHTTPServer):
    # Smoke jobs and tests restart services rapidly on the same port;
    # SO_REUSEADDR keeps a lingering TIME_WAIT socket from failing the
    # bind (explicit here and in the telemetry server, per policy).
    allow_reuse_address = True
    daemon_threads = True


class _ServiceHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self.server.service._handle(self, body_allowed=False)

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self.server.service._handle(self, body_allowed=True)

    # -- response helpers ------------------------------------------------

    def reply_json(self, payload: dict, status: int = 200) -> None:
        self.reply(
            json.dumps(payload, separators=(",", ":"), default=str) + "\n",
            "application/json; charset=utf-8",
            status=status,
        )

    def reply(
        self, body: str, content_type: str, status: int = 200
    ) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class QueryService:
    """A running query service over epoch-pinned snapshots.

    Exactly one of ``database`` / ``directory`` selects the data:

    * ``database`` — serve an existing (open) :class:`ShardedDatabase`;
      snapshots stay memory-only and the service takes ownership (the
      epoch manager closes each snapshot when its epoch is GC'd).
    * ``directory`` — open a :func:`~repro.shard.manifest.save_sharded`
      layout; writes persist new generation directories through the PR-5
      commit protocol and epoch numbers equal manifest generations.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free port (read :attr:`port`).
    max_inflight:
        Requests allowed to execute concurrently.
    queue_limit:
        Requests allowed to wait for a slot before 429s start.
    default_deadline_ms:
        Deadline applied when a request does not set its own (``None``
        disables).
    executor:
        Shard executor name forwarded to the loader (``directory`` mode).
    prefix:
        Prometheus name prefix for ``/metrics``.
    """

    def __init__(
        self,
        database: ShardedDatabase | None = None,
        directory: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 8,
        queue_limit: int = 16,
        default_deadline_ms: float | None = None,
        executor: str | None = None,
        prefix: str = "repro",
    ):
        if (database is None) == (directory is None):
            raise ReproError(
                "pass exactly one of database= or directory="
            )
        if max_inflight < 1 or queue_limit < 0:
            raise ReproError(
                "max_inflight must be >= 1 and queue_limit >= 0"
            )
        if directory is not None:
            from repro.shard.manifest import load_sharded

            database = load_sharded(directory, executor=executor)
        self.epochs = EpochManager(database, directory)
        self.writer = SnapshotWriter(self.epochs, directory)
        self.prefix = prefix
        self.started_at = time.time()
        self._max_inflight = max_inflight
        self._queue_limit = queue_limit
        self._default_deadline_ms = default_deadline_ms
        self._adm = threading.Condition()
        self._inflight = 0
        self._queued = 0
        self._draining = False
        self._httpd = _ServiceHTTPServer((host, port), _ServiceHandler)
        self._httpd.service = self
        self._thread: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------

    @property
    def host(self) -> str:
        """Bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (resolved when the service was created with port 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "QueryService":
        """Start serving on a daemon thread (idempotent); returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serve",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self, drain_timeout: float = 10.0) -> None:
        """Drain gracefully, then shut down (idempotent).

        New requests are refused with 503 immediately; in-flight requests
        get up to ``drain_timeout`` seconds to finish before the listener
        closes.  Every retained snapshot is closed afterwards.
        """
        deadline = time.monotonic() + drain_timeout
        with self._adm:
            self._draining = True
            self._adm.notify_all()
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._adm.wait(timeout=remaining)
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
        self.epochs.close()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- admission control ------------------------------------------------

    def _admit(self, deadline: float | None) -> int:
        """Block until an execution slot is free; returns queue-wait ns.

        Raises :class:`_Reject` with 503 while draining, 429 when the
        wait queue is full, and 408 when ``deadline`` (monotonic seconds)
        passes before a slot opens.
        """
        wait_start = time.perf_counter_ns()
        with self._adm:
            if self._draining:
                record("serve.rejected.draining")
                raise _Reject(503, "service is draining")
            if self._inflight >= self._max_inflight:
                if self._queued >= self._queue_limit:
                    record("serve.rejected.queue_full")
                    raise _Reject(
                        429,
                        f"queue full ({self._queued} waiting on "
                        f"{self._max_inflight} slots)",
                    )
                self._queued += 1
                get_registry().gauge("serve.queued").inc()
                try:
                    while (
                        self._inflight >= self._max_inflight
                        and not self._draining
                    ):
                        timeout = None
                        if deadline is not None:
                            timeout = deadline - time.monotonic()
                            if timeout <= 0:
                                record("serve.rejected.deadline")
                                raise _Reject(
                                    408, "deadline expired while queued"
                                )
                        self._adm.wait(timeout=timeout)
                finally:
                    self._queued -= 1
                    get_registry().gauge("serve.queued").dec()
                if self._draining:
                    record("serve.rejected.draining")
                    raise _Reject(503, "service is draining")
            self._inflight += 1
        get_registry().gauge("serve.inflight").inc()
        return time.perf_counter_ns() - wait_start

    def _release(self) -> None:
        with self._adm:
            self._inflight -= 1
            self._adm.notify_all()
        get_registry().gauge("serve.inflight").dec()

    # -- request handling -------------------------------------------------

    def _handle(self, handler: _ServiceHandler, body_allowed: bool) -> None:
        path = handler.path.split("?", 1)[0].rstrip("/") or "/healthz"
        route = _ROUTE_KEYS.get(path)
        record("serve.requests")
        if route is None:
            record("serve.requests.unknown")
            handler.reply_json(
                {"error": f"unknown route {path!r}",
                 "routes": sorted(_ROUTE_KEYS)},
                status=404,
            )
            return
        record(f"serve.requests.{route}")
        start = time.perf_counter_ns()
        try:
            body = self._read_body(handler) if body_allowed else {}
            deadline = self._deadline(handler, body)
            if path in ("/healthz", "/metrics", "/epochs"):
                # Introspection stays admission-exempt so operators can
                # scrape a saturated (or draining) service.
                payload, content = self._introspect(path)
            else:
                wait_ns = self._admit(deadline)
                try:
                    get_registry().histogram("serve.wait_ns").observe(
                        wait_ns
                    )
                    if deadline is not None and time.monotonic() > deadline:
                        record("serve.rejected.deadline")
                        raise _Reject(408, "deadline expired")
                    payload, content = self._dispatch(path, body), None
                finally:
                    self._release()
            if content is not None:
                handler.reply(payload, content)
            else:
                handler.reply_json(payload)
        except _Reject as exc:
            if exc.status >= 500:
                record("serve.errors.server")
            else:
                record("serve.errors.client")
            handler.reply_json(
                {"error": str(exc)}, status=exc.status
            )
        except ReproError as exc:
            record("serve.errors.client")
            handler.reply_json(
                {"error": f"{type(exc).__name__}: {exc}"}, status=400
            )
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            record("serve.errors.server")
            handler.reply_json(
                {"error": f"internal error: {type(exc).__name__}: {exc}"},
                status=500,
            )
        finally:
            get_registry().histogram("serve.request_ns").observe(
                time.perf_counter_ns() - start
            )

    def _read_body(self, handler: _ServiceHandler) -> dict:
        length = int(handler.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        if length > _MAX_BODY_BYTES:
            raise _Reject(400, f"request body over {_MAX_BODY_BYTES} bytes")
        try:
            body = json.loads(handler.rfile.read(length))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _Reject(400, f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise _Reject(400, "request body must be a JSON object")
        return body

    def _deadline(self, handler: _ServiceHandler, body: dict) -> float | None:
        ms = body.get("deadline_ms")
        if ms is not None:
            ms = _parse_deadline_ms(ms, "deadline_ms")
        else:
            header = handler.headers.get("X-Deadline-Ms")
            if header:
                ms = _parse_deadline_ms(header, "X-Deadline-Ms")
            else:
                ms = self._default_deadline_ms
        if ms is None:
            return None
        return time.monotonic() + ms / 1000.0

    def _introspect(self, path: str):
        if path == "/metrics":
            body = render_prometheus(
                get_registry().snapshot(), prefix=self.prefix
            )
            return body, "text/plain; version=0.0.4; charset=utf-8"
        if path == "/epochs":
            stats = self.epochs.stats()
            return {
                "current_epoch": stats.current_epoch,
                "retained": stats.retained,
                "pinned": stats.pinned,
                "published": stats.published,
                "gcs": stats.gcs,
            }, None
        return {
            "status": "draining" if self._draining else "ok",
            "epoch": self.epochs.current_epoch,
            "uptime_seconds": round(time.time() - self.started_at, 3),
        }, None

    def _dispatch(self, path: str, body: dict) -> dict:
        if path in (
            "/query", "/count", "/batch", "/boolean", "/ranked", "/explain",
        ):
            return self._read(path, body)
        return self._write(path, body)

    # -- read routes ------------------------------------------------------

    def _read(self, path: str, body: dict) -> dict:
        semantics = _parse_semantics(body.get("semantics"))
        both = semantics is BOTH
        using = body.get("using")
        limit = _parse_limit(body.get("limit"))
        with self.epochs.pin() as pin:
            db = pin.database
            if path == "/ranked":
                return self._ranked(pin, db, body, using, limit)
            if path == "/batch":
                queries = body.get("queries")
                if not isinstance(queries, list) or not queries:
                    raise _Reject(
                        400, "body must carry 'queries': [{attr: [lo, hi]}]"
                    )
                normalized = [
                    _parse_bounds({"bounds": q}) for q in queries
                ]
                reports = db.execute_batch(
                    normalized, semantics, using=using
                )
                if both:
                    results = [
                        dict(
                            index=r.index_name,
                            certain=_ids_payload(r.certain_ids, limit),
                            possible=_ids_payload(r.possible_ids, limit),
                        )
                        for r in reports
                    ]
                else:
                    results = [
                        dict(
                            index=r.index_name,
                            **_ids_payload(r.record_ids, limit),
                        )
                        for r in reports
                    ]
                return {
                    "epoch": pin.epoch,
                    "semantics": semantics.value,
                    "results": results,
                }
            if path == "/boolean":
                predicate = _parse_predicate(body.get("predicate"))
                report = db.query_predicate(predicate, semantics, using=using)
            elif path == "/explain":
                query = _parse_bounds(body)
                return {
                    "epoch": pin.epoch,
                    "semantics": semantics.value,
                    "explain": db.explain(query, semantics),
                }
            else:
                query = _parse_bounds(body)
                report = db.execute(query, semantics, using=using)
            payload = {
                "epoch": pin.epoch,
                "semantics": semantics.value,
                "index": report.index_name,
                "kind": report.kind,
            }
            if report.elapsed_ns is not None:
                payload["elapsed_ms"] = round(report.elapsed_ns / 1e6, 3)
            if both:
                payload["certain_matches"] = report.num_certain
                payload["possible_matches"] = report.num_possible
                if path != "/count":
                    payload["certain"] = _ids_payload(
                        report.certain_ids, limit
                    )
                    payload["possible"] = _ids_payload(
                        report.possible_ids, limit
                    )
            else:
                payload["matches"] = report.num_matches
                if path != "/count":
                    payload.update(_ids_payload(report.record_ids, limit))
            return payload

    def _ranked(self, pin, db, body: dict, using, limit) -> dict:
        query = _parse_bounds(body)
        raw = body.get("threshold", 0.0)
        try:
            threshold = float(raw)
        except (TypeError, ValueError):
            raise _Reject(400, f"threshold must be a number, got {raw!r}")
        report = db.execute_ranked(
            query, threshold=threshold, limit=limit, using=using
        )
        return {
            "epoch": pin.epoch,
            "index": report.index_name,
            "kind": report.kind,
            "matches": report.num_matches,
            "certain_matches": report.num_certain,
            "record_ids": report.record_ids.tolist(),
            "probabilities": [
                round(float(p), 6) for p in report.probabilities
            ],
        }

    # -- write routes -----------------------------------------------------

    def _write(self, path: str, body: dict) -> dict:
        if path == "/append":
            rows = body.get("rows")
            if not isinstance(rows, dict) or not rows:
                raise _Reject(
                    400, "body must carry 'rows': {attribute: [values]}"
                )
            epoch = self.writer.append(
                {name: np.asarray(col) for name, col in rows.items()}
            )
        elif path == "/delete":
            ids = body.get("record_ids")
            if not isinstance(ids, list) or not ids:
                raise _Reject(400, "body must carry 'record_ids': [int]")
            bad = [i for i in ids if type(i) is not int]
            if bad:
                raise _Reject(
                    400, f"'record_ids' must be integers, got {bad[0]!r}"
                )
            epoch = self.writer.delete(ids)
        elif path == "/compact":
            epoch = self.writer.compact()
        elif path == "/create-index":
            name = body.get("name")
            kind = body.get("kind")
            if not name or not kind:
                raise _Reject(400, "body must carry 'name' and 'kind'")
            epoch = self.writer.create_index(
                name,
                kind,
                attributes=body.get("attributes"),
                overwrite=bool(body.get("overwrite", False)),
                **(body.get("options") or {}),
            )
        else:  # /drop-index
            name = body.get("name")
            if not name:
                raise _Reject(400, "body must carry 'name'")
            epoch = self.writer.drop_index(name)
        return {"epoch": epoch, "route": path.lstrip("/")}
