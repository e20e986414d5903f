"""The served workloads: a CLI server in a child process, driven over HTTP.

One client process drives the shipped ``python -m repro.experiments serve
--directory DIR --port 0`` through at most two closed-loop connections.
Every reply body is kept and decoded only after the measured window, so
the client spends little CPU beside the server.  Each answer is then
checked against the oracle at the epoch the response names; the benchmark
replays its own appends and deletes to rebuild each epoch's table.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from common import (
    SERVE_CARDINALITIES,
    SERVE_MISSING,
    SERVE_ROWS,
    Oracle,
    RequestMix,
    Tracer,
    WriteMix,
    answer_from_payload,
    apply_write,
    median,
    percentile,
    same_answer,
)
from repro.dataset.synthetic import generate_uniform_table
from repro.shard import ShardedDatabase
from repro.shard.manifest import MANIFEST_NAME, save_sharded

#: Read mix of both serve workloads (route -> share).
READ_WEIGHTS = {"/query": 0.55, "/count": 0.20, "/boolean": 0.15, "/batch": 0.10}
BATCH_SIZE = 3
#: Writes on the idle server of ``serve_read``, in bursts spread over the
#: read window so that they sample the whole run, as the reads do.
IDLE_WRITES = 48
IDLE_BURSTS = 8
SETUP_REPEATS = 5
WARMUP_SECONDS = 2.0
REJECT_STATUSES = (408, 429, 503)


def build_sharded(table) -> ShardedDatabase:
    """The served database: 4 shards with a BRE and a VA-file index."""
    db = ShardedDatabase(table, num_shards=4)
    db.create_index("bre", "bre")
    db.create_index("va", "vafile")
    return db


def index_nbytes(db: ShardedDatabase) -> int:
    return sum(
        shard.database.get_index(name).index.nbytes()
        for shard in db.shards
        for name in shard.database.index_names
    )


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def current_generation_dir(directory: Path) -> Path:
    manifest = json.loads((directory / MANIFEST_NAME).read_text(encoding="utf-8"))
    return directory / f"gen-{int(manifest['generation']):06d}"


# -- the server process -------------------------------------------------------------


class ServerProcess:
    """``python -m repro.experiments serve`` in a child process.

    Stopped through its drain path (SIGINT), with the exit status checked;
    :meth:`stop` returns whether the shutdown was clean (exit 0 and the
    port released).
    """

    _UP = re.compile(r"query service up at (http://([\d.]+):(\d+))")

    def __init__(self, root: Path, directory: Path):
        self.output: list[str] = []
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve",
             "--directory", str(directory), "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self._up: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.host, self.port = "", 0

    def _drain(self) -> None:
        for line in self._proc.stdout:
            self.output.append(line)
            match = self._UP.search(line)
            if match:
                self._up.put((match.group(2), int(match.group(3))))
        self._up.put(None)

    def wait_ready(self, timeout: float = 120.0) -> None:
        try:
            address = self._up.get(timeout=timeout)
        except queue.Empty:
            address = None
        if address is None:
            raise RuntimeError(
                "server did not come up:\n" + "".join(self.output[-20:])
            )
        self.host, self.port = address
        client = Client(self.host, self.port)
        deadline = time.monotonic() + timeout
        while True:
            status, _ = client.call("GET", "/healthz")
            if status == 200:
                break
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)
        client.close()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self._proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kb / 1024.0

    def stop(self) -> bool:
        clean = True
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGINT)
        try:
            clean = self._proc.wait(timeout=60) == 0
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            clean = False
        self._reader.join(timeout=10)
        self._proc.stdout.close()
        if self.port:
            try:
                socket.create_connection((self.host, self.port), timeout=1).close()
                clean = False  # something still listens on the port
            except OSError:
                pass
        return clean


class Client:
    """One HTTP connection; reconnects transparently after a close."""

    def __init__(self, host: str, port: int):
        self._conn = http.client.HTTPConnection(host, port, timeout=60)

    def call(self, method: str, path: str, body: dict | None = None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        try:
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            return None, b""

    def close(self) -> None:
        self._conn.close()


def scrape_histograms(client: Client) -> dict[str, float]:
    """``{name_sum: v, name_count: v}`` of every summary on ``/metrics``."""
    status, data = client.call("GET", "/metrics")
    values = {}
    if status == 200:
        for line in data.decode().splitlines():
            if line.startswith("#") or "{" in line:
                continue
            name, _, value = line.rpartition(" ")
            if name.endswith(("_sum", "_count")):
                values[name] = float(value)
    return values


def histogram_mean_ms(before, after, name) -> float:
    count = after.get(f"{name}_count", 0) - before.get(f"{name}_count", 0)
    total = after.get(f"{name}_sum", 0) - before.get(f"{name}_sum", 0)
    return total / count / 1e6 if count else 0.0


# -- one served session --------------------------------------------------------------


@dataclass
class Read:
    """One read; the body is decoded after the window (:meth:`decode`)."""

    request: dict
    status: int | None
    latency_ms: float
    body: bytes
    #: False for warm-up reads (checked, but not in the latency metrics).
    measured: bool = True
    #: True when a span was recorded around this read.
    traced: bool = False
    epoch: int | None = None
    elapsed_ms: float | None = None
    answer: object = None
    error: str | None = None

    @property
    def size(self) -> int:
        return len(self.body)

    def decode(self) -> None:
        if self.status != 200 or self.epoch is not None:
            return
        try:
            payload = json.loads(self.body)
            self.epoch = payload["epoch"]
            self.elapsed_ms = payload.get("elapsed_ms")
            self.answer = answer_from_payload(self.request, payload)
        except (ValueError, KeyError, TypeError) as exc:
            self.error = f"{type(exc).__name__}: {exc}"


@dataclass
class Write:
    request: dict
    status: int | None
    latency_ms: float
    epoch: int | None = None


def _body(request: dict) -> dict:
    return {k: v for k, v in request.items() if k != "route"}


class ServeSession:
    """Set up, drive and tear down one served database.

    ``table`` is the initial data; ``tmp`` a scratch directory inside the
    checkout that the session owns and removes.
    """

    def __init__(self, root: Path, tmp: Path, table, seed: int, tracer: Tracer):
        self.root, self.tmp, self.table, self.seed = root, tmp, table, seed
        self.tracer = tracer
        self.setup_s: list[float] = []
        self.index_bytes = 0
        self.server: ServerProcess | None = None
        self.directory: Path | None = None
        self.clean = True
        self.reads: list[Read] = []
        self.writes: list[Write] = []
        self.healthz_ms: list[float] = []
        self.initial_epoch = 0
        self._request_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._write_mix = WriteMix(
            {n: table.schema.cardinality(n) for n in table.schema.names},
            {n: table.missing_fraction(n) for n in table.schema.names},
            table.num_records, seed * 7919 + 3,
        )

    # -- lifecycle --

    def setup(self, repeats: int = SETUP_REPEATS) -> None:
        """Build, save, start and await ``/healthz``; the last copy serves."""
        for attempt in range(repeats):
            directory = self.tmp / f"db{attempt}"
            start = time.perf_counter()
            with self.tracer.span("setup.build_sharded"):
                db = build_sharded(self.table)
            self.index_bytes = index_nbytes(db)
            with self.tracer.span("storage.save_sharded"):
                save_sharded(db, directory)
            db.close()
            with self.tracer.span("setup.start_server"):
                server = ServerProcess(self.root, directory)
                try:
                    server.wait_ready()
                except BaseException:
                    server.stop()
                    raise
            self.setup_s.append(time.perf_counter() - start)
            if attempt < repeats - 1:
                self.clean &= server.stop()
                shutil.rmtree(directory)
            else:
                self.server, self.directory = server, directory
        client = Client(self.server.host, self.server.port)
        status, data = client.call("GET", "/healthz")
        client.close()
        self.initial_epoch = json.loads(data)["epoch"] if status == 200 else -1

    def teardown(self) -> None:
        if self.server is not None:
            self.clean &= self.server.stop()
            self.server = None

    # -- load --

    def _read_loop(self, mix: RequestMix, deadline: float, healthz_every: int,
                   measured: bool):
        client = Client(self.server.host, self.server.port)
        done = 0
        while time.perf_counter() < deadline:
            request = mix.next()
            # A traced run traces every other read, so traced and untraced
            # reads share the same period and the same warmth.
            traced = self.tracer.enabled and done % 2 == 1
            span = (self.tracer.span("client." + request["route"][1:],
                                     request_id=next(self._request_ids))
                    if traced else nullcontext())
            with span:
                start = time.perf_counter_ns()
                status, data = client.call("POST", request["route"], _body(request))
                latency = (time.perf_counter_ns() - start) / 1e6
            with self._lock:
                self.reads.append(
                    Read(request, status, latency, data, measured, traced))
            done += 1
            if healthz_every and done % healthz_every == 0:
                with self.tracer.span("client.healthz"):
                    start = time.perf_counter_ns()
                    status, _ = client.call("GET", "/healthz")
                    if status == 200:
                        self.healthz_ms.append(
                            (time.perf_counter_ns() - start) / 1e6)
        client.close()

    def write_loop(self, deadline: float | None = None, count: int | None = None):
        client = Client(self.server.host, self.server.port)
        done = 0
        while (deadline is None or time.perf_counter() < deadline) and (
                count is None or done < count):
            request = self._write_mix.next()
            with self.tracer.span("client." + request["route"][1:],
                                  request_id=next(self._request_ids)):
                start = time.perf_counter_ns()
                status, data = client.call("POST", request["route"], _body(request))
                latency = (time.perf_counter_ns() - start) / 1e6
            write = Write(request, status, latency)
            if status == 200:
                try:
                    write.epoch = int(json.loads(data)["epoch"])
                except (ValueError, KeyError, TypeError):
                    write.status = None  # an unreadable reply counts as failed
            self.writes.append(write)
            done += 1
        client.close()

    def warm_up(self, readers: int) -> None:
        """Reads from another seeded stream, so lazy set-up is done before
        the window; their answers are checked like any other."""
        self.run(WARMUP_SECONDS, readers, writer=False, stream=1, measured=False)

    def run(self, seconds: float, readers: int, writer: bool,
            healthz_every: int = 0, stream: int = 0,
            measured: bool = True, idle_writes: int = 0) -> float:
        """Closed-loop load for ``seconds``; returns the read window length.

        ``writer`` adds a closed-loop write connection beside the readers.
        ``idle_writes`` instead pauses the readers at ``IDLE_BURSTS`` evenly
        spaced moments and sends that many writes, in bursts, to the
        otherwise idle server; the pauses are not part of the window.
        """
        mixes = [
            RequestMix(self.table, self.seed * 1009 + 17 * i + 7919 * stream,
                       READ_WEIGHTS, max_k=len(self.table.schema.names),
                       batch_size=BATCH_SIZE)
            for i in range(readers)
        ]
        bursts = IDLE_BURSTS if idle_writes else 0
        window = 0.0
        for segment in range(bursts + 1):
            deadline = time.perf_counter() + seconds / (bursts + 1)
            threads = [
                threading.Thread(target=self._read_loop, args=(
                    mix, deadline, healthz_every, measured))
                for mix in mixes
            ]
            if writer:
                threads.append(threading.Thread(target=self.write_loop,
                                                args=(deadline,)))
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            window += time.perf_counter() - start
            if segment < bursts:
                self.write_loop(count=idle_writes // bursts)
        for read in self.reads:
            read.decode()
        return window

    # -- checks and measurements --

    def verify(self) -> int:
        """Oracle mismatches among the successful reads (and write log)."""
        mismatches = sum(1 for r in self.reads if r.status == 200 and r.error)
        reads = sorted(
            (r for r in self.reads if r.status == 200 and not r.error),
            key=lambda r: r.epoch,
        )
        writes = iter(sorted(
            (w for w in self.writes if w.status == 200), key=lambda w: w.epoch))
        table, epoch = self.table, self.initial_epoch
        oracle = Oracle(table)
        for read in reads:
            while epoch < read.epoch:
                write = next(writes, None)
                if write is None or write.epoch != epoch + 1:
                    # An epoch the benchmark did not write: nothing to check
                    # the remaining answers against.
                    return mismatches + sum(1 for r in reads if r.epoch >= read.epoch)
                table, epoch = apply_write(table, write.request), write.epoch
                oracle = Oracle(table)
            if not same_answer(read.answer, oracle.expected(read.request)):
                mismatches += 1
        return mismatches

    def live_rows(self) -> int:
        return self._write_mix.num_rows

    def disk_bytes_per_row(self) -> float:
        return dir_bytes(current_generation_dir(self.directory)) / self.live_rows()


def read_write_metrics(session: ServeSession, window_s: float) -> dict:
    ok = [r for r in session.reads
          if r.measured and r.status == 200 and not r.error]
    latencies = [r.latency_ms for r in ok]
    writes = [w.latency_ms for w in session.writes if w.status == 200]
    return {
        "read_p50_ms": (median(latencies), "ms", len(latencies)),
        "read_p99_ms": (percentile(latencies, 99), "ms", len(latencies)),
        "read_qps": (len(ok) / window_s, "1/s", len(ok)),
        "write_p50_ms": (median(writes), "ms", len(writes)),
        "write_p90_ms": (percentile(writes, 90), "ms", len(writes)),
    }


def failures(session: ServeSession, mismatches: int) -> tuple[int, int]:
    attempted = len(session.reads) + len(session.writes)
    bad = sum(1 for r in session.reads if r.status != 200)
    bad += sum(1 for w in session.writes if w.status != 200)
    return attempted, bad + mismatches


def serve_table(seed: int):
    return generate_uniform_table(
        SERVE_ROWS, SERVE_CARDINALITIES, SERVE_MISSING, seed=seed)
