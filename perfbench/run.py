"""The repository benchmark: one command, every metric, checked answers.

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``serve_read``  — the CLI server over 30k rows, 2 closed-loop read connections;
* ``serve_write`` — the same server, 1 read connection + 1 write connection.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports the per-layer metrics.  Human-readable lines (the
environment, the seed, each metric with unit and sample count) come first;
the last line of standard output is the JSON result.  Spans and the full
result are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("serve_read", "serve_write")


def _serve(args, tmp, tracer):
    """End-to-end run of serve_read / serve_write."""
    from common import median
    from serve_load import (
        IDLE_WRITES, ServeSession, failures, read_write_metrics, serve_table,
    )

    writer = args.workload == "serve_write"
    table = serve_table(args.seed)
    session = ServeSession(ROOT, tmp, table, args.seed, tracer)
    try:
        session.setup()
        session.warm_up(readers=1 if writer else 2)
        window = session.run(args.seconds, readers=1 if writer else 2,
                             writer=writer, idle_writes=0 if writer else IDLE_WRITES)
        rss = session.server.peak_rss_mb()
        disk = session.disk_bytes_per_row()
    finally:
        session.teardown()
    attempted, failed = failures(session, session.verify())
    metrics = read_write_metrics(session, window)
    metrics.update({
        "setup_s": (median(session.setup_s), "s", len(session.setup_s)),
        "peak_rss_mb": (rss, "MiB", 1),
        "disk_bytes_per_row": (disk, "B", 1),
        "index_bytes_per_row": (session.index_bytes / table.num_records, "B", 1),
    })
    return metrics, attempted, failed, session.clean


def _serve_traced(args, tmp, tracer):
    """Traced run of serve_read / serve_write: every per-layer metric."""
    import layers
    from serve_load import serve_table

    table = serve_table(args.seed)
    found, session, attempted, failed = layers.traced_serve(
        ROOT, tmp, table, args.seed, tracer, args.seconds,
        writer=args.workload == "serve_write")
    requests = [r.request for r in session.reads]
    found.update(layers.rebuild_layer(table, args.seed, tracer))
    found.update(layers.shard_storage_layers(session.directory, tmp, requests, tracer))
    found.update(layers.engine_layers(
        layers.build_engine(table), requests, args.seed, tracer))
    return found, attempted, failed, session.clean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still unwinds, so every server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from common import Tracer, environment

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    tracer = Tracer(bool(args.trace))
    try:
        runner = _serve_traced if args.trace else _serve
        metrics, attempted, failed, clean = runner(args, tmp, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    leaked = tmp.exists()
    try:
        tmp_root.rmdir()
    except OSError:
        pass  # another run shares the directory

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if set(names) != set(metrics):
        print(f"metrics differ from BENCHMARK.json: "
              f"{sorted(set(names) ^ set(metrics))}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in names}

    env = environment(ROOT)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("# environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# attempted {attempted} failed {failed} "
          f"failed_frac {failed / max(attempted, 1):.6f} "
          f"clean_shutdown {clean} leaked_tmp {leaked}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={samples})")
    if args.trace:
        print("# self time by span (ms):")
        for name, ms in sorted(tracer.self_time_ms().items(),
                               key=lambda kv: -kv[1])[:25]:
            print(f"#   {name:<32} {ms:12.3f}")

    result = {
        "correct": failed == 0 and clean and not leaked,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(out / f"{stem}.spans.jsonl")
    (out / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "result": result,
        "samples": {name: samples for name, (_, _, samples) in metrics.items()},
    }, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
