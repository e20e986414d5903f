"""Crash-during-publish: the previous epoch stays loadable and served.

Extends the storage fault-injection protocol (crash ``atomic_write`` at
every single step) to the serving layer's publish path, where a step is
either an ``atomic_write`` or a ``carry_file`` (the hard link that carries
an untouched shard's committed file into the new generation): a
:class:`SnapshotWriter` mutation that dies anywhere inside
``save_sharded`` must leave the previous epoch (a) still the manager's
current, still answering queries, (b) the state ``load_sharded`` gets
from the directory, and (c) recoverable — a restart sweeps the debris
and a retried mutation commits cleanly.
"""

import json

import numpy as np
import pytest

from repro.dataset.synthetic import generate_uniform_table
from repro.query.model import MissingSemantics
from repro.serve import EpochManager, QueryService, SnapshotWriter
from repro.shard import ShardedDatabase, load_sharded, save_sharded
from repro.storage import integrity

QUERIES = [{"a": (2, 6)}, {"a": (1, 9), "b": (2, 3)}]


def _table(seed=31):
    return generate_uniform_table(
        300, {"a": 9, "b": 4}, {"a": 0.25, "b": 0.1}, seed=seed
    )


def _results(db):
    return [
        db.execute(q, semantics).record_ids
        for q in QUERIES
        for semantics in MissingSemantics
    ]


def _patch_steps(monkeypatch, hook):
    """Route every publish step (write or carry) through ``hook`` first."""
    for name in ("atomic_write", "carry_file"):
        real = getattr(integrity, name)

        def step(*args, _real=real):
            hook()
            return _real(*args)

        monkeypatch.setattr(integrity, name, step)


def _crash_at(monkeypatch, step):
    calls = {"n": 0}

    def hook():
        if calls["n"] == step:
            raise OSError("simulated crash")
        calls["n"] += 1

    _patch_steps(monkeypatch, hook)


def _count_publish_writes(monkeypatch, tmp_path):
    """How many steps (atomic writes and carries) one append-publish takes."""
    calls = {"n": 0}

    def hook():
        calls["n"] += 1

    scratch = tmp_path / "count"
    with ShardedDatabase(_table(), num_shards=2) as db:
        db.create_index("ix", "bre")
        save_sharded(db, scratch)
    manager = EpochManager(load_sharded(scratch), scratch)
    writer = SnapshotWriter(manager, scratch)
    _patch_steps(monkeypatch, hook)
    writer.append({"a": [1], "b": [1]})
    monkeypatch.undo()
    manager.close()
    return calls["n"]


def test_crash_at_every_publish_step_preserves_previous_epoch(
    tmp_path, monkeypatch
):
    total_writes = _count_publish_writes(monkeypatch, tmp_path)
    # rows/table/index per shard (written, or carried for the untouched
    # shard) + manifest
    assert total_writes > 4

    root = tmp_path / "db"
    with ShardedDatabase(_table(), num_shards=2) as db:
        db.create_index("ix", "bre")
        save_sharded(db, root)
    manager = EpochManager(load_sharded(root), root)
    writer = SnapshotWriter(manager, root)
    old = _results(manager.current_database)

    for step in range(total_writes):
        _crash_at(monkeypatch, step)
        with pytest.raises(OSError, match="simulated crash"):
            writer.append({"a": [5], "b": [2]})
        monkeypatch.undo()
        # (a) the manager still serves the previous epoch...
        assert manager.current_epoch == 1
        with manager.pin() as pin:
            assert all(
                np.array_equal(a, b)
                for a, b in zip(_results(pin.database), old)
            )
        # ...(b) and the directory still loads as the previous epoch.
        with load_sharded(root) as loaded:
            assert all(
                np.array_equal(a, b)
                for a, b in zip(_results(loaded), old)
            )
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["generation"] == 1

    # (c) the retried mutation commits.  Each crashed attempt left a
    # partial generation directory behind, so the committed generation is
    # simply the next free number — still strictly advancing the epoch.
    committed = writer.append({"a": [5], "b": [2]})
    assert committed > 1
    assert manager.current_epoch == committed
    manifest = json.loads((root / "manifest.json").read_text())
    assert manifest["generation"] == committed
    manager.close()
    with load_sharded(root) as loaded:
        assert loaded.num_records == 301
    # A restart (fresh manager) sweeps the crashed attempts' debris.
    manager = EpochManager(load_sharded(root), root)
    gen_dirs = [c.name for c in root.iterdir() if c.is_dir()]
    assert gen_dirs == [f"gen-{committed:06d}"]
    manager.close()


def test_restart_after_crashed_publish_sweeps_debris(tmp_path, monkeypatch):
    root = tmp_path / "db"
    with ShardedDatabase(_table(), num_shards=2) as db:
        db.create_index("ix", "bre")
        save_sharded(db, root)
    manager = EpochManager(load_sharded(root), root)
    writer = SnapshotWriter(manager, root)
    old = _results(manager.current_database)
    _crash_at(monkeypatch, 3)
    with pytest.raises(OSError, match="simulated crash"):
        writer.append({"a": [5], "b": [2]})
    monkeypatch.undo()
    manager.close()
    # The crashed publish left a partial gen-000002; a fresh manager
    # (the restart path) sweeps it and resumes at epoch 1.
    assert (root / "gen-000002").is_dir()
    manager = EpochManager(load_sharded(root), root)
    assert manager.current_epoch == 1
    assert not (root / "gen-000002").exists()
    with manager.pin() as pin:
        assert all(
            np.array_equal(a, b) for a, b in zip(_results(pin.database), old)
        )
    manager.close()


def test_service_survives_a_crashed_write_route(tmp_path, monkeypatch):
    """Over HTTP: a failed /append 500s, reads keep serving the old epoch."""
    import urllib.error
    import urllib.request

    def post(url, payload):
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    root = tmp_path / "db"
    with ShardedDatabase(_table(), num_shards=2) as db:
        db.create_index("ix", "bre")
        save_sharded(db, root)
    service = QueryService(directory=root).start()
    try:
        status, expected = post(
            service.url + "/query", {"bounds": {"a": [2, 6]}}
        )
        assert status == 200 and expected["epoch"] == 1
        _crash_at(monkeypatch, 2)
        status, body = post(
            service.url + "/append", {"rows": {"a": [5], "b": [2]}}
        )
        monkeypatch.undo()
        assert status == 500 and "simulated crash" in body["error"]
        # Reads continue against the intact previous epoch.
        status, body = post(
            service.url + "/query", {"bounds": {"a": [2, 6]}}
        )
        assert status == 200
        assert body["epoch"] == 1
        assert body["record_ids"] == expected["record_ids"]
        # And the retry commits a new epoch (the crashed attempt's
        # partial generation directory claimed a number, so > 2 is fine).
        status, body = post(
            service.url + "/append", {"rows": {"a": [5], "b": [2]}}
        )
        assert status == 200 and body["epoch"] > 1
        status, body = post(
            service.url + "/query", {"bounds": {"a": [2, 6]}}
        )
        assert status == 200 and body["matches"] >= expected["matches"]
    finally:
        service.stop()
