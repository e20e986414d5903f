"""Copy-on-write publishes: a write rebuilds only the shards it changes.

Untouched shards share their frozen engine with the next epoch and, on
disk, hard-link their committed table and index files into the new
generation with the committed checksums (never recomputed).
"""

import json
import os
import warnings

import numpy as np
import pytest

from repro import observability as obs
from repro.dataset.synthetic import generate_uniform_table
from repro.errors import CorruptIndexError, ReproError, ShardError
from repro.query.ground_truth import evaluate
from repro.query.model import MissingSemantics, RangeQuery
from repro.serve import EpochManager, SnapshotWriter
from repro.shard import ShardedDatabase, load_sharded, save_sharded
from repro.storage import verify_sharded

QUERIES = [{"a": (2, 6)}, {"a": (1, 9), "b": (2, 3)}, {"b": (4, 4)}]


def _table(n=200, seed=11):
    return generate_uniform_table(
        n, {"a": 9, "b": 4}, {"a": 0.25, "b": 0.1}, seed=seed
    )


def _assert_matches_oracle(db):
    for bounds in QUERIES:
        query = RangeQuery.from_bounds(bounds)
        for semantics in MissingSemantics:
            assert np.array_equal(
                db.execute(query, semantics).record_ids,
                evaluate(db.table, query, semantics),
            )


def _engines(db):
    return [shard.database for shard in db.shards]


def _manifest(root):
    return json.loads((root / "manifest.json").read_text())


def _flip_byte(path, offset=-5):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.fixture()
def memory():
    db = ShardedDatabase(_table(), num_shards=4)
    db.create_index("ix", "bre")
    db.create_index("va", "vafile")
    manager = EpochManager(db)
    yield manager, SnapshotWriter(manager)
    manager.close()


@pytest.fixture()
def disk(tmp_path):
    root = tmp_path / "db"
    with ShardedDatabase(_table(), num_shards=4) as db:
        db.create_index("ix", "bre")
        db.create_index("va", "vafile")
        save_sharded(db, root)
    manager = EpochManager(load_sharded(root), root)
    yield root, manager, SnapshotWriter(manager, root)
    manager.close()


class TestAppend:
    def test_rebuilds_only_the_smallest_shard(self, memory):
        manager, writer = memory
        before = manager.current_database
        old = _engines(before)
        # Equal 50-row shards: the tie goes to the highest shard id.
        writer.append({"a": [1, 2, 0], "b": [3, 0, 4]})
        after = manager.current_database
        new = _engines(after)
        assert [a is b for a, b in zip(old, new)] == [True, True, True, False]
        assert list(after.shards[3].global_ids[-3:]) == [200, 201, 202]
        # The next append goes to a now-smallest shard, not the tail.
        writer.append({"a": [4], "b": [1]})
        newer = _engines(manager.current_database)
        assert [a is b for a, b in zip(new, newer)] == [
            True, True, False, True
        ]
        _assert_matches_oracle(manager.current_database)

    def test_shard_ids_stay_ascending_and_cover_the_table(self, memory):
        manager, writer = memory
        for size in (7, 1, 30, 2):
            writer.append({"a": [3] * size, "b": [1] * size})
        db = manager.current_database
        ids = np.concatenate([s.global_ids for s in db.shards])
        assert sorted(ids.tolist()) == list(range(db.num_records))
        for shard in db.shards:
            assert np.all(np.diff(shard.global_ids) > 0)
        sizes = [len(s.global_ids) for s in db.shards]
        assert max(sizes) - min(sizes) <= 30
        _assert_matches_oracle(db)

    def test_counters(self, memory):
        manager, writer = memory
        with obs.use_registry() as registry:
            writer.append({"a": [1], "b": [1]})
            counters = registry.snapshot().counters
        assert counters["epoch.shards_carried"] == 3
        assert counters["epoch.shards_rebuilt"] == 1


class TestDelete:
    def test_rebuilds_only_owning_shards_and_renumbers(self, memory):
        manager, writer = memory
        before = manager.current_database
        old = _engines(before)
        writer.delete([0, 10, 120])  # shards 0 and 2 own these ids
        after = manager.current_database
        new = _engines(after)
        assert [a is b for a, b in zip(old, new)] == [
            False, True, False, True
        ]
        keep = np.setdiff1d(np.arange(200), [0, 10, 120])
        for name in ("a", "b"):
            assert np.array_equal(
                after.table.column(name), before.table.column(name)[keep]
            )
        # A carried shard keeps its engine but its global ids shift down.
        assert np.array_equal(
            after.shards[1].global_ids, before.shards[1].global_ids - 2
        )
        _assert_matches_oracle(after)

    def test_emptying_a_shard_rebuilds_everything(self, memory):
        manager, writer = memory
        old = _engines(manager.current_database)
        writer.delete(range(50))  # all of shard 0
        db = manager.current_database
        assert not any(e in old for e in _engines(db))
        assert db.num_records == 150
        _assert_matches_oracle(db)


class TestFrozenEngines:
    def test_published_shard_engines_refuse_mutation(self, memory):
        manager, writer = memory
        with manager.pin() as pin:
            engine = pin.database.shards[0].database
            assert engine.frozen
            attached = engine.get_index("ix")
            mutations = [
                lambda: engine.append({"a": [1], "b": [1]}),
                lambda: engine.delete([0]),
                engine.compact,
                lambda: engine.create_index("x", "bee"),
                lambda: engine.drop_index("ix"),
                lambda: engine.attach_index(
                    "ix", "bre", attached.index, overwrite=True
                ),
            ]
            for mutate in mutations:
                with pytest.raises(ReproError, match="frozen"):
                    mutate()
            with pytest.raises(ShardError, match="frozen"):
                pin.database.create_index("x", "bee")
            expected = pin.database.execute({"a": (2, 6)}).record_ids
        # The next epoch shares the untouched engines and is unaffected.
        writer.append({"a": [5], "b": [2]})
        db = manager.current_database
        assert db.shards[0].database is engine
        assert engine.index_names == ("ix", "va")
        assert set(expected) <= set(db.execute({"a": (2, 6)}).record_ids)
        _assert_matches_oracle(db)


class TestCarriedFiles:
    def test_untouched_shards_keep_their_committed_crcs(self, disk):
        root, manager, writer = disk
        first = _manifest(root)
        writer.append({"a": [1, 2], "b": [3, 4]})
        second = _manifest(root)
        for old, new in zip(first["shards"][:3], second["shards"][:3]):
            assert new["table"]["path"].startswith("gen-000002/")
            assert new["table"]["crc32"] == old["table"]["crc32"]
            for old_ix, new_ix in zip(old["indexes"], new["indexes"]):
                assert new_ix["file"]["crc32"] == old_ix["file"]["crc32"]
        rebuilt = second["shards"][3]["table"]
        assert rebuilt["crc32"] != first["shards"][3]["table"]["crc32"]
        assert verify_sharded(root).ok
        # The superseded generation was GC'd; links kept the data alive.
        assert not (root / "gen-000001").exists()
        manager.close()
        with load_sharded(root) as loaded:
            assert loaded.num_records == 202
            _assert_matches_oracle(loaded)

    def test_carried_files_are_links_to_the_pinned_generation(self, disk):
        root, manager, writer = disk
        first = _manifest(root)
        pin = manager.pin()
        writer.append({"a": [1], "b": [1]})
        second = _manifest(root)
        for old, new in zip(first["shards"], second["shards"]):
            files = [(old["table"], new["table"])] + [
                (a["file"], b["file"])
                for a, b in zip(old["indexes"], new["indexes"])
            ]
            for before, after in files:
                linked = os.path.samefile(
                    root / before["path"], root / after["path"]
                )
                assert linked == (new["shard_id"] != 3)
            # The row map is always rewritten.
            assert not os.path.samefile(
                root / old["rows"]["path"], root / new["rows"]["path"]
            )
        table = root / second["shards"][0]["table"]["path"]
        assert os.stat(table).st_nlink == 2
        pin.release()
        # GC unlinked the old names only; the carried data lives on.
        assert not (root / "gen-000001").exists()
        assert os.stat(table).st_nlink == 1
        assert verify_sharded(root).ok

    def test_corrupt_carried_table_is_never_reblessed(self, disk):
        root, manager, writer = disk
        committed = _manifest(root)["shards"][0]["table"]
        _flip_byte(root / committed["path"])
        writer.append({"a": [1], "b": [1]})
        carried = _manifest(root)["shards"][0]["table"]
        assert carried["path"] != committed["path"]
        assert carried["crc32"] == committed["crc32"]
        with pytest.raises(CorruptIndexError, match="table.npz"):
            load_sharded(root)
        report = verify_sharded(root)
        assert report.paths("corrupt") == [str(root / carried["path"])]

    def test_rebuilt_index_is_written_fresh_not_linked(self, tmp_path):
        root = tmp_path / "db"
        with ShardedDatabase(_table(), num_shards=4) as db:
            db.create_index("ix", "bre")
            save_sharded(db, root)
        index = _manifest(root)["shards"][0]["indexes"][0]["file"]
        _flip_byte(root / index["path"])
        with pytest.warns(RuntimeWarning, match="rebuilding"):
            loaded = load_sharded(root)
        assert not verify_sharded(root).ok
        manager = EpochManager(loaded, root)
        writer = SnapshotWriter(manager, root)
        with manager.pin():
            writer.append({"a": [1], "b": [1]})
            entry = _manifest(root)["shards"][0]
            # The table is carried; the index rebuilt at load is written
            # anew: the same bytes the original save wrote, undamaged.
            assert os.stat(root / entry["table"]["path"]).st_nlink == 2
            fresh = entry["indexes"][0]["file"]
            assert os.stat(root / fresh["path"]).st_nlink == 1
            assert fresh["crc32"] == index["crc32"]
        assert verify_sharded(root).ok
        manager.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_sharded(root).close()

    def test_link_failure_falls_back_to_writing(self, disk, monkeypatch):
        root, manager, writer = disk

        def no_links(source, target):
            raise OSError("hard links not supported")

        monkeypatch.setattr(os, "link", no_links)
        first = _manifest(root)
        writer.append({"a": [1], "b": [1]})
        monkeypatch.undo()
        second = _manifest(root)
        # Written the normal way: same bytes, so the same checksum.
        assert (
            second["shards"][0]["table"]["crc32"]
            == first["shards"][0]["table"]["crc32"]
        )
        assert verify_sharded(root).ok
        manager.close()
        with load_sharded(root) as loaded:
            assert loaded.num_records == 201
            _assert_matches_oracle(loaded)

    def test_resave_of_an_edited_index_is_not_carried(self, tmp_path):
        root = tmp_path / "db"
        with ShardedDatabase(_table(), num_shards=2) as db:
            db.create_index("ix", "bre")
            save_sharded(db, root)
        with load_sharded(root) as loaded:
            loaded.create_index("ix", "bee", overwrite=True)
            save_sharded(loaded, root, overwrite=True, gc_stale=False)
        entry = _manifest(root)["shards"][0]
        assert entry["indexes"][0]["kind"] == "bee"
        assert os.stat(root / entry["table"]["path"]).st_nlink == 2
        assert os.stat(root / entry["indexes"][0]["file"]["path"]).st_nlink == 1
        assert verify_sharded(root).ok
        with load_sharded(root) as loaded:
            _assert_matches_oracle(loaded)
