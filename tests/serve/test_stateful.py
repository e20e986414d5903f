"""Stateful model test of the disk-backed serving write path.

A hypothesis ``RuleBasedStateMachine`` drives appends, deletes, compacts,
index DDL, reader pins and restarts through a disk-backed
:class:`EpochManager` + :class:`SnapshotWriter` and checks them against a
plain numpy model of the table.  After every step:

* every query, under ``is_match``, ``not_match`` and ``both``, equals the
  brute-force ground truth on the model table;
* every held pin still answers exactly what it answered when taken;
* ``fsck`` finds nothing corrupt or missing;
* the only ``gen-*`` directories on disk are the committed one and those
  of pinned epochs.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.dataset.schema import AttributeSpec, Schema
from repro.dataset.table import IncompleteTable
from repro.query.ground_truth import evaluate, evaluate_mask_both
from repro.query.model import MissingSemantics, RangeQuery
from repro.serve import EpochManager, SnapshotWriter
from repro.shard import ShardedDatabase, load_sharded, save_sharded
from repro.storage import verify_sharded

SCHEMA = Schema([AttributeSpec("a", 6), AttributeSpec("b", 4)])
QUERIES = [
    RangeQuery.from_bounds(bounds)
    for bounds in (
        {"a": (2, 4)},
        {"b": (1, 1)},
        {"a": (1, 6), "b": (3, 4)},
        {"a": (5, 5), "b": (1, 2)},
    )
]
MAX_PINS = 3

rows_strategy = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 4)), min_size=1, max_size=60
)


def _answers(db) -> list:
    """Every query's ids under both single semantics plus the pair."""
    out = []
    for query in QUERIES:
        for semantics in MissingSemantics:
            out.append(db.execute(query, semantics).record_ids.tolist())
        report = db.execute(query, "both")
        out.append(report.certain_ids.tolist())
        out.append(report.possible_ids.tolist())
    return out


def _expected(table: IncompleteTable) -> list:
    out = []
    for query in QUERIES:
        for semantics in MissingSemantics:
            out.append(evaluate(table, query, semantics).tolist())
        certain, possible = evaluate_mask_both(table, query)
        out.append(np.flatnonzero(certain).tolist())
        out.append(np.flatnonzero(possible).tolist())
    return out


class ServingModel(RuleBasedStateMachine):
    """The served database against a numpy table model."""

    @initialize(
        rows=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 4)),
            min_size=12, max_size=90,
        ),
        shards=st.integers(1, 4),
    )
    def start(self, rows, shards):
        self.scratch = Path(tempfile.mkdtemp(prefix="repro-stateful-"))
        self.root = self.scratch / "db"
        self.columns = {
            "a": np.array([r[0] for r in rows], dtype=np.int64),
            "b": np.array([r[1] for r in rows], dtype=np.int64),
        }
        with ShardedDatabase(self._model(), num_shards=shards) as db:
            db.create_index("ix", "bre")
            save_sharded(db, self.root)
        self.indexes = {"ix"}
        self.pins = []
        self._open()

    def _open(self):
        self.manager = EpochManager(load_sharded(self.root), self.root)
        self.writer = SnapshotWriter(self.manager, self.root)

    def _model(self) -> IncompleteTable:
        return IncompleteTable(SCHEMA, dict(self.columns))

    def _num_rows(self) -> int:
        return len(self.columns["a"])

    # -- rules -----------------------------------------------------------

    @rule(rows=rows_strategy)
    def append(self, rows):
        self.writer.append({
            "a": [r[0] for r in rows], "b": [r[1] for r in rows],
        })
        for i, name in enumerate(("a", "b")):
            self.columns[name] = np.concatenate([
                self.columns[name],
                np.array([r[i] for r in rows], dtype=np.int64),
            ])

    @rule(picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=25))
    def delete(self, picks):
        n = self._num_rows()
        ids = sorted({p % n for p in picks})
        if len(ids) == n:
            ids = ids[:-1]  # the writer refuses to empty the table
        if not ids:
            return
        self.writer.delete(ids)
        keep = np.setdiff1d(np.arange(n), ids)
        self.columns = {k: v[keep] for k, v in self.columns.items()}

    @rule()
    def compact(self):
        self.writer.compact()

    @rule(
        name=st.sampled_from(["ix", "x", "y"]),
        kind=st.sampled_from(["bee", "bre", "vafile"]),
    )
    def create_index(self, name, kind):
        self.writer.create_index(name, kind, overwrite=True)
        self.indexes.add(name)

    @precondition(lambda self: self.indexes)
    @rule(data=st.data())
    def drop_index(self, data):
        name = data.draw(st.sampled_from(sorted(self.indexes)))
        self.writer.drop_index(name)
        self.indexes.discard(name)

    @precondition(lambda self: len(self.pins) < MAX_PINS)
    @rule()
    def hold_pin(self):
        pin = self.manager.pin()
        self.pins.append((pin, _answers(pin.database)))

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def release_pin(self, data):
        index = data.draw(st.integers(0, len(self.pins) - 1))
        pin, _ = self.pins.pop(index)
        pin.release()

    @rule()
    def restart(self):
        for pin, _ in self.pins:
            pin.release()
        self.pins = []
        self.manager.close()
        self._open()

    # -- invariants ------------------------------------------------------

    @invariant()
    def answers_match_the_model(self):
        with self.manager.pin() as pin:
            assert pin.database.num_records == self._num_rows()
            assert _answers(pin.database) == _expected(self._model())

    @invariant()
    def held_pins_never_change(self):
        for pin, answers in self.pins:
            assert _answers(pin.database) == answers

    @invariant()
    def fsck_is_clean(self):
        report = verify_sharded(self.root)
        assert report.ok, report.format()

    @invariant()
    def only_committed_and_pinned_generations_exist(self):
        manifest = json.loads((self.root / "manifest.json").read_text())
        expected = {manifest["generation"]} | {
            pin.epoch for pin, _ in self.pins
        }
        on_disk = {
            int(child.name[4:])
            for child in self.root.iterdir()
            if child.is_dir() and child.name.startswith("gen-")
        }
        assert on_disk == expected

    def teardown(self):
        for pin, _ in getattr(self, "pins", []):
            pin.release()
        if hasattr(self, "manager"):
            self.manager.close()
        if hasattr(self, "scratch"):
            shutil.rmtree(self.scratch, ignore_errors=True)


ServingModel.TestCase.settings = settings(
    max_examples=20,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServingModel = ServingModel.TestCase
