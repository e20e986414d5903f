"""The benchmark's own checks: the oracle accepts right answers and catches
wrong ones, the write replay renumbers like the service, and a served
session shuts down cleanly.

    python3 -m pytest perfbench/test_oracle.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from common import (  # noqa: E402
    SERVE_CARDINALITIES,
    SERVE_MISSING,
    Oracle,
    RequestMix,
    Tracer,
    apply_write,
    same_answer,
    to_predicate,
    to_query,
)
from repro import IncompleteDatabase  # noqa: E402
from repro.dataset.synthetic import generate_uniform_table  # noqa: E402
from serve_load import READ_WEIGHTS, ServeSession  # noqa: E402


@pytest.fixture(scope="module")
def table():
    return generate_uniform_table(3000, SERVE_CARDINALITIES, SERVE_MISSING, seed=5)


@pytest.fixture(scope="module")
def db(table):
    database = IncompleteDatabase(table)
    for kind in ("bee", "bre", "vafile"):
        database.create_index(kind, kind)
    return database


def answer_from_report(report, semantics: str, count_only: bool = False) -> dict:
    """Normalize an engine / sharded report to the oracle's answer shape."""
    if semantics == "both":
        certain = np.asarray(report.certain_ids, dtype=np.int64)
        possible = np.asarray(report.possible_ids, dtype=np.int64)
        if count_only:
            return {"certain_count": len(certain), "possible_count": len(possible)}
        return {"certain": certain, "possible": possible}
    ids = np.asarray(report.record_ids, dtype=np.int64)
    return {"count": len(ids)} if count_only else {"ids": ids}


def run_request(db, request: dict):
    """The engine's answer to ``request``, in the oracle's shape."""
    semantics = request["semantics"]
    route = request["route"]
    if route == "/batch":
        reports = db.execute_batch([to_query(q) for q in request["queries"]], semantics)
        return [answer_from_report(r, semantics) for r in reports]
    if route == "/boolean":
        report = db.query_predicate(to_predicate(request["predicate"]), semantics)
    else:
        report = db.execute(to_query(request["bounds"]), semantics)
    return answer_from_report(report, semantics, route == "/count")


def _requests(table, count=60):
    mix = RequestMix(table, 9, READ_WEIGHTS, max_k=4, batch_size=3)
    return [mix.next() for _ in range(count)]


def _corrupt(answer, how="shift"):
    """A wrong copy of ``answer``: one id dropped (``drop``) or moved past
    the last match (``shift``, same count), an empty list given an id, or
    a count off by one."""
    if isinstance(answer, list):
        return [_corrupt(answer[0], how)] + answer[1:]
    wrong = dict(answer)
    key = sorted(wrong)[-1]
    value = wrong[key]
    if not isinstance(value, np.ndarray):
        wrong[key] = value + 1
    elif len(value) == 0:
        wrong[key] = np.array([0])
    elif how == "drop":
        wrong[key] = value[1:]
    else:
        wrong[key] = np.append(value[:-1], value[-1] + 1)
    return wrong


def test_oracle_accepts_engine_answers(table, db):
    oracle = Oracle(table)
    for request in _requests(table):
        assert same_answer(run_request(db, request), oracle.expected(request)), request


@pytest.mark.parametrize("how", ["drop", "shift"])
def test_oracle_catches_corrupted_answers(table, db, how):
    oracle = Oracle(table)
    for request in _requests(table):
        wrong = _corrupt(run_request(db, request), how)
        assert not same_answer(wrong, oracle.expected(request)), request


def test_oracle_catches_swapped_bounds(table, db):
    oracle = Oracle(table)
    request = {"route": "/query", "semantics": "both",
               "bounds": {"a": [10, 60], "c": [2, 9]}}
    answer = run_request(db, request)
    swapped = {"certain": answer["possible"], "possible": answer["certain"]}
    assert same_answer(answer, oracle.expected(request))
    assert not same_answer(swapped, oracle.expected(request))


def test_delete_replay_renumbers_survivors(table):
    after = apply_write(table, {"route": "/delete", "record_ids": [0, 2]})
    assert after.num_records == table.num_records - 2
    assert after.column("a")[0] == table.column("a")[1]
    assert after.column("a")[1] == table.column("a")[3]


def test_served_session_is_checked_and_stops_cleanly(table):
    scratch = Path(tempfile.mkdtemp(prefix="oracle-test-", dir=ROOT))
    try:
        session = ServeSession(ROOT, scratch, table, seed=3, tracer=Tracer(False))
        try:
            session.setup(repeats=1)
            session.run(1.5, readers=1, writer=True)
        finally:
            session.teardown()
        assert session.clean
        assert session.writes and session.reads
        assert session.verify() == 0
        read = next(r for r in session.reads if r.answer is not None)
        read.answer = _corrupt(read.answer)
        assert session.verify() == 1
    finally:
        shutil.rmtree(scratch)
