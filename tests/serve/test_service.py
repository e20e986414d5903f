"""QueryService HTTP behaviour: routes, admission control, lifecycle."""

import json
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.dataset.synthetic import generate_uniform_table
from repro.errors import ReproError
from repro.query.model import MissingSemantics
from repro.serve import QueryService
from repro.shard import ShardedDatabase, save_sharded


def _table(seed=9, n=200):
    return generate_uniform_table(
        n, {"a": 9, "b": 4}, {"a": 0.2, "b": 0.1}, seed=seed
    )


def _db(seed=9, n=200):
    db = ShardedDatabase(_table(seed, n), num_shards=2)
    db.create_index("ix", "bre")
    return db


def _post(url, payload):
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


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode("utf-8")


@pytest.fixture()
def service():
    svc = QueryService(database=_db()).start()
    yield svc
    svc.stop()


class TestConstruction:
    def test_exactly_one_source(self):
        with pytest.raises(ReproError, match="exactly one"):
            QueryService()
        with pytest.raises(ReproError, match="exactly one"):
            QueryService(database=_db(), directory="/nowhere")

    def test_port_zero_binds_a_real_port(self, service):
        assert service.port > 0
        assert str(service.port) in service.url

    def test_reuse_addr_is_set(self, service):
        assert service._httpd.socket.getsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR
        )

    def test_directory_mode_loads_the_save(self, tmp_path):
        with _db() as db:
            db.create_index("bee", "bee", ["a"])
            save_sharded(db, tmp_path)
        svc = QueryService(directory=tmp_path).start()
        try:
            status, body = _post(
                svc.url + "/query", {"bounds": {"a": [2, 6]}}
            )
            assert status == 200 and body["epoch"] == 1
        finally:
            svc.stop()


class TestReadRoutes:
    def test_query_matches_direct_execution(self, service):
        oracle = _db()
        for semantics in MissingSemantics:
            expected = oracle.execute({"a": (2, 6)}, semantics)
            status, body = _post(
                service.url + "/query",
                {"bounds": {"a": [2, 6]}, "semantics": semantics.value},
            )
            assert status == 200
            assert body["semantics"] == semantics.value
            assert body["matches"] == expected.num_matches
            assert body["record_ids"] == [int(i) for i in expected.record_ids]
            assert body["truncated"] is False
        oracle.close()

    def test_query_limit_truncates(self, service):
        status, body = _post(
            service.url + "/query", {"bounds": {"a": [1, 9]}, "limit": 3}
        )
        assert status == 200
        assert len(body["record_ids"]) == 3
        assert body["truncated"] is True
        assert body["matches"] > 3

    def test_count_omits_ids(self, service):
        status, body = _post(
            service.url + "/count", {"bounds": {"a": [2, 6]}}
        )
        assert status == 200
        assert "record_ids" not in body
        assert body["matches"] > 0

    def test_batch(self, service):
        oracle = _db()
        queries = [{"a": [2, 6]}, {"b": [1, 2]}]
        status, body = _post(service.url + "/batch", {"queries": queries})
        assert status == 200
        expected = oracle.execute_batch(
            [{"a": (2, 6)}, {"b": (1, 2)}], MissingSemantics.IS_MATCH
        )
        assert [r["record_ids"] for r in body["results"]] == [
            [int(i) for i in rep.record_ids] for rep in expected
        ]
        oracle.close()

    def test_boolean(self, service):
        from repro.query.boolean import And, Atom, Not

        oracle = _db()
        predicate = And((Atom.of("a", 2, 6), Not(Atom.of("b", 1, 2))))
        expected = oracle.query_predicate(
            predicate, MissingSemantics.NOT_MATCH
        )
        status, body = _post(
            service.url + "/boolean",
            {
                "predicate": {
                    "and": [
                        {"atom": {"attribute": "a", "lo": 2, "hi": 6}},
                        {"not": {"atom": {"attribute": "b", "lo": 1, "hi": 2}}},
                    ]
                },
                "semantics": "not_match",
            },
        )
        assert status == 200
        assert body["record_ids"] == [int(i) for i in expected.record_ids]
        oracle.close()

    def test_explain(self, service):
        status, body = _post(
            service.url + "/explain", {"bounds": {"a": [2, 6]}}
        )
        assert status == 200
        assert "shard" in body["explain"]

    def test_reads_carry_the_epoch(self, service):
        status, body = _post(
            service.url + "/query", {"bounds": {"a": [2, 6]}}
        )
        assert status == 200 and body["epoch"] == 1
        _post(service.url + "/compact", {})
        status, body = _post(
            service.url + "/query", {"bounds": {"a": [2, 6]}}
        )
        assert status == 200 and body["epoch"] == 2


class TestWriteRoutes:
    def test_append_then_query_sees_the_row(self, service):
        status, body = _post(
            service.url + "/append", {"rows": {"a": [7], "b": [4]}}
        )
        assert status == 200 and body["epoch"] == 2
        status, body = _post(
            service.url + "/query",
            {"bounds": {"a": [7, 7], "b": [4, 4]}},
        )
        assert 200 in body["record_ids"]

    def test_delete_and_index_ddl(self, service):
        status, body = _post(
            service.url + "/delete", {"record_ids": [0, 1]}
        )
        assert status == 200 and body["epoch"] == 2
        status, body = _post(
            service.url + "/create-index",
            {"name": "bee", "kind": "bee", "attributes": ["a"]},
        )
        assert status == 200 and body["epoch"] == 3
        status, body = _post(
            service.url + "/query",
            {"bounds": {"a": [2, 6]}, "using": "bee"},
        )
        assert status == 200 and body["index"] == "bee"
        status, body = _post(service.url + "/drop-index", {"name": "bee"})
        assert status == 200 and body["epoch"] == 4


class TestErrors:
    def test_unknown_route_is_404(self, service):
        status, body = _get(service.url + "/nope")
        assert status == 404
        assert "/query" in body

    def test_bad_json_is_400(self, service):
        request = urllib.request.Request(
            service.url + "/query", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_unknown_semantics_is_400(self, service):
        status, body = _post(
            service.url + "/query",
            {"bounds": {"a": [1, 2]}, "semantics": "maybe"},
        )
        assert status == 400 and "semantics" in body["error"]

    def test_unknown_attribute_is_400(self, service):
        status, body = _post(
            service.url + "/query", {"bounds": {"zz": [1, 2]}}
        )
        assert status == 400

    def test_malformed_predicate_is_400(self, service):
        status, body = _post(
            service.url + "/boolean", {"predicate": {"xor": []}}
        )
        assert status == 400 and "xor" in body["error"]

    def test_missing_body_keys_are_400(self, service):
        for route, payload in (
            ("/query", {}),
            ("/batch", {"queries": []}),
            ("/append", {}),
            ("/delete", {"record_ids": []}),
            ("/create-index", {"name": "x"}),
            ("/drop-index", {}),
        ):
            status, _ = _post(service.url + route, payload)
            assert status == 400, route

    def test_expired_deadline_is_408(self, service):
        status, body = _post(
            service.url + "/query",
            {"bounds": {"a": [1, 2]}, "deadline_ms": 0.0001},
        )
        assert status == 408


class TestMalformedFields:
    """A malformed request field is a 400 naming it, never a 500."""

    @staticmethod
    def _post_raw(url, payload, headers=None):
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json", **(headers or {})},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, response.read().decode("utf-8")
        except urllib.error.HTTPError as err:
            return err.code, err.read().decode("utf-8")

    def _assert_400(self, service, route, payload, field, headers=None):
        status, text = self._post_raw(service.url + route, payload, headers)
        assert status == 400, text
        assert field in json.loads(text)["error"]

    def test_deadline_header_not_a_number(self, service):
        self._assert_400(
            service, "/query", {"bounds": {"a": [1, 2]}}, "X-Deadline-Ms",
            headers={"X-Deadline-Ms": "soon"},
        )

    def test_deadline_field_not_a_number(self, service):
        self._assert_400(
            service, "/query",
            {"bounds": {"a": [1, 2]}, "deadline_ms": "soon"}, "deadline_ms",
        )

    def test_limit_not_an_integer(self, service):
        self._assert_400(
            service, "/query", {"bounds": {"a": [1, 9]}, "limit": "ten"},
            "limit",
        )

    def test_negative_limit(self, service):
        # Used to slice off the last id and answer 200 "truncated".
        self._assert_400(
            service, "/query", {"bounds": {"a": [1, 9]}, "limit": -1},
            "limit",
        )

    def test_ranked_limit_not_an_integer(self, service):
        self._assert_400(
            service, "/ranked", {"bounds": {"a": [1, 9]}, "limit": "ten"},
            "limit",
        )

    def test_delete_ids_not_integers(self, service):
        self._assert_400(
            service, "/delete", {"record_ids": ["x"]}, "record_ids"
        )
        # Nothing was deleted: the epoch did not advance.
        status, body = _post(service.url + "/query", {"bounds": {"a": [1, 9]}})
        assert status == 200 and body["epoch"] == service.epochs.current_epoch

    def test_zero_limit_is_valid(self, service):
        status, body = _post(
            service.url + "/query", {"bounds": {"a": [1, 9]}, "limit": 0}
        )
        assert status == 200
        assert body["record_ids"] == [] and body["truncated"] is True


class TestCompactResponses:
    def test_json_is_compact_and_ids_are_plain_ints(self, service):
        status, text = TestMalformedFields._post_raw(
            service.url + "/query", {"bounds": {"a": [1, 9]}}
        )
        assert status == 200
        assert text.endswith("\n") and "\n" not in text[:-1]
        assert ", " not in text and '": ' not in text
        body = json.loads(text)
        assert all(type(i) is int for i in body["record_ids"])
        assert body["record_ids"] == sorted(body["record_ids"])


class TestAdmission:
    def test_queue_full_is_429(self):
        release = threading.Event()
        entered = threading.Event()
        db = _db()
        svc = QueryService(database=db, max_inflight=1, queue_limit=0)

        original = db.execute

        def slow_execute(*args, **kwargs):
            entered.set()
            release.wait(timeout=10)
            return original(*args, **kwargs)

        db.execute = slow_execute
        svc.start()
        try:
            statuses = []

            def request():
                status, _ = _post(
                    svc.url + "/query", {"bounds": {"a": [1, 9]}}
                )
                statuses.append(status)

            first = threading.Thread(target=request)
            first.start()
            assert entered.wait(timeout=10)
            # The slot is held and the queue is zero-length: rejected.
            status, body = _post(svc.url + "/query", {"bounds": {"a": [1, 2]}})
            assert status == 429 and "queue full" in body["error"]
            # Introspection is admission-exempt even while saturated.
            status, _ = _get(svc.url + "/healthz")
            assert status == 200
            release.set()
            first.join()
            assert statuses == [200]
        finally:
            release.set()
            svc.stop()

    def test_draining_service_rejects_with_503(self):
        svc = QueryService(database=_db()).start()
        svc.stop()
        # The admission gate flips before the listener closes; simulate a
        # request that raced past the socket by calling the gate directly.
        from repro.serve.service import _Reject

        with pytest.raises(_Reject) as err:
            svc._admit(None)
        assert err.value.status == 503

    def test_stop_is_idempotent(self):
        svc = QueryService(database=_db()).start()
        svc.stop()
        svc.stop()


class TestConcurrentReads:
    def test_concurrent_queries_match_oracle(self, service):
        oracle = _db()
        expected = {
            semantics: [int(i) for i in oracle.execute(
                {"a": (2, 6)}, semantics
            ).record_ids]
            for semantics in MissingSemantics
        }
        oracle.close()
        failures = []

        def worker(semantics):
            for _ in range(5):
                status, body = _post(
                    service.url + "/query",
                    {"bounds": {"a": [2, 6]}, "semantics": semantics.value},
                )
                if status != 200 or body["record_ids"] != expected[semantics]:
                    failures.append((status, body))

        threads = [
            threading.Thread(target=worker, args=(semantics,))
            for semantics in MissingSemantics
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
