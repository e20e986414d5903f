"""Unit tests for the cost-based planner."""

import math

import pytest

from repro.bitvector import get_backend, set_backend
from repro.core import planner
from repro.core.engine import IncompleteDatabase
from repro.core.planner import CostConstants, estimate_cost, rank_plans
from repro.dataset.synthetic import generate_uniform_table
from repro.errors import PlanningError
from repro.observability import use_registry
from repro.query.model import MissingSemantics, RangeQuery
from repro.shard import ShardedDatabase

#: Bitmap ops nearly free, approximations dear: bitmaps must win.
CHEAP_BITMAPS = CostConstants(
    op_ns=1.0, word_ns=0.001, dim_ns=1.0, code_ns=100.0, refine_ns=1.0
)
#: Bitmap ops dear, approximations nearly free: the VA-file must win.
CHEAP_SCANS = CostConstants(
    op_ns=1e6, word_ns=100.0, dim_ns=1.0, code_ns=0.001, refine_ns=1.0
)


@pytest.fixture
def fixed_costs(monkeypatch):
    """Pin the planner's operator costs: ``fixed_costs(constants)``."""

    def pin(constants):
        monkeypatch.setattr(planner, "_FIXED_CONSTANTS", constants)

    return pin


@pytest.fixture
def db():
    table = generate_uniform_table(
        5000, {"a": 100, "b": 10}, {"a": 0.1, "b": 0.2}, seed=101
    )
    db = IncompleteDatabase(table)
    db.create_index("bee", "bee")
    db.create_index("bre", "bre")
    db.create_index("va", "vafile")
    db.create_index("mosaic", "mosaic")
    return db


class TestEstimates:
    def test_bitmap_estimate_scales_with_bitmaps_touched(self, db):
        narrow = RangeQuery.from_bounds({"a": (5, 6)})
        wide = RangeQuery.from_bounds({"a": (5, 54)})
        bee = db.get_index("bee")
        cost_narrow = estimate_cost(bee, narrow, MissingSemantics.IS_MATCH)
        cost_wide = estimate_cost(bee, wide, MissingSemantics.IS_MATCH)
        assert cost_wide.items > 3 * cost_narrow.items

    def test_vafile_estimate_is_scan_cost(self, db):
        va = db.get_index("va")
        one_dim = estimate_cost(
            va, RangeQuery.from_bounds({"a": (1, 50)}), MissingSemantics.IS_MATCH
        )
        two_dim = estimate_cost(
            va,
            RangeQuery.from_bounds({"a": (1, 50), "b": (1, 5)}),
            MissingSemantics.IS_MATCH,
        )
        assert one_dim.items == 5000
        assert two_dim.items == 10000

    def test_uncostable_index_returns_none(self, db):
        mosaic = db.get_index("mosaic")
        assert (
            estimate_cost(
                mosaic,
                RangeQuery.from_bounds({"a": (1, 2)}),
                MissingSemantics.IS_MATCH,
            )
            is None
        )

    def test_rank_orders_cheapest_first(self, db, fixed_costs):
        fixed_costs(CHEAP_BITMAPS)
        query = RangeQuery.from_bounds({"a": (10, 60), "b": (2, 8)})
        candidates = [db.get_index(n) for n in ("bee", "bre", "va")]
        plans = rank_plans(candidates, query, MissingSemantics.IS_MATCH)
        assert len(plans) == 3
        assert (
            plans[0].predicted_ns
            <= plans[1].predicted_ns
            <= plans[2].predicted_ns
        )


class TestEngineIntegration:
    def test_wide_range_prefers_bre_over_bee(self, db):
        # A half-domain range touches ~50 BEE bitmaps but <= 3 BRE bitmaps.
        query = RangeQuery.from_bounds({"a": (10, 60)})
        candidates = [db.get_index("bee"), db.get_index("bre")]
        plans = rank_plans(candidates, query, MissingSemantics.IS_MATCH)
        assert plans[0].index_name == "bre"

    def test_explain_lists_costed_plans(self, db):
        text = db.explain(RangeQuery.from_bounds({"a": (10, 60)}))
        assert "items" in text and "ns predicted" in text
        assert "bre" in text and "va" in text

    def test_forced_index_bypasses_planner(self, db):
        report = db.query({"a": (10, 60)}, using="va")
        assert report.index_name == "va"


class TestUncoveredAttributeMessages:
    """PlanningError names the missing attribute AND the covering indexes."""

    def test_bitmap_error_lists_covering_indexes(self, db):
        from repro.core.planner import estimate_bitmap_cost
        from repro.bitmap.range_encoded import RangeEncodedBitmapIndex

        query = RangeQuery.from_bounds({"b": (1, 5)})
        narrow = RangeEncodedBitmapIndex(db.table, ["a"])
        with pytest.raises(PlanningError) as info:
            estimate_bitmap_cost(
                narrow, query, MissingSemantics.IS_MATCH,
                available=["wide_b", "other"],
            )
        message = str(info.value)
        assert "'b'" in message
        assert "covering indexes available: ['other', 'wide_b']" in message

    def test_bitmap_error_with_no_covering_indexes(self, db):
        from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
        from repro.core.planner import estimate_bitmap_cost

        narrow = RangeEncodedBitmapIndex(db.table, ["a"])
        with pytest.raises(PlanningError) as info:
            estimate_bitmap_cost(
                narrow,
                RangeQuery.from_bounds({"b": (1, 5)}),
                MissingSemantics.IS_MATCH,
                available=[],
            )
        assert "no attached index covers it" in str(info.value)

    def test_vafile_error_lists_covering_indexes(self, db):
        from repro.core.planner import estimate_vafile_cost
        from repro.vafile.vafile import VAFile

        narrow = VAFile(db.table, ["a"])
        with pytest.raises(PlanningError) as info:
            estimate_vafile_cost(
                narrow,
                RangeQuery.from_bounds({"b": (1, 5)}),
                MissingSemantics.IS_MATCH,
                available=["va_b"],
            )
        message = str(info.value)
        assert "['b']" in message
        assert "covering indexes available: ['va_b']" in message

    def test_legacy_call_without_available_unchanged(self, db):
        from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
        from repro.core.planner import estimate_bitmap_cost

        narrow = RangeEncodedBitmapIndex(db.table, ["a"])
        with pytest.raises(PlanningError) as info:
            estimate_bitmap_cost(
                narrow,
                RangeQuery.from_bounds({"b": (1, 5)}),
                MissingSemantics.IS_MATCH,
            )
        message = str(info.value)
        assert "covering indexes available" not in message
        assert "no attached index covers it" not in message


class TestCombineShardEstimates:
    def _estimate(self, name, items, kind="bre"):
        from repro.core.planner import CostEstimate

        return CostEstimate(
            index_name=name, kind=kind, items=items, detail="d"
        )

    def test_sums_items_across_shards(self):
        from repro.core.planner import combine_shard_estimates

        merged = combine_shard_estimates([
            [self._estimate("x", 10), self._estimate("y", 5)],
            [self._estimate("x", 7), self._estimate("y", 50)],
        ])
        by_name = {e.index_name: e for e in merged}
        assert by_name["x"].items == 17
        assert by_name["y"].items == 55
        assert merged[0].index_name == "x"
        assert "2 shards" in merged[0].detail

    def test_sums_predicted_ns_and_ranks_by_it(self):
        from repro.core.planner import CostEstimate, combine_shard_estimates

        def estimate(name, items, ns):
            return CostEstimate(
                index_name=name, kind="bre", items=items, detail="d",
                predicted_ns=ns,
            )

        merged = combine_shard_estimates([
            [estimate("x", 10, 900.0), estimate("y", 50, 100.0)],
            [estimate("x", 7, 800.0), estimate("y", 50, 150.0)],
        ])
        assert [e.index_name for e in merged] == ["y", "x"]
        by_name = {e.index_name: e for e in merged}
        assert by_name["x"].predicted_ns == 1700.0
        assert by_name["y"].predicted_ns == 250.0
        assert by_name["x"].items == 17

    def test_drops_indexes_not_costable_everywhere(self):
        from repro.core.planner import combine_shard_estimates

        merged = combine_shard_estimates([
            [self._estimate("x", 10), self._estimate("y", 5)],
            [self._estimate("x", 7)],
        ])
        assert [e.index_name for e in merged] == ["x"]

    def test_empty_input(self):
        from repro.core.planner import combine_shard_estimates

        assert combine_shard_estimates([]) == []


class TestCostModel:
    """Plans rank by calibrated predicted ns; items stay paper units."""

    @staticmethod
    def _query():
        return RangeQuery.from_bounds({"a": (10, 60), "b": (2, 8)})

    def test_calibration_constants_positive_and_finite(self, monkeypatch):
        monkeypatch.setattr(planner, "_CALIBRATED", {})
        constants = planner.cost_constants()
        for name in CostConstants.__slots__:
            value = getattr(constants, name)
            assert value > 0 and math.isfinite(value), name

    def test_calibrates_once_per_backend(self, monkeypatch, db):
        monkeypatch.setattr(planner, "_CALIBRATED", {})
        calls = []
        real = planner._calibrate

        def spy(backend):
            calls.append(backend.name)
            return real(backend)

        monkeypatch.setattr(planner, "_calibrate", spy)
        start = get_backend().name
        other = "python" if start != "python" else "numpy"
        # Lazily, on the first auto-planned query, and only then.
        db.choose_index(self._query())
        db.choose_index(self._query())
        planner.cost_constants()
        assert calls == [start]
        previous = set_backend(other)
        try:
            db.choose_index(self._query())
            db.choose_index(self._query())
            assert calls == [start, other]
        finally:
            set_backend(previous)
        db.choose_index(self._query())
        assert calls == [start, other]

    def test_calibration_is_metered_not_counted_as_query_work(
        self, monkeypatch, db
    ):
        monkeypatch.setattr(planner, "_CALIBRATED", {})
        with use_registry() as reg:
            db.choose_index(self._query())
        snapshot = reg.snapshot()
        assert snapshot.counters["planner.calibrations"] == 1
        assert snapshot.histograms["planner.calibration_ns"].count == 1
        assert "wah.ops" not in snapshot.counters

    def test_predicted_ns_follows_the_formulas(self, db, fixed_costs):
        costs = CostConstants(
            op_ns=1000.0, word_ns=2.0, dim_ns=300.0, code_ns=0.5,
            refine_ns=7.0,
        )
        fixed_costs(costs)
        query = self._query()
        semantics = MissingSemantics.IS_MATCH
        va = estimate_cost(db.get_index("va"), query, semantics)
        # Default bit budgets are exact: no refinement candidates.
        assert va.predicted_ns == pytest.approx(2 * (300.0 + 5000 * 0.5))
        bre = db.get_index("bre")
        estimate = estimate_cost(bre, query, semantics)
        touched = sum(
            bre.index.bitmaps_for_interval(name, interval, semantics)
            for name, interval in query.items()
        )
        ops = touched + query.dimensionality - 1
        assert estimate.predicted_ns == pytest.approx(
            ops * 1000.0 + estimate.items * 2.0
        )

    def test_refinement_candidates_are_costed(self, db, fixed_costs):
        fixed_costs(CostConstants(1.0, 1.0, 1.0, 1.0, refine_ns=1000.0))
        from repro.vafile.vafile import VAFile

        coarse = VAFile(db.table, ["a"], bits={"a": 3})
        exact = VAFile(db.table, ["a"])
        query = RangeQuery.from_bounds({"a": (10, 60)})
        _, coarse_ns, _ = planner.estimate_vafile_cost(
            coarse, query, MissingSemantics.IS_MATCH
        )
        _, exact_ns, _ = planner.estimate_vafile_cost(
            exact, query, MissingSemantics.IS_MATCH
        )
        assert exact_ns == pytest.approx(1.0 + 5000 * 1.0)
        assert coarse_ns > exact_ns + 1000.0

    @pytest.mark.parametrize(
        "costs, fastest", [(CHEAP_BITMAPS, "bre"), (CHEAP_SCANS, "va")]
    )
    def test_rank_plans_orders_by_predicted_ns(
        self, db, fixed_costs, costs, fastest
    ):
        fixed_costs(costs)
        candidates = [db.get_index(n) for n in ("bee", "bre", "va")]
        plans = rank_plans(
            candidates, self._query(), MissingSemantics.IS_MATCH
        )
        assert plans[0].index_name == fastest
        ns = [p.predicted_ns for p in plans]
        assert ns == sorted(ns)

    def test_ranking_ignores_items_when_ns_disagree(self, db, fixed_costs):
        fixed_costs(CHEAP_SCANS)
        plans = rank_plans(
            [db.get_index("bre"), db.get_index("va")],
            self._query(),
            MissingSemantics.IS_MATCH,
        )
        by_name = {p.index_name: p for p in plans}
        # The VA-file processes more paper-unit items yet is faster here.
        assert by_name["va"].items > by_name["bre"].items
        assert plans[0].index_name == "va"

    @pytest.mark.parametrize(
        "costs, fastest", [(CHEAP_BITMAPS, "bre"), (CHEAP_SCANS, "va")]
    )
    def test_choose_index_follows_predicted_ns(
        self, db, fixed_costs, costs, fastest
    ):
        fixed_costs(costs)
        assert db.choose_index(self._query()).name == fastest

    @pytest.mark.parametrize(
        "costs, fastest", [(CHEAP_BITMAPS, "bre"), (CHEAP_SCANS, "va")]
    )
    def test_sharded_plan_follows_predicted_ns(
        self, db, fixed_costs, costs, fastest
    ):
        fixed_costs(costs)
        query = self._query()
        with ShardedDatabase(db.table, num_shards=3) as sharded:
            sharded.create_index("bre", "bre")
            sharded.create_index("va", "vafile")
            chosen, merged, per_shard = sharded._plan_sharded(
                query, MissingSemantics.IS_MATCH
            )
            assert chosen == fastest
            assert merged[0].index_name == fastest
            assert merged[0].predicted_ns == pytest.approx(
                sum(p.predicted_ns for p in per_shard)
            )
            # Answers never depend on the plan: every index is exact.
            auto = sharded.execute(query).record_ids
            for name in ("bre", "va"):
                forced = sharded.execute(query, using=name).record_ids
                assert list(forced) == list(auto)
