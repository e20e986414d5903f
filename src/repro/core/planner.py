"""Cost-based index selection for the engine.

The paper's cost story is simple and explicit: bitmap query cost is the
number of bitvectors touched times their (compressed) size; VA-file cost is
one approximation scan per query dimension.  Every covering index gets an
estimate in those cost-model units (32-bit words / approximations
processed, :attr:`CostEstimate.items`) — the experiments' reproduction
currency — and in predicted nanoseconds on *this* implementation
(:attr:`CostEstimate.predicted_ns`), which is what plans are ranked by.

The two differ because a WAH logical op here pays a large fixed
interpreter cost while a VA-file scan is a few vectorized numpy passes
(``docs/cost-model.md``).  The nanosecond constants come from a short
calibration of the active kernel backend, run lazily once per process and
backend (:func:`cost_constants`).

Estimates deliberately reuse each index's own introspection
(``bitmaps_for_interval``, size reports), so the planner stays honest as
encodings evolve.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.bitmap.base import BitmapIndex
from repro.bitvector import kernels as _kernels
from repro.errors import DomainError, PlanningError
from repro.observability import enabled as _obs_enabled
from repro.observability import observe as _obs_observe
from repro.observability import record as _obs_record
from repro.query.model import MissingSemantics, RangeQuery
from repro.vafile.quantizer import MISSING_CODE
from repro.vafile.vafile import VAFile


@dataclass(frozen=True, slots=True)
class CostEstimate:
    """A planner estimate for serving one query with one index."""

    index_name: str
    kind: str
    #: Estimated cost-model items processed (the paper's currency).
    items: float
    #: Human-readable explanation of the estimate.
    detail: str
    #: Predicted execution time on this implementation; plans rank by it.
    predicted_ns: float = 0.0


# -- calibrated operator costs -------------------------------------------------


@dataclass(frozen=True, slots=True)
class CostConstants:
    """Nanosecond prices of the operators plans are built from."""

    #: Fixed cost of one bitmap logical op (bitmap touched or result AND).
    op_ns: float
    #: Cost per stored 32-bit WAH word an op reads.
    word_ns: float
    #: Fixed cost of scanning one VA-file dimension.
    dim_ns: float
    #: Cost per approximation scanned.
    code_ns: float
    #: Cost per candidate whose actual value is read during refinement.
    refine_ns: float


#: Calibrated constants per kernel backend name.
_CALIBRATED: dict[str, CostConstants] = {}
_CALIBRATION_LOCK = threading.Lock()
#: When set, used instead of calibrating (tests pin plan choice with it).
_FIXED_CONSTANTS: CostConstants | None = None

#: Operand sizes the calibration times: (small, large).
_CALIBRATION_GROUPS = (32, 512)
_CALIBRATION_CODES = (4096, 65536)
_CALIBRATION_REPS = 5


def _scrambled(n: int, modulus: int, salt: int) -> np.ndarray:
    """``n`` distinct-looking values in ``[0, modulus)`` (multiplicative hash).

    Cheaper than a ``numpy.random`` generator, whose first use in a
    process costs over 10 ms on its own — more than the rest of the
    calibration.
    """
    mixed = (np.arange(salt, salt + n, dtype=np.uint64) * 2654435761) >> 3
    return mixed % modulus


def _best_ns(fn: Callable[[], object]) -> int:
    """Fastest of a few timed calls (the least-disturbed measurement)."""
    times = []
    for _ in range(_CALIBRATION_REPS):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return min(times)


def _fit(small: tuple[int, int], large: tuple[int, int]) -> tuple[float, float]:
    """``(fixed, per_unit)`` ns through two ``(units, ns)`` measurements.

    Both are clamped positive, so timer noise can never make an operator
    look free or negative.
    """
    (units_a, ns_a), (units_b, ns_b) = small, large
    per_unit = max((ns_b - ns_a) / (units_b - units_a), 1e-3)
    return max(ns_a - per_unit * units_a, 1.0), per_unit


def _calibrate(backend) -> CostConstants:
    """Time the backend's WAH AND and a VA-file scan at two sizes each.

    Kernels are called directly (not through ``WahBitVector``), so the
    probe records no metrics and never appears in a query's counters.
    """
    wah_points = []
    for ngroups in _CALIBRATION_GROUPS:
        left, right = (
            backend.wah_encode(
                _scrambled(ngroups, 1 << 31, salt).astype(np.uint32)
            )
            for salt in (1, 2 * ngroups + 1)
        )
        ns = _best_ns(lambda: backend.wah_binary("and", left, right, ngroups))
        wah_points.append((len(left) + len(right), ns))
    op_ns, word_ns = _fit(*wah_points)

    scan_points, refine_points = [], []
    for n in _CALIBRATION_CODES:
        codes = _scrambled(n, 128, 1).astype(np.uint8)
        column = _scrambled(n, 101, n).astype(np.int64)
        mask = np.ones(n, dtype=bool)
        candidates = np.flatnonzero(codes < 64)

        def scan():
            # One dimension of VAFile.candidate_mask.
            in_range = (codes >= 10) & (codes <= 60)
            in_range |= codes == MISSING_CODE
            np.bitwise_and(mask, in_range, out=mask)

        def refine():
            values = column[candidates]
            return (values >= 10) & (values <= 60)

        scan_points.append((n, _best_ns(scan)))
        refine_points.append((len(candidates), _best_ns(refine)))
    dim_ns, code_ns = _fit(*scan_points)
    _, refine_ns = _fit(*refine_points)
    return CostConstants(op_ns, word_ns, dim_ns, code_ns, refine_ns)


def cost_constants() -> CostConstants:
    """The active kernel backend's operator costs, calibrated on first use.

    Calibration (a few ms) runs once per process and backend; switching
    backends with :func:`repro.bitvector.set_backend` calibrates the new
    one on its first plan.
    """
    if _FIXED_CONSTANTS is not None:
        return _FIXED_CONSTANTS
    backend = _kernels.get_backend()
    constants = _CALIBRATED.get(backend.name)
    if constants is not None:
        return constants
    with _CALIBRATION_LOCK:
        constants = _CALIBRATED.get(backend.name)
        if constants is None:
            start = time.perf_counter_ns()
            constants = _calibrate(backend)
            _CALIBRATED[backend.name] = constants
            if _obs_enabled():
                _obs_record("planner.calibrations")
                _obs_observe(
                    "planner.calibration_ns", time.perf_counter_ns() - start
                )
    return constants


def _covering_hint(available: Sequence[str] | None) -> str:
    """Render the covering-index part of an uncovered-attribute error."""
    if available is None:
        return ""
    if not available:
        return "; no attached index covers it"
    return f"; covering indexes available: {sorted(available)}"


def estimate_bitmap_cost(
    index: BitmapIndex,
    query: RangeQuery,
    semantics: MissingSemantics,
    available: Sequence[str] | None = None,
) -> tuple[float, float, str]:
    """``(words, predicted_ns, detail)`` for a bitmap index on ``query``.

    Bitvectors touched per interval come from the encoding's own
    ``bitmaps_for_interval``; each touched bitvector is costed at the
    attribute's average stored bitmap size (compressed words).  The
    prediction prices ``ops`` (bitvectors touched plus the result ANDs)
    and ``words`` with the calibrated :class:`CostConstants`.
    ``available`` names the attached indexes that *do* cover the query, so
    an uncovered-attribute :class:`PlanningError` can tell the caller where
    to send the query instead.
    """
    report = {r.attribute: r for r in index.size_report().per_attribute}
    total_words = 0.0
    total_bitmaps = 0
    for name, interval in query.items():
        attr_report = report.get(name)
        if attr_report is None:
            raise PlanningError(
                f"cannot cost a {index.encoding} bitmap plan: the index does "
                f"not cover query attribute {name!r} "
                f"(covers {sorted(report)})"
                f"{_covering_hint(available)}"
            )
        touched = index.bitmaps_for_interval(name, interval, semantics)
        if attr_report.num_bitmaps:
            avg_words = attr_report.compressed_bytes / 4 / attr_report.num_bitmaps
        else:
            avg_words = 0.0
        total_words += touched * avg_words
        total_bitmaps += touched
    # The final AND chain costs roughly one result-sized pass per dimension.
    result_ands = max(0, query.dimensionality - 1)
    total_words += (index.num_records + 30) // 31 * result_ands
    constants = cost_constants()
    predicted_ns = (
        (total_bitmaps + result_ands) * constants.op_ns
        + total_words * constants.word_ns
    )
    return total_words, predicted_ns, (
        f"{total_bitmaps} bitvectors @ avg compressed size, "
        f"+{result_ands} result-width ANDs"
    )


def _boundary_rows(vafile: VAFile, query: RangeQuery) -> float:
    """Expected refinement candidates: rows in partially covered bins.

    Each boundary bin is assumed to hold its uniform share of the rows.
    Exact quantizers (the paper's default bit budget) never refine.
    """
    rows = 0.0
    for name, interval in query.items():
        quantizer = vafile.quantizer(name)
        if quantizer.is_exact():
            continue
        try:
            codes = {
                quantizer.encode_value(interval.lo),
                quantizer.encode_value(interval.hi),
            }
        except DomainError:
            continue  # execution reports the bad interval
        for code in codes:
            lo, hi = quantizer.bin_range(code)
            if not (interval.lo <= lo and hi <= interval.hi):
                rows += vafile.num_records / quantizer.nbins
    return rows


def estimate_vafile_cost(
    vafile: VAFile,
    query: RangeQuery,
    semantics: MissingSemantics,
    available: Sequence[str] | None = None,
) -> tuple[float, float, str]:
    """``(approximations, predicted_ns, detail)`` for a VA-file on ``query``."""
    uncovered = set(query.attributes) - set(vafile.attributes)
    if uncovered:
        raise PlanningError(
            f"cannot cost a VA-file plan: the file does not cover query "
            f"attributes {sorted(uncovered)} "
            f"(covers {sorted(vafile.attributes)})"
            f"{_covering_hint(available)}"
        )
    n, dims = vafile.num_records, query.dimensionality
    candidates = _boundary_rows(vafile, query)
    constants = cost_constants()
    predicted_ns = (
        dims * (constants.dim_ns + n * constants.code_ns)
        + candidates * constants.refine_ns
    )
    return float(n * dims), predicted_ns, (
        f"{n} approximations x {dims} dims"
    )


def semantics_for_costing(semantics) -> MissingSemantics:
    """The single semantics to cost a plan under.

    A both-mode execution computes its pair in one pass whose work is
    essentially the possible bound's (the certain bound is one missing-
    bitmap adjustment away), so :data:`~repro.query.model.BOTH` is costed
    as ``IS_MATCH`` — the superset bound — and one plan serves both
    bounds.  Single-semantics requests cost as themselves.
    """
    if isinstance(semantics, MissingSemantics):
        return semantics
    return MissingSemantics.IS_MATCH


def estimate_cost(
    attached,
    query: RangeQuery,
    semantics: MissingSemantics,
    available: Sequence[str] | None = None,
) -> CostEstimate | None:
    """Cost estimate for one attached index, or None when not costable."""
    index = attached.index
    if isinstance(index, BitmapIndex):
        estimate = estimate_bitmap_cost(index, query, semantics, available)
    elif isinstance(index, VAFile):
        estimate = estimate_vafile_cost(index, query, semantics, available)
    else:
        return None
    items, predicted_ns, detail = estimate
    return CostEstimate(
        index_name=attached.name,
        kind=attached.kind,
        items=items,
        detail=detail,
        predicted_ns=predicted_ns,
    )


def _fastest_first(estimate: CostEstimate) -> tuple[float, float]:
    """Rank key: predicted time, with paper-unit work breaking ties."""
    return estimate.predicted_ns, estimate.items


def rank_plans(
    candidates,
    query: RangeQuery,
    semantics: MissingSemantics,
) -> list[CostEstimate]:
    """Cost estimates for all costable covering indexes, fastest first.

    Candidates that do not cover every query attribute are skipped (an
    index that cannot serve the query has no plan to rank), so callers may
    pass an unfiltered index list without tripping the cost model's
    coverage check.
    """
    covering = []
    for attached in candidates:
        covers = getattr(attached, "covers", None)
        if covers is not None and not covers(query):
            continue
        covering.append(attached)
    available = [getattr(c, "name", "?") for c in covering]
    estimates = []
    for attached in covering:
        estimate = estimate_cost(attached, query, semantics, available)
        if estimate is not None:
            estimates.append(estimate)
    estimates.sort(key=_fastest_first)
    if _obs_enabled():
        _obs_record("planner.rankings")
        _obs_record("planner.plans_costed", len(estimates))
    return estimates


# -- batch planning ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BatchGroup:
    """One batch executor work unit: a run of queries on one access path.

    ``positions`` index into the submitted workload, in execution order;
    results are reassembled into submission order afterwards, so ordering
    here is purely a cache-locality decision.
    """

    #: Attached-index name serving the group; None means sequential scan.
    index_name: str | None
    #: Workload positions, ordered for sub-result reuse.
    positions: tuple[int, ...]


def reuse_sort_key(query: RangeQuery) -> tuple:
    """Canonical interval signature used to cluster cache-sharing queries.

    Queries with identical signatures share every per-attribute sub-result;
    sorting a group by this key makes them adjacent, so under a starved
    cache budget a memoized interval is reused before eviction pressure
    from unrelated queries pushes it out.  Sharing ties (a common prefix of
    ``(attribute, lo, hi)`` triples) land nearby for the same reason.
    """
    return tuple(
        sorted((name, iv.lo, iv.hi) for name, iv in query.items())
    )


def plan_batch(
    queries: list[RangeQuery],
    chosen_names: list[str | None],
) -> list[BatchGroup]:
    """Group a workload by chosen index and order each group for reuse.

    ``chosen_names[i]`` is the index the engine picked for ``queries[i]``
    (None for the scan fallback).  Groups come back in first-appearance
    order; within a group, positions are ordered by
    :func:`reuse_sort_key` with submission order as the tiebreak, keeping
    the plan deterministic.
    """
    if len(queries) != len(chosen_names):
        raise PlanningError(
            f"got {len(queries)} queries but {len(chosen_names)} plans"
        )
    by_index: dict[str | None, list[int]] = {}
    for position, name in enumerate(chosen_names):
        by_index.setdefault(name, []).append(position)
    groups = []
    for name, positions in by_index.items():
        positions.sort(key=lambda p: (reuse_sort_key(queries[p]), p))
        groups.append(BatchGroup(index_name=name, positions=tuple(positions)))
    if _obs_enabled():
        _obs_record("planner.batches")
        _obs_record("planner.batch_groups", len(groups))
    return groups


# -- shard planning ----------------------------------------------------------


def combine_shard_estimates(
    per_shard: Sequence[Sequence[CostEstimate]],
) -> list[CostEstimate]:
    """Merge per-shard plan rankings into whole-database estimates.

    Every shard of a :class:`~repro.shard.ShardedDatabase` carries the same
    index names over its own row slice; the cost of serving a query with
    index ``x`` on the whole database is the *sum* of shard ``x`` costs —
    items and predicted ns alike (shards execute independently and their
    work does not overlap).  Only index names costable on **every** shard
    are merged — an index that some shard cannot cost has no
    whole-database plan.  Result is fastest first, the same contract as
    :func:`rank_plans`.
    """
    if not per_shard:
        return []
    sums: dict[str, CostEstimate] = {}
    counts: dict[str, int] = {}
    for plans in per_shard:
        for plan in plans:
            counts[plan.index_name] = counts.get(plan.index_name, 0) + 1
            seen = sums.get(plan.index_name)
            if seen is None:
                sums[plan.index_name] = plan
            else:
                sums[plan.index_name] = CostEstimate(
                    index_name=plan.index_name,
                    kind=plan.kind,
                    items=seen.items + plan.items,
                    detail=seen.detail,
                    predicted_ns=seen.predicted_ns + plan.predicted_ns,
                )
    num_shards = len(per_shard)
    merged = [
        CostEstimate(
            index_name=name,
            kind=estimate.kind,
            items=estimate.items,
            detail=f"sum over {num_shards} shards",
            predicted_ns=estimate.predicted_ns,
        )
        for name, estimate in sums.items()
        if counts[name] == num_shards
    ]
    merged.sort(key=_fastest_first)
    if _obs_enabled():
        _obs_record("planner.shard_rankings")
        _obs_record("planner.shard_plans_merged", len(merged))
    return merged
