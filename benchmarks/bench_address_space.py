"""Guards for the indexed address space: audited replays must stay fast.

Two enforced assertions, both on first-fit churn replays:

* **Index vs pre-index audit.**  ``_LegacyScanSpace`` reinstates the seed's
  audit — a linear scan over every live extent per placement — on top of the
  current address space.  The indexed audit must beat it by at least 5x on a
  trace whose live set is large enough that the scan dominates (the captured
  pre-index baseline ratio; at the full 50k-live scale the gap is orders of
  magnitude, far too slow to time in CI).
* **Audit overhead.**  With the index, ``validate=True`` must cost no more
  than 2x the unaudited replay at scale (5k live by default, 50k with
  ``REPRO_BENCH_FULL=1``) — which is what lets benchmarks and campaign cells
  run audited by default.

Timings are best-of-N with the two variants interleaved, so a load spike on
a shared CI runner hits both sides.
"""

import os
import random
import time
from bisect import bisect_left, insort

import pytest

from benchmarks.bench_artifact import record_metric
from repro.allocators import FirstFitAllocator
from repro.storage.address_space import AddressSpace
from repro.storage.extent import Extent
from repro.storage.gap_index import GapIndex
from repro.workloads import UniformSizes, churn_trace

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

#: Trace for the legacy-vs-indexed ratio: big enough for the O(n) scan to
#: dominate, small enough that the legacy replay stays CI-friendly.
LEGACY_TRACE = churn_trace(12_000, UniformSizes(1, 64), target_live=4_000, seed=31)

#: Trace for the audited-vs-unaudited overhead guard.
SCALE_TRACE = (
    churn_trace(150_000, UniformSizes(1, 64), target_live=50_000, seed=32)
    if FULL
    else churn_trace(20_000, UniformSizes(1, 64), target_live=5_000, seed=32)
)


class _LegacyScanSpace(AddressSpace):
    """The pre-index audit: check a placement against every live extent."""

    def _find_overlap(self, extent, ignore=None):
        for name, existing in self._extents.items():
            if name == ignore:
                continue
            if existing.overlaps(extent):
                return name
        return None


def _timed_replay(trace, audit=True, space_class=None):
    allocator = FirstFitAllocator(audit=audit)
    if space_class is not None:
        allocator.space = space_class(validate=audit)
    started = time.perf_counter()
    allocator.run(trace)
    elapsed = time.perf_counter() - started
    assert allocator.stats.requests == len(trace)
    return elapsed, allocator


def test_indexed_audit_beats_the_legacy_scan_by_5x():
    indexed = legacy = float("inf")
    for _ in range(3):
        indexed = min(indexed, _timed_replay(LEGACY_TRACE)[0])
        legacy = min(legacy, _timed_replay(LEGACY_TRACE, space_class=_LegacyScanSpace)[0])
    print(
        f"\naudited first-fit replay ({len(LEGACY_TRACE)} requests, 4k live): "
        f"indexed={indexed:.3f}s legacy-scan={legacy:.3f}s ({legacy / indexed:.1f}x)"
    )
    record_metric("address_space", "indexed_audit_seconds", round(indexed, 6), "seconds")
    record_metric("address_space", "legacy_scan_seconds", round(legacy, 6), "seconds")
    record_metric(
        "address_space", "legacy_over_indexed_ratio", round(legacy / indexed, 2), "ratio"
    )
    assert legacy >= 5 * indexed, (
        f"indexed audit ({indexed:.3f}s) is less than 5x faster than the "
        f"pre-index linear scan ({legacy:.3f}s); the overlap index has regressed"
    )


def test_indexed_audit_and_legacy_scan_agree():
    """The speed guard is only meaningful if both audits accept the replay
    and produce identical results."""
    _, indexed = _timed_replay(LEGACY_TRACE)
    _, legacy = _timed_replay(LEGACY_TRACE, space_class=_LegacyScanSpace)
    assert indexed.footprint == legacy.footprint
    assert indexed.volume == legacy.volume
    indexed.space.verify_disjoint()


def test_audited_replay_within_2x_of_unaudited_at_scale():
    audited = unaudited = float("inf")
    for _ in range(3):
        audited = min(audited, _timed_replay(SCALE_TRACE, audit=True)[0])
        unaudited = min(unaudited, _timed_replay(SCALE_TRACE, audit=False)[0])
    live = "50k" if FULL else "5k"
    print(
        f"\nfirst-fit replay ({len(SCALE_TRACE)} requests, {live} live): "
        f"audited={audited:.3f}s unaudited={unaudited:.3f}s "
        f"({audited / unaudited:.2f}x)"
    )
    record_metric("address_space", "audited_replay_seconds", round(audited, 6), "seconds")
    record_metric("address_space", "unaudited_replay_seconds", round(unaudited, 6), "seconds")
    record_metric(
        "address_space", "audit_overhead_ratio", round(audited / unaudited, 3), "ratio"
    )
    assert audited <= 2 * unaudited, (
        f"audited replay ({audited:.3f}s) costs more than 2x the unaudited "
        f"one ({unaudited:.3f}s); auditing is no longer affordable by default"
    )


class _FlatSortedList:
    """The pre-bucket size order: one flat ``(length, start)`` bisect list."""

    def __init__(self):
        self.keys = []

    def insert(self, key):
        insort(self.keys, key)

    def remove(self, key):
        del self.keys[bisect_left(self.keys, key)]

    def ceiling(self, probe):
        pos = bisect_left(self.keys, probe)
        return self.keys[pos] if pos < len(self.keys) else None

    def last(self):
        return self.keys[-1] if self.keys else None


class _LegacyBisectGapIndex(GapIndex):
    """The current index with its size order swapped for a flat bisect list.

    Both variants pay the identical bucketed address-order cost, so the
    timing delta isolates the size structure: an O(capacity) bucket insert
    and delete vs an O(n) memmove per insert and delete.
    """

    def __init__(self):
        super().__init__()
        self._by_size = _FlatSortedList()


#: Live gap count for the size-structure guard: large enough that the flat
#: list's O(n) memmove dominates by a margin that keeps the ratio stable on
#: shared runners.
GAP_COUNT = 400_000 if FULL else 200_000
GAP_OPS = 2_000


def _gap_churn(index_class, seed=7):
    """Build GAP_COUNT disjoint gaps, then time remove/add/best_fit churn."""
    rng = random.Random(seed)
    gaps = index_class()
    live = []
    for i in range(GAP_COUNT):
        length = rng.randrange(1, 64)
        gaps.add(Extent(i * 70, length))
        live.append((i * 70, length))
    started = time.perf_counter()
    for _ in range(GAP_OPS):
        slot = rng.randrange(len(live))
        start, _length = live[slot]
        gaps.remove(start)
        length = rng.randrange(1, 64)
        gaps.add(Extent(start, length))
        live[slot] = (start, length)
        gaps.best_fit(rng.randrange(1, 64))
    elapsed = time.perf_counter() - started
    assert len(gaps) == GAP_COUNT
    return elapsed


def test_bucketed_size_order_beats_the_flat_bisect_list_at_scale():
    bucketed = legacy = float("inf")
    for _ in range(3):
        bucketed = min(bucketed, _gap_churn(GapIndex))
        legacy = min(legacy, _gap_churn(_LegacyBisectGapIndex))
    print(
        f"\ngap churn ({GAP_COUNT} live gaps, {GAP_OPS} remove/add/query ops): "
        f"bucketed={bucketed * 1000:.1f}ms flat-bisect-list={legacy * 1000:.1f}ms "
        f"({legacy / bucketed:.2f}x)"
    )
    record_metric("gap_index", "bucketed_size_order_churn_seconds", round(bucketed, 6), "seconds")
    record_metric("gap_index", "bisect_list_churn_seconds", round(legacy, 6), "seconds")
    record_metric("gap_index", "bisect_over_bucketed_ratio", round(legacy / bucketed, 2), "ratio")
    # 1.2x is the lenient floor that still catches an accidental return to
    # O(n) mutations without flaking on noisy shared runners.
    assert legacy >= 1.2 * bucketed, (
        f"bucketed size-order churn ({bucketed:.3f}s) is not faster than the "
        f"legacy flat bisect list ({legacy:.3f}s) at {GAP_COUNT} gaps; its "
        "bounded-memmove mutations have regressed"
    )


@pytest.mark.parametrize("mode", ["audited", "unaudited"])
def test_first_fit_replay_throughput(benchmark, mode):
    """Statistical timing of the scale trace for run-to-run comparison."""

    def run_once():
        _, allocator = _timed_replay(SCALE_TRACE, audit=mode == "audited")
        return allocator

    allocator = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert allocator.stats.requests == len(SCALE_TRACE)
