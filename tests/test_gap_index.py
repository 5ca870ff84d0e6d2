"""Property tests: the indexed substrate agrees with the seed linear scans.

Two oracles, both re-implementations of the pre-index code:

* ``_ScanFreeList`` — the flat address-ordered ``List[Extent]`` free list
  with the original O(n) gap-selection scans, used to check that every
  :class:`GapIndex`-backed policy picks the *same gap on every request*;
* a naive all-pairs overlap scan, used to check that the address-ordered
  index inside :class:`AddressSpace` detects exactly the same clashes.

The :class:`GapIndex` oracles run twice: at the real bucket capacity and at
``TINY_CAPACITY``, where a few dozen gaps already split, join and empty
buckets and Next Fit's wrap-around crosses bucket boundaries.
"""

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.allocators import (
    BestFitAllocator,
    FirstFitAllocator,
    NextFitAllocator,
    WorstFitAllocator,
)
from repro.storage import gap_index
from repro.storage.address_space import AddressSpace, OverlapError
from repro.storage.extent import Extent
from repro.storage.gap_index import GapIndex

#: Bucket capacity for the multi-bucket runs: buckets split at 5 entries
#: and neighbours holding 2 between them are joined.
TINY_CAPACITY = 4


def tiny_buckets():
    return mock.patch.object(gap_index, "_CAPACITY", TINY_CAPACITY)


def assert_bucket_invariants(gaps):
    """The bucket lists of both orders are well formed for the current capacity."""
    for order in (gaps._by_address, gaps._by_size):
        assert all(0 < len(bucket) <= gap_index._CAPACITY for bucket in order.keys)
        assert order.tails == [bucket[-1] for bucket in order.keys]
        flat = [key for bucket in order.keys for key in bucket]
        assert flat == sorted(flat) and len(flat) == len(gaps)
    by_address = gaps._by_address
    assert by_address.peaks == [max(lengths) for lengths in by_address.values]


# --------------------------------------------------------------- seed oracle
class _ScanFreeList:
    """The pre-index free list: flat sorted list + linear-scan policies."""

    def __init__(self, policy):
        self.policy = policy
        self.free = []  # sorted by start address
        self.high_water = 0
        self.rover = 0

    def _choose_gap(self, size):
        free = self.free
        if self.policy == "first":
            for index, gap in enumerate(free):
                if gap.length >= size:
                    return index
            return None
        if self.policy == "best":
            best = None
            best_length = None
            for index, gap in enumerate(free):
                if gap.length >= size and (best_length is None or gap.length < best_length):
                    best = index
                    best_length = gap.length
            return best
        if self.policy == "worst":
            worst = None
            worst_length = -1
            for index, gap in enumerate(free):
                if gap.length >= size and gap.length > worst_length:
                    worst = index
                    worst_length = gap.length
            return worst
        count = len(free)  # next fit
        if count == 0:
            return None
        start = min(self.rover, count - 1)
        for offset in range(count):
            index = (start + offset) % count
            if free[index].length >= size:
                self.rover = index
                return index
        return None

    def insert(self, size):
        index = self._choose_gap(size)
        if index is None:
            address = self.high_water
            self.high_water += size
        else:
            gap = self.free[index]
            address = gap.start
            if gap.length == size:
                del self.free[index]
            else:
                self.free[index] = Extent(gap.start + size, gap.length - size)
        return address

    def release(self, extent):
        lo, hi = 0, len(self.free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.free[mid].start < extent.start:
                lo = mid + 1
            else:
                hi = mid
        start, end = extent.start, extent.end
        if lo > 0 and self.free[lo - 1].end == start:
            start = self.free[lo - 1].start
            del self.free[lo - 1]
            lo -= 1
        if lo < len(self.free) and self.free[lo].start == end:
            end = self.free[lo].end
            del self.free[lo]
        if end == self.high_water:
            self.high_water = start
        else:
            self.free.insert(lo, Extent(start, end - start))


POLICIES = {
    "first": FirstFitAllocator,
    "best": BestFitAllocator,
    "worst": WorstFitAllocator,
    "next": NextFitAllocator,
}

#: A churn script: positive = insert of that size, negative = delete the
#: live object at position (-value - 1) mod len(live).
churn_scripts = st.lists(
    st.integers(min_value=-64, max_value=48).filter(lambda v: v != 0),
    min_size=1,
    max_size=300,
)


def _replay_against_seed_scan(policy, script, check_buckets=False):
    """Drive one churn script through the indexed policy and the seed scan;
    return the largest gap count seen."""
    allocator = POLICIES[policy]()
    oracle = _ScanFreeList(policy)
    live = []
    next_id = 0
    most_gaps = 0
    for step, action in enumerate(script):
        if action > 0 or not live:
            size = abs(action)
            next_id += 1
            allocator.insert(next_id, size)
            expected = oracle.insert(size)
            assert allocator.address_of(next_id) == expected, (
                f"step {step}: {policy} fit chose {allocator.address_of(next_id)}, "
                f"seed scan chose {expected}"
            )
            live.append((next_id, size, expected))
        else:
            name, size, address = live.pop((-action - 1) % len(live))
            allocator.delete(name)
            oracle.release(Extent(address, size))
        assert allocator.free_extents() == oracle.free
        assert allocator.high_water == oracle.high_water
        assert allocator.free_volume() == sum(gap.length for gap in oracle.free)
        if check_buckets:
            assert_bucket_invariants(allocator._gaps)
        most_gaps = max(most_gaps, len(oracle.free))
    allocator.space.verify_disjoint()
    return most_gaps


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=churn_scripts)
def test_indexed_policies_agree_with_seed_scans(policy, script):
    _replay_against_seed_scan(policy, script)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=churn_scripts)
def test_indexed_policies_agree_with_seed_scans_in_tiny_buckets(policy, script):
    with tiny_buckets():
        _replay_against_seed_scan(policy, script, check_buckets=True)


def _seeded_churn_script(seed=20140622):
    """About 2k requests: 1000 inserts, deletes of every other object (about
    500 gaps), then 500 steps of random churn."""
    rng = random.Random(seed)
    script = [rng.randint(1, 48) for _ in range(1000)]
    script += [-(index + 1) for index in range(0, 1000, 2)][::-1]
    script += [rng.choice((rng.randint(1, 48), -rng.randint(1, 64))) for _ in range(500)]
    return script


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("tiny", [False, True], ids=["real_buckets", "tiny_buckets"])
def test_seeded_churn_agrees_with_seed_scan_across_many_buckets(tiny, policy):
    """More gaps than two buckets hold, at either capacity."""
    with tiny_buckets() if tiny else contextlib.nullcontext():
        most_gaps = _replay_against_seed_scan(policy, _seeded_churn_script(), check_buckets=tiny)
        assert most_gaps > 2 * gap_index._CAPACITY, most_gaps


def test_sorted_buckets_agree_with_a_flat_sorted_list_in_tiny_buckets():
    """Seeded inserts and removes that grow the set to a few hundred keys
    and shrink it back to empty, so buckets split, join and empty."""
    rng = random.Random(5)
    with tiny_buckets():
        buckets = gap_index._SortedBuckets(valued=True)
        oracle = {}
        for step in range(3000):
            grow = step < 1000 or (step < 2000 and rng.random() < 0.5)
            if grow or not oracle:
                key = rng.randrange(10_000)
                if key not in oracle:
                    oracle[key] = rng.randrange(1, 100)
                    buckets.insert(key, oracle[key])
            else:
                key = rng.choice(list(oracle))
                del oracle[key]
                buckets.remove(key)
            keys = sorted(oracle)
            assert [k for bucket in buckets.keys for k in bucket] == keys
            assert [v for bucket in buckets.values for v in bucket] == [oracle[k] for k in keys]
            assert buckets.tails == [bucket[-1] for bucket in buckets.keys]
            assert buckets.peaks == [max(values) for values in buckets.values]
            assert all(0 < len(bucket) <= TINY_CAPACITY for bucket in buckets.keys)
            probe = rng.randrange(10_000)
            assert buckets.ceiling(probe) == next((k for k in keys if k >= probe), None)
            assert buckets.last() == (keys[-1] if keys else None)
        assert buckets.keys == []


# ---------------------------------------------------- overlap-audit oracle
def _naive_overlap(extents, candidate, ignore=None):
    for name, existing in extents.items():
        if name == ignore:
            continue
        if existing.overlaps(candidate):
            return name
    return None


#: An audit script: (op selector, address, length) triples.
audit_scripts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=1, max_value=24),
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=audit_scripts)
def test_indexed_overlap_detection_agrees_with_all_pairs_scan(script):
    space = AddressSpace(validate=True)
    mirror = {}
    next_id = 0
    for op, address, length in script:
        extent = Extent(address, length)
        if op < 5 or not mirror:  # place
            next_id += 1
            name = f"obj-{next_id}"
            if _naive_overlap(mirror, extent) is None:
                space.place(name, extent)
                mirror[name] = extent
            else:
                with pytest.raises(OverlapError):
                    space.place(name, extent)
                assert name not in space
        elif op < 8:  # move an existing object
            name = sorted(mirror)[address % len(mirror)]
            if _naive_overlap(mirror, extent, ignore=name) is None:
                space.move(name, extent)
                mirror[name] = extent
            else:
                with pytest.raises(OverlapError):
                    space.move(name, extent)
                assert space.extent_of(name) == mirror[name]
        else:  # remove
            name = sorted(mirror)[address % len(mirror)]
            assert space.remove(name) == mirror.pop(name)
        assert space.free_gaps() == _naive_gaps(mirror)
        assert space.volume() == sum(e.length for e in mirror.values())
    space.verify_disjoint()


def _naive_gaps(extents):
    gaps = []
    cursor = 0
    for extent in sorted(extents.values(), key=lambda e: e.start):
        if extent.start > cursor:
            gaps.append(Extent(cursor, extent.start - cursor))
        cursor = max(cursor, extent.end)
    return gaps


# ------------------------------------------------------- GapIndex unit tests
def test_gap_index_policy_queries():
    gaps = GapIndex()
    for start, length in [(0, 4), (10, 8), (30, 8), (50, 2)]:
        gaps.add(Extent(start, length))
    assert len(gaps) == 4
    assert gaps.total_free == 22
    assert gaps.first_fit(5) == 10
    assert gaps.first_fit(2) == 0
    assert gaps.first_fit(9) is None
    assert gaps.best_fit(2) == 50
    assert gaps.best_fit(5) == 10  # ties on length 8 break to the lower address
    assert gaps.worst_fit(1) == 10
    assert gaps.worst_fit(9) is None
    assert list(gaps) == [Extent(0, 4), Extent(10, 8), Extent(30, 8), Extent(50, 2)]


def test_gap_index_take_and_remove():
    gaps = GapIndex()
    gaps.add(Extent(10, 8))
    gaps.take(10, 3)
    assert list(gaps) == [Extent(13, 5)]
    assert gaps.total_free == 5
    gaps.take(13, 5)  # exact fit removes the gap outright
    assert len(gaps) == 0 and gaps.total_free == 0
    gaps.add(Extent(4, 2))
    with pytest.raises(ValueError):
        gaps.take(4, 3)
    # The failed take must not have touched the free list (retry contract).
    assert list(gaps) == [Extent(4, 2)] and gaps.total_free == 2
    with pytest.raises(KeyError):
        gaps.remove(99)
    with pytest.raises(KeyError):
        gaps.take(99, 1)


def test_gap_index_absorb_adjacent_merges_both_sides():
    gaps = GapIndex()
    gaps.add(Extent(0, 5))
    gaps.add(Extent(8, 2))
    merged = gaps.absorb_adjacent(Extent(5, 3))
    assert merged == Extent(0, 10)
    assert len(gaps) == 0  # both neighbours were consumed, nothing re-added
    gaps.add(merged)
    # Non-adjacent release touches nothing.
    assert gaps.absorb_adjacent(Extent(20, 4)) == Extent(20, 4)
    assert list(gaps) == [Extent(0, 10)]


def test_failed_insert_restores_the_free_list_and_high_water():
    """If placement raises mid-insert (e.g. an observer blows up), the free
    list and high-water mark must roll back with the address space so the
    request can be retried — on both the gap-reuse and the extend path."""

    class _Bomb:
        armed = False

        def on_request(self, record):
            pass

        def on_move(self, move):
            if self.armed:
                raise RuntimeError("boom")

        def on_flush(self, record):
            pass

        def on_checkpoint(self, count):
            pass

    bomb = _Bomb()
    allocator = FirstFitAllocator(trace=True)
    allocator.attach_observer(bomb)
    allocator.insert("a", 4)
    allocator.insert("b", 4)
    allocator.delete("a")  # gap [0, 4)
    for size in (3, 10):  # 3 reuses the gap, 10 extends the high-water mark
        gaps_before = allocator.free_extents()
        high_water_before = allocator.high_water
        bomb.armed = True
        with pytest.raises(RuntimeError):
            allocator.insert("c", size)
        bomb.armed = False
        assert allocator.free_extents() == gaps_before
        assert allocator.high_water == high_water_before
        assert "c" not in allocator
    allocator.insert("c", 3)  # the retry lands exactly where the scan would
    assert allocator.address_of("c") == 0
    allocator.space.verify_disjoint()


def test_gap_index_next_fit_matches_the_cyclic_scan():
    gaps = GapIndex()
    for start, length in [(0, 4), (10, 8), (30, 8), (50, 2), (60, 16)]:
        gaps.add(Extent(start, length))
    for rover in range(8):
        for size in (1, 2, 4, 5, 8, 9, 16, 17):
            expected = next(
                ((rank, start) for rank, start, length in gaps.scan(rover) if length >= size),
                None,
            )
            assert gaps.next_fit(size, rover) == expected, (rover, size)
    assert GapIndex().next_fit(1, 0) is None


next_fit_cases = given(
    starts=st.lists(st.integers(min_value=0, max_value=400), min_size=0, max_size=40, unique=True),
    rover=st.integers(min_value=0, max_value=60),
    size=st.integers(min_value=1, max_value=12),
)


def _check_next_fit_against_scan(starts, rover, size):
    gaps = GapIndex()
    for start in starts:
        # Lengths 1..10, disjoint and non-adjacent by construction.
        gaps.add(Extent(start * 12, (start % 10) + 1))
    expected = next(
        ((rank, start) for rank, start, length in gaps.scan(rover) if length >= size),
        None,
    )
    assert gaps.next_fit(size, rover) == expected
    return gaps


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@next_fit_cases
def test_gap_index_next_fit_agrees_with_scan_on_random_gap_sets(starts, rover, size):
    _check_next_fit_against_scan(starts, rover, size)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@next_fit_cases
def test_gap_index_next_fit_agrees_with_scan_in_tiny_buckets(starts, rover, size):
    with tiny_buckets():
        assert_bucket_invariants(_check_next_fit_against_scan(starts, rover, size))


def test_gap_index_scan_wraps_in_address_order():
    gaps = GapIndex()
    for start in (0, 10, 20, 30):
        gaps.add(Extent(start, 2))
    assert [(r, s) for r, s, _ in gaps.scan(2)] == [(2, 20), (3, 30), (0, 0), (1, 10)]
    # A rover past the end clamps to the last gap, like the seed scan.
    assert [s for _, s, _ in gaps.scan(99)] == [30, 0, 10, 20]
    assert list(GapIndex().scan(0)) == []


size_order_cases = given(
    script=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=60)),
        min_size=1,
        max_size=200,
    ),
    sizes=st.lists(st.integers(min_value=1, max_value=14), min_size=1, max_size=6),
)


def _check_size_order_against_sorted_list(script, sizes, check_buckets=False):
    """After every add/remove, best_fit is the bisect ceiling of the request
    and worst_fit is the lowest-addressed entry of the maximum length."""
    from bisect import bisect_left, insort

    gaps = GapIndex()
    oracle = []  # sorted (length, start) pairs, exactly the old _by_size list
    for add, slot in script:
        start = slot * 16  # disjoint, non-adjacent by construction
        length = (slot % 12) + 1
        if add:
            if gaps.length_at(start) is not None:
                continue
            gaps.add(Extent(start, length))
            insort(oracle, (length, start))
        else:
            if gaps.length_at(start) is None:
                continue
            gaps.remove(start)
            del oracle[bisect_left(oracle, (length, start))]
        if check_buckets:
            assert_bucket_invariants(gaps)
        for size in sizes:
            pos = bisect_left(oracle, (size,))
            expected_best = oracle[pos][1] if pos < len(oracle) else None
            assert gaps.best_fit(size) == expected_best, (size, oracle)
            if not oracle or oracle[-1][0] < size:
                expected_worst = None
            else:
                expected_worst = oracle[bisect_left(oracle, (oracle[-1][0],))][1]
            assert gaps.worst_fit(size) == expected_worst, (size, oracle)
    assert gaps.total_free == sum(length for length, _ in oracle)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@size_order_cases
def test_size_order_best_and_worst_fit_agree_with_a_sorted_list(script, sizes):
    """Pin the bucketed size order to the flat sorted-list oracle."""
    _check_size_order_against_sorted_list(script, sizes)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@size_order_cases
def test_size_order_best_and_worst_fit_agree_with_a_sorted_list_in_tiny_buckets(script, sizes):
    with tiny_buckets():
        _check_size_order_against_sorted_list(script, sizes, check_buckets=True)
