"""A two-way index over the free gaps of a linear address space.

The classical free-list allocators (:mod:`repro.allocators.free_list`) keep
the maximal free extents below the high-water mark and, per insert, pick one
by policy: First Fit wants the lowest-addressed fitting gap, Best Fit the
tightest, Worst Fit the widest.  :class:`GapIndex` keeps the gaps in two
orders, each a :class:`_SortedBuckets` list of short sorted buckets:

* the **address order** holds the starts with their lengths in parallel
  buckets and each bucket's widest length, so First Fit skips every bucket
  too narrow for the request and scans one; Next Fit's rank adds up bucket
  sizes;
* the **size order** holds ``(length, start)`` keys: Best Fit is the ceiling
  of ``(size,)``, Worst Fit the ceiling of ``(widest,)``.

A mutation moves at most ``_CAPACITY`` entries, not the O(n) memmove of one
flat sorted list (see ``benchmarks/bench_address_space.py``).  Dicts keyed
by start and by end make ``length_at`` and coalescing O(1), and a running
total makes ``total_free`` O(1).  Every policy answer is *identical* to the
one the seed's linear scans produce.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, islice, starmap
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.telemetry import get_telemetry
from repro.storage.extent import Extent

#: A bucket holding more entries than this splits in half; two neighbours
#: that together hold at most half of it are joined, so the bucket count
#: stays O(n / _CAPACITY).
_CAPACITY = 64


class _SortedBuckets:
    """Distinct keys in ascending order, held as a list of sorted buckets.

    ``tails[i]`` is the last key of ``keys[i]``: a bisect over ``tails``
    picks a key's bucket and a second bisect its slot.  With ``valued`` each
    key carries a value in the parallel ``values`` buckets, and ``peaks[i]``
    is the largest value in bucket ``i``.
    """

    __slots__ = ("keys", "tails", "values", "peaks")

    def __init__(self, valued: bool = False) -> None:
        self.keys: List[List[Any]] = []
        self.tails: List[Any] = []
        self.values: Optional[List[List[Any]]] = [] if valued else None
        self.peaks: List[Any] = []

    def insert(self, key: Any, value: Any = None) -> None:
        """Insert ``key`` (not yet present), carrying ``value``."""
        keys, tails, values = self.keys, self.tails, self.values
        if not keys:
            keys.append([])
            tails.append(key)
            if values is not None:
                values.append([])
                self.peaks.append(value)
        i = bisect_left(tails, key)
        if i == len(tails):
            i -= 1
            tails[i] = key
        bucket = keys[i]
        j = bisect_left(bucket, key)
        bucket.insert(j, key)
        if values is not None:
            values[i].insert(j, value)
            if value > self.peaks[i]:
                self.peaks[i] = value
        if len(bucket) > _CAPACITY:
            half = len(bucket) >> 1
            keys[i:i + 1] = bucket[:half], bucket[half:]
            tails.insert(i, bucket[half - 1])
            if values is not None:
                lower, upper = values[i][:half], values[i][half:]
                values[i:i + 1] = lower, upper
                self.peaks[i:i + 1] = max(lower), max(upper)

    def remove(self, key: Any) -> None:
        """Remove ``key``, which must be present."""
        keys, tails, values = self.keys, self.tails, self.values
        i = bisect_left(tails, key)
        bucket = keys[i]
        j = bisect_left(bucket, key)
        assert bucket[j] == key, f"no entry {key!r}"
        del bucket[j]
        value = values[i].pop(j) if values is not None else None
        if not bucket:
            del keys[i], tails[i]
            if values is not None:
                del values[i], self.peaks[i]
            return
        if j == len(bucket):
            tails[i] = bucket[-1]
        if values is not None and value == self.peaks[i]:
            self.peaks[i] = max(values[i])
        if i + 1 < len(keys) and len(bucket) + len(keys[i + 1]) <= _CAPACITY >> 1:
            self._join(i)
        elif i and len(bucket) + len(keys[i - 1]) <= _CAPACITY >> 1:
            self._join(i - 1)

    def _join(self, i: int) -> None:
        """Append bucket ``i + 1`` to bucket ``i``."""
        self.keys[i] += self.keys.pop(i + 1)
        del self.tails[i]
        if self.values is not None:
            self.values[i] += self.values.pop(i + 1)
            self.peaks[i] = max(self.peaks[i], self.peaks.pop(i + 1))

    def ceiling(self, probe: Any) -> Optional[Any]:
        """The smallest key ``>= probe``, or None."""
        i = bisect_left(self.tails, probe)
        if i == len(self.tails):
            return None
        bucket = self.keys[i]
        return bucket[bisect_left(bucket, probe)]

    def last(self) -> Optional[Any]:
        """The largest key, or None when empty."""
        return self.tails[-1] if self.tails else None


class GapIndex:
    """Address- and size-indexed set of disjoint, non-adjacent free gaps."""

    def __init__(self) -> None:
        self._by_address = _SortedBuckets(valued=True)  # start -> length
        self._by_size = _SortedBuckets()  # (length, start) keys
        self._length_of: Dict[int, int] = {}
        self._start_ending_at: Dict[int, int] = {}
        self._total = 0
        # Telemetry counters are bound once, at construction, and only when
        # the process-current session is enabled; with telemetry off every
        # hot method pays exactly one attribute-is-None check.
        telemetry = get_telemetry()
        counter = telemetry.counter if telemetry.enabled else lambda name: None
        self._c_queries = counter("gap_index.policy_queries")
        self._c_adds = counter("gap_index.gap_adds")
        self._c_removes = counter("gap_index.gap_removes")
        self._c_coalesces = counter("gap_index.coalesce_probes")

    # ------------------------------------------------------------- basics
    def __len__(self) -> int:
        return len(self._length_of)

    def __bool__(self) -> bool:
        return bool(self._length_of)

    def __iter__(self) -> Iterator[Extent]:
        """Yield the gaps as extents in address order."""
        order = self._by_address
        return starmap(Extent, chain.from_iterable(map(zip, order.keys, order.values)))

    @property
    def total_free(self) -> int:
        """Sum of all gap lengths (maintained as a running counter)."""
        return self._total

    def length_at(self, start: int) -> Optional[int]:
        """Length of the gap starting exactly at ``start`` (None if absent)."""
        return self._length_of.get(start)

    # ----------------------------------------------------------- mutation
    def add(self, extent: Extent) -> None:
        """Insert a gap; the caller guarantees disjointness from existing gaps."""
        if self._c_adds is not None:
            self._c_adds.value += 1
        start, length = extent.start, extent.length
        self._by_address.insert(start, length)
        self._by_size.insert((length, start))
        self._length_of[start] = length
        self._start_ending_at[start + length] = start
        self._total += length

    def remove(self, start: int) -> Extent:
        """Remove and return the gap starting at ``start``."""
        length = self._length_of.get(start)
        if length is None:
            raise KeyError(f"no gap starts at address {start}")
        self._remove_known(start, length)
        return Extent(start, length)

    def _remove_known(self, start: int, length: int) -> None:
        if self._c_removes is not None:
            self._c_removes.value += 1
        self._by_address.remove(start)
        self._by_size.remove((length, start))
        del self._length_of[start]
        del self._start_ending_at[start + length]
        self._total -= length

    def take(self, start: int, size: int) -> None:
        """Allocate ``size`` units from the front of the gap at ``start``."""
        length = self._length_of.get(start)
        if length is None:
            raise KeyError(f"no gap starts at address {start}")
        if length < size:
            # Raise before mutating: a failed insert must leave the free
            # list intact so the request can be retried.
            raise ValueError(f"gap {Extent(start, length)} is smaller than the request ({size})")
        self._remove_known(start, length)
        if length > size:
            self.add(Extent(start + size, length - size))

    def absorb_adjacent(self, extent: Extent) -> Extent:
        """Remove gaps adjacent to ``extent`` and return the merged extent.

        The merged extent is *not* inserted: the caller decides whether it
        becomes a gap or shrinks the high-water mark.
        """
        if self._c_coalesces is not None:
            self._c_coalesces.value += 1
        start, end = extent.start, extent.end
        before = self._start_ending_at.get(start)
        if before is not None:
            self._remove_known(before, start - before)
            start = before
        length = self._length_of.get(end)
        if length is not None:
            self._remove_known(end, length)
            end += length
        return Extent(start, end - start)

    # ------------------------------------------------------ policy queries
    def first_fit(self, size: int) -> Optional[int]:
        """Start of the lowest-addressed gap with length >= ``size``."""
        if self._c_queries is not None:
            self._c_queries.value += 1
        found = self._fit_from(0, size)
        return found[1] if found is not None else None

    def best_fit(self, size: int) -> Optional[int]:
        """Start of the tightest fitting gap (address-lowest on ties)."""
        if self._c_queries is not None:
            self._c_queries.value += 1
        found = self._by_size.ceiling((size,))
        return found[1] if found is not None else None

    def worst_fit(self, size: int) -> Optional[int]:
        """Start of the widest gap (address-lowest on ties), if it fits."""
        if self._c_queries is not None:
            self._c_queries.value += 1
        widest = self._by_size.last()
        if widest is None or widest[0] < size:
            return None
        return self._by_size.ceiling((widest[0],))[1]

    def next_fit(self, size: int, rover: int) -> Optional[Tuple[int, int]]:
        """``(rank, start)`` of the gap Next Fit's cyclic probe picks.

        Equivalent to scanning :meth:`scan` ``(rover)`` for the first gap
        with ``length >= size``, including the seed scan's clamp of an
        out-of-range rover to the last gap.
        """
        if self._c_queries is not None:
            self._c_queries.value += 1
        if not self._length_of:
            return None
        rank = min(rover, len(self._length_of) - 1)
        found = self._fit_from(rank, size)
        if found is None and rank > 0:
            # Wrap around: the lowest-ranked fit overall necessarily sits
            # below ``rank`` (anything at or above it was just ruled out).
            found = self._fit_from(0, size)
        return found

    def _fit_from(self, rank: int, size: int) -> Optional[Tuple[int, int]]:
        """``(rank, start)`` of the first gap of rank >= ``rank`` with length
        >= ``size``, or None.  Buckets wholly below ``rank`` or too narrow for
        the request are skipped without a look inside."""
        order = self._by_address
        base = 0
        for starts, lengths, peak in zip(order.keys, order.values, order.peaks):
            end = base + len(starts)
            if end > rank and peak >= size:
                for j in range(max(rank - base, 0), len(lengths)):
                    if lengths[j] >= size:
                        return base + j, starts[j]
            base = end
        return None

    def free_extents(self) -> List[Extent]:
        """The gaps as a list of extents in address order (an O(n) walk)."""
        return list(self)

    def scan(self, rank: int) -> Iterator[Tuple[int, int, int]]:
        """Yield every ``(rank, start, length)`` once, cyclically from ``rank``
        (clamped to the last gap): Next Fit's probe order."""
        total = len(self)
        if total == 0:
            return
        rank = min(rank, total - 1)
        for offset, gap in enumerate(chain(islice(self, rank, None), islice(self, rank))):
            yield (rank + offset) % total, gap.start, gap.length
