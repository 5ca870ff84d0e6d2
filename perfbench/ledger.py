"""In-memory span ledger for the benchmark's traced runs.

The ledger wraps public entry points of the program's layers from the
outside (nothing in ``src/`` is edited).  Every wrapped call is a span with
a name, a start, an end and a parent.  Times are the calling thread's CPU
clock (``time.thread_time_ns``), not wall time: the served process runs its
event loop and its executor hop on different threads that share one
interpreter lock, and a wall-clock span would also count the time its
thread spent waiting for that lock.  With CPU time, the self times of all
layers plus what no span covers add up to the process CPU time.

A layer's self time is its span's duration minus the part its child spans
cover.  Self times and entry-call counts are aggregated as spans close, so
memory stays bounded; the first ``keep`` raw spans are also kept and
written out by :meth:`Ledger.dump`.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

_clock = time.thread_time_ns


def process_cpu_seconds() -> float:
    """User plus system CPU time of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Ledger:
    """Aggregated self times, call counts and a bounded raw span log."""

    def __init__(self, keep: int = 50_000) -> None:
        self.keep = keep
        self._local = threading.local()
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a fresh measurement window (open spans finish into it)."""
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: Calls entering a layer from outside it.
        self.calls: Dict[str, int] = defaultdict(int)
        #: Free-form per-layer samples (batch sizes, hop times, gap counts).
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.spans: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped in a span attributed to ``layer``."""
        ledger = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = ledger._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == layer:
                # A call inside the same layer is part of the outer span;
                # timing it would only add clock overhead to the layer.
                return fn(*args, **kwargs)
            ledger._next_id += 1
            span_id = ledger._next_id
            # frame: [layer, span id, child ns]
            frame = [layer, span_id, 0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                ledger.self_ns[layer] += duration - frame[2]
                ledger.calls[layer] += 1
                if parent is not None:
                    parent[2] += duration
                spans = ledger.spans
                if len(spans) < ledger.keep:
                    spans.append(
                        (span_id, parent[1] if parent else 0, name, start, end,
                         threading.get_ident())
                    )

        return traced

    def wrap_iterator(self, layer: str, name: str, iterable) -> Any:
        """Yield from ``iterable`` with each ``next()`` timed as a span."""
        step = self.wrap(layer, name, next)
        iterator = iter(iterable)
        while True:
            try:
                item = step(iterator)
            except StopIteration:
                return
            yield item

    def document(self, extra: Dict[str, Any]) -> Dict[str, Any]:
        """Aggregates, samples and the kept raw spans, plus ``extra``."""
        document = {
            "clock": "thread_cpu_ns",
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "span_fields": ["id", "parent", "name", "start", "end", "thread"],
            "spans": self.spans,
        }
        document.update(extra)
        return document

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        """Write :meth:`document` to ``path`` atomically."""
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.document(extra), handle)
        os.replace(tmp, path)


def _wrap_methods(ledger: Ledger, cls: type, layer: str, names) -> None:
    for name in names:
        original = cls.__dict__.get(name)
        if callable(original):
            setattr(cls, name, ledger.wrap(layer, f"{cls.__name__}.{name}", original))


GAP_INDEX_METHODS = (
    "length_at", "add", "remove", "take", "absorb_adjacent",
    "first_fit", "best_fit", "worst_fit", "next_fit", "free_extents", "scan",
)
GAP_POLICY_QUERIES = ("first_fit", "best_fit", "worst_fit", "next_fit")
ADDRESS_SPACE_METHODS = (
    "validate", "extent_of", "items", "place", "move", "remove",
    "footprint", "volume", "utilization", "free_gaps", "verify_disjoint",
    "snapshot",
)
OBSERVER_HOOKS = ("on_request", "on_move", "on_flush", "on_checkpoint", "on_finish")


def instrument(ledger: Ledger) -> None:
    """Wrap every layer entry point the benchmark attributes time to.

    Layers: ``session`` (``EngineSession.apply``; its self time is the
    allocator's own logic, reported as ``core``), ``gap_index``,
    ``address_space``, ``observers``, ``binary.write`` / ``binary.sync``
    (``BinaryTraceWriter``), ``binary.decode`` (``TraceFileSource``
    iteration) and ``protocol.decode`` / ``protocol.encode`` (as bound in
    ``repro.serve.server``).
    """
    import repro.campaign.executor as executor_module
    import repro.serve.server as server_module
    from repro.engine import observers as observer_module
    from repro.engine.session import EngineSession
    from repro.storage.address_space import AddressSpace
    from repro.storage.gap_index import GapIndex
    from repro.workloads.binary import BinaryTraceWriter
    from repro.workloads.replay import TraceFileSource

    apply = EngineSession.apply
    traced_apply = ledger.wrap("session", "EngineSession.apply", apply)

    def apply_with_samples(self, batch):
        # The serve hop is apply + record + sync on one executor thread;
        # its wall time runs from here to the sync that follows.
        ledger._local.hop_started = time.perf_counter_ns()
        if isinstance(batch, list):
            ledger.samples["reqs_per_hop"].append(len(batch))
        return traced_apply(self, batch)

    EngineSession.apply = apply_with_samples
    # close() drives a pending deamortized flush to completion: allocator
    # work, so it belongs to the same layer as apply.
    traced_close = ledger.wrap("session", "EngineSession.close", EngineSession.close)

    def close_with_samples(self, *args, **kwargs):
        run = traced_close(self, *args, **kwargs)
        ledger.samples["flushes"].append(self.allocator.stats.flushes)
        return run

    EngineSession.close = close_with_samples

    _wrap_methods(ledger, GapIndex, "gap_index", GAP_INDEX_METHODS)
    for name in GAP_POLICY_QUERIES:
        query = getattr(GapIndex, name)

        def sampled(self, *args, _query=query, **kwargs):
            ledger.samples["gaps"].append(len(self))
            return _query(self, *args, **kwargs)

        setattr(GapIndex, name, sampled)
    _wrap_methods(ledger, AddressSpace, "address_space", ADDRESS_SPACE_METHODS)

    for value in vars(observer_module).values():
        if isinstance(value, type) and issubclass(value, observer_module.Observer):
            _wrap_methods(ledger, value, "observers", OBSERVER_HOOKS)

    BinaryTraceWriter.write = ledger.wrap(
        "binary.write", "BinaryTraceWriter.write", BinaryTraceWriter.write
    )
    traced_sync = ledger.wrap("binary.sync", "BinaryTraceWriter.sync", BinaryTraceWriter.sync)
    synced_sizes: Dict[str, int] = {}

    def sync_with_samples(self):
        began = time.perf_counter_ns()
        result = traced_sync(self)
        ledger.samples["sync_ns"].append(time.perf_counter_ns() - began)
        path = str(self.path)
        size = os.path.getsize(path)
        ledger.samples["sync_bytes"].append(size - synced_sizes.get(path, 0))
        synced_sizes[path] = size
        started = getattr(ledger._local, "hop_started", None)
        if started is not None:
            ledger.samples["hop_ns"].append(time.perf_counter_ns() - started)
            ledger._local.hop_started = None
        return result

    BinaryTraceWriter.sync = sync_with_samples

    source_iter = TraceFileSource.__iter__

    def traced_iter(self):
        return ledger.wrap_iterator("binary.decode", "TraceFileSource.next", source_iter(self))

    TraceFileSource.__iter__ = traced_iter

    executor_module.run_cell = ledger.wrap("campaign", "run_cell", executor_module.run_cell)
    server_module.decode_requests = ledger.wrap(
        "protocol.decode", "decode_requests", server_module.decode_requests
    )
    server_module.encode_frame = ledger.wrap(
        "protocol.encode", "encode_frame", server_module.encode_frame
    )
