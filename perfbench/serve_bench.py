"""The served-traffic workload: a ``repro serve`` subprocess under closed-loop load.

One load process (this one) with ``TENANTS`` connections on ``TENANTS``
threads, one tenant per connection, each keeping ``WINDOW`` batches of
``BATCH`` requests in flight (closed loop: a batch is sent only when an
earlier one was acked).  Requests are churn over a per-tenant live set of
about ``LIVE_TARGET`` objects with uniform sizes 1..64, generated here from
the seed; the server sees only the requests.  After a warm-up, the window
of ``seconds`` is measured, as ``SEGMENTS`` consecutive stretches whose
medians are reported; then the durability check runs (see
:func:`check_durability`).
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.workloads.base import Request

TENANTS = 2
WINDOW = 4
BATCH = 250
WARMUP_S = 3.0
#: Stretches of the measured window; each has its own rate and latency
#: figures, and the window reports their medians.
SEGMENTS = 7
#: Set-up is timed on this many spawns before the measured run and after it.
SPAWNS_BEFORE = 3
SPAWNS_AFTER = 2
SIZES = (1, 64)
LIVE_TARGET = 5000
#: Footprint and cost are taken over this many first requests of each
#: tenant, so they depend on the seed alone, not on how many were acked.
FOOTPRINT_PREFIX = 20_000
#: Batches per tenant whose frames give ``protocol.wire_bytes_per_req``.
WIRE_SAMPLE = 200

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class ChurnSource:
    """Seeded churn: fill to ``target`` live objects, then keep the live
    count within the top tenth of ``target`` with random victims, so the
    gaps left behind are scattered."""

    def __init__(self, seed: int, target: int) -> None:
        self.rng = random.Random(seed)
        self.target = target
        self.floor = target - max(1, target // 10)
        self.live: List[str] = []
        self.next_id = 0

    def batch(self, count: int) -> list:
        rng, live, out = self.rng, self.live, []
        for _ in range(count):
            size = len(live)
            if size >= self.target or (size > self.floor and rng.random() < 0.5):
                index = rng.randrange(size)
                live[index], live[-1] = live[-1], live[index]
                out.append(Request.delete(live.pop()))
            else:
                self.next_id += 1
                name = str(self.next_id)
                live.append(name)
                out.append(Request.insert(name, rng.randint(*SIZES)))
        return out


# ------------------------------------------------------------------ server
def _server_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Server:
    """One ``repro serve`` subprocess (optionally under the span ledger)."""

    def __init__(self, workdir: str, label: str, ledger_path: Optional[str] = None) -> None:
        args = ["--allocator", "first_fit", "--trace-dir", workdir, "--label", label, "--port", "0"]
        if ledger_path is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"), ledger_path, *args]
        self.ledger_path = ledger_path
        self._stderr = open(os.path.join(workdir, f"{label}.stderr"), "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            env=_server_env(), cwd=ROOT,
        )
        watchdog = threading.Timer(120.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - started
        if not line.startswith("serving on "):
            self.kill()
            raise RuntimeError(f"repro serve did not start (first line {line!r})")
        self.host, _, port = line.split()[-1].rpartition(":")
        self.port = int(port)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Graceful stop (SIGTERM: tenants finalize their traces)."""
        if self.proc.poll() is None:
            self.proc.terminate()
        self._reap()

    def kill(self) -> None:
        """Crash the server (SIGKILL)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._stderr.close()


# -------------------------------------------------------------------- load
class Tenant(threading.Thread):
    """One connection's closed loop on a :class:`ServeClient`; the benchmark
    adds only the send and ack timestamps."""

    def __init__(self, host: str, port: int, name: str, seed: int, stop_at: float) -> None:
        super().__init__(name=f"load-{name}")
        from repro.serve.client import ServeClient

        self.client = ServeClient(host, port, tenant=name, timeout=120)
        self.tenant = name
        self.trace_path = os.path.join(ROOT, self.client.trace_path)
        self.seed = seed
        self.source = ChurnSource(seed, LIVE_TARGET)
        self.stop_at = stop_at
        #: (sent, acked, requests, applied, ok) per batch, in order.
        self.records: List[Tuple[float, float, int, int, bool]] = []
        #: (seq, requests) of the first ``WIRE_SAMPLE`` batches sent.
        self.batches: List[Tuple[int, list]] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as error:  # reported by the main thread
            self.error = error

    def _loop(self) -> None:
        client, clock = self.client, time.perf_counter
        inflight: deque = deque()
        while clock() < self.stop_at:
            while len(inflight) < WINDOW:
                reqs = self.source.batch(BATCH)
                sent = clock()
                seq = client.send_batch(reqs)
                if len(self.batches) < WIRE_SAMPLE:
                    self.batches.append((seq, reqs))
                inflight.append((sent, len(reqs)))
            self._ack(inflight)
        while inflight:
            self._ack(inflight)

    def _ack(self, inflight: deque) -> None:
        [ack] = self.client.drain_acks(1)
        acked = time.perf_counter()
        sent, count = inflight.popleft()
        self.records.append((sent, acked, count, int(ack.get("applied", 0)), bool(ack.get("ok"))))

    def sent(self, count: int) -> list:
        """The first ``count`` requests sent, generated again from the seed."""
        return ChurnSource(self.seed, LIVE_TARGET).batch(count)

    def wire_bytes_per_req(self) -> float:
        """Frame bytes per request of the first batches, encoded as
        :meth:`ServeClient.send_batch` sends them."""
        from repro.serve.protocol import encode_frame, encode_requests

        size = sum(
            len(encode_frame({"op": "batch", "seq": seq, "reqs": encode_requests(reqs)}))
            for seq, reqs in self.batches
        )
        return size / sum(len(reqs) for _, reqs in self.batches)


def tail_latency(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample, and which percentile that is."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 11) / len(ordered)


# -------------------------------------------------------------- durability
def check_durability(tenants: List[Tenant], stats: Dict[str, Dict[str, Any]]) -> Tuple[List[str], Dict[str, Any]]:
    """After SIGKILL: the salvaged trace tail of each tenant must be exactly
    its acked requests, and an offline first-fit replay of them must end at
    the footprint and volume STATS reported before the kill.  This covers a
    process crash only: the server never fsyncs, so power loss is not
    covered.  The replay also yields the footprint and cost ratios over the
    first ``FOOTPRINT_PREFIX`` requests."""
    from repro.campaign import build_allocator
    from repro.costs import LinearCost
    from repro.engine.session import EngineSession
    from repro.workloads import read_trace_tail

    problems: List[str] = []
    decode_s = 0.0
    decoded = 0
    ratios = []
    costs = []
    for tenant in tenants:
        acked = sum(r[3] for r in tenant.records)
        started = time.perf_counter()
        salvaged = read_trace_tail(tenant.trace_path).requests
        decode_s += time.perf_counter() - started
        decoded += len(salvaged)
        if len(salvaged) != acked:
            problems.append(f"{tenant.tenant}: salvaged {len(salvaged)} requests, acked {acked}")
        if len(salvaged) < FOOTPRINT_PREFIX:
            problems.append(f"{tenant.tenant}: {len(salvaged)} requests acked, fewer than {FOOTPRINT_PREFIX}")
        for request, sent in zip(salvaged, tenant.sent(len(salvaged))):
            if request != sent:
                problems.append(f"{tenant.tenant}: salvaged {request} differs from sent {sent}")
                break
        session = EngineSession(build_allocator({"kind": "first_fit", "audit": False})).open()
        allocator = session.allocator
        session.apply(salvaged[:FOOTPRINT_PREFIX])
        ratios.append(allocator.stats.mean_footprint_ratio)
        costs.append(allocator.stats.cost_ratio(LinearCost()))
        session.apply(salvaged[FOOTPRINT_PREFIX:])
        served = stats[tenant.tenant]
        if (allocator.footprint, allocator.volume) != (served["footprint"], served["volume"]):
            problems.append(
                f"{tenant.tenant}: replay footprint/volume {allocator.footprint}/{allocator.volume}"
                f" != served {served['footprint']}/{served['volume']}"
            )
    return problems, {
        "decode_us_per_req": 1e6 * decode_s / max(1, decoded),
        "footprint_ratio": statistics.fmean(ratios),
        "cost_ratio": statistics.fmean(costs),
    }


# ---------------------------------------------------------------- one phase
def run_phase(workdir: str, label: str, seed: int, seconds: float,
              spawns_before: int = 1, spawns_after: int = 0,
              ledger_path: Optional[str] = None) -> Dict[str, Any]:
    """Spawn the server ``spawns_before`` times (keeping the last), load it,
    check it, then spawn it ``spawns_after`` more times.  Set-up is timed on
    every spawn; spreading them over the run keeps their median steady when
    the machine's speed shifts."""
    setups = []

    def spawn(name: str) -> Server:
        server = Server(workdir, name, ledger_path)
        setups.append(server.setup_s)
        return server

    for attempt in range(spawns_before - 1):
        spawn(f"{label}-before{attempt}").stop()
    server = spawn(label)
    try:
        result = _load_and_check(server, seed, seconds)
    finally:
        server.kill()
    for attempt in range(spawns_after):
        spawn(f"{label}-after{attempt}").stop()
    result["setup_s"] = statistics.median(setups)
    return result


def _load_and_check(server: Server, seed: int, seconds: float) -> Dict[str, Any]:
    begin = time.perf_counter()
    t0 = begin + WARMUP_S
    t1 = t0 + seconds
    tenants = [
        Tenant(server.host, server.port, f"t{i}", seed * 1000 + i, t1)
        for i in range(TENANTS)
    ]
    for tenant in tenants:
        tenant.start()
    time.sleep(max(0.0, t0 - time.perf_counter()))
    traced = server.ledger_path is not None
    if traced:
        server.proc.send_signal(signal.SIGUSR1)
    cpu0, load0, w0 = server.cpu_seconds(), os.times(), time.perf_counter()
    time.sleep(max(0.0, t1 - time.perf_counter()))
    cpu1, load1, w1 = server.cpu_seconds(), os.times(), time.perf_counter()
    if traced:
        server.proc.send_signal(signal.SIGUSR2)
    for tenant in tenants:
        tenant.join(timeout=120)
        if tenant.is_alive() or tenant.error is not None:
            raise RuntimeError(f"load {tenant.tenant} failed: {tenant.error!r}")

    stats: Dict[str, Dict[str, Any]] = {}
    for tenant in tenants:
        tenant.client.drain()
        stats[tenant.tenant] = tenant.client.stats()
    peak_rss = server.peak_rss_mb()
    ledger = _wait_for_ledger(server.ledger_path) if traced else None
    server.kill()
    for tenant in tenants:
        # The server is gone, so this only closes the socket.
        tenant.client.close()

    problems, durability = check_durability(tenants, stats)
    records = [r for t in tenants for r in t.records]
    window = [r for r in records if t0 <= r[1] <= t1]
    attempted = sum(r[2] for r in records)
    applied_ok = sum(r[3] for r in records if r[4])
    window_reqs = sum(r[3] for r in window)
    # Per stretch: the rate of the acks inside it (requests acked after its
    # first ack over the time to its last), and the latencies of the
    # batches sent inside it and acked inside the window.  Medians over the
    # stretches keep a short stall of the shared machine to one stretch.
    rates, p50s, tails, pcts, samples = [], [], [], [], 0
    length = (t1 - t0) / SEGMENTS
    for index in range(SEGMENTS):
        began, ended = t0 + index * length, t0 + (index + 1) * length
        latencies = [1000.0 * (r[1] - r[0]) for r in records if began <= r[0] < ended and r[1] <= t1]
        if not latencies:
            raise RuntimeError("a stretch of the window had no batch sent and acked")
        acks = sorted((r[1], r[3]) for r in window if began <= r[1] < ended)
        rates.append(sum(count for _, count in acks[1:]) / (acks[-1][0] - acks[0][0]))
        p50s.append(statistics.median(latencies))
        tail, pct = tail_latency(latencies)
        tails.append(tail)
        pcts.append(pct)
        samples += len(latencies)
    trace_bytes = sum(os.path.getsize(t.trace_path) for t in tenants)
    acked = sum(r[3] for r in records)
    wall = w1 - w0
    return {
        "attempted": attempted,
        "failed": attempted - applied_ok,
        "problems": problems,
        "rps": statistics.median(rates),
        "ack_p50_ms": statistics.median(p50s),
        "ack_tail_ms": statistics.median(tails),
        "ack_tail_pct": statistics.median(pcts),
        "ack_samples": samples,
        "trace_bytes_per_req": trace_bytes / max(1, acked),
        "footprint_ratio": durability["footprint_ratio"],
        "cost_ratio": durability["cost_ratio"],
        "decode_us_per_req": durability["decode_us_per_req"],
        "peak_rss_mb": peak_rss,
        "window_reqs": window_reqs,
        "server_cpu_s": cpu1 - cpu0,
        "server_cpu_frac": (cpu1 - cpu0) / wall,
        "load_cpu_frac": ((load1.user + load1.system) - (load0.user + load0.system)) / wall,
        "wire_bytes_per_req": statistics.fmean(t.wire_bytes_per_req() for t in tenants),
        "ledger": ledger,
    }


def _wait_for_ledger(path: str) -> Dict[str, Any]:
    deadline = time.perf_counter() + 60
    while not os.path.exists(path):
        if time.perf_counter() > deadline:
            raise RuntimeError(f"traced server never wrote {path}")
        time.sleep(0.05)
    with open(path) as handle:
        return json.load(handle)
