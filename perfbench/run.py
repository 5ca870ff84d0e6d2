"""The repository benchmark: one command, two workloads, two kinds of run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_large --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
its timings are scaled to a reference host speed (``perfbench/hostspeed.py``).
``--trace 1`` runs the workload twice, untraced and then traced with the
span ledger (``perfbench/ledger.py``), and reports the per-layer metrics
plus the tracing overhead.  Every run checks the program's outputs.  A
readable table goes to standard output first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric definitions and the per-layer to end-to-end map are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

# Fails fast outside a checkout with sources; imported up front so that
# set-up times measure the program's work, not module imports.
import repro.campaign  # noqa: E402,F401
import repro.workloads  # noqa: E402,F401

import hostspeed  # noqa: E402
import serve_bench  # noqa: E402
import sweep_bench  # noqa: E402
from ledger import Ledger, instrument  # noqa: E402

WORKLOADS = ("serve_large", "sweep_paper")

#: End-to-end timings, reported at the reference host speed (see
#: ``hostspeed.py``), each with the percentile of the reference loop times
#: that matches how it is taken: a median by the median loop, a sweep
#: cell's fastest of about fifteen runs by the 10th percentile.
TIMINGS = {
    "serve_large": {"rps": 50, "latency_p50_ms": 50, "latency_tail_ms": 50, "setup_s": 50},
    "sweep_paper": {"rps": 10, "latency_p50_ms": 10, "latency_tail_ms": 10, "setup_s": 50},
}
RATES = ("rps",)

#: Layers whose self time is inside EngineSession.apply / close.
APPLY_LAYERS = ("session", "gap_index", "address_space", "observers", "binary.decode")


def _metric_list(kind: str) -> List[Tuple[str, str]]:
    """(name, unit) of every ``kind`` metric, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[kind]]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def ledger_layers(ledger: Dict[str, Any], requests: int, process_cpu_s: float) -> Dict[str, float]:
    """Per-layer numbers from one ledger window over ``requests`` requests."""
    self_ns = ledger["self_ns"]
    calls = ledger["calls"]
    samples = ledger["samples"]

    def us_per_req(*layers: str) -> float:
        return sum(self_ns.get(layer, 0) for layer in layers) / 1000.0 / requests

    covered = sum(self_ns.values()) / 1e9
    counters = ledger.get("counters", {})
    return {
        "protocol.decode_us_per_req": us_per_req("protocol.decode"),
        "protocol.encode_us_per_ack": self_ns.get("protocol.encode", 0) / 1000.0
        / max(1, calls.get("protocol.encode", 0)),
        "server.reqs_per_hop": _mean(samples.get("reqs_per_hop", ())),
        "server.hop_ms_p50": _median(samples.get("hop_ns", ())) / 1e6,
        "session.apply_us_per_req": us_per_req(*APPLY_LAYERS),
        "core.us_per_req": us_per_req("session"),
        "gap_index.us_per_req": us_per_req("gap_index"),
        "gap_index.calls_per_req": calls.get("gap_index", 0) / requests,
        "gap_index.gaps_mean": _mean(samples.get("gaps", ())),
        "address_space.us_per_req": us_per_req("address_space"),
        "address_space.audit_probes_per_req": counters.get("address_space.audit_probes", 0) / requests,
        "binary.write_us_per_req": us_per_req("binary.write"),
        "binary.sync_ms_p50": _median(samples.get("sync_ns", ())) / 1e6,
        "binary.sync_bytes_per_call": _mean(samples.get("sync_bytes", ())),
        "binary.decode_us_per_req": us_per_req("binary.decode"),
        "observers.us_per_req": us_per_req("observers"),
        "campaign.cell_overhead_ms": self_ns.get("campaign", 0) / 1e6 / max(1, calls.get("campaign", 0)),
        "unaccounted_frac": (process_cpu_s - covered) / process_cpu_s,
        "layers_us_per_req": {layer: ns / 1000.0 / requests for layer, ns in sorted(self_ns.items())},
    }


# ------------------------------------------------------------------- serve
def run_serve(seed: int, seconds: float, trace: bool, workdir: str) -> Dict[str, Any]:
    if trace:
        plain = serve_bench.run_phase(workdir, "plain", seed, seconds)
    else:
        plain = serve_bench.run_phase(
            workdir, "plain", seed, seconds, serve_bench.SPAWNS_BEFORE, serve_bench.SPAWNS_AFTER,
        )
    problems = list(plain["problems"])
    attempted, failed = plain["attempted"], plain["failed"]
    if plain["load_cpu_frac"] > 0.5 or plain["server_cpu_frac"] < 0.8:
        print(
            f"WARNING: load may be the bottleneck (load cpu {plain['load_cpu_frac']:.2f}, "
            f"server cpu {plain['server_cpu_frac']:.2f} of a core)"
        )
    e2e = {
        "rps": plain["rps"],
        "latency_p50_ms": plain["ack_p50_ms"],
        "latency_tail_ms": plain["ack_tail_ms"],
        "bytes_per_req": plain["trace_bytes_per_req"],
        "footprint_ratio": plain["footprint_ratio"],
        "cost_amplification": 1.0 + plain["cost_ratio"],
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": plain["peak_rss_mb"],
        "setup_s": plain["setup_s"],
    }
    print(f"serve_large: closed loop, {serve_bench.TENANTS} connections x window "
          f"{serve_bench.WINDOW} x {serve_bench.BATCH}-request batches, churn "
          f"~{serve_bench.LIVE_TARGET} live/tenant")
    print(f"  serve_rps            {plain['rps']:.1f} 1/s")
    print(f"  ack_p50_ms           {plain['ack_p50_ms']:.3f} ms")
    print(f"  ack_tail_ms          {plain['ack_tail_ms']:.3f} ms  (median over "
          f"{serve_bench.SEGMENTS} stretches of p{plain['ack_tail_pct']:.2f}; {plain['ack_samples']} acks)")
    print(f"  setup_s              {plain['setup_s']:.4f} s")
    print(f"  trace_bytes_per_req  {plain['trace_bytes_per_req']:.3f} B")
    print(f"  server cpu           {plain['server_cpu_frac']:.2f} core, load cpu "
          f"{plain['load_cpu_frac']:.3f} core")
    print("  durability: " + ("ok" if not plain["problems"] else "FAILED") +
          " (SIGKILL after DRAIN+STATS; covers a process crash only, not power loss: no fsync)")
    result = {"e2e": e2e, "problems": problems, "attempted": attempted, "failed": failed}
    if not trace:
        return result

    traced = serve_bench.run_phase(
        workdir, "traced", seed, seconds, ledger_path=os.path.join(workdir, "ledger.json"),
    )
    problems += traced["problems"]
    attempted += traced["attempted"]
    failed += traced["failed"]
    ledger = traced["ledger"]
    layers = ledger_layers(ledger, traced["window_reqs"], ledger["process_cpu_s"])
    layers.update({
        "protocol.wire_bytes_per_req": plain["wire_bytes_per_req"],
        "server.cpu_us_per_req": 1e6 * plain["server_cpu_s"] / plain["window_reqs"],
        "server.wait_ms_p50": traced["ack_p50_ms"] - layers["server.hop_ms_p50"],
        "core.moves_per_req": 0.0,
        "core.flushes": 0.0,
        # Decode on the serve path is the crash-recovery read of the trace tail.
        "binary.decode_us_per_req": plain["decode_us_per_req"],
        "load.cpu_frac": plain["load_cpu_frac"],
        "trace_overhead_frac": plain["rps"] / traced["rps"] - 1.0,
    })
    _keep_ledger(ledger, "serve_large")
    result.update(layers=layers, attempted=attempted, failed=failed, problems=problems)
    return result


# ------------------------------------------------------------------- sweep
def run_sweep(seed: int, seconds: float, trace: bool, workdir: str) -> Dict[str, Any]:
    setups = []

    def timed_set_up(_index: int = 0):
        started = time.perf_counter()
        built = sweep_bench.set_up(workdir, seed)
        setups.append(time.perf_counter() - started)
        return built

    # Set-up is timed before the run and again after every campaign, so its
    # median is taken over the whole run, not one moment of it.
    for _ in range(sweep_bench.SETUP_BEFORE):
        paths, spec = timed_set_up()
    clock = sweep_bench.CellClock()
    plain = sweep_bench.run_phase(spec, seconds, clock, between=timed_set_up)
    problems = sweep_bench.check([plain["warmup"], *plain["records"]], sweep_bench.REQUESTS)
    summary = sweep_bench.summarize(plain, paths)
    e2e = {
        "rps": summary["rps"],
        "latency_p50_ms": summary["cell_p50_ms"],
        "latency_tail_ms": summary["cell_max_ms"],
        "bytes_per_req": summary["bytes_per_req"],
        "footprint_ratio": summary["footprint_ratio"],
        "cost_amplification": 1.0 + summary["cost_ratio"],
        "ok_frac": (summary["attempted"] - summary["failed"]) / summary["attempted"],
        "peak_rss_mb": sweep_bench.peak_rss_mb(workdir, seed),
        "setup_s": statistics.median(setups),
    }
    print(f"sweep_paper: run_campaign(jobs=1), cost_oblivious + deamortized (eps "
          f"{sweep_bench.EPSILON}) over {sweep_bench.TRACES} v3 database traces of "
          f"{sweep_bench.REQUESTS} requests")
    print(f"  replay_rps           {summary['rps']:.1f} 1/s  (fastest run of each cell, "
          f"{summary['campaigns']} campaigns; median campaign {summary['campaign_p50_ms']:.0f} ms)")
    print(f"  cell_p50_ms          {summary['cell_p50_ms']:.3f} ms")
    print(f"  cell_max_ms          {summary['cell_max_ms']:.3f} ms")
    print(f"  setup_s              {e2e['setup_s']:.4f} s")
    print(f"  footprint_ratio      {summary['footprint_ratio']:.6f}")
    print(f"  cost_ratio           {summary['cost_ratio']:.6f}")
    print("  sweep check: " + ("ok" if not problems else "FAILED"))
    result = {"e2e": e2e, "problems": problems, "attempted": summary["attempted"],
              "failed": summary["failed"]}
    if not trace:
        return result

    ledger = Ledger()
    instrument(ledger)
    def clear_after_warmup(index: int) -> None:
        if index == 0:
            ledger.reset()

    traced = sweep_bench.run_phase(spec, seconds, clock, traced=True, between=clear_after_warmup)
    problems += sweep_bench.check(
        [plain["warmup"], *plain["records"], traced["warmup"], *traced["records"]],
        sweep_bench.REQUESTS,
    )
    requests = sweep_bench.REQUESTS * len(spec.expand()) * len(traced["walls"])
    counters: Dict[str, float] = {}
    for campaign in traced["records"]:
        for record in campaign:
            for name, value in record.get("telemetry", {}).get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
    cpu = sum(traced["cpu"])
    document = ledger.document({"process_cpu_s": cpu, "counters": counters})
    layers = ledger_layers(document, requests, cpu)
    flushes = ledger.samples.get("flushes", [])
    layers.update({
        "protocol.wire_bytes_per_req": 0.0,
        "server.cpu_us_per_req": 0.0,
        "server.wait_ms_p50": 0.0,
        "core.moves_per_req": summary["moves_per_req"],
        "core.flushes": sum(flushes) / len(traced["walls"]),
        "load.cpu_frac": 0.0,
        "trace_overhead_frac": summary["rps"] / sweep_bench.summarize(traced, paths)["rps"] - 1.0,
    })
    _keep_ledger(document, "sweep_paper")
    result.update(layers=layers, problems=problems, attempted=result["attempted"] + requests)
    return result


def _keep_ledger(ledger: Dict[str, Any], workload: str) -> None:
    path = os.path.join(ROOT, ".perfbench", f"ledger-{workload}.json")
    with open(path, "w") as handle:
        json.dump(ledger, handle)


# -------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    hostspeed.pin()
    try:
        with hostspeed.Probe(workdir) as probe:
            if args.workload == "sweep_paper":
                result = run_sweep(args.seed, args.seconds, bool(args.trace), workdir)
            else:
                result = run_serve(args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e = result["e2e"]
    for name, percentile in TIMINGS[args.workload].items():
        reference = probe.reference(percentile)
        scale = hostspeed.rate_at_reference if name in RATES else hostspeed.time_at_reference
        e2e[name] = scale(e2e[name], reference)
        print(f"host reference for {name}: {1000 * reference:.4f} ms per loop, p{percentile} of "
              f"{len(probe.samples)} (nominal {1000 * hostspeed.REFERENCE_S:.4f} ms)")
    print("the timings reported below are scaled to the nominal reference; the ones above are as measured")

    if args.trace:
        values, names = result["layers"], _metric_list("per_layer")
        # Layer self times plus the unaccounted rest add up to the traced
        # process CPU; a negative rest means the accounting itself is broken.
        if values["unaccounted_frac"] < -0.01:
            result["problems"].append(
                f"layer self times exceed the traced process CPU "
                f"(unaccounted {values['unaccounted_frac']:.3f})"
            )
        print("per-layer self CPU (us/req): " + ", ".join(
            f"{k} {v:.3f}" for k, v in values["layers_us_per_req"].items()))
    else:
        values, names = result["e2e"], _metric_list("end_to_end")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in names}
    for name, unit in names:
        print(f"  {name:38s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
