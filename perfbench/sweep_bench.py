"""The batch-sweep workload: ``run_campaign`` over the paper's reallocators.

Set-up writes ``TRACES`` seeded ``database_trace`` files in v3 and expands
a campaign spec that crosses them with the Section 2 ``cost_oblivious``
reallocator and the Section 3.3 ``deamortized`` one (epsilon 0.25, linear
cost, RAM device); every cell streams its file.  Several short traces
rather than one long one: the work per request of one trace depends on
its seed (how its flushes fall), and the campaign averages that out while
staying short enough to be repeated many times in a run.  The measured
window runs the whole campaign (``jobs=1``) again and again until
``seconds`` have passed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from ledger import process_cpu_seconds

HERE = os.path.dirname(os.path.abspath(__file__))

REQUESTS = 1000
TRACES = 4
EPSILON = 0.25
#: Set-up repeats before the measured phase (it is also timed after each campaign).
SETUP_BEFORE = 3


def _spec_dict(paths: List[str], seed: int) -> Dict[str, Any]:
    return {
        "name": "perfbench-sweep",
        "seed": seed,
        "workloads": [{"kind": "replay", "path": path, "stream": True} for path in paths],
        "allocators": [
            {"kind": "cost_oblivious", "epsilon": EPSILON},
            {"kind": "deamortized", "epsilon": EPSILON},
        ],
        "costs": ["linear"],
        "devices": ["ram"],
    }


def trace_paths(workdir: str, seed: int) -> List[str]:
    return [os.path.join(workdir, f"database-{seed * TRACES + i}.v3") for i in range(TRACES)]


def set_up(workdir: str, seed: int):
    """Write the input traces, expand the spec, build each cell's parts."""
    from repro.campaign import (
        CampaignSpec, build_allocator, build_cost, build_device, build_workload,
    )
    from repro.workloads import database_trace, open_trace_writer

    paths = trace_paths(workdir, seed)
    for index, path in enumerate(paths):
        trace_seed = seed * TRACES + index
        writer = open_trace_writer(path, version=3, label=f"database-{trace_seed}")
        try:
            for request in database_trace(REQUESTS, seed=trace_seed):
                writer.write(request)
        finally:
            writer.close()
    spec = CampaignSpec.from_dict(_spec_dict(paths, seed))
    for cell in spec.expand():
        build_workload(cell.workload, seed=cell.seed)
        build_allocator(cell.allocator)
        build_cost(cell.cost)
        build_device(cell.device)
    return paths, spec


class CellClock:
    """Wall time of every cell, taken around the executor's public
    ``run_cell`` (``run_campaign(jobs=1)`` calls it once per cell)."""

    def __init__(self) -> None:
        import repro.campaign.executor as executor

        self.walls: Dict[str, List[float]] = defaultdict(list)
        run_cell = executor.run_cell

        def timed(payload: Dict[str, Any]) -> Dict[str, Any]:
            started = time.perf_counter()
            record = run_cell(payload)
            self.walls[record["cell_id"]].append(time.perf_counter() - started)
            return record

        executor.run_cell = timed


def run_phase(spec, seconds: float, clock: CellClock, traced: bool = False,
              between: Optional[Callable[[int], Any]] = None) -> Dict[str, Any]:
    """Run the campaign until ``seconds`` have passed (at least four times).

    One unmeasured campaign comes first, so lazy imports and caches are
    warm.  ``between(i)`` is called after campaign ``i`` (0 is the warm-up),
    outside the timed region.  Only the cell records of each campaign and
    the cell wall times of the measured ones are kept."""
    from repro.campaign import run_campaign

    walls: List[float] = []
    cpu: List[float] = []
    records = [run_campaign(spec, jobs=1, telemetry=traced).records]
    clock.walls.clear()
    if between is not None:
        between(0)
    started = time.perf_counter()
    while len(walls) < 4 or time.perf_counter() - started < seconds:
        cpu0, wall0 = process_cpu_seconds(), time.perf_counter()
        records.append(run_campaign(spec, jobs=1, telemetry=traced).records)
        walls.append(time.perf_counter() - wall0)
        cpu.append(process_cpu_seconds() - cpu0)
        if between is not None:
            between(len(walls))
    return {
        "walls": walls, "cpu": cpu, "records": records[1:], "warmup": records[0],
        "cell_walls": {cell: list(times) for cell, times in clock.walls.items()},
    }


def peak_rss_mb(workdir: str, seed: int) -> float:
    """The largest cell ``max_rss_kb`` of one campaign run in a fresh
    process, so the figure is the program's, not this harness's."""
    command = [sys.executable, os.path.abspath(__file__), workdir, str(seed)]
    output = subprocess.run(command, check=True, capture_output=True, text=True, timeout=120).stdout
    return json.loads(output.splitlines()[-1])["max_rss_kb"] / 1024.0


#: Cell fields that depend only on the seed, so every run must repeat them.
EXACT_FIELDS = ("requests", "max_footprint_ratio", "cost_ratio", "total_moves")


def check(campaigns, trace_length: int) -> List[str]:
    """Sweep correctness: every cell ok, request counts equal the trace
    length, the Section 2 cell within Theorem 2.1's footprint bound, and
    the exact per-seed outcomes identical across repeated campaigns."""
    from repro.analysis.bounds import predicted_footprint_ratio

    problems: List[str] = []
    bound = predicted_footprint_ratio(EPSILON)
    first: Optional[list] = None
    for run, records in enumerate(campaigns):
        for record in records:
            if record["status"] != "ok":
                problems.append(f"run {run}: cell {record['cell_id']} failed: {record.get('error')}")
                continue
            if record["requests"] != trace_length:
                problems.append(
                    f"run {run}: cell {record['cell_id']} replayed {record['requests']} "
                    f"of {trace_length} requests"
                )
            section_2 = record["allocator"]["kind"] == "cost_oblivious"
            if section_2 and record["max_footprint_ratio"] > bound:
                problems.append(
                    f"run {run}: Section 2 max footprint ratio "
                    f"{record['max_footprint_ratio']} > {bound}"
                )
        outcome = [tuple(r.get(f) for f in EXACT_FIELDS) for r in records]
        if first is None:
            first = outcome
        elif outcome != first:
            problems.append(f"run {run}: per-cell outcome {outcome} differs from run 0 {first}")
    return problems


def summarize(phase: Dict[str, Any], paths: List[str]) -> Dict[str, Any]:
    """The end-to-end numbers of one measured phase.

    Timing uses each cell's fastest run: the shared machine only ever slows
    a run down, so the fastest of about fifteen is the steadiest estimate
    of the cell's own cost."""
    campaigns = phase["records"]
    records = [r for campaign in campaigns for r in campaign]
    ok = [r for r in records if r["status"] == "ok"]
    first = campaigns[0]
    best = sorted(min(times) for times in phase["cell_walls"].values())
    walls = phase["walls"]
    return {
        "attempted": REQUESTS * len(records),
        "failed": REQUESTS * (len(records) - len(ok)),
        "rps": sum(r["requests"] for r in first) / sum(best),
        "cell_p50_ms": 1000.0 * statistics.median(best),
        "cell_max_ms": 1000.0 * best[-1],
        "campaign_p50_ms": 1000.0 * statistics.median(walls),
        "campaigns": len(walls),
        "bytes_per_req": sum(os.path.getsize(p) for p in paths) / (REQUESTS * len(paths)),
        "footprint_ratio": statistics.fmean(r["max_footprint_ratio"] for r in first),
        "cost_ratio": statistics.fmean(r["cost_ratio"] for r in first),
        "moves_per_req": sum(r["total_moves"] for r in first) / sum(r["requests"] for r in first),
    }


if __name__ == "__main__":
    # python3 perfbench/sweep_bench.py WORKDIR SEED: one campaign over the
    # traces set_up wrote; prints the largest cell max_rss_kb as JSON.
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.campaign import CampaignSpec, run_campaign

    workdir, seed = sys.argv[1], int(sys.argv[2])
    spec = CampaignSpec.from_dict(_spec_dict(trace_paths(workdir, seed), seed))
    records = run_campaign(spec, jobs=1).records
    print(json.dumps({"max_rss_kb": max(r["resources"]["max_rss_kb"] for r in records)}))
