"""Run ``repro serve`` with the benchmark's span ledger installed.

Usage::

    python3 perfbench/serve_traced.py LEDGER.json [repro serve options...]

Wraps the layer entry points (see :func:`ledger.instrument`), enables the
program's own ``repro.obs`` telemetry counters, and then runs the ordinary
``repro serve`` command line.  ``SIGUSR1`` opens a measurement window: it
clears the ledger and notes the process CPU time and telemetry counters.
``SIGUSR2`` writes the window to ``LEDGER.json`` (atomically, so the
benchmark can wait for the file to appear).
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from ledger import Ledger, instrument, process_cpu_seconds  # noqa: E402


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, serve_args = argv[0], argv[1:]

    from repro.cli import main as repro_main
    from repro.obs import NullSink, configure_telemetry

    telemetry = configure_telemetry(sink=NullSink())
    ledger = Ledger()
    instrument(ledger)
    window = {"cpu": process_cpu_seconds(), "counters": {}}

    def start_window(signum, frame) -> None:
        ledger.reset()
        window["cpu"] = process_cpu_seconds()
        window["counters"] = dict(telemetry.counter_values())

    def dump_window(signum, frame) -> None:
        before = window["counters"]
        counters = {
            name: value - before.get(name, 0)
            for name, value in telemetry.counter_values().items()
        }
        ledger.dump(
            out_path,
            {"process_cpu_s": process_cpu_seconds() - window["cpu"], "counters": counters},
        )

    signal.signal(signal.SIGUSR1, start_window)
    signal.signal(signal.SIGUSR2, dump_window)
    return repro_main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
