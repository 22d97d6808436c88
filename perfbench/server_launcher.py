"""Start ``repro-netneutrality serve --port 0`` for the ``service_mixed`` workload.

Usage::

    python3 perfbench/server_launcher.py [--trace-out PATH]

Without ``--trace-out`` this is the plain CLI server with default flags.
With it, the layer wrappers of :mod:`tracer` are installed in this process
before the server starts; ``SIGUSR1`` starts recording, ``SIGUSR2`` stops
it, and on exit the counters and spans are written to ``PATH`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    from repro.cli import main as cli_main

    if args.trace_out is None:
        return cli_main(["serve", "--port", "0"])

    from tracer import Tracer, install_layers

    tracer = Tracer()
    install_layers(tracer, service=True)

    def start(_signum: int, _frame: object) -> None:
        tracer.reset()
        tracer.recording = True

    def stop(_signum: int, _frame: object) -> None:
        tracer.recording = False

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGUSR2, stop)
    try:
        return cli_main(["serve", "--port", "0"])
    finally:
        tracer.recording = False
        counters = [[name, parent, *entry]
                    for (name, parent), entry in sorted(tracer.counters().items())]
        Path(args.trace_out).write_text(
            json.dumps({"counters": counters, "spans": tracer.spans}),
            encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
