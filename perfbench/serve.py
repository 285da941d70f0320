"""``repro serve`` with the benchmark's layer timers installed.

    python3 perfbench/serve.py --trace-out PATH [repro serve arguments]

Installs the timers of ``layers.py`` (server and event loop included) in
this process, then hands over to ``repro serve``.  SIGUSR1 starts the
measured interval; SIGUSR2 writes the layer metrics of the interval to
``PATH`` as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

import layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    args, serve_args = parser.parse_known_args(argv)
    out = Path(args.trace_out)
    tracer = layers.install(server=True)

    def dump(signum, frame) -> None:
        tmp = out.with_suffix(".tmp")
        tmp.write_text(json.dumps(tracer.snapshot()))
        os.replace(tmp, out)

    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.reset())
    signal.signal(signal.SIGUSR2, dump)

    from repro.cli import main as repro_main

    return repro_main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main())
