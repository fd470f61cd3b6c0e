"""Run `meerkat.netserver.main` in this process and, when it stops, write a
report: peak resident memory, the speed probes sampled in this process
(see speed.py) and, with --trace, the spans recorded around each layer's
entry points.

    python3 perfbench/launch_server.py --report FILE [--trace] -- SERVER-ARGS...

SIGINT stops the server the way Ctrl-C does.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import meerkat.netserver as netserver  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    server_args = args.server_args[1:] if args.server_args[:1] == ["--"] else args.server_args
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(netserver.MeerkatServer)
    probe = SpeedProbe()
    probe.start()
    try:
        rc = netserver.main(server_args)
    except KeyboardInterrupt:
        rc = 0
    finally:
        probe.stop()
    report = {
        "rc": rc,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "speed": probe.samples(),
    }
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = tracer.export()
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, default=array.tolist)
    return rc


if __name__ == "__main__":
    sys.exit(main())
