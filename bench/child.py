"""One benchmark repetition in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition pays
the cold costs a command-line user pays: the interpreter and numpy start-up
and the per-process caches of the library.  It prints one JSON object.

Usage: python3 bench/child.py --workload NAME --seed N [--trace PATH]
       python3 bench/child.py --setup-only
"""

import time
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# Only the stdlib modules above load before frobwords, so IMPORTED - (process
# start) is interpreter start-up plus the library import: setup_s.
import frobwords  # noqa: E402

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", default=None,
                        help="record spans and write them to this file")
    args = parser.parse_args()

    if not os.path.abspath(frobwords.__file__).startswith(SRC + os.sep):
        print(f"frobwords was imported from {frobwords.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 3
    if args.setup_only:
        print(json.dumps({"imported": IMPORTED}))
        return 0

    import workloads

    execute = workloads.WORKLOADS[args.workload](
        np.random.default_rng(args.seed))
    run = workloads.Run()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        execute = tracer.span("bench", execute)

    start = time.perf_counter()
    try:
        execute(run)
    except Exception:
        run.check(False, "workload raised:\n" + traceback.format_exc())
    wall = time.perf_counter() - start

    result = {
        "imported": IMPORTED,
        "wall_s": wall,
        "latencies": run.latencies,
        "requests": run.requests,
        "attempted": run.attempted,
        "failed": run.failed,
        "messages": run.messages,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.dump(args.trace, run.parts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
