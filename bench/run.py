"""frobwords benchmark: run one workload for a fixed time and report metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh single-threaded interpreter (``child.py``),
one at a time, with ``FROBWORDS_THREADS`` removed from its environment.
Repetitions start until the next one would end after ``--seconds``.
``--trace 0`` runs at least MIN_REPS and reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced repetitions,
at least one of each, and reports the per-layer metrics.  The last line of standard output is one
JSON object; earlier lines are notes for a human reader.  A record of the
run, with the machine and version details, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_PROBES = 1   # import-only start-ups before each repetition, for setup_s
MIN_REPS = 3       # untraced repetitions, when --trace 0
RUN_LIMIT = 170.0  # seconds; no repetition may end after this


def _spec() -> dict:
    """BENCHMARK.json: the workload names and the metrics with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "FROBWORDS_")) or k == "PYTHONHOME"}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class ChildError(RuntimeError):
    pass


def _spawn(args: list, env: dict, limit: float) -> tuple[dict, float]:
    """Run child.py to completion; return its JSON and its start time."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-s", os.path.join(HERE, "child.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, limit - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"child {args} did not finish in time")
    if proc.returncode != 0:
        raise ChildError(f"child {args} exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1]), started


def _percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _environment(first: dict) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "frobwords")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": first["python"],
            "numpy": first["numpy"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = _child_env()
    start = time.monotonic()
    deadline = start + seconds
    limit = start + RUN_LIMIT
    os.makedirs(RESULTS, exist_ok=True)

    setups, plain, traced, durations = [], [], [], []
    rep = 0
    while True:
        iteration_start = time.monotonic()
        for _ in range(SETUP_PROBES):
            probe, started = _spawn(["--setup-only"], env, limit)
            setups.append(probe["imported"] - started)
        tracing = trace and rep % 2 == 1
        args = ["--workload", workload, "--seed", str(seed)]
        if tracing:
            args += ["--trace", os.path.join(
                RESULTS, f"spans-{workload}-seed{seed}-rep{rep}.json")]
        result, started = _spawn(args, env, limit)
        durations.append(time.monotonic() - iteration_start)
        setups.append(result["imported"] - started)
        (traced if tracing else plain).append(result)
        rep += 1
        enough = len(traced) >= 1 and len(plain) >= 1 if trace else (
            len(plain) >= MIN_REPS)
        next_end = time.monotonic() + max(durations[-2:])
        if next_end > limit or (enough and next_end > deadline):
            break

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    median = statistics.median
    if trace:
        names = traced[0]["layers"]
        metrics = {name: median(r["layers"][name] for r in traced)
                   for name in names}
        metrics["trace.overhead_frac"] = (
            median(r["wall_s"] for r in traced)
            / median(r["wall_s"] for r in plain) - 1)
    else:
        # Every repetition makes the same calls on the same inputs, and the
        # host's noise only ever adds time (README.md): so each call, and
        # each request, counts at its fastest over the repetitions.
        calls = [min(times) for times in zip(*(r["latencies"] for r in plain))]
        requests = [min(times)
                    for times in zip(*(r["requests"] for r in plain))]
        metrics = {
            "setup_s": median(setups),
            "library_s": sum(calls),
            "peak_rss_mib": median(r["peak_rss_mib"] for r in plain),
            "query_p50_ms": 1000 * _percentile(requests, 50),
            "query_p95_ms": 1000 * _percentile(requests, 95),
        }
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": _environment(reps[0]),
        "untraced_reps": len(plain), "traced_reps": len(traced),
        "setup_samples": len(setups),
        "calls_per_rep": len(plain[0]["latencies"]) if plain else 0,
        "requests_per_rep": len(plain[0]["requests"]) if plain else 0,
        "attempted": attempted, "failed": failed,
        "messages": sorted({m for r in reps for m in r["messages"]}),
        "metrics": metrics,
        "reps": [{k: r[k] for k in ("wall_s", "peak_rss_mib", "attempted",
                                    "failed")} for r in reps],
    }


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "frobwords", "__init__.py")):
        print(f"error: no frobwords sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(record["metrics"]):
        print(f"error: measured metrics {sorted(record['metrics'])} differ "
              f"from BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    for message in record["messages"]:
        print(f"bench: {message}")
    print(f"bench: {args.workload} seed={args.seed} "
          f"reps={record['untraced_reps']}+{record['traced_reps']} traced "
          f"setup_samples={record['setup_samples']} "
          f"calls={record['calls_per_rep']} "
          f"requests={record['requests_per_rep']} "
          f"failed_frac={record['failed'] / record['attempted']:g} "
          f"({record['failed']}/{record['attempted']})")
    print(f"bench: environment {json.dumps(record['environment'])}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
