"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``install`` replaces each
traced library function with a wrapper at every ``frobwords`` module
attribute that refers to it (``frobenius``, ``morphic``, ``ternary`` and
``cli`` import by name, so patching the defining module alone would miss
their calls), and wraps ``WordGenerator.prefix_array`` and
``Morphism.power_array`` on the class.  Nothing in the library changes.

A span is ``[name, start, end, parent, work]``; ``parent`` is the index of
the enclosing span (-1 for the root) and ``work`` counts symbols for the two
``words`` methods.  Self time is a span's duration minus the durations of its
direct children; the program is single-threaded, so children never overlap.

Run as a script on a spans file, it prints the time of each named part of
the workload (``Run.request``) and the layers that hold most of it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced module-level function.
FUNCTIONS = [
    ("factors", "parikh_set"),
    ("factors", "parikh_set_table"),
    ("factors", "zero_envelope_table"),
    ("frobenius", "complement_below"),
    ("frobenius", "pf_witnesses"),
    ("morphic", "table1"),
    ("morphic", "phi_envelope_table"),
    ("ternary", "enumerate_fib_factors"),
    ("ternary", "decide_cofinite"),
    ("ternary", "g_values"),
    ("ternary", "table2"),
    ("cli", "main"),
]

# Per-layer metrics, in the order BENCHMARK.json lists them.
SELF_TIMES = [
    "words.prefix_array", "words.power_array", "factors.zero_envelope_table",
    "factors.parikh_set_table", "factors.parikh_set",
    "frobenius.complement_below", "frobenius.pf_witnesses", "morphic.table1",
    "ternary.enumerate_fib_factors", "ternary.decide_cofinite",
    "ternary.g_values", "cli.main",
]
CALL_COUNTS = [
    "factors.zero_envelope_table", "factors.parikh_set_table",
    "factors.parikh_set", "frobenius.complement_below",
    "ternary.decide_cofinite",
]
TOTAL_TIMES = ["morphic.phi_envelope_table", "ternary.table2"]
SYMBOL_COUNTS = ["words.prefix_array", "words.power_array"]


class Tracer:
    """Collects spans on a stack; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._fib_factors = None

    def span(self, name: str, fn, work=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``work(args, result)`` returns the symbol count of the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, time.perf_counter(), 0.0,
                      self._stack[-1] if self._stack else -1, 0]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = time.perf_counter()
            if work is not None:
                record[4] = work(args, result)
            return result

        return wrapper

    def install(self) -> None:
        from frobwords import ternary, words

        # The lru_cache object itself, for its hit counts.
        self._fib_factors = ternary.enumerate_fib_factors

        modules = [m for key, m in list(sys.modules.items())
                   if key == "frobwords" or key.startswith("frobwords.")]
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"frobwords.{module_name}"], attr)
            wrapped = self.span(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        words.WordGenerator.prefix_array = self.span(
            "words.prefix_array", words.WordGenerator.prefix_array,
            work=lambda args, result: len(result))
        words.Morphism.power_array = self.span(
            "words.power_array", words.Morphism.power_array,
            work=lambda args, result: len(result))

    def layer_metrics(self) -> dict:
        """Per-layer counts and times over every recorded span.  The first
        span is the root: the benchmark's span around the whole workload."""
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        symbols: dict = defaultdict(int)
        for name, start, end, parent, work in self.spans:
            duration = end - start
            calls[name] += 1
            total[name] += duration
            self_s[name] += duration
            symbols[name] += work
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
        prefix_requests = sum(
            1 for span in self.spans
            if span[0] == "words.prefix_array" and self._under_factors(span))
        info = self._fib_factors.cache_info()
        lookups = info.hits + info.misses

        metrics = {}
        for name in SELF_TIMES:
            metrics[f"{name}.self_s"] = self_s[name]
        for name in SYMBOL_COUNTS:
            metrics[f"{name}.symbols"] = symbols[name]
        for name in CALL_COUNTS:
            metrics[f"{name}.calls"] = calls[name]
        for name in TOTAL_TIMES:
            metrics[f"{name}.total_s"] = total[name]
        metrics["factors.prefix_requests"] = prefix_requests
        metrics["ternary.enumerate_fib_factors.cache_hit_ratio"] = (
            info.hits / lookups if lookups else 0.0)
        root_name, root_start, root_end = self.spans[0][:3]
        metrics["bench.self_s"] = self_s[root_name]
        metrics["trace.wall_s"] = root_end - root_start
        return metrics

    def _under_factors(self, span) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0].startswith("factors."):
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path, parts=()) -> None:
        """Write every span as one JSON list, with the workload's named
        parts as (name, start, end), for offline inspection."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "symbols"],
                       "spans": self.spans, "parts": list(parts)}, fh)


def part_self_times(spans: list, parts: list) -> dict:
    """{part: (duration, {layer: self time})} for the spans that start
    inside each part."""
    self_s = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    out = {}
    for part, part_start, part_end in parts:
        layers: dict = defaultdict(float)
        for (name, start, _, parent, _), own in zip(spans, self_s):
            if parent >= 0 and part_start <= start <= part_end:
                layers[name] += own
        out[part] = (part_end - part_start, dict(layers))
    return out


def main(argv=None) -> int:
    """Print each part's time and its largest layers from a spans file:
    python3 bench/tracing.py bench/results/spans-claims-seed1-rep1.json"""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(main.__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        doc = json.load(fh)
    for part, (duration, layers) in part_self_times(
            doc["spans"], doc["parts"]).items():
        print(f"{part}: {duration:.3f} s")
        for name, own in sorted(layers.items(), key=lambda kv: -kv[1])[:5]:
            print(f"  {name:40s} self {own:8.3f} s  share {own / duration:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
