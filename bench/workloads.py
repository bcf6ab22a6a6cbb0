"""The two benchmark workloads and their correctness checks.

Each workload is a function ``prepare(rng) -> execute`` that builds its
inputs from the seeded generator before the clock starts; ``execute(run)``
then makes the timed library calls through ``run.call``, groups them into
requests with ``run.request()``, and records every checked result through
``run.check``.  Library functions are always looked up on their
module at call time, so the traced run sees the wrapped versions.  ``README.md`` says why each workload exists.
"""

from __future__ import annotations

import io
import json
import math
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

from frobwords import cli, factors, frobenius, golden, morphic, ternary, verify
from frobwords.words import WORDS

PF_SRC = factors.StabilizedDoubling(max_length=2**22)

# The one documented reference error: golden.py records 244 for (3,1), the
# bound formula ceil((a+2b)/3 * (132 + |a-b|)) gives ceil(670/3) = 224.
KNOWN_PAIR = (3, 1)
KNOWN_REFERENCE = 244
KNOWN_FORMULA = math.ceil(Fraction(3 + 2 * 1, 3) * (132 + abs(3 - 1)))

# claims: the sizes one repetition reproduces the claims to.
PF_MAX = 1024       # paperfolding Parikh table and exclusions, lengths <= PF_MAX
TERNARY_MAX = 500   # t and fib Parikh tables and g_values sweeps
LIFT_MAX = 60       # lift lemma for n <= LIFT_MAX

# complement_stream: phi pairs with both weights <= 4 (README explains the
# cap); each phi pair STREAM_PER_PAIR times and each t triple
# STREAM_PER_TRIPLE times, in seeded order.
STREAM_PHI_MAX_WEIGHT = 4
STREAM_PER_PAIR = 270
STREAM_PER_TRIPLE = 11

MAX_MESSAGES = 20


class Run:
    """Timing and check ledger of one workload execution.

    ``latencies`` holds the time of every timed call.  ``requests`` holds
    one entry per request: a single call, or the calls inside one
    ``with run.request():`` block, summed.  Checks are never timed."""

    def __init__(self):
        self.latencies: list[float] = []
        self.requests: list[float] = []
        self.parts: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._open: float | None = None

    def call(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        if self._open is None:
            self.requests.append(elapsed)
        else:
            self._open += elapsed
        return result

    @contextmanager
    def request(self, name: str):
        """Count the calls in the block as one request; record the block
        in ``parts`` as (name, start, end)."""
        self._open = 0.0
        start = time.perf_counter()
        try:
            yield
        finally:
            self.requests.append(self._open)
            self.parts.append((name, start, time.perf_counter()))
            self._open = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.note(f"FAILED {what}")

    def note(self, text: str) -> None:
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(text)


def _parse_set(text: str) -> tuple:
    inner = text.strip("{}")
    return tuple(int(v) for v in inner.split(",")) if inner else ()


def _table1(run: Run) -> None:
    """``tables --which 1 --format json`` through ``cli.main``."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run.call(cli.main, ["tables", "--which", "1", "--format", "json"])
    doc = json.loads(out.getvalue())
    run.check(code == 1, "tables --which 1 exits 1 on the reference diff")
    rows = {(row["a"], row["b"]): row for row in doc["rows"]}
    run.check(len(rows) == len(golden.TABLE1_GOLDEN), "table 1 has 23 rows")
    for pair, gold_m, gold_c in golden.TABLE1_GOLDEN:
        row = rows.get(pair)
        want_m = KNOWN_FORMULA if pair == KNOWN_PAIR else gold_m
        run.check(row is not None and row["ceil_M"] == want_m
                  and _parse_set(row["complement"]) == gold_c,
                  f"table 1 row {pair}")
    known = {"pair": list(KNOWN_PAIR), "computed": [KNOWN_FORMULA, []],
             "reference": [KNOWN_REFERENCE, []]}
    run.check(doc["diffs"] == [known], "only the (3,1) cell differs")
    cell = rows.get(KNOWN_PAIR, {}).get("ceil_M")
    run.note(f"table 1 cell (3,1): computed {cell}, reference "
             f"{KNOWN_REFERENCE}, formula {KNOWN_FORMULA}")


def _pf_claims(run: Run) -> None:
    """Acceptance criterion 3 for the paperfolding word, to n = PF_MAX."""
    pf = WORDS["pf"]
    for k in range(1, 15):
        vecs = run.call(factors.parikh_set, pf, 2**k, PF_SRC)
        run.check(len(vecs) == 3, f"pf complexity 3 at 2^{k}")

    table = run.call(factors.parikh_set_table, pf, PF_MAX + 1, PF_SRC)
    deltas = [frozenset(v[0] - v[1] for v in row) for row in table]
    tops = [max(d) for d in deltas]
    run.check(all(len(deltas[n - 1]) == tops[n - 1] + 1
                  for n in range(1, PF_MAX + 1)),
              f"pf complexity = max delta + 1 to {PF_MAX}")
    run.check(all(abs(tops[n] - tops[n - 1]) == 1
                  for n in range(1, PF_MAX + 1)),
              f"pf max delta steps by +-1 to {PF_MAX}")
    for n in range(2, PF_MAX.bit_length()):
        vecs = set(table[2**n - 1])
        half = 2 ** (n - 1)
        run.check((half - 2, half + 2) not in vecs
                  and (half + 2, half - 2) not in vecs,
                  f"pf Parikh exclusions at 2^{n}")

    for a, b in [(4, 5), (4, 7), (5, 7), (4, 9)]:
        results = run.call(frobenius.pf_witnesses, a, b, range(4, 11))
        run.check(len(results) == 7
                  and all(r.verified_nonrepresentable for r in results),
                  f"pf witnesses for ({a},{b})")


def _substitution_parikhs(bits) -> set:
    """Parikh vectors of both alternate-zero images of a binary factor:
    replacing the 2nd, 4th, ... zeros or the 1st, 3rd, ... zeros by 2."""
    zeros = bits.count(0)
    ones = len(bits) - zeros
    return {(zeros - zeros // 2, ones, zeros // 2),
            (zeros - (zeros + 1) // 2, ones, (zeros + 1) // 2)}


def _ternary_claims(run: Run) -> None:
    """Complexity, balance, value formulas, the lift lemma and table 2."""
    t, fib = WORDS["t"], WORDS["fib"]
    n_max = TERNARY_MAX
    t_table = run.call(factors.parikh_set_table, t, n_max)
    f_table = run.call(factors.parikh_set_table, fib, n_max)
    for rows, k, name in ((f_table, 2, "fib"), (t_table, 3, "t")):
        run.check(len(rows) == n_max and all(len(r) == k for r in rows),
                  f"{name} complexity {k} to {n_max}")
        run.check(all(max(v[i] for v in r) - min(v[i] for v in r) <= 1
                      for r in rows for i in range(k)),
                  f"{name} 1-balanced to {n_max}")

    for s in verify.ORACLE_TRIPLES:
        weights = frobenius.Weights(s)
        values = run.call(
            lambda: [ternary.g_values(n, s) for n in range(2, n_max + 1)])
        run.check(all(frozenset(v.dot(weights) for v in t_table[n - 1])
                      == values[n - 2] for n in range(2, n_max + 1)),
                  f"g_values{s} match the t table to {n_max}")

    for n in range(1, LIFT_MAX + 1):
        fib_factors, t_set = run.call(
            lambda: (ternary.enumerate_fib_factors(n), factors.parikh_set(t, n)))
        images = set()
        for _, bits in fib_factors:
            images |= _substitution_parikhs(bits)
        run.check(len(fib_factors) == n + 1 and set(t_set) == images,
                  f"lift lemma at n={n}")

    rows = run.call(ternary.table2)
    run.check([(tuple(r.weights), r.complement) for r in rows]
              == golden.TABLE2_GOLDEN, "table 2 equals the reference")


def claims(rng):
    """Table 1, then the paperfolding claims, then the ternary ones: three
    requests, as a user would reproduce them one after the other."""

    def execute(run: Run) -> None:
        for name, part in (("table1", _table1), ("pf", _pf_claims),
                           ("ternary", _ternary_claims)):
            with run.request(name):
                part(run)

    return execute


def admissible_triples(limit: int = 7) -> list:
    """The triples table 2 sweeps: coprime, S0 != S2, one of each mirror pair."""
    out, seen = [], set()
    for s0 in range(1, limit + 1):
        for s1 in range(1, limit + 1):
            for s2 in range(1, limit + 1):
                triple = (s0, s1, s2)
                if math.gcd(*triple) > 1 or s0 == s2 or triple[::-1] in seen:
                    continue
                seen.add(triple)
                out.append(triple)
    return out


def complement_stream(rng):
    """A closed loop of one client: each query waits for the previous one.

    The stream opens with one phi query per pair in ascending order of the
    pair's envelope length r, so the envelope cache grows through every
    size; then every phi pair and every t triple repeats a fixed number of
    times in seeded order.  The seed draws the order and the phi bounds."""
    phi_pairs = [(a, b) for a in range(1, STREAM_PHI_MAX_WEIGHT + 1)
                 for b in range(1, STREAM_PHI_MAX_WEIGHT + 1)
                 if math.gcd(a, b) == 1]
    bounds = {pair: morphic.ab_bound(*pair) for pair in phi_pairs}
    gold1 = {pair: comp for pair, _, comp in golden.TABLE1_GOLDEN}
    gold2 = dict(golden.TABLE2_GOLDEN)

    def phi_query(pair):
        bd = bounds[pair]
        bound = int(rng.integers(1, bd.ceil_M + 1))
        expected = tuple(v for v in gold1[pair] if v < bound)
        return "phi", (frobenius.Weights(pair), bound, bd.r, expected)

    climb = sorted(phi_pairs, key=lambda pair: (bounds[pair].r, pair))
    rest = ([("phi", pair) for pair in phi_pairs] * STREAM_PER_PAIR
            + [("t", triple) for triple in admissible_triples()]
            * STREAM_PER_TRIPLE)
    order = rng.permutation(len(rest))
    queries = [phi_query(pair) for pair in climb]
    for i in order:
        kind, key = rest[i]
        queries.append(phi_query(key) if kind == "phi" else (kind, key))
    src = factors.MorphicCover(morphic.COVER_POWER)

    def execute(run: Run) -> None:
        phi = WORDS["phi"]
        for kind, query in queries:
            if kind == "phi":
                weights, bound, max_len, expected = query
                report = run.call(frobenius.complement_below, phi, weights,
                                  bound, max_len, src)
                run.check(report.complement == expected,
                          f"phi complement {tuple(weights)} below {bound}")
            else:
                decision = run.call(ternary.decide_cofinite, query)
                if query in gold2:
                    ok = decision.cofinite and decision.complement == gold2[query]
                else:
                    ok = not decision.cofinite and decision.witness is not None
                run.check(ok, f"t decision {query}")

    return execute


WORKLOADS = {
    "claims": claims,
    "complement_stream": complement_stream,
}
