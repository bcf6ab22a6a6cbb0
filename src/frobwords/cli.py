"""Command-line surface: word generation, factor analysis, table
reproduction, and the claim-verification suites.

Output goes to stdout in one of four formats (text, json, csv, markdown);
progress and diagnostics go to stderr so the data stream stays pipeable.
Identical invocations produce byte-identical output unless --timestamps is
given.  Exit codes: 0 success, 1 a failed check, row or table diff, 2 a
usage or budget error, 3 an internal invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import golden, morphic, ternary, verify
from .factors import StabilizationError, abelian_complexity
from .frobenius import Weights, complement_below
from .morphic import COVER_POWER, ab_bound
from .ternary import Half, offsets
from .words import WORDS

_FORMATS = ("text", "json", "csv", "markdown")


def half_json(h: Half) -> dict:
    return {"twice": h.twice}


def _set_str(values) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _weights(text: str) -> tuple:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("weights look like 2,5 or 1,1,2")
    if not parts or any(p < 1 for p in parts):
        raise argparse.ArgumentTypeError("weights must be positive integers")
    return parts


def _emit(fmt: str, envelope: dict, columns: list[str], rows: list[dict],
          text_body: str | None = None) -> None:
    """Render one command's result.  ``rows`` drive csv/markdown; the json
    format emits the whole envelope."""
    if fmt == "json":
        print(json.dumps(envelope, indent=2))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
        sys.stdout.write(buf.getvalue())
    elif fmt == "markdown":
        print("| " + " | ".join(columns) + " |")
        print("|" + "|".join("---" for _ in columns) + "|")
        for row in rows:
            print("| " + " | ".join(str(row[c]) for c in columns) + " |")
    else:
        print(text_body if text_body is not None else "\n".join(
            " ".join(str(row[c]) for c in columns) for row in rows))


def _envelope(command: str, params: dict, budget: dict, status: str,
              timestamps: bool, **payload) -> dict:
    env = {"command": command, "params": params}
    env.update(payload)
    env["budget"] = {"max_len": budget.get("max_len"),
                     "bounds": budget.get("bounds")}
    env["status"] = status
    if timestamps:
        env["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return env


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_prefix(args) -> int:
    word = WORDS[args.word]
    text = str(word.prefix(args.n))
    envelope = _envelope(
        "prefix", {"word": args.word, "n": args.n},
        {"max_len": args.n}, "ok", args.timestamps, result=text)
    _emit(args.format, envelope, ["prefix"], [{"prefix": text}], text_body=text)
    return 0


def _cmd_complexity(args) -> int:
    if args.n_min > args.n_max:
        print("error: --n-min exceeds --n-max", file=sys.stderr)
        return 2
    # Every built-in word has an exact single-length answer (certified, or
    # the desubstitution walk for phi), so no row can fail; the error
    # column keeps the row format.
    word = WORDS[args.word]
    rows = [{"n": n, "abelian_complexity": abelian_complexity(word, n),
             "error": ""} for n in range(args.n_min, args.n_max + 1)]
    envelope = _envelope(
        "complexity",
        {"word": args.word, "n_min": args.n_min, "n_max": args.n_max},
        {"max_len": args.n_max}, "ok", args.timestamps, rows=rows)
    _emit(args.format, envelope, ["n", "abelian_complexity", "error"], rows)
    return 0


def _cmd_complement(args) -> int:
    weights = Weights(args.weights)
    if weights.gcd != 1:
        print(f"error: weights {tuple(weights)} are not coprime", file=sys.stderr)
        return 2
    if args.word == "phi":
        if len(weights) != 2:
            print("error: the morphic word needs exactly two weights",
                  file=sys.stderr)
            return 2
        bd = ab_bound(*weights)
        bound = args.bound if args.bound else bd.ceil_M
        max_len = max(bd.r, -(-bound // min(weights)))
        report = complement_below(WORDS["phi"], weights, bound, max_len)
        rows = [{"weights": _set_str(weights), "bound": bound,
                 "complement": _set_str(report.complement)}]
        envelope = _envelope(
            "complement", {"word": "phi", "weights": list(weights),
                           "bound": bound},
            {"max_len": max_len, "bounds": bound}, "ok", args.timestamps,
            result={"outcome": "finite", "complement": list(report.complement)})
        _emit(args.format, envelope, ["weights", "bound", "complement"], rows,
              text_body=_set_str(report.complement))
        return 0
    # ternary word: decide first, then extract
    if len(weights) != 3:
        print("error: the ternary word needs exactly three weights",
              file=sys.stderr)
        return 2
    if args.bound is not None:
        print("error: --bound applies only to --word phi", file=sys.stderr)
        return 2
    decision = ternary.decide_cofinite(weights)
    k = offsets(weights).k
    if decision.cofinite:
        outcome = "finite"
        result = {"complement": list(decision.complement)}
        shown = text = _set_str(decision.complement)
    else:
        outcome, w = "infinite", decision.witness
        result = {"witness": {
            "factor_start_index": w.factor_start_index, "parity": w.parity,
            "missed_value": w.missed_value,
            "factor": "".join(str(b) for b in w.factor_bits)}}
        shown = f"infinite (misses {w.missed_value} at parity {w.parity} forever)"
        text = (f"infinite: window at {w.factor_start_index} parity {w.parity} "
                f"misses {w.missed_value}")
    result = {"outcome": outcome, **result,
              "window_length": decision.window_length, "max_offset": half_json(k)}
    rows = [{"weights": _set_str(weights), "outcome": outcome,
             "complement": shown, "max_offset": str(k)}]
    envelope = _envelope(
        "complement", {"word": "t", "weights": list(weights)},
        {"max_len": decision.window_length + 1,
         "bounds": None if not decision.cofinite else
         (max(decision.complement) if decision.complement else 0)},
        "ok", args.timestamps, result=result)
    _emit(args.format, envelope,
          ["weights", "outcome", "complement", "max_offset"], rows,
          text_body=text)
    return 0


def _cmd_tables(args) -> int:
    if args.which == 1:
        computed = morphic.table1()
        gold = golden.TABLE1_GOLDEN
        rows, diffs = [], []
        for row, (pair, g_m, g_c) in zip(computed, gold):
            ok = row.ceil_M == g_m and row.complement == g_c
            rows.append({
                "a": row.a, "b": row.b, "ceil_M": row.ceil_M,
                "complement": _set_str(row.complement),
                "matches_reference": ok,
            })
            if not ok:
                diffs.append({
                    "pair": list(pair),
                    "computed": [row.ceil_M, list(row.complement)],
                    "reference": [g_m, list(g_c)],
                })
        columns = ["a", "b", "ceil_M", "complement", "matches_reference"]
    else:
        computed2 = ternary.table2()
        gold2 = golden.TABLE2_GOLDEN
        rows, diffs = [], []
        matched = {tuple(r.weights): r.complement for r in computed2}
        for triple, g_c in gold2:
            ok = matched.get(triple, None) == g_c
            rows.append({
                "S0": triple[0], "S1": triple[1], "S2": triple[2],
                "complement": _set_str(matched.get(triple, ("?",))),
                "matches_reference": ok,
            })
            if not ok:
                diffs.append({"triple": list(triple),
                              "computed": list(matched.get(triple, ())),
                              "reference": list(g_c)})
        for triple in matched:
            if triple not in {t for t, _ in gold2}:
                diffs.append({"triple": list(triple),
                              "computed": list(matched[triple]),
                              "reference": None})
        columns = ["S0", "S1", "S2", "complement", "matches_reference"]
    status = "fail" if diffs else "ok"
    envelope = _envelope(
        "tables", {"which": args.which},
        {"max_len": 5**COVER_POWER if args.which == 1 else None,
         "bounds": None},
        status, args.timestamps, rows=rows, diffs=diffs)
    _emit(args.format, envelope, columns, rows)
    if diffs:
        print(f"{len(diffs)} row(s) differ from the reference table",
              file=sys.stderr)
    return 1 if diffs else 0


def _cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, quick=args.quick)
    rows = [
        {"suite": r.suite, "check": r.name,
         "status": "pass" if r.passed else "FAIL", "details": r.details}
        for r in results
    ]
    failed = sum(not r.passed for r in results)
    envelope = _envelope(
        "verify", {"suite": args.suite, "quick": args.quick},
        {"max_len": None, "bounds": None},
        "fail" if failed else "ok", args.timestamps,
        rows=rows,
        summary={"total": len(results), "failed": failed})
    _emit(args.format, envelope, ["suite", "check", "status", "details"], rows)
    print(f"{len(results) - failed}/{len(results)} checks passed",
          file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobwords",
        description="factor-language representability toolkit for four "
                    "infinite words (pf, fib, phi, t)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_format):
        p.add_argument("--format", choices=_FORMATS, default=default_format)
        p.add_argument("--timestamps", action="store_true",
                       help="include a timestamp (breaks byte-identical reruns)")

    p = sub.add_parser("prefix", help="print the length-n prefix of a word")
    p.add_argument("--word", choices=sorted(WORDS), required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    add_common(p, "text")
    p.set_defaults(func=_cmd_prefix)

    p = sub.add_parser("complexity",
                       help="abelian complexity over a range of lengths")
    p.add_argument("--word", choices=sorted(WORDS), required=True)
    p.add_argument("--n-min", type=_positive_int, required=True)
    p.add_argument("--n-max", type=_positive_int, required=True)
    add_common(p, "markdown")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("complement",
                       help="integers the factor values of a word never hit")
    p.add_argument("--word", choices=("phi", "t"), required=True)
    p.add_argument("--weights", type=_weights, required=True,
                   help="comma-separated letter weights, e.g. 2,5 or 1,1,2")
    p.add_argument("--bound", type=_positive_int, default=None)
    add_common(p, "markdown")
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("tables", help="recompute a reference table and diff it")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    add_common(p, "markdown")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("verify", help="run a claim-verification suite")
    p.add_argument("--suite", choices=("pf", "phi", "ternary", "all"),
                   required=True)
    p.add_argument("--quick", action="store_true",
                   help="CI-scale ranges instead of the full desk-scale ones")
    add_common(p, "markdown")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, StabilizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
