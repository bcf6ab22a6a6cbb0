"""Representability pipeline for the quintic morphic word.

The zero counts of its length-n factors fill the whole interval
[z_min(n), z_max(n)], and that envelope drifts away from n/3 on both sides
at a guaranteed rate once n >= 132 * 5^(C-4).  From the drift one gets, for
each coprime weight pair (a, b), an explicit bound M(a,b) above which every
integer is a factor value, and the finite complement below the bound is
computed exactly from the envelopes up to r(a,b) = ceil(M / min(a,b)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .factors import zero_envelope_table
from .frobenius import ComplementReport, Weights, complement_below
from .golden import TABLE1_PAIRS
from .words import WORDS

__all__ = [
    "PhiBoundParams",
    "AbBound",
    "BaseCaseReport",
    "COVER_POWER",
    "phi_envelope_table",
    "verify_phi_base_case",
    "verify_pvects_window",
    "ab_bound",
    "Table1Row",
    "table1",
]

#: A cover power whose windows, to 5^7 = 78125, exceed every r(a,b) of
#: table 1.  No envelope depends on it, since desubstitution needs no
#: cover; it stays because `tables --which 1 --format json` prints
#: 5**COVER_POWER as budget.max_len and the benchmark passes
#: MorphicCover(COVER_POWER).
COVER_POWER = 7

BASE_CASE_MAX_RANGE = (29, 145)
BASE_CASE_MIN_RANGE = (132, 660)


@dataclass(frozen=True)
class PhiBoundParams:
    """Envelope-drift window: for n >= N_C the envelope clears n/3 by C."""

    C: int

    def __post_init__(self):
        if self.C < 4:
            raise ValueError("the drift guarantee starts at C = 4")

    @property
    def N_C(self) -> int:
        return 132 * 5 ** (self.C - 4)


@dataclass(frozen=True)
class AbBound:
    """Exact representability bound for one coprime weight pair."""

    a: int
    b: int
    C: int
    M: Fraction
    ceil_M: int
    r: int


@dataclass(frozen=True)
class BaseCaseReport:
    direction: str
    n_range: tuple[int, int]
    results: dict
    passed: bool


def phi_envelope_table(n_max: int):
    """Shared (z_min, z_max) envelope of the morphic word for 1..n_max."""
    return zero_envelope_table(WORDS["phi"], n_max)


def verify_phi_base_case(direction: str) -> BaseCaseReport:
    """Computer verification of the envelope drift on its base ranges.

    direction="max" checks z_max(n) >= n/3 + 4 on 29..145;
    direction="min" checks z_min(n) <= n/3 - 4 on 132..660.
    Comparisons are done as 3*z vs n +- 12, so there is no rounding.
    """
    if direction == "max":
        lo, hi = BASE_CASE_MAX_RANGE
    elif direction == "min":
        lo, hi = BASE_CASE_MIN_RANGE
    else:
        raise ValueError("direction must be 'max' or 'min'")
    z_min, z_max = phi_envelope_table(hi)
    results = {}
    for n in range(lo, hi + 1):
        if direction == "max":
            results[n] = 3 * int(z_max[n - 1]) >= n + 12
        else:
            results[n] = 3 * int(z_min[n - 1]) <= n - 12
    return BaseCaseReport(direction, (lo, hi), results, all(results.values()))


def verify_pvects_window(n: int, C: int) -> bool:
    """Does the envelope at length n clear floor(n/3) by C on both sides?

    Equivalent to every zero count floor(n/3)+D for -C <= D <= C occurring
    among length-n factors, because the zero counts fill an interval.
    """
    params = PhiBoundParams(C)
    if n < params.N_C:
        raise ValueError(f"n={n} is below the guaranteed window start {params.N_C}")
    z_min, z_max = phi_envelope_table(n)
    third = n // 3
    return int(z_min[n - 1]) <= third - C and int(z_max[n - 1]) >= third + C


def ab_bound(a: int, b: int) -> AbBound:
    """Exact bound above which every integer is a factor value, for weights
    (a, b); all arithmetic in rationals, ceilings only at the reported edge."""
    if a < 1 or b < 1:
        raise ValueError("weights must be positive")
    if math.gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) are not coprime")
    C = math.ceil(max(1 + Fraction(a + 2 * b, 3), Fraction(b), Fraction(b - a, 3),
                      Fraction(4)))
    M = max(
        Fraction((a + 2 * b) * max(a, b)),
        Fraction(a + 2 * b, 3) * (132 * 5 ** (C - 4) + abs(a - b)),
    )
    ceil_M = math.ceil(M)
    r = math.ceil(M / min(a, b))
    return AbBound(a=a, b=b, C=C, M=M, ceil_M=ceil_M, r=r)


@dataclass(frozen=True)
class Table1Row:
    a: int
    b: int
    ceil_M: int
    complement: tuple
    report: ComplementReport


def table1(pairs=None) -> list[Table1Row]:
    """Recompute the full complement table for the morphic word.

    For each pair: bound = ceil(M(a,b)), complement of the value set below
    the bound using envelopes up to r(a,b), from one shared envelope table.
    Rows come back in the order given (reference order by default).
    """
    if pairs is None:
        pairs = TABLE1_PAIRS
    bounds = [ab_bound(a, b) for a, b in pairs]
    phi = WORDS["phi"]
    # One shared envelope table covers every row.
    phi_envelope_table(max(bd.r for bd in bounds))
    rows = []
    for bd in bounds:
        report = complement_below(
            phi, Weights((bd.a, bd.b)), bound=bd.ceil_M, max_len=bd.r)
        rows.append(
            Table1Row(bd.a, bd.b, bd.ceil_M, report.complement, report)
        )
    return rows
