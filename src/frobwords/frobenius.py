"""Weight maps, classical two-coin Frobenius numbers, and representability
sets of factor languages.

A weight map sends each letter to a positive integer and a word to the sum
of its letter weights; the value set of a factor language is the image of
all factors.  Every value set below a bound is computed as one boolean
mask.  For binary words the values at each factor length form an
arithmetic progression of step |a-b| read off the zero envelope, that is
one run of consecutive members of a residue class mod |a-b|; all runs go
into one difference array and one cumulative sum per class, with no loop
over factor lengths.  Ternary words mark the values of their Parikh sets.
"""

from __future__ import annotations

import math
import operator
import weakref
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .factors import (
    FactorSource,
    parikh,
    parikh_set_table,
    zero_envelope_table,
)
from .words import FiniteWord, WordGenerator, WORDS

__all__ = [
    "Weights",
    "ComplementReport",
    "WitnessResult",
    "sylvester_number",
    "s_value",
    "representable_set",
    "complement_below",
    "pf_witnesses",
    "VALUE_MASK_BUDGET",
]


class Weights(tuple):
    """Positive integer letter weights; the weight map is their dot product
    with a factor's Parikh vector.  Weights(w) is w itself when w is
    already a Weights: it is immutable and was validated when built."""

    def __new__(cls, values):
        if type(values) is cls is Weights:
            return values
        try:
            values = tuple(map(operator.index, values))
        except TypeError:  # a float or other non-integral weight
            values = ()
        if not values or min(values) < 1:
            raise ValueError("weights must be positive integers")
        return super().__new__(cls, values)

    @property
    def gcd(self) -> int:
        return math.gcd(*self) if len(self) > 1 else self[0]

    def require_coprime(self):
        if self.gcd != 1:
            raise ValueError(f"weights {tuple(self)} are not coprime")


@dataclass(frozen=True)
class ComplementReport:
    """Positive integers below a bound that no factor value attains.

    Every listed value was checked against all factor lengths up to
    max_factor_length, which by construction is at least
    ceil(bound / min(weights)).
    """

    weights: Weights
    search_bound: int
    max_factor_length: int
    complement: tuple
    method: str


@dataclass(frozen=True)
class WitnessResult:
    n: int
    target: int
    verified_nonrepresentable: bool


def sylvester_number(a: int, b: int) -> int:
    """Largest integer not representable as xa+yb with x,y >= 0, for coprime a,b.

    Equals ab - a - b (negative when a or b is 1: everything is representable).
    """
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive")
    if math.gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) are not coprime")
    return a * b - a - b


def s_value(w: FiniteWord, weights: Weights) -> int:
    """Weight of a word: dot product of its Parikh vector with the weights."""
    if len(weights) != w.alphabet_size:
        raise ValueError("weights do not match the word's alphabet")
    return parikh(w).dot(weights)


# Per-generator complement memo: (weights, max_len, src) as the caller passed
# them -> (ceiling, tuple of the sorted positive non-values below ceiling);
# keys die with their generators.
_COMPLEMENT_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: Largest value mask, in integers, that any request may build, checked
#: before the mask is allocated.  The binary kernel peaks at 16 bytes per
#: integer, 256 MiB at the budget; table 1 with weights up to 8 needs
#: 3,162,508.
VALUE_MASK_BUDGET = 2**24

#: Largest value mask, in integers, that complement_below builds past the
#: bound it was asked for, so that later bounds of the same request are
#: lookups.  A bound above it builds exactly the bound.
COMPLEMENT_MEMO_SPAN = 2**16


def _envelope_mask(z_min, z_max, a: int, b: int, bound: int) -> np.ndarray:
    """Boolean mask over 0..bound-1 of the values a*z + b*(n-z) with
    z_min[n-1] <= z <= z_max[n-1], for every length n of the envelope.

    The values at one length step by |a-b|, so inside one residue class mod
    |a-b| they are one run of consecutive class members.  The classes are
    laid out as the rows of a grid whose last column collects the runs that
    reach past bound; each run adds +1 at its first member and -1 after its
    last, and one cumsum per row turns the counts into the mask.
    """
    step = abs(a - b) or 1  # a == b: one value per length, one class
    n = np.arange(1, len(z_min) + 1, dtype=np.int64)
    v1 = b * n + (a - b) * np.asarray(z_min, dtype=np.int64)
    v2 = b * n + (a - b) * np.asarray(z_max, dtype=np.int64)
    lo, hi = np.minimum(v1, v2), np.maximum(v1, v2)
    keep = lo < bound
    lo, hi = lo[keep], hi[keep]
    cols = -(-bound // step)  # members of class 0 below bound
    width = cols + 1
    row = lo % step * width
    runs = np.bincount(row + lo // step, minlength=step * width)
    runs -= np.bincount(row + np.minimum(hi // step + 1, cols),
                        minlength=step * width)
    runs = runs.reshape(step, width).cumsum(axis=1)[:, :cols]
    return (runs > 0).T.ravel()[:bound]


def _value_mask(
    g: WordGenerator,
    weights: Weights,
    bound: int,
    max_len: int,
    src: FactorSource | None,
) -> np.ndarray:
    """Boolean mask over 0..bound-1 of the factor values of lengths 1..max_len.

    Binary words go through the zero envelope (_envelope_mask); ternary
    ones mark the values of their explicit Parikh sets.  The tables check
    their own budgets first; a bound over VALUE_MASK_BUDGET is then refused
    before the mask is allocated.
    """
    if len(weights) != g.alphabet_size:
        raise ValueError("weights do not match the word's alphabet")
    if g.alphabet_size == 2:
        table = zero_envelope_table(g, max_len, src)
    else:
        table = parikh_set_table(g, max_len, src)
    if bound > VALUE_MASK_BUDGET:
        raise ValueError(
            f"a value mask over {bound} integers exceeds the budget "
            f"VALUE_MASK_BUDGET = {VALUE_MASK_BUDGET} integers")
    if g.alphabet_size == 2:
        return _envelope_mask(*table, *weights, bound)
    vectors = [v for row in table for v in row]
    values = np.array(vectors, dtype=np.int64).reshape(-1, len(weights)) @ weights
    mask = np.zeros(bound, dtype=bool)
    mask[values[values < bound]] = True
    return mask


def representable_set(
    g: WordGenerator,
    weights: Weights,
    max_len: int,
    src: FactorSource | None = None,
) -> set:
    """All factor values over factor lengths 1..max_len.

    They are read off the value mask (see _value_mask) up to the largest
    possible value, max_len * max(weights).
    """
    weights = Weights(weights)
    weights.require_coprime()
    mask = _value_mask(g, weights, max_len * max(weights) + 1, max_len, src)
    return set(np.flatnonzero(mask).tolist())


def complement_below(
    g: WordGenerator,
    weights: Weights,
    bound: int,
    max_len: int | None = None,
    src: FactorSource | None = None,
) -> ComplementReport:
    """Sorted positive integers below ``bound`` that are not factor values.

    max_len defaults to the smallest factor-length budget that can decide
    the bound, ceil(bound / min(weights)); anything smaller is rejected
    because a representing factor could hide beyond the scan.  The
    complement is the unset part of one value mask (see _value_mask).

    Repeated requests are lookups.  Each request key, (weights, max_len,
    src) as passed, keeps one memo entry per generator: the sorted
    non-values below a ceiling, from one value mask, as a tuple.  Every
    value below max_len * min(weights) comes from lengths <= max_len, and
    no larger bound passes the max_len check, so the ceiling is that
    product, cut to 2 * max(bound, max_len) and to COMPLEMENT_MEMO_SPAN, but
    never below the bound: a bound above the span builds exactly the
    bound's mask.  A bound within the ceiling is one binary search and a
    slice of that tuple; a larger one replaces the entry.  The weights
    (through Weights), bound and max_len checks run on every call.
    Coprimality runs only on a miss: an entry exists only for weights that
    passed it, and equal weights have the same gcd.  The source's own
    checks ran when the entry was built.  The memo is not bounded in the
    number of keys: each distinct (weights, max_len, src) keeps its entry
    until its generator dies or frobwords.clear_caches() runs.
    """
    weights = Weights(weights)
    key = (weights, max_len, src)
    memo = _COMPLEMENT_MEMO.get(g)
    entry = memo.get(key) if memo is not None else None
    if entry is None:
        weights.require_coprime()
    if bound < 1:
        raise ValueError("bound must be >= 1")
    needed = -(-bound // min(weights))
    if max_len is None:
        max_len = needed
    if max_len < needed:
        raise ValueError(
            f"max_len={max_len} cannot decide representability below {bound}; "
            f"need at least {needed}"
        )
    if entry is None or entry[0] < bound:
        ceiling = max(bound, min(max_len * min(weights), 2 * max(bound, max_len),
                                 COMPLEMENT_MEMO_SPAN))
        hit = _value_mask(g, weights, ceiling, max_len, src)
        entry = ceiling, tuple((np.flatnonzero(~hit[1:]) + 1).tolist())
        if memo is None:
            memo = _COMPLEMENT_MEMO[g] = {}
        memo[key] = entry
    nonvalues = entry[1]
    return ComplementReport(
        weights, bound, max_len, nonvalues[:bisect_left(nonvalues, bound)],
        "binary-envelope-interval" if g.alphabet_size == 2 else "parikh-set-scan")


def pf_witnesses(a: int, b: int, n_range, src: FactorSource | None = None):
    """Candidate non-representable targets a(2^(n-1)-2) + b(2^(n-1)+2) for the
    paperfolding word, each verified against one value mask over every
    feasible factor length.

    Requires 4 <= a < b with a, b coprime, and n >= 1.  The envelopes come
    from src, by default the certified 2-recursion (factors.default_source),
    so the longest length, max(target) // a, must lie within
    factors.CERTIFIED_TABLE_BUDGET; an explicit src is always used as given.
    """
    if not 4 <= a < b:
        raise ValueError("the construction needs 4 <= a < b")
    if math.gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) are not coprime")
    ns = list(n_range)
    if any(n < 1 for n in ns):
        raise ValueError("n must be >= 1")
    targets = [a * (2 ** (n - 1) - 2) + b * (2 ** (n - 1) + 2) for n in ns]
    if not targets:
        return []
    hit = _value_mask(WORDS["pf"], Weights((a, b)), max(targets) + 1,
                      max(targets) // a, src)
    return [WitnessResult(n, t, not hit[t]) for n, t in zip(ns, targets)]
