"""Weight maps, classical two-coin Frobenius numbers, and representability
sets of factor languages.

A weight map sends each letter to a positive integer and a word to the sum
of its letter weights; the value set of a factor language is the image of
all factors.

For binary words with coprime weights (a, b) and d = |a-b| (1 when
a = b), the values at factor length n are b*n + (a-b)*z for the zero
counts z_min(n) <= z <= z_max(n) of the zero envelope: one run of
consecutive members of the residue class b*n mod d, the two-coin
residue-class (Apery set) view of Ramirez Alfonsin, *The Diophantine
Frobenius Problem* (2005).  Since gcd(b, d) = 1, the lengths of one class
are one chain n, n+d, n+2d, ...  Every (n+1)-window contains an n-window,
so z_max(n+d) <= z_max(n) + d and z_min(n+d) >= z_min(n): along a chain
the run start b*n - d*z_max(n) rises by at least a*d when a < b, and
b*n + d*z_min(n) by at least b*d when a > b.  With the runs of a class
in rising order, its non-values are its members before the first run and
in the gaps after the running maximum of the run ends (_run_chains).
That takes time and memory linear in the lengths and in the answer, with
no array as large as the bound.  Ternary words mark the values of
their Parikh sets in one boolean mask.
"""

from __future__ import annotations

import math
import operator
import weakref
from bisect import bisect_left
from collections import namedtuple
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


class ComplementReport(namedtuple(
        "ComplementReport",
        "weights search_bound max_factor_length complement method")):
    """Positive integers below a bound that no factor value attains.

    Every listed value was checked against all factor lengths up to
    max_factor_length, which by construction is at least
    ceil(bound / min(weights)).

    An immutable record on a tuple, so that complement_below builds it in
    one tuple.__new__; it equals only another ComplementReport, and
    hashes as the tuple of its fields.
    """

    __slots__ = ()

    def __eq__(self, other):
        # False, not NotImplemented: a plain tuple's reflected __eq__ would
        # compare the fields
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    __ne__ = object.__ne__
    __hash__ = tuple.__hash__


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


# Complement memo: id(generator) -> _GeneratorMemo of (weights, max_len, src)
# as the caller passed them -> (ceiling, tuple of the sorted positive
# non-values below ceiling, min(weights), report method).  A dict keyed by
# id, not a WeakKeyDictionary, so that a lookup builds no weakref; each
# _GeneratorMemo holds the one weakref whose callback drops it when its
# generator dies, before the id can be reused.
_COMPLEMENT_MEMO: dict = {}

#: Most request keys the complement memo keeps per generator.  Past it, a
#: miss drops the oldest key, in insertion order; a hit pays nothing.
#: ``verify --suite phi`` uses 43 keys and table 1 23.
COMPLEMENT_MEMO_KEYS = 1024

#: Largest bound, in integers, that any request may ask values below,
#: checked after the factor tables are built.  The ternary value mask
#: takes one byte per integer; the binary run chains need no array as
#: large as the bound, but keep the limit until a cofiniteness
#: certificate replaces it.  Table 1 with weights up to 8 needs 3,162,508.
VALUE_MASK_BUDGET = 2**24

#: Largest bound, in integers, that complement_below answers past the
#: bound it was asked for, so that later bounds of the same request are
#: lookups.  A bound above it builds exactly the bound.
COMPLEMENT_MEMO_SPAN = 2**16


def _run_chains(z_min, z_max, a: int, b: int, bound: int,
                covered: bool) -> np.ndarray:
    """Sorted positive integers below bound that are not (covered: that
    are) values a*z + b*(n-z) with z_min[n-1] <= z <= z_max[n-1] for some
    length n of the envelope; a and b coprime.

    With d = |a-b| (1 when a = b) and b*n = c + d*k, the run at length n is
    c + d*[k - z_max, k - z_min] when a < b and c + d*[k + z_min, k + z_max]
    when a >= b (z drops out when a = b).  The lengths n = r+1, r+1+d, ...
    are the chain of column r of a grid with min(d, lengths) columns,
    closed by sentinel runs at the bound, so one running maximum down each
    column gives the largest member reached before each run (see the module
    docstring).  A run adds the members past that maximum, and the gap
    before it is the members between that maximum and its start.  When d
    exceeds the lengths, every member below the bound of a class that no
    length reaches is missing too.  Time and memory are linear in the
    lengths and in the answer, which is sorted once.  An envelope whose
    run starts do not rise along a chain breaks the window law this rests
    on, and is refused.
    """
    d = abs(a - b) or 1
    length = len(z_min)
    if a != b:
        z_first = z_max if a < b else z_min  # zeros at the run's first member
        rise = z_first[d:] - z_first[:-d]
        if not (rise < b if a < b else rise > -b).all():
            raise ValueError(
                "the envelope breaks the window law: run starts do not rise "
                f"along the lengths of a residue class mod {d}")
    width = min(d, length)  # the columns that hold a length
    rows = -(-length // d) + 1  # at least one sentinel per column
    k = np.arange(b, b * (length + 1), b, dtype=np.int64)
    if d > 1:
        k //= d
    start = np.empty(rows * width, dtype=np.int64)
    end = np.empty((rows + 1) * width, dtype=np.int64)  # a first row before all
    classes = np.arange(b, b * (width + 1), b, dtype=np.int64) % d
    end[:width] = (classes == 0) - 1  # 0 is not positive
    if a < b:
        np.subtract(k, z_max, out=start[:length])
        np.subtract(k, z_min, out=end[width:width + length])
    elif a > b:
        np.add(k, z_min, out=start[:length])
        np.add(k, z_max, out=end[width:width + length])
    else:
        start[:length] = end[width:width + length] = k
    start[length:] = end[width + length:] = bound
    reach = np.maximum.accumulate(end.reshape(rows + 1, width), axis=0)
    reach = reach.ravel()[:-width]
    end = end[width:]
    at = np.flatnonzero((end if covered else start) > reach)
    cls = classes[at % width]
    stop = -(-(bound - cls) // d)  # class members below bound
    if covered:
        lo = np.maximum(start[at], reach[at] + 1)
        hi = np.minimum(end[at] + 1, stop)
    else:
        lo, hi = reach[at] + 1, np.minimum(start[at], stop)
        if d > length:  # classes below bound that no length reaches
            free = np.ones(min(d, bound), dtype=bool)
            free[classes[classes < bound]] = False
            free = np.flatnonzero(free)
            cls = np.concatenate((cls, free))
            lo = np.concatenate((lo, free == 0))
            hi = np.concatenate((hi, -(-(bound - free) // d)))
    count = np.maximum(hi - lo, 0)
    skip = np.cumsum(count) - count  # members listed before each slice
    members = np.repeat(cls + d * (lo - skip), count)
    members += d * np.arange(len(members))
    members.sort()
    return members


def _values_below(
    g: WordGenerator,
    weights: Weights,
    bound: int,
    max_len: int,
    src: FactorSource | None,
    covered: bool,
) -> np.ndarray:
    """Sorted positive integers below bound that are not (covered: that
    are) factor values of lengths 1..max_len.

    Binary words read them off their run chains (_run_chains); ternary
    ones mark the values of their explicit Parikh sets in a boolean mask.
    The tables check their own budgets first; a bound over
    VALUE_MASK_BUDGET is then refused.
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
        return _run_chains(*table, *weights, bound, covered)
    vectors = [v for row in table for v in row]
    values = np.array(vectors, dtype=np.int64).reshape(-1, len(weights)) @ weights
    mask = np.zeros(bound, dtype=bool)
    mask[values[values < bound]] = True
    return np.flatnonzero(mask) if covered else np.flatnonzero(~mask[1:]) + 1


def representable_set(
    g: WordGenerator,
    weights: Weights,
    max_len: int,
    src: FactorSource | None = None,
) -> set:
    """All factor values over factor lengths 1..max_len.

    They are the covered members of the run chains of a binary word, or
    the marked part of a ternary word's value mask (see _values_below), up
    to the largest possible value, max_len * max(weights).
    """
    weights = Weights(weights)
    weights.require_coprime()
    return set(_values_below(g, weights, max_len * max(weights) + 1, max_len,
                             src, covered=True).tolist())


class _GeneratorMemo(dict):
    """One generator's complement memo entries, with the weakref whose
    callback removes them from _COMPLEMENT_MEMO when the generator dies.
    Dropping the memo drops the weakref, and with it the callback."""

    __slots__ = ("ref",)

    def __init__(self, g: WordGenerator):
        key, memos = id(g), _COMPLEMENT_MEMO
        self.ref = weakref.ref(g, lambda ref: memos.pop(key, None))


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
    complement is read off the run chains of a binary word, or the value
    mask of a ternary one (see _values_below).

    Repeated requests are lookups.  Each request key, (weights, max_len,
    src) as passed, keeps one memo entry per generator: the sorted
    non-values below a ceiling as a tuple, with min(weights) and the
    report's method.  Every value below max_len * min(weights) comes from
    lengths <= max_len, and no larger bound passes the max_len check, so
    the ceiling is that product, cut to 2 * max(bound, max_len) and to
    COMPLEMENT_MEMO_SPAN, but never below the bound: a bound above the
    span builds exactly the bound's answer.  A bound within the ceiling is
    one binary search and a slice of that tuple; a larger one replaces the
    entry.  The bound and max_len checks run on every call, and so does
    Weights for weights that are not already a Weights (one was validated
    when it was built, and is immutable).  Coprimality runs only on a
    miss: an entry exists only for weights that passed it, and equal
    weights have the same gcd.  The source's own checks ran when the
    entry was built.  A generator keeps at most COMPLEMENT_MEMO_KEYS keys,
    and a miss past that drops its oldest; its entries go when it dies or
    frobwords.clear_caches() runs.
    """
    if type(weights) is not Weights:
        weights = Weights(weights)
    key = (weights, max_len, src)
    memo = _COMPLEMENT_MEMO.get(id(g))
    entry = memo.get(key) if memo is not None else None
    if entry is None:
        weights.require_coprime()
        ceiling, least = 0, min(weights)
    else:
        ceiling, nonvalues, least, method = entry
    if bound < 1:
        raise ValueError("bound must be >= 1")
    needed = -(-bound // least)
    if max_len is None:
        max_len = needed
    if max_len < needed:
        raise ValueError(
            f"max_len={max_len} cannot decide representability below {bound}; "
            f"need at least {needed}"
        )
    if ceiling < bound:
        ceiling = max(bound, min(max_len * least, 2 * max(bound, max_len),
                                 COMPLEMENT_MEMO_SPAN))
        nonvalues = tuple(_values_below(g, weights, ceiling, max_len, src,
                                        covered=False).tolist())
        method = ("binary-envelope-interval" if g.alphabet_size == 2
                  else "parikh-set-scan")
        if memo is None:
            memo = _COMPLEMENT_MEMO[id(g)] = _GeneratorMemo(g)
        elif entry is None and len(memo) >= COMPLEMENT_MEMO_KEYS:
            del memo[next(iter(memo))]
        memo[key] = ceiling, nonvalues, least, method
    return tuple.__new__(ComplementReport, (
        weights, bound, max_len, nonvalues[:bisect_left(nonvalues, bound)],
        method))


def pf_witnesses(a: int, b: int, n_range, src: FactorSource | None = None):
    """Candidate non-representable targets a(2^(n-1)-2) + b(2^(n-1)+2) for the
    paperfolding word, each verified against the run chains of every
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
    missing = set(_values_below(WORDS["pf"], Weights((a, b)), max(targets) + 1,
                                max(targets) // a, src, covered=False).tolist())
    return [WitnessResult(n, t, t in missing) for n, t in zip(ns, targets)]
