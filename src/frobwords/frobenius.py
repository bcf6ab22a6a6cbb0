"""Weight maps, classical two-coin Frobenius numbers, and representability
sets of factor languages.

A weight map sends each letter to a positive integer and a word to the sum
of its letter weights; the value set of a factor language is the image of
all factors.  For binary words the value set at each factor length is an
arithmetic progression determined by the zero envelope, which turns
complement computations over bounds near 10^5 into a cheap sweep.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .factors import (
    FactorSource,
    StabilizedDoubling,
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
]


class Weights(tuple):
    """Positive integer letter weights; the weight map is their dot product
    with a factor's Parikh vector."""

    def __new__(cls, values):
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
    max_factor_length, which by construction exceeds bound / min(weights).
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


def _binary_values_per_length(
    g: WordGenerator, weights: Weights, max_len: int, src: FactorSource | None
):
    """Yield (length, lowest value, step, count) of the value progression at
    each factor length of a binary word, from the zero envelope."""
    a, b = weights
    z_min, z_max = zero_envelope_table(g, max_len, src)
    for n in range(1, max_len + 1):
        lo, hi = int(z_min[n - 1]), int(z_max[n - 1])
        # values b*n + (a-b)*z for z in [lo, hi]
        v1 = b * n + (a - b) * lo
        v2 = b * n + (a - b) * hi
        start = min(v1, v2)
        step = abs(a - b)
        if step == 0:
            yield n, start, 1, 1
        else:
            yield n, start, step, hi - lo + 1


def representable_set(
    g: WordGenerator,
    weights: Weights,
    max_len: int,
    src: FactorSource | None = None,
) -> set:
    """All factor values over factor lengths 1..max_len.

    Binary generators go through the zero-envelope progressions; ternary
    ones through explicit Parikh sets.
    """
    weights = Weights(weights)
    weights.require_coprime()
    values: set[int] = set()
    if g.alphabet_size == 2:
        for _, start, step, count in _binary_values_per_length(g, weights, max_len, src):
            values.update(range(start, start + step * count, step))
    else:
        for row in parikh_set_table(g, max_len, src):
            values.update(v.dot(weights) for v in row)
    return values


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
    because a representing factor could hide beyond the scan.
    """
    weights = Weights(weights)
    weights.require_coprime()
    if bound < 1:
        raise ValueError("bound must be >= 1")
    needed = -(-bound // min(weights))
    if max_len is None:
        max_len = needed
    if max_len < bound / min(weights):
        raise ValueError(
            f"max_len={max_len} cannot decide representability below {bound}; "
            f"need at least {needed}"
        )
    hit = np.zeros(bound, dtype=bool)
    if g.alphabet_size == 2:
        method = "binary-envelope-interval"
        for _, start, step, count in _binary_values_per_length(g, weights, max_len, src):
            if start >= bound:
                continue
            stop = min(start + step * count, bound)
            hit[start:stop:step] = True
    else:
        method = "parikh-set-scan"
        for row in parikh_set_table(g, max_len, src):
            for vec in row:
                v = vec.dot(weights)
                if v < bound:
                    hit[v] = True
    complement = tuple(int(v) for v in np.flatnonzero(~hit) if v > 0)
    return ComplementReport(
        weights=weights,
        search_bound=bound,
        max_factor_length=max_len,
        complement=complement,
        method=method,
    )


def _representable_via_envelope(
    target: int, a: int, b: int, z_min: np.ndarray, z_max: np.ndarray
) -> bool:
    """Is target = a*z + b*(L-z) for some factor length L with z inside the
    envelope at L?  Envelope arrays are indexed by L-1."""
    max_len = len(z_min)
    for length in range(1, min(target // min(a, b), max_len) + 1):
        rem = target - b * length
        if a == b:
            if rem == 0:
                return True
            continue
        if rem % (a - b):
            continue
        z = rem // (a - b)
        if 0 <= z <= length and z_min[length - 1] <= z <= z_max[length - 1]:
            return True
    return False


def pf_witnesses(a: int, b: int, n_range, src: FactorSource | None = None):
    """Candidate non-representable targets a(2^(n-1)-2) + b(2^(n-1)+2) for the
    paperfolding word, each verified against the zero envelope at every
    feasible factor length.

    Requires 4 <= a < b with a, b coprime.
    """
    if not 4 <= a < b:
        raise ValueError("the construction needs 4 <= a < b")
    if math.gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) are not coprime")
    ns = list(n_range)
    targets = [a * (2 ** (n - 1) - 2) + b * (2 ** (n - 1) + 2) for n in ns]
    max_len = max(t // min(a, b) for t in targets)
    if src is None:
        src = StabilizedDoubling(max_length=2**22)
    z_min, z_max = zero_envelope_table(WORDS["pf"], max_len, src)
    return [
        WitnessResult(n, t, not _representable_via_envelope(t, a, b, z_min, z_max))
        for n, t in zip(ns, targets)
    ]
