"""Cofiniteness decision for the value sets of the balanced ternary word.

For a ternary weight triple (S0, S1, S2) the values of the length-n factors
of t are three explicit numbers: a half-integer main term m(n) plus one of
six constant offsets, with the choice of offsets governed by the parity of
zeros in the Fibonacci prefix f[1, n-1].  The first differences of m form a
two-letter sequence F riding on the Fibonacci word, and whether the value
set misses infinitely many integers reduces to a finite check: slide a
window of fixed length l over F, and ask whether the window's interval of
"reachable" integers is fully covered by its semi-images at both parities.
The windows are the l+2 Fibonacci factors of length l+1, all found by one
refinement of first-occurrence ids (_fib_factor_starts); their count is the
certificate.  The direct scan of t that checks the complements is in verify.

Everything is computed in exact half-integer arithmetic (class Half); no
division and no floats ever enter the decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .factors import ParikhVector
from .frobenius import Weights
from .words import WORDS, floor_alpha, floor_phi

__all__ = [
    "Half",
    "OffsetTable",
    "InfiniteWitness",
    "TernaryDecision",
    "Table2Row",
    "offsets",
    "main_term",
    "f_sequence",
    "mu",
    "mu_printed_closed_form",
    "mu_divergence",
    "generating_prefix_parikh",
    "g_values",
    "interval_I",
    "semi_image",
    "semi_complement",
    "decision_window_length",
    "enumerate_fib_factors",
    "decide_cofinite",
    "finite_complement",
    "table2",
]


class Half:
    """Exact scalar with denominator 2, stored as twice its value.

    Half(5) is the number 2.5; use Half.from_int for whole numbers.
    Addition, subtraction, negation, integer scaling and comparison are
    exact and closed; division does not exist here by design.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        object.__setattr__(self, "twice", int(twice))

    def __setattr__(self, name, value):
        raise AttributeError("Half is immutable")

    @classmethod
    def from_int(cls, n: int) -> "Half":
        return cls(2 * n)

    @staticmethod
    def _coerce(other) -> "Half":
        if isinstance(other, Half):
            return other
        if isinstance(other, int):
            return Half(2 * other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else Half(self.twice + other.twice)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else Half(self.twice - other.twice)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else Half(other.twice - self.twice)

    def __mul__(self, factor: int):
        if not isinstance(factor, int):
            return NotImplemented
        return Half(self.twice * factor)

    __rmul__ = __mul__

    def __neg__(self):
        return Half(-self.twice)

    def __abs__(self):
        return Half(abs(self.twice))

    def _cmp_key(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other.twice

    def __eq__(self, other):
        key = self._cmp_key(other)
        return NotImplemented if key is NotImplemented else self.twice == key

    def __lt__(self, other):
        key = self._cmp_key(other)
        return NotImplemented if key is NotImplemented else self.twice < key

    def __le__(self, other):
        key = self._cmp_key(other)
        return NotImplemented if key is NotImplemented else self.twice <= key

    def __gt__(self, other):
        key = self._cmp_key(other)
        return NotImplemented if key is NotImplemented else self.twice > key

    def __ge__(self, other):
        key = self._cmp_key(other)
        return NotImplemented if key is NotImplemented else self.twice >= key

    def __hash__(self):
        return hash(self.twice) if self.twice % 2 else hash(self.twice // 2)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_int(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def floor(self) -> int:
        return self.twice // 2

    def ceil(self) -> int:
        return -((-self.twice) // 2)

    def __str__(self) -> str:
        return str(self.twice // 2) if self.is_integer else f"{self.twice / 2:.1f}"

    def __repr__(self) -> str:
        return f"Half({self.twice})"


_ZERO = Half(0)


def _require_triple(s) -> Weights:
    s = Weights(s)
    if len(s) != 3:
        raise ValueError("ternary machinery needs exactly three weights")
    return s


@dataclass(frozen=True)
class OffsetTable:
    """The six value offsets of a triple and their maximum magnitude k.

    o1..o3 apply when the zero count of the governing Fibonacci prefix is
    odd, e1..e3 when it is even; o1 is also the half-integer part k1 of the
    difference sequence F.
    """

    o1: Half
    o2: Half
    o3: Half
    e1: Half
    e2: Half
    e3: Half
    k: Half

    def odd(self) -> tuple[Half, Half, Half]:
        return (self.o1, self.o2, self.o3)

    def even(self) -> tuple[Half, Half, Half]:
        return (self.e1, self.e2, self.e3)


def offsets(s) -> OffsetTable:
    """Exact offset table of a weight triple."""
    s0, s1, s2 = _require_triple(s)
    o1 = Half(s0 - 2 * s1 + s2)
    o2 = Half(s0 - s2)
    o3 = -o2
    e1 = Half.from_int(s0 - s1)
    e2 = Half.from_int(s2 - s1)
    e3 = _ZERO
    k = max(abs(x) for x in (o1, o2, o3, e1, e2, e3))
    return OffsetTable(o1, o2, o3, e1, e2, e3, k)


def main_term(n: int, s) -> Half:
    """Half-integer backbone of the value set at length n:
    (floor(n phi)(S0 - 2 S1 + S2) - n (S0 - 4 S1 + S2)) / 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s0, s1, s2 = _require_triple(s)
    return Half(floor_phi(n) * (s0 - 2 * s1 + s2) - n * (s0 - 4 * s1 + s2))


def _step(bit: int, s: Weights) -> Half:
    # F value riding on a Fibonacci letter: (S0+S2)/2 on a 0, S1 on a 1.
    s0, s1, s2 = s
    return Half(s0 + s2) if bit == 0 else Half.from_int(s1)


def f_sequence(i: int, j: int, s) -> list[Half]:
    """The first-difference sequence F[i..j] of the main terms (inclusive)."""
    if not 1 <= i <= j:
        raise ValueError("need 1 <= i <= j")
    s = _require_triple(s)
    bits = WORDS["fib"].prefix_array(j)[i - 1 : j]
    return [_step(int(b), s) for b in bits]


def mu(n: int) -> int:
    """Parity of the zero count of f[1, n-1]; the offset selector at length n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0
    return (n - 1 - floor_alpha(n)) % 2


def mu_printed_closed_form(n: int) -> int:
    """The selector as the closed form (n-1-floor((n-1) alpha)) mod 2.

    This form shifts the floor index by one relative to the prefix parity
    and disagrees with mu(n) exactly when f[n-1] = 1; it is kept only so the
    divergence can be surfaced and tested, never used in a decision.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return (n - 1 - floor_alpha(n - 1)) % 2


def mu_divergence(limit: int) -> list[int]:
    """Indices 2..limit where the printed closed form disagrees with mu."""
    return [n for n in range(2, limit + 1) if mu(n) != mu_printed_closed_form(n)]


_VARIANTS = ("T0", "T1", "Tbar0", "Tbar1")


def generating_prefix_parikh(n: int, variant: str) -> ParikhVector:
    """Parikh vector of an extended Fibonacci prefix under the alternate-zero
    substitution, by the closed formulas.

    The four variants prepend 0 or 1 to f[1,n] and replace alternate zeros
    starting with the second ("T...") or the first ("Tbar...") zero.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    h = floor_alpha(n + 1)  # number of ones in f[1,n]
    z = n - h
    if z % 2 == 1:
        table = {
            "T0": ((n - h + 1) // 2, h, (n - h + 1) // 2),
            "Tbar0": ((n - h + 1) // 2, h, (n - h + 1) // 2),
            "T1": ((n - h + 1) // 2, h + 1, (n - h - 1) // 2),
            "Tbar1": ((n - h - 1) // 2, h + 1, (n - h + 1) // 2),
        }
    else:
        table = {
            "T0": ((n - h) // 2 + 1, h, (n - h) // 2),
            "Tbar0": ((n - h) // 2, h, (n - h) // 2 + 1),
            "T1": ((n - h) // 2, h + 1, (n - h) // 2),
            "Tbar1": ((n - h) // 2, h + 1, (n - h) // 2),
        }
    return ParikhVector(table[variant])


def g_values(n: int, s) -> frozenset:
    """The exact value set of the length-n factors of t (at most 3 integers).

    Every value must come out integral; a non-integral result would mean the
    offset bookkeeping is broken and raises immediately.
    """
    s = _require_triple(s)
    tab = offsets(s)
    m = main_term(n, s)
    p = mu(n)
    g1 = m + tab.e1 + tab.o3 * p
    g2 = m + tab.e2 + (tab.o2 - tab.e2) * p
    g3 = m + tab.o3 * p
    out = set()
    for g in (g1, g2, g3):
        if not g.is_integer:
            raise RuntimeError(
                f"non-integral factor value {g} at n={n} for weights {tuple(s)}"
            )
        out.add(g.as_int())
    return frozenset(out)


def interval_I(window: Sequence[Half], next_term: Half, k: Half) -> tuple[Half, Half]:
    """Closed interval [k+1, sum(window) + next_term - (k+1)]; may be empty."""
    if not window:
        raise ValueError("window must be nonempty")
    lo = k + 1
    total = _ZERO
    for x in window:
        total = total + x
    return lo, total + next_term - lo


def semi_image(factor_bits: Sequence[int], s, parity: int) -> frozenset:
    """Values reachable along a window of F at a fixed zero-parity phase.

    ``factor_bits`` is the Fibonacci factor under the window; partial sums
    run over the window only.  parity=0 assumes an even number of zeros
    precedes the window, parity=1 an odd number (returned unshifted; the
    consumer adds the (S0+S2)/2 step when forming the odd complement).
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    s = _require_triple(s)
    tab = offsets(s)
    out = set()
    partial = _ZERO
    zeros = 0
    for bit in factor_bits:
        partial = partial + _step(int(bit), s)
        if bit == 0:
            zeros += 1
        phase = zeros % 2 if parity == 0 else 1 - zeros % 2
        shifts = tab.odd() if phase else tab.even()
        for off in shifts:
            out.add(partial + off)
    return frozenset(out)


def semi_complement(factor_bits: Sequence[int], s, parity: int) -> frozenset:
    """Integers inside the window's interval missed by its semi-image.

    ``factor_bits`` has the window bits plus one following bit; the trailing
    bit only feeds the interval's right endpoint.  For parity=1 both the
    interval and the semi-image are shifted by (S0+S2)/2 before the integer
    filter, mirroring the definition of the odd complement.
    """
    if len(factor_bits) < 2:
        raise ValueError("need at least one window bit plus the following bit")
    s = _require_triple(s)
    tab = offsets(s)
    window_bits = list(factor_bits[:-1])
    window = [_step(int(b), s) for b in window_bits]
    nxt = _step(int(factor_bits[-1]), s)
    lo, hi = interval_I(window, nxt, tab.k)
    image = semi_image(window_bits, s, parity)
    if parity == 1:
        shift = _step(0, s)  # k1 + S1 = (S0+S2)/2
        lo, hi = lo + shift, hi + shift
        image = frozenset(x + shift for x in image)
    integral_image = {x.as_int() for x in image if x.is_integer}
    first = max(lo.ceil(), 0)
    return frozenset(
        v for v in range(first, hi.floor() + 1) if v not in integral_image
    )


# ---------------------------------------------------------------------------
# The decision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfiniteWitness:
    """One window of F whose semi-complement misses an integer; by well
    distributed occurrences that window recurs at the bad parity forever."""

    factor_start_index: int
    parity: int
    missed_value: int
    factor_bits: tuple


@dataclass(frozen=True)
class TernaryDecision:
    weights: Weights
    cofinite: bool
    complement: tuple | None
    witness: InfiniteWitness | None
    window_length: int


@dataclass(frozen=True)
class Table2Row:
    weights: Weights
    complement: tuple


def decision_window_length(s) -> int:
    """Window length l = ceil(2(k+1) / min(S1, (S0+S2)/2))."""
    s = _require_triple(s)
    tab = offsets(s)
    numerator = tab.k.twice + 2  # the integer 2(k+1)
    denom = min(_step(0, s), _step(1, s)).twice
    return (2 * numerator + denom - 1) // denom


#: Cap, in symbols, on the scanned prefix and on the (L+1)*L symbols of the
#: length-L factors in a Fibonacci factor enumeration.
FACTOR_BUDGET = 2**22


def _fib_factor_starts(n_max: int) -> tuple:
    """The scanned Fibonacci prefix ``text`` and, for each length n up to
    n_max, the ascending 0-based starts of the first occurrences of its n+1
    factors (the factor at start i is text[i:i+n]).

    The length-n window at j has as id the first position of its factor; the
    length-(n+1) id at j is the first occurrence of the pair (that id, x[j+n])
    in one 1-D unique over the code 2*id + letter.  Finding exactly n+1 ids
    certifies the prefix; fewer double it from 32*n_max.
    """
    if n_max < 1:
        raise ValueError("factor length must be >= 1")
    if (n_max + 1) * n_max > FACTOR_BUDGET:
        raise ValueError(
            f"the {n_max + 1} Fibonacci factors of length {n_max} exceed the "
            "2^22-symbol enumeration budget")
    scan = 32 * n_max
    while True:
        text = WORDS["fib"].prefix_array(scan)
        ids, starts = np.zeros(scan + 1, dtype=np.int64), []  # empty windows
        for n in range(1, n_max + 1):
            _, first, inverse = np.unique(2 * ids[: scan - n + 1] + text[n - 1 :],
                                          return_index=True, return_inverse=True)
            if len(first) != n + 1:
                break
            ids = first[inverse]
            starts.append(np.sort(first))
        else:
            return text, starts
        if len(first) > n + 1 or scan >= FACTOR_BUDGET:
            raise RuntimeError(
                f"{len(first)} distinct Fibonacci factors of length {n} in a "
                f"{scan}-symbol prefix; Sturmian complexity is exactly {n + 1}")
        scan *= 2


@lru_cache(maxsize=None)
def enumerate_fib_factors(length: int) -> tuple:
    """All distinct length-``length`` factors of the Fibonacci word with their
    first occurrence index (1-based), in order of first occurrence."""
    text, starts = _fib_factor_starts(length)
    return tuple((int(i) + 1, tuple(text[i : i + length].tolist()))
                 for i in starts[-1])


@lru_cache(maxsize=None)
def _decide(values: tuple) -> TernaryDecision:
    s = Weights(values)
    tab = offsets(s)
    l = decision_window_length(s)
    factors = enumerate_fib_factors(l + 1)
    if tab.o1 == _ZERO:
        # Constant F: the odd and even offset triples coincide as sets, so a
        # single window decides; use the first factor, the actual prefix.
        factors = factors[:1]
    for start, bits in factors:
        for parity in (0, 1):
            missed = semi_complement(bits, s, parity)
            if missed:
                witness = InfiniteWitness(
                    factor_start_index=start,
                    parity=parity,
                    missed_value=min(missed),
                    factor_bits=bits,
                )
                return TernaryDecision(s, False, None, witness, l)
    complement = _extract_complement(s, tab)
    return TernaryDecision(s, True, complement, None, l)


def decide_cofinite(s) -> TernaryDecision:
    """Decide whether the value set of t under the triple misses only
    finitely many integers; requires gcd(S0,S1,S2) = 1."""
    s = _require_triple(s)
    s.require_coprime()
    return _decide(tuple(s))


def _complement_bound(s: Weights) -> int:
    """B = ceil(m(2l+4)) + ceil(k) + max(S): once the window argument says
    the complement is finite, every integer above B is a value."""
    l = decision_window_length(s)
    return main_term(2 * l + 4, s).ceil() + offsets(s).k.ceil() + max(s)


def _extract_complement(s: Weights, tab: OffsetTable) -> tuple:
    """The integers in [1, B] that no value formula g_values(n) hits, once
    the decision says the complement is finite."""
    bound = _complement_bound(s)
    covered = set()
    n = 1
    while main_term(n, s) - tab.k <= bound:
        covered |= g_values(n, s)
        n += 1
    return tuple(v for v in range(1, bound + 1) if v not in covered)


def finite_complement(s) -> tuple:
    """Sorted missed integers of a cofinite triple; error if not cofinite."""
    decision = decide_cofinite(s)
    if not decision.cofinite:
        raise ValueError(
            f"{tuple(Weights(s))} has an infinite complement; witness "
            f"{decision.witness}"
        )
    return decision.complement


def table2(limit: int = 7) -> list[Table2Row]:
    """Sweep all triples with entries in 1..limit and list the cofinite ones.

    Skips triples with gcd > 1, with S0 = S2, and mirror triples whose
    reverse was already evaluated (the value set is symmetric under
    swapping S0 and S2).
    """
    rows = []
    seen = set()
    for s0 in range(1, limit + 1):
        for s1 in range(1, limit + 1):
            for s2 in range(1, limit + 1):
                if math.gcd(s0, s1, s2) > 1 or s0 == s2 or (s2, s1, s0) in seen:
                    continue
                seen.add((s0, s1, s2))
                decision = decide_cofinite((s0, s1, s2))
                if decision.cofinite:
                    rows.append(Table2Row(decision.weights, decision.complement))
    return rows
