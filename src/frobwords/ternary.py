"""Cofiniteness decision for the value sets of the balanced ternary word.

For a ternary weight triple (S0, S1, S2) the values of the length-n factors
of t are three explicit numbers: a half-integer main term m(n) plus one of
six constant offsets, with the choice of offsets governed by the parity of
zeros in the Fibonacci prefix f[1, n-1].  The first differences of m form a
two-letter sequence F riding on the Fibonacci word, and whether the value
set misses infinitely many integers reduces to a finite check: slide a
window of fixed length l over F, and ask whether the window's interval of
"reachable" integers is fully covered by its semi-images at both parities.
The windows are the l+2 Fibonacci factors of length l+1, read by one pass
of a dict over the windows of the 3(l+1)-symbol prefix
(_fib_first_occurrences); their count is the certificate.  The direct scan
of t that checks the complements is in verify.

Every half-integer is carried as its doubled int: the kernels sum and
compare plain ints from one per-triple record (_Triple, validated once and
memoised in _TRIPLES), and no division and no floats ever enter the
decision.  Half is the boundary type: the public functions return it, and
JSON carries it as {"twice": ...}.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import total_ordering, wraps
from typing import Sequence


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


@total_ordering
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

    def __eq__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self.twice == other.twice

    def __lt__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self.twice < other.twice

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
        if self.is_integer:
            return str(self.twice // 2)
        sign = "-" if self.twice < 0 else ""
        return f"{sign}{abs(self.twice) // 2}.5"

    def __repr__(self) -> str:
        return f"Half({self.twice})"


@dataclass(frozen=True)
class _Triple:
    """A validated triple, built once per weights and memoised in _TRIPLES
    (see _triple), with the doubled F steps on a Fibonacci 0 and 1
    (S0+S2, 2 S1), the doubled offsets o1..o3, e1..e3 and their largest
    magnitude k, and the window length l."""

    weights: Weights
    steps: tuple
    odd: tuple
    even: tuple
    k: int
    l: int


# Validated triples, keyed by their Weights.  A plain tuple equals its
# Weights and hashes alike, so it may answer from here or from _DECISIONS,
# but only when its entries are exact ints (_memo_key): (1.0, 2, 3) ==
# (1, 2, 3), and it must still raise in Weights.
_TRIPLES: dict = {}


def _memo_key(s) -> bool:
    """Whether s may be looked up as it is in a memo keyed by Weights."""
    return type(s) is Weights or (type(s) is tuple and len(s) == 3
                                  and type(s[0]) is type(s[1]) is type(s[2]) is int)


def _triple(s) -> _Triple:
    if _memo_key(s):
        t = _TRIPLES.get(s)
        if t is not None:
            return t
    s = Weights(s)
    t = _TRIPLES.get(s)
    if t is None:
        t = _TRIPLES[s] = _new_triple(s)
    return t


def _new_triple(s: Weights) -> _Triple:
    if len(s) != 3:
        raise ValueError("ternary machinery needs exactly three weights")
    s0, s1, s2 = s
    steps = (s0 + s2, 2 * s1)
    odd = (s0 - 2 * s1 + s2, s0 - s2, s2 - s0)
    even = (2 * (s0 - s1), 2 * (s2 - s1), 0)
    k = max(map(abs, odd + even))
    # l = ceil(2(k+1) / min step) with k and the step both doubled.
    l = -(-2 * (k + 2) // min(steps))
    return _Triple(s, steps, odd, even, k, l)


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
    t = _triple(s)
    return OffsetTable(*(Half(x) for x in t.odd + t.even + (t.k,)))


def _main_twice(n: int, t: _Triple, phi_n: int | None = None) -> int:
    # phi_n is floor(n phi) when the caller already has it.
    a, b = t.steps
    if phi_n is None:
        phi_n = floor_phi(n)
    return phi_n * (a - b) - n * (a - 2 * b)


def main_term(n: int, s) -> Half:
    """Half-integer backbone of the value set at length n:
    (floor(n phi)(S0 - 2 S1 + S2) - n (S0 - 4 S1 + S2)) / 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Half(_main_twice(n, _triple(s)))


def f_sequence(i: int, j: int, s) -> list[Half]:
    """The first-difference sequence F[i..j] of the main terms (inclusive)."""
    if not 1 <= i <= j:
        raise ValueError("need 1 <= i <= j")
    steps = _triple(s).steps
    return [Half(steps[b]) for b in WORDS["fib"].prefix_array(j)[i - 1 : j]]


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


def _values(n: int, t: _Triple) -> set:
    # The (at most three) integer values at length n, from doubled sums;
    # mu(n) = (floor(n phi) - n) mod 2, so one floor serves m(n) and mu(n).
    phi_n = floor_phi(n)
    m, p = _main_twice(n, t, phi_n), (phi_n - n) % 2
    (_, o2, o3), (e1, e2, _) = t.odd, t.even
    out = set()
    for g in (m + e1 + o3 * p, m + e2 + (o2 - e2) * p, m + o3 * p):
        if g % 2:
            raise RuntimeError(f"non-integral factor value {Half(g)} at n={n} "
                               f"for weights {tuple(t.weights)}")
        out.add(g // 2)
    return out


def g_values(n: int, s) -> frozenset:
    """The exact value set of the length-n factors of t (at most 3 integers).

    Every value must come out integral; a non-integral result would mean the
    offset bookkeeping is broken and raises immediately.
    """
    return frozenset(_values(n, _triple(s)))


def interval_I(window: Sequence[Half], next_term: Half, k: Half) -> tuple[Half, Half]:
    """Closed interval [k+1, sum(window) + next_term - (k+1)]; may be empty."""
    if not window:
        raise ValueError("window must be nonempty")
    lo = k.twice + 2
    return Half(lo), Half(sum(x.twice for x in window) + next_term.twice - lo)


def _image(window_bits, t: _Triple, parity: int) -> set:
    # Doubled semi-image: partial sums of F plus the offsets of their phase.
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    total, phase, out = 0, parity, set()
    for bit in window_bits:
        total += t.steps[bit]
        if bit == 0:
            phase ^= 1
        out.update(total + off for off in (t.odd if phase else t.even))
    return out


def _missed(bits, t: _Triple, parity: int) -> list:
    """Ascending integers of the window's interval that its semi-image
    misses; ``bits`` are the window plus the following bit, and at parity 1
    both are shifted by (S0+S2)/2.  The one kernel of the decision."""
    shift = t.steps[0] if parity else 0
    image = _image(bits[:-1], t, parity)
    lo = t.k + 2
    hi = sum(t.steps[b] for b in bits) - lo + shift
    return [v for v in range(max(-(-(lo + shift) // 2), 0), hi // 2 + 1)
            if 2 * v - shift not in image]


def semi_image(factor_bits: Sequence[int], s, parity: int) -> frozenset:
    """Values reachable along a window of F at a fixed zero-parity phase.

    ``factor_bits`` is the Fibonacci factor under the window; partial sums
    run over the window only.  parity=0 assumes an even number of zeros
    precedes the window, parity=1 an odd number (returned unshifted; the
    consumer adds the (S0+S2)/2 step when forming the odd complement).
    """
    return frozenset(Half(x) for x in _image(factor_bits, _triple(s), parity))


def semi_complement(factor_bits: Sequence[int], s, parity: int) -> frozenset:
    """Integers inside the window's interval missed by its semi-image.

    ``factor_bits`` has the window bits plus one following bit; the trailing
    bit only feeds the interval's right endpoint.  For parity=1 both the
    interval and the semi-image are shifted by (S0+S2)/2 before the integer
    filter, mirroring the definition of the odd complement.
    """
    if len(factor_bits) < 2:
        raise ValueError("need at least one window bit plus the following bit")
    return frozenset(_missed(factor_bits, _triple(s), parity))


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
    return _triple(s).l


#: Cap, in symbols, on the (L+1)*L symbols of the length-L factors in a
#: Fibonacci factor enumeration.
FACTOR_BUDGET = 2**22


def _fib_first_occurrences(n: int) -> dict:
    """The n+1 Fibonacci factors of length n, as bytes, each mapped to the
    0-based start of its first occurrence, in order of first occurrence.

    The windows of the 3n-symbol prefix hold them all: the shortest prefix
    that does is n + F_(k+1) - 1 symbols for F_k <= n < F_(k+1), at most
    3n - 1.  Finding exactly n+1 factors is the certificate; any other
    count raises.
    """
    if n < 1:
        raise ValueError("factor length must be >= 1")
    if (n + 1) * n > FACTOR_BUDGET:
        raise ValueError(
            f"the {n + 1} Fibonacci factors of length {n} exceed the "
            "2^22-symbol enumeration budget")
    text = WORDS["fib"].prefix_array(3 * n).tobytes()
    first: dict = {}
    for i in range(2 * n + 1):
        first.setdefault(text[i : i + n], i)
    if len(first) != n + 1:
        raise RuntimeError(
            f"{len(first)} distinct Fibonacci factors of length {n} in a "
            f"{3 * n}-symbol prefix; Sturmian complexity is exactly {n + 1}")
    return first


#: Most symbols, (L+1)*L for a length L, that the cache of
#: enumerate_fib_factors keeps: every length to 145 at once.  The claims
#: lift lemma to 60 needs 75,640 of them, and the window lengths l+1 of the
#: triples table 2 sweeps 882.
FACTOR_CACHE_BUDGET = 2**20

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _symbol_bounded_cache(function):
    """A least-recently-used cache of ``function`` of a factor length L,
    bounded by the (L+1)*L symbols of its entries, not by their number:
    past FACTOR_CACHE_BUDGET it drops the least recently used, and it does
    not keep an entry larger than the whole budget.  The wrapper has the
    cache_info() and cache_clear() of functools.lru_cache (maxsize None:
    the entries as such are not counted)."""
    entries: OrderedDict = OrderedDict()
    get, move_to_end = entries.get, entries.move_to_end
    hits = misses = held = 0

    @wraps(function)
    def cached(length):
        nonlocal hits, misses, held
        result = get(length)
        if result is not None:
            hits += 1
            move_to_end(length)
            return result
        misses += 1
        result = function(length)
        size = (length + 1) * length
        if size <= FACTOR_CACHE_BUDGET:
            entries[length] = result
            held += size
            while held > FACTOR_CACHE_BUDGET:
                oldest, _ = entries.popitem(last=False)
                held -= (oldest + 1) * oldest
        return result

    def cache_info() -> CacheInfo:
        return CacheInfo(hits, misses, None, len(entries))

    def cache_clear() -> None:
        nonlocal hits, misses, held
        entries.clear()
        hits = misses = held = 0

    cached.cache_info, cached.cache_clear = cache_info, cache_clear
    return cached


@_symbol_bounded_cache
def enumerate_fib_factors(length: int) -> tuple:
    """All distinct length-``length`` factors of the Fibonacci word with their
    first occurrence index (1-based), in order of first occurrence."""
    return tuple((i + 1, tuple(factor))
                 for factor, i in _fib_first_occurrences(length).items())


def _decide(t: _Triple) -> TernaryDecision:
    factors = enumerate_fib_factors(t.l + 1)
    if t.odd[0] == 0:
        # Constant F: the odd and even offset triples coincide as sets, so a
        # single window decides; use the first factor, the actual prefix.
        factors = factors[:1]
    for start, bits in factors:
        for parity in (0, 1):
            missed = _missed(bits, t, parity)
            if missed:
                witness = InfiniteWitness(
                    factor_start_index=start,
                    parity=parity,
                    missed_value=missed[0],
                    factor_bits=bits,
                )
                return TernaryDecision(t.weights, False, None, witness, t.l)
    return TernaryDecision(t.weights, True, _extract_complement(t), None, t.l)


# Decisions, keyed by their Weights; an entry exists only for a coprime
# triple, so a hit needs no gcd.
_DECISIONS: dict = {}


def decide_cofinite(s) -> TernaryDecision:
    """Decide whether the value set of t under the triple misses only
    finitely many integers; requires gcd(S0,S1,S2) = 1.

    Each decision is memoised per Weights: a Weights or a tuple of three
    exact ints that was decided before is one dict lookup."""
    if _memo_key(s):
        decision = _DECISIONS.get(s)
        if decision is not None:
            return decision
    t = _triple(s)
    decision = _DECISIONS.get(t.weights)
    if decision is None:
        t.weights.require_coprime()
        decision = _DECISIONS[t.weights] = _decide(t)
    return decision


def _complement_bound(t: _Triple) -> int:
    """B = ceil(m(2l+4)) + ceil(k) + max(S): once the window argument says
    the complement is finite, every integer above B is a value."""
    return -(-_main_twice(2 * t.l + 4, t) // 2) - (-t.k // 2) + max(t.weights)


def _extract_complement(t: _Triple) -> tuple:
    """The integers in [1, B] that no value formula g_values(n) hits, once
    the decision says the complement is finite."""
    bound = _complement_bound(t)
    covered = set()
    n = 1
    while _main_twice(n, t) - t.k <= 2 * bound:
        covered |= _values(n, t)
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
