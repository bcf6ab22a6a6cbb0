"""Factor analysis: Parikh vectors, abelian complexity, zero envelopes, balance.

Scanning an infinite word can only ever look at finite covering strings, so
every operation here takes an explicit source strategy saying *which* strings
are scanned and why that is enough:

* ``ExplicitPrefix(length)`` -- scan one prefix, no completeness claim;
* ``MorphicCover(power)``    -- for a fixed point of a uniform morphism of
  width L, every factor of length <= L**power, which the power-fold images
  of all length-2 factors provably contain.  For a binary word the zero
  envelopes, tables and single lengths alike, come from desubstitution
  (see below), and the power is only the precondition n <= L**power.  A
  word over more letters scans those images; so do ``verify`` and the
  tests, as the reference for the recursion (``_scan_envelope_table``);
* ``Certified()``            -- for the built-in pf, fib and t, read the
  answer off the word's structure and scan nothing (see below);
* ``StabilizedDoubling(initial_length, max_length)`` -- scan a prefix,
  double it until the answer stops changing across a doubling, and fail
  loudly if the cap is reached first.  This is a heuristic, not a proof; it
  is the default only for generators with no certified source.

``Certified`` rests on three arguments, all exact in integer arithmetic:

* pf, the parity-refined 2-recursion (the split behind Madill & Rampersad,
  "The abelian complexity of the paperfolding word", 2013).  Positions are
  1-indexed; an odd position i holds 0 if i = 1 (mod 4) and 1 if i = 3
  (mod 4), an even one holds pf(i/2).  A length-L window at i = q (mod 4)
  has a count fixed by q and L of zeros at its odd positions, and its even
  positions are the pf window at ceil(i/2), of length floor(L/2) for odd i
  and ceil(L/2) for even i.  ceil(i/2) is odd for q in {1, 2}, even for
  q in {3, 0}, and runs through every start of that parity, so the
  envelopes at L over odd and over even starts follow from those at
  lengths <= ceil(L/2) (``_paperfolding_step``).  The base case is L = 1,
  with (0, 1) at both parities;
* fib, the Beatty form of the Sturmian envelope (Coven & Hedlund, 1973).
  A length-n window at i holds floor((i+n)phi) - floor(i phi) - n zeros,
  which is floor(n phi) - n or one more, and both occur, so
  z_max(n) = floor(n phi) - n + 1 and z_min(n) = z_max(n) - 1;
* t, the lift from fib.  Erasing 2 -> 0 maps the factors of t onto those of
  fib, and a fib factor with z zeros lifts, from either phase of the
  alternation, to (ceil(z/2), n-z, floor(z/2)) and (floor(z/2), n-z,
  ceil(z/2)) (``verify --suite ternary`` checks the lift lemma and the
  well-distributed occurrences it rests on).

Desubstitution reads the envelopes of a fixed point x = s(x) of a uniform
morphism of width l off shorter ones.  Each length-L factor is a slice
s(v)[j : j+L] of the image of a factor v of length m, its zero count is
affine in that of v, and L = l*(m-1) + d depends only on m and the offset
d = kept - j, where kept counts the symbols of the image of v's last letter
that the slice keeps.  Read as a grid of rows of l lengths, each source
length m lands on one row for d >= 1 and on the row before for d <= 0, so
a block of lengths is a few strided broadcasts over one slice of shorter
lengths, with the slice constants tabulated once per morphism
(``_desubstitution_envelopes``).  One length L reads only the source
lengths ceil(L/l) and ceil((L+l-1)/l), so a single length walks at most
two lengths per level down to the base case in plain ints
(``_desubstitution_envelope``).

Every scan is one window kernel, ``_window_scan``: prefix sums, then
subtractions of them, handed to one of two folds.  The binary fold
keeps the zero-count extrema, the ternary one the distinct (ones, twos)
pairs.  Binary Parikh sets need no more than the extrema: moving a length-n
window one step changes its zero count by at most 1, so the zero counts
over one string, and over all factors of an infinite word, fill the
interval between them.  A source either scans one prefix or, as a morphic
cover, sees exactly the factors, so the Parikh set at n is the zero
envelope at n, and a table of them is unchanged across a doubling exactly
when the envelope table is.  Nothing here depends on floating point.

The kernel walks each string, of either alphabet, in blocks of _SCAN_BLOCK
symbols.  A window of length n <= n_max that ends in a block reads the sums
of that block and the n_max sums before it, so the walk carries only those
into the next block: a scan holds O(n_max + _SCAN_BLOCK) sums, not a
full-length sums array and its temporaries, and a string that fits in one
block is one pass.  Window lengths stay the inner loop of each block.  A
ternary length, or a binary one on its own, is one subtraction and one
fold.  A binary run of three or more consecutive lengths is one strided
2-D view of the sums, subtracted into the same buffer and reduced row by
row, as many rows per numpy call as the block's budget holds
(``_fold_plan``, ``_run_windows``).  So a table scan over a few thousand
symbols no longer pays numpy's fixed cost per call, about 2.5 us, once
per length.  Which sums the walk builds, zero counts or ternary codes, and
how, is chosen once per call, so the walk itself does not depend on the
alphabet.  Binary zero counts are summed eight to a little-endian uint64
word (SWAR, SIMD within a register): one multiply by 0x0101010101010101
leaves in byte j of a word the count of its first j+1 flags, the same
multiply over the word totals gives groups of 64 symbols, and one cumsum
over the group totals and one broadcast add finish the sums
(``_blocked_prefix_sums``).  np.cumsum carries one serial dependency
through the block: 0.46 ms per 2**17 uint16 sums against 0.10 ms.
Ternary codes keep it, as their counts do not fit in a byte.

A doubling step scans only the new half and the n_max - 1 symbols before
it.  Going from a prefix of length L to 2L, the only new windows of length
n <= n_max are those that end in the new half, and all of them lie in
prefix[L - n_max + 1 : 2L].  The step scans that slice and merges its
rows into the previous result: least and most zero counts for a binary
row, the sorted union of the pairs for a ternary one.  The merge is the
scan of the whole 2L prefix, so the result, the length it stops at and the
cap error are those of a full rescan, and the result is unchanged exactly
when the new half added nothing.

A binary table 1..n_max skips, in each step, the lengths sub-additivity
already fixes.  A window of length n splits into windows of lengths a and
n - a, so over any prefix z_max(n) <= z_max(a) + z_max(n-a) and
z_min(n) >= z_min(a) + z_min(n-a) for 0 < a < n.  If the previous row at
n >= 2 already equals both bounds and no shorter row changes in this step,
the bounds over the longer prefix are the same, so the row at n, which can
only widen, cannot move.  The step scans the other lengths, length 1
always among them, and if one of their rows changed, rescans the skipped
lengths above the least that did (``_hull_step``).  The result, the stop
length and the cap error are still those of a full rescan.  Nothing in
that argument asks how long the earlier prefix is, so a table whose
initial length L is long enough (_FIRST_SCAN_MIN) scans every length over
an eighth of L only and reaches L by one such step.

The kernel keeps binary prefix sums in wrapping uint16 while every
window length is below 2**16, block by block: the carried sums and the
block's sums continue one running count modulo 2**16, a difference of two
sums is the true zero count modulo 2**16, and that count lies in [0, n]
with n < 2**16, so it is exact.  Addition modulo 2**16 is associative, so
the SWAR scan, which adds in another order, gives the same sums modulo
2**16 as np.cumsum.  Longer windows use int32.
"""

from __future__ import annotations

import weakref
from dataclasses import astuple, dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .words import (
    ConfigurationError,
    FibonacciWord,
    FiniteWord,
    MorphicFixedPoint,
    Morphism,
    PaperfoldingWord,
    TernaryBalancedWord,
    WordGenerator,
    floor_phi,
    floor_phi_array,
)

__all__ = [
    "StabilizationError",
    "FactorNotFoundError",
    "ParikhVector",
    "ZeroEnvelope",
    "DeltaStats",
    "WelldocReport",
    "ExplicitPrefix",
    "MorphicCover",
    "StabilizedDoubling",
    "Certified",
    "CERTIFIED_TABLE_BUDGET",
    "DESUBSTITUTION_TABLE_BUDGET",
    "PARIKH_TABLE_BUDGET",
    "COVER_BUDGET",
    "default_source",
    "parikh",
    "parikh_set",
    "parikh_set_table",
    "abelian_complexity",
    "zero_envelope",
    "zero_envelope_table",
    "pf_delta_stats",
    "is_balanced",
    "welldoc_check",
]


class StabilizationError(RuntimeError):
    """Doubling reached its cap without two consecutive scans agreeing."""


class FactorNotFoundError(ValueError):
    """A word claimed to be a factor was never seen within the scan budget."""


class ParikhVector(tuple):
    """Per-letter occurrence counts of a factor; length is the sum of counts."""

    def __new__(cls, counts: Iterable[int]):
        counts = tuple(int(c) for c in counts)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        return super().__new__(cls, counts)

    @property
    def length(self) -> int:
        return sum(self)

    def dot(self, weights: Sequence[int]) -> int:
        if len(weights) != len(self):
            raise ValueError("weights length does not match alphabet size")
        return sum(c * w for c, w in zip(self, weights))

    def __repr__(self) -> str:
        return f"ParikhVector{tuple(self)!r}"


def parikh(w: FiniteWord) -> ParikhVector:
    """Exact letter counts of w, indexed by letter."""
    return ParikhVector(np.bincount(w.array, minlength=w.alphabet_size).tolist())


@dataclass(frozen=True)
class ZeroEnvelope:
    """Minimum and maximum zero counts over the length-n factors of a binary word."""

    length: int
    z_min: int
    z_max: int

    def __post_init__(self):
        if not 0 <= self.z_min <= self.z_max <= self.length:
            raise ValueError("envelope out of range")


@dataclass(frozen=True)
class DeltaStats:
    """Zero-minus-one count statistics over length-n paperfolding factors."""

    max_delta: int
    delta_set: frozenset


@dataclass(frozen=True)
class WelldocReport:
    complete: bool
    residues_found: frozenset
    occurrences: int


# ---------------------------------------------------------------------------
# Factor sources
# ---------------------------------------------------------------------------

def _factor_source(cls):
    """A frozen dataclass that hashes once, when built: every complement
    memo lookup hashes its source, and the generated __hash__ packs the
    fields into a new tuple on each call.  When __post_init__ runs,
    vars(self) holds just the fields.  A pickle or copy rebuilds through
    __init__, so a stored hash never outlives its process (the hashes of
    None and of strings differ between processes)."""
    cls.__post_init__ = lambda self: object.__setattr__(
        self, "_hash", hash((cls.__name__, *vars(self).values())))
    cls.__hash__ = lambda self: self._hash  # explicit: dataclass keeps it
    cls.__reduce__ = lambda self: (cls, astuple(self))
    return dataclass(frozen=True)(cls)


@_factor_source
class ExplicitPrefix:
    length: int


@_factor_source
class MorphicCover:
    power: int


@_factor_source
class StabilizedDoubling:
    initial_length: int | None = None  # None: 64 * (largest window length)
    max_length: int = 2**20


@_factor_source
class Certified:
    """Exact answers for the built-in pf, fib and t with no scan: the
    paperfolding 2-recursion, the Beatty form of the Sturmian envelope, and
    the lift from fib to t (see the module docstring)."""


FactorSource = ExplicitPrefix | MorphicCover | StabilizedDoubling | Certified

#: Longest certified table, in window lengths.  The envelopes are cheap; the
#: bound is set by the Parikh table of pf, about 744,000 vectors and 120 MiB
#: at this length.
CERTIFIED_TABLE_BUDGET = 2**16

#: Longest desubstitution table, in window lengths, checked before anything
#: is allocated.  Its int32 arrays hold the (k, k) refinement only up to
#: n/l and the result at every length; the phi table to 2^20 peaks at 19 MiB
#: traced.  Table 1 with weights up to 8 needs 467,540.
DESUBSTITUTION_TABLE_BUDGET = 2**20

#: Most vectors a binary Parikh table may build, counted off its envelope
#: table first.  pf to 2^16 lengths holds 743,960 and passes; phi to
#: 20,000 lengths would hold 1,727,800, which took 283 MiB unbudgeted.
PARIKH_TABLE_BUDGET = 2**20

#: Most symbols a MorphicCover scan may build, checked first: the four phi
#: strings take 39,062,500 at power 10 (windows up to 5^10), 195,312,500 at
#: power 11.  Only the reference scans of verify and the tests, and words
#: over more than two letters, build covers.
COVER_BUDGET = 2**26

# Read-only per-generator caches; keys die with their generators.
_COVER_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_ENVELOPE_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_DESUBSTITUTION_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def default_source(g: WordGenerator, n: int) -> FactorSource:
    """The source a command should use when the caller does not care.

    ``Certified()`` for the built-in pf, fib and t (the 2-recursion, the
    Beatty form and the lift; base case L = 1 with (0, 1) at both start
    parities for pf), ``MorphicCover`` with the least power covering n for a
    uniform morphic fixed point such as phi (desubstitution for a binary
    one, so the power builds nothing), and the heuristic
    ``StabilizedDoubling()`` only for any other generator.
    """
    if type(g) in _CERTIFIED:
        return Certified()
    if isinstance(g, MorphicFixedPoint) and g.morphism.uniform_length:
        ell = g.morphism.uniform_length
        t = 1
        while ell**t < n:
            t += 1
        return MorphicCover(t)
    return StabilizedDoubling()


def _length2_factors(m: Morphism, seed: int) -> list[tuple[int, int]]:
    """The length-2 factors of the fixed point of m at seed, by closure.

    Every length-2 factor of m^k(seed), k >= 2, lies inside m(cd) for some
    length-2 factor cd of m^(k-1)(seed).  So the 2-factors of m(seed), closed
    under "add the 2-factors of m(cd) for every known cd", are all of them.
    """
    def pairs(arr: np.ndarray) -> set:
        return set(zip(arr[:-1].tolist(), arr[1:].tolist()))

    found = pairs(m.apply_array(np.array([seed], dtype=np.uint8)))
    todo = list(found)
    while todo:
        new = pairs(m.apply_array(np.array(todo.pop(), dtype=np.uint8))) - found
        found |= new
        todo.extend(new)
    return sorted(found)


def _require_cover(g: WordGenerator, n_max: int, src: MorphicCover) -> None:
    """Reject a MorphicCover request that does not prove completeness."""
    if n_max < 1:
        raise ValueError("window length must be >= 1")
    if not isinstance(g, MorphicFixedPoint):
        raise ConfigurationError("MorphicCover only applies to morphic fixed points")
    ell = g.morphism.uniform_length
    if ell is None or ell < 2:
        raise ConfigurationError("MorphicCover needs a uniform morphism")
    if n_max > ell**src.power:
        raise ValueError(
            f"windows of length {n_max} are not covered by power {src.power}"
        )


def _morphic_cover_strings(g: MorphicFixedPoint, power: int) -> list[np.ndarray]:
    per_gen = _COVER_CACHE.setdefault(g, {})
    if power in per_gen:
        return per_gen[power]
    m = g.morphism
    pairs = _length2_factors(m, g.seed)
    size = len(pairs) * m.uniform_length**power
    if size > COVER_BUDGET:
        raise ValueError(
            f"a power-{power} cover of {size} symbols exceeds the budget "
            f"COVER_BUDGET = {COVER_BUDGET} symbols")
    strings = [m.power_array(np.array(p, dtype=np.uint8), power) for p in pairs]
    for s in strings:
        s.setflags(write=False)
    per_gen[power] = strings
    return strings


def _scan_source(g: WordGenerator, lengths: Sequence[int], src: FactorSource) -> tuple:
    """One kernel row per window length in lengths (distinct, ascending),
    over the covering strings demanded by src.

    Under StabilizedDoubling each step from length L to 2L scans only
    prefix[L - n_max + 1 : 2L], the windows that end in the new half, and
    merges it row by row into the previous result, which makes it the scan
    of the whole 2L prefix: ``_hull`` joins the zero-count extrema of a
    binary word, ``_union`` the sorted pairs of a ternary one.  For a binary
    table, lengths 1..n_max, the step skips the lengths sub-additivity
    already fixes (``_hull_step``).  The result is accepted once a doubling
    leaves it unchanged, and StabilizationError is raised if the cap comes
    first.

    A binary table whose initial length L is at least _FIRST_SCAN_MIN does
    not scan every length over the whole L-symbol prefix.  It scans them
    over the first short = max(n_max, L // _FIRST_SCAN_DIVISOR) symbols,
    then takes one ``_hull_step`` with the tail prefix[short - n_max + 1 : L],
    which holds every window that ends past short.  That step holds for
    any previous prefix and any tail, so the table over L is the full
    scan's, and the doubling from L asks for the same prefixes and stops
    where it did.  When that step leaves the table unchanged, the first
    doubling reuses its settled lengths, since their bounds are the same.
    """
    if not lengths or lengths[0] < 1:
        raise ValueError("window length must be >= 1")
    k, n_max = g.alphabet_size, lengths[-1]

    def scan(strings):
        return tuple(_window_scan(strings, lengths, k))

    if isinstance(src, ExplicitPrefix):
        if src.length < n_max:
            raise ValueError("explicit prefix shorter than the window")
        return scan([g.prefix_array(src.length)])
    if isinstance(src, MorphicCover):
        _require_cover(g, n_max, src)
        return scan(_morphic_cover_strings(g, src.power))
    if isinstance(src, StabilizedDoubling):
        length = max(src.initial_length or 64 * n_max, n_max)
        if 2 * length > src.max_length:
            raise StabilizationError(
                f"initial length {length} leaves no doubling below the cap "
                f"{src.max_length}"
            )
        binary_table = k == 2 and len(lengths) == n_max
        merge = _hull if k == 2 else _union
        short = max(n_max, length // _FIRST_SCAN_DIVISOR)
        settled = None
        if binary_table and short < length and length >= _FIRST_SCAN_MIN:
            prefix = g.prefix_array(length)
            previous, settled = _hull_step(scan([prefix[:short]]),
                                           prefix[short - n_max + 1:])
        else:
            previous = scan([g.prefix_array(length)])
        while 2 * length <= src.max_length:
            tail = g.prefix_array(2 * length)[length - n_max + 1:]
            length *= 2
            if binary_table:
                current, settled = _hull_step(previous, tail, settled)
            else:
                current = tuple(map(merge, previous, scan([tail])))
            if current == previous:
                return current
            previous = current
        raise StabilizationError(
            f"no stabilization for windows of length {n_max} below prefix cap "
            f"{src.max_length}"
        )
    raise TypeError(f"unknown factor source {src!r}")


def _split_bounds(
    z_min: np.ndarray, z_max: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The bounds a table of zero-count extrema puts on itself, one per
    length n = 1..n_max (index n-1): the most over 0 < a < n of
    z_min(a) + z_min(n-a), and the least of z_max(a) + z_max(n-a).

    Every length-n window of a string splits into windows of lengths a and
    n-a of that string, so the extrema over any string lie within these
    bounds.  Length 1 has no split; its bounds are -_NONE and _NONE, which
    no row reaches.  By symmetry a runs to n_max // 2 only, over strided
    views of a padded copy, _SCAN_BLOCK entries at a time, added into one
    scratch buffer that both passes reuse.
    """
    n_max = len(z_max)
    half = n_max // 2
    step = max(1, _SCAN_BLOCK // n_max)
    scratch = np.empty((min(step, half), n_max - 1), dtype=np.int32)
    bounds = []
    for z, pad, pick, reduce in ((z_min, -_NONE, np.maximum, np.max),
                                 (z_max, _NONE, np.minimum, np.min)):
        # padded[n_max - 1 + m] = z(m), pad for m <= 0; row n_max - a of
        # the windows holds z(n - a) at column n - 1
        padded = np.full(2 * n_max, pad, dtype=np.int32)
        padded[n_max:] = z
        windows = np.lib.stride_tricks.sliding_window_view(padded, n_max)
        bound = np.full(n_max, pad, dtype=np.int32)
        split_bound = bound[1:]  # lengths 2..n_max
        for a in range(1, half + 1, step):
            stop = min(a + step, half + 1)
            rows = windows[n_max - stop + 1:n_max - a + 1, 1:][::-1]
            split = np.add(z[a - 1:stop - 1, None], rows, out=scratch[:stop - a])
            pick(split_bound, reduce(split, axis=0), out=split_bound)
        bounds.append(bound)
    return bounds[0], bounds[1]


def _hull_step(previous: tuple, tail: np.ndarray, settled=None) -> tuple:
    """The binary table for lengths 1..n_max over the prefix that ends with
    tail, from ``previous``, the table over the prefix before tail; tail
    starts n_max - 1 symbols before the new part.  Returns that table and,
    when it equals previous, the settled lengths (below), which are then
    the table's own; else None.  ``settled`` passes those of previous if
    they are known, so its bounds are not computed again.

    Write P for previous and C for the result, so C(n) = _hull(P(n), the
    row of tail at n), and C(n) contains P(n).  Take n >= 2 with
    P(n) equal to its split bounds over P (``_split_bounds``), and suppose
    C(a) = P(a) for every a < n.  The split bounds hold over the longer
    prefix as well, so z_max of C(n) is at most the least
    z_max(a) + z_max(n-a) over C, which is that over P, which is z_max of
    P(n); likewise for z_min.  So C(n) = P(n) without a scan.  Nothing here
    asks how long the prefix before tail is, or how long tail is.

    The first pass scans every length whose row is not at its bounds,
    length 1 among them.  If no scanned row changed, every skipped row is
    unchanged by induction on n.  Otherwise let c be the least length whose
    row changed: the skipped lengths below c are still settled, and those
    above c are scanned in a second pass.  The result is that of scanning
    every length, so the doubling stops where a full rescan stops.
    """
    n_max = len(previous)
    if settled is None:
        z_min, z_max = np.array(previous, dtype=np.int32).T
        lo_bound, hi_bound = _split_bounds(z_min, z_max)
        settled = ((z_min == lo_bound) & (z_max == hi_bound)).tolist()
    current = list(previous)
    todo = [n for n in range(1, n_max + 1) if not settled[n - 1]]
    for n, row in zip(todo, _window_scan([tail], todo, 2)):
        current[n - 1] = _hull(previous[n - 1], row)
    changed = next((n for n in todo if current[n - 1] != previous[n - 1]), None)
    if changed is None:
        return previous, settled
    rest = [n for n in range(changed + 1, n_max + 1) if settled[n - 1]]
    if rest:
        for n, row in zip(rest, _window_scan([tail], rest, 2)):
            current[n - 1] = _hull(previous[n - 1], row)
    return tuple(current), None


# ---------------------------------------------------------------------------
# Window scans (numpy kernels)
# ---------------------------------------------------------------------------

#: A binary doubling table whose initial length L is at least
#: _FIRST_SCAN_MIN scans every length over the first L // _FIRST_SCAN_DIVISOR
#: symbols only, and reaches L by one hull step (``_scan_source``).  At the
#: default L = 64 * n_max (warm, prefix prebuilt, medians of 9, 2 cores,
#: numpy 2.4), the full scan and then a start from a quarter, an eighth and
#: a sixteenth of L took: pf to 1025 11.0, 8.7, 8.0, 11.8 ms; pf to 2000
#: 34.5, 20.9, 19.3, 29.1 ms; phi to 1025 11.2, 9.0, 8.3, 14.0 ms; fib to
#: 2000 29.6, 14.0, 11.5, 9.9 ms.  A sixteenth is too short for pf and phi,
#: whose rows then change in the tail.  Below L = 2**16 an eighth still
#: loses for some words, though the 2-D folds of ``_fold_plan`` took away
#: the kernel's fixed cost per length that once explained it.  The full
#: scan and then the eighth, at L = 64 * n_max (medians of 9, 2 shared
#: cores): the staircase word of verify to 100, 300 and 1000 0.96 and 1.38,
#: 7.1 and 8.3, 111 and 124 ms, its rows changing in the tail; phi to 400
#: and 800 4.4 and 4.9, 16.0 and 16.7 ms; but fib to 800 14.2 and 4.8 ms
#: and pf to 800 15.9 and 7.1 ms.
_FIRST_SCAN_DIVISOR = 8
_FIRST_SCAN_MIN = 2**16

#: Symbols per block of the window kernel, so a scan holds O(n_max + block)
#: sums however long its strings are, and the most counts one 2-D fold of
#: a run of lengths holds (``_fold_plan``).  parikh_set(pf, 2^k) for
#: k = 1..14 under doubling, prefix prebuilt, took 9.1 ms at blocks of
#: 2^17, 9.8 and 9.3 ms at 2^16 and 2^18, 12.2 ms at 2^15, 17.1 ms at 2^14
#: and 18.6 ms in one full-length pass (medians of 7, 2 shared cores,
#: numpy 2.4).
_SCAN_BLOCK = 2**17

#: The least block the SWAR binary prefix sums take; shorter blocks keep
#: np.cumsum, whose cost has no fixed part to speak of.  Over blocks of
#: 2^10 .. 2^17 symbols (min of 15, 2 cores, numpy 2.4) np.cumsum took 7.9,
#: 11.1, 15.1, 17.9 and 31 us at 2^10, 2^11, 3*2^10, 2^12 and 2^13, the SWAR
#: scan 11.8, 12.3, 12.9, 13.8 and 16.0 us (uint16; int32 alike), and at
#: 2^17 462 against 103 us.
_BLOCKED_SCAN_MIN = 2**12


def _window_scan(strings: list[np.ndarray], lengths: Iterable[int], alphabet_size: int):
    """The one window kernel.  For each n in lengths, in order, yield the
    (least, most) zero count over the length-n windows of all strings
    (binary), or the sorted distinct (ones, twos) count pairs over them
    (ternary).  Strings shorter than n are skipped.

    The walk takes each string in blocks of _SCAN_BLOCK symbols and carries
    the last n_max = max(lengths) prefix sums from block to block (see the
    module docstring).  A length on its own costs one subtraction per block
    into a reused buffer, and a fold turns its window counts into a row
    (``_extrema``, ``_distinct_pairs``), merged into the length's row so
    far (``_hull``, ``_union``).  In a binary block narrow enough that
    three rows of windows fit in _SCAN_BLOCK counts, runs of consecutive
    lengths are folded r at a time instead: one subtraction of a strided
    (r, width) view of the sums into the same buffer, and one row-wise min
    and max (``_fold_plan``, ``_run_windows``, ``_row_extrema``).

    The count and sum steps are chosen once per call.  A binary prefix sum
    counts zeros, in wrapping uint16 while every length is below 2**16 (see
    the module docstring), else in int32, summed eight symbols per word
    (``_blocked_prefix_sums``).  A ternary one, summed by np.cumsum, is the
    int64 code ones*B + twos with B = n_max + 1, so one difference gives
    both counts of a window in base B; codes stay below N*B for strings of
    length N, so below N, B = 2**31 they cannot overflow.
    """
    lengths = list(lengths)
    n_max = max(lengths, default=0)
    if alphabet_size == 2:
        dtype = np.uint16 if n_max < 2**16 else np.int32
        count, fold, merge = (lambda chunk: chunk == 0), _extrema, _hull
        prefix_sums, fold_rows = _blocked_prefix_sums, _row_extrema
    elif alphabet_size == 3:
        dtype = np.int64
        base = n_max + 1
        count = np.array([0, base, 1], dtype=dtype).take
        fold, merge = (lambda codes: _distinct_pairs(codes, base)), _union
        prefix_sums, fold_rows = _serial_prefix_sums, None
    else:
        raise ValueError("only alphabets of size 2 and 3 are supported")
    block = _SCAN_BLOCK
    longest = max(len(arr) for arr in strings)
    sums = np.empty(min(longest, n_max + block) + 1, dtype=dtype)
    buf = np.empty(min(longest * (len(lengths) if fold_rows else 1), block),
                   dtype=dtype)
    rows = [None] * len(lengths)
    for arr in strings:
        # sums[:top] hold the prefix sums at positions origin .. origin+top-1
        sums[0], origin, top = 0, 0, 1
        for start in range(0, len(arr), block):
            chunk = arr[start:start + block]
            prefix_sums(count(chunk), sums[top - 1], sums[top:top + len(chunk)])
            top += len(chunk)
            end = start + len(chunk)
            # three rows of the longest length's windows fit, or none do
            if fold_rows and 3 * (end + 1 - max(start + 1, n_max)) <= len(buf):
                alone, grouped = _fold_plan(lengths, start, end, len(buf))
            else:
                alone, grouped = enumerate(lengths), ()
            for i, n in alone:
                # the windows that end in this block, at the first of which
                # the slice begins
                begin = max(start + 1, n) - origin
                if begin < top:
                    row = fold(np.subtract(sums[begin:top], sums[begin - n:top - n],
                                           out=buf[:top - begin]))
                    rows[i] = row if rows[i] is None else merge(rows[i], row)
            for i, n, r in grouped:
                counts = _run_windows(sums, top, start + 1 - origin, n, r, buf)
                for j, row in enumerate(fold_rows(counts), i):
                    rows[j] = row if rows[j] is None else merge(rows[j], row)
            keep = min(n_max, top)
            sums[:keep] = sums[top - keep:top]
            origin, top = origin + top - keep, keep
    for n, row in zip(lengths, rows):
        if row is None:
            raise ValueError(f"no covering string long enough for n={n}")
        yield row


def _fold_plan(lengths: list[int], start: int, end: int, budget: int) -> tuple:
    """How a binary block of the symbols start .. end-1 folds lengths:
    (i, n) for each n = lengths[i] folded on its own, and (i, n, r) for each
    run of r >= 3 consecutive lengths lengths[i:i+r] = n .. n+r-1 folded at
    once in at most budget counts (``_run_windows``).  A 2-D fold costs
    about as much as two folds of one length, so fewer rows go one by one.

    A fold from n <= start + 1 takes lengths up to start + 1, each with
    the end - start windows that end in the block.  A fold from
    n > start + 1 takes end + 1 - n counts per row, up to the longest
    length n1 with 2*n1 - n <= end + 1, so that all of them exist.
    Lengths longer than end have no window yet.
    """
    cuts = (np.flatnonzero(np.diff(lengths) != 1) + 1).tolist()
    alone, grouped = [], []
    for i, stop in zip([0] + cuts, cuts + [len(lengths)]):
        while i < stop and lengths[i] <= end:
            n = lengths[i]
            if n <= start + 1:
                r = min(stop - i, start + 2 - n, budget // (end - start))
            else:
                r = min(stop - i, (end + 1 - n) // 2 + 1, budget // (end + 1 - n))
            if r < 3:
                alone.append((i, n))
                i += 1
            else:
                grouped.append((i, n, r))
                i += r
    return alone, grouped


def _run_windows(sums: np.ndarray, top: int, first: int, n0: int, r: int,
                 buf: np.ndarray) -> np.ndarray:
    """The window counts of lengths n0 .. n1 = n0 + r - 1 over sums[:top],
    one row per length, in a 2-D view of buf.

    ``first`` is the end of the first window the block holds.  If
    n1 <= first every row's windows end at first .. top-1, so row j is
    sums[first:top] less a view that starts n0 + j earlier.  Otherwise the
    sums start at the string's start (origin 0), the windows of every
    length end at n1 .. top-1 or at their own length n .. n1-1, and each of
    the latter starts in [0, n1 - n0): those are taken from that range of
    starts, beside the others, and 2*n1 - n0 <= top keeps them in the sums.
    """
    item = sums.itemsize
    n1 = n0 + r - 1
    if n1 <= first:
        counts = buf[:r * (top - first)].reshape(r, -1)
        shifted = np.ndarray(counts.shape, sums.dtype, sums, (first - n0) * item,
                             (-item, item))
        return np.subtract(sums[first:top], shifted, out=counts)
    counts = buf[:r * (top - n0)].reshape(r, -1)
    late, early = counts[:, :top - n1], counts[:, top - n1:]
    shifted = np.ndarray(late.shape, sums.dtype, sums, (n1 - n0) * item, (-item, item))
    np.subtract(sums[n1:top], shifted, out=late)
    ends = np.ndarray(early.shape, sums.dtype, sums, n0 * item, (item, item))
    np.subtract(ends, sums[:n1 - n0], out=early)
    return counts


def _serial_prefix_sums(values: np.ndarray, carry, out: np.ndarray) -> None:
    """out[i] = carry + values[0] + ... + values[i], in out's dtype, by one
    np.cumsum."""
    np.cumsum(values, dtype=out.dtype, out=out)
    if carry:
        out += carry


#: 1 in every byte of a little-endian uint64: times a word of eight 0/1
#: bytes it holds in byte j the sum of bytes 0..j (``_blocked_prefix_sums``)
_BYTE_ONES = np.array(0x0101010101010101, dtype="<u8")


def _blocked_prefix_sums(flags: np.ndarray, carry, out: np.ndarray) -> None:
    """_serial_prefix_sums of the binary zero-count flags, eight per word
    (SWAR: SIMD within a register).

    Read as little-endian uint64 words, each word times _BYTE_ONES holds in
    byte j the count of its first j+1 flags, at most 8, so no byte carries
    into the next; byte 7 is the word's total.  The same product over the
    totals of 8 words holds in byte j the count of the group's words
    0..j; shifted up one byte, it gives each word its offset within its
    group of 64 symbols, added to all its bytes, which then count up to 64.
    One np.cumsum over the group totals and one broadcast add finish the
    sums.  Each product is made '<u8' before its bytes are read, so the
    result does not depend on byte order.  In uint16 the sums wrap, and
    since addition modulo 2**16 is associative they are np.cumsum's.  A
    block below _BLOCKED_SCAN_MIN symbols, and the last len % 64 flags,
    take np.cumsum.
    """
    body = len(flags) - len(flags) % 64
    if body < _BLOCKED_SCAN_MIN:
        body = 0
    else:
        le = _BYTE_ONES.dtype
        within = (flags[:body].view(le) * _BYTE_ONES).astype(le, copy=False)
        totals = np.ascontiguousarray(within.view(np.uint8)[7::8])
        groups = (totals.view(le) * _BYTE_ONES).astype(le, copy=False)
        within += (groups << 8).astype(le, copy=False).view(np.uint8) * _BYTE_ONES
        # the carry, then the group totals, summed into each group's offset
        offsets = np.empty(len(groups), dtype=out.dtype)
        offsets[0] = carry
        offsets[1:] = groups.view(np.uint8)[7:-8:8]
        np.add.accumulate(offsets, out=offsets)
        np.add(within.view(np.uint8).reshape(-1, 64), offsets[:, None],
               out=out[:body].reshape(-1, 64))
        carry = out[body - 1]
    if body < len(flags):
        _serial_prefix_sums(flags[body:], carry, out[body:])


def _extrema(zeros: np.ndarray) -> tuple[int, int]:
    """The binary fold: (least, most) of a block's window zero counts."""
    return int(zeros.min()), int(zeros.max())


def _row_extrema(zeros: np.ndarray) -> list[tuple[int, int]]:
    """The binary fold of a run of lengths, one per row of zeros."""
    return list(zip(zeros.min(axis=1).tolist(), zeros.max(axis=1).tolist()))


def _distinct_pairs(codes: np.ndarray, base: int) -> tuple:
    """The ternary fold: the sorted distinct (ones, twos) pairs of a block's
    window codes ones*base + twos, marked in a scatter over at most
    (n+1)*base entries; codes is overwritten."""
    lo = int(codes.min())
    seen = np.zeros(int(codes.max()) - lo + 1, dtype=bool)
    seen[np.subtract(codes, lo, out=codes)] = True
    ones, twos = np.divmod(np.flatnonzero(seen) + lo, base)
    return tuple(zip(ones.tolist(), twos.tolist()))


def _hull(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Merge of two (least, most) zero-count rows."""
    return min(a[0], b[0]), max(a[1], b[1])


def _union(a: tuple, b: tuple) -> tuple:
    """Merge of two sorted rows of distinct items."""
    return tuple(sorted(set(a).union(b)))


def _binary_parikhs(n: int, z_min: int, z_max: int) -> tuple[ParikhVector, ...]:
    """The vectors (z, n - z) for z_min <= z <= z_max; the range is checked
    once instead of per vector."""
    if z_min < 0 or z_max > n:
        raise ValueError("counts must be nonnegative")
    new = tuple.__new__
    return tuple(new(ParikhVector, (z, n - z)) for z in range(z_min, z_max + 1))


def _ternary_parikhs(n: int, pairs) -> tuple[ParikhVector, ...]:
    return tuple(sorted(ParikhVector((n - c1 - c2, c1, c2)) for c1, c2 in pairs))


# ---------------------------------------------------------------------------
# Certified envelopes (no scan)
# ---------------------------------------------------------------------------

def _paperfolding_step(length, half_down, half_up, least=min, most=max):
    """pf envelopes at ``length`` from those at floor(length/2)
    (``half_down``) and ceil(length/2) (``half_up``).

    An envelope is the 4-tuple (least, most) zeros over even starts, then
    (least, most) over odd starts.  The step runs on plain ints for one
    length, and on int arrays of lengths with ``least=np.minimum`` and
    ``most=np.maximum``.  A window at i = q (mod 4) holds
    (length + 3 - (1-q) % 4) // 4 zeros at its odd positions, those = 1
    (mod 4); its even positions are the window at ceil(i/2), odd for q in
    {1, 2} and even for q in {3, 0}, of length floor(length/2) for odd i
    and ceil(length/2) for even i.
    """
    z0, z1, z2, z3 = ((length + 3 - (1 - q) % 4) // 4 for q in range(4))
    down_even_lo, down_even_hi, down_odd_lo, down_odd_hi = half_down
    up_even_lo, up_even_hi, up_odd_lo, up_odd_hi = half_up
    return (least(z2 + up_odd_lo, z0 + up_even_lo),
            most(z2 + up_odd_hi, z0 + up_even_hi),
            least(z1 + down_odd_lo, z3 + down_even_lo),
            most(z1 + down_odd_hi, z3 + down_even_hi))


_PF_LENGTH_1 = (0, 1, 0, 1)  # both parities


def _paperfolding_envelopes(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(z_min, z_max) of pf for lengths 1..n_max.  Lengths below 2*start - 1
    need only lengths below start, so each numpy step takes all of them."""
    env = np.zeros((4, n_max + 1), dtype=np.int64)  # length 0: empty
    env[:, 1] = _PF_LENGTH_1
    start = 2
    while start <= n_max:
        stop = min(2 * start - 1, n_max + 1)
        length = np.arange(start, stop)
        env[:, start:stop] = _paperfolding_step(
            length, env[:, length // 2], env[:, (length + 1) // 2],
            np.minimum, np.maximum)
        start = stop
    return np.minimum(env[0, 1:], env[2, 1:]), np.maximum(env[1, 1:], env[3, 1:])


def _lengths_read(n: int, base: int, reads: Callable[[int], tuple]) -> list[int]:
    """n and every length a single-length recursion reaches from it, in
    ascending order: ``reads(m)`` are the lengths the step at m > base
    reads, and lengths <= base are base cases.  Both recursions here read
    at most two consecutive lengths per level."""
    lengths = frontier = {n}
    while frontier:
        frontier = {h for m in frontier if m > base for h in reads(m)} - lengths
        lengths = lengths | frontier
    return sorted(lengths)


def _paperfolding_envelope(n: int) -> tuple[int, int]:
    """(z_min, z_max) of pf at one length n, from the at most two lengths
    floor and ceil of n / 2**k at each level k, in plain ints."""
    env = {1: _PF_LENGTH_1}
    for m in _lengths_read(n, 1, lambda m: (m // 2, (m + 1) // 2)):
        if m > 1:
            env[m] = _paperfolding_step(m, env[m // 2], env[(m + 1) // 2])
    even_lo, even_hi, odd_lo, odd_hi = env[n]
    return min(even_lo, odd_lo), max(even_hi, odd_hi)


def _fibonacci_envelopes(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(z_min, z_max) of fib for lengths 1..n_max by the Beatty form."""
    z_max = floor_phi_array(n_max)[1:] - np.arange(n_max, dtype=np.int64)
    return z_max - 1, z_max


def _fibonacci_envelope(n: int) -> tuple[int, int]:
    z_max = floor_phi(n) - n + 1
    return z_max - 1, z_max


#: Generator type -> (table, single length) envelope of its zeros; for t
#: these are the zeros and twos together, the zeros of its image in fib.
_CERTIFIED = {
    PaperfoldingWord: (_paperfolding_envelopes, _paperfolding_envelope),
    FibonacciWord: (_fibonacci_envelopes, _fibonacci_envelope),
    TernaryBalancedWord: (_fibonacci_envelopes, _fibonacci_envelope),
}


def _certified(g: WordGenerator, n: int, table: bool):
    """The certified envelope of g at n, or its table for lengths 1..n."""
    builders = _CERTIFIED.get(type(g))
    if builders is None:
        raise ConfigurationError(
            "Certified only applies to the built-in pf, fib and t")
    if n < 1:
        raise ValueError("window length must be >= 1")
    if table and n > CERTIFIED_TABLE_BUDGET:
        raise ValueError(
            f"a certified table to length {n} exceeds the budget "
            f"CERTIFIED_TABLE_BUDGET = {CERTIFIED_TABLE_BUDGET} lengths")
    return builders[0 if table else 1](n)


def _lifted_parikhs(n: int, z_min: int, z_max: int) -> tuple[ParikhVector, ...]:
    """The Parikh set of t at n from the fib envelope: each zero count z
    lifts to z - z//2 zeros and z//2 twos, or the reverse.  As in
    _binary_parikhs, the range is checked once instead of per vector."""
    if not (0 <= z_min <= n and 0 <= z_max <= n):
        raise ValueError("counts must be nonnegative")
    new = tuple.__new__
    return tuple(sorted({
        new(ParikhVector, v)
        for z in (z_min, z_max)
        for v in ((z - z // 2, n - z, z // 2), (z // 2, n - z, z - z // 2))
    }))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def parikh_set(g: WordGenerator, n: int, src: FactorSource | None = None):
    """All Parikh vectors of length-n factors discoverable under src.

    Returns a lexicographically sorted tuple of ParikhVector so comparisons
    and serialized output are deterministic.  For a binary word this is the
    zero envelope at n read as an interval (see the module docstring).
    """
    if src is None:
        src = default_source(g, n)
    if g.alphabet_size == 2:
        env = zero_envelope(g, n, src)
        return _binary_parikhs(n, env.z_min, env.z_max)
    if isinstance(src, Certified):
        return _lifted_parikhs(n, *_certified(g, n, table=False))
    return _ternary_parikhs(n, _scan_source(g, [n], src)[0])


def parikh_set_table(g: WordGenerator, n_max: int, src: FactorSource | None = None):
    """parikh_set for every n in 1..n_max, stabilized jointly.

    Under StabilizedDoubling the *whole table* must be unchanged across a
    doubling, so one scan budget covers the full sweep.  A binary table is
    read off zero_envelope_table and shares its cache, and is refused
    before any vector is built past PARIKH_TABLE_BUDGET; under Certified a
    table of t is lifted from the Beatty table of fib.  Returns a list
    indexed by n-1.
    """
    if src is None:
        src = default_source(g, n_max)
    if g.alphabet_size == 2:
        z_min, z_max = zero_envelope_table(g, n_max, src)
        count = int((z_max - z_min).sum()) + n_max
        if count > PARIKH_TABLE_BUDGET:
            raise ValueError(
                f"a Parikh table of {count} vectors to length {n_max} exceeds "
                f"the budget PARIKH_TABLE_BUDGET = {PARIKH_TABLE_BUDGET} vectors")
        return [_binary_parikhs(n, lo, hi) for n, lo, hi in
                zip(range(1, n_max + 1), z_min.tolist(), z_max.tolist())]
    if isinstance(src, Certified):
        z_min, z_max = _certified(g, n_max, table=True)
        return [_lifted_parikhs(n, lo, hi) for n, lo, hi in
                zip(range(1, n_max + 1), z_min.tolist(), z_max.tolist())]
    table = _scan_source(g, range(1, n_max + 1), src)
    return [_ternary_parikhs(n, row) for n, row in enumerate(table, start=1)]


def abelian_complexity(g: WordGenerator, n: int, src: FactorSource | None = None) -> int:
    """Number of distinct Parikh vectors among length-n factors."""
    return len(parikh_set(g, n, src))


def zero_envelope(g: WordGenerator, n: int, src: FactorSource | None = None) -> ZeroEnvelope:
    """Min and max zero counts over length-n factors of a binary word."""
    if g.alphabet_size != 2:
        raise ValueError("zero envelopes are defined for binary words")
    if src is None:
        src = default_source(g, n)
    if isinstance(src, Certified):
        z_min, z_max = _certified(g, n, table=False)
    elif isinstance(src, MorphicCover):
        _require_cover(g, n, src)
        z_min, z_max = _desubstitution_envelope(g, n)
    else:
        z_min, z_max = _scan_source(g, [n], src)[0]
    return ZeroEnvelope(n, z_min, z_max)


def _scan_envelope_table(
    g: WordGenerator, n_max: int, src: FactorSource
) -> tuple[np.ndarray, np.ndarray]:
    """(z_min, z_max) for lengths 1..n_max by scanning every window of every
    covering string src demands; uncached.

    This is the table under doubling and explicit prefixes, and the
    reference the desubstitution recursion is checked against.
    """
    table = _scan_source(g, range(1, n_max + 1), src)
    z_min, z_max = np.array(table, dtype=np.int64).T
    return z_min.copy(), z_max.copy()


#: "No such factor" in the int32 desubstitution arrays: lo starts at _NONE
#: and hi at -_NONE.  Real counts and slice constants lie within 2**22 in
#: absolute value for tables within DESUBSTITUTION_TABLE_BUDGET, so a
#: candidate holding one or two of these stays beyond every real count and
#: inside int32.
_NONE = 2**29


def _desubstitution_constants(g: MorphicFixedPoint):
    """The slice constants of the desubstitution recursion of g, built once
    per generator: (z1, slope, const_lo, const_hi, any_lo, any_hi, walk).

    const_lo[part, a, b, f, l, col] is the least, const_hi the most, of
    -zeros(s(a)[:j]) - zeros(s(b)[kept:]) over the cuts j < l, 1 <= kept <= l
    with offset d = kept - j = col + 1 - part*l, s(a)[j] = f and
    s(b)[kept-1] = l, or +-_NONE where there is none.  any_lo and any_hi
    take the extremum over the destination letters f and l as well.

    walk = (terms, known) holds the same in plain ints for the single-length
    walk: terms[d] lists (a*k + b, f*k + l, lo, hi) for every cut that
    exists at offset d, and known maps lengths 1 and 2 to their envelopes
    {a*k + b: (lo, hi)} over the factors that start with a and end with b.
    """
    per_gen = _DESUBSTITUTION_CACHE.get(g)
    if per_gen is not None:
        return per_gen
    m = g.morphism
    ell, k = m.uniform_length, m.alphabet_size
    images = np.stack([img.array for img in m.images])
    zero_prefix = np.zeros((k, ell + 1), dtype=np.int32)
    np.cumsum(images == 0, axis=1, out=zero_prefix[:, 1:])
    z0, z1 = int(zero_prefix[0, ell]), int(zero_prefix[1, ell])

    a, b, j, kept = np.meshgrid(np.arange(k), np.arange(k), np.arange(ell),
                                np.arange(1, ell + 1), indexing="ij")
    d = kept - j
    part = (d < 1).astype(np.intp)
    at = (part, a, b, images[a, j], images[b, kept - 1], d - 1 + part * ell)
    const = zero_prefix[b, kept] - zero_prefix[a, j] - zero_prefix[b, ell]
    const_lo = np.full((2, k, k, k, k, ell), _NONE, dtype=np.int32)
    const_hi = np.full((2, k, k, k, k, ell), -_NONE, dtype=np.int32)
    np.minimum.at(const_lo, at, const)
    np.maximum.at(const_hi, at, const)

    terms = {}
    cut = const_lo <= const_hi
    for (part, a, b, first, last, col), c_lo, c_hi in zip(
            np.argwhere(cut).tolist(), const_lo[cut].tolist(),
            const_hi[cut].tolist()):
        terms.setdefault(col + 1 - part * ell, []).append(
            (a * k + b, first * k + last, c_lo, c_hi))
    known = {1: {}, 2: {}}
    for a, b in _length2_factors(m, g.seed):
        for c in (a, b):
            known[1][c * k + c] = (int(c == 0),) * 2
        known[2][a * k + b] = (int(a == 0) + int(b == 0),) * 2

    per_gen = (z1, z0 - z1, const_lo, const_hi,
               const_lo.min(axis=(3, 4)), const_hi.max(axis=(3, 4)),
               (terms, known))
    _DESUBSTITUTION_CACHE[g] = per_gen
    return per_gen


def _desubstitution_envelopes(
    g: MorphicFixedPoint, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact int32 (z_min, z_max) for lengths 1..n_max of a binary fixed
    point x = s(x) of a uniform morphism s of width l, without scanning x.

    Every length-L factor u of x is s(v)[j : j+L] with j < l and v a factor
    of length m = ceil((j+L)/l), and every such slice is a factor.  With a
    and b the first and last letters of v and kept = j + L - l*(m-1) the
    symbols of s(b) that u keeps:

    * L = l*(m-1) + d, with offset d = kept - j in [2-l, l];
    * zeros(u) = z1*m + (z0-z1)*zeros(v) + const, where zc counts the zeros
      of s(c) and const = -zeros(s(a)[:j]) - zeros(s(b)[kept:]);
    * u starts with s(a)[j] and ends with s(b)[kept-1].

    So the envelopes of the factors with given first and last letters at L
    follow from those at m, and m < L once L >= 3.  Lengths 1 and 2 come
    from the length-2 factors; given every length <= M, a block of lengths
    (M, l*(M-1)+1] needs sources m <= M only.  L depends on m and d alone,
    so the table is read as a grid of rows of l lengths each, and each
    source m lands on one row: on row m-1 (lengths l*(m-1)+1 ..) for d >= 1
    and on row m-2 for d <= 0.  The constants are min/max tables over the
    cuts with one offset (``_desubstitution_constants``), so a block costs,
    per (a, b) and per part, one broadcast add and one np.minimum or
    np.maximum into a strided row view, with no index array.  Writes that
    land outside the block are counts of real factors, so they leave the
    exact envelopes unchanged.

    The (a, b, f, l)-refined arrays are kept only up to the longest source
    any block reads, ceil((n_max + l - 1) / l); rows past it are reduced
    straight into z_min and z_max.  Sources with no factor are masked, and
    the arrays are int32 (see _NONE).  A table longer than
    DESUBSTITUTION_TABLE_BUDGET lengths is refused before anything is
    allocated.
    """
    if n_max > DESUBSTITUTION_TABLE_BUDGET:
        raise ValueError(
            f"a desubstitution table to length {n_max} exceeds the budget "
            f"DESUBSTITUTION_TABLE_BUDGET = {DESUBSTITUTION_TABLE_BUDGET} lengths")
    z1, slope, const_lo, const_hi, any_lo, any_hi, (_, known) = (
        _desubstitution_constants(g))
    ell, k = g.morphism.uniform_length, g.morphism.alphabet_size
    keep = -(-(n_max + ell - 1) // ell)  # longest source length read
    keep_rows, out_rows = -(-keep // ell), -(-n_max // ell)

    # lo[a, b, L] / hi[a, b, L]: least / most zeros over length-L factors
    # that start with a and end with b, for L <= l * keep_rows; the grids
    # are the same lengths 1.. as rows of l.
    lo = np.full((k, k, 1 + ell * keep_rows), _NONE, dtype=np.int32)
    hi = np.full((k, k, 1 + ell * keep_rows), -_NONE, dtype=np.int32)
    for length, envelopes in known.items():
        for ab, (zeros, _) in envelopes.items():
            lo[ab // k, ab % k, length] = hi[ab // k, ab % k, length] = zeros
    lo_grid = lo[:, :, 1:].reshape(k, k, keep_rows, ell)
    hi_grid = hi[:, :, 1:].reshape(k, k, keep_rows, ell)
    z_min = np.full(ell * out_rows, _NONE, dtype=np.int32)
    z_max = np.full(ell * out_rows, -_NONE, dtype=np.int32)
    min_grid = z_min.reshape(out_rows, ell)
    max_grid = z_max.reshape(out_rows, ell)

    done = 2
    while done < n_max:
        first, last = done // ell + 1, min(done, keep)  # source lengths
        base = z1 * np.arange(first, last + 1, dtype=np.int32)
        for a in range(k):
            for b in range(k):
                v_lo, v_hi = lo[a, b, first:last + 1], hi[a, b, first:last + 1]
                found = v_lo <= v_hi
                if not found.any():
                    continue
                if slope < 0:
                    v_lo, v_hi = v_hi, v_lo
                # no sentinel enters the arithmetic (see _NONE)
                s_lo = base + slope * np.where(found, v_lo, 0)
                s_hi = base + slope * np.where(found, v_hi, 0)
                s_lo[~found], s_hi[~found] = _NONE, -_NONE
                for part in (0, 1):
                    row = first - 1 - part  # where source `first` lands
                    for r0, r1, grid_lo, grid_hi, c_lo, c_hi in (
                        (0, keep_rows, lo_grid, hi_grid,
                         const_lo[part, a, b, :, :, None],
                         const_hi[part, a, b, :, :, None]),
                        (keep_rows, out_rows, min_grid, max_grid,
                         any_lo[part, a, b], any_hi[part, a, b]),
                    ):
                        # row -1, from m = 1 at d <= 0, is no length
                        r0, r1 = max(r0, row), min(r1, row + len(base))
                        if r0 >= r1:
                            continue
                        rows = slice(r0 - row, r1 - row)
                        view = grid_lo[..., r0:r1, :]
                        np.minimum(view, s_lo[rows, None] + c_lo, out=view)
                        view = grid_hi[..., r0:r1, :]
                        np.maximum(view, s_hi[rows, None] + c_hi, out=view)
        done = min(ell * (done - 1) + 1, n_max)
    refined = ell * keep_rows
    z_min[:refined] = lo_grid.min(axis=(0, 1)).ravel()
    z_max[:refined] = hi_grid.max(axis=(0, 1)).ravel()
    return z_min[:n_max], z_max[:n_max]


def _desubstitution_envelope(g: MorphicFixedPoint, n: int) -> tuple[int, int]:
    """(z_min, z_max) of a binary fixed point of a uniform morphism of
    width l at one length n, by the recursion of _desubstitution_envelopes
    in plain ints, over only the lengths it reads.

    A length L >= 3 reads the sources m = ceil((j+L)/l), j < l, which are
    ceil(L/l) and ceil((L+l-1)/l), each at the one offset L - l*(m-1); so
    each level holds at most two lengths, and n costs O(log n) steps of at
    most k**4 slice constants each, with no table and no budget.
    """
    z1, slope, *_, (terms, known) = _desubstitution_constants(g)
    ell = g.morphism.uniform_length

    def sources(length):
        return {-(-length // ell), -(-(length + ell - 1) // ell)}

    env = dict(known)  # length -> {a*k + b: (lo, hi)}
    for length in _lengths_read(n, 2, sources):
        if length in env:
            continue
        out = {}
        for m in sources(length):
            base, source = z1 * m, env[m]
            for ab, fl, c_lo, c_hi in terms[length - ell * (m - 1)]:
                if ab not in source:
                    continue
                v_lo, v_hi = source[ab]
                if slope < 0:
                    v_lo, v_hi = v_hi, v_lo
                lo, hi = base + slope * v_lo + c_lo, base + slope * v_hi + c_hi
                if fl in out:
                    old_lo, old_hi = out[fl]
                    lo, hi = min(lo, old_lo), max(hi, old_hi)
                out[fl] = lo, hi
        env[length] = out
    return (min(lo for lo, _ in env[n].values()),
            max(hi for _, hi in env[n].values()))


def zero_envelope_table(
    g: WordGenerator, n_max: int, src: FactorSource | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(z_min, z_max) arrays for every window length 1..n_max (index n-1).

    The table form exists because downstream representability sweeps need
    every length at once.  Under MorphicCover it is computed exactly by
    desubstitution, so every power shares one table and the power is only
    the precondition n_max <= l**power, within DESUBSTITUTION_TABLE_BUDGET
    lengths; under Certified by the pf 2-recursion or the fib Beatty form,
    within CERTIFIED_TABLE_BUDGET lengths; under the other sources it is a
    scan, stabilized jointly under StabilizedDoubling.

    Tables are cached per generator grow-only, so repeated sweeps share one
    computation, and come back at length exactly n_max.  A desubstitution
    table that misses the cache is built to max(n_max, 2 * cached length),
    clipped to DESUBSTITUTION_TABLE_BUDGET, so a climb through rising
    lengths costs a few builds, not one per length.  The other sources
    build exactly n_max, so a doubling stops where it would uncached.
    """
    if g.alphabet_size != 2:
        raise ValueError("zero envelopes are defined for binary words")
    if n_max < 1:
        raise ValueError("window length must be >= 1")
    if src is None:
        src = default_source(g, n_max)
    key = src
    if isinstance(src, MorphicCover):
        _require_cover(g, n_max, src)
        key = MorphicCover

    per_gen = _ENVELOPE_CACHE.setdefault(g, {})
    cached = per_gen.get(key, (0, None, None))
    if cached[0] >= n_max:
        return cached[1][:n_max], cached[2][:n_max]

    size = n_max
    if key is MorphicCover:
        size = max(n_max, min(2 * cached[0], DESUBSTITUTION_TABLE_BUDGET))
        z_min, z_max = _desubstitution_envelopes(g, size)
    elif isinstance(src, Certified):
        z_min, z_max = _certified(g, n_max, table=True)
    else:
        z_min, z_max = _scan_envelope_table(g, n_max, src)
    z_min.setflags(write=False)
    z_max.setflags(write=False)
    per_gen[key] = (size, z_min, z_max)
    return z_min[:n_max], z_max[:n_max]


def pf_delta_stats(n: int, src: FactorSource | None = None) -> DeltaStats:
    """Range of zeros-minus-ones over length-n paperfolding factors."""
    from .words import WORDS

    zset = parikh_set(WORDS["pf"], n, src)
    deltas = frozenset(v[0] - v[1] for v in zset)
    return DeltaStats(max(deltas), deltas)


def is_balanced(
    g: WordGenerator, max_len: int, c: int = 1, src: FactorSource | None = None
) -> bool:
    """True if per-letter counts of equal-length factors spread at most c apart,
    for every length up to max_len."""
    return all(max(counts) - min(counts) <= c
               for row in parikh_set_table(g, max_len, src) for counts in zip(*row))


def welldoc_check(
    g: WordGenerator, w: FiniteWord, modulus: int, scan_limit: int
) -> WelldocReport:
    """Scan occurrences g = u w v with |u| < scan_limit and collect the
    per-letter counts of u mod ``modulus``; complete when every residue
    vector in (Z/m)^k has been seen."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if w.alphabet_size != g.alphabet_size:
        raise ValueError("alphabet mismatch between factor and word")
    k = g.alphabet_size
    text = g.prefix_array(scan_limit + len(w))
    hits = np.flatnonzero(
        np.all(
            np.lib.stride_tricks.sliding_window_view(text, len(w)) == w.array,
            axis=1,
        )
    )
    hits = hits[hits < scan_limit]
    if len(hits) == 0:
        raise FactorNotFoundError(
            f"{w} not found in the first {scan_limit} positions"
        )
    sums = np.zeros((k, len(text) + 1), dtype=np.int32)
    np.cumsum(text == np.arange(k)[:, None], axis=1, out=sums[:, 1:])
    residues = set(zip(*(sums[:, hits] % modulus).tolist()))
    return WelldocReport(
        complete=len(residues) == modulus**k,
        residues_found=frozenset(residues),
        occurrences=len(hits),
    )
