"""Deterministic generators for four infinite words and the operators that build them.

The library works with four words, all indexed from 1:

* ``pf``  -- the ordinary paperfolding word over {0,1},
* ``fib`` -- the Fibonacci word over {0,1}, defined by Beatty differences,
* ``phi`` -- the fixed point of the quintic morphism 0 -> 00101, 1 -> 11011,
* ``t``   -- a balanced ternary word obtained from ``fib`` by turning every
  second 0 (globally, starting with the second) into a 2.

All Beatty arithmetic is exact: floors of n*phi are computed with integer
square roots, never with floating point, so parities and envelopes stay
trustworthy far beyond float precision.

Prefixes follow each word's own recursion in one uint8 buffer, with no
index array: pf is a Toeplitz word (odd positions 0101..., even positions
pf itself), filled through strided views; fib and t grow by the standard
words s_(k+1) = s_k s_(k-1), t with the 0 <-> 2 swap its alternation needs
where s_k holds an odd number of zeros; phi iterates its morphism.  The
Beatty floors serve the single letters, the certified fib envelope and the
checks in ``verify``.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "ConfigurationError",
    "FiniteWord",
    "Morphism",
    "PHI_MORPHISM",
    "WordGenerator",
    "PaperfoldingWord",
    "FibonacciWord",
    "MorphicFixedPoint",
    "TernaryBalancedWord",
    "WORDS",
    "PREFIX_BUDGET",
    "paperfolding_letter",
    "paperfolding_prefix",
    "floor_phi",
    "floor_alpha",
    "fib_beatty",
    "fibonacci_letter",
    "fibonacci_prefix",
    "iterate_morphism",
    "incidence_matrix",
    "replace_alternate_zeros",
    "ternary_t_letter",
    "ternary_t_prefix",
]

# Largest n for which 5*n*n fits comfortably in int64 during array generation.
_BEATTY_ARRAY_LIMIT = 1_300_000_000

#: Longest prefix ``WordGenerator.prefix``, ``paperfolding_prefix``,
#: ``fibonacci_prefix``, ``ternary_t_prefix`` and ``iterate_morphism`` build
#: as a FiniteWord.  Its uint8 array and its text take one byte per symbol
#: each; at this length `prefix --word W` peaks at 36 MiB RSS for each of
#: pf, fib, phi and t, 6 MiB above the import.
PREFIX_BUDGET = 2**20


class ConfigurationError(ValueError):
    """A request that is structurally invalid (bad morphism seed, bad source)."""


def _require_prefix_budget(n: int) -> None:
    """Refuse a public prefix of more than PREFIX_BUDGET symbols before
    anything is built.  Generators build longer prefix arrays unbudgeted,
    for the doubling scans."""
    if n > PREFIX_BUDGET:
        raise ValueError(
            f"a prefix of {n} symbols exceeds the budget "
            f"PREFIX_BUDGET = {PREFIX_BUDGET} symbols")


class FiniteWord:
    """An immutable finite word over the alphabet {0, ..., alphabet_size-1}:
    a private read-only uint8 copy ``array`` of a digit string or of any
    sequence, iterable or array of integers."""

    __slots__ = ("array", "alphabet_size")

    def __init__(self, symbols, alphabet_size: int | None = None):
        if not isinstance(symbols, (np.ndarray, list, tuple)):
            symbols = list(symbols)  # an iterable, or a string of digits
        arr = np.asarray(symbols)
        if arr.dtype.kind == "U":  # digits; numpy raises ValueError on others
            arr = arr.astype(np.int64)
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "biu"):
            raise ValueError("symbols must be a flat sequence of integers")
        if alphabet_size is None:
            alphabet_size = max(2, int(arr.max()) + 1 if arr.size else 2)
        if not 1 <= alphabet_size <= 256:
            raise ValueError(f"alphabet_size {alphabet_size} outside 1..256, "
                             "the letters a uint8 symbol can hold")
        outside = arr[(arr < 0) | (arr >= alphabet_size)]
        if outside.size:
            raise ValueError(f"symbol {outside[0]} outside alphabet of size {alphabet_size}")
        arr = arr.astype(np.uint8)  # a copy, even of a uint8 input
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "alphabet_size", alphabet_size)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteWord is immutable")

    @classmethod
    def from_string(cls, text: str, alphabet_size: int | None = None) -> "FiniteWord":
        return cls(text, alphabet_size)

    @property
    def symbols(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    def count(self, letter: int) -> int:
        return int(np.count_nonzero(self.array == letter))

    def complement(self) -> "FiniteWord":
        """Binary complement 0 <-> 1."""
        if self.alphabet_size != 2:
            raise ValueError("complement is defined for binary words only")
        return FiniteWord(self.array ^ 1, 2)

    def reverse(self) -> "FiniteWord":
        return FiniteWord(self.array[::-1], self.alphabet_size)

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FiniteWord(self.array[i], self.alphabet_size)
        return int(self.array[i])

    def __iter__(self) -> Iterator[int]:
        return iter(self.array.tolist())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteWord)
            and self.alphabet_size == other.alphabet_size
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self) -> int:
        return hash((self.array.tobytes(), self.alphabet_size))

    def __add__(self, other: "FiniteWord") -> "FiniteWord":
        k = max(self.alphabet_size, other.alphabet_size)
        return FiniteWord(np.concatenate([self.array, other.array]), k)

    def __str__(self) -> str:
        if self.alphabet_size <= 10:
            return (self.array + ord("0")).tobytes().decode()
        return "".join(map(str, self.array.tolist()))

    def __repr__(self) -> str:
        return f"FiniteWord({str(self)!r}, alphabet_size={self.alphabet_size})"


class Morphism:
    """A substitution on {0..k-1}, given by one image word per letter.

    ``uniform_length`` is the common image length when all images share one,
    else None.  Images must live over the same alphabet as the domain.
    """

    __slots__ = ("images", "uniform_length", "_image_matrix")

    def __init__(self, images: Sequence[FiniteWord]):
        images = tuple(images)
        k = len(images)
        if k < 1:
            raise ValueError("a morphism needs at least one image")
        for img in images:
            if img.alphabet_size != k:
                raise ValueError(
                    f"image {img!r} not over the domain alphabet of size {k}"
                )
        lengths = {len(img) for img in images}
        uniform = lengths.pop() if len(lengths) == 1 else None
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "uniform_length", uniform)
        if uniform is not None and uniform > 0:
            mat = np.stack([img.array for img in images])
        else:
            mat = None
        object.__setattr__(self, "_image_matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("Morphism is immutable")

    @property
    def alphabet_size(self) -> int:
        return len(self.images)

    def apply(self, word: FiniteWord) -> FiniteWord:
        return FiniteWord(self.apply_array(word.array), self.alphabet_size)

    def apply_array(self, arr: np.ndarray) -> np.ndarray:
        if self._image_matrix is not None:
            return self._image_matrix[arr].ravel()
        return np.concatenate(
            [np.empty(0, dtype=np.uint8)] + [self.images[s].array for s in arr])

    def power_array(self, arr: np.ndarray, t: int) -> np.ndarray:
        """Apply the morphism t times to an array word."""
        for _ in range(t):
            arr = self.apply_array(arr)
        return arr

    def __repr__(self) -> str:
        rules = ", ".join(f"{i}->{img}" for i, img in enumerate(self.images))
        return f"Morphism({rules})"


PHI_MORPHISM = Morphism(
    [FiniteWord.from_string("00101"), FiniteWord.from_string("11011")]
)


# ---------------------------------------------------------------------------
# Paperfolding word
# ---------------------------------------------------------------------------

def paperfolding_letter(n: int) -> int:
    """Letter n (1-indexed) of the paperfolding word.

    Writes n = m * 2^j with m odd; the letter is 0 when m = 1 (mod 4)
    and 1 when m = 3 (mod 4).
    """
    if n < 1:
        raise ValueError("positions are 1-indexed; n must be >= 1")
    m = n >> ((n & -n).bit_length() - 1)
    return (m >> 1) & 1


def _pf_letters(idx: np.ndarray) -> np.ndarray:
    """paperfolding_letter over an unsigned index array, with no division.

    For i = m * 2**j with m odd, i & -i is 2**j, so bit j+1 of i, which is
    bit 1 of m, is i & ((i & -i) << 1).  The shift may carry out of the
    top bit only when m = 1, whose letter is 0 either way.
    """
    low = np.negative(idx)
    low &= idx
    low <<= 1
    low &= idx
    return (low != 0).view(np.uint8)


def _pf_array_direct(n: int) -> np.ndarray:
    dtype = np.uint32 if n < 2**32 else np.uint64
    return _pf_letters(np.arange(1, n + 1, dtype=dtype))


def _pf_array_recursive(n: int) -> np.ndarray:
    w = np.array([0], dtype=np.uint8)
    while len(w) < n:
        w = np.concatenate([w, np.array([0], dtype=np.uint8), (1 - w)[::-1]])
    return w[:n]


def _pf_array_toeplitz(n: int, known: np.ndarray | None = None) -> np.ndarray:
    """The Toeplitz fill, all in one uint8 buffer: positions 1, 5, 9, ...
    hold 0 and 3, 7, 11, ... hold 1, and the even positions, every second
    slot, are the prefix of length n // 2, filled the same way in place.
    The descent stops at the first such prefix no longer than ``known``, a
    pf prefix already built, and copies that in."""
    out = np.empty(n, dtype=np.uint8)
    view, stop = out, 0 if known is None else len(known)
    while len(view) > stop:
        view[0::4] = 0
        view[2::4] = 1
        view = view[1::2]
    if len(view):
        view[:] = known[:len(view)]
    return out


def paperfolding_prefix(n: int, construction: str = "direct") -> FiniteWord:
    """Length-n prefix of the paperfolding word.

    ``construction`` selects one of three equivalent builds: "direct" maps
    the arithmetic letter rule over 1..n, "recursive" iterates
    w -> w 0 complement(reverse(w)), "toeplitz" fills the odd positions with
    the pattern 0101... and the even ones with the prefix of half the
    length, through strided views of one buffer.  All three produce
    identical output; the generator builds its prefixes the Toeplitz way.
    """
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    _require_prefix_budget(n)
    builders = {
        "direct": _pf_array_direct,
        "recursive": _pf_array_recursive,
        "toeplitz": _pf_array_toeplitz,
    }
    try:
        build = builders[construction]
    except KeyError:
        raise ValueError(f"unknown construction {construction!r}") from None
    return FiniteWord(build(n), 2)


# ---------------------------------------------------------------------------
# Beatty floors and the Fibonacci word
# ---------------------------------------------------------------------------

def floor_phi(n: int) -> int:
    """Exact floor(n * golden_ratio) via integer square root."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (n + math.isqrt(5 * n * n)) // 2


def floor_alpha(n: int) -> int:
    """Exact floor(n * alpha) where alpha = 2 - golden_ratio.

    Uses floor(n*alpha) = 2n - floor(n*phi) - 1, valid because n*phi is
    never an integer for n >= 1.
    """
    if n < 1:
        raise ValueError("the floor identity needs n >= 1")
    return 2 * n - floor_phi(n) - 1


def fib_beatty(n: int, which: str = "phi") -> int:
    """Exact Beatty floor: which="phi" gives floor(n*phi), "alpha" floor(n*alpha)."""
    if which == "phi":
        return floor_phi(n)
    if which == "alpha":
        return floor_alpha(n)
    raise ValueError(f"unknown Beatty mode {which!r}")


def _isqrt_array(x: np.ndarray) -> np.ndarray:
    # Float sqrt seeds the guess; integer comparisons make it exact.
    s = np.sqrt(x.astype(np.float64)).astype(np.int64)
    s = np.where(s * s > x, s - 1, s)
    while True:
        over = s * s > x
        if not over.any():
            break
        s = np.where(over, s - 1, s)
    while True:
        under = (s + 1) * (s + 1) <= x
        if not under.any():
            break
        s = np.where(under, s + 1, s)
    return s


def floor_phi_array(n_max: int) -> np.ndarray:
    """floor(n*phi) for n = 0..n_max as an int64 array, exact."""
    if n_max > _BEATTY_ARRAY_LIMIT:
        raise OverflowError(
            f"5*n^2 exceeds int64 for n > {_BEATTY_ARRAY_LIMIT}; "
            "use the scalar floor_phi instead"
        )
    n = np.arange(n_max + 1, dtype=np.int64)
    return (n + _isqrt_array(5 * n * n)) >> 1


def fibonacci_letter(n: int) -> int:
    """Letter n (1-indexed) of the Fibonacci word: floor((n+1)alpha) - floor(n alpha)."""
    if n < 1:
        raise ValueError("positions are 1-indexed; n must be >= 1")
    return 2 - (floor_phi(n + 1) - floor_phi(n))


def _standard_words(n: int, swap: bool) -> np.ndarray:
    """The length-n prefix of fib (swap=False) or of t (swap=True), grown
    by its standard words s_0 = 0, s_1 = 01, s_(k+1) = s_k s_(k-1), in one
    uint8 buffer.  Each s_k is a prefix of the next, so the new part is a
    copy of the first |s_(k-1)| symbols.  s_k holds |s_(k-1)| zeros, so in
    t the copy keeps its alternation when |s_(k-1)| is even and swaps
    0 <-> 2 (x -> 2 - x, which fixes 1) when it is odd."""
    out = np.empty(max(n, 2), dtype=np.uint8)
    out[:2] = (0, 1)
    length, previous = 2, 1
    while length < n:
        step = min(previous, n - length)
        if swap and previous % 2:
            np.subtract(2, out[:step], out=out[length:length + step])
        else:
            out[length:length + step] = out[:step]
        length, previous = length + previous, length
    return out[:n]


def fibonacci_prefix(n: int) -> FiniteWord:
    """Length-n prefix of the Fibonacci word over {0,1}."""
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    _require_prefix_budget(n)
    return FiniteWord(_standard_words(n, swap=False), 2)


# ---------------------------------------------------------------------------
# Morphic fixed points
# ---------------------------------------------------------------------------

def _require_prolongable(m: Morphism, seed: int) -> None:
    if not 0 <= seed < m.alphabet_size:
        raise ConfigurationError(f"seed {seed} outside alphabet")
    first = m.images[seed]
    if len(first) == 0 or first[0] != seed:
        raise ConfigurationError("morphism is not prolongable on the seed")


def iterate_morphism(m: Morphism, seed: int, target_length: int) -> FiniteWord:
    """Length-target_length prefix of the fixed point of m starting at seed.

    Requires m(seed) to begin with seed and the iteration to grow; stops at
    the first iterate of length >= target_length and truncates.
    """
    if target_length < 1:
        raise ValueError("target_length must be >= 1")
    _require_prefix_budget(target_length)
    _require_prolongable(m, seed)
    return FiniteWord(_fixed_point_array(m, seed, target_length), m.alphabet_size)


def _fixed_point_array(m: Morphism, seed: int, n: int) -> np.ndarray:
    """The unbudgeted length-n prefix of the fixed point of m at seed, as
    a view of the first iterate at least that long."""
    arr = np.array([seed], dtype=np.uint8)
    while len(arr) < n:
        new = m.apply_array(arr)
        if len(new) <= len(arr):
            raise ConfigurationError(
                "morphism does not grow past the seed; no infinite fixed point"
            )
        arr = new
    return arr[:n]


def incidence_matrix(m: Morphism) -> np.ndarray:
    """k x k matrix whose column i is the letter-count vector of the image of i."""
    k = m.alphabet_size
    return np.stack(
        [np.bincount(img.array, minlength=k) for img in m.images], axis=1
    ).astype(np.int64)


# ---------------------------------------------------------------------------
# The alternate-zero substitution and the ternary word t
# ---------------------------------------------------------------------------

def replace_alternate_zeros(w: FiniteWord, start: str = "second") -> FiniteWord:
    """Turn every other 0 of a binary word into a 2; 1s are untouched.

    ``start="second"`` replaces the 2nd, 4th, ... zeros (counting from the
    start of w); ``start="first"`` replaces the 1st, 3rd, ....  Length is
    preserved and erasing 2 -> 0 recovers the input.
    """
    if w.alphabet_size != 2:
        raise ValueError("input must be binary")
    if start not in ("second", "first"):
        raise ValueError(f"start must be 'second' or 'first', got {start!r}")
    return FiniteWord(_replace_alternate_zeros_array(w.array, start), 3)


def _replace_alternate_zeros_array(arr: np.ndarray, start: str) -> np.ndarray:
    """The substitution on a binary array, or on each row of a 2-D one."""
    zeros = arr == 0
    # Whether the 1-based ordinal of each zero in its row is odd: a running
    # parity, one bool pass with no int ordinal.
    odd = np.logical_xor.accumulate(zeros, axis=-1)
    target = zeros > odd if start == "second" else zeros & odd
    out = arr.copy()
    np.putmask(out, target, 2)
    return out


def ternary_t_letter(n: int) -> int:
    """Letter n of t, using the global zero count of the Fibonacci word."""
    if n < 1:
        raise ValueError("positions are 1-indexed; n must be >= 1")
    if fibonacci_letter(n) == 1:
        return 1
    # ordinal of the zero at position n = number of zeros in fib[1..n]
    ordinal = n - floor_alpha(n + 1)
    return 2 if ordinal % 2 == 0 else 0


def ternary_t_prefix(n: int) -> FiniteWord:
    """Length-n prefix of t = every-second-zero substitution of the Fibonacci word."""
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    _require_prefix_budget(n)
    return FiniteWord(_standard_words(n, swap=True), 3)


# ---------------------------------------------------------------------------
# Generators: uniform indexed access with a shared grow-only prefix cache
# ---------------------------------------------------------------------------

class WordGenerator:
    """Deterministic 1-indexed access to one infinite word.

    letter(n) is a pure function of n; prefix(n) = letter(1)...letter(n).
    Prefix arrays are cached grow-only and returned as read-only views, so
    sweeps over many lengths share one backing buffer.
    """

    family: str = "?"
    alphabet_size: int = 2

    def __init__(self):
        self._cache = np.empty(0, dtype=np.uint8)
        self._cache.setflags(write=False)

    def _build(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def letter(self, n: int) -> int:
        raise NotImplementedError

    def prefix_array(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        if n > len(self._cache):
            grown = self._build(max(n, 2 * len(self._cache)))
            grown.setflags(write=False)
            self._cache = grown
        return self._cache[:n]

    def prefix(self, n: int) -> FiniteWord:
        """The length-n prefix as a FiniteWord; a ValueError names
        PREFIX_BUDGET, before anything is built, if n exceeds it."""
        _require_prefix_budget(n)
        return FiniteWord(self.prefix_array(n), self.alphabet_size)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.family!r}>"


class PaperfoldingWord(WordGenerator):
    family = "pf"
    alphabet_size = 2

    def _build(self, n):
        return _pf_array_toeplitz(n, self._cache)

    def letter(self, n):
        return paperfolding_letter(n)


class FibonacciWord(WordGenerator):
    family = "fib"
    alphabet_size = 2

    def _build(self, n):
        return _standard_words(n, swap=False)

    def letter(self, n):
        return fibonacci_letter(n)


class MorphicFixedPoint(WordGenerator):
    """Fixed point of a prolongable morphism; family "phi" for the built-in one."""

    alphabet_size = 2

    def __init__(self, morphism: Morphism = PHI_MORPHISM, seed: int = 0,
                 family: str = "phi"):
        _require_prolongable(morphism, seed)
        super().__init__()
        self.morphism = morphism
        self.seed = seed
        self.family = family
        self.alphabet_size = morphism.alphabet_size

    def _build(self, n):
        # a copy, so the longer last iterate is freed
        return _fixed_point_array(self.morphism, self.seed, n).copy()

    def letter(self, n):
        if n < 1:
            raise ValueError("positions are 1-indexed; n must be >= 1")
        return int(self.prefix_array(n)[n - 1])


class TernaryBalancedWord(WordGenerator):
    family = "t"
    alphabet_size = 3

    def _build(self, n):
        return _standard_words(n, swap=True)

    def letter(self, n):
        return ternary_t_letter(n)


#: Shared generator instances keyed by their command-line names.
WORDS: dict[str, WordGenerator] = {
    "pf": PaperfoldingWord(),
    "fib": FibonacciWord(),
    "phi": MorphicFixedPoint(),
    "t": TernaryBalancedWord(),
}
