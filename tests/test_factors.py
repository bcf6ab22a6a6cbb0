"""Factor scanning: Parikh sets, envelopes, balance, occurrence residues."""

import copy
import dataclasses
import functools
import hashlib
import json
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frobwords import cli, factors, frobenius, verify
from frobwords.factors import (
    _desubstitution_envelope,
    _desubstitution_envelopes,
    _length2_factors,
    _paperfolding_envelopes,
    _scan_envelope_table,
    _window_scan,
    CERTIFIED_TABLE_BUDGET,
    COVER_BUDGET,
    PARIKH_TABLE_BUDGET,
    Certified,
    ExplicitPrefix,
    FactorNotFoundError,
    MorphicCover,
    StabilizationError,
    StabilizedDoubling,
    ZeroEnvelope,
    abelian_complexity,
    is_balanced,
    parikh,
    parikh_set,
    parikh_set_table,
    pf_delta_stats,
    welldoc_check,
    zero_envelope,
    zero_envelope_table,
)
from frobwords.words import (
    ConfigurationError,
    FibonacciWord,
    FiniteWord,
    MorphicFixedPoint,
    Morphism,
    PaperfoldingWord,
    TernaryBalancedWord,
    WORDS,
    WordGenerator,
)

PF, FIB, PHI, T = WORDS["pf"], WORDS["fib"], WORDS["phi"], WORDS["t"]


def examples(n):
    """n Hypothesis examples under the default profile, five times as many
    under the ci profile (tests/conftest.py)."""
    return n * settings.default.max_examples // 100


# Uniform binary morphisms prolongable on the seed 0.
TEST_MORPHISMS = [
    ("01", "10"),        # Thue-Morse
    ("01", "00"),        # period doubling: 11 is not a factor
    ("001", "110"),
    ("0110", "1001"),
    ("011", "100"),      # fewer zeros in the image of 0 than of 1
    ("01100", "10011"),
]


def fixed_point(img0: str, img1: str, seed: int = 0) -> MorphicFixedPoint:
    m = Morphism([FiniteWord.from_string(img0, 2), FiniteWord.from_string(img1, 2)])
    return MorphicFixedPoint(m, seed, family="test")


class TestParikh:
    def test_examples(self):
        assert tuple(parikh(FiniteWord.from_string("00101"))) == (3, 2)
        assert tuple(parikh(FiniteWord([], 2))) == (0, 0)
        assert tuple(parikh(T.prefix(17))) == (6, 6, 5)

    @given(st.lists(st.integers(0, 2), max_size=120))
    def test_counts_sum_to_length(self, symbols):
        v = parikh(FiniteWord(symbols, 3))
        assert v.length == len(symbols) == sum(v)

    @given(st.lists(st.integers(0, 1), max_size=60),
           st.lists(st.integers(0, 1), max_size=60))
    def test_concatenation_adds(self, xs, ys):
        u, v = FiniteWord(xs, 2), FiniteWord(ys, 2)
        joined = parikh(u + v)
        assert tuple(joined) == tuple(a + b for a, b in zip(parikh(u), parikh(v)))

    def test_dot_mismatch(self):
        with pytest.raises(ValueError):
            parikh(FiniteWord.from_string("01")).dot((1, 2, 3))


class TestParikhSet:
    def test_pf_length_2(self):
        assert set(parikh_set(PF, 2)) == {(2, 0), (1, 1), (0, 2)}

    def test_pf_length_4(self):
        assert set(parikh_set(PF, 4)) == {(1, 3), (2, 2), (3, 1)}

    def test_t_length_1(self):
        assert set(parikh_set(T, 1)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_result_is_sorted(self):
        got = parikh_set(T, 9)
        assert list(got) == sorted(got)

    def test_explicit_prefix_source(self):
        assert set(parikh_set(PF, 2, ExplicitPrefix(4096))) == {
            (2, 0), (1, 1), (0, 2)}
        with pytest.raises(ValueError):
            parikh_set(PF, 10, ExplicitPrefix(5))

    def test_morphic_cover_bounds(self):
        with pytest.raises(ValueError):
            parikh_set(PHI, 26, MorphicCover(2))  # 26 > 5^2
        zero_envelope_table(PHI, 200, MorphicCover(4))
        with pytest.raises(ValueError):
            zero_envelope_table(PHI, 26, MorphicCover(2))  # even when cached
        with pytest.raises(ConfigurationError):
            parikh_set(PF, 4, MorphicCover(3))

    def test_stabilization_cap_failure(self):
        with pytest.raises(StabilizationError):
            parikh_set(PF, 64, StabilizedDoubling(max_length=2**9))

    def test_default_cap_leaves_no_doubling_at_2_to_14(self):
        with pytest.raises(StabilizationError):
            parikh_set(PF, 2**14, StabilizedDoubling())

    def test_table_matches_per_length(self):
        table = parikh_set_table(T, 40)
        for n in (1, 7, 23, 40):
            assert table[n - 1] == parikh_set(T, n)

    def test_binary_table_budget(self, monkeypatch):
        """The vector count is read off the envelope table; past the budget
        the table is refused before any vector is built."""
        built = []
        monkeypatch.setattr(factors, "_binary_parikhs",
                            lambda n, lo, hi: built.append(n) or ())
        z_min, z_max = zero_envelope_table(PHI, 20_000)
        assert int((z_max - z_min).sum()) + 20_000 == 1_727_800
        for call in (parikh_set_table, is_balanced):
            with pytest.raises(ValueError, match="PARIKH_TABLE_BUDGET = 1048576"):
                call(PHI, 20_000)
        assert built == []
        # pf to 2^16 holds 743,960 vectors and is accepted
        assert len(parikh_set_table(PF, 2**16, Certified())) == 2**16
        z_min, z_max = zero_envelope_table(PF, 2**16, Certified())
        assert int((z_max - z_min).sum()) + 2**16 == 743_960 <= PARIKH_TABLE_BUDGET

    @pytest.mark.parametrize("src", [None, StabilizedDoubling()],
                             ids=["default", "doubling"])
    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("name", ["pf", "fib", "phi", "t"])
    def test_window_length_below_one(self, name, n, src):
        """Refused before the envelope cache, whose empty entry would pass
        for a table of length 0, and before a scan reads the longest length."""
        g = WORDS[name]
        calls = [parikh_set, parikh_set_table]
        if g.alphabet_size == 2:
            calls += [zero_envelope, zero_envelope_table]
        for call in calls:
            with pytest.raises(ValueError, match="window length must be >= 1"):
                call(g, n, src)


def distinct_window_counts(strings, n, k):
    """Brute force: the distinct length-n windows, reduced to zero-count
    extrema (k = 2) or to sorted (ones, twos) pairs (k = 3)."""
    rows = np.concatenate([
        np.unique(np.lib.stride_tricks.sliding_window_view(arr, n), axis=0)
        for arr in strings if len(arr) >= n])
    if k == 2:
        zeros = (rows == 0).sum(axis=1)
        return int(zeros.min()), int(zeros.max())
    return tuple(sorted({(int((r == 1).sum()), int((r == 2).sum())) for r in rows}))


class TestWindowKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda k: st.tuples(
        st.just(k),
        st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=60),
                 min_size=1, max_size=3),
        st.data(),
    )))
    def test_matches_distinct_windows(self, draw):
        k, lists, data = draw
        strings = [np.array(xs, dtype=np.uint8) for xs in lists]
        longest = max(len(arr) for arr in strings)
        n = data.draw(st.one_of(st.just(longest), st.integers(1, longest)))
        # a long length first, then a short one, through the reused buffer
        assert list(_window_scan(strings, [n, 1], k)) == [
            distinct_window_counts(strings, n, k),
            distinct_window_counts(strings, 1, k)]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7),
           st.integers(2, 3).flatmap(lambda k: st.tuples(st.just(k), st.lists(
               st.lists(st.integers(0, k - 1), min_size=1, max_size=40),
               min_size=1, max_size=4))),
           st.data())
    # lengths [n, 1] with n = 7, over each alphabet
    @example(3, (2, [[0, 1, 1, 0, 0, 0, 1], [1, 0]]), None)
    @example(3, (3, [[0, 2, 1, 0, 2, 2, 1], [1, 2]]), None)
    def test_binary_blocks_match_distinct_windows(self, block, words, data):
        """Blocks of 1..7 symbols, over two letters or three: windows cross
        several blocks, strings are shorter than some lengths, and lengths
        come unsorted."""
        k, lists = words
        strings = [np.array(xs, dtype=np.uint8) for xs in lists]
        longest = max(len(arr) for arr in strings)
        if data is None:
            lengths = [longest, 1]
        else:
            lengths = data.draw(st.lists(st.integers(1, longest), min_size=1,
                                         max_size=6))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(factors, "_SCAN_BLOCK", block)
            got = list(_window_scan(strings, lengths, k))
        assert got == [distinct_window_counts(strings, n, k) for n in lengths]

    def test_too_short(self, monkeypatch):
        for block in (1, 2, 2**17):
            monkeypatch.setattr(factors, "_SCAN_BLOCK", block)
            for k in (2, 3):
                with pytest.raises(ValueError):
                    next(_window_scan([np.zeros(3, dtype=np.uint8)], [4], k))


def window_zeros(arr, n):
    """The zero counts of the length-n windows of a binary string, by end."""
    sums = np.concatenate([[0], np.cumsum(arr == 0)])
    return sums[n:] - sums[:-n]


@st.composite
def runs_of_lengths(draw, longest):
    """Lengths in runs of consecutive integers, with single lengths and
    repeats, in no particular order."""
    lengths = []
    for _ in range(draw(st.integers(1, 4))):
        n0 = draw(st.integers(1, longest))
        lengths += range(n0, min(n0 + draw(st.integers(1, 40)), longest + 1))
    lengths += draw(st.lists(st.sampled_from(lengths), max_size=3))
    return draw(st.permutations(lengths)) if draw(st.booleans()) else lengths


class TestRunFolds:
    @settings(max_examples=examples(100), deadline=None)
    @given(st.sampled_from([np.uint16, np.int32]),
           st.lists(st.integers(0, 1), min_size=2, max_size=120), st.data())
    # a fold from the string's start whose longest windows begin at 0:
    # 2*n1 - n0 = top exactly
    @example(np.uint16, [0, 1, 1, 0, 0, 0, 1, 0, 1], (2, 5, 1, 2**16 - 3))
    # a fold of lengths up to the block start, with the carry wrapping
    @example(np.uint16, [1, 0, 0, 1, 0, 1, 1, 1, 0, 0], (2, 3, 6, 2**16 - 2))
    @example(np.int32, [0] * 12 + [1] * 7, (3, 5, 1, 2**31 - 40))
    def test_run_windows_match_windows(self, dtype, bits, data):
        """Each row of a 2-D fold holds the zero counts of its length's
        windows: those that end in the block from first on if every length
        reaches back past first, else, from the string's start, every
        window (some twice).  Sums start at a carry near 2**16 in uint16,
        so they wrap, and near 2**31 in int32."""
        arr = np.array(bits, dtype=np.uint8)
        top = len(arr) + 1
        if isinstance(data, tuple):
            n0, r, first, carry = data
        else:
            first = data.draw(st.integers(1, top - 1))
            n0 = data.draw(st.integers(1, top - 1))
            if n0 <= first:
                r = data.draw(st.integers(1, first - n0 + 1))
            else:
                r = data.draw(st.integers(1, (top - n0) // 2 + 1))
            wrap = 2**16 if dtype is np.uint16 else 2**31 - top
            carry = data.draw(st.integers(wrap - top, wrap - 1))
        sums = np.empty(top, dtype=dtype)
        sums[0] = carry
        np.cumsum(arr == 0, dtype=dtype, out=sums[1:])
        sums[1:] += dtype(carry)
        buf = np.full(r * top, 7, dtype=dtype)
        counts = factors._run_windows(sums, top, first, n0, r, buf)
        assert counts.shape[0] == r
        for j, row in enumerate(counts.tolist()):
            zeros = window_zeros(arr, n0 + j).tolist()
            if n0 + r - 1 <= first:  # ends first .. top-1, each once
                assert row == zeros[first - n0 - j:]
            else:
                assert set(row) == set(zeros)
        assert factors._row_extrema(counts) == [
            (min(row), max(row)) for row in counts.tolist()]

    @settings(max_examples=examples(100), deadline=None)
    @given(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=90),
                    min_size=1, max_size=3),
           st.one_of(st.integers(1, 7), st.just(2**17)), st.data())
    def test_kernel_runs_match_distinct_windows(self, lists, block, data):
        """Runs of consecutive lengths, single and repeated lengths in any
        order, strings shorter than 2*n1 - n0, and blocks of 1..7 symbols
        or one block per string."""
        strings = [np.array(xs, dtype=np.uint8) for xs in lists]
        longest = max(len(arr) for arr in strings)
        lengths = data.draw(runs_of_lengths(longest))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(factors, "_SCAN_BLOCK", block)
            got = list(_window_scan(strings, lengths, 2))
        assert got == [distinct_window_counts(strings, n, 2) for n in lengths]

    def test_int32_runs_and_first_block(self, monkeypatch):
        """A length of 2**16 + 1 puts the sums in int32; the runs fold over
        the last block of a long string and over all of a short one, whose
        lengths begin at their own length."""
        long_arr, short_arr = PF.prefix_array(245_000), FIB.prefix_array(300)
        lengths = [2**16 + 1, *range(1, 60), 7, 7, *range(200, 150, -1)]
        monkeypatch.setattr(factors, "_SCAN_BLOCK", 40_000)
        with mock.patch.object(factors, "_run_windows",
                               wraps=factors._run_windows) as folds:
            got = list(_window_scan([long_arr, short_arr], lengths, 2))
        assert folds.call_count > 0
        assert {c.args[0].dtype for c in folds.call_args_list} == {np.dtype(np.int32)}
        for n, row in zip(lengths, got):
            zeros = np.concatenate([window_zeros(arr, n) for arr in
                                    (long_arr, short_arr) if len(arr) >= n])
            assert row == (int(zeros.min()), int(zeros.max()))

    def test_first_scan_folds_runs(self):
        """The pf table to 1025 scans its 1025 lengths over 8200 symbols in
        2-D folds of at least three lengths each; the hull steps, over
        blocks of some 60,000 symbols, fold every length alone."""
        src = StabilizedDoubling(max_length=2**22)
        with mock.patch.object(factors, "_run_windows",
                               wraps=factors._run_windows) as folds, \
                mock.patch.object(factors, "_window_scan",
                                  wraps=factors._window_scan) as kernel:
            _scan_envelope_table(PaperfoldingWord(), 1025, src)
        assert len(kernel.call_args_list[0].args[0][0]) == 8200
        rows = [c.args[4] for c in folds.call_args_list]
        assert min(rows) >= 3 and sum(rows) == 1024  # all but length 1
        assert len(rows) < 1024 // 10


class TestAbelianComplexity:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_pf_powers_of_two(self, k):
        assert abelian_complexity(PF, 2**k) == 3

    def test_fib_constant_two(self):
        assert all(abelian_complexity(FIB, n) == 2 for n in range(1, 80))

    def test_t_constant_three(self):
        assert all(abelian_complexity(T, n) == 3 for n in range(1, 80))

    def test_constant_complexity_grid_to_5000(self):
        # full sweeps to 2000 live in the acceptance suite; extend the claim
        # to the 5000 mark on a stabilized grid
        src = StabilizedDoubling()
        grid = [*range(2003, 5000, 83), 5000]
        assert all(abelian_complexity(FIB, n, src) == 2 for n in grid)
        assert all(abelian_complexity(T, n, src) == 3 for n in grid)


CERTIFIED_MAX = 1500


@functools.cache
def doubling_tables():
    """The doubling-scan tables to CERTIFIED_MAX: the pf and fib envelopes
    and the t Parikh table, the references for the certified source."""
    src = StabilizedDoubling(max_length=2**22)
    return (_scan_envelope_table(PF, CERTIFIED_MAX, src),
            _scan_envelope_table(FIB, CERTIFIED_MAX, src),
            parikh_set_table(T, CERTIFIED_MAX, src))


def check_certified(n):
    """The certified pf and fib envelope tables and t Parikh table to n
    equal the doubling scans, and their last rows the single-length answers."""
    pf_ref, fib_ref, t_ref = doubling_tables()
    # the builders, not the cached tables, so every n is a fresh recursion
    for build, g, (ref_min, ref_max) in (
            (factors._paperfolding_envelopes, PF, pf_ref),
            (factors._fibonacci_envelopes, FIB, fib_ref)):
        z_min, z_max = build(n)
        assert z_min.tolist() == ref_min[:n].tolist()
        assert z_max.tolist() == ref_max[:n].tolist()
        env = zero_envelope(g, n, Certified())
        assert (env.z_min, env.z_max) == (z_min[-1], z_max[-1])
        assert parikh_set(g, n, Certified()) == parikh_set_table(
            g, n, Certified())[-1]
    t_table = parikh_set_table(T, n, Certified())
    assert t_table == t_ref[:n]
    assert parikh_set(T, n, Certified()) == t_table[-1]


class TestCertifiedSource:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, CERTIFIED_MAX))
    def test_equals_doubling_scan(self, n):
        check_certified(n)

    def test_equals_doubling_scan_around_powers_of_two(self):
        for k in range(1, 11):
            for n in (2**k - 1, 2**k, 2**k + 1):
                check_certified(n)

    def test_default_source(self):
        for g in (PF, FIB, T):
            assert factors.default_source(g, 10) == Certified()
        assert factors.default_source(PHI, 30) == MorphicCover(3)
        assert isinstance(factors.default_source(verify.MaxComplexityWord(), 10),
                          StabilizedDoubling)

    def test_other_generators_rejected(self):
        for g in (PHI, verify.MaxComplexityWord(), fixed_point("01", "10")):
            with pytest.raises(ConfigurationError):
                zero_envelope_table(g, 10, Certified())
            with pytest.raises(ConfigurationError):
                parikh_set(g, 10, Certified())

    def test_budget(self):
        too_long = CERTIFIED_TABLE_BUDGET + 1
        for call in (lambda: zero_envelope_table(PF, too_long),
                     lambda: zero_envelope_table(FIB, too_long),
                     lambda: parikh_set_table(T, too_long),
                     lambda: frobenius.pf_witnesses(4, 5, range(20, 21))):
            with pytest.raises(ValueError, match="CERTIFIED_TABLE_BUDGET"):
                call()
        # one length needs no table: O(log n) for pf, O(1) for fib and t
        assert abelian_complexity(FIB, 10**12) == 2
        assert abelian_complexity(T, 10**12) == 3
        assert zero_envelope(PF, 10**10).z_max == 5000000008

    def test_default_path_never_scans(self, monkeypatch, capsys):
        def no_scan(*args):
            raise AssertionError("a built-in word reached a prefix scan")

        monkeypatch.setattr(factors, "_scan_source", no_scan)
        monkeypatch.setattr(factors, "_ENVELOPE_CACHE",
                            factors.weakref.WeakKeyDictionary())
        for g, rho in ((PF, 3), (FIB, 2), (T, 3)):
            assert len(parikh_set_table(g, 256)) == 256
            assert len(parikh_set(g, 256)) == rho
        for g in (PF, FIB):
            z_min, z_max = zero_envelope_table(g, 256)
            assert len(z_min) == len(z_max) == 256
        assert all(r.verified_nonrepresentable
                   for r in frobenius.pf_witnesses(4, 9, range(4, 11)))
        for word in ("pf", "fib", "t"):
            assert cli.main(["complexity", "--word", word, "--n-min", "1",
                             "--n-max", "64"]) == 0
        assert capsys.readouterr().err == ""


def full_rescan_stop(n_max, src, answer):
    """The prefix length at which doubling with a whole-prefix rescan at
    every step accepts, where ``answer(length)`` is the answer on that
    prefix; or the StabilizationError that loop raises."""
    length = max(src.initial_length or 64 * n_max, n_max)
    if 2 * length > src.max_length:
        raise StabilizationError(
            f"initial length {length} leaves no doubling below the cap "
            f"{src.max_length}")
    previous = answer(length)
    while 2 * length <= src.max_length:
        length *= 2
        current = answer(length)
        if current == previous:
            return length
        previous = current
    raise StabilizationError(
        f"no stabilization for windows of length {n_max} below prefix cap "
        f"{src.max_length}")


class MarkedPaperfolding(WordGenerator):
    """A 2, then pf: only the windows at the very start hold a 2, so a
    doubling step that dropped the earlier rows would lose their pairs."""

    family = "2pf"
    alphabet_size = 3

    def _build(self, n):
        return np.concatenate([[2], PF.prefix_array(n - 1)]).astype(np.uint8)

    def letter(self, n):
        return 2 if n == 1 else PF.letter(n - 1)


class ZerosThenOnes(WordGenerator):
    """2**17 zeros, then ones: at every length up to 2**17 some window is
    all zeros, the count a uint16 sum cannot hold at 2**16."""

    def _build(self, n):
        return (np.arange(n) >= 2**17).astype(np.uint8)

    def letter(self, n):
        return int(n > 2**17)


class OnesThenZeros(WordGenerator):
    """40 ones, then zeros."""

    def _build(self, n):
        return (np.arange(n) < 40).astype(np.uint8)

    def letter(self, n):
        return int(n <= 40)


STAIRCASE = verify.MaxComplexityWord()
ZEROS = ZerosThenOnes()
MARKED = MarkedPaperfolding()


def doubling_answers(g, n_max):
    """(table, single n) answers under a source, as comparable values."""
    if g.alphabet_size == 2:
        def table(src):
            return [a.tolist() for a in _scan_envelope_table(g, n_max, src)]

        def single(src):
            return zero_envelope(g, n_max, src)
    else:
        def table(src):
            return parikh_set_table(g, n_max, src)

        def single(src):
            return parikh_set(g, n_max, src)
    return table, single


class TestIncrementalDoubling:
    @settings(max_examples=examples(60), deadline=None)
    @given(st.sampled_from([PF, FIB, T, PHI, STAIRCASE, MARKED, ZEROS]),
           st.integers(1, 150),
           st.one_of(st.none(), st.integers(1, 4000)),
           st.integers(1, 9))
    @example(PF, 64, None, 0)                  # no doubling below the cap
    @example(STAIRCASE, 100, 100, 4)           # the cap comes first
    @example(STAIRCASE, 40, 40, 9)             # stops after several doublings
    @example(PF, 150, 150, 9)
    @example(MARKED, 30, 30, 9)
    @example(STAIRCASE, 300, 300, 12)          # stops at 128 * n_max
    # a scanned row changes mid-step, so settled rows above it are rescanned
    @example(STAIRCASE, 30, 1, 9)
    @example(PF, 40, 2, 9)
    @example(PHI, 150, 1, 9)
    @example(MARKED, 40, 1, 9)                 # ternary: no skip
    # rows change between the eighth of the initial length and all of it
    @example(STAIRCASE, 100, 4000, 3)
    @example(STAIRCASE, 150, 2**16, 1)         # at the least length that starts so
    @example(PHI, 150, 2**16, 2)
    @example(MARKED, 60, 4000, 3)              # ternary: a full first scan
    # the eighth is shorter than n_max: the first scan is over n_max symbols
    @example(PF, 100, 300, 4)
    @example(STAIRCASE, 50, 120, 6)
    # short == length: scanned whole, as before
    @example(FIB, 150, 150, 3)
    @example(PHI, 100, 50, 3)
    @example(STAIRCASE, 8, 8, 9)
    def test_equals_full_rescan(self, g, n_max, initial, doublings):
        """The answer, and the longest prefix asked for, are those of the
        loop that rescans the whole prefix at every doubling; the cap
        allows at most ``doublings`` of them.  Each source is run as it is
        and with every initial length starting from an eighth of it."""
        cap = max(initial or 64 * n_max, n_max) << doublings
        src = StabilizedDoubling(initial_length=initial, max_length=cap)
        for answer in doubling_answers(g, n_max):
            try:
                stop = full_rescan_stop(
                    n_max, src, lambda length: answer(ExplicitPrefix(length)))
            except StabilizationError as exc:
                for least in (factors._FIRST_SCAN_MIN, 1):
                    with mock.patch.object(factors, "_FIRST_SCAN_MIN", least), \
                            pytest.raises(StabilizationError) as got:
                        answer(src)
                    assert str(got.value) == str(exc)
                continue
            want = answer(ExplicitPrefix(stop))
            for least in (factors._FIRST_SCAN_MIN, 1):
                with mock.patch.object(factors, "_FIRST_SCAN_MIN", least), \
                        mock.patch.object(g, "prefix_array",
                                          wraps=g.prefix_array) as prefix_array:
                    got = answer(src)
                assert got == want
                assert max(c.args[0] for c in prefix_array.call_args_list) == stop

    def test_fills_envelope_scans_on_its_own(self, monkeypatch):
        """The oracle rescans whole prefixes itself under doubling; with
        the envelope table cached it never reaches the scan it checks."""
        src = StabilizedDoubling(40)
        for cached in (src, ExplicitPrefix(4000)):
            zero_envelope_table(STAIRCASE, 40, cached)

        def no_scan(*args):
            raise AssertionError("the oracle reached the factors scan")

        monkeypatch.setattr(factors, "_window_scan", no_scan)
        monkeypatch.setattr(factors, "_scan_source", no_scan)
        assert verify._fills_envelope(STAIRCASE, 40, src)
        assert verify._fills_envelope(STAIRCASE, 40, ExplicitPrefix(4000))

    def test_length_one_is_never_skipped(self, monkeypatch):
        """Over a prefix of ones every row is (0, 0) and every row n >= 2
        is at its split bounds; only the scan of length 1 sees the first
        zero, and its change sends every longer length to the rescan.  An
        initial length of 32 is below _FIRST_SCAN_MIN, so the first scan
        reads all 32 symbols; with the least length lowered it reads 5."""
        g = OnesThenZeros()
        src = StabilizedDoubling(initial_length=32, max_length=2**10)
        want = [a.tolist() for a in _scan_envelope_table(g, 5, ExplicitPrefix(128))]
        for least, calls in (
                (factors._FIRST_SCAN_MIN, [
                    ([1, 2, 3, 4, 5], 32),    # the prefix of 32, only ones
                    ([1], 36), ([2, 3, 4, 5], 36),  # the tail to 64 holds
                                                    # the first zero
                    ([1], 68)]),              # to 128, where nothing changes
                (1, [
                    ([1, 2, 3, 4, 5], 5),     # the prefix of 5 = n_max
                    ([1], 31),                # the tail to 32, only ones
                    ([1], 36), ([2, 3, 4, 5], 36),  # to 64, the first zero
                    ([1], 68)])):             # to 128
            monkeypatch.setattr(factors, "_FIRST_SCAN_MIN", least)
            with mock.patch.object(factors, "_window_scan",
                                   wraps=factors._window_scan) as kernel:
                got = [a.tolist() for a in _scan_envelope_table(g, 5, src)]
            assert got == want
            assert [(list(c.args[1]), len(c.args[0][0]))
                    for c in kernel.call_args_list] == calls

    def test_first_scan_reads_an_eighth(self):
        """The pf table to 1025 starts at 64 * 1025 symbols: every length
        is scanned over the first 8200 only, and the hull step reads the
        rest of the initial length, 1024 symbols back from 8200."""
        src = StabilizedDoubling(max_length=2**22)
        with mock.patch.object(factors, "_window_scan",
                               wraps=factors._window_scan) as kernel:
            _scan_envelope_table(PaperfoldingWord(), 1025, src)
        strings = [(len(c.args[1]), len(c.args[0][0]))
                   for c in kernel.call_args_list]
        assert strings[0] == (1025, 8200)
        assert strings[1][1] == 64 * 1025 - 8200 + 1024
        assert all(size < 1025 for size, _ in strings[1:]), strings

    def test_split_bounds_once_per_table(self):
        """The pf table to 1025 is final at 8200 symbols, so the step to
        the initial length and the doubling after it, which stops, share
        one computation of the bounds."""
        src = StabilizedDoubling(max_length=2**22)
        with mock.patch.object(factors, "_split_bounds",
                               wraps=factors._split_bounds) as bounds, \
                mock.patch.object(factors, "_window_scan",
                                  wraps=factors._window_scan) as kernel:
            _scan_envelope_table(PaperfoldingWord(), 1025, src)
        assert bounds.call_count == 1
        assert kernel.call_count == 3  # the eighth, and one pass per step

    def test_stabilizing_step_skips_settled_lengths(self):
        """The pf table to 1025 stabilizes in one doubling, and that step
        scans at most a quarter of the lengths; fib and phi skip too."""
        src = StabilizedDoubling(max_length=2**22)
        for g, n_max, most in ((PaperfoldingWord(), 1025, 256),
                               (FIB, 1025, 64), (PHI, 1025, 256)):
            with mock.patch.object(factors, "_window_scan",
                                   wraps=factors._window_scan) as kernel:
                _scan_envelope_table(g, n_max, src)
            scanned = [len(c.args[1]) for c in kernel.call_args_list]
            assert scanned[0] == n_max and scanned[-1] <= most, scanned


class TestSplitBounds:
    @settings(max_examples=examples(60), deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                    min_size=1, max_size=80))
    def test_matches_all_splits(self, rows):
        z_min, z_max = (np.array(col, dtype=np.int32) for col in zip(*rows))
        lo, hi = factors._split_bounds(z_min, z_max)
        for n in range(2, len(rows) + 1):
            splits = range(1, n)
            assert lo[n - 1] == max(z_min[a - 1] + z_min[n - a - 1] for a in splits)
            assert hi[n - 1] == min(z_max[a - 1] + z_max[n - a - 1] for a in splits)
        # length 1 has no split: its bounds meet no row
        assert (lo[0], hi[0]) == (-factors._NONE, factors._NONE)

    def test_small_blocks(self, monkeypatch):
        z_min, z_max = _paperfolding_envelopes(300)
        want = [b.tolist() for b in factors._split_bounds(z_min, z_max)]
        monkeypatch.setattr(factors, "_SCAN_BLOCK", 7)
        assert [b.tolist() for b in factors._split_bounds(z_min, z_max)] == want


class TestBinaryKernelWidth:
    @pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1])
    def test_uint16_switch_matches_int64(self, monkeypatch, n):
        for g in (PF, ZEROS):
            prefix = g.prefix_array(2**18)
            sums = np.zeros(len(prefix) + 1, dtype=np.int64)
            np.cumsum(prefix == 0, out=sums[1:])
            zeros = sums[n:] - sums[:-n]
            want = ZeroEnvelope(n, int(zeros.min()), int(zeros.max()))
            # 2**17: the prefix is two blocks; 40,000: windows longer than
            # a block, so the n_max sums carried between blocks span several
            for block in (2**17, 40_000):
                monkeypatch.setattr(factors, "_SCAN_BLOCK", block)
                assert zero_envelope(g, n, ExplicitPrefix(2**18)) == want

    def test_doubling_scan_holds_no_full_length_buffer(self):
        """With the pf prefix already built to 2**21, the doubling scan at
        2**14 walks 2**20 symbols at a time but holds only the block's sums
        and buffers, about 0.9 MiB; full-length buffers would take 5 MiB."""
        g = PaperfoldingWord()
        g.prefix_array(2**21)
        tracemalloc.start()
        try:
            parikh_set(g, 2**14, StabilizedDoubling(max_length=2**22))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


class TestBlockedPrefixSums:
    GROUP, LEAST = 64, factors._BLOCKED_SCAN_MIN

    @settings(max_examples=examples(120), deadline=None)
    @given(st.sampled_from([np.uint16, np.int32]), st.sampled_from([GROUP, LEAST]),
           st.one_of(st.integers(0, 4 * GROUP + 3),
                     st.integers(LEAST - GROUP - 1, LEAST + 4 * GROUP + 3)),
           st.integers(0, 2**32 - 1), st.data())
    # the least block the SWAR scan takes, one symbol short of it, and
    # remainders past the last group of 64
    @example(np.uint16, LEAST, LEAST, 0, None)
    @example(np.uint16, LEAST, LEAST - 1, 1, None)
    @example(np.int32, LEAST, LEAST + 2 * GROUP + 5, 2, None)
    @example(np.uint16, GROUP, 3 * GROUP + 63, 3, None)
    @example(np.int32, GROUP, GROUP + 1, 4, None)
    def test_matches_cumsum_and_carry(self, dtype, least, size, seed, data):
        """Zero-count flags as the kernel passes them, with carries near
        2**16 in uint16, so the sums wrap, and large ones in int32; with the
        SWAR scan from its least block and from one group of 64 on."""
        values = np.random.default_rng(seed).integers(0, 2, size) == 0
        if dtype is np.uint16:
            top = 2**16 - 1
            carry = top if data is None else data.draw(st.integers(top - size, top))
        else:
            carry = 2**31 - 1 - size if data is None else data.draw(
                st.integers(0, 2**31 - 1 - size))
        want = np.cumsum(values, dtype=np.int64) + carry
        if dtype is np.uint16:
            want %= 2**16
        out = np.full(size, 7, dtype=dtype)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(factors, "_BLOCKED_SCAN_MIN", least)
            factors._blocked_prefix_sums(values, dtype(carry), out)
        assert out.tolist() == want.tolist()

    @pytest.mark.parametrize("block", [2**15 + 1, 40_007, 2**15 + 8, 50_009])
    def test_kernel_rows_with_blocks_off_the_row_grid(self, monkeypatch, block):
        """Blocks that are no multiple of 64, so groups end mid-block and
        each block has a remainder, in uint16 and in int32 (n_max >= 2**16)."""
        prefix = PF.prefix_array(3 * 2**16 + 5)
        sums = np.zeros(len(prefix) + 1, dtype=np.int64)
        np.cumsum(prefix == 0, out=sums[1:])

        def envelope(n):
            zeros = sums[n:] - sums[:-n]
            return int(zeros.min()), int(zeros.max())

        monkeypatch.setattr(factors, "_SCAN_BLOCK", block)
        for lengths in ([1, 2, 3, 17, 1000, 2**15 + 3], [5, 2**16 + 1]):
            assert list(_window_scan([prefix], lengths, 2)) == [
                envelope(n) for n in lengths]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 150), st.lists(st.lists(st.integers(0, 1), min_size=1,
                                                   max_size=300),
                                          min_size=1, max_size=3), st.data())
    def test_short_rows_match_distinct_windows(self, block, lists, data):
        """With the SWAR scan taking every block of one group of 64 or
        more, small blocks put group ends, block ends and remainders
        everywhere."""
        strings = [np.array(xs, dtype=np.uint8) for xs in lists]
        longest = max(len(arr) for arr in strings)
        lengths = data.draw(st.lists(st.integers(1, longest), min_size=1,
                                     max_size=5))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(factors, "_SCAN_BLOCK", block)
            patch.setattr(factors, "_BLOCKED_SCAN_MIN", self.GROUP)
            got = list(_window_scan(strings, lengths, 2))
        assert got == [distinct_window_counts(strings, n, 2) for n in lengths]

    @pytest.mark.parametrize("table,digest", [
        (lambda: parikh_set_table(PaperfoldingWord(), 1025,
                                  StabilizedDoubling(max_length=2**22)),
         "5f59e4ca77bef49d"),
        (lambda: [a.tolist() for a in zero_envelope_table(
            FibonacciWord(), 3000, ExplicitPrefix(2**20))],
         "15695ce45f3f5eba"),
        (lambda: parikh_set_table(TernaryBalancedWord(), 2000,
                                  StabilizedDoubling()),
         "a1a30c36e4faefcf"),
    ], ids=["pf", "fib", "t"])
    def test_tables_pinned(self, table, digest):
        # sha256 of the JSON rows as np.cumsum summed them before the
        # blocked scan (t, whose codes np.cumsum still sums, pins the walk);
        # fresh generators, so no cached table answers
        text = json.dumps(table()).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest


def _counted_builder(monkeypatch, name):
    """Patch the table builder factors.<name>(g, n_max, ...) to record the
    n_max of every table it builds."""
    sizes, build = [], getattr(factors, name)

    def counted(g, n_max, *args, **kwargs):
        table = build(g, n_max, *args, **kwargs)
        sizes.append(n_max)
        return table

    monkeypatch.setattr(factors, name, counted)
    return sizes


class TestEnvelopeGrowth:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 700), min_size=1, max_size=8),
           st.integers(4, 5), st.integers(200, 800))
    @example([400, 600], 4, 800)  # the second build, 800, passes 5^4
    def test_exact_tables_grow_geometrically(self, lengths, power, budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(factors, "DESUBSTITUTION_TABLE_BUDGET", budget)
            patch.setattr(factors, "CERTIFIED_TABLE_BUDGET", budget)
            desub = _counted_builder(patch, "_desubstitution_envelopes")
            certified = _counted_builder(patch, "_certified")
            g, pf, src = MorphicFixedPoint(), PaperfoldingWord(), MorphicCover(power)
            words = (
                (lambda n: zero_envelope_table(g, n, src),
                 lambda n: _desubstitution_envelopes(g, n), min(5**power, budget)),
                (lambda n: zero_envelope_table(pf, n), _paperfolding_envelopes,
                 budget),
            )
            for n in lengths:
                for table, fresh, limit in words:
                    if n > limit:
                        with pytest.raises(ValueError):
                            table(n)
                        continue
                    got = table(n)
                    assert [len(a) for a in got] == [n, n]
                    assert [a.tolist() for a in got] == [a.tolist() for a in fresh(n)]
        # a desubstitution build at least doubles the cached length, within
        # the budget whatever the cover power; a certified one builds exactly
        # each new longest length
        assert all(size <= budget for size in desub)
        assert all(new >= min(2 * old, budget) for old, new in zip(desub, desub[1:]))
        longest = 0
        misses = []
        for n in lengths:
            if longest < n <= budget:
                misses.append(n)
                longest = n
        assert certified == misses

    def test_climb_builds_doubling_lengths(self, monkeypatch):
        sizes = _counted_builder(monkeypatch, "_desubstitution_envelopes")
        g = MorphicFixedPoint()
        for n in (132, 156, 178, 222, 270, 405, 735, 808):
            zero_envelope_table(g, n, MorphicCover(7))
        assert sizes == [132, 264, 528, 1056]
        for n in (1700, 2500):
            zero_envelope_table(g, n, MorphicCover(5))
        assert sizes[4:] == [2112, 4224]  # past 5^5: the power shapes no build

    def test_scan_sources_build_what_is_asked(self, monkeypatch):
        sizes = _counted_builder(monkeypatch, "_scan_envelope_table")
        g = PaperfoldingWord()
        src = StabilizedDoubling()
        for n_max in (40, 41, 30, 90):
            with mock.patch.object(g, "prefix_array",
                                   wraps=g.prefix_array) as prefix_array:
                zero_envelope_table(g, n_max, src)
            asked = [c.args[0] for c in prefix_array.call_args_list]
            if n_max == 30:  # within the cached 41
                assert asked == []
                continue
            # the prefix a doubling stops at is that of an uncached request
            stop = full_rescan_stop(n_max, src, lambda length: [
                a.tolist() for a in _scan_envelope_table(
                    PF, n_max, ExplicitPrefix(length))])
            assert max(asked) == stop
        assert sizes == [40, 41, 90]


class TestZeroEnvelope:
    def test_phi_examples(self):
        env = zero_envelope(PHI, 2, MorphicCover(3))
        assert (env.z_min, env.z_max) == (0, 2)
        assert zero_envelope(PHI, 5, MorphicCover(3)).z_max == 3
        env1 = zero_envelope(PHI, 1, MorphicCover(3))
        assert (env1.z_min, env1.z_max) == (0, 1)

    def test_ternary_rejected(self):
        with pytest.raises(ValueError):
            zero_envelope(T, 3)

    def test_cover_budget(self):
        # Four phi strings of 5^10 symbols fit, of 5^11 do not; over the
        # budget the reference scan fails before any cover string is built.
        assert len(_length2_factors(PHI.morphism, 0)) * 5**10 <= COVER_BUDGET
        with mock.patch.object(Morphism, "power_array", side_effect=AssertionError):
            with pytest.raises(ValueError, match="COVER_BUDGET"):
                _scan_envelope_table(MorphicFixedPoint(), 5**10 + 1, MorphicCover(11))

    def test_table_matches_per_length(self):
        for power, lengths in (
            (3, (1, 3, 17, 30)),
            (5, range(1, 5**5 + 1)),
            (7, (*range(3126, 18702, 997), 15625, 15626, 18701, 18702)),
            # past 5^7, to table 1 with weights up to 8
            (9, (78_126, 390_625, 467_540)),
        ):
            z_min, z_max = zero_envelope_table(PHI, max(lengths), MorphicCover(power))
            for n in lengths:
                env = zero_envelope(PHI, n, MorphicCover(power))
                assert (int(z_min[n - 1]), int(z_max[n - 1])) == (
                    env.z_min, env.z_max), n

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda ell: st.tuples(
        st.lists(st.sampled_from("01"), min_size=ell - 1, max_size=ell - 1),
        st.lists(st.sampled_from("01"), min_size=ell, max_size=ell),
        st.integers(0, 1),
    )), st.integers(0, 10**6))
    @example((list("1"), list("10"), 0), 0)       # Thue-Morse
    @example((list("11"), list("100"), 0), 0)     # z0 < z1
    @example((list("1"), list("11"), 1), 0)       # the fixed point 111...
    @example((list("01"), list("100"), 1), 0)     # 1 -> 101, 0 -> 100
    def test_recursion_equals_cover_scan(self, draw, pick):
        tail, other, seed = draw
        images = ["", ""]
        images[seed] = str(seed) + "".join(tail)
        images[1 - seed] = "".join(other)
        g = fixed_point(*images, seed=seed)
        ell = len(images[0])
        power = 1
        while ell ** (power + 1) <= 300:
            power += 1
        n = ell**power
        z_min, z_max = zero_envelope_table(g, n, MorphicCover(power))
        scan_min, scan_max = _scan_envelope_table(g, n + 2, MorphicCover(power + 1))
        assert z_min.tolist() == scan_min[:n].tolist()
        assert z_max.tolist() == scan_max[:n].tolist()
        # just past a block end, and ending inside a block
        for n_max in (n + 2, 3 + pick % n):
            z_min, z_max = _desubstitution_envelopes(g, n_max)
            assert z_min.tolist() == scan_min[:n_max].tolist(), n_max
            assert z_max.tolist() == scan_max[:n_max].tolist(), n_max
            assert _desubstitution_envelope(g, n_max) == (
                scan_min[n_max - 1], scan_max[n_max - 1]), n_max

    def test_phi_never_builds_a_cover(self, monkeypatch, capsys):
        def no_cover(*args):
            raise AssertionError("phi reached a cover scan")

        monkeypatch.setattr(factors, "_morphic_cover_strings", no_cover)
        assert cli.main(["complexity", "--word", "phi", "--n-min", "1",
                         "--n-max", "300"]) == 0
        assert capsys.readouterr().err == ""
        assert cli.main(["tables", "--which", "1"]) == 1  # the (3,1) erratum
        capsys.readouterr()
        assert cli.main(["complement", "--word", "phi", "--weights", "7,8",
                         "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["result"]["complement"][-1] == 210
        env = zero_envelope(PHI, 10**8)
        assert env.z_max - env.z_min + 1 == 4609

    def test_ternary_cover_still_scans(self):
        # a word over three letters has no desubstitution here: MorphicCover
        # scans the cover images, and sees what a long prefix sees
        m = Morphism([FiniteWord.from_string(w, 3) for w in ("012", "120", "201")])
        g = MorphicFixedPoint(m, 0, family="test")
        with mock.patch.object(factors, "_morphic_cover_strings",
                               wraps=factors._morphic_cover_strings) as cover:
            table = parikh_set_table(g, 27, MorphicCover(3))
            single = parikh_set(g, 20, MorphicCover(3))
        assert cover.call_count == 2
        assert table == parikh_set_table(g, 27, ExplicitPrefix(3**8))
        assert single == table[19]
        assert len({len(row) for row in table}) > 1

    @pytest.mark.parametrize("n_max,digest", [
        (18_701, "f2c4d80726dd7ba7"),
        (18_702, "0ef6ff1cc60979ab"),
        (467_540, "6ac2eaa72968fd87"),  # table 1 with weights up to 8
    ])
    def test_phi_table_pinned(self, n_max, digest):
        # sha256 of the int64 (z_min, z_max) rows as the index-array
        # recursion computed them before the grid rewrite
        table = np.stack(_desubstitution_envelopes(PHI, n_max)).astype("<i8")
        assert hashlib.sha256(table.tobytes()).hexdigest()[:16] == digest

    def test_length2_factors_by_closure(self):
        assert _length2_factors(PHI.morphism, 0) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for images in TEST_MORPHISMS:
            g = fixed_point(*images)
            prefix = g.prefix_array(20_000)
            scanned = set(zip(prefix[:-1].tolist(), prefix[1:].tolist()))
            assert _length2_factors(g.morphism, 0) == sorted(scanned)

    def test_envelope_interval_matches_parikh_set(self):
        # zero counts of the built-in binary words, marked window by window,
        # fill their envelope, and the Parikh sets are read from it
        for g in (PF, FIB, PHI):
            src = MorphicCover(4) if g is PHI else StabilizedDoubling()
            assert verify._fills_envelope(g, 64, src)
            z_min, z_max = zero_envelope_table(g, 64, src)
            for n in (1, 5, 21, 64):
                zeros = [v[0] for v in parikh_set(g, n, src)]
                assert zeros == list(range(int(z_min[n - 1]), int(z_max[n - 1]) + 1))


class TestFactorSources:
    SOURCES = [ExplicitPrefix(7), MorphicCover(7), StabilizedDoubling(),
               StabilizedDoubling(64, 2**12), Certified()]

    def test_equality_and_hash(self):
        for i, src in enumerate(self.SOURCES):
            again = type(src)(*dataclasses.astuple(src))
            assert again is not src and again == src and hash(again) == hash(src)
            assert all(src != other for other in self.SOURCES[i + 1:])
        assert ExplicitPrefix(7) != MorphicCover(7) and MorphicCover(7) != 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            MorphicCover(7).power = 8

    def test_copies_rebuild_their_hash(self):
        # the stored hash is never pickled: the hashes of None and of
        # strings differ between processes
        for src in self.SOURCES:
            assert b"_hash" not in pickle.dumps(src)
            for again in (pickle.loads(pickle.dumps(src)), copy.copy(src),
                          copy.deepcopy(src), dataclasses.replace(src)):
                assert again == src and hash(again) == hash(src)
                assert repr(again) == repr(src)


class TestDeltaStats:
    def test_examples(self):
        assert pf_delta_stats(2).max_delta == 2
        assert pf_delta_stats(2).delta_set == {2, 0, -2}
        assert pf_delta_stats(1).delta_set == {1, -1}
        assert pf_delta_stats(4).delta_set == {2, 0, -2}


class TestBalance:
    def test_fib_balanced(self):
        assert is_balanced(FIB, 200, 1)

    def test_t_balanced(self):
        assert is_balanced(T, 200, 1)

    def test_pf_not_balanced(self):
        assert not is_balanced(PF, 16, 1)


class TestWelldoc:
    def test_single_letter_complete(self):
        report = welldoc_check(FIB, FiniteWord.from_string("0"), 2, 200)
        assert report.complete
        assert len(report.residues_found) == 4

    def test_longer_factor_complete(self):
        assert welldoc_check(FIB, FiniteWord.from_string("01001"), 2, 2000).complete

    def test_missing_factor(self):
        with pytest.raises(FactorNotFoundError):
            welldoc_check(FIB, FiniteWord.from_string("11"), 2, 5000)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            welldoc_check(FIB, FiniteWord.from_string("0"), 1, 100)
