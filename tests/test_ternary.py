"""Exact half-integer machinery and the ternary cofiniteness decision."""

import functools
import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frobwords
from frobwords import ternary
from frobwords.factors import StabilizedDoubling, parikh_set_table
from frobwords.frobenius import Weights
from frobwords.golden import TABLE2_GOLDEN
from frobwords.ternary import (
    Half,
    decide_cofinite,
    decision_window_length,
    enumerate_fib_factors,
    f_sequence,
    finite_complement,
    g_values,
    generating_prefix_parikh,
    interval_I,
    main_term,
    mu,
    mu_divergence,
    mu_printed_closed_form,
    offsets,
    semi_complement,
    semi_image,
    table2,
)
from frobwords.words import WORDS, _replace_alternate_zeros_array, floor_phi

FIB, T = WORDS["fib"], WORDS["t"]


def halves(values):
    return {Half(int(2 * v)) for v in values}


# The Half-based formulas the integer kernels replaced, kept as the reference.

def ref_step(bit, s):
    s0, s1, s2 = s
    return Half(s0 + s2) if bit == 0 else Half.from_int(s1)


def ref_offsets(s):
    s0, s1, s2 = s
    o2 = Half(s0 - s2)
    odd = (Half(s0 - 2 * s1 + s2), o2, -o2)
    even = (Half.from_int(s0 - s1), Half.from_int(s2 - s1), Half(0))
    return odd, even, max(abs(x) for x in odd + even)


def ref_semi_image(bits, s, parity):
    odd, even, _ = ref_offsets(s)
    out, partial, zeros = set(), Half(0), 0
    for bit in bits:
        partial = partial + ref_step(bit, s)
        zeros += bit == 0
        phase = zeros % 2 if parity == 0 else 1 - zeros % 2
        out.update(partial + off for off in (odd if phase else even))
    return frozenset(out)


def ref_semi_complement(bits, s, parity):
    k = ref_offsets(s)[2]
    lo = k + 1
    hi = sum((ref_step(b, s) for b in bits), Half(0)) - lo
    image = ref_semi_image(bits[:-1], s, parity)
    if parity == 1:
        shift = ref_step(0, s)
        lo, hi = lo + shift, hi + shift
        image = {x + shift for x in image}
    ints = {x.as_int() for x in image if x.is_integer}
    return frozenset(v for v in range(max(lo.ceil(), 0), hi.floor() + 1)
                     if v not in ints)


def ref_g_values(n, s):
    s0, s1, s2 = s
    (_, o2, o3), (e1, e2, _), _ = ref_offsets(s)
    m = Half(floor_phi(n) * (s0 - 2 * s1 + s2) - n * (s0 - 4 * s1 + s2))
    p = mu(n)
    return frozenset(g.as_int() for g in (m + e1 + o3 * p,
                                          m + e2 + (o2 - e2) * p, m + o3 * p))


class TestHalf:
    def test_construction(self):
        assert Half(5).twice == 5
        assert Half.from_int(3) == Half(6)
        assert str(Half(5)) == "2.5"
        assert str(Half(6)) == "3"

    def test_arithmetic(self):
        assert Half(3) + Half(2) == Half(5)
        assert Half(3) - 1 == Half(1)
        assert 1 + Half(1) == Half(3)
        assert -Half(3) == Half(-3)
        assert Half(3) * 4 == Half(12)
        assert abs(Half(-7)) == Half(7)

    def test_comparisons_and_int_mixing(self):
        assert Half(4) == 2
        assert Half(5) > 2
        assert Half(5) < 3
        assert Half(5) <= Half(5)

    def test_integrality(self):
        assert Half(4).is_integer and Half(4).as_int() == 2
        assert not Half(5).is_integer
        with pytest.raises(ValueError):
            Half(5).as_int()

    def test_floor_ceil(self):
        assert Half(5).floor() == 2 and Half(5).ceil() == 3
        assert Half(-5).floor() == -3 and Half(-5).ceil() == -2
        assert Half(6).floor() == Half(6).ceil() == 3

    def test_str_is_exact_beyond_float_precision(self):
        # 2**53 + 1 halved used to print through a float as ...496.0
        assert str(Half(5)) == "2.5"
        assert str(Half(-3)) == "-1.5"
        assert str(Half(2**53 + 1)) == "4503599627370496.5"
        assert str(Half(-(2**53 + 1))) == "-4503599627370496.5"
        assert str(Half(2**60 + 1)) == "576460752303423488.5"

    def test_hash_agrees_with_int_equality(self):
        assert hash(Half(6)) == hash(3)
        assert len({Half(6), 3}) == 1

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_matches_fractions(self, a, b):
        fa, fb = Fraction(a, 2), Fraction(b, 2)
        assert (Half(a) + Half(b)).twice == (fa + fb) * 2
        assert (Half(a) - Half(b)).twice == (fa - fb) * 2
        assert (Half(a) < Half(b)) == (fa < fb)
        assert Half(a).is_integer == (fa.denominator == 1)
        assert Half(a).floor() == fa.__floor__()
        assert Half(a).ceil() == fa.__ceil__()


class TestOffsets:
    def test_1_1_2(self):
        tab = offsets((1, 1, 2))
        assert tab.odd() == (Half(1), Half(-1), Half(1))
        assert tab.even() == (Half(0), Half(2), Half(0))
        assert tab.k == 1

    def test_all_ones(self):
        tab = offsets((1, 1, 1))
        assert all(x == 0 for x in tab.odd() + tab.even())
        assert tab.k == 0

    def test_2_3_4(self):
        tab = offsets((2, 3, 4))
        assert tab.odd() == (Half(0), Half(-2), Half(2))
        assert tab.even() == (Half(-2), Half(2), Half(0))
        assert tab.k == 1

    def test_linear_relations(self):
        for s in [(1, 1, 2), (2, 3, 4), (3, 5, 7), (7, 1, 6)]:
            tab = offsets(s)
            assert tab.o1 == tab.e1 + tab.o3
            assert tab.o1 == tab.e2 + tab.o2


class TestMainTerm:
    def test_example_sequence(self):
        want = [1, 2.5, 3.5, 5, 6.5, 7.5, 9, 10, 11.5, 13, 14]
        got = [main_term(n, (1, 1, 2)) for n in range(1, 12)]
        assert got == [Half(int(2 * v)) for v in want]

    def test_all_ones_is_identity(self):
        assert all(main_term(n, (1, 1, 1)) == n for n in range(1, 101))

    def test_telescoping_oracle(self):
        s = (2, 3, 4)
        total = main_term(1, s)
        for n, step in enumerate(f_sequence(1, 4, s), start=1):
            total = total + step
            assert total == main_term(n + 1, s)


class TestFSequence:
    def test_example(self):
        want = [1.5, 1, 1.5, 1.5, 1, 1.5, 1, 1.5, 1.5, 1]
        assert f_sequence(1, 10, (1, 1, 2)) == [Half(int(2 * v)) for v in want]

    def test_degenerate_constant(self):
        assert f_sequence(1, 30, (1, 2, 3)) == [Half.from_int(2)] * 30

    def test_matches_main_term_differences(self):
        for s in [(1, 1, 2), (2, 3, 4), (8, 1, 1)]:
            F = f_sequence(1, 500, s)
            assert all(
                main_term(n + 1, s) - main_term(n, s) == F[n - 1]
                for n in range(1, 501)
            )


class TestGeneratingPrefixes:
    def test_n_1_direct_expansion(self):
        assert tuple(generating_prefix_parikh(1, "T0")) == (1, 0, 1)

    @pytest.mark.parametrize("variant", ["T0", "T1", "Tbar0", "Tbar1"])
    def test_formula_matches_construction(self, variant):
        fib_arr = FIB.prefix_array(300)
        lead = int(variant[-1])
        start = "second" if variant in ("T0", "T1") else "first"
        for n in range(1, 301):
            word = np.concatenate([[lead], fib_arr[:n]]).astype(np.uint8)
            img = _replace_alternate_zeros_array(word, start)
            direct = (int((img == 0).sum()), int((img == 1).sum()),
                      int((img == 2).sum()))
            assert tuple(generating_prefix_parikh(n, variant)) == direct

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            generating_prefix_parikh(3, "T2")


class TestGValues:
    def test_example_n2(self):
        assert g_values(2, (1, 1, 2)) == {2, 3}

    def test_all_ones(self):
        assert all(g_values(n, (1, 1, 1)) == {n} for n in range(1, 60))

    def test_n1_gives_letters(self):
        assert g_values(1, (2, 3, 4)) == {2, 3, 4}

    def test_brute_force_oracle_2_3_4(self):
        table = parikh_set_table(T, 500, StabilizedDoubling())
        w = Weights((2, 3, 4))
        for n in range(2, 501):
            assert frozenset(v.dot(w) for v in table[n - 1]) == g_values(n, (2, 3, 4))


class TestMuConvention:
    def test_prefix_parity(self):
        fib_arr = FIB.prefix_array(400)
        for n in range(2, 401):
            assert mu(n) == int((fib_arr[: n - 1] == 0).sum()) % 2

    def test_printed_form_diverges_on_ones(self):
        fib_arr = FIB.prefix_array(400)
        expected = [n for n in range(2, 401) if fib_arr[n - 2] == 1]
        assert mu_divergence(400) == expected

    def test_divergence_is_real(self):
        # n=3: prefix 01 has one zero (odd) but the printed form says even
        assert mu(3) == 1
        assert mu_printed_closed_form(3) == 0


class TestIntervalAndSemiImages:
    def test_interval_example(self):
        s = (1, 1, 2)
        lo, hi = interval_I(f_sequence(1, 4, s), f_sequence(5, 5, s)[0],
                            offsets(s).k)
        assert (lo, hi) == (Half.from_int(2), Half(9))

    def test_empty_interval(self):
        lo, hi = interval_I([Half.from_int(1)], Half.from_int(1), Half.from_int(3))
        assert lo > hi

    def test_semi_image_example(self):
        bits = tuple(FIB.prefix_array(4))
        assert semi_image(bits, (1, 1, 2), 0) == halves({1, 2, 3, 4, 5, 6})
        assert semi_image(bits, (1, 1, 2), 1) == halves(
            {1.5, 2.5, 3.5, 4.5, 5.5, 6.5})

    def test_single_term_window(self):
        image = semi_image((0,), (1, 1, 2), 0)
        assert len(image) <= 3

    def test_semi_complement_example_empty(self):
        bits = tuple(FIB.prefix_array(5))
        assert semi_complement(bits, (1, 1, 2), 0) == frozenset()
        assert semi_complement(bits, (1, 1, 2), 1) == frozenset()

    def test_semi_complement_nonempty_for_large_weight(self):
        s = (8, 1, 1)
        l = decision_window_length(s)
        found = any(
            semi_complement(bits, s, parity)
            for _, bits in enumerate_fib_factors(l + 1)
            for parity in (0, 1)
        )
        assert found

    @pytest.mark.parametrize("s", [(1, 1, 2), (2, 3, 4), (8, 1, 1), (1, 3, 5)])
    def test_interval_nonempty_at_window_length(self, s):
        tab = offsets(s)
        l = decision_window_length(s)
        steps = {0: Half(s[0] + s[2]), 1: Half.from_int(s[1])}
        for _, bits in enumerate_fib_factors(l + 1):
            lo, hi = interval_I([steps[b] for b in bits[:-1]], steps[bits[-1]],
                                tab.k)
            assert lo <= hi


class TestDecision:
    def test_window_length_example(self):
        assert decision_window_length((1, 1, 2)) == 4

    def test_factor_enumeration_counts(self):
        for length in (3, 5, 9):
            factors = enumerate_fib_factors(length)
            assert len(factors) == length + 1
            assert all(len(bits) == length for _, bits in factors)
            starts = [s for s, _ in factors]
            assert starts == sorted(starts)
        # Brute force: the distinct windows of a long prefix, kept in the
        # order of their first index, 1-based starts included.
        text = FIB.prefix_array(8000)
        for length in range(1, 151):
            windows = np.lib.stride_tricks.sliding_window_view(text, length)
            first = {}
            for i, row in enumerate(windows):
                first.setdefault(row.tobytes(), i)
            expected = tuple((i + 1, tuple(windows[i].tolist()))
                             for i in first.values())
            assert enumerate_fib_factors(length) == expected

    def test_enumeration_budget(self):
        with pytest.raises(ValueError, match=r"2\^22-symbol"):
            decide_cofinite((1, 100000, 2))
        assert decision_window_length((1, 100000, 2)) == 133334

    def test_cofinite_examples(self):
        assert decide_cofinite((1, 1, 2)).cofinite
        assert decide_cofinite((1, 1, 2)).complement == ()
        assert decide_cofinite((1, 3, 5)).complement == (2,)

    def test_infinite_example(self):
        decision = decide_cofinite((1, 1, 5))
        assert not decision.cofinite
        assert decision.witness is not None
        assert decision.witness.missed_value >= 1

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            decide_cofinite((2, 2, 4))

    def test_finite_complement_examples(self):
        assert finite_complement((2, 3, 4)) == (1,)
        assert finite_complement((1, 2, 3)) == ()
        assert finite_complement((1, 1, 1)) == ()

    def test_finite_complement_rejects_infinite(self):
        with pytest.raises(ValueError):
            finite_complement((8, 1, 1))


class TestIntegerKernels:
    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.integers(1, 12)] * 3), st.integers(1, 400))
    def test_equal_half_reference(self, s, n):
        odd, even, k = ref_offsets(s)
        tab = offsets(s)
        assert (tab.odd(), tab.even(), tab.k) == (odd, even, k)
        min_step = min(ref_step(0, s), ref_step(1, s))
        l = decision_window_length(s)
        assert l == math.ceil(Fraction(k.twice + 2) / Fraction(min_step.twice, 2))
        for _, bits in enumerate_fib_factors(l + 1):
            for parity in (0, 1):
                assert semi_image(bits[:-1], s, parity) == ref_semi_image(
                    bits[:-1], s, parity)
                assert semi_complement(bits, s, parity) == ref_semi_complement(
                    bits, s, parity)
        assert g_values(n, s) == ref_g_values(n, s)

    def test_decision_path_runs_no_half_arithmetic(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("Half used on the decision path")

        for name in ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__neg__", "__abs__", "__eq__",
                     "__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(Half, name, forbidden)
        ternary._DECISIONS.clear()  # so every decision really runs
        assert [(tuple(r.weights), r.complement) for r in table2()] == [
            (w, c) for w, c in TABLE2_GOLDEN]
        assert decide_cofinite((8, 1, 1)).witness is not None
        table = parikh_set_table(T, 300, StabilizedDoubling())
        w = Weights((2, 3, 4))
        assert all(g_values(n, w) == {v.dot(w) for v in table[n - 1]}
                   for n in range(2, 301))

    def test_each_length_is_enumerated_once(self, monkeypatch):
        # a budget that holds every length to 300 at once (9,090,600
        # symbols); test_symbol_budget_evicts covers the default one
        monkeypatch.setattr(ternary, "FACTOR_CACHE_BUDGET", 2**24)
        calls = []
        one_length = ternary._fib_first_occurrences

        def counted(n):
            calls.append(n)
            return one_length(n)

        monkeypatch.setattr(ternary, "_fib_first_occurrences", counted)
        rising = [*range(1, 301), *range(1, 301)]
        shuffled = rising[:]
        random.Random(7).shuffle(shuffled)
        for order in (rising, shuffled):
            enumerate_fib_factors.cache_clear()
            calls.clear()
            try:
                assert all(len(enumerate_fib_factors(n)) == n + 1 for n in order)
                assert calls == list(dict.fromkeys(order))
                with pytest.raises(ValueError, match=">= 1"):
                    enumerate_fib_factors(0)
                with pytest.raises(ValueError, match=r"2\^22-symbol"):
                    enumerate_fib_factors(2048)
            finally:
                enumerate_fib_factors.cache_clear()


# The per-length sort of an earlier first-occurrence refinement, kept as the
# reference: one 1-D unique over the code 2*id + letter of every window of a
# scan-symbol prefix (32*n_max by default), doubled while it falls short.
def ref_fib_factor_starts(n_max, scan=None):
    scan = scan or 32 * n_max
    while True:
        text = ternary.WORDS["fib"].prefix_array(scan)
        ids, starts = np.zeros(scan + 1, dtype=np.int64), []
        for n in range(1, n_max + 1):
            _, first, inverse = np.unique(2 * ids[: scan - n + 1] + text[n - 1 :],
                                          return_index=True, return_inverse=True)
            if len(first) != n + 1:
                break
            ids = first[inverse]
            starts.append(np.sort(first))
        else:
            return text, starts
        if len(first) > n + 1 or scan >= ternary.FACTOR_BUDGET:
            raise RuntimeError(f"{len(first)} distinct factors of length {n}")
        scan *= 2


@functools.lru_cache(maxsize=None)
def ref_table_500():
    return ref_fib_factor_starts(500)


class _StandardSturmian:
    """The characteristic Sturmian word with every partial quotient q:
    s_0 = 0, s_1 = 0^(q-1) 1, s_(k+1) = s_k^q s_(k-1).  Its first 1 is at
    index q - 1, the last symbol of a q-symbol prefix."""

    def __init__(self, q):
        self.q = q

    def prefix_array(self, n):
        prev, word = [0], [0] * (self.q - 1) + [1]
        while len(word) < n:
            prev, word = word, word * self.q + prev
        return np.array(word[:n], dtype=np.uint8)


class TestFactorRefinement:
    @staticmethod
    def assert_same(n, ref=None):
        text, starts = ref or ref_table_500()
        first = ternary._fib_first_occurrences(n)
        assert list(first.values()) == starts[n - 1].tolist()
        assert list(first) == [text[i : i + n].tobytes()
                               for i in starts[n - 1].tolist()]

    def test_equals_unique_reference(self):
        for n in [*range(1, 65), 500]:
            self.assert_same(n)

    @settings(deadline=None)
    @given(st.integers(1, 500))
    def test_equals_reference_at_any_length(self, n):
        self.assert_same(n)

    def test_prefix_length_formula(self):
        """The shortest prefix holding every factor of length n is
        n + F_(k+1) - 1 symbols for F_k <= n < F_(k+1): under 3n, and
        under 2.618n."""
        _, starts = ref_fib_factor_starts(2047, scan=3 * 2047)
        fib = [1, 2]
        while fib[-1] <= 2047:
            fib.append(fib[-1] + fib[-2])
        for n, first in enumerate(starts, start=1):
            following = next(f for f in fib if f > n)
            prefix = int(first[-1]) + n
            assert prefix == n + following - 1, n
            assert prefix <= 3 * n - 1 and 1000 * prefix <= 2618 * n, n

    def test_short_prefix_raises(self, monkeypatch):
        # 0^40 first ends at index 1599, far past 3 * 40; a 3n-symbol
        # prefix of this word holds every factor of length 39, but only 40
        # of the 41 of length 40, and of length 1 only the letter 0.
        sturmian = _StandardSturmian(40)
        monkeypatch.setattr(ternary, "WORDS", {"fib": sturmian})
        for n in (1, 40, 41):
            with pytest.raises(RuntimeError,
                               match=f"Sturmian complexity is exactly {n + 1}"):
                ternary._fib_first_occurrences(n)
        ref = ref_fib_factor_starts(39)
        assert len(ref[0]) == 39 * 32
        self.assert_same(39, ref)

    def test_failed_call_caches_nothing(self, monkeypatch):
        enumerate_fib_factors.cache_clear()
        try:
            expected = enumerate_fib_factors(4)
            monkeypatch.setattr(ternary, "WORDS", {"fib": WORDS["pf"]})
            with pytest.raises(RuntimeError):
                enumerate_fib_factors(5)
            assert enumerate_fib_factors.cache_info().currsize == 1
            monkeypatch.undo()
            assert enumerate_fib_factors(4) is expected
            self.assert_same(5)
        finally:
            enumerate_fib_factors.cache_clear()

    def test_sweeps_pickle_as_fresh_tables(self):
        """enumerate_fib_factors in a cold sweep, rising and in a shuffled
        order, pickles as the factors read off one reference table."""
        text, starts = ref_table_500()

        def expected(n):
            return tuple((i + 1, tuple(text[i:i + n].tolist()))
                         for i in starts[n - 1].tolist())

        lengths = [*range(1, 121), 250, 499, 500]
        shuffled = lengths[:]
        random.Random(5).shuffle(shuffled)
        for order in (lengths, shuffled):
            enumerate_fib_factors.cache_clear()
            try:
                for n in order:
                    assert (pickle.dumps(enumerate_fib_factors(n))
                            == pickle.dumps(expected(n))), n
            finally:
                enumerate_fib_factors.cache_clear()

    def test_non_sturmian_text_raises(self, monkeypatch):
        monkeypatch.setattr(ternary, "WORDS", {"fib": WORDS["pf"]})
        with pytest.raises(RuntimeError, match="Sturmian complexity is exactly"):
            ternary._fib_first_occurrences(5)
        with pytest.raises(RuntimeError):
            ref_fib_factor_starts(5)


class TestFactorCache:
    """enumerate_fib_factors keeps the least recently used lengths within
    FACTOR_CACHE_BUDGET symbols, (L+1)*L for a length L."""

    @staticmethod
    def symbols(lengths):
        return sum((n + 1) * n for n in lengths)

    @settings(deadline=None)
    @given(st.integers(1, 250), st.lists(st.integers(1, 15), max_size=40))
    def test_symbol_budget_evicts(self, budget, lengths):
        """Hits, misses, the kept lengths and their order follow a
        least-recently-used list cut back to the budget after each miss; a
        length whose factors alone exceed the budget is answered, not
        kept.  Every answer is the uncached enumeration."""
        enumerate_fib_factors.cache_clear()
        kept, hits, misses = [], 0, 0
        try:
            with mock.patch.object(ternary, "FACTOR_CACHE_BUDGET", budget):
                for n in lengths:
                    first = enumerate_fib_factors(n)
                    assert first == tuple(
                        (i + 1, tuple(bits)) for bits, i in
                        ternary._fib_first_occurrences(n).items())
                    if n in kept:
                        hits += 1
                        kept.remove(n)
                    else:
                        misses += 1
                    if (n + 1) * n <= budget:
                        kept.append(n)
                    while self.symbols(kept) > budget:
                        kept.pop(0)
                    assert enumerate_fib_factors.cache_info() == (
                        hits, misses, None, len(kept))
                    if kept and kept[-1] == n:
                        hits += 1
                        assert enumerate_fib_factors(n) is first
        finally:
            enumerate_fib_factors.cache_clear()

    def test_workload_lengths_stay_cached(self):
        """The lift lemma's lengths 1..60 and the window lengths l+1 of
        every coprime triple up to 7 fit at once, so a second pass over
        them, in any order, only hits."""
        triples = [s for s in itertools.product(range(1, 8), repeat=3)
                   if math.gcd(*s) == 1]
        lengths = sorted({*range(1, 61),
                          *(decision_window_length(s) + 1 for s in triples)})
        assert self.symbols(lengths) <= ternary.FACTOR_CACHE_BUDGET
        enumerate_fib_factors.cache_clear()
        try:
            first = [enumerate_fib_factors(n) for n in lengths]
            again = lengths[::-1]
            random.Random(3).shuffle(again)
            for n in again:
                assert enumerate_fib_factors(n) is first[lengths.index(n)]
            assert enumerate_fib_factors.cache_info() == (
                len(lengths), len(lengths), None, len(lengths))
        finally:
            enumerate_fib_factors.cache_clear()

    def test_cold_sweep_holds_the_budget(self):
        """A cold sweep over 1..300 would keep 9,090,600 symbols, 72 MiB of
        references in tuples, if nothing were dropped; the cache holds the
        last lengths that fit, under 16 MiB traced."""
        enumerate_fib_factors.cache_clear()
        try:
            tracemalloc.start()
            for n in range(1, 301):
                enumerate_fib_factors(n)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            info = enumerate_fib_factors.cache_info()
            kept = range(301 - info.currsize, 301)
            assert self.symbols(kept) <= ternary.FACTOR_CACHE_BUDGET
            assert self.symbols(range(300 - info.currsize, 301)) > (
                ternary.FACTOR_CACHE_BUDGET)
            assert held < 16 * 2**20, held
        finally:
            enumerate_fib_factors.cache_clear()


class TestTripleMemo:
    def test_memo_keeps_validation(self):
        assert (1.0, 2, 3) == (1, 2, 3) and hash((1.0, 2, 3)) == hash((1, 2, 3))
        decision = decide_cofinite((1, 2, 3))
        values = [g_values(n, (1, 2, 3)) for n in range(1, 40)]
        assert (1, 2, 3) in ternary._TRIPLES
        for call in (lambda s: g_values(7, s), lambda s: main_term(7, s),
                     decide_cofinite):
            with pytest.raises(ValueError, match="positive integers"):
                call((1.0, 2, 3))
        for s in ([1, 2, 3], (np.int64(1), np.int64(2), np.int64(3)),
                  np.array([1, 2, 3]), Weights((1, 2, 3))):
            assert decide_cofinite(s) == decision
            assert [g_values(n, s) for n in range(1, 40)] == values
            assert main_term(7, s) == main_term(7, (1, 2, 3))

    def test_invalid_triples_raise_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="exactly three"):
                g_values(3, (1, 2))
            with pytest.raises(ValueError, match="positive integers"):
                g_values(3, (0, 2, 3))
            with pytest.raises(ValueError, match="not coprime"):
                decide_cofinite((2, 4, 6))


    def test_decision_memo(self):
        frobwords.clear_caches()
        decision = decide_cofinite((1, 2, 3))
        assert ternary._DECISIONS == {(1, 2, 3): decision}
        assert type(next(iter(ternary._DECISIONS))) is Weights
        for s in ([1, 2, 3], (np.int64(1), np.int64(2), np.int64(3)),
                  np.array([1, 2, 3]), Weights((1, 2, 3))):
            assert decide_cofinite(s) is decision
        for _ in range(2):
            with pytest.raises(ValueError, match="positive integers"):
                decide_cofinite((1.0, 2, 3))
            with pytest.raises(ValueError, match="not coprime"):
                decide_cofinite((2, 4, 6))
        assert list(ternary._DECISIONS) == [(1, 2, 3)]


class TestTable2:
    def test_reproduces_reference(self):
        rows = table2()
        assert [(tuple(r.weights), r.complement) for r in rows] == [
            (w, c) for w, c in TABLE2_GOLDEN
        ]

    def test_skip_rules(self):
        triples = {tuple(r.weights) for r in table2()}
        assert all(s0 != s2 for s0, _, s2 in triples)
        assert not any(
            (s2, s1, s0) in triples for s0, s1, s2 in triples if s0 != s2
        )
