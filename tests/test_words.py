"""Word generation: printed prefixes, construction equivalence, exact floors."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from frobwords import words
from frobwords.words import (
    _pf_array_direct,
    _pf_array_recursive,
    _pf_array_toeplitz,
    _pf_letters,
    _replace_alternate_zeros_array,
    ConfigurationError,
    FibonacciWord,
    FiniteWord,
    MorphicFixedPoint,
    Morphism,
    PHI_MORPHISM,
    PREFIX_BUDGET,
    PaperfoldingWord,
    TernaryBalancedWord,
    WORDS,
    fib_beatty,
    fibonacci_letter,
    fibonacci_prefix,
    floor_alpha,
    floor_phi,
    floor_phi_array,
    incidence_matrix,
    iterate_morphism,
    paperfolding_letter,
    paperfolding_prefix,
    replace_alternate_zeros,
    ternary_t_letter,
    ternary_t_prefix,
)

PF_12 = "001001100011"
FIB_17 = "01001010010010100"
PHI_25 = "0010100101110110010111011"
T_17 = "01201210210210120"


class TestFiniteWord:
    def test_roundtrip_and_equality(self):
        w = FiniteWord.from_string("00101")
        assert str(w) == "00101"
        assert len(w) == 5
        assert w == FiniteWord((0, 0, 1, 0, 1), 2)
        assert w[1:3] == FiniteWord.from_string("01")

    def test_symbol_validation(self):
        with pytest.raises(ValueError):
            FiniteWord([0, 2], alphabet_size=2)

    def test_empty_word_allowed(self):
        assert len(FiniteWord([], 2)) == 0

    def test_complement_reverse(self):
        w = FiniteWord.from_string("0010011")
        assert str(w.complement().reverse()) == "0011011"

    def test_non_integral_symbols_rejected(self):
        # 0.7 and 1.2 used to be truncated, building "01".
        for bad in ([0.7, 1.2], np.array([0.0, 1.0]), [[0, 1]], "01a"):
            with pytest.raises(ValueError):
                FiniteWord(bad, 2)

    def test_alphabet_limited_to_uint8(self):
        # [300] used to build a word over an alphabet of 301 letters.
        for symbols, k in (([300], None), ([0], 257)):
            with pytest.raises(ValueError, match="256"):
                FiniteWord(symbols, k)
        assert FiniteWord([255]).alphabet_size == 256

    def test_letters_above_nine_print_in_decimal(self):
        assert str(FiniteWord([10, 2], 11)) == "102"

    @given(st.integers(1, 5).flatmap(lambda k: st.tuples(
               st.just(k), st.lists(st.integers(0, k - 1), max_size=200))),
           st.sampled_from(["list", "tuple", "generator", "digits", "ndarray"]),
           st.data())
    def test_matches_tuple_model(self, k_syms, form, data):
        k, syms = k_syms
        syms = tuple(syms)
        given_as = {
            "list": lambda: list(syms),
            "tuple": lambda: syms,
            "generator": lambda: (s for s in syms),
            "digits": lambda: "".join(map(str, syms)),
            "ndarray": lambda: np.array(syms, dtype=np.int64),
        }[form]()
        w = FiniteWord(given_as, k)
        assert (w.symbols, tuple(w), len(w), w.alphabet_size) == (
            syms, syms, len(syms), k)
        assert all(w.count(c) == syms.count(c) for c in range(-1, k + 1))
        for i in range(-len(syms), len(syms)):
            assert type(w[i]) is int and w[i] == syms[i]
        sl = data.draw(st.slices(len(syms)))
        assert w[sl] == FiniteWord(syms[sl], k)
        other = tuple(data.draw(st.lists(st.integers(0, 4), max_size=20)))
        joined = w + FiniteWord(other, 5)
        assert (joined.symbols, joined.alphabet_size) == (syms + other, 5)
        assert w.reverse().symbols == syms[::-1]
        if k == 2:
            assert w.complement().symbols == tuple(1 - s for s in syms)
        text = "".join(map(str, syms))
        assert str(w) == text
        assert repr(w) == f"FiniteWord({text!r}, alphabet_size={k})"
        same = FiniteWord(list(syms), k)
        assert w == same and hash(w) == hash(same)
        assert w != FiniteWord(syms, k + 1) and w != syms
        assert w != w + FiniteWord([0], k)

        assert not w.array.flags.writeable
        if syms:
            with pytest.raises(ValueError):
                w.array[0] = 0
        if form == "ndarray":
            given_as[:] = k - 1 - given_as
            assert w.symbols == syms
        mine = np.array(syms, dtype=np.uint8)
        kept = FiniteWord(mine, k)
        mine[:] = 0
        assert kept.symbols == syms


class TestPaperfolding:
    def test_letter_examples(self):
        assert paperfolding_letter(1) == 0
        assert paperfolding_letter(3) == 1
        assert paperfolding_letter(12) == 1  # 12 = 3 * 2^2

    def test_letter_rejects_zero(self):
        with pytest.raises(ValueError):
            paperfolding_letter(0)

    @pytest.mark.parametrize("construction", ["direct", "recursive", "toeplitz"])
    def test_prefix_12(self, construction):
        assert str(paperfolding_prefix(12, construction)) == PF_12

    def test_prefix_1(self):
        assert str(paperfolding_prefix(1)) == "0"

    def test_constructions_agree_to_4096(self):
        a = paperfolding_prefix(4096, "direct")
        assert a == paperfolding_prefix(4096, "recursive")
        assert a == paperfolding_prefix(4096, "toeplitz")

    def test_unknown_construction(self):
        with pytest.raises(ValueError):
            paperfolding_prefix(4, "spiral")

    @given(st.integers(min_value=1, max_value=2**14))
    def test_letter_matches_recursive_prefix(self, n):
        w = paperfolding_prefix(n, "recursive")
        assert w[n - 1] == paperfolding_letter(n)

    def test_builders_agree_around_powers_of_two(self):
        for k in range(1, 21):
            for n in (2**k - 1, 2**k, 2**k + 1):
                direct = _pf_array_direct(n)
                assert direct.dtype == np.uint8 and len(direct) == n
                assert np.array_equal(direct, _pf_array_recursive(n)), n
                assert np.array_equal(direct, _pf_array_toeplitz(n)), n

    @pytest.mark.parametrize("known", [0, 1, 1000, 2**20])
    def test_toeplitz_fill_from_a_known_prefix(self, known):
        """The fill copies a known prefix in where its descent reaches one
        no longer, and the generator grows its cache the same way."""
        for n in (3001, 2**20 - 1, 2**20 + 1):
            direct = _pf_array_direct(n)
            assert np.array_equal(_pf_array_toeplitz(n, _pf_array_direct(known)),
                                  direct), n
            g = PaperfoldingWord()
            g.prefix_array(known)
            assert np.array_equal(g.prefix_array(n), direct), n

    def test_growth_passes_the_whole_cache(self, monkeypatch):
        known = []

        def fill(n, cached=None):
            known.append(0 if cached is None else len(cached))
            return _pf_array_toeplitz(n, cached)

        monkeypatch.setattr(words, "_pf_array_toeplitz", fill)
        g = PaperfoldingWord()
        for n in (1000, 3001, 2**13):
            g.prefix_array(n)
        assert known == [0, 1000, 3001]

    def test_letter_rule_across_2_to_32(self):
        # the uint64 indices the builder switches to from 2**32 on, and the
        # top of the uint32 range, where (i & -i) << 1 carries out
        wide = np.arange(2**32 - 8, 2**32 + 8, dtype=np.uint64)
        narrow = np.arange(2**32 - 8, 2**32, dtype=np.uint32)
        for idx in (wide, narrow):
            assert _pf_letters(idx).tolist() == [
                paperfolding_letter(int(i)) for i in idx]


class TestBeatty:
    def test_floor_phi_small(self):
        assert floor_phi(0) == 0
        assert floor_phi(1) == 1
        assert floor_phi(2) == 3

    def test_floor_alpha_small(self):
        assert floor_alpha(1) == 0
        with pytest.raises(ValueError):
            floor_alpha(0)

    def test_fib_beatty_dispatch(self):
        assert fib_beatty(2, "phi") == 3
        assert fib_beatty(1, "alpha") == 0
        with pytest.raises(ValueError):
            fib_beatty(2, "tau")

    def test_array_matches_scalar(self):
        arr = floor_phi_array(2000)
        assert all(int(arr[n]) == floor_phi(n) for n in range(0, 2001, 37))

    def test_array_range_error(self):
        with pytest.raises(OverflowError):
            floor_phi_array(2 * 10**9)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_floor_phi_certified(self, n):
        # w = floor(n*phi) iff (2w-n)^2 < 5n^2 < (2w-n+2)^2
        w = floor_phi(n)
        assert (2 * w - n) ** 2 < 5 * n * n < (2 * w - n + 2) ** 2


class TestFibonacciWord:
    def test_prefix_17(self):
        assert str(fibonacci_prefix(17)) == FIB_17

    def test_zero_to_two_image(self):
        image = "".join("2" if c == "0" else c for c in FIB_17)
        assert image == "21221212212212122"

    def test_ones_count_telescopes(self):
        w = fibonacci_prefix(5000)
        assert w.count(1) == floor_alpha(5001)

    def test_letters_match_prefix(self):
        w = fibonacci_prefix(300)
        assert all(w[n - 1] == fibonacci_letter(n) for n in range(1, 301))


class TestMorphisms:
    def test_phi_fixed_point_prefix(self):
        assert str(iterate_morphism(PHI_MORPHISM, 0, 25)) == PHI_25
        assert str(iterate_morphism(PHI_MORPHISM, 0, 5)) == "00101"

    def test_identity_morphism_rejected(self):
        ident = Morphism([FiniteWord("0", 2), FiniteWord("1", 2)])
        with pytest.raises(ConfigurationError):
            iterate_morphism(ident, 0, 2)

    @pytest.mark.parametrize("seed", [5, -1])
    def test_seed_outside_alphabet_rejected(self, seed):
        # 5 used to raise a bare IndexError, -1 to read the image of 1.
        with pytest.raises(ConfigurationError, match=f"seed {seed} outside alphabet"):
            MorphicFixedPoint(PHI_MORPHISM, seed=seed)

    def test_non_prolongable_seed_rejected(self):
        m = Morphism([FiniteWord.from_string("10"), FiniteWord.from_string("11")])
        with pytest.raises(ConfigurationError):
            iterate_morphism(m, 0, 10)

    def test_incidence_matrix_phi(self):
        assert incidence_matrix(PHI_MORPHISM).tolist() == [[3, 1], [2, 4]]

    def test_incidence_matrix_identity(self):
        ident = Morphism([FiniteWord("0", 2), FiniteWord("1", 2)])
        assert incidence_matrix(ident).tolist() == [[1, 0], [0, 1]]

    def test_incidence_matrix_swap(self):
        m = Morphism([FiniteWord.from_string("01"), FiniteWord.from_string("10")])
        assert incidence_matrix(m).tolist() == [[1, 1], [1, 1]]

    def test_image_alphabet_validation(self):
        with pytest.raises(ValueError):
            Morphism([FiniteWord("012", 3), FiniteWord("0", 3)])

    @pytest.mark.parametrize("k", range(1, 5))
    def test_fixed_point_prefixes_nested(self, k):
        shorter = iterate_morphism(PHI_MORPHISM, 0, 5**k)
        longer = iterate_morphism(PHI_MORPHISM, 0, 5 ** (k + 1))
        assert longer.symbols[: 5**k] == shorter.symbols


class TestAlternateZeros:
    def test_periodic_example(self):
        chi = FiniteWord.from_string("01010101")
        assert str(replace_alternate_zeros(chi, "second")) == "01210121"
        assert str(replace_alternate_zeros(chi, "first")) == "21012101"
        # each row of a matrix counts its own zeros
        rows = np.array([[0, 1, 0, 1, 0], [1, 0, 0, 0, 1]], dtype=np.uint8)
        assert _replace_alternate_zeros_array(rows, "second").tolist() == [
            [0, 1, 2, 1, 0], [1, 0, 2, 0, 1]]

    def test_fib_17_image(self):
        assert str(replace_alternate_zeros(fibonacci_prefix(17))) == T_17

    def test_rejects_ternary_input(self):
        with pytest.raises(ValueError):
            replace_alternate_zeros(FiniteWord.from_string("012"))

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=200),
           st.sampled_from(["second", "first"]))
    def test_erasing_recovers_input(self, bits, start):
        w = FiniteWord(bits, 2)
        image = replace_alternate_zeros(w, start)
        assert len(image) == len(w)
        assert tuple(0 if s == 2 else s for s in image) == w.symbols

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_both_starts_partition_zeros(self, bits):
        w = FiniteWord(bits, 2)
        twos_second = replace_alternate_zeros(w, "second").count(2)
        twos_first = replace_alternate_zeros(w, "first").count(2)
        assert twos_second + twos_first == w.count(0)


class TestTernaryWord:
    def test_prefix_17(self):
        assert str(ternary_t_prefix(17)) == T_17

    def test_prefix_1(self):
        assert str(ternary_t_prefix(1)) == "0"

    def test_zero_two_split_at_5000(self):
        w = ternary_t_prefix(5000)
        assert w.count(0) - w.count(2) in (0, 1)

    def test_letters_match_prefix(self):
        w = ternary_t_prefix(400)
        assert all(w[n - 1] == ternary_t_letter(n) for n in range(1, 401))


class TestGenerators:
    @pytest.mark.parametrize("name,expected", [
        ("pf", PF_12), ("fib", FIB_17[:12]), ("phi", PHI_25[:12]), ("t", T_17[:12]),
    ])
    def test_prefix_matches(self, name, expected):
        assert str(WORDS[name].prefix(12)) == expected

    def test_prefix_array_read_only(self):
        arr = WORDS["pf"].prefix_array(100)
        with pytest.raises(ValueError):
            arr[0] = 1

    def test_grow_only_cache_consistent(self):
        gen = WORDS["fib"]
        short = gen.prefix_array(10).copy()
        gen.prefix_array(10000)
        assert np.array_equal(gen.prefix_array(10), short)


def _letters_by_beatty(n: int):
    """fibonacci_letter and ternary_t_letter over 1..n as arrays: the same
    Beatty floors, from floor_phi_array."""
    fp = floor_phi_array(n + 1)
    fib = 2 - (fp[2:] - fp[1:-1])
    ordinal = fp[2:] - np.arange(2, n + 2)  # n - floor_alpha(n + 1)
    t = np.where(fib == 1, 1, np.where(ordinal % 2 == 0, 2, 0))
    return fib, t


class TestGeneratorPrefixes:
    LETTERS = {PaperfoldingWord: paperfolding_letter,
               FibonacciWord: fibonacci_letter,
               TernaryBalancedWord: ternary_t_letter}

    @pytest.mark.parametrize("word", list(LETTERS))
    def test_short_prefixes_match_letters(self, word):
        letter = self.LETTERS[word]
        for n in range(1, 65):
            built = word()._build(n)
            assert built.dtype == np.uint8
            assert built.tolist() == [letter(i) for i in range(1, n + 1)], n

    @pytest.mark.parametrize("n", [2**20 - 1, 2**20, 2**20 + 1])
    def test_long_prefixes_match_letters(self, n):
        fib, t = _letters_by_beatty(n)
        expected = {PaperfoldingWord: _pf_array_direct(n),
                    FibonacciWord: fib, TernaryBalancedWord: t}
        positions = [*random.Random(n).sample(range(1, n + 1), 300),
                     *range(n - 63, n + 1)]
        for word, letter in self.LETTERS.items():
            built = word()._build(n)
            assert built.dtype == np.uint8 and len(built) == n
            assert np.array_equal(built, expected[word])
            assert [int(built[i - 1]) for i in positions] == [
                letter(i) for i in positions]

    @pytest.mark.parametrize("word,limit", [
        (PaperfoldingWord, 3), (FibonacciWord, 3), (TernaryBalancedWord, 6)])
    def test_build_memory(self, word, limit):
        g = word()
        tracemalloc.start()
        try:
            g._build(2**20)
            assert tracemalloc.get_traced_memory()[1] < limit * 2**20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("build", [
        paperfolding_prefix, fibonacci_prefix, ternary_t_prefix,
        lambda n: iterate_morphism(PHI_MORPHISM, 0, n),
    ], ids=["pf", "fib", "t", "phi"])
    def test_public_builders_within_budget(self, build):
        """The public builders stop at PREFIX_BUDGET, with the message of
        WordGenerator.prefix, before anything is built; the generators'
        own builds, which doubling reads, have no budget."""
        assert len(build(PREFIX_BUDGET)) == PREFIX_BUDGET
        with pytest.raises(ValueError) as refused:
            build(PREFIX_BUDGET + 1)
        with pytest.raises(ValueError) as prefix_refused:
            WORDS["pf"].prefix(PREFIX_BUDGET + 1)
        assert str(refused.value) == str(prefix_refused.value)
        assert "PREFIX_BUDGET" in str(refused.value)
        assert len(MorphicFixedPoint()._build(PREFIX_BUDGET + 1)) == PREFIX_BUDGET + 1
