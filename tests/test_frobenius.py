"""Weight maps, the two-coin problem, representability and witnesses."""

import gc
import math
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frobwords
from frobwords import factors, frobenius, ternary
from frobwords.cli import main
from frobwords.factors import (
    DESUBSTITUTION_TABLE_BUDGET,
    Certified,
    ExplicitPrefix,
    MorphicCover,
    StabilizedDoubling,
    zero_envelope_table,
)
from frobwords.frobenius import (
    VALUE_MASK_BUDGET,
    ComplementReport,
    Weights,
    _run_chains,
    _values_below,
    complement_below,
    pf_witnesses,
    representable_set,
    s_value,
    sylvester_number,
)
from frobwords.ternary import decide_cofinite
from frobwords.verify import (
    MaxComplexityWord,
    _envelope_mask,
    classical_nonrepresentable,
)
from frobwords.words import (
    FibonacciWord,
    FiniteWord,
    MorphicFixedPoint,
    PaperfoldingWord,
    WORDS,
    WordGenerator,
)

PF, PHI, T = WORDS["pf"], WORDS["phi"], WORDS["t"]


def examples(n):
    """n Hypothesis examples under the default profile, five times as many
    under the ci profile (tests/conftest.py)."""
    return n * settings.default.max_examples // 100


class TestWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            Weights((0, 1))
        with pytest.raises(ValueError):
            Weights(())

    def test_non_integral_weights_rejected(self):
        # 1.5 used to be truncated to 1, answering for a different triple.
        for bad in [(1, 1.5, 2), (2.0, 3), (1, "2")]:
            with pytest.raises(ValueError, match="positive integers"):
                Weights(bad)
        with pytest.raises(ValueError, match="positive integers"):
            decide_cofinite((1, 1.5, 2))
        assert Weights((np.int64(2), True)) == (2, 1)

    def test_weights_of_weights_is_itself(self):
        w = Weights((3, 4))
        assert Weights(w) is w

    def test_gcd(self):
        assert Weights((6, 10)).gcd == 2
        assert Weights((2, 3)).gcd == 1
        with pytest.raises(ValueError):
            Weights((2, 4)).require_coprime()


class TestSylvester:
    def test_examples(self):
        assert sylvester_number(3, 5) == 7
        assert sylvester_number(2, 3) == 1
        assert sylvester_number(1, 17) == -1

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            sylvester_number(4, 6)

    def test_brute_force_oracle(self):
        # independent dynamic-programming oracle, frozen small cases
        for a, b in [(3, 5), (2, 3), (4, 7), (5, 6)]:
            missing = classical_nonrepresentable(a, b)
            assert max(missing) == sylvester_number(a, b)

    @given(st.integers(2, 25), st.integers(2, 25))
    def test_formula_matches_dp(self, a, b):
        if math.gcd(a, b) != 1:
            return
        missing = classical_nonrepresentable(a, b)
        assert max(missing) == sylvester_number(a, b)


class TestSValue:
    def test_examples(self):
        assert s_value(FiniteWord.from_string("01"), Weights((2, 3))) == 5
        assert s_value(FiniteWord([], 2), Weights((2, 3))) == 0
        assert s_value(FiniteWord.from_string("012"), Weights((1, 1, 2))) == 4

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            s_value(FiniteWord.from_string("01"), Weights((1, 1, 2)))


class TestRepresentableSet:
    def test_pf_unit_weights(self):
        assert representable_set(PF, Weights((1, 1)), 10) == set(range(1, 11))

    def test_phi_1_4_misses_3(self):
        values = representable_set(PHI, Weights((1, 4)), 405)
        assert 3 not in values
        assert {1, 2, 4, 5, 8} <= values

    def test_t_contains_small_values(self):
        values = representable_set(T, Weights((1, 1, 2)), 50)
        assert {1, 2, 3, 4, 5, 6} <= values

    def test_monotone_in_max_len(self):
        small = representable_set(T, Weights((2, 3, 4)), 20)
        large = representable_set(T, Weights((2, 3, 4)), 40)
        assert small <= large

    def test_requires_coprime(self):
        with pytest.raises(ValueError):
            representable_set(PF, Weights((2, 4)), 10)

    def test_weight_count_must_match_alphabet(self):
        # a binary word used to fail on tuple unpacking of the weights
        for g, weights in [(PF, (1,)), (PF, (1, 2, 3)), (T, (1, 2))]:
            with pytest.raises(ValueError, match="do not match the word's alphabet"):
                representable_set(g, Weights(weights), 10)
            with pytest.raises(ValueError, match="do not match the word's alphabet"):
                complement_below(g, Weights(weights), 10)


class TestComplementBelow:
    def test_every_length_present_gives_empty(self):
        report = complement_below(PF, Weights((1, 1)), 100)
        assert report.complement == ()
        assert report.search_bound == 100

    def test_max_len_guard(self):
        with pytest.raises(ValueError):
            complement_below(PF, Weights((2, 3)), 100, max_len=10)

    @pytest.mark.parametrize("bound", [100, 101])
    def test_max_len_guard_boundary(self, bound):
        needed = -(-bound // 2)
        report = complement_below(PF, Weights((2, 3)), bound, max_len=needed)
        assert report.max_factor_length == needed
        with pytest.raises(ValueError, match=f"need at least {needed}"):
            complement_below(PF, Weights((2, 3)), bound, max_len=needed - 1)

    def test_classical_cross_check(self):
        stair = MaxComplexityWord()
        for a, b in [(2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (2, 5)]:
            bound = sylvester_number(a, b) + 1
            report = complement_below(stair, Weights((a, b)), bound)
            assert report.complement == classical_nonrepresentable(a, b), (a, b)

    def test_report_metadata(self):
        report = complement_below(PF, Weights((2, 3)), 30)
        assert report.max_factor_length >= 15
        assert report.method == "binary-envelope-interval"
        assert all(0 < v < 30 for v in report.complement)


_REPORT_FIELDS = ("weights", "search_bound", "max_factor_length",
                  "complement", "method")


class TestComplementReport:
    @pytest.mark.parametrize("g, weights, bound, want", [
        (PHI, (3, 4), 100,
         "ComplementReport(weights=(3, 4), search_bound=100, "
         "max_factor_length=34, complement=(1, 2, 5, 9), "
         "method='binary-envelope-interval')"),
        (PF, (1, 1), 5,
         "ComplementReport(weights=(1, 1), search_bound=5, "
         "max_factor_length=5, complement=(), "
         "method='binary-envelope-interval')"),
        (T, (1, 2, 3), 20,
         "ComplementReport(weights=(1, 2, 3), search_bound=20, "
         "max_factor_length=20, complement=(), method='parikh-set-scan')"),
    ])
    def test_repr_of_the_dataclass(self, g, weights, bound, want):
        # the repr the frozen dataclass this record replaced printed
        for _ in range(2):  # a miss, then a hit
            assert repr(complement_below(g, Weights(weights), bound)) == want

    def test_fields_in_order(self):
        report = ComplementReport(Weights((2, 3)), 7, 4, (1,), "m")
        assert ComplementReport._fields == _REPORT_FIELDS
        assert [getattr(report, f) for f in _REPORT_FIELDS] == [
            (2, 3), 7, 4, (1,), "m"]
        assert ComplementReport(weights=(2, 3), search_bound=7,
                                max_factor_length=4, complement=(1,),
                                method="m") == report

    def test_read_only(self):
        report = complement_below(PHI, Weights((3, 4)), 100)
        for name in (*_REPORT_FIELDS, "extra"):
            with pytest.raises(AttributeError):
                setattr(report, name, 1)
        assert report.complement == (1, 2, 5, 9)

    @settings(max_examples=examples(100), deadline=None)
    @given(st.tuples(st.integers(1, 9), st.integers(1, 9)), st.integers(1, 10**6),
           st.integers(1, 10**6), st.lists(st.integers(1, 99)).map(tuple),
           st.text(max_size=8))
    def test_record(self, weights, bound, max_len, complement, method):
        report = ComplementReport(Weights(weights), bound, max_len, complement,
                                  method)
        fields = (weights, bound, max_len, complement, method)
        # equal only to another report, hashed as the tuple of its fields
        assert report == ComplementReport(*fields)
        assert not report != ComplementReport(*fields)
        assert report != fields and fields != report and not report == fields
        assert hash(report) == hash(fields)
        back = pickle.loads(pickle.dumps(report))
        assert type(back) is ComplementReport and back == report
        assert repr(back) == (
            f"ComplementReport(weights={weights!r}, search_bound={bound!r}, "
            f"max_factor_length={max_len!r}, complement={complement!r}, "
            f"method={method!r})")


# Request keys (generator, weights, max_len, src) that the memo property
# draws from, so that one sequence repeats keys with bounds in random order.
# An explicit max_len rejects the larger bounds, a None one grows with them.
MEMO_KEYS = [
    (PHI, (1, 2), None, MorphicCover(3)),
    (PHI, (3, 4), 120, MorphicCover(3)),
    (PHI, (3, 4), 120, MorphicCover(4)),
    (PHI, (2, 5), None, None),
    (PF, (2, 3), 90, Certified()),
    (PF, (4, 5), None, StabilizedDoubling()),
    (PF, (3, 5), 40, StabilizedDoubling()),
    (T, (1, 2, 3), None, None),
    (T, (2, 3, 4), 60, Certified()),
]


# Forms a caller may pass weights in: a Weights, a list, numpy ints.
WEIGHT_FORMS = [Weights, list, lambda w: (np.int64(w[0]), *w[1:])]


def memo_free_complement(g, weights, bound, max_len, src):
    """complement_below's answer from the run chains or value mask below
    the bound, with no memo, or the ValueError of its max_len or source
    check."""
    needed = -(-bound // min(weights))
    if max_len is not None and max_len < needed:
        return ValueError(f"need at least {needed}")
    try:
        missing = _values_below(g, Weights(weights), bound, max_len or needed,
                                src, covered=False)
    except ValueError as exc:
        return exc
    return tuple(missing.tolist())


def memo_of(g):
    """The complement memo entries of g, keyed (weights, max_len, src), or
    None when it has none."""
    return frobenius._COMPLEMENT_MEMO.get(id(g))


class TestComplementMemo:
    @settings(max_examples=examples(60), deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(MEMO_KEYS), st.integers(1, 400)),
                    min_size=1, max_size=12))
    def test_equals_memo_free_mask(self, queries):
        for (g, weights, max_len, src), bound in queries:
            want = memo_free_complement(g, weights, bound, max_len, src)
            if isinstance(want, ValueError):
                with pytest.raises(ValueError) as got:
                    complement_below(g, Weights(weights), bound, max_len, src)
                assert str(want) in str(got.value)
                continue
            report = complement_below(g, Weights(weights), bound, max_len, src)
            assert report.complement == want
            assert report.search_bound == bound

    @settings(max_examples=examples(40), deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(MEMO_KEYS), st.integers(1, 400),
                              st.sampled_from(WEIGHT_FORMS)),
                    min_size=1, max_size=6))
    def test_hit_equals_cold_call(self, queries):
        # every field of a hit's report, max_factor_length with max_len=None
        # included, is the one a call with empty caches returns, whatever
        # form the weights were passed in
        hits = []
        for (g, weights, max_len, src), bound, form in queries:
            try:
                complement_below(g, form(weights), bound, max_len, src)
            except ValueError:
                continue
            hits.append(((g, weights, max_len, src), bound,
                         complement_below(g, form(weights), bound, max_len, src)))
        for (g, weights, max_len, src), bound, hit in hits:
            frobwords.clear_caches()
            cold = complement_below(g, Weights(weights), bound, max_len, src)
            assert hit == cold and type(hit.complement) is tuple
            assert type(hit.weights) is Weights

    def test_validation_on_a_hit(self):
        g = MorphicFixedPoint()
        assert complement_below(g, Weights((1, 2)), 10).complement == ()
        assert (1.0, 2) == (1, 2) and hash((1.0, 2)) == hash((1, 2))
        for _ in range(3):
            with pytest.raises(ValueError, match="positive integers"):
                complement_below(g, (1.0, 2), 10)
            with pytest.raises(ValueError, match="not coprime"):
                complement_below(g, Weights((2, 4)), 10)
        assert list(memo_of(g)) == [(Weights((1, 2)), None, None)]
        # a list and numpy ints are one key, as a Weights, and a miss and a
        # hit both report a Weights
        miss = complement_below(g, [3, 4], 300)
        hit = complement_below(g, (np.int64(3), 4), 300)
        assert hit == miss and hit.complement == (1, 2, 5, 9)
        assert type(miss.weights) is type(hit.weights) is Weights
        assert list(memo_of(g))[1:] == [(Weights((3, 4)), None, None)]

    def test_full_range_hit_shares_the_memo_tuple(self):
        g = MorphicFixedPoint()
        w = Weights((3, 4))
        complement_below(g, w, 300)
        ceiling, nonvalues, least, method = memo_of(g)[w, None, None]
        assert (ceiling, least, method) == (300, 3, "binary-envelope-interval")
        assert complement_below(g, w, 300).complement is nonvalues
        assert complement_below(g, w, 6).complement == (1, 2, 5)

    def test_max_len_guard_on_a_hit(self):
        g = MorphicFixedPoint()
        w = Weights((2, 3))
        assert complement_below(g, w, 20, 10).complement == (1,)
        assert list(memo_of(g)) == [(w, 10, None)]
        with pytest.raises(ValueError, match="need at least 11"):
            complement_below(g, w, 21, 10)

    def test_cover_power_checked_after_another_power_filled_the_memo(self):
        g = MorphicFixedPoint()
        w = Weights((1, 2))
        complement_below(g, w, 200, 200, MorphicCover(4))
        complement_below(g, w, 200, src=MorphicCover(4))
        for max_len in (200, None):
            with pytest.raises(ValueError, match="not covered by power 3"):
                complement_below(g, w, 200, max_len, MorphicCover(3))

    def test_one_entry_per_key(self):
        g = MorphicFixedPoint()
        w = Weights((3, 4))
        rng = np.random.default_rng(0)
        src = MorphicCover(7)
        for bound in rng.integers(1, 2001, size=270).tolist():
            report = complement_below(g, w, bound, 700, src)
            assert report.complement == memo_free_complement(
                PHI, w, bound, 700, src)
        assert list(memo_of(g)) == [(w, 700, src)]
        assert memo_of(g)[w, 700, src] == (
            700 * 3, (1, 2, 5, 9), 3, "binary-envelope-interval")

    def test_ceiling_within_the_span(self):
        # a max_len far past ceil(bound / 1000) does not buy a mask of
        # max_len * 1000 integers: the ceiling stops at the span, and a
        # bound past the span builds exactly its own mask
        g = PaperfoldingWord()
        w = Weights((1000, 1001))
        assert complement_below(g, w, 10, 60_000).complement == tuple(range(1, 10))
        memo = memo_of(g)
        assert memo[w, 60_000, None][0] == frobenius.COMPLEMENT_MEMO_SPAN
        assert complement_below(g, w, 2000, 300).complement == (
            memo_free_complement(g, w, 2000, 300, None))
        assert memo[w, 300, None][0] == 4000  # 2 * max(bound, max_len)
        bound = frobenius.COMPLEMENT_MEMO_SPAN + 1000
        report = complement_below(g, w, bound, 60_000)
        assert memo[w, 60_000, None][0] == bound
        assert report.complement == memo_free_complement(g, w, bound, 60_000, None)

    def test_larger_bound_replaces_the_entry(self):
        g = MorphicFixedPoint()
        w = Weights((3, 4))
        complement_below(g, w, 10)
        assert memo_of(g)[w, None, None][0] == 12
        assert complement_below(g, w, 300).complement == (1, 2, 5, 9)
        assert list(memo_of(g)) == [(w, None, None)]
        assert memo_of(g)[w, None, None][0] == 300

    def test_keys_bounded(self):
        # a sweep of max_len adds one key per value; past the bound each
        # miss drops the oldest key, and neither a hit nor a larger bound
        # for a kept key drops one
        g = MorphicFixedPoint()
        w = Weights((3, 4))
        cap = frobenius.COMPLEMENT_MEMO_KEYS
        rng = np.random.default_rng(1)
        sweep = range(100, 100 + 3 * cap)
        for max_len, bound in zip(sweep, rng.integers(1, 301, size=len(sweep))):
            report = complement_below(g, w, int(bound), max_len)
            assert report.complement == memo_free_complement(
                g, w, int(bound), max_len, None)
            assert len(memo_of(g)) <= cap
        kept = [(w, max_len, None) for max_len in sweep[-cap:]]
        assert list(memo_of(g)) == kept
        oldest = sweep[-cap]
        complement_below(g, w, 10, oldest)
        complement_below(g, w, 3 * oldest, oldest)  # past the ceiling
        assert list(memo_of(g)) == kept
        assert memo_of(g)[w, oldest, None][0] == 3 * oldest

    def test_entries_die_with_their_generator(self):
        g = MorphicFixedPoint()
        complement_below(g, Weights((3, 4)), 300)
        complement_below(g, Weights((2, 5)), 100, src=MorphicCover(4))
        key, alive = id(g), weakref.ref(g)
        assert len(frobenius._COMPLEMENT_MEMO[key]) == 2
        del g
        gc.collect()
        assert alive() is None and key not in frobenius._COMPLEMENT_MEMO

    def test_reused_ids_answer_cold(self):
        # one key, asked of generators of different words that take each
        # other's ids: each finds no entry and answers for its own word
        w = Weights((2, 3))
        ids = []
        for i in range(12):
            g = (PaperfoldingWord, MorphicFixedPoint, FibonacciWord)[i % 3]()
            ids.append(id(g))
            assert memo_of(g) is None
            report = complement_below(g, w, 40, 40)
            assert report.complement == memo_free_complement(g, w, 40, 40, None)
            del g
        assert len(set(ids)) < len(ids)

    def test_clear_caches_drops_the_callback(self):
        # each memo holds one weakref to its generator, with its callback;
        # clear_caches drops both, so repeated rounds do not pile them up
        g = MorphicFixedPoint()
        counts = []
        for _ in range(4):
            frobwords.clear_caches()
            assert weakref.getweakrefcount(g) == 0
            complement_below(g, Weights((3, 4)), 30)
            assert memo_of(g).ref in weakref.getweakrefs(g)
            counts.append(weakref.getweakrefcount(g))
        assert len(set(counts)) == 1


class TestEnvelopeBudget:
    def test_refused_before_allocating(self):
        assert 467_540 <= DESUBSTITUTION_TABLE_BUDGET  # table 1, weights <= 8
        tracemalloc.start()
        try:
            for call in (
                lambda: complement_below(PHI, Weights((2, 5)), 10**10),
                lambda: complement_below(PHI, Weights((2, 5)), 10**9,
                                         src=MorphicCover(14)),
                lambda: zero_envelope_table(PHI, DESUBSTITUTION_TABLE_BUDGET + 1,
                                            MorphicCover(9)),
            ):
                with pytest.raises(ValueError, match="DESUBSTITUTION_TABLE_BUDGET"):
                    call()
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()


class TestValueMaskBudget:
    def test_refused_before_allocating(self):
        # needs lengths to 60,000, within CERTIFIED_TABLE_BUDGET, and a mask
        # of 6 * 10**10 integers, which used to end in a 447 GiB MemoryError
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="VALUE_MASK_BUDGET"):
                complement_below(PF, Weights((10**6, 10**6 + 1)), 6 * 10**10)
            with pytest.raises(ValueError, match="VALUE_MASK_BUDGET"):
                representable_set(T, Weights((10**6, 10**6 + 1, 10**6 + 2)), 100)
            assert tracemalloc.get_traced_memory()[1] < 16 * 2**20
        finally:
            tracemalloc.stop()

    def test_table1_to_weight_8_fits(self):
        # (7, 8) has the largest bound of table 1 with weights up to 8
        assert 3_162_508 <= VALUE_MASK_BUDGET
        report = complement_below(MorphicFixedPoint(), Weights((7, 8)),
                                  3_162_508, src=MorphicCover(9))
        assert report.complement[-1] == 210

    def test_cli_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(frobenius, "VALUE_MASK_BUDGET", 100)
        frobwords.clear_caches()  # no memo entry may answer for the mask
        code = main(["complement", "--word", "phi", "--weights", "3,4",
                     "--bound", "300"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and "VALUE_MASK_BUDGET" in captured.err


class TestClearCaches:
    def test_next_call_rebuilds(self, monkeypatch):
        builds = {"envelope": 0, "values": 0, "fib": 0, "triple": 0,
                  "decision": 0}

        def counted(name, module, attr):
            fn = getattr(module, attr)

            def wrapper(*args, **kwargs):
                builds[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, attr, wrapper)

        counted("envelope", factors, "_desubstitution_envelopes")
        counted("values", frobenius, "_values_below")
        counted("fib", ternary, "_fib_first_occurrences")
        counted("triple", ternary, "_new_triple")
        counted("decision", ternary, "_decide")

        def requests():
            complement_below(PHI, Weights((3, 4)), 100, 200, MorphicCover(4))
            decide_cofinite((1, 2, 3))
            return dict(builds)

        frobwords.clear_caches()
        assert requests() == {name: 1 for name in builds}  # one build of each
        assert requests() == {name: 1 for name in builds}  # lookups
        assert list(ternary._TRIPLES) == [(1, 2, 3)]
        assert list(ternary._DECISIONS) == [(1, 2, 3)]
        frobwords.clear_caches()
        assert not factors._ENVELOPE_CACHE and not factors._COVER_CACHE
        assert not frobenius._COMPLEMENT_MEMO
        assert not ternary._TRIPLES and not ternary._DECISIONS
        assert ternary.enumerate_fib_factors.cache_info().currsize == 0
        assert requests() == {name: 2 for name in builds}


class TestPaperfoldingWitnesses:
    def test_pair_4_5(self):
        results = pf_witnesses(4, 5, range(4, 11))
        assert [r.n for r in results] == list(range(4, 11))
        assert all(r.verified_nonrepresentable for r in results)

    def test_pair_4_7(self):
        assert all(r.verified_nonrepresentable
                   for r in pf_witnesses(4, 7, range(4, 9)))

    def test_small_n_reported_not_asserted(self):
        (res,) = pf_witnesses(4, 5, range(2, 3))
        assert res.target == 20
        assert isinstance(res.verified_nonrepresentable, bool)

    def test_empty_range(self):
        assert pf_witnesses(4, 5, range(0)) == []

    def test_rejects_n_below_1(self):
        for ns in (range(0, 2), [3, -1]):
            with pytest.raises(ValueError, match="n must be >= 1"):
                pf_witnesses(4, 5, ns)

    @pytest.mark.parametrize("a, b", [(4, 5), (4, 9), (5, 7)])
    def test_matches_per_target_loop(self, a, b):
        # every target of n = 1..10, and every integer below 500, against
        # a per-target loop over the envelope
        results = pf_witnesses(a, b, range(1, 11))
        src = StabilizedDoubling(max_length=2**22)
        z_min, z_max = zero_envelope_table(PF, results[-1].target // a, src)
        assert [r.verified_nonrepresentable for r in results] == [
            not _representable_per_target(r.target, a, b, z_min, z_max)
            for r in results]
        values = _values_below(PF, Weights((a, b)), 500, 500 // a, src,
                               covered=True)
        assert values.tolist() == [
            v for v in range(500)
            if _representable_per_target(v, a, b, z_min, z_max)]

    def test_hypothesis_guard(self):
        with pytest.raises(ValueError):
            pf_witnesses(3, 5, range(4, 6))
        with pytest.raises(ValueError):
            pf_witnesses(4, 6, range(4, 6))

    def test_independent_value_scan_small_n(self):
        # cross-check the envelope verdict by scanning actual factor values
        for n in (4, 5):
            target = 4 * (2 ** (n - 1) - 2) + 5 * (2 ** (n - 1) + 2)
            max_len = target // 4
            text = PF.prefix_array(2**15)
            z = np.concatenate([[0], np.cumsum(text == 0)])
            seen = set()
            for length in range(1, max_len + 1):
                zeros = z[length:] - z[:-length]
                for zz in np.unique(zeros):
                    seen.add(4 * int(zz) + 5 * (length - int(zz)))
            assert target not in seen


def _representable_per_target(target, a, b, z_min, z_max):
    """Reference: is target = a*z + b*(L-z) for some factor length L with z
    inside the envelope at L?  One loop over L per target."""
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


def _progression_union(z_min, z_max, a, b, bound):
    """Reference: mark the value progression of each factor length in turn,
    start + step*k for k < count, one slice assignment per length."""
    hit = np.zeros(bound, dtype=bool)
    for n in range(1, len(z_min) + 1):
        lo, hi = int(z_min[n - 1]), int(z_max[n - 1])
        v1 = b * n + (a - b) * lo
        v2 = b * n + (a - b) * hi
        start = min(v1, v2)
        step = abs(a - b)
        step, count = (1, 1) if step == 0 else (step, hi - lo + 1)
        if start >= bound:
            continue
        stop = min(start + step * count, bound)
        hit[start:stop:step] = True
    return hit


@st.composite
def _envelopes(draw):
    """Random envelopes 0 <= z_min(n) <= z_max(n) <= n for 1..300 lengths."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)),
                          min_size=1, max_size=300))
    bounds = [sorted((u % (n + 1), v % (n + 1)))
              for n, (u, v) in enumerate(pairs, start=1)]
    z_min, z_max = np.array(bounds, dtype=np.int64).T
    return z_min, z_max


# (1, 1) is the one pair with a == b; draw it often, not by chance
_coprime_pairs = st.one_of(st.just((1, 1)), st.tuples(
    st.integers(1, 12), st.integers(1, 12)).filter(lambda ab: math.gcd(*ab) == 1))


class TestEnvelopeMask:
    @settings(max_examples=examples(200), deadline=None)
    @given(_envelopes(), _coprime_pairs, st.data())
    def test_matches_progression_union(self, envelope, weights, data):
        z_min, z_max = envelope
        a, b = weights
        bound = data.draw(st.integers(1, max(a, b) * len(z_min) + 20))
        got = _envelope_mask(z_min, z_max, a, b, bound)
        assert got.dtype == bool and got.shape == (bound,)
        assert got.tolist() == _progression_union(z_min, z_max, a, b, bound).tolist()


class _Bits(WordGenerator):
    """One finite binary string, read through ExplicitPrefix(len(bits))."""

    family = "bits"

    def __init__(self, bits):
        super().__init__()
        self.bits = np.array(bits, dtype=np.uint8)

    def _build(self, n):
        return self.bits[:n].copy()


@st.composite
def _window_law_envelopes(draw):
    """Zero envelopes that obey the window law: the window extrema of a
    random binary string, or a prefix of the pf, fib or phi table."""
    word = draw(st.sampled_from(["bits", "pf", "fib", "phi"]))
    if word == "bits":
        bits = draw(st.lists(st.integers(0, 1), min_size=1, max_size=300))
        g, src = _Bits(bits), ExplicitPrefix(len(bits))
        n_max = draw(st.integers(1, len(bits)))
    else:
        g, src = WORDS[word], None
        n_max = draw(st.integers(1, 400))
    return zero_envelope_table(g, n_max, src)


def _mask_answer(z_min, z_max, a, b, bound, covered):
    """_run_chains' answer read off the mask oracle."""
    mask = _envelope_mask(z_min, z_max, a, b, bound)
    return (np.flatnonzero(mask) if covered
            else np.flatnonzero(~mask[1:]) + 1).tolist()


class TestRunChains:
    @settings(max_examples=examples(200), deadline=None)
    @given(_window_law_envelopes(), _coprime_pairs, st.booleans(), st.data())
    def test_matches_the_mask(self, envelope, weights, covered, data):
        z_min, z_max = envelope
        a, b = weights
        # bounds below and above len(z_min) * min(weights)
        bound = data.draw(st.integers(1, max(a, b) * len(z_min) + 20))
        got = _run_chains(z_min, z_max, a, b, bound, covered)
        assert got.dtype == np.int64
        assert got.tolist() == _mask_answer(z_min, z_max, a, b, bound, covered)

    def test_equal_weights(self):
        # (1, 1): d = 1, one class, and length n has the one value n
        z_min, z_max = zero_envelope_table(PHI, 30)
        assert _run_chains(z_min, z_max, 1, 1, 40, False).tolist() == list(
            range(31, 40))
        assert _run_chains(z_min, z_max, 1, 1, 40, True).tolist() == list(
            range(1, 31))

    @pytest.mark.parametrize("a, b", [(1, 12), (12, 1), (3, 11)])
    @pytest.mark.parametrize("n_max", [1, 2, 5, 8])
    def test_step_at_least_the_lengths(self, a, b, n_max):
        # d = |a-b| >= n_max, so no chain has two lengths, for every bound
        # from 1 to past the largest value
        z_min, z_max = zero_envelope_table(PF, n_max)
        for bound in range(1, max(a, b) * n_max + 3):
            for covered in (False, True):
                assert _run_chains(z_min, z_max, a, b, bound, covered).tolist() \
                    == _mask_answer(z_min, z_max, a, b, bound, covered)

    def test_memory_does_not_grow_with_the_step(self):
        # d = 10**7 - 1 and 5 lengths: only the classes below the bound are
        # read, where a grid of d columns (or the value mask's grid of d
        # rows) would take hundreds of MiB
        tracemalloc.start()
        try:
            report = complement_below(PaperfoldingWord(), Weights((1, 10**7)), 5)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
        assert report.complement == (4,)  # pf has no factor 0000

    def test_bound_1(self):
        z_min, z_max = zero_envelope_table(PHI, 50)
        for a, b in [(1, 1), (2, 3), (7, 2)]:
            for covered in (False, True):
                assert _run_chains(z_min, z_max, a, b, 1, covered).size == 0

    @pytest.mark.parametrize("a, b, z_min, z_max", [
        (1, 2, [0, 0], [0, 2]),        # z_max(2) - z_max(1) = b
        (2, 1, [1, 0], [1, 1]),        # z_min(2) - z_min(1) = -b
        (1, 3, [0, 0, 0], [0, 0, 3]),  # class mod 2: lengths 1 and 3
    ])
    def test_refuses_starts_that_do_not_rise(self, a, b, z_min, z_max):
        z_min, z_max = np.array(z_min), np.array(z_max)
        for covered in (False, True):
            with pytest.raises(ValueError, match="breaks the window law"):
                _run_chains(z_min, z_max, a, b, 20, covered)

    def test_ends_need_not_rise(self):
        # rising starts are all the kernel relies on: here the run end of
        # length 3 falls below that of length 2, and the running maximum
        # keeps 4 reached
        z_min, z_max = np.array([0, 0, 3]), np.array([1, 2, 3])
        assert _run_chains(z_min, z_max, 1, 2, 8, False).tolist() == [5, 6, 7]
        assert _run_chains(z_min, z_max, 1, 2, 8, True).tolist() == [1, 2, 3, 4]
        for covered in (False, True):
            assert _run_chains(z_min, z_max, 1, 2, 8, covered).tolist() == (
                _mask_answer(z_min, z_max, 1, 2, 8, covered))

    def test_refusal_reaches_the_caller(self, monkeypatch):
        # every second length gains two zeros, so for (1, 2) the run
        # start 2n - z_max(n) stalls at each even n
        monkeypatch.setattr(frobenius, "zero_envelope_table",
                            lambda g, n, src: (np.zeros(n, dtype=np.int64),
                                               np.arange(1, n + 1) // 2 * 2))
        g = MorphicFixedPoint()
        with pytest.raises(ValueError, match="breaks the window law"):
            complement_below(g, Weights((1, 2)), 30)
        assert memo_of(g) is None
