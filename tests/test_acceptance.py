"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 checks table 1 in full against the bundled reference, with one
pinned erratum: the reference records 244 as the bound for the pair (3,1),
while the documented bound formula gives ceil(5/3 * (132 + 2)) = 224.  The
formula reproduces the other 22 reference bounds, and 244 would need an
additive term of 14 in place of |a - b| = 2, which no other row supports.
The test asserts the formula value for (3,1), that the reference still says
244, and that (3,1) is the only cell that differs; see the README.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from frobwords import cli, golden, morphic, ternary, verify
from frobwords.factors import (
    MorphicCover,
    StabilizedDoubling,
    parikh_set,
    parikh_set_table,
    welldoc_check,
)
from frobwords.frobenius import Weights, complement_below, pf_witnesses
from frobwords.morphic import COVER_POWER, phi_envelope_table
from frobwords.ternary import (
    Half,
    decide_cofinite,
    f_sequence,
    g_values,
    interval_I,
    main_term,
    offsets,
    semi_complement,
    semi_image,
)
from frobwords.words import WORDS, FiniteWord, paperfolding_prefix

PF, FIB, T = WORDS["pf"], WORDS["fib"], WORDS["t"]

PF_SRC = StabilizedDoubling(max_length=2**22)


def report(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


@pytest.fixture(scope="module")
def t_table_2000():
    return parikh_set_table(T, 2000, StabilizedDoubling())


@pytest.fixture(scope="module")
def f_table_2000():
    return parikh_set_table(FIB, 2000, StabilizedDoubling())


ERRATUM_PAIR = (3, 1)
ERRATUM_REFERENCE = 244
# The documented bound for (3,1), written out rather than taken from
# ab_bound: C = 4, so M = max(5 * 3, 5/3 * (132 * 5**0 + |3 - 1|)) = 670/3.
ERRATUM_FORMULA = math.ceil(Fraction(5, 3) * (132 + 2))


def test_criterion_1_table1_reproduction():
    rows = morphic.table1()
    gold = {pair: (m, c) for pair, m, c in golden.TABLE1_GOLDEN}
    assert [(r.a, r.b) for r in rows] == list(gold)
    assert gold[ERRATUM_PAIR][0] == ERRATUM_REFERENCE

    bad_complements = [(r.a, r.b, r.complement) for r in rows
                       if r.complement != gold[(r.a, r.b)][1]]
    mismatches = [(r.a, r.b) for r in rows if r.ceil_M != gold[(r.a, r.b)][0]]
    bound_31 = next(r.ceil_M for r in rows if (r.a, r.b) == ERRATUM_PAIR)

    # The reference's own claim for (3,1) at its own bound: a length-n factor
    # weighs at least n, so factors up to length 244 decide every value below
    # 244 and max_len=244 is complete.
    ref_complement = complement_below(
        WORDS["phi"], Weights(ERRATUM_PAIR), bound=ERRATUM_REFERENCE,
        max_len=ERRATUM_REFERENCE, src=MorphicCover(COVER_POWER),
    ).complement

    ok = (not bad_complements and mismatches == [ERRATUM_PAIR]
          and bound_31 == ERRATUM_FORMULA and ref_complement == ())
    report(1, ok, f"table 1: {23 - len(mismatches)}/23 bounds equal the "
                  f"reference; (3,1): formula {bound_31}, reference erratum "
                  f"{ERRATUM_REFERENCE}; {23 - len(bad_complements)}/23 "
                  f"complements exact")
    assert not bad_complements, bad_complements
    assert mismatches == [ERRATUM_PAIR], mismatches
    assert bound_31 == ERRATUM_FORMULA
    assert ref_complement == ()


def test_criterion_2_table2_reproduction():
    rows = ternary.table2()
    computed = [(tuple(r.weights), r.complement) for r in rows]
    expected = [(w, c) for w, c in golden.TABLE2_GOLDEN]
    # every admissible triple outside the 13 must come out infinite
    admissible = []
    seen = set()
    for s0 in range(1, 8):
        for s1 in range(1, 8):
            for s2 in range(1, 8):
                t = (s0, s1, s2)
                if math.gcd(s0, s1, s2) > 1 or s0 == s2 or t[::-1] in seen:
                    continue
                seen.add(t)
                admissible.append(t)
    cofinite = {t for t in admissible if decide_cofinite(t).cofinite}
    ok = computed == expected and cofinite == {w for w, _ in expected}
    report(2, ok, f"table 2: {len(rows)} cofinite triples out of "
                  f"{len(admissible)} admissible, complements exact")
    assert computed == expected
    assert cofinite == {w for w, _ in expected}


def test_criterion_3_paperfolding_claims():
    powers_ok = all(
        len(parikh_set(PF, 2**k, PF_SRC)) == 3 for k in range(1, 15)
    )

    table = parikh_set_table(PF, 4097, PF_SRC)
    deltas = [frozenset(v[0] - v[1] for v in row) for row in table]
    m_vals = [max(d) for d in deltas]
    claim_rho = all(len(deltas[n - 1]) == m_vals[n - 1] + 1
                    for n in range(1, 4097))
    claim_step = all(abs(m_vals[n] - m_vals[n - 1]) == 1 for n in range(1, 4097))

    nope_ok = True
    for n in range(2, 13):
        vecs = set(table[2**n - 1])
        half = 2 ** (n - 1)
        nope_ok &= (half - 2, half + 2) not in vecs
        nope_ok &= (half + 2, half - 2) not in vecs

    witness_ok = all(
        r.verified_nonrepresentable
        for a, b in [(4, 5), (4, 7), (5, 7), (4, 9)]
        for r in pf_witnesses(a, b, range(4, 11))
    )

    ok = powers_ok and claim_rho and claim_step and nope_ok and witness_ok
    report(3, ok, "paperfolding: complexity at powers of two, delta laws to "
                  "4096, Parikh exclusions, witnesses for 4 weight pairs")
    assert powers_ok and claim_rho and claim_step
    assert nope_ok and bool(witness_ok)


def test_criterion_4_phi_growth_base_cases():
    max_report = morphic.verify_phi_base_case("max")
    min_report = morphic.verify_phi_base_case("min")

    _, z_max = phi_envelope_table(5 * 3000 + 4)
    ks = np.arange(1, 3001)
    ineq_ok = all(
        bool((z_max[5 * ks + r - 1] >= 2 * z_max[ks] + ks - 2).all())
        for r in range(5)
    )
    ok = max_report.passed and min_report.passed and ineq_ok
    report(4, ok, "envelope drift base cases on [29,145] and [132,660]; "
                  "five-fold inequality to k=3000")
    assert max_report.passed and min_report.passed and ineq_ok


def test_criterion_5_ternary_oracle_equivalence(t_table_2000):
    bad = []
    for s in verify.ORACLE_TRIPLES:
        w = Weights(s)
        for n in range(2, 2001):
            brute = frozenset(v.dot(w) for v in t_table_2000[n - 1])
            if brute != g_values(n, s):
                bad.append((s, n))
                break
    ok = not bad
    report(5, ok, f"value formulas equal brute force for "
                  f"{len(verify.ORACLE_TRIPLES)} triples, 2 <= n <= 2000"
           + (f"; first failures {bad}" if bad else ""))
    assert ok, bad


def test_criterion_6_worked_example_end_to_end():
    s = (1, 1, 2)
    tab = offsets(s)
    m_expected = [1, 2.5, 3.5, 5, 6.5, 7.5, 9, 10, 11.5, 13, 14]
    m_ok = [main_term(n, s) for n in range(1, 12)] == [
        Half(int(2 * v)) for v in m_expected]
    f_expected = [1.5, 1, 1.5, 1.5, 1, 1.5, 1, 1.5, 1.5, 1]
    f_ok = f_sequence(1, 10, s) == [Half(int(2 * v)) for v in f_expected]
    lo, hi = interval_I(f_sequence(1, 4, s), f_sequence(5, 5, s)[0], tab.k)
    i_ok = (lo, hi) == (Half.from_int(2), Half(9))
    bits4 = tuple(FIB.prefix_array(4))
    bits5 = tuple(FIB.prefix_array(5))
    s0_ok = semi_image(bits4, s, 0) == {Half.from_int(v) for v in range(1, 7)}
    k_ok = (semi_complement(bits5, s, 0) == frozenset()
            and semi_complement(bits5, s, 1) == frozenset())
    ok = m_ok and f_ok and i_ok and s0_ok and k_ok
    report(6, ok, "worked (1,1,2) example: main terms, differences, interval "
                  "[2,4.5], even semi-image {1..6}, empty semi-complements")
    assert m_ok and f_ok and i_ok and s0_ok and k_ok


def test_criterion_7_property_suites(t_table_2000, f_table_2000):
    bal_ok = True
    for table, k in ((f_table_2000, 2), (t_table_2000, 3)):
        for row in table:
            for letter in range(k):
                vals = [v[letter] for v in row]
                bal_ok &= max(vals) - min(vals) <= 1

    chosen = []
    for length in range(1, 5):
        chosen.extend(bits for _, bits in ternary.enumerate_fib_factors(length))
    chosen = chosen[:10]
    welldoc_ok = all(
        welldoc_check(FIB, FiniteWord(bits, 2), m, 20000).complete
        for m in (2, 3) for bits in chosen
    )

    z_min, z_max = phi_envelope_table(5**6)
    ns = [5**k for k in range(2, 7)]
    rho = [int(z_max[n - 1]) - int(z_min[n - 1]) + 1 for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(rho), 1)[0])
    slope_ok = abs(slope - math.log(2) / math.log(5)) <= 0.1

    s = (8, 1, 1)
    tab = offsets(s)
    big_n = 10**5
    seen = np.zeros(big_n + 1, dtype=bool)
    n = 1
    while main_term(n, s) - tab.k <= big_n:
        for v in g_values(n, s):
            if 1 <= v <= big_n:
                seen[v] = True
        n += 1
    density = float(seen[1:].sum()) / big_n
    density_ok = density < 0.95

    ok = bool(bal_ok and welldoc_ok and slope_ok and density_ok)
    report(7, ok, f"balance to 2000; occurrence residues for 10 factors at "
                  f"m=2,3; growth slope {slope:.3f}; density {density:.4f}")
    assert bal_ok and welldoc_ok
    assert slope_ok and density_ok


def test_criterion_8_determinism(capsys):
    n = 2**16
    a = paperfolding_prefix(n, "direct")
    b = paperfolding_prefix(n, "recursive")
    c = paperfolding_prefix(n, "toeplitz")
    constructions_ok = a == b == c

    rerun_ok = True
    for argv in (
        ["prefix", "--word", "t", "--n", "100", "--format", "json"],
        ["tables", "--which", "2", "--format", "csv"],
        ["complexity", "--word", "pf", "--n-min", "1", "--n-max", "8",
         "--format", "markdown"],
    ):
        cli.main(list(argv))
        first = capsys.readouterr().out
        cli.main(list(argv))
        second = capsys.readouterr().out
        rerun_ok &= first == second

    ok = constructions_ok and rerun_ok
    with capsys.disabled():
        report(8, ok, "three constructions agree to 2^16; CLI reruns are "
                      "byte-identical")
    assert constructions_ok and rerun_ok
