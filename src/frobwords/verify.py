"""Bounded verification suites for every documented invariant.

Each check recomputes a claim from scratch at desk scale and reports one
CheckResult; the CLI ``verify`` command runs a suite and exits nonzero when
anything fails.  ``quick=True`` shrinks the ranges to CI scale without
changing what is checked, except that the phi suite's cross-check of the
run-chain complements against the value mask at scale runs only in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import factors, golden, morphic, ternary, words
from .factors import (
    Certified,
    ExplicitPrefix,
    MorphicCover,
    ParikhVector,
    StabilizedDoubling,
    parikh,
    parikh_set,
    parikh_set_table,
    is_balanced,
    welldoc_check,
    zero_envelope_table,
)
from .frobenius import (
    Weights,
    complement_below,
    pf_witnesses,
    representable_set,
    sylvester_number,
)
from .ternary import (
    Half,
    decision_window_length,
    enumerate_fib_factors,
    f_sequence,
    g_values,
    generating_prefix_parikh,
    main_term,
    mu,
    mu_divergence,
    offsets,
    semi_complement,
    semi_image,
)
from .words import (
    FiniteWord,
    WORDS,
    WordGenerator,
    floor_phi_array,
    iterate_morphism,
    paperfolding_prefix,
    replace_alternate_zeros,
)

__all__ = [
    "CheckResult",
    "MaxComplexityWord",
    "classical_nonrepresentable",
    "run_suite",
    "SUITES",
    "ORACLE_TRIPLES",
]

_PF, _FIB, _PHI, _T = WORDS["pf"], WORDS["fib"], WORDS["phi"], WORDS["t"]

#: The one reference erratum in table 1: the reference records 244 as the
#: bound for (3,1), while the bound formula gives, with C = 4,
#: M = max(5 * 3, 5/3 * (132 + |3 - 1|)) = 670/3, so ceil(M) = 224.
ERRATUM_PAIR = (3, 1)
ERRATUM_REFERENCE = 244
ERRATUM_FORMULA = math.ceil(Fraction(5, 3) * (132 + 2))

#: Triples exercised by the value-formula oracle: most of the cofinite
#: table plus a known-infinite triple and a large-weight one.
ORACLE_TRIPLES = [
    (1, 1, 2), (1, 1, 3), (1, 2, 3), (1, 3, 2), (1, 3, 5),
    (2, 1, 5), (2, 3, 4), (1, 4, 2), (1, 1, 5), (8, 1, 1),
]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    details: str = ""


class MaxComplexityWord(WordGenerator):
    """Synthetic binary word 0 1 00 11 000 111 ... whose length-n factors
    realize every zero count from 0 to n once the scan passes block n+1;
    used to cross-check complement machinery against the classical two-coin
    problem."""

    family = "staircase"
    alphabet_size = 2

    def _build(self, n):
        blocks = []
        total, j = 0, 1
        while total < n:
            blocks.append(np.zeros(j, dtype=np.uint8))
            blocks.append(np.ones(j, dtype=np.uint8))
            total += 2 * j
            j += 1
        return np.concatenate(blocks)[:n]

    def letter(self, n):
        if n < 1:
            raise ValueError("positions are 1-indexed")
        return int(self.prefix_array(n)[n - 1])


def classical_nonrepresentable(a: int, b: int) -> tuple:
    """Brute-force positive integers with no representation xa + yb."""
    bound = max(a * b, 2)
    reach = np.zeros(bound, dtype=bool)
    reach[0] = True
    for v in range(1, bound):
        reach[v] = (v >= a and reach[v - a]) or (v >= b and reach[v - b])
    return tuple(int(v) for v in np.flatnonzero(~reach) if v > 0)


def _envelope_mask(z_min, z_max, a: int, b: int, bound: int) -> np.ndarray:
    """Boolean mask over 0..bound-1 of the values a*z + b*(n-z) with
    z_min[n-1] <= z <= z_max[n-1], for every length n of the envelope.

    The oracle for ``frobenius._run_chains``, for any envelope and any
    weights: it needs no window law and no coprimality.  The values at one
    length step by |a-b|, so inside one residue class mod |a-b| they are
    one run of consecutive class members.  The classes are laid out as the
    rows of a grid whose last column collects the runs that reach past
    bound; each run adds +1 at its first member and -1 after its last, and
    one in-place cumsum per row turns the counts into the mask.  A count
    never exceeds the number of lengths, so the grid is int32: 4 bytes per
    integer below bound, and the mask 2 more.
    """
    step = abs(a - b) or 1  # a == b: one value per length, one class
    n = np.arange(1, len(z_min) + 1, dtype=np.int64)
    v1 = b * n + (a - b) * np.asarray(z_min, dtype=np.int64)
    v2 = b * n + (a - b) * np.asarray(z_max, dtype=np.int64)
    lo, hi = np.minimum(v1, v2), np.maximum(v1, v2)
    keep = lo < bound
    lo, hi = lo[keep], hi[keep]
    cols = -(-bound // step)  # members of class 0 below bound
    width = cols + 1
    row = lo % step * width
    runs = np.zeros(step * width, dtype=np.int32)
    np.add.at(runs, row + lo // step, 1)
    np.add.at(runs, row + np.minimum(hi // step + 1, cols), -1)
    runs = runs.reshape(step, width)
    np.cumsum(runs, axis=1, out=runs)
    return (runs[:, :cols] > 0).T.ravel()[:bound]


def _fills_envelope(g: WordGenerator, n_max: int, src) -> bool:
    """True if, at every length up to n_max, the zero counts found by
    marking every window of the strings src demands fill the interval of
    the envelope table.  The reference for the interval lemma behind
    ``factors.parikh_set`` of binary words, so it shares no scan with
    ``factors``: it marks the prefix of an explicit prefix, the strings of
    a morphic cover, and under doubling the whole prefix at each doubling,
    until the marked sets stop changing."""

    def marked(strings):
        zs = [np.concatenate(([0], np.cumsum(arr == 0))) for arr in strings]
        table = []
        for n in range(1, n_max + 1):
            seen = np.zeros(n + 1, dtype=bool)
            for z in zs:
                if len(z) > n:
                    seen[z[n:] - z[:-n]] = True
            table.append(tuple(np.flatnonzero(seen).tolist()))
        return table

    z_min, z_max = zero_envelope_table(g, n_max, src)
    want = [tuple(range(lo, hi + 1)) for lo, hi in zip(z_min.tolist(), z_max.tolist())]
    if isinstance(src, ExplicitPrefix):
        return marked([g.prefix_array(src.length)]) == want
    if isinstance(src, MorphicCover):
        return marked(factors._morphic_cover_strings(g, src.power)) == want
    length = max(src.initial_length or 64 * n_max, n_max)  # doubling
    previous = marked([g.prefix_array(length)])
    while 2 * length <= src.max_length:
        length *= 2
        current = marked([g.prefix_array(length)])
        if current == previous:
            return current == want
        previous = current
    return False


def _row_codes(mat: np.ndarray) -> np.ndarray:
    """The distinct codes ones*(n+1) + twos of the rows of a ternary matrix
    of row length n; with the zeros n - ones - twos, a code is one Parikh
    vector."""
    n = mat.shape[1]
    return np.unique((mat == 1).sum(axis=1) * (n + 1) + (mat == 2).sum(axis=1))


def _s_of_array(arr: np.ndarray, s: Weights) -> int:
    return sum(int((arr == letter).sum()) * w for letter, w in enumerate(s))


# ---------------------------------------------------------------------------
# Paperfolding suite
# ---------------------------------------------------------------------------

def _pf_checks(quick: bool) -> list[CheckResult]:
    out = []
    n_cross = 2**12 if quick else 2**16
    a = paperfolding_prefix(n_cross, "direct")
    b = paperfolding_prefix(n_cross, "recursive")
    c = paperfolding_prefix(n_cross, "toeplitz")
    out.append(CheckResult("pf", f"cross-construction agreement to {n_cross}",
                           a == b == c))

    n_rec = 2**11 if quick else 2**15
    arr = _PF.prefix_array(2 * n_rec)
    odd_ok = bool((arr[0::2] == (np.arange(n_rec) & 1)).all())
    even_ok = bool((arr[1::2] == arr[:n_rec]).all())
    out.append(CheckResult("pf", f"odd/even recursion to {n_rec}",
                           odd_ok and even_ok))

    n_cert = 2**10 + 1 if quick else 2**12 + 1
    src = StabilizedDoubling(max_length=2**22)
    rec_min, rec_max = zero_envelope_table(_PF, n_cert, Certified())
    scan_min, scan_max = zero_envelope_table(_PF, n_cert, src)
    out.append(CheckResult(
        "pf", f"2-recursion equals the doubling scan to {n_cert}",
        bool((rec_min == scan_min).all() and (rec_max == scan_max).all())))

    n_stats = 2**9 if quick else 2**12
    table = parikh_set_table(_PF, n_stats + 1, src)
    deltas = [frozenset(v[0] - v[1] for v in row) for row in table]
    m_vals = [max(d) for d in deltas]
    out.append(CheckResult(
        "pf", f"complexity = max-delta + 1 to {n_stats}",
        all(len(deltas[n - 1]) == m_vals[n - 1] + 1 for n in range(1, n_stats + 1))))
    out.append(CheckResult(
        "pf", f"max-delta steps by +-1 to {n_stats}",
        all(abs(m_vals[n] - m_vals[n - 1]) == 1 for n in range(1, n_stats + 1))))
    grid_ok = True
    for n in range(1, n_stats + 1):
        ds, M = deltas[n - 1], m_vals[n - 1]
        grid_ok &= ds == frozenset(range(-M, M + 1, 2))
    out.append(CheckResult("pf", "delta sets are symmetric full grids",
                           bool(grid_ok)))

    k_max = 10 if quick else 14
    powers_ok = all(
        len(parikh_set(_PF, 2**k, src)) == 3 for k in range(1, k_max + 1)
    )
    out.append(CheckResult("pf", f"complexity 3 at powers of two up to 2^{k_max}",
                           powers_ok))

    n_nope = 9 if quick else 12
    nope_ok = True
    for n in range(2, n_nope + 1):
        vecs = set(table[2**n - 1])
        half = 2 ** (n - 1)
        nope_ok &= (half - 2, half + 2) not in vecs and (half + 2, half - 2) not in vecs
    out.append(CheckResult("pf", f"excluded Parikh vectors at 2^n, n <= {n_nope}",
                           bool(nope_ok)))

    n_env = 128 if quick else 512
    out.append(CheckResult("pf", f"zero counts fill the envelope to {n_env}",
                           _fills_envelope(_PF, n_env, src)))

    out.append(CheckResult("pf", "not 1-balanced by length 16",
                           not is_balanced(_PF, 16, 1, src)))

    stair = MaxComplexityWord()
    classical_ok = True
    for pa, pb in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (5, 6)]:
        bound = sylvester_number(pa, pb) + 1
        rep = complement_below(stair, Weights((pa, pb)), bound)
        classical_ok &= rep.complement == classical_nonrepresentable(pa, pb)
    out.append(CheckResult("pf", "classical two-coin complement cross-check",
                           bool(classical_ok)))

    mono = representable_set(_PF, Weights((2, 3)), 12, src) <= representable_set(
        _PF, Weights((2, 3)), 24, src)
    out.append(CheckResult("pf", "representable set monotone in max length", mono))

    pairs = [(4, 5), (4, 7), (5, 7), (4, 9)] if quick else [
        (pa, pb) for pa in range(4, 9) for pb in range(pa + 1, 10)
        if math.gcd(pa, pb) == 1
    ]
    n_hi = 7 if quick else 10
    witness_ok = all(
        r.verified_nonrepresentable
        for pa, pb in pairs
        for r in pf_witnesses(pa, pb, range(4, n_hi + 1))
    )
    out.append(CheckResult(
        "pf", f"non-representable witnesses for {len(pairs)} weight pairs",
        witness_ok))
    return out


# ---------------------------------------------------------------------------
# Morphic-word suite
# ---------------------------------------------------------------------------

def _phi_checks(quick: bool) -> list[CheckResult]:
    out = []
    power = 4 if quick else 6
    z_min, z_max = morphic.phi_envelope_table(5**power)
    scan_min, scan_max = factors._scan_envelope_table(
        _PHI, 5**power, MorphicCover(power))
    out.append(CheckResult(
        "phi", f"envelope recursion equals the cover scan to 5^{power}",
        bool((z_min == scan_min).all() and (z_max == scan_max).all())))

    for direction in ("max", "min"):
        report = morphic.verify_phi_base_case(direction)
        out.append(CheckResult(
            "phi", f"envelope base case ({direction}) on {report.n_range}",
            report.passed))

    k_lim = 300 if quick else 3000
    _, z_max = morphic.phi_envelope_table(5 * k_lim + 4)
    ks = np.arange(1, k_lim + 1)
    ineq_ok = all(
        bool((z_max[5 * ks + r - 1] >= 2 * z_max[ks] + ks - 2).all())
        for r in range(5)
    )
    out.append(CheckResult("phi", f"five-fold envelope inequality to k={k_lim}",
                           ineq_ok))

    js = (0, 1) if quick else (0, 1, 2)
    _, z_max = morphic.phi_envelope_table(132 * 5 ** (max(js) + 1))
    scale_ok = all(
        int(z_max[5 * 132 * 5**j - 1]) == 2 * int(z_max[132 * 5**j - 1]) + 132 * 5**j
        for j in js
    )
    out.append(CheckResult("phi", "exact five-fold scaling at the window starts",
                           scale_ok))

    n_int = 200 if quick else 2000
    out.append(CheckResult("phi", f"zero counts fill the envelope to {n_int}",
                           _fills_envelope(_PHI, n_int, MorphicCover(5))))

    top = 5 if quick else 6
    z_min, z_max = morphic.phi_envelope_table(5**top)
    ns = [5**k for k in range(2, top + 1)]
    rho = [int(z_max[n - 1]) - int(z_min[n - 1]) + 1 for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(rho), 1)[0])
    target = math.log(2) / math.log(5)
    out.append(CheckResult(
        "phi", "complexity growth exponent within 0.1 of log_5(2)",
        abs(slope - target) <= 0.1, f"slope={slope:.4f} target={target:.4f}"))

    out.append(CheckResult("phi", "interval windows at 132 (C=4) and 660 (C=5)",
                           morphic.verify_pvects_window(132, 4)
                           and morphic.verify_pvects_window(660, 5)))

    pairs = [p for p in golden.TABLE1_PAIRS
             if not quick or morphic.ab_bound(*p).r <= 2500]
    rows = morphic.table1(pairs)
    gold = {g[0]: (g[1], g[2]) for g in golden.TABLE1_GOLDEN}
    comp_ok = all(gold[(r.a, r.b)][1] == r.complement for r in rows)
    out.append(CheckResult(
        "phi", f"reference complements for {len(rows)} weight pairs", comp_ok))
    mismatches = [(r.a, r.b) for r in rows if r.ceil_M != gold[(r.a, r.b)][0]]
    erratum_bound = next(r.ceil_M for r in rows if (r.a, r.b) == ERRATUM_PAIR)
    out.append(CheckResult(
        "phi", f"reference bound column for {len(rows)} weight pairs",
        mismatches == [ERRATUM_PAIR] and erratum_bound == ERRATUM_FORMULA
        and gold[ERRATUM_PAIR][0] == ERRATUM_REFERENCE,
        f"{len(rows) - len(mismatches)}/{len(rows)} equal the reference; "
        f"(3,1): formula {erratum_bound}, reference erratum "
        f"{gold[ERRATUM_PAIR][0]}"))

    needed = max(
        (morphic.ab_bound(r.a, r.b).ceil_M + r.a + r.b) // min(r.a, r.b) + 1
        for r in rows
    )
    z_min, z_max = morphic.phi_envelope_table(needed)
    boundary_ok = all(
        _envelope_mask(
            z_min, z_max, r.a, r.b, r.ceil_M + r.a + r.b + 1)[r.ceil_M:].all()
        for r in rows
    )
    out.append(CheckResult(
        "phi", "every integer just above each bound is representable",
        bool(boundary_ok)))

    if not quick:
        # the production complements at scale, against the mask oracle
        bounds = [morphic.ab_bound(a, b) for a in range(1, 9)
                  for b in range(1, 9) if math.gcd(a, b) == 1]
        z_min, z_max = morphic.phi_envelope_table(max(bd.r for bd in bounds))
        chains_ok = all(
            complement_below(_PHI, Weights((bd.a, bd.b)), bd.ceil_M,
                             bd.r).complement
            == tuple((np.flatnonzero(~_envelope_mask(
                z_min[:bd.r], z_max[:bd.r], bd.a, bd.b, bd.ceil_M)[1:])
                + 1).tolist())
            for bd in bounds
        )
        out.append(CheckResult(
            "phi", f"run-chain complements equal the value mask for "
            f"{len(bounds)} weight pairs up to 8, to ceil(M)", chains_ok))

    stable = all(
        iterate_morphism(words.PHI_MORPHISM, 0, 5**k)
        == iterate_morphism(words.PHI_MORPHISM, 0, 5 ** (k + 1))[: 5**k]
        for k in range(1, 5)
    )
    out.append(CheckResult("phi", "fixed-point prefixes are nested", stable))
    return out


# ---------------------------------------------------------------------------
# Ternary suite
# ---------------------------------------------------------------------------

def _beatty_exactness(limit: int) -> bool:
    fp = floor_phi_array(limit)
    n = np.arange(1, limit + 1, dtype=np.int64)
    w = fp[1:]
    steps_ok = bool(np.isin(np.diff(w), (1, 2)).all())
    # Certify floor(n*phi) = w from (2w-n)^2 < 5n^2 < (2w-n+2)^2.
    five = 5 * n * n
    phi_ok = bool((((2 * w - n) ** 2 < five) & (five < (2 * w - n + 2) ** 2)).all())
    # Certify v = 2n - w - 1 equals floor(n*alpha): (3n-2v)^2 > 5n^2 > (3n-2v-2)^2.
    v = 2 * n - w - 1
    alpha_ok = bool(
        (((3 * n - 2 * v) ** 2 > five) & ((3 * n - 2 * v - 2) ** 2 < five)).all()
    )
    return steps_ok and phi_ok and alpha_ok


def _ternary_checks(quick: bool) -> list[CheckResult]:
    out = []
    limit = 10**4 if quick else 10**6
    out.append(CheckResult("ternary", f"Beatty floors certified exact to {limit}",
                           _beatty_exactness(limit)))

    rng = np.random.default_rng(20240)
    roundtrip_ok = True
    for _ in range(50):
        arr = rng.integers(0, 2, size=int(rng.integers(1, 300))).astype(np.uint8)
        for start in ("second", "first"):
            image = replace_alternate_zeros(FiniteWord(arr, 2), start).array
            roundtrip_ok &= np.array_equal(np.where(image == 2, 0, image), arr)
    out.append(CheckResult("ternary", "alternate-zero substitution is erasable",
                           bool(roundtrip_ok)))

    p = parikh(_T.prefix(5000))
    out.append(CheckResult("ternary", "zero/two counts split evenly at 5000",
                           p[0] - p[2] in (0, 1)))

    n_ll = 60 if quick else 500
    n_bal = 200 if quick else 2000
    n_g = 300 if quick else 2000
    # Values up to the complement bound B come from factors of length at
    # most B // min(S); longer rows only add values above B.
    bounds = {s: ternary._complement_bound(ternary._triple(s))
              for s, _ in golden.TABLE2_GOLDEN}
    n_scan = max(b // min(s) + 1 for s, b in bounds.items())
    # One doubling scan of t serves every check below that reads t's rows.
    t_table = parikh_set_table(_T, max(n_ll, n_bal, n_g, n_scan),
                               StabilizedDoubling())

    ok_lemma_l = True
    for n in range(1, n_ll + 1):
        row = t_table[n - 1]
        mat = np.frombuffer(b"".join(ternary._fib_first_occurrences(n)),
                            dtype=np.uint8).reshape(n + 1, n)
        images = np.union1d(
            _row_codes(words._replace_alternate_zeros_array(mat, "second")),
            _row_codes(words._replace_alternate_zeros_array(mat, "first")))
        ok_lemma_l &= (all(sum(v) == n for v in row)
                       and {v[1] * (n + 1) + v[2] for v in row} == set(images.tolist()))
    out.append(CheckResult(
        "ternary",
        f"ternary factors = both substitutions of Fibonacci factors to {n_ll}",
        bool(ok_lemma_l)))

    f_table = parikh_set_table(_FIB, n_bal, StabilizedDoubling())
    t_bal = t_table[:n_bal]
    out.append(CheckResult(
        "ternary", f"constant complexity (2 for fib, 3 for t) to {n_bal}",
        all(len(r) == 2 for r in f_table) and all(len(r) == 3 for r in t_bal)))
    bal_ok = all(max(counts) - min(counts) <= 1
                 for row in f_table + t_bal for counts in zip(*row))
    out.append(CheckResult("ternary", f"fib and t are 1-balanced to {n_bal}",
                           bool(bal_ok)))
    out.append(CheckResult(
        "ternary", f"Beatty and lift tables equal the doubling scan to {n_bal}",
        parikh_set_table(_FIB, n_bal, Certified()) == f_table
        and parikh_set_table(_T, n_bal, Certified()) == t_bal))

    moduli = (2,) if quick else (2, 3)
    n_factors = 4 if quick else 10
    chosen = []
    for length in range(1, 5):
        chosen.extend(bits for _, bits in enumerate_fib_factors(length))
    chosen = chosen[:n_factors]
    welldoc_ok = all(
        welldoc_check(_FIB, FiniteWord(bits, 2), m, 20000).complete
        for m in moduli for bits in chosen
    )
    out.append(CheckResult(
        "ternary",
        f"well-distributed occurrences for {len(chosen)} factors, m in {moduli}",
        welldoc_ok))

    n_tel = 10**3 if quick else 10**4
    tel_ok = True
    for s in [(1, 1, 2), (2, 3, 4), (3, 5, 7), (8, 1, 1)]:
        twice = [main_term(n, s).twice for n in range(1, n_tel + 2)]
        tel_ok &= np.array_equal(np.diff(twice),
                                 [x.twice for x in f_sequence(1, n_tel, s)])
    out.append(CheckResult("ternary",
                           f"main-term differences ride on fib to {n_tel}",
                           bool(tel_ok)))

    n_vec = 200 if quick else 2000
    vec_ok = two_ok = True
    fib_arr = _FIB.prefix_array(n_vec)
    for n in range(1, n_vec + 1):
        direct = {}
        for lead in (0, 1):
            word = np.concatenate([[lead], fib_arr[:n]]).astype(np.uint8)
            for start, tag in (("second", "T"), ("first", "Tbar")):
                img = words._replace_alternate_zeros_array(word, start)
                direct[f"{tag}{lead}"] = ParikhVector(
                    np.bincount(img, minlength=3).tolist())
        vec_ok &= all(
            generating_prefix_parikh(n, v) == direct[v] for v in direct)
        two_ok &= len(set(direct.values())) == 3
    out.append(CheckResult(
        "ternary", f"generating-prefix count formulas to {n_vec}", bool(vec_ok)))
    out.append(CheckResult(
        "ternary", f"exactly two generating prefixes coincide to {n_vec}",
        bool(two_ok)))

    cor_ok = True
    for s in [(1, 1, 2), (2, 3, 4), (1, 3, 5), (3, 5, 7)]:
        s0, s1, _ = s
        tab = offsets(s)
        sw = Weights(s)
        for n in range(2, n_vec + 1):
            m = main_term(n, s)
            vals = {}
            for lead in (0, 1):
                word = np.concatenate([[lead], fib_arr[: n - 1]]).astype(np.uint8)
                for start, tag in (("second", "T"), ("first", "Tbar")):
                    img = words._replace_alternate_zeros_array(word, start)
                    vals[f"{tag}{lead}"] = _s_of_array(img, sw)
            if mu(n) == 1:
                cor_ok &= (
                    vals["T0"] == vals["Tbar0"]
                    and m + tab.o1 == vals["T0"]
                    and m + tab.o2 == vals["T1"]
                    and m + tab.o3 == vals["Tbar1"]
                    and vals["T0"] - vals["Tbar1"] == s0 - s1
                )
            else:
                cor_ok &= (
                    m + tab.e1 == vals["T0"]
                    and m + tab.e2 == vals["Tbar0"]
                    and vals["T1"] == vals["Tbar1"]
                    and m + tab.e3 == vals["T1"]
                )
    out.append(CheckResult(
        "ternary", f"prefix-value displays at both parities to {n_vec}",
        bool(cor_ok)))

    triples = ORACLE_TRIPLES[:3] if quick else ORACLE_TRIPLES
    g_ok = all(
        frozenset(v.dot(Weights(s)) for v in t_table[n - 1]) == g_values(n, s)
        for s in triples for n in range(2, n_g + 1)
    )
    out.append(CheckResult(
        "ternary",
        f"value formulas match brute-force scans for {len(triples)} triples to {n_g}",
        g_ok))

    n_mu = 2000
    fib_bits = _FIB.prefix_array(n_mu)
    expected = [n for n in range(2, n_mu + 1) if fib_bits[n - 2] == 1]
    out.append(CheckResult(
        "ternary", "printed selector form diverges exactly on the ones of fib",
        mu_divergence(n_mu) == expected,
        "library uses the prefix-parity convention"))

    cof = [w for w, _ in golden.TABLE2_GOLDEN]
    sample = cof[:3] if quick else cof
    i_cover = 100 if quick else 500
    i_overlap = 50 if quick else 200
    cover_ok = overlap_ok = True
    for s in sample:
        tab = offsets(s)
        l = decision_window_length(s)
        partial = np.cumsum(
            [0] + [x.twice for x in f_sequence(1, i_cover + l + 60, s)])
        k1 = tab.k.twice + 2  # doubled k+1, like every sum here
        cover_ok &= bool(np.all(partial[1 : i_cover + 1] + k1
                                <= partial[1 + l : i_cover + l + 1] - k1))
        six = np.array([x.twice for x in tab.odd() + tab.even()])
        for i in range(1, i_overlap + 1):
            lo = partial[i - 1] + k1
            hi = partial[i + l] - k1
            outside = np.concatenate(
                [partial[:i], partial[i + l : i + l + 50]])[:, None] + six
            overlap_ok &= not np.any((lo <= outside) & (outside <= hi))
    out.append(CheckResult(
        "ternary", f"consecutive value windows overlap to i={i_cover}",
        bool(cover_ok)))
    out.append(CheckResult(
        "ternary", f"outside offsets never land inside a window to i={i_overlap}",
        bool(overlap_ok)))

    dens_n = 10**4 if quick else 10**5
    s = (8, 1, 1)
    tab = offsets(s)
    seen = np.zeros(dens_n + 1, dtype=bool)
    n = 1
    while main_term(n, s) - tab.k <= dens_n:
        for v in g_values(n, s):
            if 1 <= v <= dens_n:
                seen[v] = True
        n += 1
    density = float(seen[1:].sum()) / dens_n
    out.append(CheckResult(
        "ternary", f"value density below 0.95 for (8,1,1) at {dens_n}",
        density < 0.95, f"density={density:.4f}"))

    sym_ok = True
    for s in [(1, 2, 3), (2, 3, 4), (1, 1, 5), (3, 1, 7), (2, 5, 6)]:
        fwd = representable_set(_T, Weights(s), 40)
        rev = representable_set(_T, Weights(s[::-1]), 40)
        sym_ok &= fwd == rev
    out.append(CheckResult(
        "ternary", "value sets symmetric under swapping outer weights",
        bool(sym_ok)))

    half_ok = True
    for s in [(1, 1, 2), (1, 4, 2), (8, 1, 1)]:
        l = decision_window_length(s)
        for _, bits in enumerate_fib_factors(l + 1):
            for parity in (0, 1):
                image = semi_image(bits[:-1], s, parity)
                half_ok &= all(isinstance(x, Half) for x in image)
                missed = semi_complement(bits, s, parity)
                half_ok &= all(isinstance(v, int) and v >= 0 for v in missed)
    out.append(CheckResult(
        "ternary", "semi-images stay on the half-integer grid",
        bool(half_ok)))

    rows = ternary.table2()
    computed = [(tuple(r.weights), r.complement) for r in rows]
    out.append(CheckResult(
        "ternary", "cofinite triple table reproduced exactly",
        computed == [(w, c) for w, c in golden.TABLE2_GOLDEN]))

    scan_ok = True
    for s, bound in bounds.items():
        hit = {v.dot(Weights(s)) for row in t_table[:n_scan] for v in row}
        scan_ok &= ternary.decide_cofinite(s).complement == tuple(
            v for v in range(1, bound + 1) if v not in hit)
    out.append(CheckResult(
        "ternary",
        f"complements equal a direct scan of t for {len(bounds)} triples",
        bool(scan_ok)))
    return out


SUITES = {
    "pf": _pf_checks,
    "phi": _phi_checks,
    "ternary": _ternary_checks,
}


def run_suite(suite: str, quick: bool = False) -> list[CheckResult]:
    """Run one named suite ("pf", "phi", "ternary") or "all"."""
    if suite == "all":
        results = []
        for name in ("pf", "phi", "ternary"):
            results.extend(SUITES[name](quick))
        return results
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick pf, phi, ternary or all")
    return SUITES[suite](quick)
