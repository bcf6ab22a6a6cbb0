"""Frobenius-type representability over factor languages of infinite words.

Four built-in words (paperfolding, Fibonacci, a quintic morphic binary word,
and a balanced ternary word), factor scanning with sound covering
strategies, and exact machinery for deciding which weight maps make the set
of factor values miss only finitely many integers.
"""

from .words import (
    ConfigurationError,
    FiniteWord,
    Morphism,
    PHI_MORPHISM,
    WordGenerator,
    PaperfoldingWord,
    FibonacciWord,
    MorphicFixedPoint,
    TernaryBalancedWord,
    WORDS,
    PREFIX_BUDGET,
    paperfolding_letter,
    paperfolding_prefix,
    floor_phi,
    floor_alpha,
    fib_beatty,
    fibonacci_letter,
    fibonacci_prefix,
    iterate_morphism,
    incidence_matrix,
    replace_alternate_zeros,
    ternary_t_letter,
    ternary_t_prefix,
)
from .factors import (
    StabilizationError,
    FactorNotFoundError,
    ParikhVector,
    ZeroEnvelope,
    DeltaStats,
    WelldocReport,
    ExplicitPrefix,
    MorphicCover,
    StabilizedDoubling,
    Certified,
    CERTIFIED_TABLE_BUDGET,
    DESUBSTITUTION_TABLE_BUDGET,
    PARIKH_TABLE_BUDGET,
    default_source,
    parikh,
    parikh_set,
    parikh_set_table,
    abelian_complexity,
    zero_envelope,
    zero_envelope_table,
    pf_delta_stats,
    is_balanced,
    welldoc_check,
)
from .frobenius import (
    Weights,
    ComplementReport,
    WitnessResult,
    sylvester_number,
    s_value,
    representable_set,
    complement_below,
    pf_witnesses,
    VALUE_MASK_BUDGET,
)
from .morphic import (
    PhiBoundParams,
    AbBound,
    BaseCaseReport,
    phi_envelope_table,
    verify_phi_base_case,
    verify_pvects_window,
    ab_bound,
    Table1Row,
    table1,
)
from .ternary import (
    Half,
    OffsetTable,
    InfiniteWitness,
    TernaryDecision,
    Table2Row,
    offsets,
    main_term,
    f_sequence,
    mu,
    mu_printed_closed_form,
    mu_divergence,
    generating_prefix_parikh,
    g_values,
    interval_I,
    semi_image,
    semi_complement,
    decision_window_length,
    decide_cofinite,
    finite_complement,
    table2,
)
from .golden import TABLE1_GOLDEN, TABLE2_GOLDEN
from . import factors, frobenius, ternary

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every per-process cache, so the next call rebuilds: the cover
    strings, envelope tables and desubstitution constants of factors, the
    complement memo of frobenius (with the weakref callback each of its
    generators holds), and the triple memo, decisions and Fibonacci factor
    enumerations of ternary.  Each generator's own grow-only prefix buffer
    is kept."""
    factors._COVER_CACHE.clear()
    factors._ENVELOPE_CACHE.clear()
    factors._DESUBSTITUTION_CACHE.clear()
    frobenius._COMPLEMENT_MEMO.clear()
    ternary._TRIPLES.clear()
    ternary._DECISIONS.clear()
    ternary.enumerate_fib_factors.cache_clear()
