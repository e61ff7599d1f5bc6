"""Pair posets of ring morphisms over finite rings and the integers.

The organizing object: each unit-preserving morphism f out of a ring R
induces the pair (kernel of f, preimage of the target's units), and the
pairs over R form a poset under componentwise inclusion.  This package
materializes that poset for finite table rings, provides the closed-form
theory over Z, builds universal pair-inverting morphisms out of finite
rings, and ships a brute-force oracle that re-checks every structural
claim by exhaustive search.
"""

from .config import Caps, DEFAULT_CAPS, caps_from_env
from .errors import (
    BaseNotField,
    CapExceeded,
    HomPosetError,
    ImproperIdeal,
    InvalidPair,
    NoFactorization,
    NotAnIdeal,
    NotAProduct,
    NotComposable,
    NotCommutative,
    NotPrime,
    RingMismatch,
    ZeroRingExcluded,
)
from .rings import (
    FiniteRing,
    Ideal,
    RingMorphism,
    check_table_axioms,
    compose,
    enumerate_ideals,
    ideal_generated_by,
    identity_morphism,
    is_completely_prime,
    is_directly_finite,
    is_field,
    is_saturated,
    jacobson_radical,
    make_finite_field,
    make_matrix_ring,
    make_product,
    make_quotient,
    make_zmod,
    proper_ideals,
    regular_elements,
    ring_from_tables,
    ring_label,
    subring,
)
from .morphisms import (
    DenominatorReport,
    ProductDecomposition,
    decompose_product_morphism,
    denominator_analysis,
    direct_limit_chain,
    enumerate_morphisms,
    epi_obstruction_invariants,
    is_ring_epimorphism,
    rebuild_product_morphism,
)
from .pairs import (
    TOP,
    HomPair,
    PairReport,
    leq,
    meet,
    pair_of_morphism,
    validate_pair,
)
from .poset import (
    HomPoset,
    LimitExchangeReport,
    MaximalityReport,
    PosetIso,
    PosetMap,
    has_greatest,
    hasse,
    hom_functor,
    hom_poset,
    is_local_morphism,
    join_ext,
    least_of_fiber,
    limit_exchange_check,
    max_elements,
    maximality_chain,
    product_decompose_poset,
    spec_correspondence,
)
from .zhom import (
    ExponentVector,
    PrimeSet,
    ZHomElement,
    exponent_vector,
    format_z_element,
    parse_z_element,
    prime_divisors,
    z_join,
    z_leq,
    z_meet,
    z_modular,
    z_zero_kernel,
)
from .localization import (
    Corestriction,
    Factorization,
    FiniteLocalization,
    canonical_factorization,
    epimorphic_corestriction,
    factor_through,
    universal_inverting_finite,
)
from .oracle import (
    Catalog,
    OracleReport,
    build_catalog,
    realized_pairs,
    verify_hom_construction,
    verify_theorems,
)

__version__ = "0.1.0"
