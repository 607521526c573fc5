"""Exact symbolic kernel for single-vertex 2-graph algebras.

The package computes in the dense *-algebra spanned by the standard
generators s_u s_v* over the semigroup with two generator families and
permutation commutation relations. It provides exact word combinatorics,
the algebra product, the distinguished gauge-invariant state with its
modular objects (all with explicit closed-form actions), the equilibrium
identity checker, the twisted-pair endomorphism calculus, and a
brute-force graded-action oracle used to cross-check the symbolic path.
"""

from .algebra import (
    Element,
    GenTerm,
    canonicalize,
    degree_component,
    gauge,
    gauge_float,
    in_subalgebra,
    is_unitary,
    mul,
    permutation_unitary,
    raise_level,
)
from .endo import (
    Endomorphism,
    UnitaryPair,
    ad_product_check,
    automorphism_witness_check,
    canonical_endomorphism,
    canonical_endomorphism_apply,
    canonical_pair,
    compose,
    endo_from_pair,
    gallery,
    inner_pair,
    pair_from_generator_map,
    pair_product,
    preserves_subalgebra,
    twisted_check,
)
from .exprs import parse_expression, parse_scalar
from .kernel import BACKEND as KERNEL_BACKEND
from .modular import (
    flow_fixed_degree,
    gram_matrix,
    inner,
    kms_check,
    modular_conjugation,
    modular_flow,
    modular_power,
    modular_spectrum_window,
    omega,
    tomita_f,
    tomita_s,
)
from .oracle import GradedActionModel
from .scalar import ExactScalar, power_of_base
from .semigroup import (
    EMPTY_WORD,
    Degree,
    Permutation2D,
    Word,
    common_extensions,
    concat,
    enumerate_words,
    factor_at,
    make_theta,
    normal_form,
    parse_theta_text,
    theta_text,
    word,
    words_up_to,
)

__version__ = "0.1.0"

__all__ = [
    "Degree",
    "Element",
    "EMPTY_WORD",
    "Endomorphism",
    "ExactScalar",
    "GenTerm",
    "GradedActionModel",
    "KERNEL_BACKEND",
    "Permutation2D",
    "UnitaryPair",
    "Word",
    "ad_product_check",
    "automorphism_witness_check",
    "canonical_endomorphism",
    "canonical_endomorphism_apply",
    "canonical_pair",
    "canonicalize",
    "common_extensions",
    "compose",
    "concat",
    "degree_component",
    "endo_from_pair",
    "enumerate_words",
    "factor_at",
    "flow_fixed_degree",
    "gallery",
    "gauge",
    "gauge_float",
    "gram_matrix",
    "in_subalgebra",
    "inner",
    "inner_pair",
    "is_unitary",
    "kms_check",
    "make_theta",
    "modular_conjugation",
    "modular_flow",
    "modular_power",
    "modular_spectrum_window",
    "mul",
    "normal_form",
    "omega",
    "pair_from_generator_map",
    "pair_product",
    "parse_expression",
    "parse_scalar",
    "parse_theta_text",
    "permutation_unitary",
    "power_of_base",
    "preserves_subalgebra",
    "raise_level",
    "theta_text",
    "tomita_f",
    "tomita_s",
    "twisted_check",
    "word",
    "words_up_to",
]
