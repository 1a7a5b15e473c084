"""Exact-arithmetic desk models for cyclotomic period rings and the
decalage construction, with the q-de Rham complex of the torus and its
specializations, truncated Witt vectors of perfect polynomial models, and
property-based verification suites over exact integer linear algebra."""

from .arith import (
    LaurentElement,
    laurent_exact_div,
    p_valuation,
    q_analog,
    validate_exponent,
)
from .ainf import AinfModel, OCModel, OCModelElement, check_notation_identities
from .complexes import (
    ChainComplex,
    DiagonalComplex,
    HomologyPresentation,
    NOT_STRUCTURED,
    homology_diagonal,
    homology_snf,
    koszul,
    koszul_to_diagonal,
    tensor_product,
)
from .decalage import (
    BocksteinComplex,
    LetaInstance,
    ZERO_COMPLEX,
    bockstein,
    check_composition,
    check_homology_formula,
    check_leta_mod_f_is_bockstein,
    eta_subcomplex,
    leta_koszul,
)
from .torus import (
    GradingBox,
    TorusCohomologyResult,
    ainf_omega_torus,
    etale_rank_torus,
    semicontinuity_demo,
    specialize_de_rham,
    specialize_hodge_tate,
    tilde_omega_torus,
)
from .qderham import QLaurentFunction, compare_with_torus_pipeline, nabla_q, q_de_rham_complex, q_to_one
from .suites import SessionConfig, VerificationReport, run_suite
from .witt import (
    SemilinearModule,
    TruncatedWittElement,
    digits_to_witt,
    frobenius_fixed_points,
    teichmuller_digits,
    teichmuller_lift,
)

__version__ = "0.1.0"
