"""Rational p-Weil numbers in cyclotomic fields.

The group E_p(k) of elements of k* whose normalized absolute value is 1 at
every place not dividing p is finitely generated.  This package constructs
it explicitly for k = Q(zeta_n), computes its valuation and argument
regulators with certified enclosures, and produces machine-checkable
certificates for independence statements about the argument vectors.
"""

from .arith import (
    BallReal,
    ConfigError,
    PrecisionTooLow,
    BranchCutHit,
    NotAUnit,
    ball_det,
    padic_log,
    rational_reconstruct,
)
from .cyclo import CycloField, CycloElt, norm, embed, is_root_of_unity
from .splitting import PrimeAbove, SplitData, split_prime, ord_at, conj_prime
from .lattice import (
    RelationCertificate,
    lll,
    short_vectors,
    find_simultaneous_relation,
)
from .weilgroup import (
    DivisorVec,
    WeilBasis,
    is_weil_unit,
    find_generator,
    build_weil_basis,
    alpha_p_map,
    pi_m_map,
    verify_weil_basis,
    jacobi_weil_number,
)
from .regulators import (
    ArgVector,
    arg_vector,
    argument_independence_certificate,
    group_determinant,
    gross_matrix,
    closure_dimension,
    weil_angle_identity,
)

__version__ = "0.7.0"
