"""Exact computer algebra for symmetric presentation tableaux of
codimension-2 Gorenstein algebras over k[x0..x4]."""

from .errors import (
    BudgetExceededError,
    ContractError,
    DegreeOverflowError,
    ParseError,
    RingMismatchError,
    SymcanonError,
)
from .fields import DEFAULT_PRIME, DetRng, FieldSpec, GF, QQ, parse_field
from .ideals import (
    GBConfig,
    Ideal,
    codimension,
    dimension,
    groebner_basis,
    ideal_equal,
    ideal_intersection,
    ideal_quotient,
    is_radical_zerodim,
    multiplicity,
    normal_form_poly,
    point_count,
    saturate,
)
from .koszul import RegularSequence, SkewWitness, ambiguity_dim, is_regular_sequence, koszul_differential, solve_skew
from .orders import GREVLEX, LEX, MonomialOrder, elimination
from .poly import Polynomial, PolyRing, graded_basis, parse_poly, poly_to_string
from .tableau import (
    Minors,
    OpMove,
    ScalarTableau,
    SymmetricTableau,
    apply_op,
    apply_op_word,
    apply_symplectic,
    check_symmetry,
    degeneracy_scheme,
    erase_first_row,
    fitting_ideal,
    rows_move,
)
from .canonical import (
    GradedResolution,
    SurfaceInvariants,
    VerificationReport,
    acyclicity_check,
    build_resolution,
    conductor_ideal,
    generic_reflexivity_check,
    graded_dim,
    invariants,
    multiplication_table,
    ring_condition_check,
    verify_instance,
)
from .normalform import (
    NormalFormK11,
    OrbitClass,
    factor_symplectic,
    reduce_k11,
    scalar_orbit_reduce,
    verify_normal_shape,
)
from .paramgen import DimensionLedger, ParameterPoint, ledger, quadric_jacobian_check, realize, sample
from .basechange import (
    BaseChangeCert,
    MinorIndex,
    SquareSymmetricPair,
    is_nzd_mod,
    make_koszul_type,
    plucker_residual,
)

__version__ = "0.1.0"
