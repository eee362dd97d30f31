"""Hermitian self-orthogonal GRS and matrix-product codes over GF(q^2),
their quantum descendants, and the oracles that certify every claim."""

from .errors import QmdsError
from .gf import Field, field_for_q, field_new
from .grs import (
    ConstructionParams,
    GrsSpec,
    LinearCode,
    construct_extended,
    construct_family_A,
    construct_family_B,
    construct_family_C,
    construct_full_field,
    euclidean_dual,
    grs_generator,
    hermitian_dual,
    hermitian_gram,
    is_self_orthogonal,
    valid_parameter_sets,
)
from .linalg import Matrix
from .mpc import (
    MpcSpec,
    matrix_product,
    mp6_ladder,
    mpc_dual,
    pair_construction,
)
from .quantum import (
    QuantumParams,
    hermitian_construction,
    quantum_mds_from_self_orthogonal,
    singleton_check,
    table1,
    theorem_mp7,
)
from .verify import (
    dual_containing_check,
    min_distance_at_least,
    min_distance_exact,
)

__all__ = [
    "ConstructionParams",
    "Field",
    "GrsSpec",
    "LinearCode",
    "Matrix",
    "MpcSpec",
    "QmdsError",
    "QuantumParams",
    "construct_extended",
    "construct_family_A",
    "construct_family_B",
    "construct_family_C",
    "construct_full_field",
    "dual_containing_check",
    "euclidean_dual",
    "field_for_q",
    "field_new",
    "grs_generator",
    "hermitian_construction",
    "hermitian_dual",
    "hermitian_gram",
    "is_self_orthogonal",
    "matrix_product",
    "min_distance_at_least",
    "min_distance_exact",
    "mp6_ladder",
    "mpc_dual",
    "pair_construction",
    "quantum_mds_from_self_orthogonal",
    "singleton_check",
    "table1",
    "theorem_mp7",
    "valid_parameter_sets",
]
