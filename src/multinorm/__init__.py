"""Multi-norm calculus on finite-dimensional weighted l^p spaces."""

from .errors import (
    BudgetError,
    DegenerateNormError,
    DimensionError,
    FieldError,
    HermitianError,
    SpecError,
)
from .spaces import (
    COMPLEX,
    INF,
    REAL,
    MatrixOp,
    SpaceSpec,
    Vector,
    VectorTuple,
    conjugate_index,
    delta,
    hahn_split,
    lattice_abs,
    lattice_inf,
    lattice_sup,
    lp_norm,
    neg_part,
    pos_part,
)
from .optim import (
    NormValue,
    OptimConfig,
    ball_linear_max,
    op_norm_pq,
    sign_supremum,
    torus_supremum,
)
from .summing import c_n, mu_weak, pi_summing
from .multinorms import (
    AxiomReport,
    MultiNormSpec,
    check_axioms,
    evaluate,
    rate_of_growth,
    sup_and_multinull,
)
from .matrixlaws import (
    SpecialDecomposition,
    check_coagulation_contraction,
    check_multinorm_matrix_law,
    column_special_decompose,
    row_special_decompose,
)
from .operators import (
    MBNormResult,
    amplify,
    mb_norm,
    mb_tuple_norm,
    multi_bound,
    partition_permutation_bound,
)
from .decompositions import (
    Decomposition,
    DetectorReport,
    FamilyOfDecompositions,
    band_family,
    close_family,
    coordinate_decomposition,
    dual_family,
    generated_multinorm,
    is_hermitian,
    is_orthogonal,
    is_orthogonal_multinorm,
    is_small,
    multi_dual,
    orthogonal_set,
    trivial_family,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
