"""Free rotation groups of prime quaternion norm and their averaging rates.

The package constructs the classical rank-(p+1)/2 free rotation groups
from integer quaternions of norm p (p prime, p = 1 mod 4), evaluates the
exact operator norms of word-sphere and word-ball averages on the
mean-zero function spaces of the 2-sphere and the 2-torus, and verifies
the tempered eigenvalue bounds behind those norms with exact rational
linear algebra on finite invariant subspaces.
"""

__version__ = "0.1.0"

from .formulas import (
    ConsistencyError,
    HeckePolynomial,
    c_factor,
    harish_chandra,
    harish_chandra_boundary_sum,
    hecke_polynomial,
    hecke_sup,
    lps_discrepancy,
    regular_norm,
)
from .quaternions import (
    ExactRotation,
    GeneratorSet,
    LipschitzQuaternion,
    adjoint_rotation,
    build_generator_set,
    enumerate_representatives,
    jacobi_count,
)
from .sphere import (
    KoopmanBlock,
    RamanujanReport,
    block_spectrum,
    koopman_block,
    sphere_discrepancy_estimate,
    sphere_discrepancy_profile,
    verify_ramanujan,
)
from .torus import (
    ConvergenceTable,
    LatticeWindow,
    TorusGenerator,
    TorusGeneratorSet,
    WindowOperator,
    build_torus_genset,
    character_action,
    operator_norm_estimate,
    torus_discrepancy_check,
    window_operator,
)
from .words import (
    EnumerationBudgetError,
    FreenessReport,
    Word,
    verify_freeness,
    word_counts,
)

__all__ = [
    "ConsistencyError",
    "ConvergenceTable",
    "EnumerationBudgetError",
    "ExactRotation",
    "FreenessReport",
    "GeneratorSet",
    "HeckePolynomial",
    "KoopmanBlock",
    "LatticeWindow",
    "LipschitzQuaternion",
    "RamanujanReport",
    "TorusGenerator",
    "TorusGeneratorSet",
    "Word",
    "WindowOperator",
    "adjoint_rotation",
    "block_spectrum",
    "build_generator_set",
    "build_torus_genset",
    "c_factor",
    "character_action",
    "enumerate_representatives",
    "harish_chandra",
    "harish_chandra_boundary_sum",
    "hecke_polynomial",
    "hecke_sup",
    "jacobi_count",
    "koopman_block",
    "lps_discrepancy",
    "operator_norm_estimate",
    "regular_norm",
    "sphere_discrepancy_estimate",
    "sphere_discrepancy_profile",
    "torus_discrepancy_check",
    "verify_freeness",
    "verify_ramanujan",
    "window_operator",
    "word_counts",
]
