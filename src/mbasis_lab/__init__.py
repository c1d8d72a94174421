"""Finite-truncation laboratory for biorthogonal systems in l2."""

__version__ = "0.1.0"

from .subspace import (  # noqa: F401
    ToleranceConfig,
    distance_to_span,
    dual_solve,
    project,
    span_equal,
)
from .biorth import (  # noqa: F401
    BiorthSystem,
    IntervalFamily,
    biorthogonality_defect,
    boundedness_constant,
    classify_perturbation,
    norming_constant_estimate,
    spanning_indices,
    uniform_minimality_constant,
)
from .perturbations import (  # noqa: F401
    BlockPartition,
    construct_flattened,
    flattened_from_duals,
    verify_flattened,
)
from .representing import (  # noqa: F401
    RepresentingIndices,
    StrongPartitionTrace,
    build_norming_indices,
    build_representing_indices,
    reconstruct,
    strong_partition,
    strongness_diagnostic,
)
from .pathology import (  # noqa: F401
    PermutationSpec,
    build_pathological_system,
    build_permutation,
    build_phi,
    identity_permutation,
    omega_stats,
    operator_T,
    rough_capacity,
    t_asymptotics_check,
    unb_experiment,
)
