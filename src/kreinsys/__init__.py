"""Numerical toolkit for discrete multiparametric J-conservative scattering systems."""

__version__ = "0.1.0"

from .krein import (  # noqa: F401
    CanonicalSymmetry,
    DegenerateSubspaceError,
    SignatureMismatchError,
    signature,
    j_unitarity_defect,
    regularize_subspace,
    extend_j_isometry,
)
from .systems import (  # noqa: F401
    MultiparametricSystem,
    SystemOperatorTuple,
    system_operators,
    system_from_operators,
    conjugate_system,
    input_output_symmetries,
    jconservativity_defect,
    torus_check,
    random_jconservative,
    pad_io,
)
from .lattice import (  # noqa: F401
    LatticeSignal,
    Trajectory,
    EnergyReport,
    simulate,
    evolve_level,
    energy_balance_report,
    impulse_patterns,
    coefficient_defect_probe,
)
from .transfer import (  # noqa: F401
    TruncatedOperatorSeries,
    ResolventError,
    eval_transfer,
    taylor_coefficients,
    eval_series,
    z_transform_check,
)
from .agler import (  # noqa: F401
    AglerDecomposition,
    DecompositionComponent,
    epsilon_bounds,
    construct_pencil_decomposition,
    verify_kernel_identity,
    kernel_residual,
    derived_zero_identities,
    transform_identities,
    prop2_functions,
    minimal_factor,
)
from .dilation import (  # noqa: F401
    DilationResult,
    build_dilation,
    verify_dilation,
    verify_linear_tf,
)
from .realize import (  # noqa: F401
    RealizationResult,
    shift_register_realization,
    jconservative_realization,
)
