"""Cloud-size dynamics of a trapped ideal Bose gas under center-of-mass feedback."""

from .criteria import (
    CriterionReport,
    QuadratureHarmonics,
    asymptotic_cloud_size,
    evaluate_criteria,
    quadrature_harmonics,
    schwarz_identity_check,
    sigma_q_sq,
)
from .driver import RunConfig, cli_main, scan_eta
from .errors import ConfigError, NonConvergence, ToolkitError, TruncationLeak
from .fock import (
    FockState,
    OneBodyOperator,
    OrbitalBasis,
    basis_state,
    condensate_state,
    displaced_orbital,
    squeezed_orbital,
    thermal_ensemble,
)
from .loop import LoopConfig, LoopTrajectory, run_ensemble, stationary_discrete
from .moments import (
    MomentGrid,
    build_generators,
    cloud_size,
    evolve_grid,
    init_moments,
)
from .oracle import DensityMatrix, OracleTrajectory, compare_with_moments, integrate
from .scales import (
    DerivedScales,
    FeedbackConfig,
    RegimeClass,
    RegimeKind,
    TrapConfig,
    classify_regime,
    continuous_limit_params,
    derive_scales,
)
from .search import SearchSpec, search_state

__all__ = [
    "ConfigError",
    "CriterionReport",
    "DensityMatrix",
    "DerivedScales",
    "FeedbackConfig",
    "FockState",
    "LoopConfig",
    "LoopTrajectory",
    "MomentGrid",
    "NonConvergence",
    "OneBodyOperator",
    "OracleTrajectory",
    "OrbitalBasis",
    "QuadratureHarmonics",
    "RegimeClass",
    "RegimeKind",
    "RunConfig",
    "SearchSpec",
    "ToolkitError",
    "TrapConfig",
    "TruncationLeak",
    "asymptotic_cloud_size",
    "basis_state",
    "classify_regime",
    "cli_main",
    "cloud_size",
    "compare_with_moments",
    "condensate_state",
    "continuous_limit_params",
    "build_generators",
    "derive_scales",
    "displaced_orbital",
    "evaluate_criteria",
    "evolve_grid",
    "init_moments",
    "integrate",
    "quadrature_harmonics",
    "run_ensemble",
    "scan_eta",
    "schwarz_identity_check",
    "search_state",
    "sigma_q_sq",
    "squeezed_orbital",
    "stationary_discrete",
    "thermal_ensemble",
]

__version__ = "0.1.0"
