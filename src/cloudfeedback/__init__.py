"""Cloud-size dynamics of a trapped ideal Bose gas under center-of-mass feedback.

The public names load lazily (PEP 562): `import cloudfeedback` imports no
module of the package and no numpy, and the first access to a name imports
the one module that defines it.  Every module of the package resolves as an
attribute the same way.
"""

import importlib

# module -> the public names it defines
_PUBLIC = {
    "criteria": ["CriterionReport", "QuadratureHarmonics", "asymptotic_cloud_size",
                 "evaluate_criteria", "quadrature_harmonics", "schwarz_identity_check",
                 "sigma_q_sq"],
    "driver": ["RunConfig", "cli_main", "scan_eta"],
    "errors": ["ConfigError", "NonConvergence", "ToolkitError", "TruncationLeak"],
    "fock": ["FockState", "OneBodyOperator", "OrbitalBasis", "basis_state",
             "condensate_state", "displaced_orbital", "squeezed_orbital", "thermal_ensemble"],
    "loop": ["LoopConfig", "LoopTrajectory", "run_ensemble", "stationary_discrete"],
    "moments": ["MomentGrid", "build_generators", "cloud_size", "evolve_grid",
                "init_moments"],
    "oracle": ["DensityMatrix", "OracleTrajectory", "compare_with_moments", "integrate"],
    "scales": ["DerivedScales", "FeedbackConfig", "RegimeClass", "RegimeKind", "TrapConfig",
               "classify_regime", "continuous_limit_params", "derive_scales"],
    "search": ["SearchSpec", "search_state"],
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _PUBLIC:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_PUBLIC})
