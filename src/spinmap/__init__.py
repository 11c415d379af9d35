"""spinmap: mapping quantum states of light onto a collective atomic spin.

Closed-form, spectral and time-domain engines for the noise variance stored
in an atomic ensemble by stimulated Raman absorption, an independent
discretized propagation oracle, feasibility checks for the experimental
parameter chain, and the weak-coupling beam-splitter read-out analysis.

Names load on first use: ``import spinmap`` imports no submodule (and so
not numpy); ``spinmap.X`` or ``from spinmap import X`` imports the one
submodule that defines ``X``.
"""

import importlib as _importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys([
        "ConvergenceStudy", "GridConfigError", "GridGrowthError", "GridSpec", "KernelTable",
        "PulseArea", "light_kernel_convergence", "light_kernel_reference", "simulate_grid",
        "transient_variance",
    ], "dynamics"),
    **dict.fromkeys([
        "NoiseReport", "SqueezingModel", "atomic_spectral_density", "efficiency_curve",
        "eta_closed", "eta_from_variance", "transmitted_spectrum", "variance_closed",
        "variance_spectral",
    ], "mapping"),
    **dict.fromkeys([
        "AtomicPhysics", "DriveParams", "FeasibilityCondition", "FeasibilityReport",
        "MediumParams", "check_feasibility", "coupling_kappa1", "coupling_kappa2",
        "optical_depth", "power_broadening", "raman_cross_section", "resonant_depth_estimate",
        "saturation_intensity", "total_dephasing", "two_level_cross_section",
    ], "model"),
    **dict.fromkeys([
        "QuadratureConvergenceError", "QuadratureResult", "integrate_adaptive",
    ], "specfun"),
    **dict.fromkeys([
        "BsReport", "ReadoutBudget", "TwoModeGaussian", "apply_linear_bs", "bs_matrix",
        "commutator_defect", "coupling_r", "readout_noise_budget",
    ], "teleport"),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(_importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups are plain attribute reads
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
