"""spinmap: mapping quantum states of light onto a collective atomic spin.

Closed-form, spectral and time-domain engines for the noise variance stored
in an atomic ensemble by stimulated Raman absorption, an independent
discretized propagation oracle, feasibility checks for the experimental
parameter chain, and the weak-coupling beam-splitter read-out analysis.
"""

from .dynamics import (
    ConvergenceStudy,
    GridConfigError,
    GridGrowthError,
    GridSpec,
    KernelTable,
    PulseArea,
    light_kernel_convergence,
    light_kernel_reference,
    simulate_grid,
    transient_variance,
)
from .mapping import (
    NoiseReport,
    SqueezingModel,
    atomic_spectral_density,
    efficiency_curve,
    eta_closed,
    eta_from_variance,
    transmitted_spectrum,
    variance_closed,
    variance_spectral,
)
from .model import (
    AtomicPhysics,
    DriveParams,
    FeasibilityCondition,
    FeasibilityReport,
    MediumParams,
    check_feasibility,
    coupling_kappa1,
    coupling_kappa2,
    optical_depth,
    power_broadening,
    raman_cross_section,
    resonant_depth_estimate,
    saturation_intensity,
    total_dephasing,
    two_level_cross_section,
)
from .specfun import (
    QuadratureConvergenceError,
    QuadratureResult,
    integrate_adaptive,
)
from .teleport import (
    BsReport,
    ReadoutBudget,
    TwoModeGaussian,
    apply_linear_bs,
    bs_matrix,
    commutator_defect,
    coupling_r,
    readout_noise_budget,
)

__version__ = "0.1.0"
