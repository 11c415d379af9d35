"""Steady-state noise engines: closed form, spectral transfer, efficiency curves.

All spectral quantities are dimensionless.  Detunings enter as x = Delta/Gamma
and squeezing bandwidths as b = Gamma_q/Gamma, so the dephasing rate Gamma
only ever appears through these ratios.

Closed form
-----------
With optical depth alpha, the collective-spin quadrature variance in units of
the atomic shot noise nL is

    variance = A(alpha) + X0^2 (1 - A(alpha)),     A = e^{-alpha}(I0 + I1),

evaluated through the scaled Bessel functions so arbitrarily large depths are
safe.  The mapping efficiency is eta = (1 - variance) / (1 - X0^2), undefined
for vacuum input (0/0).

Spectral route
--------------
The same variance follows from integrating the collective-spin spectral
density over the dimensionless detuning.  With the complex single-pass
attenuation exponent kappa L = alpha / (1 - i x), the density used here is

    rho(x) = [ (1 - e^{-2 alpha/(1+x^2)})  +  S0(x) |1 - e^{-alpha/(1-ix)}|^2 ]
             / (2 pi alpha),

whose first (Langevin) term integrates to A(alpha) and whose second term
carries the input light.  The 1/(2 pi alpha) measure constant is fixed once
by the vacuum-passthrough identity  integral rho dx = 1  for S0 = 1, which
holds for every alpha, and is frozen here.  Each density is one function of
the elementwise namespace it is given: ``math`` for one detuning, numpy for
the spectral engine's arrays.

Lorentzian input in closed form
-------------------------------
For S0(x) = 1 - s b^2/(b^2 + x^2) the variance is 1 - s K(alpha, b), so the
efficiency is K, whatever s:

    K = (b / 2 alpha) [1 - 2 e^{-alpha/(1+b)} + e^{-alpha} I0(alpha)
                       + 2 sum_{n>=1} rho^n e^{-alpha} I_n(alpha)],
    rho = (b - 1)/(b + 1).

The cross terms of |1 - e^{-alpha/(1-ix)}|^2 give the Lorentzian's pole at
x = +-ib; with x = tan(phi/2) the last term is the Fourier series of
e^{alpha cos phi} (A&S 9.6.34) against a Poisson kernel of ratio rho.
``eta_lorentzian`` evaluates it in two forms that cancel nowhere (see
there); the spectral engine stays the independent route to the same number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import DEFAULT_SPECTRAL_TOL
from .specfun import integrate_adaptive, scaled_bessel_i, scaled_bessel_i_sequence

LORENTZIAN_SERIES_FROM = 2.0  # alpha from which eta_lorentzian sums the Bessel series


@dataclass(frozen=True)
class SqueezingModel:
    """Second-order statistics of the input light quadrature.

    kind : "flat" or "lorentzian"
    x0_sq : flat spectral level (vacuum = 1); flat kind only
    gamma_q : squeezing bandwidth [1/s]; lorentzian kind only
    s : squeezing degree in [0, 1]; s = 1 is ideal squeezing, s = 0 vacuum

    The lorentzian spectral density is 1 - s Gq^2/(Gq^2 + Delta^2): ideally
    squeezed at line center, vacuum far outside the band.
    """

    kind: str
    x0_sq: float = 1.0
    gamma_q: float = 0.0
    s: float = 1.0

    def __post_init__(self):
        if self.kind not in ("flat", "lorentzian"):
            raise ValueError(f"unknown squeezing kind {self.kind!r}")
        # "not >=" and "not >" reject NaN too
        if not self.x0_sq >= 0:
            raise ValueError("x0_sq must be nonnegative")
        if self.kind == "lorentzian":
            if not self.gamma_q > 0:
                raise ValueError("lorentzian squeezing requires gamma_q > 0")
            if not 0.0 <= self.s <= 1.0:
                raise ValueError("squeezing degree s must lie in [0, 1]")

    @classmethod
    def flat(cls, x0_sq: float) -> "SqueezingModel":
        return cls(kind="flat", x0_sq=x0_sq)

    @classmethod
    def lorentzian(cls, gamma_q: float, s: float = 1.0) -> "SqueezingModel":
        return cls(kind="lorentzian", gamma_q=gamma_q, s=s)

    def spectral_density(self, x):
        """Input noise spectral density S0 at dimensionless detuning x (a
        float or an array).

        x is in units of the dephasing rate Gamma, so gamma_q is read in the
        same units: the bandwidth ratio b = Gamma_q / Gamma.
        """
        if self.kind == "flat":
            return self.x0_sq
        b = self.gamma_q
        return 1.0 - self.s * b * b / (b * b + x * x)

    @property
    def noise_floor(self) -> float:
        """Reference input level used in the efficiency denominator.

        Flat inputs use X0^2 itself, lorentzian inputs the line-center level
        1 - s, so eta = (1 - variance)/s reduces to 1 - variance for ideal
        squeezing.
        """
        if self.kind == "flat":
            return self.x0_sq
        return 1.0 - self.s


@dataclass(frozen=True)
class NoiseReport:
    """Collective-spin variance in nL units and its decomposition.

    atom_langevin_part collects the atom-side noise (Langevin restoration
    plus, in transient contexts, the decayed initial coherence); light_part
    is the contribution transferred from the input field.  eta is NaN when
    the input sits exactly at the vacuum level (0/0 in its definition).
    """

    variance_norm: float
    eta: float
    atom_langevin_part: float
    light_part: float

    def __post_init__(self):
        if not math.isclose(
            self.variance_norm, self.atom_langevin_part + self.light_part,
            rel_tol=1e-9, abs_tol=1e-12,
        ):
            raise ValueError("variance_norm must equal atom_langevin_part + light_part")

    @classmethod
    def from_parts(cls, atom: float, light: float, noise_floor: float) -> "NoiseReport":
        """The report of these parts: their sum and its efficiency."""
        return cls(variance_norm=atom + light, eta=eta_from_variance(atom + light, noise_floor),
                   atom_langevin_part=atom, light_part=light)


def eta_from_variance(variance_norm: float, noise_floor: float) -> float:
    if noise_floor == 1.0:
        return math.nan
    return (1.0 - variance_norm) / (1.0 - noise_floor)


def atomic_vacuum_fraction(alpha: float) -> float:
    """A(alpha) = e^{-alpha}(I0(alpha) + I1(alpha)), the unmapped noise share."""
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    i0e, i1e = scaled_bessel_i(alpha)
    return i0e + i1e


def eta_closed(alpha: float) -> float:
    """Closed-form mapping efficiency 1 - e^{-alpha}(I0 + I1)."""
    return 1.0 - atomic_vacuum_fraction(alpha)


def variance_closed(alpha: float, x0_sq: float) -> NoiseReport:
    """Steady-state variance for flat (white) input at level X0^2."""
    if not x0_sq >= 0:
        raise ValueError(f"x0_sq must be nonnegative, got {x0_sq}")
    atom = atomic_vacuum_fraction(alpha)
    return NoiseReport.from_parts(atom, x0_sq * (1.0 - atom), x0_sq)


def transmitted_spectrum(alpha: float, x: float, s0: float) -> float:
    """Noise spectrum of the transmitted light, S0 T + (1 - T), T = e^{-alpha/(1+x^2)}.

    A convex combination of the input level and vacuum: absorbed frequencies
    exit at the vacuum level, untouched ones pass through.
    """
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if not s0 >= 0:
        raise ValueError(f"s0 must be nonnegative, got {s0}")
    t = math.exp(-alpha / (1.0 + x * x))
    return s0 * t + (1.0 - t)


def _langevin_density(alpha: float, x, xp):
    # removable alpha -> 0 limit: a unit-normalized Lorentzian (1/pi)/(1+x^2);
    # x is a float with xp = math, or an array with xp = numpy
    q = 1.0 + x * x
    if alpha == 0.0:
        return 1.0 / (math.pi * q)
    return -xp.expm1(-2.0 * alpha / q) / (2.0 * math.pi * alpha)


def _light_weight(alpha: float, x, xp):
    # |1 - e^{-alpha/(1-ix)}|^2 / (2 pi alpha); -> 0 as alpha -> 0.  With
    # alpha/(1-ix) = a + ib the square is (1 - e^{-a})^2 + 4 e^{-a} sin^2(b/2):
    # positive terms, so it keeps its digits where it is small (far detuning,
    # small depth) instead of cancelling 1 - 2 e^{-a} cos b + e^{-2a}
    if alpha == 0.0:
        return 0.0 * x
    q = 1.0 + x * x
    a = alpha / q
    half_b = xp.sin(0.5 * a * x)
    mod_sq = xp.expm1(-a) ** 2 + 4.0 * xp.exp(-a) * half_b * half_b
    return mod_sq / (2.0 * math.pi * alpha)


def atomic_spectral_density(alpha: float, x: float, s0: float) -> float:
    """Spectral density of the collective-spin quadrature at detuning x = Delta/Gamma.

    Normalized so that its integral over x equals the variance in nL units.
    """
    if not s0 >= 0:
        raise ValueError(f"s0 must be nonnegative, got {s0}")
    return float(_langevin_density(alpha, x, math) + s0 * _light_weight(alpha, x, math))


def variance_spectral(
    alpha: float,
    model: SqueezingModel,
    tol: float = DEFAULT_SPECTRAL_TOL,
) -> NoiseReport:
    """Frequency-integrated variance; agrees with the closed form for flat input.

    Both density pieces are even in x, so the integration runs over [0, inf)
    and is doubled; the integrands are evaluated on arrays of detunings.
    """
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if alpha == 0.0:
        # no light absorbed; pure atomic vacuum for any input statistics
        return NoiseReport.from_parts(1.0, 0.0, model.noise_floor)
    import numpy as np

    atom = 2.0 * integrate_adaptive(lambda x: _langevin_density(alpha, x, np), tol=tol / 2).value
    light = 2.0 * integrate_adaptive(
        lambda x: model.spectral_density(x) * _light_weight(alpha, x, np), tol=tol / 2
    ).value
    return NoiseReport.from_parts(atom, light, model.noise_floor)


def eta_lorentzian(alpha: float, b: float) -> float:
    """Steady-state efficiency K(alpha, b) for lorentzian input of bandwidth
    ratio b = Gamma_q / Gamma; the variance is 1 - s K for squeezing degree s.

    Both forms below avoid the bracket's cancellation; they are within 1e-15
    relative of 40-digit mpmath for alpha in [1e-3, 1e6] and b in [0.3, 1e4]
    (4.6e-16 at most on 91 depths and 8 bandwidths).

    Below LORENTZIAN_SERIES_FROM the bracket cancels down to O(alpha^2), so K
    comes from the power series of f(u) = 1 - e^{-alpha (1+u)/2} instead,
    u = e^{i phi}: the Poisson kernel of ratio -rho is the covariance
    (-rho)^{|j-k|} of a first-order autoregression, and its innovations turn
    the quadratic form in f's coefficients into a sum of squares,

        K = (b alpha / 2) [(expm1(-alpha/(1+b)) / alpha)^2
                           + b/(1+b)^2 e^{-alpha} sum_{t>=1} Q_t^2],
        Q_t = (alpha/2)^{t-1} / t! + rho Q_{t+1},

    every term positive for b >= 1, and alternating with a ratio below
    alpha/4 for b < 1.

    From LORENTZIAN_SERIES_FROM on, the unit sum e^{-alpha} (I0 + 2 sum I_n)
    = 1 turns the bracket into

        2 [-expm1(-alpha/(1+b)) - sum_{n>=1} (1 - rho^n) e^{-alpha} I_n],

    over ``scaled_bessel_i_sequence``; the weights 1 - rho^n come from
    expm1(n log|rho|), exact to an ulp where 1 - rho^n would cancel (b >> 1)
    and exactly 1 once |rho|^n < e^{-40}, and the sum is exactly rounded.
    """
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if not b > 0:
        raise ValueError(f"bandwidth ratio b must be positive, got {b}")
    if alpha == 0.0:
        return 0.0
    rho = (b - 1.0) / (b + 1.0)
    cross = math.expm1(-alpha / (1.0 + b))
    if alpha < LORENTZIAN_SERIES_FROM:
        coefficients = [1.0]
        while coefficients[-1] >= 1e-17:
            coefficients.append(coefficients[-1] * (0.5 * alpha) / (len(coefficients) + 1))
        q = squares = 0.0
        for c in reversed(coefficients):
            q = c + rho * q
            squares += q * q
        cross /= alpha
        return b * alpha / 2.0 * (cross * cross
                                  + b / (1.0 + b) / (1.0 + b) * math.exp(-alpha) * squares)
    scaled = scaled_bessel_i_sequence(alpha)
    if rho == 0.0:
        weighted = scaled[1:]
    else:
        log_rho = math.log1p(-2.0 * min(b, 1.0) / (b + 1.0))  # log|rho|
        ones = min(len(scaled), int(-40.0 / log_rho) + 2)  # weights that round to 1 from here
        weighted = [(-math.expm1(n * log_rho) if rho > 0.0 or n % 2 == 0
                     else 1.0 + math.exp(n * log_rho)) * scaled[n] for n in range(1, ones)]
        weighted += scaled[ones:]
    return b / alpha * (-cross - math.fsum(weighted))


def efficiency_curve(alpha_grid, model: SqueezingModel) -> list[tuple[float, float]]:
    """Tabulate (alpha, eta) over a sorted nonnegative grid.

    Both kinds use a closed form: ``eta_closed`` for flat input and
    ``eta_lorentzian`` for lorentzian input.  eta is NaN where the input is
    vacuum (flat X0^2 = 1, lorentzian s = 0).  Evaluation is independent per
    grid point, so the output never depends on evaluation order.
    """
    grid = [float(a) for a in alpha_grid]
    if not all(a >= 0 for a in grid):
        raise ValueError("alpha grid must be nonnegative")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("alpha grid must be sorted ascending")
    if model.noise_floor == 1.0:
        return [(a, math.nan) for a in grid]
    if model.kind == "flat":
        return [(a, eta_closed(a)) for a in grid]
    return [(a, eta_lorentzian(a, model.gamma_q)) for a in grid]
