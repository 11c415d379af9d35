"""Run configuration: flat ``key = value`` text with dotted block keys.

Grammar: one ``key = value`` per line, ``#`` starts a comment, blank lines
ignored.  Grids accept either an explicit comma list (``0,1,20,60``) or a
generator form ``logspace:lo:hi:n`` / ``linspace:lo:hi:n``.  Drive profiles
are comma-separated ``duration:relative_power`` segments.

Every key is declared once, in ``KEYS``; a key's block is the part before
its dot.  Loading types every present value and checks that it is finite
and within its bound, so a bad value fails with a ``ConfigError`` naming its
key whichever command runs.  An SI key's bound is the one the record it
fills (``MediumParams``, ``DriveParams``, ``AtomicPhysics``) enforces, so a
record built from a loaded config accepts every value.

Engines run from the dimensionless block; the SI blocks feed the feasibility
checks and may be used to derive dimensionless values.  When a quantity is
given both ways the two must agree to one part in 1e9 or the run aborts.

Grids are lists of Python floats, so loading a config never imports numpy:
``linspace`` repeats numpy's ``linspace`` operation for operation, and
``logspace`` computes what numpy's ``geomspace`` does, 10 ** linspace(log10
lo, log10 hi) with exact ends, on libm's log10 and pow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from .model import (DEFAULT_SPECTRAL_TOL, AtomicPhysics, DriveParams, MediumParams,
                    optical_depth, total_dephasing)
from .teleport import DEFAULT_R_THRESHOLD

if TYPE_CHECKING:
    from .mapping import SqueezingModel

SI_AGREEMENT_RTOL = 1e-9
REQUIRED = None  # no default: the value must be given where it is used


class Key(NamedTuple):
    kind: str                # float, int, grid, profile or choice
    default: object = REQUIRED  # config text, or the typed value when no text means it
    bound: str = ""          # a _BOUNDS entry; an SI key's is the one its record enforces
    field: str = ""          # record field filled by an SI key


KEYS = {
    "dimensionless.alpha": Key("float", bound=">= 0"),
    "dimensionless.alpha_grid": Key("grid", "logspace:0.01:1000:200",
                                    "non-empty, >= 0, ascending"),
    "dimensionless.b": Key("float", bound="> 0"),
    "dimensionless.b_list": Key("grid", "50,10", "> 0"),
    "dimensionless.s": Key("float", "1", "in [0, 1]"),
    "dimensionless.x0_sq": Key("float", "0", ">= 0"),
    "dimensionless.input": Key("choice", "flat", "flat or lorentzian"),
    "dimensionless.x_grid": Key("grid", "linspace:-30:30:241", "non-empty"),
    "transient.tau_max_gamma": Key("float", "10", "> 0"),
    "transient.points": Key("int", "200", ">= 1"),
    "grid.nz": Key("int", "200", ">= 2"),
    "grid.ntau": Key("int", "200", ">= 2"),
    "grid.tau_max_gamma": Key("float", "1", "> 0"),
    "tolerance.quad_abs": Key("float", str(DEFAULT_SPECTRAL_TOL), "> 0"),
    "medium.density_per_m3": Key("float", bound="> 0", field="density"),
    "medium.length_m": Key("float", bound="> 0", field="length"),
    "medium.area_m2": Key("float", bound="> 0", field="area"),
    "medium.gamma0_per_s": Key("float", bound="> 0", field="gamma0"),
    "medium.wavelength_m": Key("float", bound="> 0", field="wavelength"),
    "drive.g_per_m_per_s": Key("float", bound=">= 0", field="g"),
    "drive.gamma_s_per_s": Key("float", bound=">= 0", field="gamma_s"),
    "drive.tau_pulse_s": Key("float", bound="> 0", field="tau_pulse"),
    # () is constant unit power
    "drive.profile": Key("profile", (), "durations > 0, powers >= 0", field="profile"),
    "physics.omega_rad_per_s": Key("float", bound="> 0", field="omega"),
    "physics.delta_1photon_rad_per_s": Key("float", bound="> 0", field="delta_1photon"),
    "physics.gamma_i_per_s": Key("float", bound="> 0", field="gamma_i"),
    "physics.dipole_sum_si": Key("float", bound="> 0", field="dipole_sum"),
    "physics.saturation": Key("float", bound="> 0", field="saturation"),
    "physics.gamma_q_per_s": Key("float", bound="> 0", field="gamma_q"),
    "physics.k_mismatch_per_m": Key("float", "0", field="k_mismatch"),
    "feasibility.ratio": Key("float", "10", "> 0"),
    "feasibility.fresnel_min": Key("float", "0.3"),
    "feasibility.fresnel_max": Key("float", "3"),
    "teleport.alpha_pulse": Key("float", bound=">= 0"),
    "teleport.epr_residual": Key("float", "0", ">= 0"),
    "teleport.r_threshold": Key("float", str(DEFAULT_R_THRESHOLD)),
}


def _numbers(value) -> list:
    """The numbers in a typed float, grid or profile value."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, tuple):  # a profile's (duration, power) segments
        return [x for segment in value for x in segment]
    return value


_BOUNDS = {
    "> 0": lambda v: all(x > 0 for x in _numbers(v)),
    ">= 0": lambda v: all(x >= 0 for x in _numbers(v)),
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "non-empty": lambda v: len(v) > 0,
    "non-empty, >= 0, ascending": lambda v: (len(v) > 0 and v[0] >= 0
                                             and all(a <= b for a, b in zip(v, v[1:]))),
    "flat or lorentzian": lambda v: v in ("flat", "lorentzian"),
    "durations > 0, powers >= 0": lambda v: all(d > 0 and p >= 0 for d, p in v),
}

_RECORDS = {"medium": MediumParams, "drive": DriveParams, "physics": AtomicPhysics}


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field = field_name


def _spec(key: str) -> Key:
    if key not in KEYS:
        raise ConfigError(key, "unknown key")
    return KEYS[key]


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        _spec(key)
        if key in values:
            raise ConfigError(key, "duplicate key")
        values[key] = value
    return values


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(key, f"not a number: {text!r}") from None


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(key, f"not an integer: {text!r}") from None


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """numpy's linspace(lo, hi, n), operation for operation: i * step + lo,
    or (i / (n - 1)) * (hi - lo) + lo where the step rounds to 0, and hi last."""
    delta = hi - lo
    if n == 1:
        return [0.0 * delta + lo]
    step = delta / (n - 1)
    if step == 0.0:
        grid = [i / (n - 1) * delta + lo for i in range(n)]
    else:
        grid = [i * step + lo for i in range(n)]
    grid[-1] = hi
    return grid


def _parse_grid(text: str, key: str) -> list[float]:
    parts = text.split(":")
    if parts[0] not in ("logspace", "linspace"):
        return [_parse_float(p, key) for p in text.split(",") if p.strip() != ""]
    if len(parts) != 4:
        raise ConfigError(key, f"expected {parts[0]}:lo:hi:n")
    lo, hi = _parse_float(parts[1], key), _parse_float(parts[2], key)
    n = _parse_int(parts[3], key)
    if n < 1:
        raise ConfigError(key, "grid size must be at least 1")
    if parts[0] == "logspace" and (lo == 0.0 or hi == 0.0):
        raise ConfigError(key, "Geometric sequence cannot include zero")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(key, f"must be finite, got {text!r}")
    if parts[0] == "linspace":
        return _linspace(lo, hi, n)
    if (lo < 0.0) != (hi < 0.0):
        raise ConfigError(key, "Geometric sequence cannot change sign")
    # numpy's geomspace: the grid of |lo|..|hi|, its ends exact, times the sign
    sign = math.copysign(1.0, lo)
    lo, hi = lo * sign, hi * sign
    try:
        inner = [10.0 ** e for e in _linspace(math.log10(lo), math.log10(hi), n)[1:-1]]
    except OverflowError:  # an inner point rounded past the largest float
        raise ConfigError(key, f"must be finite, got {text!r}") from None
    grid = [lo, *inner, hi][:n]
    return [sign * g for g in grid]


def _parse_profile(text: str, key: str) -> tuple[tuple[float, float], ...]:
    segments = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 2:
            raise ConfigError(key, f"expected duration:power, got {part!r}")
        segments.append((_parse_float(bits[0], key), _parse_float(bits[1], key)))
    if not segments:
        raise ConfigError(key, "empty profile")
    return tuple(segments)


_PARSERS = {
    "float": _parse_float,
    "int": _parse_int,
    "grid": _parse_grid,
    "profile": _parse_profile,
    "choice": lambda text, key: text,
}


def _typed(key: str, text: str):
    """The value ``text`` gives ``key``, if it is finite and within the key's bound."""
    spec = _spec(key)
    value = _PARSERS[spec.kind](text, key)
    if spec.kind in ("float", "grid", "profile") and not all(map(math.isfinite, _numbers(value))):
        raise ConfigError(key, f"must be finite, got {text!r}")
    if spec.bound and not _BOUNDS[spec.bound](value):
        raise ConfigError(key, f"must be {spec.bound}, got {text!r}")
    return value


@dataclass
class RunConfig:
    values: dict[str, str] = field(default_factory=dict)
    typed: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.typed = {key: _typed(key, text) for key, text in self.values.items()}

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(parse_config_text(fh.read()))

    def __getitem__(self, key: str):
        """Typed value of ``key``: the configured one, else the table default."""
        if key in self.typed:
            return self.typed[key]
        default = KEYS[key].default
        if default is REQUIRED:
            raise ConfigError(key, "required but missing")
        return _typed(key, default) if isinstance(default, str) else default

    def record(self, block: str,
               required: bool = False) -> MediumParams | DriveParams | AtomicPhysics | None:
        """The SI record of ``block`` (medium, drive or physics), or None when
        none of its required keys is given.  A block is all or nothing."""
        keys = [key for key in KEYS if key.startswith(block + ".")]
        needed = [key for key in keys if KEYS[key].default is REQUIRED]
        missing = [key for key in needed if key not in self.typed]
        if len(missing) == len(needed):
            if required:
                raise ConfigError(needed[0], "required but missing")
            return None
        if missing:
            raise ConfigError(missing[0], "SI block is incomplete")
        return _RECORDS[block](**{KEYS[key].field: self[key] for key in keys})

    # -- derived dimensionless quantities ------------------------------------
    def _declared_or_derived(self, key: str, derived: float | None) -> float | None:
        declared = self.typed.get(key)
        if declared is not None and derived is not None:
            if not math.isclose(declared, derived, rel_tol=SI_AGREEMENT_RTOL, abs_tol=0.0):
                raise ConfigError(
                    key, f"declared {declared!r} disagrees with SI-derived {derived!r}"
                )
        return declared if declared is not None else derived

    def alpha(self) -> float:
        """Optical depth: dimensionless block, cross-checked against SI."""
        medium, drive = self.record("medium"), self.record("drive")
        derived = None if medium is None or drive is None else optical_depth(medium, drive)
        alpha = self._declared_or_derived("dimensionless.alpha", derived)
        if alpha is None:
            raise ConfigError("dimensionless.alpha", "required but missing (no SI block either)")
        return alpha

    def squeezing_model(self) -> SqueezingModel:
        """Input-light model; Gamma = 1 in engine units, so b doubles as gamma_q."""
        from .mapping import SqueezingModel

        if self["dimensionless.input"] == "flat":
            return SqueezingModel.flat(self["dimensionless.x0_sq"])
        medium, drive, physics = (self.record(block) for block in ("medium", "drive", "physics"))
        derived = None
        if medium is not None and drive is not None and physics is not None:
            derived = physics.gamma_q / total_dephasing(medium, drive)
        b = self._declared_or_derived("dimensionless.b", derived)
        if b is None:
            raise ConfigError("dimensionless.b", "required for lorentzian input")
        return SqueezingModel.lorentzian(gamma_q=b, s=self["dimensionless.s"])
