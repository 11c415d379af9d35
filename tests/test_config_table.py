"""The config key table: every loaded value is finite and in bounds, every
bad value is named by its key, the plain-Python grids are numpy's, and the
README documents exactly the table's keys.  The README's library sketch runs
as written."""

import math
import re
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmap.config import KEYS, REQUIRED, ConfigError, RunConfig, parse_config_text

README = Path(__file__).resolve().parent.parent / "README.md"

# each bound of the table, restated independently of the config module
IN_BOUND = {
    "> 0": lambda v: bool(np.all(np.asarray(v) > 0)),
    ">= 0": lambda v: bool(np.all(np.asarray(v) >= 0)),
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
    "non-empty": lambda v: len(v) > 0,
    "non-empty, >= 0, ascending": lambda v: (len(v) > 0 and all(a >= 0 for a in v)
                                             and list(v) == sorted(v)),
    "flat or lorentzian": lambda v: v in ("flat", "lorentzian"),
    "durations > 0, powers >= 0": lambda v: all(d > 0 and p >= 0 for d, p in v),
}
TYPES = {"float": float, "int": int, "grid": list, "profile": tuple, "choice": str}


def assert_valid(key, value):
    spec = KEYS[key]
    assert isinstance(value, TYPES[spec.kind])
    if spec.kind in ("float", "grid", "profile"):
        assert np.all(np.isfinite(np.asarray(value, dtype=float)))
    if spec.bound:
        assert IN_BOUND[spec.bound](value)


def test_table_shape():
    assert len(KEYS) == 36
    assert {spec.bound for spec in KEYS.values()} - {""} == set(IN_BOUND)
    assert {spec.kind for spec in KEYS.values()} == set(TYPES)
    for key, spec in KEYS.items():
        # SI keys fill a record field; no other key does
        assert bool(spec.field) == key.startswith(("medium.", "drive.", "physics."))


@pytest.mark.parametrize("key", [k for k, s in KEYS.items() if s.default is not REQUIRED])
def test_defaults_pass_their_own_check(key):
    assert_valid(key, RunConfig()[key])


NUMERIC_KEYS = [k for k, s in KEYS.items() if s.kind != "choice"]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_non_finite_value_named(key, bad):
    text = f"1:{bad}" if KEYS[key].kind == "profile" else bad
    with pytest.raises(ConfigError) as err:
        RunConfig(parse_config_text(f"{key} = {text}\n"))
    assert err.value.field == key


def test_record_rejection_named_by_key():
    si = {
        "medium.density_per_m3": "1", "medium.length_m": "1", "medium.area_m2": "1",
        "medium.gamma0_per_s": "1", "medium.wavelength_m": "1",
        "drive.g_per_m_per_s": "1", "drive.gamma_s_per_s": "0", "drive.tau_pulse_s": "1",
    }
    for key in si:
        with pytest.raises(ConfigError) as err:
            RunConfig({**si, key: "-1"}).record(key.split(".")[0])
        assert err.value.field == key


def test_readme_lists_every_key():
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    listed = re.findall(r"^([a-z_0-9]+\.[a-z_0-9]+)\s*=", block, re.M)
    assert sorted(listed) == sorted(KEYS)


def test_readme_library_sketch_runs():
    # the sketch may name only public API that exists and accepts its arguments
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", README.read_text(),
                      re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 300).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "0.5"]),
)
grids = st.one_of(
    st.builds("{}:{}:{}:{}".format, st.sampled_from(["logspace", "linspace", "geomspace"]),
              numbers, numbers, st.integers(-2, 50)),
    st.lists(numbers, max_size=5).map(",".join),
)
profiles = st.lists(st.tuples(numbers, numbers).map(":".join), max_size=3).map(", ".join)
values = st.one_of(
    numbers, grids, profiles,
    st.sampled_from(["", "junk", "flat", "lorentzian", "1:2:3", "logspace:1:2"]),
)
# values of the right form and mostly in range, so that many texts load
small = st.floats(0.0, 100.0).map(repr)
plausible = {
    "float": small,
    "int": st.integers(0, 300).map(str),
    "grid": st.lists(small, max_size=4).map(lambda v: ",".join(sorted(v, key=float))),
    "profile": st.lists(st.tuples(small, small).map(":".join), min_size=1, max_size=3)
    .map(", ".join),
    "choice": st.sampled_from(["flat", "lorentzian"]),
}


@st.composite
def config_texts(draw):
    # some whole SI blocks, so that records get built, plus any other keys
    blocks = draw(st.sets(st.sampled_from(["medium.", "drive.", "physics."])))
    keys = [key for key in KEYS if key.startswith(tuple(blocks))]
    keys += draw(st.lists(st.sampled_from(sorted(set(KEYS) - set(keys))), unique=True,
                          max_size=6))
    out = []
    for key in keys:
        odd = draw(st.integers(0, 4)) == 3
        value = draw(values if odd else plausible[KEYS[key].kind])
        out.append(f"{key} = {value}  # note")
        if draw(st.integers(0, 19)) == 13:  # a bad line: unknown key, duplicate, malformed
            out.append(draw(st.sampled_from(["no.such.key = 1", "grid = 1", out[-1],
                                             "no equals sign", "", "# comment"])))
    return "\n".join(out)


def _ulps(a, b):
    """Distance in units in the last place between two floats of one sign."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


bounds = st.floats(-1e6, 1e6, allow_subnormal=False)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(bounds, bounds, st.integers(1, 400))
def test_linspace_is_numpys_bit_for_bit(lo, hi, n):
    grid = RunConfig({"dimensionless.x_grid": f"linspace:{lo!r}:{hi!r}:{n}"})[
        "dimensionless.x_grid"]
    assert np.array_equal(np.array(grid), np.linspace(lo, hi, n))
    assert all(type(x) is float for x in grid)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.floats(-3.0, 6.0), st.floats(-3.0, 6.0), st.integers(1, 400), st.booleans(),
       st.booleans())
def test_logspace_is_numpys_geomspace(log_lo, log_hi, n, negative, decade):
    # with bounds at whole decades (every shipped grid), or wherever libm's
    # log10 rounds the bounds as numpy's does, only the last power's rounding
    # differs; elsewhere an exponent one ulp apart moves the inner points
    # further, which the exact sequence bounds below
    lo, hi = (10.0 ** round(x) if decade else float(f"{10.0 ** x:.3g}") for x in (log_lo, log_hi))
    sign = -1.0 if negative else 1.0
    grid = RunConfig({"dimensionless.x_grid": f"logspace:{sign * lo!r}:{sign * hi!r}:{n}"})[
        "dimensionless.x_grid"]
    reference = np.geomspace(sign * lo, sign * hi, n)
    assert len(grid) == n and grid[0] == sign * lo and grid[-1] == (sign * hi if n > 1 else grid[0])
    if all(math.log10(x) == np.log10(x) for x in (lo, hi)):
        assert max(map(_ulps, grid, reference)) <= 1
    # both sit within 1e-14 relative of the exact sequence (4.3e-15 was the
    # largest at one random point of each of 20 000 random grids, for either)
    with mp.workdps(30):
        for i in range(0, n, max(1, n // 16)):
            exact = sign * mp.mpf(lo) * (mp.mpf(hi) / lo) ** (mp.mpf(i) / max(n - 1, 1))
            assert abs(grid[i] / exact - 1) <= 1e-14 and abs(reference[i] / exact - 1) <= 1e-14


@settings(derandomize=True, deadline=None, max_examples=400)
@given(config_texts())
def test_any_config_text_loads_clean_or_names_its_field(text):
    try:
        cfg = RunConfig(parse_config_text(text))
    except ConfigError as exc:
        unknown = str(exc).endswith("unknown key") and exc.field not in KEYS
        assert exc.field in KEYS or re.fullmatch(r"line \d+", exc.field) or unknown
        return
    for key, value in cfg.typed.items():
        assert_valid(key, value)
    for block in ("medium", "drive", "physics"):
        try:
            cfg.record(block)
        except ConfigError as exc:
            assert exc.field in KEYS
