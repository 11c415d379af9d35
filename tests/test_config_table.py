"""The config key table: every loaded value is finite and in bounds, every
bad value is named by its key, and the README documents exactly the table's
keys."""

import re
from pathlib import Path

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
    ">= 0, ascending": lambda v: all(a >= 0 for a in v) and list(v) == sorted(v),
    "flat or lorentzian": lambda v: v in ("flat", "lorentzian"),
    "durations > 0, powers >= 0": lambda v: all(d > 0 and p >= 0 for d, p in v),
}
TYPES = {"float": float, "int": int, "grid": np.ndarray, "profile": tuple, "choice": str}


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
