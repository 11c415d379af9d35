"""Every command exits with a documented code on generated configs, and
never with a traceback, and verify's rows, summary and exit code agree
(hypothesis, derandomized, in-process through ``cli.main`` with small
grids)."""

import os
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from spinmap import cli
from spinmap.config import parse_config_text

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_PHYSICS, cli.EXIT_CONFIG, cli.EXIT_NUMERICS}
EXAMPLE = parse_config_text(
    (Path(__file__).resolve().parent.parent / "configs" / "feasibility_example.cfg").read_text())
JUNK = st.sampled_from(["nan", "inf", "-1", "0", "-0", "abc", "1e400", "1,2", "", "1:2:3"])


def number(lo, hi):
    return st.floats(lo, hi).map(lambda v: f"{v:.6g}")


# good values of the dimensionless keys; every key that sets a size or a
# cost stays small
DIMENSIONLESS = {
    "dimensionless.alpha": st.one_of(number(0.0, 5.0), number(0.0, 200.0)),
    "dimensionless.b": number(0.05, 60.0),
    "dimensionless.s": number(0.0, 1.0),
    "dimensionless.x0_sq": number(0.0, 3.0),
    "dimensionless.input": st.sampled_from(["flat", "lorentzian"]),
    "dimensionless.alpha_grid": st.one_of(
        st.builds("logspace:{:.3g}:{:.3g}:{}".format, st.floats(1e-3, 10.0),
                  st.floats(10.0, 1000.0), st.integers(1, 5)),
        st.sampled_from(["0,1,20", "0"])),
    "dimensionless.b_list": st.sampled_from(["50,10", "3", "0.5,60", "1,2,3"]),
    "dimensionless.x_grid": st.builds("linspace:-{0:.3g}:{0:.3g}:{1}".format,
                                      st.floats(0.1, 50.0), st.integers(1, 7)),
    "transient.tau_max_gamma": number(0.01, 15.0),
    "transient.points": st.integers(1, 6).map(str),
    # simulate's three-level kernel study needs sizes divisible by 4
    "grid.nz": st.one_of(st.integers(1, 10).map(lambda k: str(4 * k)),
                         st.integers(2, 40).map(str)),
    "grid.ntau": st.one_of(st.integers(1, 10).map(lambda k: str(4 * k)),
                           st.integers(2, 40).map(str)),
    "grid.tau_max_gamma": st.one_of(number(0.01, 0.5), number(0.01, 3.0)),
    "tolerance.quad_abs": st.sampled_from(["1e-9", "1e-12", "1e-15", "1e-3"]),
    "drive.profile": st.sampled_from(["0.5:1,0.5:0.3", "1:0", "0.01:1", "2:1,1:0.5,1:1"]),
    "teleport.alpha_pulse": number(0.0, 2.0),
    "teleport.epr_residual": number(0.0, 0.5),
    "teleport.r_threshold": number(0.0, 1.0),
    "feasibility.ratio": number(0.1, 100.0),
    "feasibility.fresnel_min": number(0.0, 2.0),
    "feasibility.fresnel_max": number(0.5, 5.0),
}
# the shipped SI blocks, each value scaled by up to 2x either way
SI = {key: st.floats(0.5, 2.0).map(lambda f, v=float(text): f"{v * f:.6g}")
      for key, text in EXAMPLE.items() if key.split(".")[0] in ("medium", "drive", "physics")}
KEYS = sorted(DIMENSIONLESS) + sorted(SI)
# keys most commands need, so most configs reach the engines
USUAL = ("dimensionless.alpha", "teleport.alpha_pulse", "grid.nz", "grid.ntau")


@st.composite
def configs(draw):
    """Good values for a random subset of the keys, with the SI blocks whole
    or absent (with them, alpha and b are derived), and now and then one key
    given junk."""
    config = draw(st.fixed_dictionaries(
        {key: DIMENSIONLESS[key] for key in USUAL},
        optional={key: good for key, good in DIMENSIONLESS.items() if key not in USUAL}))
    if draw(st.booleans()):
        config.update(draw(st.fixed_dictionaries(SI)))
        for derived in ("dimensionless.alpha", "dimensionless.b"):
            config.pop(derived, None)
    if draw(st.integers(0, 3)) == 0:
        config[draw(st.sampled_from(KEYS))] = draw(JUNK)
    return config


FAST = ["efficiency", "spectrum", "transient", "simulate", "teleport", "feasibility"]


def run(command, config, tmp, out=os.devnull):
    path = tmp / f"{command}.cfg"
    path.write_text("".join(f"{key} = {text}\n" for key, text in config.items()))
    code = cli.main([command, "--config", str(path), "--out", str(out)])
    event(f"{command} exit {code}")
    return code


@settings(derandomize=True, deadline=None, max_examples=150)
@given(command=st.sampled_from(FAST), config=configs())
def test_commands_exit_with_a_documented_code(tmp_path_factory, command, config):
    assert run(command, config, tmp_path_factory.getbasetemp()) in EXIT_CODES


@settings(derandomize=True, deadline=None, max_examples=10)
@given(config=configs())
def test_verify_exits_with_a_documented_code(tmp_path_factory, config):
    # the acceptance criteria trust verify's rows: on a config that loads,
    # each row's error and pass flag, the summary and the exit code follow
    # from the values the checks return
    tmp = tmp_path_factory.getbasetemp()
    checks = []
    verify_checks = cli._verify_checks

    def recording(cfg):
        checks.extend(verify_checks(cfg))
        return checks

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_verify_checks", recording)
        code = run("verify", config, tmp, out=tmp / "verify.csv")
    assert code in EXIT_CODES
    if checks:
        for _, _, value, reference, error, tolerance, ok in checks:
            assert error == abs(value - reference) and ok == (error <= tolerance)
        n_pass = sum(ok for *_, ok in checks)
        summary = (tmp / "verify.csv").read_text().splitlines()[-1].split(",")
        assert summary[1] == f"{n_pass}/{len(checks)}"
        assert summary[-1] == cli._fmt(n_pass == len(checks))
        assert code == (cli.EXIT_OK if n_pass == len(checks) else cli.EXIT_PHYSICS)
