import math

import numpy as np
import pytest

import oracles
from spinmap.teleport import BsReport, commutator_defect, coupling_r, readout_noise_budget


class TestCouplingR:
    def test_zero_depth(self):
        report = coupling_r(0.0)
        assert report.r == 0.0
        assert report.valid
        assert report.epr_requirement == 0.0

    def test_small_depth(self):
        report = coupling_r(0.01)
        assert report.r == pytest.approx(0.1, rel=1e-15)
        assert report.valid

    def test_unit_depth_breaks_linearization(self):
        report = coupling_r(1.0)
        assert report.r == 1.0
        assert not report.valid

    def test_threshold_configurable(self):
        assert coupling_r(0.16, threshold=0.5).valid
        assert not coupling_r(0.16, threshold=0.3).valid

    def test_r_squared_recovers_depth(self):
        for alpha in (0.25, 1.0, 0.0625):  # exact squares in binary
            assert coupling_r(alpha).r ** 2 == alpha
        for alpha in (0.013, 0.2, 0.77):
            assert coupling_r(alpha).r ** 2 == pytest.approx(alpha, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            coupling_r(-0.1)
        with pytest.raises(ValueError):
            BsReport(r=-1.0, valid=False, commutator_defect=0.0)


class TestCommutatorDefect:
    def test_zero(self):
        assert commutator_defect(0.0) == 0.0

    def test_exactly_quadratic(self):
        assert commutator_defect(0.1) == pytest.approx(0.01, abs=1e-12)
        for r in np.linspace(0.01, 0.5, 23):
            assert commutator_defect(float(r)) == pytest.approx(r * r, abs=1e-12)

    def test_keeps_every_digit_at_small_r(self):
        # S^T Omega S = (1 + r^2) Omega, so the defect is r^2 to round-off,
        # also where 1 + r^2 rounds to 1
        omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
        for r in np.geomspace(1e-8, 1e-2, 25):
            s = oracles.complex_map_oracle(r)
            np.testing.assert_allclose(s.T @ omega @ s, (1.0 + r * r) * omega, rtol=0,
                                       atol=1e-15)
            assert commutator_defect(float(r)) == pytest.approx(r * r, rel=1e-15, abs=0)

    def test_non_finite_rejected(self):
        for r in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                commutator_defect(r)

    def test_quadratic_scaling_ratio(self):
        for r in (1e-3, 1e-2, 0.05):
            assert commutator_defect(2.0 * r) / commutator_defect(r) == pytest.approx(
                4.0, rel=1e-9
            )


class TestReadoutBudget:
    def test_perfect_resource_passes(self):
        budget = readout_noise_budget(0.1, 0.0)
        assert budget.passes
        assert budget.residual_over_r == 0.0
        assert budget.classical_baseline == 1.0

    def test_equality_fails(self):
        assert not readout_noise_budget(0.1, 0.1).passes

    def test_zero_coupling_always_fails(self):
        budget = readout_noise_budget(0.0, 0.0)
        assert not budget.passes
        assert math.isinf(budget.residual_over_r)

    def test_ratio(self):
        assert readout_noise_budget(0.2, 0.05).residual_over_r == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            readout_noise_budget(-0.1, 0.0)
        with pytest.raises(ValueError):
            readout_noise_budget(0.1, -0.5)
