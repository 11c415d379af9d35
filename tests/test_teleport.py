import math

import numpy as np
import pytest

from spinmap.teleport import (
    BsReport,
    TwoModeGaussian,
    apply_linear_bs,
    bs_matrix,
    commutator_defect,
    coupling_r,
    readout_noise_budget,
)


def complex_map_oracle(r):
    """Quadrature matrix built independently from the complex mode relations
    q -> q - i r theta, theta -> theta - i r q with q = Xq + i Pq."""
    s = np.zeros((4, 4))
    basis = [np.array(v, dtype=float) for v in np.eye(4)]
    for col, e in enumerate(basis):
        q = e[0] + 1j * e[1]
        th = e[2] + 1j * e[3]
        q_out = q - 1j * r * th
        th_out = th - 1j * r * q
        s[:, col] = [q_out.real, q_out.imag, th_out.real, th_out.imag]
    return s


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


class TestBeamSplitterMap:
    def test_identity_at_zero_coupling(self):
        state = TwoModeGaussian(mean=np.array([0.3, -0.2, 1.0, 0.5]),
                                cov=np.diag([1.0, 2.0, 0.5, 1.5]))
        out = apply_linear_bs(state, 0.0)
        assert np.array_equal(out.mean, state.mean)
        assert np.array_equal(out.cov, state.cov)

    def test_matrix_matches_complex_oracle(self):
        for r in (0.05, 0.2, 0.7):
            assert np.allclose(bs_matrix(r), complex_map_oracle(r), atol=1e-15)

    def test_vacuum_grows_by_r_squared(self):
        for r in (0.1, 0.3, 0.9):
            out = apply_linear_bs(TwoModeGaussian.vacuum(), r)
            assert np.allclose(out.cov, (1.0 + r * r) * np.eye(4), atol=1e-14)
            assert np.allclose(out.mean, 0.0)

    def test_swap_symmetry(self):
        # exchanging the two modes leaves the map unchanged
        perm = np.zeros((4, 4))
        perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
        for r in (0.1, 0.5):
            s = bs_matrix(r)
            assert np.allclose(perm @ s @ perm, s, atol=0.0)

    def test_reversibility_to_second_order(self):
        state = TwoModeGaussian(mean=np.array([1.0, 0.0, 0.0, -2.0]), cov=np.eye(4))
        for r in (0.01, 0.1):
            back = apply_linear_bs(apply_linear_bs(state, r), -r)
            assert np.max(np.abs(back.mean - state.mean)) <= 2.0 * r * r * np.max(
                np.abs(state.mean)
            ) + 1e-15


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
            s = bs_matrix(r)
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


class TestTwoModeGaussian:
    def test_vacuum(self):
        vac = TwoModeGaussian.vacuum()
        assert np.array_equal(vac.cov, np.eye(4))
        assert np.array_equal(vac.mean, np.zeros(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoModeGaussian(mean=np.zeros(3), cov=np.eye(4))
        bad = np.eye(4); bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            TwoModeGaussian(mean=np.zeros(4), cov=bad)
        neg = np.eye(4); neg[2, 2] = -1.0
        with pytest.raises(ValueError):
            TwoModeGaussian(mean=np.zeros(4), cov=neg)
