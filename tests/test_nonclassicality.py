import math

import numpy as np
import pytest

from stokespace import (
    INCONCLUSIVE,
    NONCLASSICAL,
    CoherentSpec,
    HomInputSpec,
    MgfMatrixSpec,
    MixtureSpec,
    TmsvSpec,
    cauchy_schwarz_violation,
    char_fn_criterion,
    cross_correlation_det,
    direction_to_beamsplitter,
    joint_photon_distribution,
    make_state,
    matrix_verdict,
    mgf_matrix,
    second_order_det,
    variance_criteria,
)
from conftest import random_direction, random_low_state

D_X = direction_to_beamsplitter([1.0, 0.0, 0.0])
D_Z = direction_to_beamsplitter([0.0, 0.0, 1.0])


class TestMgfMatrix:
    def test_photon_pair_example(self):
        # |1,1> along x: M(t; 0) = 1 + t^2, points (sqrt 3, 0) and (0, 0)
        state = make_state(HomInputSpec(), cutoff=4)
        spec = MgfMatrixSpec(D_X, ((math.sqrt(3.0), 0.0), (0.0, 0.0)))
        m = mgf_matrix(state, spec)
        assert np.max(np.abs(m - np.array([[13.0, 4.0], [4.0, 1.0]]))) < 1e-10
        report = matrix_verdict(m)
        assert report.verdict == NONCLASSICAL
        assert report.value == pytest.approx((14.0 - math.sqrt(208.0)) / 2.0)
        # the witness is the eigenvector of the smallest eigenvalue
        res = m @ report.witness - report.value * report.witness
        assert np.max(np.abs(res)) < 1e-10

    def test_hermitian_by_construction(self, rng):
        state = random_low_state(rng, cutoff=6, n_max=6)
        d = random_direction(rng)
        pts = tuple(
            (rng.uniform(-0.3, 0.3) + 1j * rng.uniform(-1, 1), rng.uniform(0, 0.6))
            for _ in range(4)
        )
        m = mgf_matrix(state, MgfMatrixSpec(d, pts))
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_classical_matrices_stay_positive(self, rng):
        spec = MixtureSpec(((0.4, 0.9, 0.1j), (0.6, -0.2, 0.7)))
        state = make_state(spec, cutoff=25)
        for _ in range(5):
            d = random_direction(rng)
            pts = tuple(
                (rng.uniform(-0.2, 0.2) + 1j * rng.uniform(-0.5, 0.5),
                 rng.uniform(0.0, 0.4))
                for _ in range(3)
            )
            report = matrix_verdict(mgf_matrix(state, MgfMatrixSpec(d, pts)))
            assert report.verdict == INCONCLUSIVE
            assert report.value > -1e-9

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MgfMatrixSpec(D_X, ())
        with pytest.raises(ValueError):
            MgfMatrixSpec(D_X, ((0.1, -0.2),))

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            matrix_verdict(np.ones((2, 3)))
        with pytest.raises(ValueError):
            matrix_verdict(np.array([[1.0, 1.0], [-1.0, 1.0]]))

    def test_tolerance_separates_verdicts(self):
        m = np.diag([-1e-10, 1.0])
        assert matrix_verdict(m, tolerance=1e-9).verdict == INCONCLUSIVE
        assert matrix_verdict(m, tolerance=1e-11).verdict == NONCLASSICAL


class TestSecondOrderDet:
    def test_equals_matrix_determinant(self, rng):
        state = random_low_state(rng, cutoff=6, n_max=6)
        for _ in range(8):
            d = random_direction(rng)
            t = rng.uniform(-0.3, 0.3) + 1j * rng.uniform(-0.8, 0.8)
            tau = rng.uniform(0.0, 0.5)
            t2 = rng.uniform(-0.3, 0.3) + 1j * rng.uniform(-0.8, 0.8)
            tau2 = rng.uniform(0.0, 0.5)
            det = second_order_det(state, d, t, tau, t2, tau2)
            m = mgf_matrix(state, MgfMatrixSpec(d, ((t, tau), (t2, tau2))))
            assert det == pytest.approx(np.linalg.det(m).real, abs=1e-12)

    def test_photon_pair_interference_values(self):
        # balanced splitter: det(t) = (1 + 4 t^2) - (1 + t^2)^2
        state = make_state(HomInputSpec(), cutoff=4)
        for t, expected in ((math.sqrt(3.0), -3.0), (math.sqrt(2.0), 0.0), (2.0, 1.0 + 16.0 - 25.0)):
            det = second_order_det(state, D_X, t, 0.0, 0.0, 0.0)
            assert det == pytest.approx(expected, abs=1e-10)
        # transmission 1 (e = z): det(t) = (1 - 4 t^2) - (1 - t^2)^2
        for t2, expected in ((2.0, -8.0), (3.0, -15.0), (4.0, -24.0)):
            det = second_order_det(state, D_Z, math.sqrt(t2), 0.0, 0.0, 0.0)
            assert det == pytest.approx(expected, abs=1e-10)

    def test_classical_states_nonnegative(self, rng):
        state = make_state(CoherentSpec(0.8, 0.4j), cutoff=25)
        for _ in range(10):
            d = random_direction(rng)
            t = rng.uniform(-0.3, 0.3)
            tau = rng.uniform(0.0, 0.5)
            assert second_order_det(state, d, t, tau, 0.0, 0.0) > -1e-9


    def test_arrays_equal_the_scalar_calls_bit_for_bit(self, rng):
        state = random_low_state(rng, cutoff=6, n_max=6)
        d = random_direction(rng)
        dist = joint_photon_distribution(state, d)
        t = rng.uniform(-0.3, 0.3, (4, 1)) + 1j * rng.uniform(-0.8, 0.8, (4, 1))
        tau = rng.uniform(0.0, 0.5, 5)
        t2 = rng.uniform(-0.3, 0.3, (4, 5))
        tau2 = 0.25
        dets = second_order_det(dist, d, t, tau, t2, tau2)
        assert dets.shape == (4, 5)
        for i, j in np.ndindex(4, 5):
            scalar = second_order_det(dist, d, t[i, 0], tau[j], t2[i, j], tau2)
            assert type(scalar) is float
            assert dets[i, j] == scalar


class TestCauchySchwarz:
    def test_equals_negated_determinant(self, rng):
        state = random_low_state(rng, cutoff=5, n_max=5)
        d = random_direction(rng)
        p1 = (0.1 + 0.2j, 0.3)
        p2 = (-0.15, 0.2)
        cs = cauchy_schwarz_violation(state, d, p1, p2)
        det = second_order_det(state, d, p1[0], p1[1], p2[0], p2[1])
        assert cs == pytest.approx(-det, abs=1e-12)

    def test_trivial_second_point_rejected(self, rng):
        state = random_low_state(rng, cutoff=3, n_max=3)
        with pytest.raises(ValueError):
            cauchy_schwarz_violation(state, random_direction(rng), (0.3, 0.3), (0.0, 0.0))

    def test_photon_pair_violation(self):
        state = make_state(HomInputSpec(), cutoff=4)
        cs = cauchy_schwarz_violation(state, D_X, (0.0, 0.0), (math.sqrt(3.0), 0.0))
        assert cs == pytest.approx(3.0, abs=1e-10)


class TestCharFnCriterion:
    def test_photon_pair_exceeds_classical_bound(self):
        state = make_state(HomInputSpec(), cutoff=4)
        report = char_fn_criterion(state, [0.0, 0.0, 1.3])
        assert report.value == pytest.approx(1.0 - (1.0 + 1.69), abs=1e-10)
        assert report.verdict == NONCLASSICAL

    def test_coherent_inconclusive(self):
        state = make_state(CoherentSpec(0.5, 0.3), cutoff=25)
        report = char_fn_criterion(state, [0.4, -0.2, 0.1])
        assert abs(report.value) < 1e-8
        assert report.verdict == INCONCLUSIVE


class TestMomentCriteria:
    def test_photon_pair_variances(self):
        state = make_state(HomInputSpec(), cutoff=4)
        vx = variance_criteria(state, D_X)
        assert vx.var_stokes == pytest.approx(2.0, abs=1e-10)
        assert vx.var_number == pytest.approx(-2.0, abs=1e-10)
        vz = variance_criteria(state, D_Z)
        assert vz.var_stokes == pytest.approx(-2.0, abs=1e-10)
        assert vz.var_number == pytest.approx(-2.0, abs=1e-10)

    def test_coherent_sits_at_zero(self, rng):
        state = make_state(CoherentSpec(0.7, -0.2 + 0.3j), cutoff=30)
        d = random_direction(rng)
        v = variance_criteria(state, d)
        assert abs(v.var_stokes) < 1e-8
        assert abs(v.var_number) < 1e-8
        c = cross_correlation_det(state, d)
        assert abs(c.number_stokes) < 1e-8
        assert abs(c.photon_photon) < 1e-8

    def test_two_mode_squeezing_cross_correlations(self):
        # mean n per mode 1/3 at tanh xi = 1/2
        state = make_state(TmsvSpec(math.atanh(0.5)), cutoff=45)
        report = cross_correlation_det(state, D_Z)
        nbar = 1.0 / 3.0
        assert report.photon_photon == pytest.approx(
            nbar**4 - (nbar**2 + nbar) ** 2, abs=1e-9
        )
        assert report.number_stokes == pytest.approx(
            (4 * nbar**2 + 2 * nbar) * (-2 * nbar), abs=1e-9
        )

    def test_thermal_mixture_is_super_poissonian(self, rng):
        # classical Gaussian mixture of coherent pairs: all criteria >= 0
        pts = [
            (0.3 * (rng.normal() + 1j * rng.normal()),
             0.3 * (rng.normal() + 1j * rng.normal()))
            for _ in range(12)
        ]
        spec = MixtureSpec(tuple((1.0 / 12.0, a, b) for a, b in pts))
        state = make_state(spec, cutoff=20)
        d = random_direction(rng)
        v = variance_criteria(state, d)
        assert v.var_stokes > -1e-9
        assert v.var_number > -1e-9
        c = cross_correlation_det(state, d)
        assert c.number_stokes > -1e-9
        assert c.photon_photon > -1e-9


class TestDistributionInput:
    def test_criteria_accept_the_distribution_of_their_axis(self, rng):
        state = make_state(TmsvSpec(0.6), cutoff=30)
        d = random_direction(rng)
        dist = joint_photon_distribution(state, d)
        spec = MgfMatrixSpec(d, ((0.1, 0.3), (-0.2 + 0.1j, 0.25)))
        assert np.array_equal(mgf_matrix(dist, spec), mgf_matrix(state, spec))
        args = (0.1, 0.3, -0.2, 0.25)
        assert second_order_det(dist, d, *args) == second_order_det(state, d, *args)
        assert variance_criteria(dist, d) == variance_criteria(state, d)
        assert cross_correlation_det(dist, d) == cross_correlation_det(state, d)

    def test_distribution_of_another_axis_rejected(self):
        dist = joint_photon_distribution(make_state(HomInputSpec(), cutoff=2), D_X)
        with pytest.raises(ValueError):
            variance_criteria(dist, D_Z)
