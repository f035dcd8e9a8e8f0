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
    TruncationWarning,
    char_fn_criterion,
    cross_correlation_det,
    direction_to_beamsplitter,
    distribution_factorial_moment,
    joint_photon_distribution,
    make_state,
    mgf_matrix,
    min_eigenpair,
    second_order_det,
    variance_criteria,
    verdict,
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
        value, witness = min_eigenpair(m)
        assert verdict(value) == NONCLASSICAL
        assert value == pytest.approx((14.0 - math.sqrt(208.0)) / 2.0)
        # the witness is the eigenvector of the smallest eigenvalue
        res = m @ witness - value * witness
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
            value, _ = min_eigenpair(mgf_matrix(state, MgfMatrixSpec(d, pts)))
            assert verdict(value) == INCONCLUSIVE
            assert value > -1e-9

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MgfMatrixSpec(D_X, ())
        with pytest.raises(ValueError):
            MgfMatrixSpec(D_X, ((0.1, -0.2),))

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            min_eigenpair(np.ones((2, 3)))
        with pytest.raises(ValueError):
            min_eigenpair(np.array([[1.0, 1.0], [-1.0, 1.0]]))

    def test_tolerance_separates_verdicts(self):
        value, _ = min_eigenpair(np.diag([-1e-10, 1.0]))
        assert verdict(value, tolerance=1e-9) == INCONCLUSIVE
        assert verdict(value, tolerance=1e-11) == NONCLASSICAL

    @pytest.mark.parametrize("tolerance", [-1.0, -1e-300, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance):
        # -1 made every value "nonclassical"; NaN made every value "inconclusive"
        # on the values of both criteria, through the one verdict rule
        with pytest.raises(ValueError, match="tolerance"):
            verdict(min_eigenpair(np.diag([-15.0, 1.0]))[0], tolerance)
        with pytest.raises(ValueError, match="tolerance"):
            verdict(char_fn_criterion(make_state(HomInputSpec(), cutoff=4), D_Z, 1.3),
                    tolerance)


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


class TestCharFnCriterion:
    def test_photon_pair_exceeds_classical_bound(self):
        state = make_state(HomInputSpec(), cutoff=4)
        value = char_fn_criterion(state, D_Z, 1.3)
        assert type(value) is float  # a number, as second_order_det returns
        assert value == pytest.approx(1.0 - (1.0 + 1.69), abs=1e-10)
        assert verdict(value) == NONCLASSICAL

    def test_coherent_inconclusive(self):
        state = make_state(CoherentSpec(0.5, 0.3), cutoff=25)
        k = np.array([0.4, -0.2, 0.1])
        d = direction_to_beamsplitter(k / np.linalg.norm(k))
        value = char_fn_criterion(state, d, np.linalg.norm(k))
        assert abs(value) < 1e-8
        assert verdict(value) == INCONCLUSIVE

    def test_zero_argument_is_the_trivial_bound(self):
        # Phi(0) = 1 exactly, though the truncated state misses some mass
        with pytest.warns(TruncationWarning):
            state = make_state(TmsvSpec(0.6), cutoff=10)
        assert state.trace < 1.0 - 1e-7
        assert char_fn_criterion(state, D_X, 0.0) == 0.0


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
        assert abs(cross_correlation_det(state, d)) < 1e-8

    def test_two_mode_squeezing_cross_correlations(self):
        # mean n per mode 1/3 at tanh xi = 1/2
        state = make_state(TmsvSpec(math.atanh(0.5)), cutoff=45)
        nbar = 1.0 / 3.0
        assert cross_correlation_det(state, D_Z) == pytest.approx(
            nbar**4 - (nbar**2 + nbar) ** 2, abs=1e-9
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
        assert cross_correlation_det(state, d) > -1e-9


def _factorial_moments(dist):
    """f10, f01, f20, f02, f11: the five moments the covariance reads."""
    return [distribution_factorial_moment(dist, p, q)
            for p, q in ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1))]


def _covariance_states(rng):
    """(state, axis) pairs: TMSV, |1,1>, a coherent pair, random coherent
    mixtures and random pure states, along fixed and random axes."""
    cases = [
        (make_state(TmsvSpec(math.atanh(0.5)), cutoff=45), D_Z),
        (make_state(TmsvSpec(0.3), cutoff=30), random_direction(rng)),
        (make_state(HomInputSpec(), cutoff=3), D_X),
        (make_state(HomInputSpec(), cutoff=3), random_direction(rng)),
        (make_state(CoherentSpec(0.8 - 0.1j, 0.4j), cutoff=30), random_direction(rng)),
    ]
    for _ in range(4):
        pts = 0.4 * (rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2)))
        spec = MixtureSpec(tuple((0.2, a, b) for a, b in pts))
        cases.append((make_state(spec, cutoff=20), random_direction(rng)))
    for _ in range(3):
        cases.append((random_low_state(rng, 6, 4), random_direction(rng)))
    return cases


class TestCovarianceCore:
    def test_cross_correlation_is_the_photon_number_covariance_det(self, rng):
        for state, d in _covariance_states(rng):
            dist = joint_photon_distribution(state, d)
            f10, f01, f20, f02, f11 = _factorial_moments(dist)
            cov = np.array([[f20 - f10 * f10, f11 - f10 * f01],
                            [f11 - f10 * f01, f02 - f01 * f01]])
            det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
            scale = abs(cov[0, 0] * cov[1, 1]) + cov[0, 1] ** 2
            assert abs(cross_correlation_det(dist, d) - det) <= 1e-12 * scale + 1e-15

    def test_number_stokes_det_is_four_times_the_witness(self, rng):
        # det cov(N, e.S) = det(A C A^T) = det(A)^2 det C with A = [[1, 1], [1, -1]]
        for i, (state, d) in enumerate(_covariance_states(rng)):
            dist = joint_photon_distribution(state, d)
            f10, f01, f20, f02, f11 = _factorial_moments(dist)
            n = f20 + 2.0 * f11 + f02 - (f10 + f01) ** 2
            s = f20 - 2.0 * f11 + f02 - (f10 - f01) ** 2
            ns = f20 - f02 - (f10 + f01) * (f10 - f01)
            det_ns, scale = n * s - ns**2, abs(n * s) + ns**2
            assert abs(4.0 * cross_correlation_det(dist, d) - det_ns) <= 1e-12 * scale
            if i == 0:  # TMSV at tanh xi = 1/2: mean n per mode 1/3
                nbar = 1.0 / 3.0
                assert det_ns == pytest.approx((4 * nbar**2 + 2 * nbar) * (-2 * nbar),
                                               abs=1e-9)

    def test_variances_match_the_five_moment_formulas(self, rng):
        for state, d in _covariance_states(rng):
            dist = joint_photon_distribution(state, d)
            f10, f01, f20, f02, f11 = _factorial_moments(dist)
            var_s, var_n = variance_criteria(dist, d)
            scale = f20 + 2.0 * abs(f11) + f02 + (f10 + f01) ** 2
            assert abs(var_s - (f20 - 2.0 * f11 + f02 - (f10 - f01) ** 2)) <= 1e-12 * scale
            assert abs(var_n - (f20 + 2.0 * f11 + f02 - (f10 + f01) ** 2)) <= 1e-12 * scale

    def test_criteria_return_floats(self, rng):
        state, d = _covariance_states(rng)[0]
        assert type(cross_correlation_det(state, d)) is float
        assert all(type(v) is float for v in variance_criteria(state, d))


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
        assert char_fn_criterion(dist, d, 0.7) == char_fn_criterion(state, d, 0.7)

    def test_distribution_of_another_axis_rejected(self):
        dist = joint_photon_distribution(make_state(HomInputSpec(), cutoff=2), D_X)
        with pytest.raises(ValueError):
            variance_criteria(dist, D_Z)
        with pytest.raises(ValueError):
            char_fn_criterion(dist, D_Z)
