import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from stokespace import (
    ClickDetectorConfig,
    ClickDistribution,
    ClickSampleSet,
    CoherentSpec,
    HomInputSpec,
    MgfQuery,
    NumericalError,
    TruncationWarning,
    VacuumSpec,
    click_distribution,
    click_moment_to_mgf_point,
    clicks_to_json,
    direction_to_beamsplitter,
    estimate_mgf_from_samples,
    joint_photon_distribution,
    make_state,
    mgf,
    mgf_from_distribution,
    moments_from_clicks,
    power_expectation,
    sample_clicks,
    samples_to_json,
    spec_from_json,
)
from stokespace.detector import _click_matrix
from conftest import random_direction, random_low_state

D_Z = direction_to_beamsplitter([0.0, 0.0, 1.0])
D_X = direction_to_beamsplitter([1.0, 0.0, 0.0])


class TestClickDistribution:
    def test_vacuum_dark_counts_factorize(self):
        state = make_state(VacuumSpec(), cutoff=2)
        cfg_a = ClickDetectorConfig(apds=2, nu=0.2)
        cfg_b = ClickDetectorConfig(apds=1, nu=0.1)
        clicks = click_distribution(state, D_Z, cfg_a, cfg_b)
        qa, qb = 1.0 - math.exp(-0.2), 1.0 - math.exp(-0.1)
        ref_a = np.array([(1 - qa) ** 2, 2 * qa * (1 - qa), qa**2])
        ref_b = np.array([1 - qb, qb])
        assert np.max(np.abs(clicks.c - np.outer(ref_a, ref_b))) < 1e-12

    def test_coherent_arm_is_binomial(self):
        # Poisson light splits evenly over D diodes: i.i.d. clicks
        alpha = 1.3
        state = make_state(CoherentSpec(alpha, 0.0), cutoff=30)
        cfg = ClickDetectorConfig(apds=4, eta=0.7, eps=0.9)
        clicks = click_distribution(state, D_Z, cfg, ClickDetectorConfig())
        p = 1.0 - math.exp(-0.9 * 0.7 * alpha**2 / 4.0)
        ref = np.array([
            math.comb(4, i) * p**i * (1 - p) ** (4 - i) for i in range(5)
        ])
        assert np.max(np.abs(clicks.c[:, 0] - ref)) < 1e-10
        assert np.max(np.abs(clicks.c[:, 1])) < 1e-10  # arm b sees vacuum

    def test_bright_light_saturates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            state = make_state(CoherentSpec(6.0, 0.0), cutoff=80)
        clicks = click_distribution(state, D_Z, ClickDetectorConfig(apds=3),
                                    ClickDetectorConfig())
        assert clicks.c[3, 0] > 0.999

    def test_photon_pair_balanced_clicks(self):
        # |1,1> on a balanced splitter bunches: only (2,0) and (0,2) photon
        # events, each splitting over 2 diodes with probability 1/2
        state = make_state(HomInputSpec(), cutoff=2)
        cfg = ClickDetectorConfig(apds=2)
        clicks = click_distribution(state, D_X, cfg, cfg)
        ref = np.array([
            [0.0, 0.25, 0.25],
            [0.25, 0.0, 0.0],
            [0.25, 0.0, 0.0],
        ])
        assert np.max(np.abs(clicks.c - ref)) < 1e-12

    @pytest.mark.parametrize("apds", [9, 16])
    def test_many_diodes_stay_positive_and_hit_the_mgf(self, rng, apds):
        state = random_low_state(rng, cutoff=8, n_max=8)
        d = random_direction(rng)
        cfg_a = ClickDetectorConfig(apds=apds, eta=0.8, nu=0.05, eps=0.9)
        cfg_b = ClickDetectorConfig(apds=apds, eta=0.6, nu=0.02)
        clicks = click_distribution(state, d, cfg_a, cfg_b)
        assert clicks.c.min() >= 0.0
        k, l = (g.ravel() for g in np.indices(clicks.c.shape))
        t, tau = click_moment_to_mgf_point(k, l, cfg_a, cfg_b)
        dist = joint_photon_distribution(state, d)
        ref = mgf_from_distribution(dist, t, tau).real
        assert np.max(np.abs(moments_from_clicks(clicks, k, l) - ref)) < 1e-12

    def test_click_matrix_matches_exact_inclusion_exclusion(self):
        # P(i | n) = C(D, i) sum_r (-1)^r C(i, r) s_(D-i+r), where
        # s_m = (1 - m q / D)^n (1 - f)^m is the chance that m given
        # diodes stay silent; exact in rationals, so no cancellation
        for eta, eps, nu in ((1.0, 1.0, 0.0), (0.8, 0.9, 0.05), (0.35, 0.6, 0.3)):
            q = Fraction(eps * eta)
            silent = Fraction(math.exp(-nu))
            for apds in (1, 2, 3, 5, 8, 9, 12, 16):
                cfg = ClickDetectorConfig(apds=apds, eta=eta, nu=nu, eps=eps)
                got = _click_matrix(cfg, 30)
                ref = np.array([[float(
                    math.comb(apds, i) * sum(
                        (-1) ** r * math.comb(i, r)
                        * (1 - (apds - i + r) * q / apds) ** n
                        * silent ** (apds - i + r)
                        for r in range(i + 1)))
                    for n in range(31)] for i in range(apds + 1)])
                assert np.max(np.abs(got - ref)) < 1e-15, (eta, eps, nu, apds)

    def test_weak_mixture_at_eight_diodes_has_no_negative_clicks(self):
        # at 8 + 8 diodes an alternating inclusion-exclusion sum turns a
        # ~1e-14 click probability into -2.2e-10 on this state
        spec, _ = spec_from_json({"kind": "mixture", "components": [
            {"weight": 0.57, "alpha": {"re": -0.303, "im": 0.528},
             "beta": {"re": -0.376, "im": 0.262}},
            {"weight": 0.43, "alpha": {"re": 0.349, "im": 0.297},
             "beta": {"re": 0.348, "im": -0.5}},
        ]})
        state = make_state(spec, cutoff=16)
        cfg_a = ClickDetectorConfig(apds=8, eta=0.8, nu=0.01)
        cfg_b = ClickDetectorConfig(apds=8, eta=0.8, nu=0.02)
        clicks = click_distribution(state, D_Z, cfg_a, cfg_b)
        assert clicks.c.min() >= 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClickDetectorConfig(apds=0)
        with pytest.raises(ValueError):
            ClickDetectorConfig(eta=1.2)
        with pytest.raises(ValueError):
            ClickDetectorConfig(nu=-0.1)
        with pytest.raises(ValueError):
            ClickDetectorConfig(eps=-0.5)

    def test_distribution_validation(self):
        cfg = ClickDetectorConfig(apds=1)
        with pytest.raises(ValueError):
            ClickDistribution(np.zeros((3, 2)), D_Z, cfg, cfg)
        with pytest.raises(NumericalError):
            ClickDistribution(np.array([[0.6, 0.5], [-0.1, 0.0]]), D_Z, cfg, cfg)


class TestClickMoments:
    def test_moments_equal_ordered_power_sums(self, rng):
        # mu_{k,l} undoes the inclusion-exclusion exactly, order by order
        state = random_low_state(rng, cutoff=6, n_max=6)
        d = random_direction(rng)
        cfg_a = ClickDetectorConfig(apds=3, eta=0.8, nu=0.05, eps=0.9)
        cfg_b = ClickDetectorConfig(apds=2, eta=0.6, nu=0.02, eps=1.0)
        clicks = click_distribution(state, d, cfg_a, cfg_b)
        for k in range(4):
            for l in range(3):
                mu = moments_from_clicks(clicks, k, l)
                za = 1.0 - k * 0.9 * 0.8 / 3.0
                zb = 1.0 - l * 1.0 * 0.6 / 2.0
                ref = power_expectation(state, d, za, zb).real
                assert mu == pytest.approx(ref, abs=1e-12)

    def test_clicks_read_eps_only_through_eps_eta(self, rng):
        # each split multiplies to 0.4 exactly, so every number is bit-equal
        state = random_low_state(rng, cutoff=5, n_max=5)
        d = random_direction(rng)
        cfg_b = ClickDetectorConfig(apds=2, eta=0.6, nu=0.02)
        k, l = np.indices((4, 3)).reshape(2, -1)
        results = []
        for eps, eta in ((1.0, 0.4), (0.5, 0.8), (0.4, 1.0)):
            cfg_a = ClickDetectorConfig(apds=3, eta=eta, nu=0.05, eps=eps)
            t, tau = click_moment_to_mgf_point(k, l, cfg_a, cfg_b)
            results.append((click_distribution(state, d, cfg_a, cfg_b).c, t, tau))
        for other in results[1:]:
            for got, ref in zip(other, results[0]):
                assert np.array_equal(got, ref)

    def test_moment_is_mgf_at_lattice_point(self, rng):
        state = random_low_state(rng, cutoff=5, n_max=5)
        d = random_direction(rng)
        cfg_a = ClickDetectorConfig(apds=2, eta=0.75, nu=0.1)
        cfg_b = ClickDetectorConfig(apds=4, eta=0.5, nu=0.03)
        clicks = click_distribution(state, d, cfg_a, cfg_b)
        for k in range(3):
            for l in range(5):
                t, tau = click_moment_to_mgf_point(k, l, cfg_a, cfg_b)
                assert abs(t) <= tau + 1e-15
                mu = moments_from_clicks(clicks, k, l)
                ref = mgf(state, MgfQuery(d, t, tau)).real
                assert mu == pytest.approx(ref, abs=1e-10)

    def test_trace_and_dark_correction(self):
        state = make_state(VacuumSpec(), cutoff=2)
        cfg = ClickDetectorConfig(apds=2, nu=0.3)
        clicks = click_distribution(state, D_Z, cfg, ClickDetectorConfig())
        assert moments_from_clicks(clicks, 0, 0) == pytest.approx(1.0, abs=1e-12)
        assert moments_from_clicks(clicks, 1, 0) == pytest.approx(1.0, abs=1e-12)
        # the raw moment: one given diode of arm a stays dark, C(2-i, 1)/2
        # weighs i clicks; the dark correction exp(nu) undoes its e^-nu
        raw = clicks.c[0].sum() + 0.5 * clicks.c[1].sum()
        assert raw == pytest.approx(math.exp(-0.3), abs=1e-12)
        assert moments_from_clicks(clicks, 1, 0) == pytest.approx(
            raw * math.exp(0.3), abs=1e-12)

    def test_dark_correction_that_overflows_raises(self):
        # exp(k nu) overflows at k >= 1, where the raw moment is 0: 0 * inf
        state = make_state(VacuumSpec(), cutoff=2)
        cfg = ClickDetectorConfig(apds=2, nu=800.0)
        clicks = click_distribution(state, D_Z, cfg, ClickDetectorConfig())
        samples = sample_clicks(clicks, 100, seed=1)
        assert moments_from_clicks(clicks, 0, 0) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NumericalError, match="dark-corrected moment is not finite"):
            moments_from_clicks(clicks, [0, 1], 0)
        with pytest.raises(NumericalError, match="dark-corrected moment is not finite"):
            estimate_mgf_from_samples(samples, [0, 1], 0, cfg, ClickDetectorConfig())

    def test_unit_efficiency_lattice_over_indices(self):
        # the whole moment lattice in one call, as the clicks command reads it
        cfg = ClickDetectorConfig(apds=4, eta=1.0)
        k, l = np.indices((5, 5))
        t, tau = click_moment_to_mgf_point(k, l, cfg, cfg)
        assert np.max(np.abs(t - (l - k) / 8.0)) <= 1e-15
        assert np.max(np.abs(tau - (l + k) / 8.0)) <= 1e-15
        assert np.all(np.abs(t) <= tau + 1e-15)

    def test_lattice_bounds_checked(self):
        cfg = ClickDetectorConfig(apds=2)
        with pytest.raises(ValueError):
            click_moment_to_mgf_point(3, 0, cfg, cfg)
        with pytest.raises(ValueError):
            click_moment_to_mgf_point(0, -1, cfg, cfg)


class TestSampling:
    def test_deterministic_and_conserving(self):
        state = make_state(HomInputSpec(), cutoff=2)
        cfg = ClickDetectorConfig(apds=2, eta=0.9)
        clicks = click_distribution(state, D_X, cfg, cfg)
        s1 = sample_clicks(clicks, 5000, seed=11)
        s2 = sample_clicks(clicks, 5000, seed=11)
        assert np.array_equal(s1.counts, s2.counts)
        assert s1.counts.sum() == 5000
        s3 = sample_clicks(clicks, 5000, seed=12)
        assert not np.array_equal(s1.counts, s3.counts)

    def test_unnormalized_distribution_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            state = make_state(CoherentSpec(2.0, 0.0), cutoff=4)
        clicks = click_distribution(state, D_Z, ClickDetectorConfig(apds=2),
                                    ClickDetectorConfig())
        with pytest.raises(ValueError):
            sample_clicks(clicks, 100, seed=0)

    def test_estimator_is_plug_in_moment(self):
        state = make_state(HomInputSpec(), cutoff=2)
        cfg_a = ClickDetectorConfig(apds=2, eta=0.8, nu=0.05)
        cfg_b = ClickDetectorConfig(apds=2, eta=0.8, nu=0.05)
        clicks = click_distribution(state, D_X, cfg_a, cfg_b)
        samples = sample_clicks(clicks, 4000, seed=5)
        empirical = ClickDistribution(
            samples.counts / 4000.0, D_X, cfg_a, cfg_b
        )
        for k in range(3):
            for l in range(3):
                est, err = estimate_mgf_from_samples(samples, k, l, cfg_a, cfg_b)
                ref = moments_from_clicks(empirical, k, l)
                assert est == pytest.approx(ref, abs=1e-12)
                assert err >= 0.0

    def test_estimator_concentrates(self):
        state = make_state(HomInputSpec(), cutoff=2)
        cfg = ClickDetectorConfig(apds=2, eta=0.7)
        clicks = click_distribution(state, D_X, cfg, cfg)
        samples = sample_clicks(clicks, 20000, seed=17)
        mu = moments_from_clicks(clicks, 1, 1)
        est, err = estimate_mgf_from_samples(samples, 1, 1, cfg, cfg)
        assert err < 0.02
        assert abs(est - mu) < 5.0 * err

    def test_shape_mismatch_rejected(self):
        state = make_state(HomInputSpec(), cutoff=2)
        cfg = ClickDetectorConfig(apds=2)
        clicks = click_distribution(state, D_X, cfg, cfg)
        samples = sample_clicks(clicks, 1000, seed=1)
        with pytest.raises(ValueError):
            estimate_mgf_from_samples(samples, 1, 1, ClickDetectorConfig(apds=3), cfg)


def test_n_total_is_the_count_sum():
    clicks = click_distribution(make_state(HomInputSpec(), cutoff=2), D_X,
                                ClickDetectorConfig(apds=2), ClickDetectorConfig(apds=2))
    samples = sample_clicks(clicks, 777, seed=5)
    assert samples.n_total == samples.counts.sum() == 777
    assert ClickSampleSet(counts=[[1, 2], [3, 4]], seed=0).n_total == 10


class TestSerialization:
    def test_clicks_json(self):
        state = make_state(VacuumSpec(), cutoff=2)
        cfg = ClickDetectorConfig(apds=1, nu=0.1)
        clicks = click_distribution(state, D_Z, cfg, cfg)
        obj = clicks_to_json(clicks)
        assert np.max(np.abs(np.array(obj["probabilities"]) - clicks.c)) < 1e-15
        assert obj["config_a"]["nu"] == 0.1
        assert obj["direction"] == [0.0, 0.0, 1.0]

    def test_samples_json(self):
        state = make_state(HomInputSpec(), cutoff=2)
        cfg = ClickDetectorConfig(apds=2)
        clicks = click_distribution(state, D_X, cfg, cfg)
        samples = sample_clicks(clicks, 1000, seed=3)
        obj = samples_to_json(samples)
        assert obj["n_total"] == 1000 and isinstance(obj["n_total"], int)
        assert obj["seed"] == 3
        assert int(np.sum(obj["counts"])) == 1000
