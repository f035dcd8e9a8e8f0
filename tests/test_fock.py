import json
import math

import numpy as np
import pytest
from scipy.special import gammainc, gammaincc, gammaln

from stokespace import (
    CoherentSpec,
    HomInputSpec,
    MixtureSpec,
    TmsvSpec,
    TruncationWarning,
    TwoModeState,
    VacuumSpec,
    auto_cutoff,
    beam_splitter,
    coherent_amplitudes,
    direction_from_tr,
    direction_to_beamsplitter,
    distribution_factorial_moment,
    joint_photon_distribution,
    make_state,
    mgf_closed_form,
    power_expectation,
    spec_from_json,
    spec_to_json,
    stokes_points,
)
from stokespace.fock import MeasurementDirection, _poisson_tails, _splitters
from conftest import (
    random_direction,
    random_low_state,
    splitter_oracle,
    stokes_mean,
)


def random_tr(rng):
    theta = rng.uniform(0.0, np.pi)
    phia, phib = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return np.cos(theta / 2.0) * np.exp(1j * phia), np.sin(theta / 2.0) * np.exp(
        1j * phib
    )


class TestBeamSplitter:
    def test_matches_exponentiated_generator(self, rng):
        # independent route: expm of the number-conserving generator
        for _ in range(6):
            T, R = random_tr(rng)
            state = random_low_state(rng, cutoff=6, n_max=6)
            out = beam_splitter(state, T, R)
            ref = splitter_oracle(state.components[0][1], T, R)
            assert np.max(np.abs(out.components[0][1] - ref)) < 1e-12
            assert out.leakage == 0.0

    def test_unitary_and_invertible(self, rng):
        T, R = random_tr(rng)
        state = random_low_state(rng, cutoff=7, n_max=7)
        out = beam_splitter(state, T, R)
        assert abs(out.trace - 1.0) < 1e-12
        back = beam_splitter(out, np.conj(T), -R)
        assert np.max(np.abs(back.components[0][1] - state.components[0][1])) < 1e-12

    def test_total_photon_number_invariant(self, rng):
        T, R = random_tr(rng)
        state = random_low_state(rng, cutoff=6, n_max=6)
        out = beam_splitter(state, T, R)

        def block_mass(amp):
            prob = np.abs(amp) ** 2
            c = amp.shape[0] - 1
            return np.array(
                [prob[np.arange(max(0, N - c), min(N, c) + 1),
                      N - np.arange(max(0, N - c), min(N, c) + 1)].sum()
                 for N in range(2 * c + 1)]
            )

        assert np.max(np.abs(block_mass(out.components[0][1])
                             - block_mass(state.components[0][1]))) < 1e-12

    def test_phase_only_fast_path(self, rng):
        T = np.exp(0.7j)
        state = random_low_state(rng, cutoff=5, n_max=5)
        out = beam_splitter(state, T, 0.0)
        ref = splitter_oracle(state.components[0][1], T, 0.0)
        assert np.max(np.abs(out.components[0][1] - ref)) < 1e-12
        # moduli untouched: only per-mode phases are applied
        assert np.max(
            np.abs(np.abs(out.components[0][1]) - np.abs(state.components[0][1]))
        ) < 1e-15
        assert out.leakage == 0.0

    def test_identity(self, rng):
        state = random_low_state(rng, cutoff=4, n_max=4)
        out = beam_splitter(state, 1.0, 0.0)
        assert np.array_equal(out.components[0][1], state.components[0][1])

    def test_nonunitary_parameters_rejected(self, rng):
        state = random_low_state(rng, cutoff=2, n_max=2)
        with pytest.raises(ValueError):
            beam_splitter(state, 0.9, 0.9)
        with pytest.raises(ValueError):  # just outside the 1e-9 window
            beam_splitter(state, 0.8, 0.6 * (1 + 1e-8))

    @pytest.mark.parametrize("scale", [1 - 4e-10, 1 + 4e-10])
    def test_raw_parameters_take_the_direction_rule(self, rng, scale):
        # |T|^2 + |R|^2 misses 1 by 8e-10: inside the 1e-9 window of
        # direction_from_tr, which renormalizes (T, R)
        state = random_low_state(rng, cutoff=4, n_max=4)
        T, R = 0.6 * scale * np.exp(0.3j), 0.8 * scale * np.exp(-1.1j)
        d = direction_from_tr(T, R)
        out = beam_splitter(state, T, R)
        ref = beam_splitter(state, d.T, d.R)
        assert np.max(np.abs(out.components[0][1] - ref.components[0][1])) <= 1e-15
        assert abs(out.trace - state.trace) < 1e-14

    def test_corner_support_leaks(self):
        # a photon pair at the truncation corner spills out of the box
        amp = np.zeros((3, 3), dtype=complex)
        amp[2, 2] = 1.0
        state = TwoModeState(cutoff=2, components=((1.0, amp),))
        out = beam_splitter(state, math.sqrt(0.5), math.sqrt(0.5))
        assert abs(out.trace + out.leakage - 1.0) < 1e-12
        assert out.leakage > 0.1


class TestPhotonStatistics:
    def test_coherent_outputs_factorize_as_poisson(self, rng):
        alpha, beta = 0.8 + 0.3j, -0.4 + 0.6j
        state = make_state(CoherentSpec(alpha, beta), cutoff=25)
        for _ in range(3):
            d = random_direction(rng)
            dist = joint_photon_distribution(state, d)
            S, S0 = stokes_points([alpha, beta])[0], abs(alpha) ** 2 + abs(beta) ** 2
            mean_a = 0.5 * (S0 + float(d.e @ S))
            mean_b = 0.5 * (S0 - float(d.e @ S))
            n = np.arange(26)
            pois_a = np.exp(-mean_a + n * np.log(mean_a) - [math.lgamma(i + 1) for i in n])
            pois_b = np.exp(-mean_b + n * np.log(mean_b) - [math.lgamma(i + 1) for i in n])
            assert dist.p.shape == (51, 51)
            assert np.max(np.abs(dist.p[:26, :26] - np.outer(pois_a, pois_b))) < 1e-10
            # the rest holds the blocks N > 25: at most the Poisson tail of the
            # output pair, plus the truncated input's missing mass, in norm
            ta, tb = gammainc(26, mean_a), gammainc(26, mean_b)
            tail = ta + tb - ta * tb
            assert dist.p[26:].sum() + dist.p[:26, 26:].sum() <= (
                math.sqrt(tail) + math.sqrt(state.leakage)) ** 2

    def test_hom_balanced_suppresses_coincidence(self):
        state = make_state(HomInputSpec(), cutoff=2)
        d = direction_to_beamsplitter([1.0, 0.0, 0.0])
        dist = joint_photon_distribution(state, d)
        assert abs(dist.p[1, 1]) < 1e-14
        assert abs(dist.p[2, 0] - 0.5) < 1e-14
        assert abs(dist.p[0, 2] - 0.5) < 1e-14

    def test_power_expectation_trace(self, rng):
        state = random_low_state(rng, cutoff=5, n_max=5)
        d = random_direction(rng)
        assert abs(power_expectation(state, d, 1.0, 1.0) - 1.0) < 1e-12

    def test_factorial_moments_tmsv(self):
        # thermal marginals: <n> = sinh^2 xi, <n(n-1)> = 2 <n>^2
        xi = 0.6
        state = make_state(TmsvSpec(xi), cutoff=40)
        d = direction_to_beamsplitter([0.0, 0.0, 1.0])
        dist = joint_photon_distribution(state, d)
        nbar = math.sinh(xi) ** 2
        assert abs(distribution_factorial_moment(dist, 1, 0) - nbar) < 1e-10
        assert abs(distribution_factorial_moment(dist, 2, 0) - 2 * nbar**2) < 1e-10
        # perfect pair correlation: <n_a n_b> = 2 <n>^2 + <n>
        assert abs(
            distribution_factorial_moment(dist, 1, 1) - (2 * nbar**2 + nbar)
        ) < 1e-10


class TestDirections:
    def test_pole_and_equator_conventions(self):
        north = direction_to_beamsplitter([0.0, 0.0, 1.0])
        assert north.T == 1.0 and north.R == 0.0
        south = direction_to_beamsplitter([0.0, 0.0, -1.0])
        assert abs(south.R - 1.0) < 1e-12 and abs(south.T) < 1e-12
        x = direction_to_beamsplitter([1.0, 0.0, 0.0])
        assert abs(x.T - math.sqrt(0.5)) < 1e-12
        assert abs(x.R - math.sqrt(0.5)) < 1e-12

    def test_axis_round_trip(self, rng):
        for _ in range(20):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            d = direction_to_beamsplitter(v)
            assert np.max(np.abs(d.e - v)) < 1e-12

    def test_the_axis_is_the_one_row_splitter_map_bit_for_bit(self, rng):
        # MeasurementDirection derives e from (T, R); the e columns of mgf.csv
        # and nctest.csv and the axis in clicks.json read it, so it must be
        # the axis that _splitters maps the same row to
        v = rng.normal(size=(2000, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        phi = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        equator = np.column_stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)])
        for e in np.vstack([v, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], equator]):
            assert np.array_equal(direction_to_beamsplitter(e).e, _splitters(e)[0][0])

    def test_the_axis_is_derived_not_given(self):
        d = MeasurementDirection(0.6, 0.8j)
        # e = (2 Re T R*, 2 Im T R*, |T|^2 - |R|^2)
        assert np.max(np.abs(d.e - (0.0, -0.96, -0.28))) <= 1e-15
        with pytest.raises(TypeError):
            MeasurementDirection(0.6, 0.8j, e=(0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            MeasurementDirection(0.6, 0.6)

    def test_slightly_off_unit_is_renormalized(self):
        d = direction_to_beamsplitter([1.0 + 5e-10, 0.0, 0.0])
        assert abs(np.linalg.norm(d.e) - 1.0) < 1e-15

    def test_invalid_axes_rejected(self):
        with pytest.raises(ValueError):
            direction_to_beamsplitter([0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            direction_to_beamsplitter([1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            direction_from_tr(0.9, 0.1)

    def test_phase_pairs_give_identical_statistics(self, rng):
        # any (T, R) with the same Stokes axis measures the same distribution
        state = random_low_state(rng, cutoff=6, n_max=6)
        for _ in range(5):
            d = random_direction(rng)
            canonical = direction_to_beamsplitter(d.e)
            p1 = joint_photon_distribution(state, d).p
            p2 = joint_photon_distribution(state, canonical).p
            assert np.max(np.abs(p1 - p2)) < 1e-12


class TestStokesMean:
    def test_coherent(self):
        alpha, beta = 0.7 + 0.2j, -0.3 + 0.5j
        S, S0 = stokes_mean(make_state(CoherentSpec(alpha, beta), cutoff=20))
        assert np.max(np.abs(S - stokes_points([alpha, beta])[0])) < 1e-10
        assert abs(S0 - (abs(alpha) ** 2 + abs(beta) ** 2)) < 1e-10

    def test_hom_and_tmsv_are_unpolarized(self):
        for spec, s0 in ((HomInputSpec(), 2.0), (TmsvSpec(0.5), 2 * math.sinh(0.5) ** 2)):
            S, S0 = stokes_mean(make_state(spec, cutoff=40))
            assert np.max(np.abs(S)) < 1e-10
            assert abs(S0 - s0) < 1e-9

    def test_consistent_with_distribution_means(self, rng):
        state = random_low_state(rng, cutoff=6, n_max=6)
        S, S0 = stokes_mean(state)
        for _ in range(4):
            d = random_direction(rng)
            dist = joint_photon_distribution(state, d)
            f10 = distribution_factorial_moment(dist, 1, 0)
            f01 = distribution_factorial_moment(dist, 0, 1)
            assert abs((f10 - f01) - float(d.e @ S)) < 1e-11
            assert abs((f10 + f01) - S0) < 1e-11


class TestSpecs:
    def test_json_round_trip(self):
        specs = [
            VacuumSpec(),
            CoherentSpec(1.0 + 0.5j, -0.25j),
            HomInputSpec(),
            TmsvSpec(0.45),
            MixtureSpec(((0.25, 1.0, 0.0), (0.75, 0.0 + 0.0j, 0.5 - 0.5j))),
        ]
        for spec in specs:
            again, cutoff = spec_from_json(spec_to_json(spec, cutoff=12))
            assert again == spec
            assert cutoff == 12
        # cutoff is optional in the serialized form
        assert spec_from_json(spec_to_json(VacuumSpec()))[1] is None

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError):
            spec_from_json({"kind": "unknown"})
        with pytest.raises(ValueError):
            MixtureSpec(((0.5, 1.0, 0.0),))  # weights must sum to 1

    @pytest.mark.parametrize("spec, text", [
        (VacuumSpec(), '{"kind": "vacuum"}'),
        (CoherentSpec(1.0 + 0.5j, -0.25j), '{"kind": "coherent", "alpha": '
         '{"re": 1.0, "im": 0.5}, "beta": {"re": -0.0, "im": -0.25}}'),
        (HomInputSpec(), '{"kind": "hom_input"}'),
        (TmsvSpec(0.45), '{"kind": "tmsv", "xi": 0.45}'),
        (MixtureSpec(((0.25, 1.0, 0.0), (0.75, 0.0, 0.5 - 0.5j))),
         '{"kind": "mixture", "components": [{"weight": 0.25, "alpha": '
         '{"re": 1.0, "im": 0.0}, "beta": {"re": 0.0, "im": 0.0}}, {"weight": 0.75, '
         '"alpha": {"re": 0.0, "im": 0.0}, "beta": {"re": 0.5, "im": -0.5}}]}'),
    ])
    def test_json_text_is_pinned(self, spec, text):
        # clicks.json and report.json echo this text
        assert json.dumps(spec_to_json(spec)) == text
        assert json.dumps(spec_to_json(spec, cutoff=12)) == text[:-1] + ', "cutoff": 12}'

    @pytest.mark.parametrize("obj", [
        {"kind": ["coherent"]},
        {"kind": "coherent", "beta": 0.0},
        {"kind": "coherent", "alpha": [1.0, 2.0], "beta": 0.0},
        {"kind": "coherent", "alpha": {"re": "x"}, "beta": 0.0},
        {"kind": "tmsv"},
        {"kind": "tmsv", "xi": [0.5]},
        {"kind": "mixture", "components": [{"weight": 1.0, "alpha": 0.0}]},
        {"kind": "mixture", "components": [[1.0, 0.0, 0.0]]},
        {"kind": "vacuum", "cutoff": [3]},
    ])
    def test_malformed_json_raises_value_error(self, obj):
        with pytest.raises(ValueError):
            spec_from_json(obj)

    def test_auto_cutoff_is_minimal_for_coherent(self):
        spec = CoherentSpec(1.5, 0.9j)
        c = auto_cutoff(spec, bound=1e-10)
        assert make_state(spec, cutoff=c).leakage < 1e-10
        with pytest.warns(TruncationWarning):
            make_state(spec, cutoff=c - 1)

    def test_auto_cutoff_matches_the_gammaincc_loop(self):
        def reference(alpha, beta, bound=1e-10, max_cutoff=512):
            for c in range(2, max_cutoff + 1):
                qa = gammaincc(c + 1, abs(alpha) ** 2)
                qb = gammaincc(c + 1, abs(beta) ** 2)
                if max(0.0, 1.0 - qa * qb) < bound:
                    return c
            return max_cutoff

        for alpha in np.linspace(0.0, 12.0, 241):
            for beta in (0.0, 0.5, 3.0):
                assert auto_cutoff(CoherentSpec(alpha, beta)) == reference(alpha, beta)

    @pytest.mark.parametrize("bound", [math.nan, -1.0, 0.0])
    def test_auto_cutoff_rejects_a_bound_that_is_not_positive(self, bound):
        # NaN and -1 returned the cap, 512, without a word
        with pytest.raises(ValueError, match="leakage bound must be > 0"):
            auto_cutoff(CoherentSpec(1.0, 0.5), bound)

    def test_poisson_tail_matches_regularized_gamma(self):
        c = np.arange(601)
        for mu in np.geomspace(1e-6, 300.0, 60):
            ref = gammainc(c + 1, mu)  # P(N >= C + 1)
            keep = ref >= 1e-300
            got = _poisson_tails(mu, 600)
            assert np.all(np.abs(got[keep] - ref[keep]) <= 1e-11 * ref[keep])

    def test_poisson_tails_far_above_the_cutoff_are_summed_from_below(self, monkeypatch):
        # at mu = 1e6 the terms ran to mu + 10 sqrt(mu) + 40: 1.7 s and 57 MB
        # for auto_cutoff to return the cap
        import stokespace.fock as fock

        sizes, original = [], fock._log_factorials
        monkeypatch.setattr(fock, "_log_factorials",
                            lambda n: sizes.append(n) or original(n))
        assert auto_cutoff(CoherentSpec(1000.0, 0.0)) == 512
        assert auto_cutoff(MixtureSpec(((0.5, 1e4, 0.0), (0.5, 0.1, 0.2)))) == 512
        assert max(sizes) <= 512 + 10.0 * math.sqrt(513.0) + 41
        assert np.all(_poisson_tails(1e6, 512) == 1.0)  # 1 to double precision
        c = np.arange(601)
        for mu in (601.5, 700.0, 1500.0):
            ref = gammainc(c + 1, mu)
            got = _poisson_tails(mu, 600)
            assert np.all(np.abs(got - ref) <= 1e-11 * ref)

    def test_coherent_leakage_keeps_tiny_tails(self):
        # 1 - P(N_a <= C) P(N_b <= C) cancels to rounding noise down here
        alpha, beta = 1.5, 0.9j
        for cutoff in (25, 40, 60):
            ta = gammainc(cutoff + 1, abs(alpha) ** 2)
            tb = gammainc(cutoff + 1, abs(beta) ** 2)
            ref = ta + tb - ta * tb
            leak = make_state(CoherentSpec(alpha, beta), cutoff).leakage
            assert abs(leak - ref) <= 1e-11 * ref

    def test_tmsv_squeezing_must_fit_a_double(self):
        # tanh(xi) rounds to 1 from about 19.06 on: no cutoff holds the state
        for xi in (19.1, 20.0, math.inf):
            with pytest.raises(ValueError, match="too large"):
                TmsvSpec(xi)
            with pytest.raises(ValueError, match="too large"):
                spec_from_json({"kind": "tmsv", "xi": xi})
        assert 2 <= auto_cutoff(TmsvSpec(19.0)) <= 512

    def test_auto_cutoff_tmsv(self):
        spec = TmsvSpec(0.55)
        c = auto_cutoff(spec, bound=1e-10)
        assert math.tanh(0.55) ** (2 * (c + 1)) < 1e-10
        assert math.tanh(0.55) ** (2 * c) >= 1e-10

    def test_auto_cutoff_tmsv_matches_the_log_formula(self):
        def reference(xi, bound):  # tanh(xi)^(2 (c + 1)) < bound solved for c
            kappa = math.tanh(xi)
            if kappa == 0.0:
                return 2
            c = int(math.ceil(math.log(bound) / (2.0 * math.log(kappa)) - 1.0))
            return min(max(2, c), 512)

        for xi in np.r_[0.0, np.geomspace(1e-9, 19.0, 1500)]:
            for bound in (1e-3, 1e-10, 1e-20):
                assert auto_cutoff(TmsvSpec(xi), bound) == reference(xi, bound)

    def test_auto_cutoff_holds_every_component_below_bound(self, rng):
        # the leakage of a mixture is weighted, its cutoff is that of the
        # worst component, whatever its weight
        rare = MixtureSpec(((0.999, 0.1, 0.0), (0.001, 3.0, 1j)))
        assert auto_cutoff(rare) == auto_cutoff(CoherentSpec(3.0, 1j)) > auto_cutoff(
            CoherentSpec(0.1, 0.0))
        for bound in (1e-3, 1e-10, 1e-20):
            for n in (1, 2, 3):
                w = rng.dirichlet(np.ones(n))
                w[-1] = 1.0 - w[:-1].sum()
                comps = tuple((float(x), *(rng.normal(0, 3, 2) @ (1, 1j) for _ in "ab"))
                              for x in w)
                single = [auto_cutoff(CoherentSpec(a, b), bound) for _, a, b in comps]
                assert auto_cutoff(MixtureSpec(comps), bound) == max(single)
        assert auto_cutoff(HomInputSpec()) == auto_cutoff(VacuumSpec()) == 2

    def test_truncation_warning_reports_leakage(self):
        with pytest.warns(TruncationWarning):
            state = make_state(CoherentSpec(2.0, 0.0), cutoff=4)
        assert state.leakage > 1e-3
        assert abs(state.trace + state.leakage - 1.0) < 1e-6

    @pytest.mark.parametrize("specs", [
        (VacuumSpec(), CoherentSpec(0.0, 0.0), MixtureSpec(((1.0, 0.0, 0.0),))),
        (CoherentSpec(1.2, 0.5 - 0.3j), MixtureSpec(((1.0, 1.2, 0.5 - 0.3j),))),
    ])
    def test_coherent_family_specs_agree_bit_for_bit(self, specs):
        def bits(spec):
            c = auto_cutoff(spec)
            state = make_state(spec, c)
            axes = ((1.0, 0.0, 0.0), (0.0, 0.6, -0.8))
            closed = [mgf_closed_form(spec, direction_to_beamsplitter(e), t, tau)
                      for e in axes for t, tau in ((0.3, 0.5), (-0.2 + 0.7j, 0.1))]
            return (c, state.leakage, [w for w, _ in state.components],
                    [amp.tobytes() for _, amp in state.components],
                    np.array(closed).tobytes())

        first = bits(specs[0])
        for spec in specs[1:]:
            assert bits(spec) == first


class TestCoherentAmplitudes:
    @pytest.mark.parametrize("alpha", [1e-3, 0.3, 1 + 2j, 5.0, 10 - 3j, -14.9, 15j])
    def test_match_the_gammaln_formula(self, alpha):
        r = abs(alpha)
        for cutoff in (0, 1, 10, 100, 200, 300, 400):
            n = np.arange(cutoff + 1)
            log_mag = n * math.log(r) - 0.5 * r * r - 0.5 * gammaln(n + 1.0)
            ref = np.exp(log_mag + 1j * n * np.angle(alpha))
            got = coherent_amplitudes(alpha, cutoff)
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-300)

    def test_vacuum_amplitudes(self):
        assert np.array_equal(coherent_amplitudes(0.0, 5), np.eye(6)[0])

    def test_an_array_gives_the_scalar_rows(self, rng):
        alphas = np.r_[rng.normal(0, 3, 39) + 1j * rng.normal(0, 3, 39), 0, 14, -15j]
        rows = coherent_amplitudes(alphas.reshape(3, -1), 120)
        assert rows.shape == (3, alphas.size // 3, 121)
        for alpha, row in zip(alphas, rows.reshape(-1, 121)):
            assert np.array_equal(row, coherent_amplitudes(alpha, 120))
        assert np.array_equal(coherent_amplitudes([0.0, 0j], 5), [np.eye(6)[0]] * 2)
        # |alpha|^n overflows at the auto cutoff of |alpha| = 14; the rows do not
        rows = coherent_amplitudes([14, 14j, -14], auto_cutoff(CoherentSpec(14, 0)))
        assert np.all(np.isfinite(rows))
        assert np.allclose(np.sum(np.abs(rows) ** 2, axis=1), 1.0, rtol=0, atol=1e-9)

    def test_large_amplitude_at_its_auto_cutoff_stays_finite(self):
        # |alpha|^n overflows at this cutoff; the amplitudes do not
        spec = CoherentSpec(15.0, 0.0)
        state = make_state(spec, auto_cutoff(spec))
        assert abs(state.trace + state.leakage - 1.0) < 1e-12


class TestDensityMatrix:
    def test_coherent_amplitudes_normalized(self):
        amp = coherent_amplitudes(1.2 - 0.4j, 60)
        assert abs(np.sum(np.abs(amp) ** 2) - 1.0) < 1e-12
