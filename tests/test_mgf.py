import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

import stokespace.fock as fock

from stokespace import (
    CoherentSpec,
    HomInputSpec,
    MgfQuery,
    MixtureSpec,
    NumericalError,
    QuadratureError,
    ReachError,
    TOL,
    TmsvSpec,
    TruncationWarning,
    TwoModeState,
    VacuumSpec,
    auto_cutoff,
    beam_splitter,
    coherent_amplitudes,
    direction_to_beamsplitter,
    find_node,
    husimi_q,
    joint_photon_distribution,
    make_state,
    mgf,
    mgf_closed_form,
    mgf_from_distribution,
    mgf_via_husimi_quadrature,
    power_expectation,
    sphere_grid,
    surface_map,
)
from conftest import random_direction, random_low_state


def random_wedge_point(rng, tau_max=0.8):
    # a point satisfying |Re t| <= tau, where every state has a finite value
    tau = rng.uniform(0.0, tau_max)
    t = rng.uniform(-tau, tau) + 1j * rng.uniform(-1.0, 1.0)
    return t, tau


def tmsv_reach_points(rng, r_max, n):
    """n real t outside the wedge |t| <= min(tau, 1 - tau) and n imaginary t,
    as (kind, t, tau), all with max(|1 + t - tau|, |1 - t - tau|) <= r_max."""
    points = []
    while len(points) < n:
        tau, t = rng.uniform(0.0, 2.0), rng.uniform(-r_max, r_max)
        if abs(1.0 - tau) + abs(t) <= r_max and abs(t) > min(tau, 1.0 - tau):
            points.append(("real", t, tau))
    while len(points) < 2 * n:
        tau, k = rng.uniform(0.0, 2.0), rng.uniform(-r_max, r_max)
        if (1.0 - tau) ** 2 + k * k <= r_max**2:
            points.append(("imaginary", 1j * k, tau))
    return points


class TestClosedFormAgreement:
    def test_vacuum(self, rng):
        state = make_state(VacuumSpec(), cutoff=2)
        for _ in range(10):
            d = random_direction(rng)
            t, tau = random_wedge_point(rng)
            assert mgf(state, MgfQuery(d, t, tau)) == pytest.approx(1.0, abs=1e-14)

    def test_coherent(self, rng):
        spec = CoherentSpec(0.9 + 0.2j, 0.4 - 0.7j)
        state = make_state(spec, cutoff=30)
        for _ in range(40):
            d = random_direction(rng)
            t, tau = random_wedge_point(rng)
            lhs = mgf(state, MgfQuery(d, t, tau))
            rhs = mgf_closed_form(spec, d, t, tau)
            assert abs(lhs - rhs) < 1e-8

    def test_mixture(self, rng):
        spec = MixtureSpec(((0.3, 1.1, 0.2j), (0.7, -0.5 + 0.5j, 0.8)))
        state = make_state(spec, cutoff=30)
        for _ in range(25):
            d = random_direction(rng)
            t, tau = random_wedge_point(rng)
            assert abs(
                mgf(state, MgfQuery(d, t, tau)) - mgf_closed_form(spec, d, t, tau)
            ) < 1e-8

    @pytest.mark.parametrize("spec, axis, t, tau, expected", [
        (CoherentSpec(30.0, 0.0), [0.0, 0.0, 1.0], 1.0, 1.0, 1.0),
        (CoherentSpec(20.0, 20.0), [1.0, 0.0, 0.0], 1.0 + 3.0j, 1.0, np.exp(2400j)),
        (MixtureSpec(((0.5, 30.0, 0.0), (0.5, 0.0, 15j))), [0.0, 0.0, 1.0], 50.0, 50.0, 0.5),
    ], ids=["coherent-z", "coherent-x-complex-t", "mixture-t-tau-50"])
    def test_a_bright_point_set_stays_finite_at_re_t_equal_tau(self, spec, axis, t, tau,
                                                               expected):
        # t e.S - tau |S| is 0 here, while exp(t e.S) overflows and
        # exp(-tau |S|) underflows: a product of the two gave nan
        d = direction_to_beamsplitter(axis)
        assert mgf_closed_form(spec, d, t, tau) == pytest.approx(expected, rel=1e-12)

    def test_hom_any_complex_t(self, rng):
        spec = HomInputSpec()
        state = make_state(spec, cutoff=4)
        for _ in range(40):
            d = random_direction(rng)
            t = rng.uniform(-3.0, 3.0) + 1j * rng.uniform(-3.0, 3.0)
            tau = rng.uniform(0.0, 1.5)
            assert abs(
                mgf(state, MgfQuery(d, t, tau)) - mgf_closed_form(spec, d, t, tau)
            ) < 1e-12

    def test_tmsv_in_validity_domain(self, rng):
        spec = TmsvSpec(0.55)
        state = make_state(spec, cutoff=60)
        for _ in range(40):
            d = random_direction(rng)
            tau = rng.uniform(0.0, 0.5)
            t = rng.uniform(-tau, tau)  # keeps 0 <= tau -+ t <= 1
            lhs = mgf(state, MgfQuery(d, t, tau))
            rhs = mgf_closed_form(spec, d, t, tau)
            assert abs(lhs - rhs) < 1e-10 * abs(rhs) + 1e-10

    def test_tmsv_closed_form_domain_errors(self):
        spec = TmsvSpec(0.5)  # reach 1/tanh 0.5 = 2.164
        d = direction_to_beamsplitter([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="real or an imaginary t"):
            mgf_closed_form(spec, d, 0.3 + 0.1j, 0.3)
        dist = joint_photon_distribution(make_state(spec, cutoff=120), d)
        # z = (1.7, 0.1): past the old wedge 0 <= tau -+ t <= 1, inside the reach
        assert mgf_closed_form(spec, d, 0.8, 0.1) == pytest.approx(
            mgf_from_distribution(dist, 0.8, 0.1), rel=1e-13)
        for t in (2.0, 2.5j):  # |z| = 3 and 2.69 at tau = 0
            with pytest.raises(ReachError) as series:
                mgf_from_distribution(dist, t, 0.0)
            with pytest.raises(ReachError) as closed:
                mgf_closed_form(spec, d, t, 0.0)
            assert str(closed.value) == str(series.value)

    def test_tmsv_closed_form_is_the_series_inside_the_reach(self, rng):
        # real t outside the old wedge and imaginary t, each at max|z| <= 0.9
        # reach, on and off the z axis; cutoff 200 leaves a tail below 0.9^400
        errors = {"real": [], "imaginary": []}
        for xi in rng.uniform(0.2, 0.9, size=4):
            spec = TmsvSpec(xi)
            r_max = 0.9 * spec.reach
            state = make_state(spec, cutoff=200)
            for d in (direction_to_beamsplitter([0.0, 0.0, 1.0]),
                      random_direction(rng), random_direction(rng)):
                dist = joint_photon_distribution(state, d)
                for kind, t, tau in tmsv_reach_points(rng, r_max, 9):
                    want = mgf_closed_form(spec, d, t, tau)
                    got = mgf_from_distribution(dist, t, tau)
                    errors[kind].append(abs(got - want) / abs(want))
        assert len(errors["real"]) == len(errors["imaginary"]) == 108
        assert max(map(max, errors.values())) <= 1e-13


class TestMgfStructure:
    def test_trace_at_origin(self, rng):
        state = random_low_state(rng, cutoff=6, n_max=6)
        d = random_direction(rng)
        assert abs(mgf(state, MgfQuery(d, 0.0, 0.0)) - 1.0) < 1e-10

    def test_conjugate_symmetry(self, rng):
        state = random_low_state(rng, cutoff=6, n_max=6)
        for _ in range(10):
            d = random_direction(rng)
            t, tau = random_wedge_point(rng)
            a = mgf(state, MgfQuery(d, t, tau))
            b = mgf(state, MgfQuery(d, np.conj(t), tau))
            assert abs(a - np.conj(b)) < 1e-12

    def test_tau_monotone_for_classical_mixture(self):
        spec = MixtureSpec(((0.5, 1.0, 0.3), (0.5, 0.2, -0.8j)))
        state = make_state(spec, cutoff=25)
        d = direction_to_beamsplitter([0.0, 1.0, 0.0])
        taus = np.linspace(0.05, 0.9, 12)
        vals = [mgf(state, MgfQuery(d, 0.05, tau)).real for tau in taus]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_existence_flag(self, rng):
        # a query outside the existence wedge |Re t| <= tau is accepted (the
        # kernel sums warn instead); a negative damping is not
        d = random_direction(rng)
        MgfQuery(d, 0.5, 0.3)
        with pytest.raises(ValueError):
            MgfQuery(d, 0.0, -0.1)

    def test_from_distribution_matches(self, rng):
        state = random_low_state(rng, cutoff=5, n_max=5)
        d = random_direction(rng)
        dist = joint_photon_distribution(state, d)
        t, tau = random_wedge_point(rng)
        assert mgf_from_distribution(dist, t, tau) == pytest.approx(
            mgf(state, MgfQuery(d, t, tau)), abs=1e-14
        )

    def test_from_distribution_broadcasts(self, rng):
        state = random_low_state(rng, cutoff=5, n_max=5)
        d = random_direction(rng)
        dist = joint_photon_distribution(state, d)
        ts = np.array([-0.3, 0.1 + 0.4j, 0.25])
        taus = np.array([0.0, 0.3, 0.6, 1.2])
        grid = mgf_from_distribution(dist, ts[:, None], taus[None, :])
        assert grid.shape == (3, 4)
        for i, t in enumerate(ts):
            for j, tau in enumerate(taus):
                assert grid[i, j] == pytest.approx(
                    mgf_from_distribution(dist, t, tau), abs=1e-14
                )

    def test_from_distribution_rejects_negative_tau(self, rng):
        dist = joint_photon_distribution(
            random_low_state(rng, cutoff=3, n_max=3), random_direction(rng)
        )
        with pytest.raises(ValueError):
            mgf_from_distribution(dist, 0, -0.5)
        with pytest.raises(ValueError):
            mgf_from_distribution(dist, [0.0, 0.1], [0.2, -1e-3])

    def test_kernel_powers_overflow_alike_on_both_routes(self):
        # at the cap of 512 photons a mode, |z_a| = 2 overflows at the power
        # 2 * 512; on the z axis the counts reach only 512 a mode, and the
        # streamed sum read p(0, 0) = 4.5e-7 where the distribution raised
        with pytest.warns(TruncationWarning):
            state = make_state(TmsvSpec(8.0), auto_cutoff(TmsvSpec(8.0)))
        assert state.cutoff == 512
        pole, axis = (direction_to_beamsplitter(e) for e in ((0, 0, 1), (0.6, 0, 0.8)))
        dist = joint_photon_distribution(state, pole)
        calls = [lambda: mgf(state, MgfQuery(pole, 1.0, 0.0)),
                 lambda: mgf_from_distribution(dist, 1.0, 0.0),
                 lambda: mgf(state, MgfQuery(axis, 1.0, 0.0)),
                 lambda: surface_map(state, 1.0, 0.0, [(0, 0, 1), (0, 0, -1)])]
        # overflow is the first kernel rule: the reach (1 + 2e-7) and the
        # truncation warning, which |z_a| = 2 also fails, are not reached
        for call in calls:
            with pytest.raises(NumericalError, match="not finite") as err:
                call()
            assert not isinstance(err.value, ReachError)

    def test_a_kernel_at_the_reach_raises_before_any_rotation(self, monkeypatch):
        # P(2n) = (1 - k^2) k^2n with k = tanh xi, so the series converges
        # for |z| < 1/k: at xi = 0.5 the reach is 2.164, and the truncated
        # sums past it wrote a mass of -85842
        state = make_state(TmsvSpec(0.5), 40)
        kappa = math.tanh(0.5)
        assert state.reach == 1.0 / kappa
        axis = direction_to_beamsplitter((0.6, 0.0, 0.8))
        # just inside: z_a = z_b = z weighs block N by z^N, so the sum is
        # that of the diagonal terms (1 - k^2) (k z)^2n up to the cutoff
        z = np.nextafter(state.reach, 0.0)
        want = sum((1 - kappa**2) * (kappa * z) ** (2 * n) for n in range(41))
        assert power_expectation(state, axis, z, z) == pytest.approx(want, rel=1e-12)
        dist = joint_photon_distribution(state, axis)
        assert dist.reach == state.reach
        rows, count_rows = [], fock._count_rows
        monkeypatch.setattr(fock, "_count_rows", lambda *a: rows.append(a) or count_rows(*a))
        t = state.reach - 1.0 + 1e-3
        for call in (lambda: power_expectation(state, axis, state.reach, 0.0),
                     lambda: power_expectation(state, axis, 0.5, -state.reach),
                     lambda: mgf(state, MgfQuery(axis, t, 0.0)),
                     lambda: surface_map(state, t, 0.0, sphere_grid(3, 4)),
                     lambda: mgf_from_distribution(dist, [0.0, t], 0.0)):
            with pytest.raises(ReachError, match=r">= reach 2\.164$"):
                call()
        assert rows == []  # no rotation ran

    def test_query_coordinates(self):
        z_a, z_b = sys.modules["stokespace.mgf"]._kernels(0.2 + 0.1j, 0.5)
        assert z_a == pytest.approx(0.7 + 0.1j)
        assert z_b == pytest.approx(0.3 - 0.1j)


def char_fn(state, k):
    """Phi(k) = M(i k; 0), read by mgf along the axis of k."""
    k = np.asarray(k, dtype=float)
    d = direction_to_beamsplitter(k / np.linalg.norm(k))
    return mgf(state, MgfQuery(d, 1j * np.linalg.norm(k), 0.0))


class TestCharFn:
    def test_origin_is_the_norm(self, rng):
        state = random_low_state(rng, cutoff=4, n_max=4)
        for _ in range(4):
            value = mgf(state, MgfQuery(random_direction(rng), 0j, 0.0))
            assert abs(value - 1.0) < 1e-13

    def test_coherent_modulus_one(self, rng):
        state = make_state(CoherentSpec(0.6, 0.3 - 0.2j), cutoff=25)
        for _ in range(8):
            k = rng.normal(size=3)
            assert abs(abs(char_fn(state, k)) - 1.0) < 1e-8

    def test_hom_closed_form(self):
        state = make_state(HomInputSpec(), cutoff=3)
        # along z: 1 + (1 - 2) (i k)^2 = 1 + k^2
        assert char_fn(state, [0.0, 0.0, 1.3]).real == pytest.approx(1.0 + 1.3**2)
        # along x: 1 + (i k)^2 = 1 - k^2
        assert char_fn(state, [0.7, 0.0, 0.0]).real == pytest.approx(1.0 - 0.49)

    def test_reflection_conjugates(self, rng):
        state = random_low_state(rng, cutoff=5, n_max=5)
        k = rng.normal(size=3)
        assert char_fn(state, -k) == pytest.approx(
            np.conj(char_fn(state, k)), abs=1e-12
        )


class TestSurfaceMap:
    def test_sphere_grid_shape_and_norms(self):
        axes = sphere_grid(5, 8)
        assert axes.shape == (40, 3)
        assert np.max(np.abs(np.linalg.norm(axes, axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(axes[:8] - [0.0, 0.0, 1.0])) < 1e-12  # north rows
        assert np.max(np.abs(axes[-8:] - [0.0, 0.0, -1.0])) < 1e-12

    def test_sphere_grid_matches_scalar_loop(self):
        for n_theta in (2, 3, 5, 8, 17, 39):
            for n_phi in (1, 2, 3, 7, 16, 69):
                ref = []
                for th in np.linspace(0.0, np.pi, n_theta):
                    st, ct = math.sin(th), math.cos(th)
                    for ph in np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False):
                        ref.append((st * math.cos(ph), st * math.sin(ph), ct))
                grid = sphere_grid(n_theta, n_phi)
                assert np.max(np.abs(grid - ref)) <= 2e-16, (n_theta, n_phi)

    def test_real_t_maps_radially(self):
        state = make_state(HomInputSpec(), cutoff=3)
        samples = surface_map(state, t=math.sqrt(2.0), tau=0.0, axes=sphere_grid(3, 4))
        for s in samples:
            assert isinstance(s.value, float)
            assert np.max(np.abs(s.mapped - s.value * s.e)) < 1e-12
        # poles pinch to zero, equator bulges to 1 + t^2 = 3
        assert samples[0].value == pytest.approx(-1.0)
        assert samples[4].value == pytest.approx(3.0)

    def test_complex_t_keeps_complex_values(self):
        state = make_state(CoherentSpec(0.8, 0.1), cutoff=20)
        (s,) = surface_map(state, t=0.2 + 0.4j, tau=0.3, axes=[[0.0, 0.0, 1.0]])
        assert abs(s.value.imag) > 1e-6
        assert s.mapped.dtype == complex


class TestHusimiQuadrature:
    def test_matches_fock_route(self, rng):
        cases = [
            (make_state(CoherentSpec(0.7, 0.4j), cutoff=25), 0.15, 0.3),
            (make_state(HomInputSpec(), cutoff=4), -0.2, 0.45),
            (make_state(TmsvSpec(0.4), cutoff=40), 0.1, 0.25),
        ]
        for state, t, tau in cases:
            d = random_direction(rng)
            q = mgf_via_husimi_quadrature(state, d, t, tau)
            ref = mgf(state, MgfQuery(d, t, tau)).real
            assert abs(q - ref) < 1e-8 * max(1.0, abs(ref))

    def test_q_is_taken_in_blocks_of_alpha_rows(self, monkeypatch):
        # the node weights contract Q block by block, so no m x m grid is held
        module = sys.modules["stokespace.mgf"]
        state = beam_splitter(make_state(TmsvSpec(0.4), cutoff=12), 0.8, 0.6j)
        pts_a, w_a = module._mode_nodes(0.2, 12, 16, 19)
        pts_b, w_b = module._mode_nodes(0.4, 12, 16, 19)
        whole = w_a @ husimi_q(state, pts_a, pts_b) @ w_b
        rows, q = [], module.husimi_q
        monkeypatch.setattr(module, "husimi_q",
                            lambda s, a, b: rows.append(len(a)) or q(s, a, b))
        monkeypatch.setattr(module, "_BUFFER_DOUBLES", 13 * 40)  # 40 rows at cutoff 12
        got = module._husimi_quadrature_value(state, 0.2, 0.4, 16, 19)
        assert rows == [40] * 7 + [16 * 19 - 280]
        assert abs(got - whole) <= 1e-15 * abs(whole)

    def test_rejects_nonintegrable_kernel(self, rng):
        state = make_state(VacuumSpec(), cutoff=2)
        d = random_direction(rng)
        with pytest.raises(ValueError):
            mgf_via_husimi_quadrature(state, d, 0.5, 0.2)  # lambda_a < 0
        with pytest.raises(ValueError):
            mgf_via_husimi_quadrature(state, d, 0.0, 1.0)  # lambda = 1

    def test_unconverged_quadrature_raises(self, monkeypatch):
        state = make_state(TmsvSpec(0.8), cutoff=60)
        d = direction_to_beamsplitter([0.0, 0.0, 1.0])
        # stokespace.mgf is the re-exported function; the module is here
        monkeypatch.setattr(sys.modules["stokespace.mgf"], "_N_RADIAL", 3)
        with pytest.raises(QuadratureError):
            mgf_via_husimi_quadrature(state, d, 0.0, 0.02)

    def test_husimi_q_normalization(self):
        # int Q d^2a d^2b = 1, checked on a coarse product quadrature
        from stokespace import husimi_q

        state = make_state(CoherentSpec(0.5, 0.0), cutoff=15)
        xs, ws = np.polynomial.legendre.leggauss(40)
        lim = 4.0
        xs, ws = lim * xs, lim * ws
        q = 0.0
        for xa in range(40):
            for ya in range(40):
                alpha = xs[xa] + 1j * xs[ya]
                inner = husimi_q(state, alpha, 0.0)
                q += ws[xa] * ws[ya] * inner
        # the beta integral contributes pi for the vacuum mode; fold it in
        assert q * math.pi == pytest.approx(1.0, abs=1e-6)

    def test_husimi_q_on_arrays_is_the_product_grid(self, rng):
        from stokespace import husimi_q

        spec = MixtureSpec(((0.4, 0.9 - 0.3j, 0.2), (0.6, -0.5, 1.1j)))
        state = make_state(spec, 25)
        alphas = rng.normal(0, 1.5, 7) + 1j * rng.normal(0, 1.5, 7)
        betas = np.r_[rng.normal(0, 1.5, 4) + 1j * rng.normal(0, 1.5, 4), 0.0]
        q = husimi_q(state, alphas, betas)
        assert q.shape == (7, 5)
        for (i, j), value in np.ndenumerate(q):
            scalar = husimi_q(state, alphas[i], betas[j])
            assert type(scalar) is float
            assert abs(value - scalar) <= 1e-13 * scalar + 1e-18  # BLAS order only

    def test_quadrature_reads_q_through_husimi_q(self, monkeypatch, rng):
        mgf_module = sys.modules["stokespace.mgf"]
        shapes = []
        q = mgf_module.husimi_q
        monkeypatch.setattr(mgf_module, "husimi_q", lambda s, a, b:
                            shapes.append((a.shape, b.shape)) or q(s, a, b))
        state = make_state(CoherentSpec(0.7, 0.4j), cutoff=12)
        mgf_via_husimi_quadrature(state, random_direction(rng), 0.1, 0.3)
        # the coarse and the fine node sets, each one product grid
        assert shapes == [((48 * 27,), (48 * 27,)), ((64 * 31,), (64 * 31,))]


class TestFindNode:
    def test_hom_node_along_z(self):
        state = make_state(HomInputSpec(), cutoff=3)
        d = direction_to_beamsplitter([0.0, 0.0, 1.0])
        node = find_node(state, d, tau=0.0, t_interval=(0.2, 2.0))
        assert node == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("source, axis, tau", [
        ("hom", [0.0, 0.0, 1.0], 0.3),
        ("superposition", [0.0, 1.0, 0.0], 0.2),
    ])
    def test_bisection_agrees_with_brentq(self, source, axis, tau):
        if source == "hom":
            state = make_state(HomInputSpec(), cutoff=3)
        else:
            # |1.2, 0> - |0, 0.8i>, which has a sign change near t = 0.87
            vac = coherent_amplitudes(0.0, 30)
            amp = (np.outer(coherent_amplitudes(1.2, 30), vac)
                   - np.outer(vac, coherent_amplitudes(0.8j, 30)))
            state = TwoModeState(30, ((1.0, amp / np.linalg.norm(amp)),))
        d = direction_to_beamsplitter(axis)
        dist = joint_photon_distribution(state, d)

        def f(t):
            return mgf_from_distribution(dist, t, tau).real

        ts = np.linspace(-3.0, 3.0, TOL.node_scan_points)
        vals = [f(t) for t in ts]
        i = next(i for i in range(len(ts) - 1) if vals[i] * vals[i + 1] < 0.0)
        ref = brentq(f, ts[i], ts[i + 1], xtol=TOL.node_xtol)
        node = find_node(state, d, tau=tau, t_interval=(-3.0, 3.0))
        assert abs(node - ref) <= TOL.node_xtol

    def test_hom_no_node_along_x(self):
        state = make_state(HomInputSpec(), cutoff=3)
        d = direction_to_beamsplitter([1.0, 0.0, 0.0])
        assert find_node(state, d, tau=0.0, t_interval=(0.0, 3.0)) is None

    def test_coherent_has_no_node(self):
        state = make_state(CoherentSpec(0.9, 0.2), cutoff=25)
        d = direction_to_beamsplitter([0.0, 0.0, 1.0])
        assert find_node(state, d, tau=0.1, t_interval=(-0.1, 0.1)) is None

    def test_interval_validation(self):
        state = make_state(HomInputSpec(), cutoff=3)
        d = direction_to_beamsplitter([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            find_node(state, d, tau=0.0, t_interval=(1.0, 1.0))

    @pytest.mark.parametrize("tau, interval", [
        (0.2, (0.0, math.inf)),
        (0.2, (math.nan, 1.0)),
        (-0.1, (0.0, 1.0)),
        (math.nan, (0.0, 1.0)),
    ], ids=["infinite-end", "nan-end", "negative-tau", "nan-tau"])
    def test_bad_input_is_rejected_before_the_distribution(self, monkeypatch, tau,
                                                           interval):
        calls = []
        monkeypatch.setattr(sys.modules["stokespace.mgf"], "joint_photon_distribution",
                            lambda *a: calls.append(a))
        state = make_state(HomInputSpec(), cutoff=3)
        d = direction_to_beamsplitter([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            find_node(state, d, tau, interval)
        assert calls == []

    def test_scan_and_narrow_takes_at_most_six_kernel_sums(self, monkeypatch):
        mgf_module = sys.modules["stokespace.mgf"]
        calls = []
        inner = mgf_module.mgf_from_distribution
        monkeypatch.setattr(mgf_module, "mgf_from_distribution",
                            lambda *a: calls.append(a) or inner(*a))
        state = make_state(HomInputSpec(), cutoff=3)
        d = direction_to_beamsplitter([0.0, 0.0, 1.0])
        # M = (1 - tau)^2 - t^2 along z: the first node is at t = -0.7
        node = find_node(state, d, tau=0.3, t_interval=(-3.0, 3.0))
        assert node == pytest.approx(-0.7, abs=TOL.node_xtol)
        assert 1 <= len(calls) <= 6

    def test_an_exact_zero_at_a_scan_point_is_that_point(self):
        state = make_state(HomInputSpec(), cutoff=3)
        d = direction_to_beamsplitter([0.0, 0.0, 1.0])
        # M = 1 - t^2 along z is exactly 0 at t = 1, scan point 256 here
        t_max = (TOL.node_scan_points - 1) / 256
        assert np.linspace(0.0, t_max, TOL.node_scan_points)[256] == 1.0
        assert mgf_from_distribution(joint_photon_distribution(state, d), 1.0, 0.0) == 0.0
        assert find_node(state, d, tau=0.0, t_interval=(0.0, t_max)) == 1.0
