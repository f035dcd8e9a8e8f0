import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from stokespace import (
    CoherentEnsemble,
    CoherentSpec,
    Grid3,
    MixtureSpec,
    NumericalError,
    TmsvSpec,
    TruncationWarning,
    VacuumSpec,
    classicality_check,
    default_tau,
    direction_to_beamsplitter,
    dual_grid,
    ensemble_from_json,
    gaussian_ensemble,
    invert_to_pess,
    l1_distance,
    load_pess,
    make_state,
    mgf_closed_form,
    mgf_imaginary_grid,
    pess_mc_oracle,
    save_pess,
    spec_from_json,
    stokes_points,
)
from conftest import gaussian_pess_exact, rng_for


def reconstruct(source, grid, tau, **kw):
    return invert_to_pess(mgf_imaginary_grid(source, dual_grid(grid), tau), grid, tau, **kw)


class TestGrids:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid3((0.0, 0.0, 0.0), (1.0, 1.0, 0.5), (8, 8, 7))  # odd count
        with pytest.raises(ValueError):
            Grid3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (8, 8, 6))  # too few
        with pytest.raises(ValueError):
            Grid3((0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (8, 8, 8))  # empty axis

    def test_geometry(self):
        g = Grid3((-2.0, 0.0, 1.0), (2.0, 8.0, 3.0), (8, 16, 10))
        hx, hy, hz = g.spacing()
        assert (hx, hy, hz) == pytest.approx((4 / 7, 8 / 15, 2 / 9))
        assert g.cell_volume == pytest.approx(hx * hy * hz)
        ax = g.axes()
        assert ax[0][0] == -2.0 and ax[0][-1] == 2.0 and len(ax[1]) == 16

    def test_dual_grid_matches_fft_frequencies(self):
        g = Grid3.cube(4.0, 16)
        kg = dual_grid(g)
        h = g.spacing()[0]
        dk = 2.0 * np.pi / (16 * h)
        kx = kg.axes()[0]
        assert np.max(np.abs(np.diff(kx) - dk)) < 1e-12
        assert kx[8] == pytest.approx(0.0, abs=1e-12)  # n/2 bin sits at zero

    def test_default_tau(self):
        g = Grid3((-3.0, -4.0, 0.0), (3.0, 2.0, 12.0), (8, 8, 8))
        r = np.sqrt(9.0 + 16.0 + 144.0)
        assert g.radius == r
        assert default_tau(g) == pytest.approx(0.5 / r)

    @pytest.mark.parametrize("mins, maxs", [
        ((-1e-300, -8.0, -8.0), (1e-300, 8.0, 8.0)),  # 2 pi / (n h) ~ 1e300
        ((0.0, -8.0, -8.0), (5e-324, 8.0, 8.0)),      # h rounds to 0
    ])
    def test_a_spacing_whose_dual_overflows_names_the_given_extent(self, mins, maxs):
        # the message named the dual grid's extent, (-1.1e301, ...).  The first
        # grid is kept and its dual fails in dual_grid; the second fails at
        # construction, on its cell volume of 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            with pytest.raises(ValueError) as err:
                dual_grid(Grid3(mins, maxs, (8, 8, 8)))
        assert str(err.value).startswith(f"grid extent {mins} to {maxs} over (8, 8, 8) "
                                         "points ")
        assert str(err.value).endswith(("is too fine: its FFT dual overflows",
                                        "has cell volume 0.0, not finite and > 0"))

    def test_a_cell_volume_underflow_names_the_given_extent(self):
        # h^3 rounds to 0: the grid was kept, and dual_grid then named the k
        # grid's extent, (-7.7e153, ...)
        with pytest.raises(ValueError, match=r"has cell volume 0\.0") as err:
            Grid3.cube(3.0437850772109496e-153, 16)
        assert str(err.value).startswith("grid extent (-3.0437850772109496e-153,")

    def test_a_fine_grid_whose_dual_fits_is_kept(self):
        g = Grid3((-1e-150, -8.0, -8.0), (1e-150, 8.0, 8.0), (8, 8, 8))
        assert np.isfinite(dual_grid(g).radius)

    @pytest.mark.parametrize("mins, maxs", [
        ((-7e153,) * 3, (7e153,) * 3),      # h^3 = (2e153)^3
        ((-6.5e153,) * 3, (6.5e153,) * 3),  # its inversion wrote a NaN mass
    ])
    def test_a_cell_volume_overflow_names_the_given_extent(self, mins, maxs):
        # the first was rejected by the dual-of-dual rule, the second kept
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="has cell volume inf") as err:
                Grid3(mins, maxs, (8, 8, 8))
        assert str(err.value).startswith(f"grid extent {mins} to {maxs}")

    def test_a_coarse_grid_whose_cell_volume_fits_is_kept(self):
        # the dual-of-dual rule rejected it; |S|^2, h_x h_y h_z = 1.9e154 and
        # the dual's rules all fit, and the vacuum (M = 1) inverts to a finite
        # mass, off 1 on a grid that cannot resolve it (mass 1.096, half of
        # |P| on the faces)
        g = Grid3((-1.3e154, -8.0, -8.0), (1.3e154, 8.0, 8.0), (8, 8, 8))
        pess = invert_to_pess(np.ones(g.ns, dtype=complex), g, default_tau(g))
        assert math.isfinite(pess.total_mass) and abs(pess.total_mass - 1.0) > 1e-2
        assert pess.boundary_share > 1e-3


class TestDampingRule:
    def test_tau_times_radius_must_keep_the_damping_finite(self):
        # exp(0.1 * 1e100) overflowed in the inversion, and a NaN density
        # came out
        g = Grid3((-8.0, -8.0, -8.0), (1e100, 8.0, 8.0), (8, 8, 8))
        with pytest.raises(ValueError, match=r"tau 0\.1 times the grid radius 1e\+100"):
            invert_to_pess(np.ones(g.ns, dtype=complex), g, 0.1)
        small = Grid3.cube(1.0, 8)  # radius sqrt(3): 500 sqrt(3) > ln(max double)
        with pytest.raises(ValueError, match="grid radius"):
            invert_to_pess(np.ones(small.ns, dtype=complex), small, 500.0)
        # 1/(2 r) keeps exp(tau |S|) <= e^(1/2) on any grid
        assert default_tau(g) * g.radius == pytest.approx(0.5)

    def test_a_mass_that_overflows_raises(self):
        # every value is finite, up to 2.5e307, but their sum is not: the
        # mass read inf, and reconstruct exited 0
        g = Grid3.cube(5e-103, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="mass is not finite"):
                invert_to_pess(np.ones(g.ns, dtype=complex), g, default_tau(g))

    def test_a_density_that_is_not_finite_raises(self):
        # the FFT of data near the top of the double range overflows
        g = Grid3.cube(2.0, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="not finite"):
                invert_to_pess(np.full(g.ns, 1e308, dtype=complex), g, 0.1, window="none")


class TestEnsembles:
    def test_needs_a_source(self):
        # points are the one required field
        with pytest.raises(TypeError):
            CoherentEnsemble()
        with pytest.raises(TypeError):
            CoherentEnsemble(weights=np.array([1.0]))

    def test_weight_validation(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            CoherentEnsemble(points=pts, weights=np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            CoherentEnsemble(points=pts, weights=np.array([1.2, -0.2]))

    def test_from_json(self):
        ens = ensemble_from_json({
            "points": [[{"re": 1.0, "im": 0.5}, 0.0], [0.5, {"re": 0.0, "im": -1.0}]],
            "weights": [0.25, 0.75],
        })
        assert ens.points.shape == (2, 2)
        assert ens.points[0, 0] == 1.0 + 0.5j
        assert ens.weights[1] == 0.75
        gauss = ensemble_from_json({"gaussian": {"sigma": 0.3, "mean_alpha": 1.0}})
        assert gauss == gaussian_ensemble(0.3, 1.0)
        with pytest.raises(ValueError):
            ensemble_from_json({"something": 1})

    def test_both_decoders_read_an_object_or_its_text(self):
        # a text ensemble met "gaussian" in obj as a substring test and failed
        # with "string indices must be integers"
        gauss = '{"gaussian": {"sigma": 0.3}}'
        assert ensemble_from_json(gauss) == ensemble_from_json(json.loads(gauss))
        assert ensemble_from_json(gauss) == gaussian_ensemble(0.3)
        ens = ensemble_from_json('{"points": [[1, {"im": 0.5}]], "weights": [1]}')
        assert ens.points.tolist() == [[1.0, 0.5j]] and ens.weights.tolist() == [1.0]
        spec = '{"kind": "coherent", "alpha": 1, "beta": {"im": 0.5}, "cutoff": 7}'
        assert spec_from_json(spec) == spec_from_json(json.loads(spec)) == (
            CoherentSpec(1.0, 0.5j), 7)
        for bad in ("[]", '"gaussian"', "3", "null"):
            for decode in (ensemble_from_json, spec_from_json):
                with pytest.raises(ValueError):
                    decode(bad)

    def test_every_point_set_draws_the_same_stream(self):
        # the draw reads the point set, whichever record holds it; equal
        # weights draw with p=None (p = 1/m each is another stream, and so
        # another oracle.bin) and given ones with p=weights
        g = Grid3.cube(3.0, 8)
        for spec, ens in [
            (CoherentSpec(1.2, 0.5j), CoherentEnsemble(points=[[1.2, 0.5j]])),
            (MixtureSpec(((0.3, 1.0, 0.2j), (0.7, -0.5, 0.8))),
             CoherentEnsemble(points=[[1.0, 0.2j], [-0.5, 0.8]], weights=[0.3, 0.7])),
        ]:
            a, b = (pess_mc_oracle(source, g, 20000, seed=5) for source in (spec, ens))
            assert a.values.tobytes() == b.values.tobytes()
        pts = np.array([[1.0, 0.2j], [0.3, -0.8], [0.5j, 0.5]])
        for weights in (None, [0.5, 0.2, 0.3]):
            got = CoherentEnsemble(points=pts, weights=weights).draw(rng_for(4), 1000)
            assert np.array_equal(got, pts[rng_for(4).choice(3, size=1000, p=weights)])

    def test_stokes_points_matches_single_pair(self):
        pairs = np.array([[0.8 + 0.1j, -0.3j], [1.0, 0.5]], dtype=complex)
        svec = stokes_points(pairs)
        for row, (a, b) in zip(svec, pairs):
            a, b = complex(a), complex(b)
            cross = a.conjugate() * b
            ref = (2.0 * cross.real, 2.0 * cross.imag, abs(a) ** 2 - abs(b) ** 2)
            assert np.max(np.abs(row - ref)) < 1e-14


class TestMgfGrid:
    def test_state_route_matches_analytic_kernel(self):
        # Fock-box route vs closed form for one coherent pair; |z| > 1 at
        # the grid corners makes the kernel sum tail-sensitive, so the
        # cutoff carries margin beyond the photon-number leakage bound
        alpha, beta = 0.6, 0.3j
        state = make_state(CoherentSpec(alpha, beta), cutoff=40)
        g = Grid3.cube(3.0, 8)
        kg = dual_grid(g)
        tau = default_tau(g)
        from_state = mgf_imaginary_grid(state, kg, tau)
        point = CoherentEnsemble(points=np.array([[alpha, beta]]))
        from_points = mgf_imaginary_grid(point, kg, tau)
        assert np.max(np.abs(from_state - from_points)) < 1e-8

    def test_tmsv_state_route_on_a_whole_grid_is_the_closed_form(self):
        # kappa max|z| = 0.84 at tau = 0.1 on this grid; cutoff 180 leaves a
        # tail below 0.84^360
        spec, tau = TmsvSpec(0.5), 0.1
        kg = dual_grid(Grid3.cube(12.0, 8))
        got = mgf_imaginary_grid(make_state(spec, cutoff=180), kg, tau).ravel()
        k = np.stack(np.meshgrid(*kg.axes(), indexing="ij"), axis=-1).reshape(-1, 3)
        norms = np.linalg.norm(k, axis=1)
        want = np.array([mgf_closed_form(
            spec, direction_to_beamsplitter(v / n if n > 0 else (0.0, 0.0, 1.0)), 1j * n, tau)
            for v, n in zip(k, norms)])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    @pytest.mark.parametrize("tau", [0.05, 0.0])
    def test_gaussian_kernel_small_sigma_limit(self, tau):
        g = Grid3.cube(3.0, 8)
        kg = dual_grid(g)
        narrow = gaussian_ensemble(1e-8, 1.1, 0.4 - 0.2j)
        point = CoherentEnsemble(points=np.array([[1.1, 0.4 - 0.2j]]))
        a = mgf_imaginary_grid(narrow, kg, tau)
        b = mgf_imaginary_grid(point, kg, tau)
        assert np.max(np.abs(a - b)) < 1e-6

    @pytest.mark.parametrize("tau", [0.1, 0.0])
    def test_drawn_points_agree_with_the_kernel(self, tau):
        g = Grid3.cube(3.0, 8)
        kg = dual_grid(g)
        full = gaussian_ensemble(0.2, 0.8, 0.0)
        exact = mgf_imaginary_grid(full, kg, tau)
        drawn = CoherentEnsemble(points=full.draw(rng_for(4), 200000))
        noisy = mgf_imaginary_grid(drawn, kg, tau)
        assert np.max(np.abs(noisy - exact)) < 0.02

    def test_gaussian_kernel_rounds_as_the_point_list_formula(self):
        # the broadcast kernel makes the same operations in the same order
        # as the (n^3, 3) point list it replaced, so the same doubles
        g = Grid3((-2.5, -1.0, 0.5), (3.0, 4.0, 6.0), (8, 10, 12))
        sigma, tau = 0.4, 0.7 * default_tau(g)
        mu = np.array([0.9 - 0.2j, 0.5j])
        kg = dual_grid(g)
        s0 = stokes_points(mu[None, :])[0]
        i0 = float(np.abs(mu[0]) ** 2 + np.abs(mu[1]) ** 2)
        k_points = np.stack(np.meshgrid(*kg.axes(), indexing="ij"), axis=-1).reshape(-1, 3)
        k2 = np.sum(k_points**2, axis=1)
        det = (1.0 + sigma**2 * tau) ** 2 + sigma**4 * k2
        top = 1j * (k_points @ s0) - (sigma**2 * k2 + tau * (1.0 + sigma**2 * tau)) * i0
        ref = (np.exp(top / det) / det).reshape(kg.ns)
        got = mgf_imaginary_grid(gaussian_ensemble(sigma, *mu), kg, tau)
        assert got.tobytes() == ref.tobytes()

    def test_hermitian_symmetry(self):
        state = make_state(CoherentSpec(0.5, 0.2), cutoff=14)
        kg = dual_grid(Grid3.cube(2.0, 8))
        # |z| reaches 9.6 on this grid, where the 5.6e-22 the cutoff leaves
        # behind weighs enough to move M by 3.4e-8 against cutoff 60
        with pytest.warns(TruncationWarning, match="above cutoff 14"):
            m = mgf_imaginary_grid(state, kg, 0.1)
        flipped = m[1:, 1:, 1:][::-1, ::-1, ::-1]
        assert np.max(np.abs(flipped - np.conj(m[1:, 1:, 1:]))) < 1e-12

    def test_argument_validation(self):
        kg = dual_grid(Grid3.cube(2.0, 8))
        with pytest.raises(ValueError):
            mgf_imaginary_grid(gaussian_ensemble(0.5), kg, -0.1)
        with pytest.raises(TypeError):
            mgf_imaginary_grid("not a state", kg, 0.1)
        # tau = 0 is allowed for every source: the Gaussian's determinant is
        # at least 1 there, so its unbounded support still converges
        gaussian = mgf_imaginary_grid(gaussian_ensemble(0.5), kg, 0.0)
        assert gaussian.shape == kg.ns and np.all(np.abs(gaussian) <= 1.0)
        point = CoherentEnsemble(points=np.array([[0.5, 0.0]]))
        mgf_imaginary_grid(point, kg, 0.0)


def dense_point_kernel(k_grid, pts, weights, tau):
    """Reference: exp(i k.S - tau |S|) summed directly over every (k, S) pair."""
    k_flat = np.stack(np.meshgrid(*k_grid.axes(), indexing="ij"), axis=-1)
    svec = stokes_points(pts)
    w = np.full(len(svec), 1.0 / len(svec)) if weights is None else weights
    damp = w * np.exp(-tau * np.linalg.norm(svec, axis=1))
    return np.exp(1j * (k_flat.reshape(-1, 3) @ svec.T)) @ damp


class TestPointKernel:
    # an uneven grid, so that a mix-up of the three axes shows
    K_GRID = dual_grid(Grid3((-3.0, -2.0, -4.0), (3.0, 2.5, 4.0), (8, 10, 12)))

    def random_pairs(self, rng, m):
        return rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))

    def test_uniform_points_match_dense_sum(self):
        pts = self.random_pairs(rng_for(11), 24)
        got = mgf_imaginary_grid(CoherentEnsemble(points=pts), self.K_GRID, 0.15)
        ref = dense_point_kernel(self.K_GRID, pts, None, 0.15)
        assert np.max(np.abs(got.reshape(-1) - ref)) <= 1e-14

    def test_weighted_points_match_dense_sum(self):
        rng = rng_for(12)
        pts = self.random_pairs(rng, 17)
        w = rng.uniform(size=17)
        w /= w.sum()
        ens = CoherentEnsemble(points=pts, weights=w)
        got = mgf_imaginary_grid(ens, self.K_GRID, 0.0)
        ref = dense_point_kernel(self.K_GRID, pts, w, 0.0)
        assert np.max(np.abs(got.reshape(-1) - ref)) <= 1e-14

    def test_sampler_draw_over_several_chunks_matches_dense_sum(self, monkeypatch):
        import stokespace.fock as fock

        # 7 points per chunk: 1000 draws fill 142 chunks and a partial one
        monkeypatch.setattr(fock, "_POINT_CHUNK_ENTRIES", 7 * 10 * 12)
        draw = gaussian_ensemble(0.5, 0.8, -0.3j).draw
        got = mgf_imaginary_grid(
            CoherentEnsemble(points=draw(rng_for(3), 1000)), self.K_GRID, 0.1
        )
        pts = draw(rng_for(3), 1000)
        ref = dense_point_kernel(self.K_GRID, pts, None, 0.1)
        assert np.max(np.abs(got.reshape(-1) - ref)) <= 1e-14

    def test_chunks_sized_to_the_grid_match_one_gemm(self):
        # the phase table of a chunk holds at most as many entries as the
        # output: 32 points at a time here, where one GEMM over all 1000
        # points once built a 16 MB table for a 0.5 MB result
        k_grid = dual_grid(Grid3.cube(5.0, 32))
        pts = gaussian_ensemble(0.5, 0.8, -0.3j).draw(rng_for(5), 1000)
        got = mgf_imaginary_grid(CoherentEnsemble(points=pts), k_grid, 0.1)
        kx, ky, kz = k_grid.axes()
        svec = stokes_points(pts)
        damp = np.full(1000, 1e-3) * np.exp(-0.1 * np.linalg.norm(svec, axis=1))
        ex = np.exp(1j * np.multiply.outer(kx, svec[:, 0])) * damp
        ey = np.exp(1j * np.multiply.outer(svec[:, 1], ky))
        ez = np.exp(1j * np.multiply.outer(svec[:, 2], kz))
        ref = (ex @ (ey[:, :, None] * ez[:, None, :]).reshape(1000, -1)).reshape(k_grid.ns)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestInversion:
    def test_bare_inversion_is_the_direct_fourier_sum(self):
        # an asymmetric, non-cubic grid off the origin pins the sign and
        # phase convention: P(S) = e^(tau |S|) (2 pi)^-3 dk^3 Re sum_k M(i k) e^(-i k.S)
        g = Grid3((-2.5, -1.0, 0.5), (3.0, 4.0, 6.0), (8, 10, 12))
        pts = np.array([[0.9, 0.4j], [0.3 - 0.5j, 1.1], [1.2, 0.2]])
        ens = CoherentEnsemble(points=pts, weights=np.array([0.5, 0.3, 0.2]))
        tau = 0.7 * default_tau(g)
        kg = dual_grid(g)
        values = mgf_imaginary_grid(ens, kg, tau)
        pess = invert_to_pess(values, g, tau, window="none")
        # a coarse grid: mass 1.037, 40% of |P| on the faces
        assert abs(pess.total_mass - 1.0) > 1e-2 and pess.boundary_share > 1e-3
        k = np.stack(np.meshgrid(*kg.axes(), indexing="ij"), axis=-1).reshape(-1, 3)
        s = np.stack(np.meshgrid(*g.axes(), indexing="ij"), axis=-1).reshape(-1, 3)
        sums = (np.exp(-1j * (s @ k.T)) @ values.reshape(-1)).real
        dk3 = float(np.prod(kg.spacing()))
        direct = np.exp(tau * np.linalg.norm(s, axis=1)) * dk3 / (2 * np.pi) ** 3 * sums
        err = np.max(np.abs(pess.values.reshape(-1) - direct))
        assert err <= 1e-12 * np.max(np.abs(direct))

    def test_vacuum_peaks_at_origin(self):
        state = make_state(VacuumSpec(), cutoff=2)
        g = Grid3.cube(2.0, 16)
        pess = reconstruct(state, g, tau=0.0)
        assert abs(pess.total_mass - 1.0) < 0.02
        assert pess.boundary_share > 1e-3  # a point density rings to the faces
        peak_idx = np.unravel_index(np.argmax(pess.values), pess.values.shape)
        centers = [np.abs(ax).argmin() for ax in g.axes()]
        assert peak_idx == tuple(centers)
        assert pess.min_value > -0.05 * pess.peak

    def test_two_point_mixture_recovers_peaks_and_weights(self):
        pts = np.array([[1.5, 0.0], [0.0, 1.2]], dtype=complex)  # S_z = 2.25, -1.44
        ens = CoherentEnsemble(points=pts, weights=np.array([0.3, 0.7]))
        g = Grid3.cube(4.0, 32)
        pess = reconstruct(ens, g, tau=default_tau(g))
        assert pess.boundary_share > 1e-3  # point densities ring to the faces
        zax = g.axes()[2]
        dens_z = pess.values.sum(axis=(0, 1)) * g.cell_volume / g.spacing()[2]
        # split the z marginal at zero: upper lobe mass 0.3, lower 0.7
        upper = dens_z[zax > 0].sum() * g.spacing()[2]
        lower = dens_z[zax < 0].sum() * g.spacing()[2]
        assert upper == pytest.approx(0.3, abs=0.02)
        assert lower == pytest.approx(0.7, abs=0.02)
        assert zax[dens_z.argmax()] == pytest.approx(-1.44, abs=g.spacing()[2])

    def test_zero_mean_gaussian_against_exact_density(self):
        g = Grid3.cube(8.0, 32)
        tau = default_tau(g)
        ens = gaussian_ensemble(1.0)
        pess = reconstruct(ens, g, tau)
        exact = gaussian_pess_exact(1.0, g)
        # the 1/S cusp limits pointwise agreement; mass transport stays small
        assert l1_distance(pess, exact) < 0.15
        assert abs(pess.total_mass - 1.0) < 0.01
        report = classicality_check(pess)
        assert report.essentially_classical

    def test_offset_gaussian_matches_histogram(self):
        ens = gaussian_ensemble(0.15, 1.4, 0.0)
        g = Grid3((-1.6, -1.6, 0.3), (1.6, 1.6, 3.7), (24, 24, 24))
        tau = default_tau(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # clean run: no warning
            pess = reconstruct(ens, g, tau)
        assert pess.boundary_share <= 1e-3
        oracle = pess_mc_oracle(ens, g, n=300000, seed=8)
        assert l1_distance(pess, oracle) < 0.13
        assert abs(pess.total_mass - 1.0) < 0.01

    def test_corrupted_values_raise(self):
        state = make_state(VacuumSpec(), cutoff=2)
        g = Grid3.cube(2.0, 8)
        values = mgf_imaginary_grid(state, dual_grid(g), 0.1)
        values = values + 0.3j * np.arange(values.size).reshape(values.shape)
        with pytest.raises(NumericalError):
            invert_to_pess(values, g, 0.1)

    def test_mass_deviation_is_a_number(self):
        state = make_state(VacuumSpec(), cutoff=2)
        g = Grid3.cube(2.0, 16)
        values = 1.5 * mgf_imaginary_grid(state, dual_grid(g), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a number, not a warning
            pess = invert_to_pess(values, g, 0.0)
        assert abs(pess.total_mass - 1.5) < 0.03

    def test_boundary_share_is_a_number(self):
        # density centered at S_z = 2.25 on a grid that clips it
        ens = CoherentEnsemble(points=np.array([[1.5, 0.0]]))
        g = Grid3((-1.0, -1.0, -1.0), (1.0, 1.0, 2.3), (16, 16, 16))
        values = mgf_imaginary_grid(ens, dual_grid(g), 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pess = invert_to_pess(values, g, 0.1)
        v = np.abs(pess.values)
        faces = sum(v[i].sum() + v[:, i].sum() + v[:, :, i].sum() for i in (0, -1))
        assert pess.boundary_share == pytest.approx(faces / v.sum(), rel=1e-12)
        assert pess.boundary_share > 0.5  # 60% of |P|; the mass is off too
        assert abs(pess.total_mass - 1.0) > 1e-2

    def test_window_options(self):
        g = Grid3.cube(8.0, 32)
        tau = default_tau(g)
        values = mgf_imaginary_grid(gaussian_ensemble(1.0), dual_grid(g), tau)
        bare = invert_to_pess(values, g, tau, window="none")
        assert bare.window == "none"
        assert abs(bare.total_mass - 1.0) < 0.01
        with pytest.raises(ValueError):
            invert_to_pess(values, g, tau, window="hamming")
        smooth = invert_to_pess(values, g, tau)
        assert smooth.window == "raised-cosine"
        # no window rings the hardest, out to the faces
        assert smooth.peak < bare.peak
        assert smooth.boundary_share < 1e-3 < bare.boundary_share

    def test_shape_mismatch_rejected(self):
        g = Grid3.cube(2.0, 8)
        with pytest.raises(ValueError):
            invert_to_pess(np.ones((8, 8, 6), dtype=complex), g, 0.1)

    def test_the_in_place_pipeline_rounds_as_the_unshifted_one(self):
        # window, phases, shift and FFT as one expression per stage, in
        # natural bin order: the in-place, pre-shifted inversion makes the
        # same operations in the same order, so it gives the same doubles
        g = Grid3((-2.5, -1.0, 0.5), (3.0, 4.0, 6.0), (8, 10, 12))
        tau = 0.7 * default_tau(g)
        kg = dual_grid(g)
        kx, ky, kz = kg.axes()
        k_norm = np.sqrt(kx[:, None, None] ** 2 + ky[None, :, None] ** 2 + kz[None, None, :] ** 2)
        k_cut = min(-lo for lo in kg.mins)
        w = np.where(k_norm < k_cut, np.cos(np.pi * k_norm / (2.0 * k_cut)) ** 2, 0.0)
        phase = [np.exp(-1j * k * lo) for k, lo in zip(kg.axes(), g.mins)]
        ax, ay, az = g.axes()
        s_norm = np.sqrt(ax[:, None, None] ** 2 + ay[None, :, None] ** 2 + az[None, None, :] ** 2)
        scale = 1.0
        for h, n in zip(g.spacing(), g.ns):
            scale *= (2.0 * np.pi / (n * h)) / (2.0 * np.pi)
        pts = np.array([[0.9, 0.4j], [0.3 - 0.5j, 1.1], [1.2, 0.2]])
        for source in (gaussian_ensemble(0.4, 0.9, 0.5j), CoherentEnsemble(points=pts)):
            m = mgf_imaginary_grid(source, kg, tau)
            data = m * w * phase[0][:, None, None] * phase[1][None, :, None] * phase[2][None, None, :]
            ref = np.fft.fftn(np.fft.ifftshift(data)).real * np.exp(tau * s_norm) * scale
            got = invert_to_pess(m, g, tau)
            assert got.values.tobytes() == ref.tobytes()
            assert got.boundary_share > 1e-3  # a coarse grid

    def test_the_input_is_not_written(self):
        g = Grid3.cube(6.0, 16)
        tau = default_tau(g)
        m = mgf_imaginary_grid(gaussian_ensemble(0.45, 0.9 - 0.4j, 0.3 + 0.5j), dual_grid(g), tau)
        before = m.copy()
        # the mass and face share of each: 1.0116 and 8.4e-4, 1.0001 and 7.2e-3
        for window, mass, share in (("raised-cosine", 1.0116, 8.4e-4), ("none", 1.0001, 7.2e-3)):
            pess = invert_to_pess(m, g, tau, window=window)
            assert m.tobytes() == before.tobytes()
            assert pess.total_mass == pytest.approx(mass, abs=1e-4)
            assert pess.boundary_share == pytest.approx(share, rel=1e-2)

    def test_only_the_minus_k_edge_planes_escape_the_hermitian_check(self):
        # bin m pairs with bin n - m; the m = 0 planes (k = -K) have no
        # partner, so a corrupted value there passes and one elsewhere raises
        g = Grid3.cube(6.0, 16)
        tau = default_tau(g)
        m = mgf_imaginary_grid(gaussian_ensemble(0.45, 0.9 - 0.4j), dual_grid(g), tau)
        bump = 0.5j * np.max(np.abs(m))
        for index in [(0, 3, 5), (4, 0, 9), (7, 11, 0)]:
            edge = m.copy()
            edge[index] += bump
            assert invert_to_pess(edge, g, tau, window="none").boundary_share > 0.1
        for index in [(1, 3, 5), (8, 8, 8), (15, 1, 9)]:
            inner = m.copy()
            inner[index] += bump
            with pytest.raises(NumericalError, match="anti-Hermitian"):
                invert_to_pess(inner, g, tau, window="none")


class TestOracleAndReports:
    def test_mc_oracle_needs_samples_and_a_source(self):
        g = Grid3.cube(2.0, 8)
        ens = CoherentEnsemble(points=np.array([[0.5, 0.0]]))
        with pytest.raises(ValueError):
            pess_mc_oracle(ens, g, n=100, seed=0)

    def test_mc_oracle_deterministic(self):
        ens = gaussian_ensemble(0.5)
        g = Grid3.cube(3.0, 8)
        a = pess_mc_oracle(ens, g, n=20000, seed=3)
        b = pess_mc_oracle(ens, g, n=20000, seed=3)
        assert np.array_equal(a.values, b.values)
        assert a.label == "mc-histogram"

    def test_mc_oracle_weighted_points(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        ens = CoherentEnsemble(points=pts, weights=np.array([0.2, 0.8]))
        g = Grid3.cube(2.0, 8)
        oracle = pess_mc_oracle(ens, g, n=50000, seed=1)
        mass = oracle.values * g.cell_volume
        assert mass.sum() == pytest.approx(1.0)
        # all mass sits in the two cells holding S = +-z
        assert np.sort(mass[mass > 0])[-2:] == pytest.approx([0.2, 0.8], abs=0.01)

    @pytest.mark.parametrize("chunk", [None, 9973])
    @pytest.mark.parametrize("ensemble", [
        gaussian_ensemble(0.5, 0.3 + 0.4j, -0.6),
        CoherentEnsemble(points=np.array([[1.0, 0.2j], [0.3, -0.8], [0.5j, 0.5]]),
                         weights=np.array([0.5, 0.2, 0.3])),
        CoherentEnsemble(points=np.array([[1.0, 0.2j], [0.3, -0.8], [0.5j, 0.5]])),
    ], ids=["gaussian", "weighted-points", "points"])
    def test_chunked_draws_bin_as_one_draw(self, monkeypatch, ensemble, chunk):
        # the draws come in chunks from one Philox stream: the histogram is
        # that of all n draws binned at once, bit for bit
        import stokespace.reconstruct as rec

        if chunk is not None:
            monkeypatch.setattr(rec, "_ORACLE_CHUNK", chunk)
        g = Grid3.cube(3.0, 16)
        n = 10**5 + 1234  # a multiple of neither chunk
        got = pess_mc_oracle(ensemble, g, n, seed=11)
        rng = np.random.Generator(np.random.Philox(key=11))
        edges = [np.linspace(lo - h / 2.0, hi + h / 2.0, num + 1)
                 for lo, hi, num, h in zip(g.mins, g.maxs, g.ns, g.spacing())]
        counts, _ = np.histogramdd(stokes_points(ensemble.draw(rng, n)), bins=edges)
        ref = counts / (counts.sum() * g.cell_volume)
        assert got.values.tobytes() == ref.tobytes()

    def test_oracle_cells_follow_histogramdd_on_and_off_the_edges(self):
        from stokespace.reconstruct import _cells

        # on the first axis (x - e[0]) / h rounds below a whole number for
        # some x just above an edge, so the arithmetic guess is one cell low
        g = Grid3((-9.834723644714709, -1.0, 0.5), (6.449354115370712, 3.0, 1.5), (10, 10, 12))
        edges = [np.linspace(lo - h / 2.0, hi + h / 2.0, num + 1)
                 for lo, hi, num, h in zip(g.mins, g.maxs, g.ns, g.spacing())]
        columns = []
        for e in edges:
            x = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                                [np.nan, np.inf, -np.inf, 1e300, -1e300],
                                rng_for(9).uniform(e[0] - 1, e[-1] + 1, 3000)])
            columns.append(np.resize(x, 3300))
        sample = np.stack(columns, axis=1)
        want, _ = np.histogramdd(sample, bins=edges)
        cells = [_cells(e, x) for e, x in zip(edges, sample.T)]
        on_grid = np.logical_and.reduce([(c >= 0) & (c < n) for c, n in zip(cells, g.ns)])
        got = np.zeros(g.ns)
        np.add.at(got, tuple(c[on_grid] for c in cells), 1)
        assert np.array_equal(got, want)

    def test_classicality_check(self):
        g = Grid3.cube(1.0, 8)
        values = np.full(g.ns, 0.5)
        values[0, 0, 0] = -0.005  # 1% of the peak: inside the 2% band
        from stokespace import PessGrid

        def check(low):
            values[0, 0, 0] = low
            return classicality_check(PessGrid(grid=g, values=values, tau_used=0.0,
                                               window="none", label="test"))

        assert check(-0.005).essentially_classical
        assert check(-0.005).min_value == pytest.approx(-0.005)
        # the band is 2% of the peak 0.5, edge included
        assert check(-0.01).essentially_classical
        assert not check(-0.0101).essentially_classical
        assert not check(-0.4).essentially_classical

    def test_classicality_check_takes_no_tolerance(self):
        # a NaN tol read an all-positive grid as not classical; the 2% band
        # is now a constant, not a parameter
        from stokespace import PessGrid

        g = Grid3.cube(1.0, 8)
        pess = PessGrid(grid=g, values=np.full(g.ns, 0.5), tau_used=0.0, window="none",
                        label="test")
        assert classicality_check(pess).essentially_classical
        with pytest.raises(TypeError):
            classicality_check(pess, tol=math.nan)

    def test_l1_distance_requires_matching_grids(self):
        a = gaussian_pess_exact(1.0, Grid3.cube(4.0, 8))
        b = gaussian_pess_exact(1.0, Grid3.cube(5.0, 8))
        with pytest.raises(ValueError):
            l1_distance(a, b)
        assert l1_distance(a, a) == 0.0

    def test_exact_gaussian_density_normalizes(self):
        # cell quadrature near the 1/|S| cusp keeps the Riemann mass ~1%
        # short at this resolution
        g = Grid3.cube(10.0, 48)
        exact = gaussian_pess_exact(1.0, g)
        assert abs(exact.total_mass - 1.0) < 0.02
        assert np.all(np.isfinite(exact.values))


class TestPessIO:
    def test_round_trip(self, tmp_path):
        g = Grid3((-2.0, -1.0, 0.0), (2.0, 3.0, 4.0), (8, 10, 12))
        rng = rng_for(5)
        values = rng.random(g.ns)
        from stokespace import PessGrid

        pess = PessGrid(grid=g, values=values, tau_used=0.07,
                        window="raised-cosine", label="fft-inversion")
        path = tmp_path / "density.bin"
        save_pess(pess, path)
        again = load_pess(path)
        assert np.array_equal(again.values, values)
        assert again.grid == g
        assert again.tau_used == 0.07
        assert again.window == "raised-cosine"
        assert again.label == "fft-inversion"
        # header is a single JSON line readable on its own
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["ns"] == [8, 10, 12]

    def test_the_doubles_are_written_in_c_order_from_any_layout(self, tmp_path):
        from stokespace import PessGrid

        g = Grid3((-2.0, -1.0, 0.0), (2.0, 3.0, 4.0), (8, 10, 12))
        values = rng_for(6).random(g.ns[::-1]).T  # Fortran order
        save_pess(PessGrid(grid=g, values=values, tau_used=0.0, window="none",
                           label="test"), tmp_path / "f.bin")
        body = (tmp_path / "f.bin").read_bytes().split(b"\n", 1)[1]
        assert body == np.ascontiguousarray(values, dtype="<f8").tobytes()
        assert np.array_equal(load_pess(tmp_path / "f.bin").values, values)


def traced_peak(fn, *args):
    """fn(*args), and the most memory traced during the call above what was
    traced at its start, in bytes; numpy reports its buffers to tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


class TestMemoryBudget:
    # peaks in grid floats, 8 B per point of a 32^3 grid
    GRID = Grid3.cube(6.0, 32)
    FLOAT = 8 * 32**3
    ENSEMBLE = gaussian_ensemble(0.45, 0.9 - 0.4j, 0.3 + 0.5j)

    def test_the_gaussian_kernel_holds_little_beyond_its_result(self):
        # the complex result is 2 grid floats; the (n^3, 3) point list the
        # kernel once built and its temporaries peaked at 11
        _, peak = traced_peak(self.ENSEMBLE.kernel, dual_grid(self.GRID),
                              default_tau(self.GRID))
        assert peak <= 6 * self.FLOAT

    def test_the_inversion_holds_five_grid_floats_beyond_its_input(self):
        # a chain of fresh temporaries and a three-pass out-of-place FFT
        # peaked at 9.5
        tau = default_tau(self.GRID)
        m = self.ENSEMBLE.kernel(dual_grid(self.GRID), tau)
        pess, peak = traced_peak(invert_to_pess, m, self.GRID, tau)
        assert peak <= 5 * self.FLOAT
        assert abs(pess.total_mass - 1.0) < 0.01

    def test_the_oracle_peak_does_not_grow_with_the_draw_count(self):
        pess_mc_oracle(self.ENSEMBLE, self.GRID, 10**4, 0)  # one-off first-call costs
        _, small = traced_peak(pess_mc_oracle, self.ENSEMBLE, self.GRID, 10**5, 0)
        _, large = traced_peak(pess_mc_oracle, self.ENSEMBLE, self.GRID, 4 * 10**5, 0)
        assert large <= 1.05 * small

    def test_the_csv_writer_peak_does_not_grow_with_the_rows(self, tmp_path):
        # 32768-row chunks of %-formatted text once peaked at 8.2 MB at 32^3
        # and 8.9 MB at 64^3
        from stokespace.cli import _write_csv

        def peak(n):
            values = rng_for(7).normal(size=(n**3, 1))
            return traced_peak(_write_csv, tmp_path / "pess.csv", ["S_x", "S_y", "S_z", "v"],
                               values, False, Grid3.cube(6.0, n).axes())[1]

        peak(8)  # one-off first-call costs: the formatter's tables
        assert peak(64) <= 1.05 * peak(32)

    def test_the_point_route_table_stays_within_the_output_size(self):
        # one chunk of 1000 points once built a 16 MB phase table here
        pts = gaussian_ensemble(0.5, 0.8, -0.3j).draw(rng_for(5), 1000)
        out, peak = traced_peak(mgf_imaginary_grid, CoherentEnsemble(points=pts),
                                dual_grid(self.GRID), 0.1)
        assert peak <= 4 * out.nbytes
