"""The batched SU(2) block-rotation engine behind every splitter."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import stokespace.fock as fock
from stokespace import (
    CoherentSpec,
    ConvergenceWarning,
    Grid3,
    HomInputSpec,
    MgfQuery,
    MixtureSpec,
    NumericalError,
    TmsvSpec,
    TruncationWarning,
    TwoModeState,
    auto_cutoff,
    beam_splitter,
    direction_from_tr,
    direction_to_beamsplitter,
    dual_grid,
    joint_photon_distribution,
    make_state,
    mgf,
    mgf_closed_form,
    mgf_from_distribution,
    mgf_imaginary_grid,
    rotate_many,
    sphere_grid,
    surface_map,
)
from stokespace.cli import main
from conftest import random_direction, random_low_state, splitter_oracle


def splitters(dirs):
    """The (T, R) arrays the private engine takes for a list of directions."""
    return np.array([(d.T, d.R) for d in dirs]).T


def random_tr(rng):
    theta = rng.uniform(0.0, np.pi)
    phia, phib = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return (np.cos(theta / 2.0) * np.exp(1j * phia),
            np.sin(theta / 2.0) * np.exp(1j * phib))


def test_batch_equals_per_direction_loop(rng):
    spec = MixtureSpec(((0.3, 1.0 + 0.5j, -0.4j), (0.7, -0.6, 0.9 + 0.2j)))
    state = make_state(spec, cutoff=14)
    directions = [random_direction(rng) for _ in range(40)]
    # both poles and the balanced axes, where the engine switches branches
    directions += [direction_to_beamsplitter(e) for e in
                   ((0, 0, 1), (0, 0, -1), (1, 0, 0), (0, -1, 0))]
    p = rotate_many(state, directions)
    assert p.shape == (len(directions), 29, 29)
    for d, p_d in zip(directions, p):
        dist = joint_photon_distribution(state, d)
        assert np.max(np.abs(p_d - dist.p)) <= 1e-15
        assert dist.leakage == state.leakage


def test_matches_exponentiated_generator(rng):
    for cutoff in range(1, 8):
        for _ in range(3):
            T, R = random_tr(rng)
            state = random_low_state(rng, cutoff=cutoff, n_max=cutoff)
            out = beam_splitter(state, T, R)
            ref = splitter_oracle(state.components[0][1], T, R)
            assert np.max(np.abs(out.components[0][1] - ref)) <= 1e-12
    # T = 0 is a mode swap with phases
    state = random_low_state(rng, cutoff=6, n_max=6)
    out = beam_splitter(state, 0.0, np.exp(0.4j))
    ref = splitter_oracle(state.components[0][1], 0.0, np.exp(0.4j))
    assert np.max(np.abs(out.components[0][1] - ref)) <= 1e-12


def test_swapped_axes_read_the_transposed_counts(rng):
    state = random_low_state(rng, cutoff=6, n_max=6)
    # T = 0 is the exact mode swap; the others mirror to (R*, -T*) too
    for T, R in ((0.0, np.exp(0.4j)), (0.28 * np.exp(2.0j), 0.96j), (0.6, -0.8)):
        out = beam_splitter(state, T, R).components[0][1]
        p = rotate_many(state, [direction_from_tr(T, R)])[0]
        assert np.max(np.abs(p[:7, :7] - np.abs(out) ** 2)) <= 1e-15
        assert np.max(np.abs(p[7:])) <= 1e-15 and np.max(np.abs(p[:, 7:])) <= 1e-15


def test_coherent_pair_maps_to_coherent_pair():
    alpha, beta = 1.7 - 0.6j, -0.9 + 1.2j
    state = make_state(CoherentSpec(alpha, beta), cutoff=60)
    for T, R in ((0.6 * np.exp(0.3j), 0.8 * np.exp(-1.1j)),
                 (0.28 * np.exp(2.0j), 0.96j),
                 (math.sqrt(0.5), -math.sqrt(0.5))):
        out = beam_splitter(state, T, R).components[0][1]
        ref = make_state(
            CoherentSpec(T * alpha + R * beta, np.conj(T) * beta - np.conj(R) * alpha),
            cutoff=60,
        ).components[0][1]
        assert np.max(np.abs(out - ref)) <= 1e-12


@pytest.mark.parametrize("n", [40, 160, 640, 1024])
def test_populated_columns_stay_unitary(n):
    # |k, n-k> in a box that holds the whole block: p keeps every output
    # row, so its sum is the column norm
    half = n // 2
    dirs = [direction_from_tr(T, R) for T, R in (
        (math.sqrt(0.5), math.sqrt(0.5)),
        (0.6, 0.8j),
        (math.cos(0.005), math.sin(0.005)),    # near the north pole
        (math.sin(0.005), -math.cos(0.005)),   # near the south pole
    )]
    for k in (half, half // 3):
        cutoff = max(k, n - k)
        amp = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
        amp[k, n - k] = 1.0
        state = TwoModeState(cutoff=cutoff, components=((1.0, amp),))
        p = rotate_many(state, dirs)
        assert np.max(np.abs(p.sum(axis=(1, 2)) - 1.0)) <= 1e-13


@pytest.mark.parametrize("xi", [1.0, 1.5, 2.0])
def test_tmsv_mgf_matches_closed_form_at_auto_cutoff(xi):
    spec = TmsvSpec(xi)
    cutoff = auto_cutoff(spec)
    state = make_state(spec, cutoff)
    d = direction_to_beamsplitter((1.0, 0.0, 0.0))
    for t, tau in ((0.1, 0.4), (0.0, 0.2), (-0.2, 0.3), (0.25, 0.35)):
        want = mgf_closed_form(spec, d, t, tau)
        assert abs(mgf(state, MgfQuery(d, t, tau)) - want) <= 1e-9 * abs(want)
    # undamped, the sum misses exactly the source truncation: the splitter
    # keeps every block whole, however far it spreads past the input box
    assert abs(mgf(state, MgfQuery(d, 0.0, 0.0)) - (1.0 - state.leakage)) <= 1e-12


def test_norm_violation_raises(monkeypatch):
    state = make_state(CoherentSpec(0.8, 0.3j), cutoff=12)
    rotated = fock._wigner_rows

    def lossy(*args, **kwargs):
        for k, n, rows in rotated(*args, **kwargs):
            yield k, n, rows * (1.0 + 1e-6)

    monkeypatch.setattr(fock, "_wigner_rows", lossy)
    d = direction_to_beamsplitter((0.6, 0.0, 0.8))
    with pytest.raises(NumericalError):
        joint_photon_distribution(state, d)
    with pytest.raises(NumericalError):
        beam_splitter(state, d.T, d.R)
    with pytest.raises(NumericalError):
        fock._kernel_sums(state, *splitters([d]), np.ones(1), np.ones(1))


def oracle_step_tables(dc, n):
    """The per-block arithmetic of the step coefficients before they were
    planned: tables (k3, e, a) of the columns with offsets dc at block n."""
    m = n - 2
    if m == 0:  # the step was diff = -y cur
        return np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1))
    dc = dc.astype(float)[:, None]
    dr = np.arange(-m, m + 1, 2, dtype=float)[None, :]
    ac, ar = np.sqrt(n * n - dc * dc), np.sqrt(n * n - dr * dr)
    gc, gr = np.sqrt(m * m - dc * dc), np.sqrt(m * m - dr * dr)
    inv = 1.0 / (ac * ar)
    cross = dc * dr
    lo = m * m - cross + gc * gr
    lo[lo == 0.0] = 1.0
    e = (dc - dr) ** 2 * (n * m / lo + n * n / (n * n - cross + ac * ar)) * inv
    return (n / m) * gc * gr * inv, e, (2.0 * (m + 1) * n) * inv


def planned_tables(plan):
    """(n, offsets, (k3, e, a)) of every block of a plan that steps columns."""
    for build in plan[2]:
        chunk = build()
        for n, _, old, _, base, *_, t in chunk.blocks:
            if old:
                got = chunk.tables[:, t : t + old * (n - 1)].reshape(3, old, n - 1)
                yield n, chunk.offsets[base : base + old], got


def recording_plans(monkeypatch):
    plans = []
    build = fock._rotation_plan

    def recording(src):
        plans.append(build(src))
        return plans[-1]

    monkeypatch.setattr(fock, "_rotation_plan", recording)
    return plans


@pytest.mark.parametrize("spec, cutoff", [
    (TmsvSpec(1.0), 42),
    (CoherentSpec(1.6 + 0.9j, -1.1 + 0.4j), 24),
    (MixtureSpec(((0.3, 0.8 + 0.4j, -0.5j), (0.45, -0.9, 0.7 + 0.3j),
                  (0.25, 0.2 - 1.0j, 1.1))), 16),
    (HomInputSpec(), 6),
])
def test_planned_step_tables_equal_the_per_block_arithmetic(monkeypatch, spec, cutoff):
    state = make_state(spec, cutoff)
    plans = recording_plans(monkeypatch)
    # one axis on each side of |R| = |T|: the second rotates the state by
    # (R*, -T*) and swaps the output modes, so all four plans are the state's
    for T, R in ((0.8, 0.6j), (0.6, 0.8j)):
        rotate_many(state, [direction_from_tr(T, R)])
        beam_splitter(state, T, R)
    assert len(plans) == 4
    seen = 0
    for plan in plans:
        for n, dc, got in planned_tables(plan):
            for x, want in zip(got, oracle_step_tables(dc, n)):
                assert np.array_equal(x, want), n
            seen += 1
    assert seen >= len(plans)


def recurrence_only(monkeypatch):
    """Send every call to the step recurrence: the rule takes the GEMM route
    iff n (W_rec - gamma W_gemm) > W_build."""
    monkeypatch.setattr(fock, "_GEMM_COST", math.inf)


def recording_routes(monkeypatch):
    """The route of each engine pass: "recurrence" per batch, "gemm" per call."""
    routes = []
    rows, turns = fock._wigner_rows, fock._half_turns
    monkeypatch.setattr(fock, "_wigner_rows",
                        lambda *a: routes.append("recurrence") or rows(*a))
    monkeypatch.setattr(fock, "_half_turns", lambda *a: routes.append("gemm") or turns(*a))
    return routes


@pytest.mark.parametrize("gamma", [fock._GEMM_COST, 0.0])
def test_beam_splitter_keeps_the_recurrence(monkeypatch, gamma):
    # for one axis n W_rec <= W_build, so beam_splitter never meets the
    # GEMM route, whatever it costs
    monkeypatch.setattr(fock, "_GEMM_COST", gamma)
    routes = recording_routes(monkeypatch)
    d = direction_to_beamsplitter((0.6, 0.0, 0.8))
    beam_splitter(make_state(CoherentSpec(1.5, 1.2j), 24), d.T, d.R)
    assert routes == ["recurrence"]


def test_plan_chunking_leaves_p_bit_identical(monkeypatch, rng):
    recurrence_only(monkeypatch)  # the GEMM route has a twin below
    spec = MixtureSpec(((0.3, 1.0 + 0.5j, -0.4j), (0.7, -0.6, 0.9 + 0.2j)))
    states = [make_state(spec, 14), make_state(TmsvSpec(1.0), 42)]
    dirs = [random_direction(rng) for _ in range(9)]
    want = [rotate_many(s, dirs) for s in states]
    amps = [beam_splitter(s, d.T, d.R).components[0][1] for s in states for d in dirs[:2]]
    plans = recording_plans(monkeypatch)
    built = []
    chunk = fock._plan_chunk
    monkeypatch.setattr(fock, "_plan_chunk", lambda *a: built.append(1) or chunk(*a))
    monkeypatch.setattr(fock, "_PLAN_DOUBLES", 64)  # a chunk of one block or few
    # chunks kept for one batch per direction, or built in turn for one batch
    for buffer in (1, 1 << 30):
        monkeypatch.setattr(fock, "_BUFFER_DOUBLES", buffer)
        for s, p in zip(states, want):
            plans.clear()
            built.clear()
            assert np.array_equal(rotate_many(s, dirs), p)
            assert len(plans) == 1 and len(built) == len(plans[0][2]) > 5
        got = [beam_splitter(s, d.T, d.R).components[0][1] for s in states for d in dirs[:2]]
        assert all(np.array_equal(x, y) for x, y in zip(got, amps))


def test_gemm_route_keeps_one_plan_and_one_build_per_call(monkeypatch, rng):
    spec = MixtureSpec(((0.3, 1.0 + 0.5j, -0.4j), (0.7, -0.6, 0.9 + 0.2j)))
    state = make_state(spec, 14)
    dirs = [random_direction(rng) for _ in range(9)]
    want = rotate_many(state, dirs)
    plans, routes = recording_plans(monkeypatch), recording_routes(monkeypatch)
    monkeypatch.setattr(fock, "_PLAN_DOUBLES", 64)
    for buffer in (1, 1 << 30):
        monkeypatch.setattr(fock, "_BUFFER_DOUBLES", buffer)
        plans.clear()
        routes.clear()
        # BLAS rounding depends on the batch shape, so the bits may differ
        assert np.max(np.abs(rotate_many(state, dirs) - want)) <= 1e-15
        assert len(plans) == 1 and routes == ["gemm"]


def test_one_plan_per_call_across_direction_batches(monkeypatch, rng):
    recurrence_only(monkeypatch)
    state = make_state(CoherentSpec(0.6 - 0.3j, 0.5j), 12)
    dirs = [random_direction(rng) for _ in range(7)]
    dirs += [direction_to_beamsplitter(e) for e in ((0, 0, 1), (0, 0, -1))]
    want = rotate_many(state, dirs)
    plans = recording_plans(monkeypatch)
    batches = []
    rows = fock._wigner_rows

    def counting(top, shapes, chunks, T, R, *args):
        batches.append(T.size)
        return rows(top, shapes, chunks, T, R, *args)

    monkeypatch.setattr(fock, "_wigner_rows", counting)
    monkeypatch.setattr(fock, "_BUFFER_DOUBLES", 1)  # one direction per batch
    assert np.array_equal(rotate_many(state, dirs), want)
    # at a pole the splitter only rephases the modes; every other axis is
    # a batch of its own
    assert len(plans) == 1 and set(batches) == {1}
    assert len(batches) == len(dirs) - 2
    plans.clear()
    beam_splitter(state, dirs[0].T, dirs[0].R)
    assert len(plans) == 1


def test_south_pole_only_rephases(monkeypatch):
    state = make_state(CoherentSpec(0.6 - 0.3j, 0.5j), 12)
    south = direction_to_beamsplitter((0, 0, -1))
    assert south.T == 0 and south.R == 1
    # T = cos(pi/2) = 6.1e-17 is the splitter the recurrence rotates by
    want = rotate_many(state, [direction_from_tr(math.cos(math.pi / 2), 1.0)])
    batches = []
    rows = fock._wigner_rows

    def counting(*args):
        batches.append(args)
        return rows(*args)

    monkeypatch.setattr(fock, "_wigner_rows", counting)
    got = rotate_many(state, [south])
    assert batches == []
    assert np.max(np.abs(got - want)) <= 1e-15


def check_kernel_sums_read_the_rows_of_one_plan(monkeypatch, rng, buffer):
    spec = MixtureSpec(((0.4, 0.9 - 0.3j, 0.5j), (0.6, -0.4, 0.8 + 0.6j)))
    state = make_state(spec, 12)
    dirs = [random_direction(rng) for _ in range(9)]
    dirs += [direction_to_beamsplitter(e) for e in ((0, 0, 1), (0, 0, -1))]
    # kernels inside the unit disc, three pairs per axis
    z_a, z_b = rng.uniform(0.0, 1.0, (2, len(dirs), 3)) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, (2, len(dirs), 3)))
    want = fock._power_sum(rotate_many(state, dirs)[:, None], z_a, z_b)
    plans = recording_plans(monkeypatch)
    monkeypatch.setattr(fock, "_BUFFER_DOUBLES", buffer)
    got = fock._kernel_sums(state, *splitters(dirs), z_a, z_b)
    assert got.shape == (len(dirs), 3) and len(plans) == 1
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("buffer", [1, 1 << 30], ids=["batch-per-axis", "one-batch"])
def test_kernel_sums_read_the_rows_of_one_plan(monkeypatch, rng, buffer):
    routes = recording_routes(monkeypatch)
    check_kernel_sums_read_the_rows_of_one_plan(monkeypatch, rng, buffer)
    assert routes == ["gemm"] * 2


@pytest.mark.parametrize("buffer", [1, 1 << 30], ids=["batch-per-axis", "one-batch"])
def test_kernel_sums_read_the_rows_of_one_plan_on_the_recurrence(monkeypatch, rng, buffer):
    recurrence_only(monkeypatch)
    routes = recording_routes(monkeypatch)
    check_kernel_sums_read_the_rows_of_one_plan(monkeypatch, rng, buffer)
    assert set(routes) == {"recurrence"}


def test_beam_splitter_clips_what_rotate_many_puts_outside_the_box():
    spec = MixtureSpec(((0.3, 1.0 + 0.5j, -0.4j), (0.7, -0.6, 0.9 + 0.2j)))
    with pytest.warns(TruncationWarning):  # so that whole blocks spill
        state = make_state(spec, 5)
    c = state.cutoff
    # each side of |R| = |T|, both poles, and T = 0 with a phase on R
    dirs = [direction_from_tr(0.8, 0.6j), direction_from_tr(0.6, -0.8j),
            direction_to_beamsplitter((0, 0, 1)), direction_to_beamsplitter((0, 0, -1)),
            direction_from_tr(0.0, np.exp(0.4j))]
    spilled = []
    for d, p in zip(dirs, rotate_many(state, dirs)):
        out = beam_splitter(state, d.T, d.R)
        outside = p.copy()
        outside[: c + 1, : c + 1] = 0.0
        spilled.append(outside.sum())
        assert abs((out.leakage - state.leakage) - spilled[-1]) <= 1e-15
        inside = sum(w * np.abs(amp) ** 2 for w, amp in out.components)
        assert np.max(np.abs(inside - p[: c + 1, : c + 1])) <= 1e-15
    # a turn spills whole blocks past the box; a pole keeps every row in it
    assert min(spilled[:2]) > 1e-4 and spilled[2:] == [0.0] * 3


def test_mgf_builds_no_photon_distribution(monkeypatch, rng):
    spec = MixtureSpec(((0.4, 0.9 - 0.3j, 0.5j), (0.6, -0.4, 0.8 + 0.6j)))
    state = make_state(spec, 24)
    dirs = [random_direction(rng) for _ in range(3)]
    dirs += [direction_to_beamsplitter(e) for e in ((0, 0, 1), (0, 0, -1))]
    points = [(0.3, 0.5), (-0.2 + 0.4j, 0.1), (0.7j, 0.0)]
    want = [mgf_from_distribution(joint_photon_distribution(state, d), t, tau)
            for d in dirs for t, tau in points]

    def forbidden(*args, **kwargs):
        raise AssertionError("mgf built a photon distribution")

    monkeypatch.setattr(fock, "joint_photon_distribution", forbidden)
    monkeypatch.setattr(fock, "rotate_many", forbidden)
    got = [mgf(state, MgfQuery(d, t, tau)) for d in dirs for t, tau in points]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-15


@pytest.mark.parametrize("kind, cutoff", [
    ("coherent", 10), ("coherent", 24), ("mixture", 16), ("dense", 4), ("dense", 12),
    ("dense", 24),
])
def test_gemm_route_matches_the_recurrence(monkeypatch, rng, kind, cutoff):
    if kind == "dense":
        state = random_low_state(rng, cutoff=cutoff, n_max=cutoff)
    elif kind == "coherent":
        state = make_state(CoherentSpec(0.6 - 0.3j, 0.5j) if cutoff < 20
                           else CoherentSpec(1.6 + 0.9j, -1.1 + 0.4j), cutoff)
    else:
        state = make_state(MixtureSpec(((0.3, 0.8 + 0.4j, -0.5j), (0.45, -0.9, 0.7 + 0.3j),
                                        (0.25, 0.2 - 1.0j, 1.1))), cutoff)
    # both poles and two balanced axes (e_z = 0) among random ones
    dirs = [random_direction(rng) for _ in range(30)]
    dirs += [direction_to_beamsplitter(e) for e in ((0, 0, 1), (0, 0, -1), (1, 0, 0),
                                                    (0, -1, 0))]
    assert sum(d.e[2] < 0 for d in dirs) > 5  # axes the swap rule mirrors
    routes = recording_routes(monkeypatch)
    got = rotate_many(state, dirs)
    assert routes == ["gemm"]
    recurrence_only(monkeypatch)
    assert np.max(np.abs(got - rotate_many(state, dirs))) <= 1e-15


def test_gemm_route_keeps_a_coherent_pair_coherent(monkeypatch, rng):
    # a rotated coherent pair is the coherent pair (T a + R b, T* b - R* a)
    alpha, beta = 1.7 - 0.6j, -0.9 + 1.2j
    state = make_state(CoherentSpec(alpha, beta), 60)
    dirs = [random_direction(rng) for _ in range(200)]
    routes = recording_routes(monkeypatch)
    n = np.arange(121)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    for d, p in zip(dirs, rotate_many(state, dirs)):
        mu = np.abs([d.T * alpha + d.R * beta, np.conj(d.T) * beta - np.conj(d.R) * alpha]) ** 2
        pmf = np.exp(n * np.log(mu[:, None]) - mu[:, None] - log_fact)
        assert np.max(np.abs(p - np.outer(*pmf))) <= 1e-13
        assert abs(p.sum() - state.trace) <= 1e-13
    assert routes == ["gemm"]


def test_route_rule(monkeypatch, rng):
    routes = recording_routes(monkeypatch)
    coherent = make_state(CoherentSpec(1.6 + 0.9j, -1.1 + 0.4j), 24)
    rotate_many(coherent, [random_direction(rng)])
    assert routes == ["recurrence"]  # one axis: W_rec <= W_build
    routes.clear()
    rotate_many(coherent, [random_direction(rng) for _ in range(80)])
    assert routes == ["gemm"]
    # a squeezed vacuum populates one column a block: Delta costs more
    # than every axis's recurrence
    spec = TmsvSpec(1.6)
    tmsv = make_state(spec, auto_cutoff(spec))
    assert tmsv.cutoff == 141
    routes.clear()
    ones = np.ones((112, 1))
    fock._kernel_sums(tmsv, *splitters([random_direction(rng) for _ in range(112)]),
                      ones, ones)
    assert set(routes) == {"recurrence"}


def test_perturbed_half_turn_trips_the_norm_check(monkeypatch, rng):
    state = make_state(CoherentSpec(0.8, 0.3j), 12)
    dirs = [random_direction(rng) for _ in range(40)]
    turns, built = fock._half_turns, []

    def perturbed(*args):
        built.append(1)
        return (delta * (1.0 + 1e-6) for delta in turns(*args))

    monkeypatch.setattr(fock, "_half_turns", perturbed)
    with pytest.raises(NumericalError):
        rotate_many(state, dirs)
    with pytest.raises(NumericalError):
        fock._kernel_sums(state, *splitters(dirs), np.ones((40, 1)), np.ones((40, 1)))
    assert built == [1, 1]


def test_axis_array_maps_each_row_as_direction_to_beamsplitter(rng):
    axes = rng.normal(size=(200, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    axes = np.vstack([axes, [(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, -1, 0)]])
    # rows 1e-10 off unit norm are renormalized, as one axis is
    axes[:20] *= 1.0 + 1e-10 * rng.choice([-1.0, 1.0], size=(20, 1))
    e, T, R = fock._splitters(axes)
    assert e.shape == (len(axes), 3) and T.shape == R.shape == (len(axes),)
    for row, e_i, T_i, R_i in zip(axes, e, T, R):
        d = direction_to_beamsplitter(row)
        assert np.array_equal(d.e, e_i) and d.T == T_i and d.R == R_i
    assert T[-3] == 0 and R[-3] == 1 and R[-4] == 0  # exact at the poles


@pytest.mark.parametrize("bad", [(math.nan, 0, 1), (math.inf, 0, 0), (0, -math.inf, 0),
                                 (1, 1, 0), (0, 0, 1 + 2e-9), (0, 0, 0)],
                         ids=["nan", "inf", "minus-inf", "long", "off-by-2e-9", "zero"])
def test_bad_axis_rows_raise_before_any_rotation(monkeypatch, bad):
    state = make_state(CoherentSpec(0.6 - 0.3j, 0.5j), 12)
    axes = np.vstack([sphere_grid(3, 4), bad])

    def forbidden(*args):
        raise AssertionError("an axis batch reached the engine")

    monkeypatch.setattr(fock, "_axis_rows", forbidden)
    for call in (lambda: fock._splitters(axes), lambda: surface_map(state, 0.2, 0.5, axes),
                 lambda: direction_to_beamsplitter(bad)):
        with pytest.raises(ValueError, match="unit norm"):
            call()


@pytest.mark.parametrize("route", ["gemm", "recurrence"])
def test_shared_kernel_sums_match_per_axis_kernel_sums(monkeypatch, rng, route):
    # (z_a, z_b) shared by every axis are one kernel row per swap orientation
    # and point; the per-axis gather is the reference
    spec = MixtureSpec(((0.4, 0.9 - 0.3j, 0.5j), (0.6, -0.4, 0.8 + 0.6j)))
    state = make_state(spec, 12)
    dirs = [random_direction(rng) for _ in range(30)]
    dirs += [direction_to_beamsplitter(e) for e in ((0, 0, 1), (0, 0, -1), (1, 0, 0))]
    T, R = splitters(dirs)
    swapped = np.abs(R) > np.abs(T)
    assert 5 < swapped.sum() < len(dirs) - 5 and np.any(T.imag != 0)
    if route == "recurrence":
        recurrence_only(monkeypatch)
    routes = recording_routes(monkeypatch)
    t = np.array([0.3, -0.2 + 0.4j, 0.7j, 1.1 - 0.3j])
    tau = np.array([0.5, 0.1, 0.0, 0.2])
    z_a, z_b = 1.0 + t - tau, 1.0 - t - tau
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        # every axis, and batches of one swap orientation; all points, and one
        for axes in (np.full(len(dirs), True), swapped, ~swapped):
            for at in (slice(None), *(slice(j, j + 1) for j in range(t.size))):
                full = (np.tile(z[at], (axes.sum(), 1)) for z in (z_a, z_b))
                want = fock._kernel_sums(state, T[axes], R[axes], *full)
                got = fock._kernel_sums(state, T[axes], R[axes], z_a[at], z_b[at])
                assert got.shape == want.shape == (axes.sum(), z_a[at].size)
                assert np.max(np.abs(got - want)) <= 1e-15
    assert set(routes) == {route}


def test_many_axis_paths_build_no_direction_objects(monkeypatch, tmp_path):
    # surface_map, the state route of mgf_imaginary_grid and hom-scan map
    # their axes as arrays: a MeasurementDirection (or a photon distribution)
    # per axis must not creep back
    built = []
    for cls in (fock.MeasurementDirection, fock.JointPhotonDistribution):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, check=cls.__post_init__: built.append(1) or check(self))
    state = make_state(HomInputSpec(), 4)  # no leakage: no existence warning
    assert direction_to_beamsplitter((1, 0, 0)) and built == [1]  # the counter counts
    built.clear()
    assert len(surface_map(state, -0.2, 0.6, sphere_grid(7, 16))) == 112
    values = mgf_imaginary_grid(state, dual_grid(Grid3.cube(3.0, 8)), 0.2)
    assert values.shape == (8, 8, 8)
    assert main(["hom-scan", "--out", str(tmp_path), "--no-timestamp"]) == 0
    assert built == []
    assert joint_photon_distribution(state, direction_to_beamsplitter((1, 0, 0)))
    assert built == [1, 1]  # both counters count


def splitter_matrix(T, R):
    return np.array([[T, R], [-np.conj(R), np.conj(T)]])


@pytest.mark.parametrize("cutoff", [24, 60])
def test_splitters_compose_as_su2(rng, cutoff):
    # rotate_many(beam_splitter(psi, U1), U2) = rotate_many(psi, U2 U1): the
    # engine checked against itself, with no closed form.  psi fills every
    # block that fits the box, so beam_splitter keeps all of it
    psi = random_low_state(rng, cutoff, cutoff)
    u1 = splitter_matrix(*random_tr(rng))
    eps = 1e-7  # |R| or |T| of about eps: axes next to the poles
    north = splitter_matrix(math.cos(eps), math.sin(eps) * np.exp(2.0j))
    south = splitter_matrix(math.sin(eps) * np.exp(-1.0j), math.cos(eps))
    # U2 random and near both poles, then U2 U1 near both poles
    u2s = [splitter_matrix(*random_tr(rng)), north, south,
           north @ u1.conj().T, south @ u1.conj().T]
    first = beam_splitter(psi, *u1[0])
    lhs = rotate_many(first, [direction_from_tr(*u[0]) for u in u2s])
    rhs = rotate_many(psi, [direction_from_tr(*(u @ u1)[0]) for u in u2s])
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(lhs)


# Pythagorean splitters (T, R) = (t/5, r/5): every count behind them is rational
RATIONAL_SPLITTERS = ((3, 4), (4, 3))


def exact_block_counts(q, t, r):
    """Exact counts of the block input sum_k q_k a^k b^(N-k)|0>, N = len(q) - 1
    and q integers, behind the splitter (t/5, r/5): p[j] for (j, N - j).

    The splitter sends a^ -> (t a^ - r b^)/5 and b^ -> (r a^ + t b^)/5, so
    the output is Q = sum_k q_k u^k v^(N-k), u = t x - r y, v = r x + t y,
    with x, y for a^, b^.  Horner, R <- u R + q_k v^(N-k), keeps its integer
    coefficients D_j of x^j y^(N-j), and p[j] = D_j^2 j! (N-j)! / (25^N
    sum_k q_k^2 k! (N-k)!)."""
    n = len(q) - 1
    v_powers = [[1]]  # coefficient lists, index = power of x
    for _ in range(n):
        low = v_powers[-1]
        v_powers.append([t * a + r * b for a, b in zip(low + [0], [0] + low)])
    acc = [q[n]]
    for k in range(n - 1, -1, -1):
        acc = [t * b - r * a + q[k] * c
               for a, b, c in zip(acc + [0], [0] + acc, v_powers[n - k])]
    fact = [math.factorial(j) for j in range(n + 1)]
    norm = sum(qk * qk * fact[k] * fact[n - k] for k, qk in enumerate(q)) * 25**n
    return [Fraction(d * d * fact[j] * fact[n - j], norm) for j, d in enumerate(acc)]


def block_state(q, cutoff):
    """The normalized state of exact_block_counts' input at this cutoff."""
    n = len(q) - 1
    fact = [math.factorial(j) for j in range(n + 1)]
    norm = sum(qk * qk * fact[k] * fact[n - k] for k, qk in enumerate(q))
    amp = np.zeros((cutoff + 1, cutoff + 1))
    for k in np.flatnonzero(q):
        amp[k, n - k] = math.copysign(
            math.sqrt(Fraction(q[k] * q[k] * fact[k] * fact[n - k], norm)), q[k])
    return TwoModeState(cutoff, ((1.0, amp),))


def check_exact_counts(q, cutoff):
    """rotate_many of block_state(q) against exact_block_counts on every axis
    of RATIONAL_SPLITTERS, to 1e-15 at every count, the zeros included."""
    n = len(q) - 1
    p = rotate_many(block_state(q, cutoff),
                    [direction_from_tr(t / 5, r / 5) for t, r in RATIONAL_SPLITTERS])
    for got, (t, r) in zip(p, RATIONAL_SPLITTERS):
        want = np.zeros_like(got)
        want[np.arange(n + 1), n - np.arange(n + 1)] = [
            float(x) for x in exact_block_counts(q, t, r)]
        assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("n_a, n_b", [(120, 0), (60, 40), (120, 120), (1, 120)])
def test_fock_counts_match_the_exact_rational_oracle(monkeypatch, n_a, n_b):
    # |n_a, n_b> fills one column of its block: the recurrence route, with
    # blocks up to N = 240
    routes = recording_routes(monkeypatch)
    check_exact_counts([0] * n_a + [1] + [0] * n_b, 120)
    assert set(routes) == {"recurrence"}


@pytest.mark.parametrize("n", [77, 120, 240])
def test_dense_block_counts_match_the_exact_rational_oracle(monkeypatch, n):
    # every column of the block is live, so two axes take the half-turn
    # GEMMs (_half_turn_rows), which the Fock inputs never reach
    routes = recording_routes(monkeypatch)
    draw = random.Random(n)
    check_exact_counts([draw.randint(-9, 9) for _ in range(n)] + [1], n)
    assert routes == ["gemm"]
