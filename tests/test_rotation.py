"""The batched SU(2) block-rotation engine behind every splitter."""

import math

import numpy as np
import pytest

import stokespace.fock as fock
from stokespace import (
    CoherentSpec,
    HomInputSpec,
    MgfQuery,
    MixtureSpec,
    NumericalError,
    TmsvSpec,
    TwoModeState,
    auto_cutoff,
    beam_splitter,
    direction_from_tr,
    direction_to_beamsplitter,
    joint_photon_distribution,
    make_state,
    mgf,
    mgf_closed_form,
    rotate_many,
)
from conftest import random_direction, random_low_state, splitter_oracle


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
    rotated = fock._rotated_rows

    def lossy(*args, **kwargs):
        for idx, k, n, rows in rotated(*args, **kwargs):
            yield idx, k, n, rows * (1.0 + 1e-6)

    monkeypatch.setattr(fock, "_rotated_rows", lossy)
    d = direction_to_beamsplitter((0.6, 0.0, 0.8))
    with pytest.raises(NumericalError):
        joint_photon_distribution(state, d)
    with pytest.raises(NumericalError):
        beam_splitter(state, d.T, d.R)
    with pytest.raises(NumericalError):
        fock._kernel_sums(state, [d], np.ones(1), np.ones(1))


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
    # one axis on each side of |R| = |T|: beam_splitter swaps the modes of
    # the state for the second, so its plan is that of the swapped state
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


def test_plan_chunking_leaves_p_bit_identical(monkeypatch, rng):
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


def test_one_plan_per_call_across_direction_batches(monkeypatch, rng):
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


@pytest.mark.parametrize("buffer", [1, 1 << 30], ids=["batch-per-axis", "one-batch"])
def test_kernel_sums_read_the_rows_of_one_plan(monkeypatch, rng, buffer):
    spec = MixtureSpec(((0.4, 0.9 - 0.3j, 0.5j), (0.6, -0.4, 0.8 + 0.6j)))
    state = make_state(spec, 12)
    dirs = [random_direction(rng) for _ in range(9)]
    dirs += [direction_to_beamsplitter(e) for e in ((0, 0, 1), (0, 0, -1))]
    # kernels inside the unit disc, one pair per axis
    z_a, z_b = rng.uniform(0.0, 1.0, (2, len(dirs))) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, (2, len(dirs))))
    want = fock._power_sum(rotate_many(state, dirs), z_a, z_b)
    plans = recording_plans(monkeypatch)
    monkeypatch.setattr(fock, "_BUFFER_DOUBLES", buffer)
    got = fock._kernel_sums(state, iter(dirs), z_a, z_b)
    assert len(plans) == 1
    assert np.max(np.abs(got - want)) <= 1e-15
