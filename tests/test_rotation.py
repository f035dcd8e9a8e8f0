"""The batched SU(2) block-rotation engine behind every splitter."""

import math

import numpy as np
import pytest

import stokespace.fock as fock
from stokespace import (
    CoherentSpec,
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
    rotated = fock._rotated_blocks

    def lossy(amps, T, R):
        for idx, n, out in rotated(amps, T, R):
            yield idx, n, out * (1.0 + 1e-6)

    monkeypatch.setattr(fock, "_rotated_blocks", lossy)
    d = direction_to_beamsplitter((0.6, 0.0, 0.8))
    with pytest.raises(NumericalError):
        joint_photon_distribution(state, d)
    with pytest.raises(NumericalError):
        beam_splitter(state, d.T, d.R)
