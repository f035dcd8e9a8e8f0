"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest
from scipy.linalg import expm, logm

from stokespace import (
    Grid3,
    MeasurementDirection,
    PessGrid,
    TwoModeState,
    direction_from_tr,
)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def dense_ladder(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation operators a, b on the (cutoff+1)^2 box, row-major (n_a, n_b)."""
    n = cutoff + 1
    one = np.diag(np.sqrt(np.arange(1, n)), k=1)
    eye = np.eye(n)
    return np.kron(one, eye), np.kron(eye, one)


def splitter_oracle(amp: np.ndarray, T: complex, R: complex) -> np.ndarray:
    """Exponentiated-generator reference for the beam splitter.

    Builds the number-conserving generator whose one-particle matrix is
    log([[T, R], [-R*, T*]]) and applies its dense exponential.  Exact
    for amplitude grids supported on n_a + n_b <= cutoff, where no block
    crosses the square truncation.
    """
    cutoff = amp.shape[0] - 1
    g = logm(np.array([[T, R], [-np.conj(R), np.conj(T)]]))
    a, b = dense_ladder(cutoff)
    gen = (
        g[0, 0] * a.conj().T @ a
        + g[0, 1] * a.conj().T @ b
        + g[1, 0] * b.conj().T @ a
        + g[1, 1] * b.conj().T @ b
    )
    return (expm(gen) @ amp.ravel()).reshape(amp.shape)


def random_direction(rng: np.random.Generator) -> MeasurementDirection:
    """Haar-like random axis realized with a random splitter phase pair."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    theta = np.arccos(np.clip(v[2], -1.0, 1.0))
    phi = np.arctan2(v[1], v[0])
    chi = rng.uniform(0.0, 2.0 * np.pi)
    T = np.cos(theta / 2.0) * np.exp(1j * chi)
    R = np.sin(theta / 2.0) * np.exp(1j * (chi - phi))
    return direction_from_tr(T, R)


def random_low_state(rng: np.random.Generator, cutoff: int, n_max: int) -> TwoModeState:
    """Normalized random pure state supported on n_a + n_b <= n_max <= cutoff."""
    amp = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for na in range(n_max + 1):
        for nb in range(n_max + 1 - na):
            amp[na, nb] = rng.normal() + 1j * rng.normal()
    amp /= np.linalg.norm(amp)
    return TwoModeState(cutoff=cutoff, components=((1.0, amp),), leakage=0.0)


def stokes_mean(state: TwoModeState) -> tuple[np.ndarray, float]:
    """(S, S0): the mean Stokes vector of the input modes (no splitter
    applied) and the mean total photon number, read off the amplitudes by
    the ladder operators: independent of the rotation."""
    c = state.cutoff
    n = np.arange(c + 1, dtype=float)
    cross_w = np.sqrt(np.outer(n[1:], n[1:]))  # sqrt(n_a (n_b+1)) grid, shifted
    sx = 0.0
    sy = 0.0
    na_mean = 0.0
    nb_mean = 0.0
    for w, amp in state.components:
        prob = amp.real**2 + amp.imag**2
        na_mean += w * float(n @ prob.sum(axis=1))
        nb_mean += w * float(prob.sum(axis=0) @ n)
        # <a^dag b> couples amp[n_a, n_b] with amp[n_a - 1, n_b + 1]
        ab = np.sum(np.conj(amp[1:, :-1]) * cross_w * amp[:-1, 1:])
        sx += w * 2.0 * ab.real
        sy += w * 2.0 * ab.imag
    return np.array([sx, sy, na_mean - nb_mean]), na_mean + nb_mean


def gaussian_pess_exact(sigma: float, grid: Grid3) -> PessGrid:
    """Closed-form density of the Gaussian ensemble, exp(-S/s^2)/(4 pi S s^4)."""
    ax, ay, az = grid.axes()
    s = np.sqrt(
        ax[:, None, None] ** 2 + ay[None, :, None] ** 2 + az[None, None, :] ** 2
    )
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.exp(-s / sigma**2) / (4.0 * np.pi * s * sigma**4)
    vals[~np.isfinite(vals)] = 0.0
    return PessGrid(grid=grid, values=vals, tau_used=0.0, window="none", label="exact")


@pytest.fixture
def rng():
    return rng_for(20260819)
