"""Phase-space reconstruction on the Stokes ball.

The damped Fourier data M(i k; tau) on a Cartesian k grid inverts to the
essential phase-space density P(S) via

    P(S) = exp(tau |S|) (2 pi)^-3  Integral d^3k  M(i k; tau) exp(-i k.S),

discretized with an FFT on matched grids.  Data can come from a full
two-mode state (one measurement rotation per k direction), from an
explicit ensemble of coherent-state pairs, from a sampler (Monte Carlo),
or from an analytic characteristic kernel when one is known.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import TOL, ConvergenceWarning, NumericalError
from .fock import (
    TwoModeState,
    _complex_from_json,
    _kernel_sums,
    direction_to_beamsplitter,
)

_WINDOWS = ("raised-cosine", "none")
# complex entries of one point chunk's phase table in _kernel_from_points (32 MB)
_POINT_CHUNK_ENTRIES = 1 << 21


@dataclass(frozen=True)
class Grid3:
    """Uniform Cartesian grid: per-axis endpoints and point counts (even, >= 8)."""

    mins: tuple[float, float, float]
    maxs: tuple[float, float, float]
    ns: tuple[int, int, int]

    def __post_init__(self):
        mins = tuple(float(v) for v in self.mins)
        maxs = tuple(float(v) for v in self.maxs)
        ns = tuple(int(v) for v in self.ns)
        if len(mins) != 3 or len(maxs) != 3 or len(ns) != 3:
            raise ValueError("grid needs three axes")
        for lo, hi, n in zip(mins, maxs, ns):
            if not hi > lo:
                raise ValueError("axis max must exceed min")
            if n < 8 or n % 2:
                raise ValueError("each axis needs an even point count >= 8")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)
        object.__setattr__(self, "ns", ns)

    @classmethod
    def cube(cls, s_max: float, n: int) -> "Grid3":
        return cls((-s_max,) * 3, (s_max,) * 3, (n,) * 3)

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(
            np.linspace(lo, hi, n)
            for lo, hi, n in zip(self.mins, self.maxs, self.ns)
        )

    def spacing(self) -> tuple[float, float, float]:
        return tuple(
            (hi - lo) / (n - 1) for lo, hi, n in zip(self.mins, self.maxs, self.ns)
        )

    @property
    def cell_volume(self) -> float:
        hx, hy, hz = self.spacing()
        return hx * hy * hz


def dual_grid(grid: Grid3) -> Grid3:
    """FFT-matched k grid: spacing 2 pi / (n h), centered on zero."""
    mins, maxs, ns = [], [], []
    for h, n in zip(grid.spacing(), grid.ns):
        dk = 2.0 * np.pi / (n * h)
        mins.append(-(n // 2) * dk)
        maxs.append((n // 2 - 1) * dk)
        ns.append(n)
    return Grid3(tuple(mins), tuple(maxs), tuple(ns))


@dataclass(frozen=True)
class PessGrid:
    """Essential phase-space density sampled on a Stokes-space grid."""

    grid: Grid3
    values: np.ndarray
    tau_used: float
    window: str
    label: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.ns:
            raise ValueError("values shape must match the grid")
        object.__setattr__(self, "values", values)

    @property
    def total_mass(self) -> float:
        return float(self.values.sum()) * self.grid.cell_volume

    @property
    def peak(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def min_value(self) -> float:
        return float(self.values.min())


@dataclass(frozen=True)
class CoherentEnsemble:
    """Classical ensemble of coherent pairs (alpha, beta).

    Provide at least one of: explicit points (optionally weighted), a
    sampler(rng, n) -> (n, 2) complex array, or an analytic kernel
    char_kernel(k_points, tau) -> E[exp(i k.S - tau |S|)].
    """

    points: np.ndarray | None = None
    weights: np.ndarray | None = None
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None
    char_kernel: Callable[[np.ndarray, float], np.ndarray] | None = None

    def __post_init__(self):
        if self.points is None and self.sampler is None and self.char_kernel is None:
            raise ValueError("ensemble needs points, a sampler, or a kernel")
        if self.points is not None:
            pts = np.atleast_2d(np.asarray(self.points, dtype=complex))
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError("points must have shape (m, 2)")
            object.__setattr__(self, "points", pts)
            if self.weights is not None:
                w = np.asarray(self.weights, dtype=float)
                if w.shape != (pts.shape[0],):
                    raise ValueError("weights must match the number of points")
                if w.min() < 0 or abs(w.sum() - 1.0) > 1e-12:
                    raise ValueError("weights must be nonnegative and sum to 1")
                object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise ValueError("weights require explicit points")


def ensemble_from_json(obj: dict) -> CoherentEnsemble:
    """Build an ensemble from {"points": [[a, b], ...], "weights": [...]}
    or {"gaussian": {"sigma": s, "mean_alpha": a, "mean_beta": b}} where
    complex entries are {"re": x, "im": y}."""
    if "gaussian" in obj:
        g = obj["gaussian"]
        return gaussian_ensemble(
            float(g["sigma"]),
            _complex_from_json(g.get("mean_alpha", 0.0)),
            _complex_from_json(g.get("mean_beta", 0.0)),
        )
    if "points" in obj:
        pts = np.array(
            [[_complex_from_json(a), _complex_from_json(b)] for a, b in obj["points"]],
            dtype=complex,
        )
        weights = obj.get("weights")
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
        return CoherentEnsemble(points=pts, weights=weights)
    raise ValueError("ensemble JSON needs a 'points' or 'gaussian' entry")


def stokes_points(pairs: np.ndarray) -> np.ndarray:
    """Map (m, 2) coherent amplitudes to (m, 3) Stokes vectors."""
    pairs = np.atleast_2d(np.asarray(pairs, dtype=complex))
    a, b = pairs[:, 0], pairs[:, 1]
    cross = np.conj(a) * b
    return np.stack(
        [2.0 * cross.real, 2.0 * cross.imag, np.abs(a) ** 2 - np.abs(b) ** 2],
        axis=1,
    )


def gaussian_ensemble(
    sigma: float, mean_alpha: complex = 0.0, mean_beta: complex = 0.0
) -> CoherentEnsemble:
    """Independent circular-Gaussian amplitudes with optional means.

    Both noise terms have E|delta|^2 = sigma^2.  The damped
    characteristic kernel is exact: since k.S and |S| are quadratic
    forms in (alpha, beta), the Gaussian expectation reduces to a 2x2
    determinant and a noncentral exponent,

        E exp(i k.S - tau |S|)
          = exp[(i k.S0 - (sigma^2 k^2 + tau (1 + sigma^2 tau)) I0) / d] / d,

    with d = (1 + sigma^2 tau)^2 + sigma^4 k^2, S0 the Stokes vector of
    the means and I0 their total intensity.  A matching sampler is
    provided for Monte Carlo cross-checks.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    mu = np.array([mean_alpha, mean_beta], dtype=complex)
    s0 = stokes_points(mu[None, :])[0]
    i0 = float(np.abs(mu[0]) ** 2 + np.abs(mu[1]) ** 2)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        vals = rng.normal(scale=sigma / np.sqrt(2.0), size=(n, 4))
        a = mu[0] + vals[:, 0] + 1j * vals[:, 1]
        b = mu[1] + vals[:, 2] + 1j * vals[:, 3]
        return np.stack([a, b], axis=1)

    def kernel(k_points: np.ndarray, tau: float) -> np.ndarray:
        k_points = np.asarray(k_points, dtype=float)
        k2 = np.sum(k_points**2, axis=1)
        det = (1.0 + sigma**2 * tau) ** 2 + sigma**4 * k2
        top = 1j * (k_points @ s0) - (
            sigma**2 * k2 + tau * (1.0 + sigma**2 * tau)
        ) * i0
        return np.exp(top / det) / det

    return CoherentEnsemble(sampler=sampler, char_kernel=kernel)


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


def _kernel_from_points(
    k_axes, pts: np.ndarray, weights: np.ndarray | None, tau: float
) -> np.ndarray:
    """sum_p w_p exp(i k.S_p - tau |S_p|) on the Cartesian grid of k_axes.

    exp(i k.S) = e^{i kx Sx} e^{i ky Sy} e^{i kz Sz}, so the sum is one
    complex GEMM (nx, m) @ (m, ny nz) over three 1-D phase tables, run
    over chunks of points to bound the (m, ny nz) operand.
    """
    kx, ky, kz = k_axes
    svec = stokes_points(pts)
    m = svec.shape[0]
    w = np.full(m, 1.0 / m) if weights is None else weights
    damp = w * np.exp(-tau * np.linalg.norm(svec, axis=1))
    out = np.zeros((kx.size, ky.size * kz.size), dtype=complex)
    step = max(1, _POINT_CHUNK_ENTRIES // (ky.size * kz.size))
    for lo in range(0, m, step):
        sx, sy, sz = svec[lo:lo + step].T
        ex = np.exp(1j * np.multiply.outer(kx, sx)) * damp[lo:lo + step]
        ey = np.exp(1j * np.multiply.outer(sy, ky))
        ez = np.exp(1j * np.multiply.outer(sz, kz))
        out += ex @ (ey[:, :, None] * ez[:, None, :]).reshape(sx.size, -1)
    return out.reshape(kx.size, ky.size, kz.size)


def _state_grid_values(
    state: TwoModeState, k_flat: np.ndarray, ns: tuple[int, int, int], tau: float
) -> np.ndarray:
    """One measurement rotation per k direction, all in batches; conjugate
    symmetry M(-k) = M(k)* halves the work.  Existence is judged once."""
    n = k_flat.shape[0]
    i, j, l = np.unravel_index(np.arange(n), ns)
    inner = (i >= 1) & (j >= 1) & (l >= 1)
    mirror = np.arange(n)
    mirror[inner] = np.arange(n).reshape(ns)[
        ns[0] - i[inner], ns[1] - j[inner], ns[2] - l[inner]
    ]
    todo = np.flatnonzero(mirror >= np.arange(n))
    norms = np.linalg.norm(k_flat[todo], axis=1)
    axes = np.where(norms[:, None] > 0.0, k_flat[todo], (0.0, 0.0, 1.0))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    z_a, z_b = 1.0 + 1j * norms - tau, 1.0 - 1j * norms - tau
    vals = _kernel_sums(state, (direction_to_beamsplitter(e) for e in axes),
                        z_a, z_b)
    flat = np.empty(n, dtype=complex)
    flat[mirror[todo]] = np.conj(vals)
    flat[todo] = vals  # points that are their own mirror keep M, not M*
    return flat


def default_tau(s_grid: Grid3) -> float:
    """Damping exponent 1 / (2 r) for grid radius r, so exp(tau |S|) <= e^(1/2)."""
    r = np.sqrt(
        sum(max(lo**2, hi**2) for lo, hi in zip(s_grid.mins, s_grid.maxs))
    )
    return 0.5 / r


def mgf_imaginary_grid(
    source,
    k_grid: Grid3,
    tau: float,
    n_samples: int = 100000,
    seed: int = 0,
) -> np.ndarray:
    """M(i k; tau) on a Cartesian k grid (the FFT dual of the target s grid).

    source may be a TwoModeState (exact, one beam-splitter rotation per
    k direction) or a CoherentEnsemble.  Ensembles use, in order of
    preference: the analytic kernel, the explicit point list, or a
    Monte Carlo draw from the sampler (with a warning, since values
    then carry statistical noise of order 1/sqrt(n_samples)).  Output
    obeys M(-k) = M(k)* wherever the grid holds both points.

    Ensembles without an explicit point list have unbounded Stokes
    support, where tau > 0 is required for the damped expectation to
    exist; truncated states and finite point lists accept tau = 0.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if (
        isinstance(source, CoherentEnsemble)
        and source.points is None
        and tau == 0
    ):
        raise ValueError("tau must be > 0 for ensembles with unbounded support")
    kg = k_grid
    k_flat = np.stack(np.meshgrid(*kg.axes(), indexing="ij"), axis=-1).reshape(-1, 3)
    if isinstance(source, TwoModeState):
        flat = _state_grid_values(source, k_flat, kg.ns, tau)
    elif isinstance(source, CoherentEnsemble):
        if source.char_kernel is not None:
            flat = np.asarray(source.char_kernel(k_flat, tau), dtype=complex)
        elif source.points is not None:
            flat = _kernel_from_points(kg.axes(), source.points, source.weights, tau)
        else:
            warnings.warn(
                f"sampling {n_samples} ensemble points; grid values carry "
                "Monte Carlo noise",
                UserWarning,
                stacklevel=2,
            )
            rng = np.random.Generator(np.random.Philox(key=seed))
            pts = np.asarray(source.sampler(rng, n_samples), dtype=complex)
            flat = _kernel_from_points(kg.axes(), pts, None, tau)
    else:
        raise TypeError("source must be a TwoModeState or a CoherentEnsemble")
    return flat.reshape(kg.ns)


def invert_to_pess(
    mgf_values: np.ndarray,
    s_grid: Grid3,
    tau: float,
    window: str = "raised-cosine",
    norm_tol: float = TOL.pess_norm,
    k_cut: float | None = None,
) -> PessGrid:
    """FFT inversion of damped Fourier data to the essential density.

    A radial raised-cosine window suppresses ringing from the hard grid
    cutoff; pass window="none" for the bare (unwindowed) transform.
    Warns when the recovered mass drifts from 1 beyond norm_tol or when
    boundary mass suggests the grid extent is too small; data violating
    M(-k) = M(k)* beyond rounding raises NumericalError.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if window not in _WINDOWS:
        raise ValueError(f"window must be one of {_WINDOWS}")
    mgf_values = np.asarray(mgf_values, dtype=complex)
    if mgf_values.shape != s_grid.ns:
        raise ValueError("data shape must match the grid")
    kg = dual_grid(s_grid)
    kx, ky, kz = kg.axes()
    k_norm = np.sqrt(
        kx[:, None, None] ** 2 + ky[None, :, None] ** 2 + kz[None, None, :] ** 2
    )
    if window == "raised-cosine":
        if k_cut is None:
            k_cut = min(-lo for lo in kg.mins)
        w = np.where(
            k_norm < k_cut, np.cos(np.pi * k_norm / (2.0 * k_cut)) ** 2, 0.0
        )
    else:
        w = np.ones_like(k_norm)
    phase = [np.exp(-1j * k * lo) for k, lo in zip(kg.axes(), s_grid.mins)]
    data = (
        mgf_values
        * w
        * phase[0][:, None, None]
        * phase[1][None, :, None]
        * phase[2][None, None, :]
    )
    # bin m pairs with bin (n - m) mod n, where Hermitian data must be
    # conjugate; the m = 0 planes (k = -K with no +K partner) are left out
    # of the corruption check.  Only the real part of the transform is
    # kept, which is the transform of the Hermitian part of the data, so
    # it is the exactly real symmetric Riemann sum
    interior = data[1:, 1:, 1:]
    residue = float(
        np.max(np.abs(interior - np.conj(interior[::-1, ::-1, ::-1])))
    )
    data_peak = float(np.max(np.abs(data)))
    if residue > 2.0 * TOL.pess_imag_residue * max(data_peak, 1e-300):
        raise NumericalError(
            f"anti-Hermitian residue {residue:.3e} exceeds "
            f"{TOL.pess_imag_residue:.0e} of the spectrum peak {data_peak:.3e}"
        )
    spectrum = np.fft.fftn(data)
    ax, ay, az = s_grid.axes()
    s_norm = np.sqrt(
        ax[:, None, None] ** 2 + ay[None, :, None] ** 2 + az[None, None, :] ** 2
    )
    signs = [1.0 - 2.0 * (np.arange(n) % 2) for n in s_grid.ns]
    scale = 1.0
    for h, n in zip(s_grid.spacing(), s_grid.ns):
        scale *= (2.0 * np.pi / (n * h)) / (2.0 * np.pi)
    values = (
        spectrum.real
        * np.exp(tau * s_norm)
        * scale
        * signs[0][:, None, None]
        * signs[1][None, :, None]
        * signs[2][None, None, :]
    )
    total = float(values.sum()) * s_grid.cell_volume
    if abs(total - 1.0) > norm_tol:
        warnings.warn(
            f"recovered mass {total:.6f} deviates from 1 beyond {norm_tol:.0e}",
            ConvergenceWarning,
            stacklevel=2,
        )
    face_mass = 0.0
    for axis in range(3):
        lead = np.take(values, 0, axis=axis)
        trail = np.take(values, -1, axis=axis)
        face_mass += float(np.abs(lead).sum() + np.abs(trail).sum())
    face_mass *= s_grid.cell_volume
    body_mass = float(np.abs(values).sum()) * s_grid.cell_volume
    if face_mass > 1e-3 * max(body_mass, 1e-300):
        warnings.warn(
            "significant mass on the grid boundary; increase the extent",
            ConvergenceWarning,
            stacklevel=2,
        )
    return PessGrid(
        grid=s_grid, values=values, tau_used=tau, window=window, label="fft-inversion"
    )


ORACLE_MIN_SAMPLES = 10**4


def pess_mc_oracle(
    ensemble: CoherentEnsemble, s_grid: Grid3, n: int, seed: int
) -> PessGrid:
    """Histogram density of Stokes vectors drawn from the ensemble.

    Independent of the Fourier route: bins raw samples on the grid cells
    and normalizes by the in-grid count.
    """
    if n < ORACLE_MIN_SAMPLES:
        raise ValueError(f"need at least {ORACLE_MIN_SAMPLES} samples")
    rng = np.random.Generator(np.random.Philox(key=seed))
    if ensemble.sampler is not None:
        pts = np.asarray(ensemble.sampler(rng, n), dtype=complex)
    elif ensemble.points is not None:
        m = ensemble.points.shape[0]
        w = ensemble.weights
        idx = rng.choice(m, size=n, p=w)
        pts = ensemble.points[idx]
    else:
        raise ValueError("ensemble has no sampler and no points")
    svec = stokes_points(pts)
    edges = [
        np.linspace(lo - h / 2.0, hi + h / 2.0, num + 1)
        for lo, hi, num, h in zip(
            s_grid.mins, s_grid.maxs, s_grid.ns, s_grid.spacing()
        )
    ]
    counts, _ = np.histogramdd(svec, bins=edges)
    inside = counts.sum()
    if inside == 0:
        raise NumericalError("no samples landed on the grid")
    values = counts / (inside * s_grid.cell_volume)
    return PessGrid(
        grid=s_grid, values=values, tau_used=0.0, window="none", label="mc-histogram"
    )


class ClassicalityReport(NamedTuple):
    min_value: float
    essentially_classical: bool


def classicality_check(
    pess: PessGrid, tol: float | None = None
) -> ClassicalityReport:
    """Negativity test of a reconstructed density.

    The flag is true iff the grid minimum stays >= -tol.  tol must
    absorb band-limiting ringing: for windowed reconstructions 2% of
    the peak is a good choice and is the default; exact or histogram
    grids can use 0.
    """
    if tol is None:
        tol = 0.02 * pess.peak
    if tol < 0:
        raise ValueError("tol must be >= 0")
    min_value = pess.min_value
    return ClassicalityReport(
        min_value=min_value,
        essentially_classical=bool(min_value >= -tol),
    )


def l1_distance(a: PessGrid, b: PessGrid) -> float:
    """Integrated absolute difference of two densities on the same grid."""
    if a.grid != b.grid:
        raise ValueError("grids differ")
    return float(np.abs(a.values - b.values).sum()) * a.grid.cell_volume


def save_pess(pess: PessGrid, path) -> None:
    """Flat binary: one JSON header line, then row-major little-endian doubles."""
    header = {
        "mins": list(pess.grid.mins),
        "maxs": list(pess.grid.maxs),
        "ns": list(pess.grid.ns),
        "tau_used": pess.tau_used,
        "window": pess.window,
        "label": pess.label,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(pess.values, dtype="<f8").tobytes())


def load_pess(path) -> PessGrid:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        grid = Grid3(
            tuple(header["mins"]), tuple(header["maxs"]), tuple(header["ns"])
        )
        values = np.frombuffer(fh.read(), dtype="<f8").reshape(grid.ns)
    return PessGrid(
        grid=grid,
        values=values.copy(),
        tau_used=header["tau_used"],
        window=header["window"],
        label=header["label"],
    )
