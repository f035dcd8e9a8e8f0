"""Phase-space reconstruction on the Stokes ball.

The damped Fourier data M(i k; tau) on a Cartesian k grid inverts to the
essential phase-space density P(S) via

    P(S) = exp(tau |S|) (2 pi)^-3  Integral d^3k  M(i k; tau) exp(-i k.S),

discretized with an FFT on matched grids.  Data can come from a full
two-mode state (one measurement rotation per k direction), from the
exact kernel of a coherent point set (an ensemble, or a vacuum, coherent
or mixture spec), or from the closed form of a Gaussian ensemble.  Both
kinds of ensemble also draw pairs for the Monte-Carlo histogram oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import TOL, NumericalError
from .fock import (
    TwoModeState,
    _CoherentPoints,
    _ENSEMBLES,
    _check_finite,
    _from_json,
    _kernel_sums,
    _splitters,
    stokes_points,
)
from .mgf import _check_points, _kernels

_WINDOWS = ("raised-cosine", "none")
# draws binned at once by pess_mc_oracle (about 3 MB in flight)
_ORACLE_CHUNK = 1 << 15


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
        # the radius feeds default_tau and the damping rule, the cell volume every mass
        if not math.isfinite(self.radius):
            raise ValueError(f"grid extent {mins} to {maxs} overflows |S|^2")
        if not 0.0 < self.cell_volume < math.inf:
            raise ValueError(f"grid extent {mins} to {maxs} over {ns} points has cell "
                             f"volume {self.cell_volume!r}, not finite and > 0")

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
    def radius(self) -> float:
        """The largest |S| on the grid, at its farthest corner."""
        return math.sqrt(sum(max(lo * lo, hi * hi) for lo, hi in zip(self.mins, self.maxs)))

    @property
    def cell_volume(self) -> float:
        hx, hy, hz = self.spacing()
        return hx * hy * hz


def dual_grid(grid: Grid3) -> Grid3:
    """FFT-matched k grid: spacing 2 pi / (n h), centered on zero.  A grid
    whose dual breaks Grid3's rules raises ValueError naming the extent as
    given; the damping rule is judged beside this call, by _judge_inversion."""
    dk = [2.0 * math.pi / (n * h) for h, n in zip(grid.spacing(), grid.ns)]
    try:
        return Grid3(tuple(-(n // 2) * d for d, n in zip(dk, grid.ns)),
                     tuple((n // 2 - 1) * d for d, n in zip(dk, grid.ns)), grid.ns)
    except ValueError:
        raise ValueError(f"grid extent {grid.mins} to {grid.maxs} over {grid.ns} points "
                         "is too fine: its FFT dual overflows") from None


def _squared_norms(axes) -> np.ndarray:
    """|v|^2 on the Cartesian grid of three axes, as one grid of floats."""
    x, y, z = axes
    return x[:, None, None] ** 2 + y[None, :, None] ** 2 + z[None, None, :] ** 2


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
    def boundary_share(self) -> float:
        """|P| on the grid's six faces, a cell once per face it lies on, over
        |P| on the whole grid: how much of the density the extent cuts off."""
        v = np.abs(self.values)
        face = sum(float(np.take(v, i, axis).sum()) for axis in range(3) for i in (0, -1))
        return face / max(float(v.sum()), 1e-300)

    @property
    def peak(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def min_value(self) -> float:
        return float(self.values.min())


@dataclass(frozen=True, eq=False)
class CoherentEnsemble(_CoherentPoints):
    """Classical ensemble of coherent pairs (alpha, beta): an (m, 2) point
    list, equally weighted unless weights are given.  Its fields are arrays,
    so it compares and hashes by identity."""

    points: np.ndarray
    weights: np.ndarray | None = None


@dataclass(frozen=True)
class _GaussianEnsemble:
    """The three numbers of gaussian_ensemble.  The kernel squares sigma^2,
    so the finite-amplitude rule reads sigma^2 beside the two means."""

    sigma: float
    mean_alpha: complex
    mean_beta: complex

    def __post_init__(self):
        _check_finite({"sigma": self.sigma * self.sigma, "mean_alpha": self.mean_alpha,
                       "mean_beta": self.mean_beta})
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def kernel(self, k_grid: Grid3, tau: float) -> np.ndarray:
        """E exp(i k.S - tau |S|) in closed form.  Since k.S and |S| are
        quadratic forms in (alpha, beta), the Gaussian expectation reduces
        to a 2x2 determinant and a noncentral exponent,

            exp[(i k.S0 - (sigma^2 k^2 + tau (1 + sigma^2 tau)) I0) / d] / d,

        with d = (1 + sigma^2 tau)^2 + sigma^4 k^2, S0 the Stokes vector of
        the means and I0 their total intensity.  The Stokes support is
        unbounded, so the expectation needs tau > 0.  Beside the complex
        result, which holds the exponent, it allocates two grid floats (k^2
        and d, which holds k.S0 first, one matvec per k_x plane).
        """
        if tau == 0:
            raise ValueError("tau must be > 0 for ensembles with unbounded support")
        sigma = self.sigma
        mu = np.array([self.mean_alpha, self.mean_beta], dtype=complex)
        s0 = stokes_points(mu[None, :])[0]
        i0 = float(np.abs(mu[0]) ** 2 + np.abs(mu[1]) ** 2)
        kx, ky, kz = axes = k_grid.axes()
        k2 = _squared_norms(axes)
        det = np.empty(k_grid.ns)
        plane = np.stack(np.broadcast_arrays(0.0, ky[:, None], kz), axis=-1)
        for i, x in enumerate(kx):
            plane[..., 0] = x
            np.matmul(plane, s0, out=det[i])
        top = 1j * det
        np.multiply(k2, sigma**4, out=det)
        det += (1.0 + sigma**2 * tau) ** 2
        k2 *= sigma**2
        k2 += tau * (1.0 + sigma**2 * tau)
        k2 *= i0
        top -= k2
        top /= det
        np.exp(top, out=top)
        top /= det
        return top

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        mu = np.array([self.mean_alpha, self.mean_beta], dtype=complex)
        vals = rng.normal(scale=self.sigma / np.sqrt(2.0), size=(n, 4))
        a = mu[0] + vals[:, 0] + 1j * vals[:, 1]
        b = mu[1] + vals[:, 2] + 1j * vals[:, 3]
        return np.stack([a, b], axis=1)


def ensemble_from_json(obj) -> CoherentEnsemble | _GaussianEnsemble:
    """Build an ensemble from {"points": [[a, b], ...], "weights": [...]}
    or {"gaussian": {"sigma": s, "mean_alpha": a, "mean_beta": b}}, as an
    object or its JSON text, where complex entries are {"re": x, "im": y}
    or a bare real number.  The decoder is spec_from_json's: a key outside
    these, or a missing or mistyped field, a JSON true or "0.3" included,
    raises ValueError."""
    kind, fields = _from_json(obj, "ensemble", _ENSEMBLES)
    if kind == "gaussian":
        return gaussian_ensemble(**fields["gaussian"])
    return CoherentEnsemble(**fields)


def gaussian_ensemble(
    sigma: float, mean_alpha: complex = 0.0, mean_beta: complex = 0.0
) -> _GaussianEnsemble:
    """Independent circular-Gaussian amplitudes with optional means.

    Both noise terms have E|delta|^2 = sigma^2.  The record keeps the
    three numbers; its kernel is exact and its draws feed the
    Monte-Carlo histogram oracle.
    """
    return _GaussianEnsemble(float(sigma), complex(mean_alpha), complex(mean_beta))


def _state_grid_values(state: TwoModeState, k_grid: Grid3, tau: float) -> np.ndarray:
    """One measurement rotation per k direction, all in batches; conjugate
    symmetry M(-k) = M(k)* halves the work.  The kernel rules are judged
    once, before any rotation: a k grid past the state's reach raises
    ReachError."""
    # k -> -k maps the block k[1:, 1:, 1:] onto itself and reverses its C
    # order, so the block's second half mirrors its first; every point
    # outside the block (no -k partner on the grid) is computed
    todo = np.ones(k_grid.ns, dtype=bool)
    todo[1:, 1:, 1:].flat[todo[1:, 1:, 1:].size // 2 + 1:] = False
    kx, ky, kz = k_grid.axes()
    i, j, l = np.nonzero(todo)
    k = np.column_stack([kx[i], ky[j], kz[l]])
    norms = np.linalg.norm(k, axis=1)
    axes = np.where(norms[:, None] > 0.0, k, (0.0, 0.0, 1.0))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    z_a, z_b = _kernels(1j * norms[:, None], tau)
    out = np.empty(k_grid.ns, dtype=complex)
    out[todo] = _kernel_sums(state, *_splitters(axes)[1:], z_a, z_b)[:, 0]
    inner = out[1:, 1:, 1:]
    np.copyto(inner, np.conj(inner[::-1, ::-1, ::-1]), where=~todo[1:, 1:, 1:])
    return out


def default_tau(s_grid: Grid3) -> float:
    """Damping exponent 1 / (2 r) for grid radius r, so exp(tau |S|) <= e^(1/2)."""
    return 0.5 / s_grid.radius


def _judge_inversion(s_grid: Grid3, tau: float) -> Grid3:
    """Every rule an inversion of s_grid at tau needs before any data: tau
    finite and >= 0, the damping rule (exp(tau |S|) finite out to the grid
    radius) and the dual grid's own rules.  Returns the dual grid."""
    _check_points(0.0, tau)
    if not tau * s_grid.radius < np.log(np.finfo(float).max):
        raise ValueError(f"tau {tau!r} times the grid radius {s_grid.radius!r} "
                         "overflows exp(tau |S|)")
    return dual_grid(s_grid)


def mgf_imaginary_grid(source, k_grid: Grid3, tau: float) -> np.ndarray:
    """M(i k; tau) on a Cartesian k grid (the FFT dual of the target s grid).

    source is a TwoModeState (one beam-splitter rotation per k direction),
    a point set (CoherentEnsemble, or a vacuum, coherent or mixture spec;
    exact) or a gaussian_ensemble (closed form).  Output obeys M(-k) = M(k)*
    wherever the grid holds both points.  Truncated states and point sets
    accept tau = 0; a Gaussian's unbounded support needs tau > 0.
    """
    _check_points(0.0, tau)
    if isinstance(source, TwoModeState):
        return _state_grid_values(source, k_grid, tau)
    if isinstance(source, (_CoherentPoints, _GaussianEnsemble)):
        return source.kernel(k_grid, tau)
    raise TypeError("source must be a TwoModeState, a point set or a Gaussian ensemble")


def invert_to_pess(mgf_values: np.ndarray, s_grid: Grid3, tau: float,
                   window: str = "raised-cosine") -> PessGrid:
    """FFT inversion of damped Fourier data to the essential density.

    A radial raised-cosine window, falling to zero at the dual grid's
    edge, suppresses ringing from the hard grid cutoff; pass
    window="none" for the bare (unwindowed) transform.  Mass and face share
    are numbers of the result (total_mass, boundary_share); data violating
    M(-k) = M(k)* beyond rounding, or a density or mass that is not
    finite, raises NumericalError.  On entry, _judge_inversion's rules (tau, damping,
    the dual grid) raise ValueError; the grid's own were judged at its build.
    The input is never written: the data is one complex copy, windowed,
    phased and transformed in place, and the density is one grid of
    floats, so the peak is about 3 grid floats beyond the input.
    """
    kg = _judge_inversion(s_grid, tau)
    if window not in _WINDOWS:
        raise ValueError(f"window must be one of {_WINDOWS}")
    mgf_values = np.asarray(mgf_values, dtype=complex)
    if mgf_values.shape != s_grid.ns:
        raise ValueError("data shape must match the grid")
    # bin m holds k = (m - n/2) dk, and dk h = 2 pi / n: the shift that
    # starts the sum at k = 0 takes the factor (-1)^j off S index j.  The
    # copy is made shifted, and so is every factor on the k axes
    data = np.fft.ifftshift(mgf_values)
    kx, ky, kz = (np.fft.ifftshift(k) for k in kg.axes())
    if window == "raised-cosine":
        k_cut = min(-lo for lo in kg.mins)
        w = _squared_norms((kx, ky, kz))
        np.sqrt(w, out=w)
        outside = w >= k_cut
        w *= np.pi
        w /= 2.0 * k_cut
        np.cos(w, out=w)
        np.square(w, out=w)
        w[outside] = 0.0
        data *= w
        del w, outside
    phase = [np.exp(-1j * k * lo) for k, lo in zip((kx, ky, kz), s_grid.mins)]
    data *= phase[0][:, None, None]
    data *= phase[1][None, :, None]
    data *= phase[2][None, None, :]
    # bin j pairs with bin -j mod n, where Hermitian data must be
    # conjugate; bin n/2 (k = -K, no +K partner) is left out of the
    # corruption check, taken one k_x slab at a time.  Only the real part
    # of the transform is kept, the transform of the data's Hermitian
    # part, so it is the exactly real symmetric Riemann sum
    own = [np.delete(np.arange(n), n // 2) for n in s_grid.ns]
    ys, zs = np.ix_(own[1], own[2])
    residue = float(np.max([np.max(np.abs(data[i][ys, zs] - np.conj(data[-i][-ys, -zs])))
                            for i in own[0]]))
    data_peak = float(np.max(np.abs(data)))
    if not residue <= 2.0 * TOL.pess_imag_residue * max(data_peak, 1e-300):
        raise NumericalError(
            f"anti-Hermitian residue {residue:.3e} exceeds "
            f"{TOL.pess_imag_residue:.0e} of the spectrum peak {data_peak:.3e}"
        )
    scale = 1.0
    for h, n in zip(s_grid.spacing(), s_grid.ns):
        scale *= (2.0 * np.pi / (n * h)) / (2.0 * np.pi)
    with np.errstate(over="ignore", invalid="ignore"):  # judged just below
        np.fft.fftn(data, out=data)
        values = _squared_norms(s_grid.axes())
        np.sqrt(values, out=values)
        values *= tau
        np.exp(values, out=values)
        np.multiply(data.real, values, out=values)
        del data
        values *= scale
        pess = PessGrid(grid=s_grid, values=values, tau_used=tau, window=window,
                        label="fft-inversion")
        if not math.isfinite(pess.total_mass):  # so is every value
            raise NumericalError("the inverted density or its mass is not finite")
    return pess


ORACLE_MIN_SAMPLES = 10**4


def _cells(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.searchsorted(edges, x, "right") - 1, the last edge in the last
    cell, for uniform edges: the cell of each x, -1 below the grid and
    len(edges) - 1 or more above it (NaN too).  The arithmetic guess is
    at most one cell off, and one comparison each way settles it."""
    n = len(edges) - 1
    guess = np.floor((x - edges[0]) / (edges[1] - edges[0]))
    cell = np.fmax(np.fmin(guess, n), -1).astype(np.int64)  # fmin sends NaN to n
    bounds = np.concatenate([[-np.inf], edges, [np.inf]])  # cell c: bounds[c+1 : c+3]
    cell -= x < bounds[cell + 1]
    cell += x >= bounds[cell + 2]
    cell[x == edges[-1]] = n - 1
    return cell


def pess_mc_oracle(
    ensemble: _CoherentPoints | _GaussianEnsemble, s_grid: Grid3, n: int, seed: int
) -> PessGrid:
    """Histogram density of Stokes vectors drawn from the ensemble.

    Independent of the Fourier route: bins raw samples on the grid cells
    and normalizes by the in-grid count.  One Philox stream is drawn and
    binned in chunks of _ORACLE_CHUNK straight into one integer count
    grid, by np.histogramdd's rule (_cells), the same histogram for any
    chunk size, so memory holds the counts and one chunk whatever n is.
    """
    if n < ORACLE_MIN_SAMPLES:
        raise ValueError(f"need at least {ORACLE_MIN_SAMPLES} samples")
    rng = np.random.Generator(np.random.Philox(key=seed))
    edges = [np.linspace(lo - h / 2.0, hi + h / 2.0, num + 1) for lo, hi, num, h
             in zip(s_grid.mins, s_grid.maxs, s_grid.ns, s_grid.spacing())]
    nx, ny, nz = s_grid.ns
    counts = np.zeros(nx * ny * nz, np.int64)
    for lo in range(0, n, _ORACLE_CHUNK):
        draws = ensemble.draw(rng, min(_ORACLE_CHUNK, n - lo))
        cx, cy, cz = (_cells(e, x) for e, x in zip(edges, stokes_points(draws).T))
        del draws  # not held while the next chunk is drawn
        on_grid = (cx >= 0) & (cx < nx) & (cy >= 0) & (cy < ny) & (cz >= 0) & (cz < nz)
        np.add.at(counts, ((cx * ny + cy) * nz + cz)[on_grid], 1)
    counts = counts.reshape(s_grid.ns)
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


# negativity, as a share of the peak, left to the band-limiting ringing
# of a windowed reconstruction
_RINGING_SLACK = 0.02


def classicality_check(pess: PessGrid) -> ClassicalityReport:
    """Negativity test of a reconstructed density: the flag is true iff
    the grid minimum stays >= -2% of the peak (NaN reads false)."""
    min_value = pess.min_value
    return ClassicalityReport(
        min_value=min_value,
        essentially_classical=bool(min_value >= -_RINGING_SLACK * pess.peak),
    )


def l1_distance(a: PessGrid, b: PessGrid) -> float:
    """Integrated absolute difference of two densities on the same grid."""
    if a.grid != b.grid:
        raise ValueError("grids differ")
    return float(np.abs(a.values - b.values).sum()) * a.grid.cell_volume


def save_pess(pess: PessGrid, path) -> None:
    """Flat binary: one JSON header line, then row-major little-endian
    doubles, written from the array itself."""
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
        fh.write(memoryview(np.ascontiguousarray(pess.values, dtype="<f8")))


def load_pess(path) -> PessGrid:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        grid = Grid3(tuple(header["mins"]), tuple(header["maxs"]), tuple(header["ns"]))
        values = np.fromfile(fh, dtype="<f8").reshape(grid.ns)
    return PessGrid(grid=grid, values=values, tau_used=header["tau_used"],
                    window=header["window"], label=header["label"])
