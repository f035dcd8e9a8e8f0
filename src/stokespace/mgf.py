"""Moment generating function of photon counts in Stokes space.

The central object is the phase-insensitive generating function

    M(t e; tau) = <: exp(t e.S_op - tau N_op) :>
                = sum_{n_a, n_b} (1 + t - tau)^n_a (1 - t - tau)^n_b p(n_a, n_b; e)

where p is the joint photon distribution behind the splitter that
realizes the axis e.  Equivalent damping parameters are
lambda_a = tau - t and lambda_b = tau + t.  The series converges for |z|
below the state's reach (1/tanh xi for a squeezed vacuum, else inf): past
it ReachError is raised, and inside it, at |z| > 1, a TruncationWarning is
attached when the state misses probability mass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import TOL, QuadratureError, TruncationWarning
from .fock import (
    HomInputSpec,
    JointPhotonDistribution,
    MeasurementDirection,
    StateSpec,
    TmsvSpec,
    TwoModeState,
    _BUFFER_DOUBLES,
    _CoherentPoints,
    _check_kernels,
    _kernel_sums,
    _power_sum,
    _splitters,
    beam_splitter,
    coherent_amplitudes,
    joint_photon_distribution,
    power_expectation,
    stokes_points,
)


def _check_points(t, tau) -> None:
    """The input rule of every (t, tau): t finite, tau finite and >= 0."""
    t, tau = np.asarray(t), np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(t) & np.isfinite(tau) & (tau >= 0)):  # NaN fails
        raise ValueError("t must be finite and tau finite and >= 0")


def _kernels(t, tau) -> tuple:
    """The kernels (1 + t - tau, 1 - t - tau) of M at checked, broadcast points."""
    _check_points(t, tau)
    t, tau = np.asarray(t), np.asarray(tau, dtype=float)
    return 1.0 + t - tau, 1.0 - t - tau


@dataclass(frozen=True)
class MgfQuery:
    """One evaluation point: axis, finite complex t, finite damping tau >= 0."""

    direction: MeasurementDirection
    t: complex
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "t", complex(self.t))
        object.__setattr__(self, "tau", float(self.tau))
        _check_points(self.t, self.tau)


def mgf(state: TwoModeState, query: MgfQuery) -> complex:
    """Evaluate M through the truncated Fock pipeline."""
    return power_expectation(state, query.direction, *_kernels(query.t, query.tau))


def mgf_from_distribution(
    dist: JointPhotonDistribution, t, tau
) -> complex | np.ndarray:
    """M(t e; tau) on a distribution that was already computed.

    t and tau broadcast against each other: scalars give a complex, arrays
    give an array of that shape from one kernel sum.  Raises ValueError
    for any tau < 0 and any t or tau that is not finite.  The kernels meet
    the rules of fock._check_kernels, as on the streamed route: overflow
    (NumericalError), the reach (ReachError) and truncation (one warning).
    """
    z_a, z_b = _kernels(t, tau)
    _check_kernels(dist.leakage, dist.cutoff // 2, dist.reach, z_a, z_b)
    value = _power_sum(dist.p, z_a, z_b)
    return complex(value) if np.ndim(value) == 0 else value


def mgf_closed_form(
    spec: StateSpec, direction: MeasurementDirection, t: complex, tau: float
) -> complex:
    """Analytic M for the reference states.

    vacuum / coherent / mixture: sum_p w_p exp(t e.S_p - tau |S_p|) over the
    point set, each exponent whole (its terms may overflow alone), any complex t.
    hom_input (|1,1>): (1 - tau)^2 + (1 - 2 e_z^2) t^2, any complex t.
    tmsv: closed form valid for real t with 0 <= lambda_a, lambda_b <= 1.
    """
    _check_points(t, tau)
    e = direction.e
    if isinstance(spec, _CoherentPoints):
        intensity = (abs(spec.points) ** 2).sum(axis=1)  # |S_p|
        exponent = t * (stokes_points(spec.points) @ e) - tau * intensity
        return complex(spec._shares @ np.exp(exponent))
    if isinstance(spec, HomInputSpec):
        return (1.0 - tau) ** 2 + (1.0 - 2.0 * e[2] ** 2) * t * t
    if isinstance(spec, TmsvSpec):
        if abs(complex(t).imag) > 1e-12:
            raise ValueError("tmsv closed form requires real t")
        t = complex(t).real
        lam_a, lam_b = tau - t, tau + t
        if not (-1e-12 <= lam_a <= 1.0 + 1e-12 and -1e-12 <= lam_b <= 1.0 + 1e-12):
            raise ValueError(
                "tmsv closed form is valid only for 0 <= tau -+ t <= 1"
            )
        ch2 = math.cosh(spec.xi) ** 2
        sh2 = math.sinh(spec.xi) ** 2
        sin2 = 1.0 - e[2] ** 2
        a = ch2 - (1.0 - lam_a) * (1.0 - lam_b) * sh2
        val = a * a - sin2 * sh2 * ch2 * (lam_a - lam_b) ** 2
        if val <= 0:
            raise ValueError("tmsv closed form left its validity domain")
        return complex(val ** -0.5)
    raise ValueError(f"no closed form for spec {spec!r}")


# ---------------------------------------------------------------------------
# surface map


@dataclass(frozen=True)
class SurfaceSample:
    """One point of the map e -> M(t e; tau) e over the unit sphere."""

    e: np.ndarray
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "e", np.asarray(self.e, dtype=float).reshape(3))

    @property
    def mapped(self) -> np.ndarray:
        return self.value * self.e


def sphere_grid(n_theta: int, n_phi: int) -> np.ndarray:
    """(n_theta * n_phi, 3) axes with poles included on the theta rows."""
    if n_theta < 2 or n_phi < 1:
        raise ValueError("need n_theta >= 2 and n_phi >= 1")
    thetas = np.linspace(0.0, np.pi, n_theta)[:, None]
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    st, ct = np.sin(thetas), np.cos(thetas)
    out = np.stack(
        np.broadcast_arrays(st * np.cos(phis), st * np.sin(phis), ct), axis=-1
    )
    return out.reshape(n_theta * n_phi, 3)


def surface_map(
    state: TwoModeState, t: complex, tau: float, axes
) -> list[SurfaceSample]:
    """Evaluate M(t e; tau) on a set of unit axes and radially map it.

    The axes are rotated in batches, after the kernel rules are judged once.  For
    real t on a physical state the value is real; its imaginary rounding
    residue is dropped.  For genuinely complex t the complex value scales
    the axis.
    """
    axes, T, R = _splitters(axes)
    values = _kernel_sums(state, T, R, *_kernels([complex(t)], float(tau)))[:, 0]
    samples = []
    for e, value in zip(axes, values):
        value = complex(value)
        if abs(value.imag) <= 1e-12 * max(1.0, abs(value.real)):
            value = value.real
        samples.append(SurfaceSample(e=e, value=value))
    return samples


# ---------------------------------------------------------------------------
# Husimi route


def husimi_q(state: TwoModeState, alpha, beta) -> float | np.ndarray:
    """Husimi function Q(alpha, beta) = <alpha, beta|rho|alpha, beta> / pi^2.

    Scalars give a float; 1-d arrays give Q on their product grid,
    q[i, j] = Q(alpha[i], beta[j]), from one bra matrix per mode.
    """
    bra_a = np.conj(coherent_amplitudes(alpha, state.cutoff))
    bra_b = np.conj(coherent_amplitudes(beta, state.cutoff))
    q = 0.0
    for w, amp in state.components:
        ov = bra_a @ amp @ bra_b.T
        q = q + w * (ov.real**2 + ov.imag**2)
    q = q / math.pi**2
    return float(q) if np.ndim(q) == 0 else q


# Gauss-Legendre nodes in r^2 of the coarse polar quadrature (trapezoid in
# angle); the check run adds 16
_N_RADIAL = 48


def _radial_cutoff(lam: float, degree: int) -> float:
    """Upper limit in u = r^2 where kernel * u^degree is below ~1e-16."""
    scale = 1.0 - lam
    u = scale * 40.0 + 2.0 * degree
    for _ in range(4):
        u = scale * (40.0 + degree * math.log(max(u, 2.0)))
    return max(u, scale * 40.0)


def _mode_nodes(lam: float, cutoff: int, n_radial: int, n_phi: int):
    """Complex nodes and combined weights for one output mode.

    Weights include the node measure d^2 alpha = du dphi / 2 and the
    damping kernel exp(-lam u / (1 - lam)) / (1 - lam).
    """
    x, wx = np.polynomial.legendre.leggauss(n_radial)
    umax = _radial_cutoff(lam, cutoff)
    u = 0.5 * umax * (x + 1.0)
    wu = 0.5 * umax * wx
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    # nodes: all (r, phi) combinations
    r = np.sqrt(u)
    pts = (r[:, None] * np.exp(1j * phi)[None, :]).ravel()
    kern = np.exp(-lam * u / (1.0 - lam)) / (1.0 - lam)
    wts = ((wu * kern)[:, None] * np.full(n_phi, 2.0 * np.pi / n_phi)[None, :]).ravel()
    return pts, wts / 2.0


def _husimi_quadrature_value(rotated, lam_a, lam_b, n_radial, n_phi) -> float:
    """w_a @ Q @ w_b, Q taken in blocks of alpha rows of _BUFFER_DOUBLES bra entries."""
    pts_a, w_a = _mode_nodes(lam_a, rotated.cutoff, n_radial, n_phi)
    pts_b, w_b = _mode_nodes(lam_b, rotated.cutoff, n_radial, n_phi)
    step = max(1, _BUFFER_DOUBLES // (rotated.cutoff + 1))
    return float(sum(w_a[lo : lo + step] @ husimi_q(rotated, pts_a[lo : lo + step], pts_b)
                     @ w_b for lo in range(0, pts_a.size, step)))


def mgf_via_husimi_quadrature(
    state: TwoModeState, direction: MeasurementDirection, t: float, tau: float
) -> float:
    """M evaluated through the Husimi phase-space integral.

    Independent of the Fock kernel sum: the state is rotated to the
    output basis and the damping kernel is integrated against Q.  Valid
    for real t with 0 <= lambda_a, lambda_b < 1.  Raises
    QuadratureError if node refinement does not confirm the value.
    """
    if not abs(complex(t).imag) <= 1e-12:  # NaN fails too
        raise ValueError("Husimi quadrature requires real t")
    t = complex(t).real
    lam_a, lam_b = tau - t, tau + t
    if not (0.0 <= lam_a < 1.0 and 0.0 <= lam_b < 1.0):
        raise ValueError("requires 0 <= tau -+ t < 1 for an integrable kernel")
    rotated = beam_splitter(state, direction.T, direction.R)
    n_phi = 2 * state.cutoff + 3  # enough for exact angular sums
    coarse = _husimi_quadrature_value(rotated, lam_a, lam_b, _N_RADIAL, n_phi)
    fine = _husimi_quadrature_value(rotated, lam_a, lam_b, _N_RADIAL + 16, n_phi + 4)
    scale = max(abs(fine), abs(coarse), 1e-3)
    if not abs(fine - coarse) <= TOL.quadrature_rtol * scale:  # NaN fails too
        raise QuadratureError(
            f"Husimi quadrature did not converge: {coarse!r} vs {fine!r}"
        )
    return fine


# ---------------------------------------------------------------------------
# node finding


def find_node(
    state: TwoModeState,
    direction: MeasurementDirection,
    tau: float,
    t_interval: tuple[float, float],
) -> float | None:
    """First sign-change root of t -> M(t e; tau) on a finite real interval.

    Scans TOL.node_scan_points points in one kernel sum, then rescans the first
    bracket with a sign change until it is at most TOL.node_xtol wide or holds
    no double.  Returns its midpoint, an exact zero at a scan point, or None if
    the first scan finds no sign change; that scan holds both ends, so its
    kernel rules (one warning) cover every later point."""
    a, b = float(t_interval[0]), float(t_interval[1])
    _check_points((a, b), tau)
    if not b > a:
        raise ValueError("t_interval must satisfy t_min < t_max")
    dist = joint_photon_distribution(state, direction)
    ts = np.linspace(a, b, TOL.node_scan_points)
    vals = mgf_from_distribution(dist, ts, tau).real
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        while True:
            hit = (vals == 0.0) | np.append(vals[:-1] * vals[1:] < 0.0, False)
            if not hit.any():  # only on the first scan: a rescan repeats its ends
                return None
            i = int(np.argmax(hit))
            if vals[i] == 0.0:
                return float(ts[i])
            lo, hi = ts[i], ts[i + 1]
            if hi - lo <= TOL.node_xtol or np.nextafter(lo, hi) == hi:
                return float(0.5 * (lo + hi))
            ts = np.linspace(lo, hi, TOL.node_scan_points)
            vals = mgf_from_distribution(dist, ts, tau).real
