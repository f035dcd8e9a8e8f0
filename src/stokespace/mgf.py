"""Moment generating function of photon counts in Stokes space.

The central object is the phase-insensitive generating function

    M(t e; tau) = <: exp(t e.S_op - tau N_op) :>
                = sum_{n_a, n_b} (1 + t - tau)^n_a (1 - t - tau)^n_b p(n_a, n_b; e)

where p is the joint photon distribution behind the splitter that
realizes the axis e.  Equivalent damping parameters are
lambda_a = tau - t and lambda_b = tau + t.  Existence is guaranteed for
|Re t| <= tau; elsewhere the truncated sum is still evaluated but a
warning is attached when the distribution misses probability mass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import TOL, ConvergenceWarning, QuadratureError
from .fock import (
    HomInputSpec,
    JointPhotonDistribution,
    MeasurementDirection,
    StateSpec,
    TmsvSpec,
    TwoModeState,
    _coherent_terms,
    _log_factorials,
    _power_sum,
    _warn_divergent,
    beam_splitter,
    coherent_amplitudes,
    coherent_stokes,
    direction_to_beamsplitter,
    joint_photon_distribution,
    power_expectation,
    rotate_many,
)


@dataclass(frozen=True)
class MgfQuery:
    """One evaluation point: axis, complex argument t, damping tau >= 0."""

    direction: MeasurementDirection
    t: complex
    tau: float
    require_existence: bool = False

    def __post_init__(self):
        object.__setattr__(self, "t", complex(self.t))
        object.__setattr__(self, "tau", float(self.tau))
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.require_existence and abs(self.t.real) > self.tau + 1e-12:
            raise ValueError("existence is guaranteed only for |Re t| <= tau")

    @property
    def lambda_a(self) -> complex:
        return self.tau - self.t

    @property
    def lambda_b(self) -> complex:
        return self.tau + self.t

    @property
    def z_a(self) -> complex:
        return 1.0 + self.t - self.tau

    @property
    def z_b(self) -> complex:
        return 1.0 - self.t - self.tau


def mgf(state: TwoModeState, query: MgfQuery) -> complex:
    """Evaluate M through the truncated Fock pipeline."""
    return power_expectation(state, query.direction, query.z_a, query.z_b)


def mgf_from_distribution(
    dist: JointPhotonDistribution, t, tau
) -> complex | np.ndarray:
    """M(t e; tau) on a distribution that was already computed.

    t and tau broadcast against each other: scalars give a complex, arrays
    give an array of that shape from one kernel sum.  Raises ValueError
    for any tau < 0.  Warns once when a kernel leaves the unit disc and
    dist.leakage is not negligible.
    """
    t, tau = np.asarray(t), np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be >= 0")
    z_a, z_b = 1.0 + t - tau, 1.0 - t - tau
    _warn_divergent(dist.leakage, z_a, z_b)
    value = _power_sum(dist.p, z_a, z_b)
    return complex(value) if np.ndim(value) == 0 else value


def mgf_closed_form(
    spec: StateSpec, direction: MeasurementDirection, t: complex, tau: float
) -> complex:
    """Analytic M for the reference states.

    vacuum / coherent / mixture: exp(t e.S - tau ||S||) per coherent pair,
    any complex t.
    hom_input (|1,1>): (1 - tau)^2 + (1 - 2 e_z^2) t^2, any complex t.
    tmsv: closed form valid for real t with 0 <= lambda_a, lambda_b <= 1.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    e = direction.e
    terms = _coherent_terms(spec)
    if terms is not None:
        total = 0.0 + 0.0j
        for w, a, b in terms:
            sv = coherent_stokes(a, b)
            total += w * complex(np.exp(t * float(e @ sv.S) - tau * sv.S0))
        return total
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


def char_fn(state: TwoModeState, k) -> complex:
    """Characteristic function Phi(k) = M(i k; 0); Phi(0) is the trivial 1."""
    k = np.asarray(k, dtype=float).reshape(3)
    norm = float(np.linalg.norm(k))
    if norm == 0.0:
        return 1.0 + 0.0j
    direction = direction_to_beamsplitter(k / norm)
    return mgf(state, MgfQuery(direction, t=1j * norm, tau=0.0))


# ---------------------------------------------------------------------------
# surface map


@dataclass(frozen=True)
class SurfaceSample:
    """One point of the map e -> M(t e; tau) e over the unit sphere."""

    e: np.ndarray
    value: complex
    mapped: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "e", np.asarray(self.e, dtype=float).reshape(3))
        object.__setattr__(self, "mapped", np.asarray(self.mapped).reshape(3))


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

    All axes are rotated in one batch, judged for existence on the
    state's leakage plus the largest mass one axis clipped.  For real t
    on a physical state the value is real; its imaginary rounding residue
    is dropped.  For genuinely complex t the complex value scales the axis.
    """
    axes = np.asarray(axes, dtype=float).reshape(-1, 3)
    directions = [direction_to_beamsplitter(e) for e in axes]
    if not directions:
        return []
    query = MgfQuery(directions[0], t, tau)
    p, clipped = rotate_many(state, directions)
    _warn_divergent(state.leakage + clipped.max(), query.z_a, query.z_b)
    samples = []
    for direction, value in zip(directions, _power_sum(p, query.z_a, query.z_b)):
        value = complex(value)
        if abs(value.imag) <= 1e-12 * max(1.0, abs(value.real)):
            value = value.real
            mapped = value * direction.e
        else:
            mapped = value * direction.e.astype(complex)
        samples.append(SurfaceSample(e=direction.e, value=value, mapped=mapped))
    return samples


# ---------------------------------------------------------------------------
# Husimi route


def husimi_q(state: TwoModeState, alpha: complex, beta: complex) -> float:
    """Husimi function Q(alpha, beta) = <alpha, beta|rho|alpha, beta> / pi^2."""
    bra_a = np.conj(coherent_amplitudes(alpha, state.cutoff))
    bra_b = np.conj(coherent_amplitudes(beta, state.cutoff))
    total = 0.0
    for w, amp in state.components:
        ov = bra_a @ (amp @ bra_b)
        total += w * (ov.real**2 + ov.imag**2)
    return total / math.pi**2


@dataclass(frozen=True)
class QuadratureConfig:
    """Polar tensor quadrature: Gauss-Legendre in r^2, trapezoid in angle."""

    n_radial: int = 48


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
    c = rotated.cutoff
    n = np.arange(c + 1)
    log_fact = 0.5 * _log_factorials(c)
    pts_a, w_a = _mode_nodes(lam_a, c, n_radial, n_phi)
    pts_b, w_b = _mode_nodes(lam_b, c, n_radial, n_phi)

    def bra(pts):
        # <alpha|n> = exp(-|alpha|^2/2) conj(alpha)^n / sqrt(n!)
        powers = np.conj(pts)[:, None] ** n[None, :]
        return powers * np.exp(-0.5 * np.abs(pts)[:, None] ** 2 - log_fact[None, :])

    A = bra(pts_a)
    B = bra(pts_b)
    total = 0.0
    for w, amp in rotated.components:
        ov = A @ amp @ B.T
        total += w * float(w_a @ (ov.real**2 + ov.imag**2) @ w_b)
    return total / math.pi**2


def mgf_via_husimi_quadrature(
    state: TwoModeState,
    direction: MeasurementDirection,
    t: float,
    tau: float,
    quad: QuadratureConfig | None = None,
) -> float:
    """M evaluated through the Husimi phase-space integral.

    Independent of the Fock kernel sum: the state is rotated to the
    output basis and the damping kernel is integrated against Q.  Valid
    for real t with 0 <= lambda_a, lambda_b < 1.  Raises
    QuadratureError if node refinement does not confirm the value.
    """
    if abs(complex(t).imag) > 1e-12:
        raise ValueError("Husimi quadrature requires real t")
    t = complex(t).real
    lam_a, lam_b = tau - t, tau + t
    if not (0.0 <= lam_a < 1.0 and 0.0 <= lam_b < 1.0):
        raise ValueError("requires 0 <= tau -+ t < 1 for an integrable kernel")
    quad = quad or QuadratureConfig()
    rotated = beam_splitter(state, direction.T, direction.R)
    n_phi = 2 * state.cutoff + 3  # enough for exact angular sums
    coarse = _husimi_quadrature_value(rotated, lam_a, lam_b, quad.n_radial, n_phi)
    fine = _husimi_quadrature_value(
        rotated, lam_a, lam_b, quad.n_radial + 16, n_phi + 4
    )
    if abs(fine - coarse) > TOL.quadrature_rtol * max(abs(fine), abs(coarse), 1e-3):
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
    """First sign-change root of t -> M(t e; tau) on a real interval.

    Pre-scans a uniform grid (TOL.node_scan_points points) and bisects
    the first bracket whose ends differ in sign until it is no wider than
    TOL.node_xtol; its midpoint is returned.  Returns None when M does
    not change sign on the grid.  The pre-scan holds both ends of the
    interval, so its one existence warning covers every later point.
    """
    a, b = float(t_interval[0]), float(t_interval[1])
    if not b > a:
        raise ValueError("t_interval must satisfy t_min < t_max")
    dist = joint_photon_distribution(state, direction)
    ts = np.linspace(a, b, TOL.node_scan_points)
    vals = mgf_from_distribution(dist, ts, tau).real

    for i in range(len(ts) - 1):
        if vals[i] == 0.0:
            return float(ts[i])
        if vals[i] * vals[i + 1] < 0.0:
            lo, hi, negative = float(ts[i]), float(ts[i + 1]), vals[i] < 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                while hi - lo > TOL.node_xtol:
                    mid = 0.5 * (lo + hi)
                    if mid in (lo, hi):  # no double left between the ends
                        break
                    val = mgf_from_distribution(dist, mid, tau).real
                    if val == 0.0:
                        return mid
                    if (val < 0.0) == negative:
                        lo = mid
                    else:
                        hi = mid
            return 0.5 * (lo + hi)
    if vals[-1] == 0.0:
        return float(ts[-1])
    return None
