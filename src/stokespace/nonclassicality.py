"""Nonclassicality criteria built on the Stokes-space generating function.

For any classical (convex coherent) state the matrix with entries
M(t_p* + t_q; tau_p + tau_q) over a shared axis is positive
semidefinite; a negative eigenvalue or a negative principal minor is a
direct witness of quantum correlations in the phase-averaged photon
statistics.  The same machinery yields characteristic-function,
variance, cross-correlation, and Cauchy-Schwarz style tests.

Every criterion returns numbers.  One rule, verdict(value, tolerance),
reads any of them: "nonclassical" only when the value falls below
-tolerance, "inconclusive" otherwise (classicality is never certified).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import TOL
from .fock import (
    JointPhotonDistribution,
    MeasurementDirection,
    TwoModeState,
    _distribution_along,
    distribution_factorial_moment,
)
from .mgf import _check_points, mgf_from_distribution

NONCLASSICAL = "nonclassical"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MgfMatrixSpec:
    """Evaluation points (t_p, tau_p) sharing one measurement axis."""

    direction: MeasurementDirection
    points: tuple[tuple[complex, float], ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("need at least one (t, tau) point")
        pts = tuple((complex(t), float(tau)) for t, tau in self.points)
        object.__setattr__(self, "points", pts)
        _check_points([t for t, _ in pts], [tau for _, tau in pts])


def _tolerance(tolerance: float) -> float:
    """The one rule for a verdict tolerance: finite and >= 0 (NaN fails)."""
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(
            f"verdict tolerance must be finite and >= 0, got {tolerance!r}")
    return tolerance


def verdict(value: float, tolerance: float = TOL.verdict) -> str:
    """NONCLASSICAL iff a criterion value lies below -tolerance, else
    INCONCLUSIVE; the tolerance must be finite and >= 0."""
    return NONCLASSICAL if value < -_tolerance(tolerance) else INCONCLUSIVE


def mgf_matrix(
    source: TwoModeState | JointPhotonDistribution, spec: MgfMatrixSpec
) -> np.ndarray:
    """Hermitian matrix M[p, q] = M(t_p* + t_q; tau_p + tau_q).

    source is a TwoModeState, or its JointPhotonDistribution along
    spec.direction when the caller already has one.
    """
    t, tau = np.array(spec.points).T
    return mgf_from_distribution(
        _distribution_along(source, spec.direction),
        np.conj(t)[:, None] + t,
        (tau[:, None] + tau).real,
    )


def min_eigenpair(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a Hermitian moment matrix and its eigenvector,
    the witness; classical states keep every eigenvalue >= 0."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if not np.max(np.abs(matrix - matrix.conj().T)) <= TOL.matrix_hermiticity:
        raise ValueError("matrix is not Hermitian within 1e-8")
    w, v = np.linalg.eigh((matrix + matrix.conj().T) / 2.0)
    return float(w[0]), v[:, 0]


def second_order_det(
    source: TwoModeState | JointPhotonDistribution,
    direction: MeasurementDirection,
    t,
    tau,
    t2,
    tau2,
) -> float | np.ndarray:
    """Determinant of the 2x2 moment matrix on points {(t,tau), (t2,tau2)}.

    Negative values witness nonclassicality; for classical states the
    Cauchy-Schwarz inequality keeps it >= 0.  source is a TwoModeState,
    or its JointPhotonDistribution along direction.  The four point
    arguments broadcast through one kernel sum: scalars give a float,
    arrays give an array of their broadcast shape.
    """
    t, tau, t2, tau2 = np.broadcast_arrays(t, tau, t2, tau2)
    m11, m22, m12 = mgf_from_distribution(
        _distribution_along(source, direction),
        [2.0 * t.real, 2.0 * t2.real, np.conj(t) + t2],
        [2.0 * tau, 2.0 * tau2, tau + tau2],
    )
    det = _moment_det(m11, m22, m12)
    return float(det) if np.ndim(det) == 0 else det


def _moment_det(m11, m22, m12):
    """det [[M11, M12], [M12*, M22]] from its real diagonal, broadcast over arrays."""
    # x * x, not x**2: a scalar ** calls pow, which may miss by an ulp
    return m11.real * m22.real - (m12.real * m12.real + m12.imag * m12.imag)


def char_fn_criterion(
    source: TwoModeState | JointPhotonDistribution,
    direction: MeasurementDirection,
    k_norm: float = 1.0,
) -> float:
    """Classical characteristic functions obey |Phi(k e)| <= 1.

    Returns 1 - |Phi(k_norm e)| with Phi(k e) = M(i k e; 0) along the
    axis e of direction, and Phi(0) the trivial 1; a negative value is a
    nonclassicality witness.  source is a TwoModeState, or its
    JointPhotonDistribution along direction.
    """
    dist = _distribution_along(source, direction)
    phi = mgf_from_distribution(dist, 1j * k_norm, 0.0) if k_norm != 0.0 else 1.0
    return float(1.0 - abs(phi))


class VarianceReport(NamedTuple):
    var_stokes: float  # <: (Delta e.S)^2 :>
    var_number: float  # <: (Delta N)^2 :>


def _normal_covariance(dist: JointPhotonDistribution) -> np.ndarray:
    """The normally ordered covariance matrix C of the two output photon
    numbers (n_a, n_b); that of (N, e.S) = (n_a + n_b, n_a - n_b) is A C A^T
    with A = [[1, 1], [1, -1]], so its determinant is 4 det C."""
    f10, f01, f20, f02, f11 = (
        distribution_factorial_moment(dist, p, q)
        for p, q in ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1))
    )
    return np.array([[f20, f11], [f11, f02]]) - np.outer((f10, f01), (f10, f01))


def variance_criteria(
    source: TwoModeState | JointPhotonDistribution, direction: MeasurementDirection
) -> VarianceReport:
    """Normally ordered variances of e.S and of the total photon number,
    (1, -1) C (1, -1)^T and (1, 1) C (1, 1)^T.

    Negative values certify sub-shot-noise statistics (for the total
    number this matches a negative Mandel-type parameter).  Classical
    states keep both >= 0; coherent states sit exactly at 0.  source is
    a TwoModeState, or its JointPhotonDistribution along direction.
    """
    c = _normal_covariance(_distribution_along(source, direction))
    return VarianceReport(*(float(v @ c @ v) for v in np.array([[1, -1], [1, 1]])))


def cross_correlation_det(
    source: TwoModeState | JointPhotonDistribution, direction: MeasurementDirection
) -> float:
    """det C, the normally ordered covariance determinant of the two output
    photon numbers; that of (N, e.S) is 4 det C, the same witness.

    Classical states keep it >= 0.  source is a TwoModeState, or its
    JointPhotonDistribution along direction.
    """
    c = _normal_covariance(_distribution_along(source, direction))
    return float(_moment_det(c[0, 0], c[1, 1], c[0, 1]))
