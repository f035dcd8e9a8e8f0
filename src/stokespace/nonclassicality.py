"""Nonclassicality criteria built on the Stokes-space generating function.

For any classical (convex coherent) state the matrix with entries
M(t_p* + t_q; tau_p + tau_q) over a shared axis is positive
semidefinite; a negative eigenvalue or a negative principal minor is a
direct witness of quantum correlations in the phase-averaged photon
statistics.  The same machinery yields characteristic-function,
variance, cross-correlation, and Cauchy-Schwarz style tests.

A criterion reports verdict "nonclassical" only when its value falls
below -tolerance; everything else is "inconclusive" (classicality is
never certified).
"""

from __future__ import annotations

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
from .mgf import mgf_from_distribution, char_fn

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
        if any(tau < 0 for _, tau in pts):
            raise ValueError("tau values must be >= 0")


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one nonclassicality test."""

    value: float
    verdict: str
    tolerance: float
    witness: np.ndarray | None = None


def _verdict(value: float, tolerance: float) -> str:
    return NONCLASSICAL if value < -tolerance else INCONCLUSIVE


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


def matrix_verdict(
    matrix: np.ndarray, tolerance: float = TOL.verdict
) -> CriterionReport:
    """Minimum eigenvalue test of a Hermitian moment matrix.

    The witness is the eigenvector of the smallest eigenvalue; classical
    states keep all eigenvalues >= -tolerance.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(matrix - matrix.conj().T)) > TOL.matrix_hermiticity:
        raise ValueError("matrix is not Hermitian within 1e-8")
    w, v = np.linalg.eigh((matrix + matrix.conj().T) / 2.0)
    return CriterionReport(
        value=float(w[0]),
        verdict=_verdict(float(w[0]), tolerance),
        tolerance=tolerance,
        witness=v[:, 0],
    )


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
    # x * x, not x**2: a scalar ** calls pow, which may miss by an ulp
    det = m11.real * m22.real - (m12.real * m12.real + m12.imag * m12.imag)
    return float(det) if np.ndim(det) == 0 else det


def cauchy_schwarz_violation(
    state: TwoModeState,
    direction: MeasurementDirection,
    point: tuple[complex, float],
    point2: tuple[complex, float],
) -> float:
    """|<: A^dag B :>|^2 - <: A^dag A :><: B^dag B :> for damping kernels.

    A and B are the normally ordered exponentials at the two points; a
    positive value violates the classical Cauchy-Schwarz bound and
    equals -(second_order_det) identically.  The second point must not
    be the trivial (0, 0) kernel (A alone gives no inequality).
    """
    if point2[0] == 0 and point2[1] == 0:
        raise ValueError("the second point must differ from (0, 0)")
    return -second_order_det(state, direction, *point, *point2)


def char_fn_criterion(
    state: TwoModeState, k, tolerance: float = TOL.verdict
) -> CriterionReport:
    """Classical characteristic functions obey |Phi(k)| <= 1.

    value = 1 - |Phi(k)|; a negative value is a nonclassicality witness.
    """
    value = 1.0 - abs(char_fn(state, k))
    return CriterionReport(
        value=value, verdict=_verdict(value, tolerance), tolerance=tolerance
    )


class VarianceReport(NamedTuple):
    var_stokes: float  # <: (Delta e.S)^2 :>
    var_number: float  # <: (Delta N)^2 :>


def _normal_covariances(dist: JointPhotonDistribution) -> dict[str, float]:
    """Normally ordered (co)variances of n_a, n_b, N = n_a + n_b and e.S = n_a - n_b."""
    f10, f01, f20, f02, f11 = (
        distribution_factorial_moment(dist, p, q)
        for p, q in ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1))
    )
    return {
        "n": f20 + 2.0 * f11 + f02 - (f10 + f01) ** 2,
        "s": f20 - 2.0 * f11 + f02 - (f10 - f01) ** 2,
        "ns": f20 - f02 - (f10 + f01) * (f10 - f01),
        "a": f20 - f10**2,
        "b": f02 - f01**2,
        "ab": f11 - f10 * f01,
    }


def variance_criteria(
    source: TwoModeState | JointPhotonDistribution, direction: MeasurementDirection
) -> VarianceReport:
    """Normally ordered variances of e.S and of the total photon number.

    Negative values certify sub-shot-noise statistics (for the total
    number this matches a negative Mandel-type parameter).  Classical
    states keep both >= 0; coherent states sit exactly at 0.  source is
    a TwoModeState, or its JointPhotonDistribution along direction.
    """
    cov = _normal_covariances(_distribution_along(source, direction))
    return VarianceReport(var_stokes=float(cov["s"]), var_number=float(cov["n"]))


class CrossCorrelationReport(NamedTuple):
    number_stokes: float  # det of the (N, e.S) normally ordered covariance
    photon_photon: float  # det of the (n_a, n_b) normally ordered covariance


def cross_correlation_det(
    source: TwoModeState | JointPhotonDistribution, direction: MeasurementDirection
) -> CrossCorrelationReport:
    """Determinants of two normally ordered covariance matrices.

    number_stokes pairs the total photon number with e.S; photon_photon
    pairs the two output photon numbers.  Classical states keep both
    determinants >= 0.  source is a TwoModeState, or its
    JointPhotonDistribution along direction.
    """
    cov = _normal_covariances(_distribution_along(source, direction))
    return CrossCorrelationReport(
        number_stokes=float(cov["n"] * cov["s"] - cov["ns"] ** 2),
        photon_photon=float(cov["a"] * cov["b"] - cov["ab"] ** 2),
    )
