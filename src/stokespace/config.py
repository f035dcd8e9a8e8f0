"""Shared numeric tolerances, warning categories, and error types.

Every tolerance that a contract or a test relies on lives in this one
record so the numbers are not scattered through the code.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermiticity: float = 1e-10          # max |rho - rho^dag| elementwise
    trace_window: float = 1e-10         # rotated mass kept + clipped vs trace(rho)
    eigenvalue_floor: float = -1e-9     # smallest admissible rho eigenvalue
    unit_vector: float = 1e-12          # | ||e|| - 1 | on a stored direction
    direction_input: float = 1e-9       # renormalization slack for raw axis input
    splitter_unitarity: float = 1e-10   # | |T|^2 + |R|^2 - 1 | on raw input
    distribution_floor: float = -1e-12  # photon probabilities may dip this low
    leakage_bound: float = 1e-10        # default acceptable truncated mass
    convergence_leakage: float = 1e-12  # leakage above which |z| > 1 warns
    mgf_symmetry: float = 1e-12         # M(t*) vs M(t)* agreement
    matrix_hermiticity: float = 1e-8    # input gate for eigenvalue verdicts
    verdict: float = 1e-9               # default criterion negativity threshold
    click_floor: float = -1e-10         # click probabilities below this raise
    click_norm: float = 1e-9            # click distribution sum window
    quadrature_rtol: float = 1e-4       # Husimi quadrature self-consistency
    node_xtol: float = 1e-10            # root refinement width
    node_scan_points: int = 512         # pre-scan grid for sign changes
    pess_norm: float = 1e-2             # band-limited normalization window
    pess_imag_residue: float = 1e-6     # imaginary part tolerated after inversion


TOL = Tolerances()


class TruncationWarning(UserWarning):
    """The Fock cutoff leaves more probability mass behind than requested."""


class ConvergenceWarning(UserWarning):
    """Result uses a kernel outside the guaranteed-existence region."""


class NumericalError(RuntimeError):
    """A computation produced values outside its audited error budget."""


class QuadratureError(NumericalError):
    """Numerical integration failed its self-consistency check."""
