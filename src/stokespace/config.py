"""Shared numeric tolerances, warning categories, and error types.

Every tolerance that a contract or a test relies on lives in this one
record so the numbers are not scattered through the code.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # rotated mass vs trace(rho); beam_splitter adds the rows it clips
    trace_window: float = 1e-10
    unit_vector: float = 1e-12          # | |T|^2 + |R|^2 - 1 | of a stored direction
    direction_input: float = 1e-9       # renormalization slack for a raw axis or (T, R)
    distribution_floor: float = -1e-12  # photon probabilities may dip this low
    leakage_bound: float = 1e-10        # default acceptable truncated mass
    convergence_leakage: float = 1e-12  # leakage above which |z| > 1 warns
    matrix_hermiticity: float = 1e-8    # input gate for eigenvalue verdicts
    verdict: float = 1e-9               # default criterion negativity threshold
    click_floor: float = -1e-10         # click probabilities below this raise
    click_norm: float = 1e-9            # click distribution sum window
    quadrature_rtol: float = 1e-4       # Husimi quadrature self-consistency
    node_xtol: float = 1e-10            # root refinement width
    node_scan_points: int = 512         # pre-scan grid for sign changes
    pess_imag_residue: float = 1e-6     # imaginary part tolerated after inversion


TOL = Tolerances()


class TruncationWarning(UserWarning):
    """The Fock cutoff leaves more probability mass behind than requested."""


class NumericalError(RuntimeError):
    """A computation produced values outside its audited error budget."""


class ReachError(NumericalError):
    """A kernel lies at or past the state's reach, where the series of M diverges."""


class QuadratureError(NumericalError):
    """Numerical integration failed its self-consistency check."""
