"""Two-mode Fock states, beam-splitter optics, and photon statistics.

States live on the truncated joint basis |n_a, n_b> with 0 <= n_a, n_b
<= cutoff.  A state is stored as a convex mixture of pure amplitude
grids; the dense density matrix is available through
:attr:`TwoModeState.rho` but never required by the numerical paths, so
diagonal-heavy states (squeezed vacuum, Fock states) stay cheap at
large cutoff.

A lossless four-port splitter is parametrized by (T, R) with
|T|^2 + |R|^2 = 1.  It maps coherent amplitudes (alpha, beta) to
(T alpha + R beta, T* beta - R* alpha) and acts block-diagonally on
each fixed total photon number.  The associated Stokes axis is
e = (2 Re(T R*), 2 Im(T R*), |T|^2 - |R|^2).
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from .config import TOL, ConvergenceWarning, NumericalError, TruncationWarning

# rho above this dimension is refused; the factored paths stay usable.
_MAX_DENSE_DIM = 5000


def _powers(z, n: int) -> np.ndarray:
    """[z^0, z^1, ..., z^n] by cumulative products (keeps conj symmetry exact).

    An array z gives one row of powers per entry, on a new last axis.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape + (n + 1,), dtype=complex)
    out[..., 0] = 1.0
    if n:
        np.cumprod(np.broadcast_to(z[..., None], z.shape + (n,)), axis=-1,
                   out=out[..., 1:])
    return out


# ---------------------------------------------------------------------------
# state specs


@dataclass(frozen=True)
class VacuumSpec:
    kind: ClassVar[str] = "vacuum"


@dataclass(frozen=True)
class CoherentSpec:
    alpha: complex
    beta: complex
    kind: ClassVar[str] = "coherent"


@dataclass(frozen=True)
class HomInputSpec:
    """Single photon in each input port, |1,1>."""

    kind: ClassVar[str] = "hom_input"


@dataclass(frozen=True)
class TmsvSpec:
    """Two-mode squeezed vacuum with squeezing parameter xi >= 0."""

    xi: float
    kind: ClassVar[str] = "tmsv"

    def __post_init__(self):
        if self.xi < 0:
            raise ValueError("squeezing parameter must be >= 0")


@dataclass(frozen=True)
class MixtureSpec:
    """Statistical mixture of coherent states: ((weight, alpha, beta), ...)."""

    components: tuple[tuple[float, complex, complex], ...]
    kind: ClassVar[str] = "mixture"

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        ws = np.array([w for w, _, _ in self.components], dtype=float)
        if np.any(ws < 0):
            raise ValueError("mixture weights must be >= 0")
        if abs(ws.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")


StateSpec = VacuumSpec | CoherentSpec | HomInputSpec | TmsvSpec | MixtureSpec


def _complex_to_json(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _complex_from_json(obj) -> complex:
    if isinstance(obj, dict):
        return complex(obj.get("re", 0.0), obj.get("im", 0.0))
    return complex(obj)


def spec_to_json(spec: StateSpec, cutoff: int | None = None) -> dict:
    """JSON-ready dict for a state spec, optionally embedding a cutoff."""
    if isinstance(spec, VacuumSpec):
        out = {"kind": "vacuum"}
    elif isinstance(spec, CoherentSpec):
        out = {
            "kind": "coherent",
            "alpha": _complex_to_json(spec.alpha),
            "beta": _complex_to_json(spec.beta),
        }
    elif isinstance(spec, HomInputSpec):
        out = {"kind": "hom_input"}
    elif isinstance(spec, TmsvSpec):
        out = {"kind": "tmsv", "xi": float(spec.xi)}
    elif isinstance(spec, MixtureSpec):
        out = {
            "kind": "mixture",
            "components": [
                {
                    "weight": float(w),
                    "alpha": _complex_to_json(a),
                    "beta": _complex_to_json(b),
                }
                for w, a, b in spec.components
            ],
        }
    else:
        raise ValueError(f"unknown state spec {spec!r}")
    if cutoff is not None:
        out["cutoff"] = int(cutoff)
    return out


def spec_from_json(obj) -> tuple[StateSpec, int | None]:
    """Parse a state spec dict (or JSON string).  Returns (spec, cutoff or None)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("state spec must be an object with a 'kind' field")
    kind = obj["kind"]
    cutoff = obj.get("cutoff")
    if cutoff is not None:
        cutoff = int(cutoff)
    if kind == "vacuum":
        return VacuumSpec(), cutoff
    if kind == "coherent":
        return (
            CoherentSpec(
                _complex_from_json(obj["alpha"]), _complex_from_json(obj["beta"])
            ),
            cutoff,
        )
    if kind == "hom_input":
        return HomInputSpec(), cutoff
    if kind == "tmsv":
        return TmsvSpec(float(obj["xi"])), cutoff
    if kind == "mixture":
        comps = tuple(
            (
                float(c["weight"]),
                _complex_from_json(c["alpha"]),
                _complex_from_json(c["beta"]),
            )
            for c in obj["components"]
        )
        return MixtureSpec(comps), cutoff
    raise ValueError(f"unknown state kind {kind!r}")


# ---------------------------------------------------------------------------
# measurement direction


def _stokes_axis(T: complex, R: complex) -> np.ndarray:
    tr = T * np.conj(R)
    return np.array([2.0 * tr.real, 2.0 * tr.imag, abs(T) ** 2 - abs(R) ** 2])


@dataclass(frozen=True)
class MeasurementDirection:
    """Unit Stokes axis e together with the splitter (T, R) realizing it."""

    e: np.ndarray
    T: complex
    R: complex

    def __post_init__(self):
        e = np.asarray(self.e, dtype=float).reshape(3)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "T", complex(self.T))
        object.__setattr__(self, "R", complex(self.R))
        if abs(np.linalg.norm(e) - 1.0) > TOL.unit_vector:
            raise ValueError("direction axis must be a unit vector")
        if abs(abs(self.T) ** 2 + abs(self.R) ** 2 - 1.0) > TOL.unit_vector:
            raise ValueError("|T|^2 + |R|^2 must equal 1")
        if np.max(np.abs(_stokes_axis(self.T, self.R) - e)) > TOL.unit_vector:
            raise ValueError("(T, R) does not realize the stored axis e")


def direction_to_beamsplitter(e) -> MeasurementDirection:
    """Splitter parameters for a Stokes axis.

    Uses T = cos(theta/2), R = sin(theta/2) exp(-i phi) with e =
    (sin theta cos phi, sin theta sin phi, cos theta).  Inputs within
    1e-9 of unit norm are renormalized; at the poles phi is fixed to 0.
    """
    e = np.asarray(e, dtype=float).reshape(3)
    norm = np.linalg.norm(e)
    if norm == 0.0 or abs(norm - 1.0) > TOL.direction_input:
        raise ValueError("axis must be within 1e-9 of unit norm")
    e = e / norm
    theta = math.acos(min(1.0, max(-1.0, e[2])))
    phi = math.atan2(e[1], e[0])
    T = complex(math.cos(theta / 2.0))
    R = math.sin(theta / 2.0) * complex(math.cos(phi), -math.sin(phi))
    return MeasurementDirection(e=_stokes_axis(T, R), T=T, R=R)


def direction_from_tr(T: complex, R: complex) -> MeasurementDirection:
    """Direction for explicit splitter parameters (any phase convention)."""
    s = math.sqrt(abs(T) ** 2 + abs(R) ** 2)
    if abs(s - 1.0) > TOL.direction_input:
        raise ValueError("|T|^2 + |R|^2 must be within 1e-9 of 1")
    T, R = complex(T) / s, complex(R) / s
    return MeasurementDirection(e=_stokes_axis(T, R), T=T, R=R)


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class TwoModeState:
    """Truncated two-mode state as a mixture of pure amplitude grids.

    components holds (weight, amp) pairs where amp[n_a, n_b] is the
    joint Fock amplitude of one pure component.  Amplitudes keep their
    exact truncated values (no renormalization), so trace(rho) equals
    1 - leakage up to rounding.  leakage estimates the probability mass
    lost to the cutoff.
    """

    cutoff: int
    components: tuple[tuple[float, np.ndarray], ...]
    leakage: float = 0.0

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        n = self.cutoff + 1
        comps = []
        for w, amp in self.components:
            amp = np.asarray(amp, dtype=complex)
            if amp.shape != (n, n):
                raise ValueError("component amplitude grid has wrong shape")
            if w < -1e-15:
                raise ValueError("component weights must be >= 0")
            comps.append((float(w), amp))
        object.__setattr__(self, "components", tuple(comps))
        if not (0.0 <= self.leakage <= 1.0 + 1e-12):
            raise ValueError("leakage must lie in [0, 1]")

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** 2

    @cached_property
    def trace(self) -> float:
        return float(
            sum(w * np.sum(amp.real**2 + amp.imag**2) for w, amp in self.components)
        )

    @cached_property
    def rho(self) -> np.ndarray:
        """Dense density matrix on the joint basis, index n_a*(cutoff+1)+n_b."""
        if self.dim > _MAX_DENSE_DIM:
            raise ValueError(
                f"dense rho would be {self.dim}x{self.dim}; "
                "use the factored operations instead"
            )
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        for w, amp in self.components:
            v = amp.reshape(-1)
            rho += w * np.outer(v, v.conj())
        return rho

    @classmethod
    def from_rho(
        cls, rho: np.ndarray, cutoff: int, leakage: float | None = None
    ) -> "TwoModeState":
        """Factor a dense density matrix into a mixture of pure grids."""
        n = cutoff + 1
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (n * n, n * n):
            raise ValueError("rho shape does not match the cutoff")
        if np.max(np.abs(rho - rho.conj().T)) > TOL.matrix_hermiticity:
            raise ValueError("rho must be Hermitian")
        w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
        if w[0] < TOL.eigenvalue_floor:
            raise ValueError(f"rho has a negative eigenvalue {w[0]:.3e}")
        keep = w > 1e-14
        comps = tuple(
            (float(wi), v[:, i].reshape(n, n)) for i, wi in enumerate(w) if keep[i]
        )
        if leakage is None:
            leakage = max(0.0, 1.0 - float(np.real(np.trace(rho))))
        return cls(cutoff=cutoff, components=comps, leakage=leakage)


def _log_factorials(cutoff: int) -> np.ndarray:
    """ln n! for n = 0..cutoff."""
    return np.array([math.lgamma(n + 1.0) for n in range(cutoff + 1)])


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated single-mode coherent amplitudes exp(-|a|^2/2) a^n / sqrt(n!)."""
    r = abs(alpha)
    if r == 0.0:
        return (np.arange(cutoff + 1) == 0).astype(complex)
    # magnitudes from logs: |a|^n alone overflows once n ln|a| > 709, which
    # |a| = 14 reaches at its auto cutoff
    log_mag = np.arange(cutoff + 1) * math.log(r) - 0.5 * r * r
    return _powers(alpha / r, cutoff) * np.exp(log_mag - 0.5 * _log_factorials(cutoff))


def _poisson_tails(mu: float, top: int) -> np.ndarray:
    """P(N > c) for c = 0..top, N Poisson with mean mu.

    Each tail is the sum of the pmf terms above c, taken from their logs
    and added smallest first, so a tiny tail keeps its relative
    precision.  Terms past max(top, mu) + 10 sqrt(mu) + 40 are below
    1e-20 of the smallest tail returned and are left out.
    """
    if mu == 0.0:
        return np.zeros(top + 1)
    end = int(max(top, mu) + 10.0 * math.sqrt(mu)) + 40
    n = np.arange(end + 1)
    terms = np.exp(n * math.log(mu) - mu - _log_factorials(end))
    return np.cumsum(terms[::-1])[::-1][1 : top + 2]


def _coherent_leakages(alpha: complex, beta: complex, top: int) -> np.ndarray:
    """Mass a coherent pair leaves outside the box, for cutoffs 0..top.

    1 - (1 - ta)(1 - tb) is taken as ta + tb - ta tb, which keeps its
    precision when both tails are tiny.
    """
    ta = _poisson_tails(abs(alpha) ** 2, top)
    tb = _poisson_tails(abs(beta) ** 2, top)
    return ta + tb - ta * tb


def _coherent_leakage(alpha: complex, beta: complex, cutoff: int) -> float:
    return float(_coherent_leakages(alpha, beta, cutoff)[cutoff])


def _coherent_terms(spec: StateSpec):
    """(weight, alpha, beta) terms of a vacuum, coherent or mixture spec,
    each a mixture of coherent pairs; None for any other spec."""
    if isinstance(spec, VacuumSpec):
        return ((1.0, 0j, 0j),)
    if isinstance(spec, CoherentSpec):
        return ((1.0, spec.alpha, spec.beta),)
    if isinstance(spec, MixtureSpec):
        return spec.components
    return None


def make_state(spec: StateSpec, cutoff: int) -> TwoModeState:
    """Build the truncated state a StateSpec describes.

    Emits a TruncationWarning when the analytic leakage estimate exceeds
    TOL.leakage_bound.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    n = cutoff + 1
    terms = _coherent_terms(spec)
    if terms is not None:
        comps = [(w, np.outer(coherent_amplitudes(a, cutoff),
                              coherent_amplitudes(b, cutoff))) for w, a, b in terms]
        leak = sum(w * _coherent_leakage(a, b, cutoff) for w, a, b in terms)
    elif isinstance(spec, HomInputSpec):
        if cutoff < 1:
            raise ValueError("hom_input needs cutoff >= 1")
        amp = np.zeros((n, n), dtype=complex)
        amp[1, 1] = 1.0
        comps, leak = ((1.0, amp),), 0.0
    elif isinstance(spec, TmsvSpec):
        kappa = math.tanh(spec.xi)
        amp = np.zeros((n, n), dtype=complex)
        diag = _powers(-kappa, cutoff) / math.cosh(spec.xi)
        amp[np.arange(n), np.arange(n)] = diag
        comps = ((1.0, amp),)
        leak = kappa ** (2 * (cutoff + 1)) if kappa > 0 else 0.0
    else:
        raise ValueError(f"unknown state spec {spec!r}")
    if leak > TOL.leakage_bound:
        warnings.warn(
            f"cutoff {cutoff} leaves {leak:.3e} probability mass behind "
            f"(requested bound {TOL.leakage_bound:.1e})",
            TruncationWarning,
            stacklevel=2,
        )
    return TwoModeState(cutoff=cutoff, components=comps, leakage=leak)


# largest cutoff auto_cutoff returns
_MAX_AUTO_CUTOFF = 512


def auto_cutoff(spec: StateSpec, bound: float = TOL.leakage_bound) -> int:
    """Smallest cutoff whose analytic leakage estimate stays below bound,
    at most _MAX_AUTO_CUTOFF."""
    terms = _coherent_terms(spec)
    if terms is not None:  # the first cutoff that holds every pair below bound
        leak = [_coherent_leakages(a, b, _MAX_AUTO_CUTOFF) for _, a, b in terms]
        below = np.flatnonzero(np.max(leak, axis=0)[2:] < bound)
        return 2 + int(below[0]) if below.size else _MAX_AUTO_CUTOFF
    if isinstance(spec, HomInputSpec):
        return 2
    if isinstance(spec, TmsvSpec):
        kappa = math.tanh(spec.xi)
        if kappa == 0.0:
            return 2
        # smallest c with kappa^(2 (c + 1)) < bound
        c = int(math.ceil(math.log(bound) / (2.0 * math.log(kappa)) - 1.0))
        return min(max(2, c), _MAX_AUTO_CUTOFF)
    raise ValueError(f"unknown state spec {spec!r}")


# ---------------------------------------------------------------------------
# beam splitter
#
# On the block of total photon number N the splitter acts as the spin-N/2
# representation of its one-particle matrix [[T, R], [-R*, T*]]:
#
#     <k', N-k'| U |k, N-k> = (uT uR)^k' (uT uR*)^k uT*^N d^{N/2}_{m'm}(beta)
#
# with m = k - N/2, m' = k' - N/2, cos(beta/2) = |T|, uT = T/|T| and
# uR = -R/|R|.  The real Wigner matrix d is built one column per input
# offset that the state populates, by the three-term recurrence in j at
# fixed (m', m) (Prezeau & Reinecke, ApJS 190, 267 (2010)).  It is run on
# the step D_j = d^j - d^(j-1), whose coefficients are free of
# cancellation, so the error stays near rounding even where d is close to
# the identity.  Splitters with |R| > |T| are a mode swap followed by a
# splitter with |T| > |R|, so beta <= pi/2 always.  Offsets below are
# delta = n_a - n_b = 2m.

# doubles per recurrence buffer: direction batches are cut to this size so
# the engine's live arrays stay a few MB at any batch size
_BUFFER_DOUBLES = 1 << 15


def _offset_chains(amps: np.ndarray):
    """Populated input offsets for each block parity, sorted by |delta|.

    Returns one (delta, live) pair per parity.  live[i] is the last block
    for which column i or any column after it is still needed, so the
    columns live at any block form a prefix of delta.
    """
    c = amps.shape[-1] - 1
    na, nb = np.nonzero(np.any(amps != 0, axis=0))
    last = np.full(2 * c + 1, -1)
    np.maximum.at(last, na - nb + c, na + nb)
    offsets = np.flatnonzero(last >= 0) - c
    chains = []
    for parity in (0, 1):
        d = offsets[offsets % 2 == parity]
        d = d[np.argsort(np.abs(d), kind="stable")]
        chains.append((d, np.maximum.accumulate(last[d + c][::-1])[::-1]))
    return chains


def _step_columns(cur, diff, dc, n, y):
    """Advance d^(n/2 - 1) -> d^(n/2) in place on the interior rows.

    cur holds d and diff the last step of the columns with offsets dc on
    the rows |delta'| <= n - 2; y = 1 - cos(beta) per direction.
    """
    m = n - 2
    if m == 0:  # d^1_00 = cos(beta)
        diff[...] = -y * cur
        cur += diff
        return
    dc = dc.astype(float)[:, None]
    dr = np.arange(-m, m + 1, 2, dtype=float)[None, :]
    ac, ar = np.sqrt(n * n - dc * dc), np.sqrt(n * n - dr * dr)
    gc, gr = np.sqrt(m * m - dc * dc), np.sqrt(m * m - dr * dr)
    inv = 1.0 / (ac * ar)
    cross = dc * dr
    # e = k1 - k2 - k3 - 1 >= 0 written without cancellation; it vanishes on
    # the diagonal, where both denominators may be zero
    lo = m * m - cross + gc * gr
    lo[lo == 0.0] = 1.0
    e = (dc - dr) ** 2 * (n * m / lo + n * n / (n * n - cross + ac * ar)) * inv
    # diff <- k3 diff + (e - y k1) cur, with one temporary
    step = np.multiply(y, (2.0 * (m + 1) * n) * inv)
    np.subtract(e, step, out=step)
    step *= cur
    diff *= (n / m) * gc * gr * inv
    diff += step
    cur += diff


def _wigner_blocks(amps, chains, T, R):
    """Rotated blocks of amps behind splitters with |T| >= |R| > 0.

    Yields (N, out) for every block N that holds amplitude, with
    out[i, c, k'] = <k', N-k'| U(T[i], R[i]) |amps[c]> for k' = 0..N.
    """
    cut = amps.shape[-1] - 1
    n_d, n_c = T.shape[0], amps.shape[0]
    top = max(int(live[0]) for d, live in chains if d.size)
    aT, aR = np.abs(T), np.abs(R)
    c2 = (aT * aT / (aT * aT + aR * aR))[:, None]
    s2 = (aR * aR / (aT * aT + aR * aR))[:, None]
    y = 2.0 * s2[:, :, None]
    # phases of uT and uR (R = 0 only arrives from a swapped T = 0, where
    # any phase does); each power is taken from its angle, since products
    # of unit numbers drift off the unit circle by an ulp per factor
    arg_t = np.angle(T)[:, None]
    arg_r = np.where(aR > 0, np.angle(-R), 0.0)[:, None]
    phase_in = np.exp(1j * (arg_t - arg_r) * np.arange(cut + 1))
    # binom[:, a] = C(N, a) cos^2a sin^2(N-a): squared edge values of d
    binom = np.zeros((n_d, top + 1))
    binom[:, 0] = 1.0
    bufs = [(np.zeros((n_d, d.size, int(live[0]) + 1)),
             np.zeros((n_d, d.size, int(live[0]) + 1))) if d.size else None
            for d, live in chains]
    width = [0, 0]
    for n in range(top + 1):
        if n:
            binom[:, 1 : n + 1] = c2 * binom[:, :n] + s2 * binom[:, 1 : n + 1]
            binom[:, 0] *= s2[:, 0]
            binom[:, : n + 1] /= binom[:, : n + 1].sum(axis=1, keepdims=True)
        d, live = chains[n % 2]
        if not d.size or n > live[0]:
            continue
        cur, diff = bufs[n % 2]
        hi = min(int(np.searchsorted(np.abs(d), n, side="right")),
                 int(np.searchsorted(-live, -n, side="right")))
        old = min(width[n % 2], hi)
        width[n % 2] = hi
        r0 = (int(live[0]) - n) // 2
        r1 = r0 + n + 1
        b = np.sqrt(binom[:, : n + 1])
        if old:
            d_old = d[:old]
            _step_columns(cur[:, :old, r0 + 1 : r1 - 1],
                          diff[:, :old, r0 + 1 : r1 - 1], d_old, n, y)
            # rows m' = -j and m' = +j enter at this block
            cur[:, :old, r0] = diff[:, :old, r0] = b[:, (n - d_old) // 2]
            sign = 1.0 - 2.0 * ((n - d_old) // 2 % 2)
            cur[:, :old, r1 - 1] = diff[:, :old, r1 - 1] = sign * b[:, (n + d_old) // 2]
        for i in range(old, hi):  # columns m = +-j start at this block
            col = b if d[i] >= 0 else b[:, ::-1] * (1.0 - 2.0 * (np.arange(n + 1) % 2))
            cur[:, i, r0:r1] = diff[:, i, r0:r1] = col
        ka = (n + d[:hi]) // 2
        inside = (ka <= cut) & (n - ka <= cut)
        ka, kb = np.minimum(ka, cut), np.minimum(n - ka, cut)
        psi = amps[:, ka, kb] * inside
        if not psi.any():
            continue
        phi = phase_in[:, None, ka] * psi[None]
        res = np.concatenate([phi.real, phi.imag], axis=1) @ cur[:, :hi, r0:r1]
        out = res[:, :n_c] + 1j * res[:, n_c:]
        out *= np.exp(1j * ((arg_t + arg_r) * np.arange(n + 1) - n * arg_t))[:, None, :]
        yield n, out


def _rotated_blocks(amps: np.ndarray, T: np.ndarray, R: np.ndarray):
    """Batched block rotation of pure amplitude grids, R != 0 everywhere.

    Yields (idx, N, out) with out[i, c, k'] = <k', N-k'| U |amps[c]> behind
    the splitter (T[idx[i]], R[idx[i]]), for every k' = 0..N.
    """
    for swap in (False, True):
        sel = np.flatnonzero((np.abs(R) > np.abs(T)) == swap)
        if not sel.size:
            continue
        src, t, r = amps, T[sel], R[sel]
        if swap:
            # U(T, R) = U(R, -T) U(0, 1), and U(0, 1)|k, l> = (-1)^k |l, k>
            sign = 1.0 - 2.0 * (np.arange(amps.shape[-1]) % 2)
            src, t, r = np.swapaxes(amps * sign[:, None], 1, 2), r, -t
        chains = _offset_chains(src)
        if not any(d.size for d, _ in chains):
            return
        per_dir = max(d.size * (int(live[0]) + 1) for d, live in chains if d.size)
        step = max(1, _BUFFER_DOUBLES // per_dir)
        for lo in range(0, sel.size, step):
            idx = sel[lo : lo + step]
            for n, out in _wigner_blocks(src, chains, t[lo : lo + step],
                                         r[lo : lo + step]):
                yield idx, n, out


def _check_norm(trace: float, total) -> None:
    """The rotated mass must reproduce the trace."""
    defect = np.max(np.abs(np.asarray(total) - trace), initial=0.0)
    if defect > TOL.trace_window:
        raise NumericalError(
            f"splitter changed the norm by {defect:.3e} "
            f"(window {TOL.trace_window:.0e})"
        )


def beam_splitter(state: TwoModeState, T: complex, R: complex) -> TwoModeState:
    """Propagate a state through a lossless splitter with parameters (T, R).

    The result lives in the same (cutoff+1)^2 box: exactly unitary on
    every total-photon-number block that fits it; blocks that spill past
    it lose the spilled mass to leakage.  Raises NumericalError if the
    rotated mass misses the trace by more than TOL.trace_window.
    """
    if abs(abs(T) ** 2 + abs(R) ** 2 - 1.0) > TOL.splitter_unitarity:
        raise ValueError("|T|^2 + |R|^2 must equal 1 within 1e-10")
    c = state.cutoff
    weights = np.array([w for w, _ in state.components])
    amps = np.stack([amp for _, amp in state.components])
    clipped = np.zeros(len(weights))
    if R == 0:
        # pure per-mode phases a -> u a, b -> u* b with u = T/|T|; nothing
        # leaves the box
        u = T / abs(T)
        out = amps * np.outer(_powers(u, c), _powers(np.conj(u), c))
    else:
        out = np.zeros_like(amps)
        for _, n, block in _rotated_blocks(amps, np.array([complex(T)]),
                                           np.array([complex(R)])):
            k = np.arange(max(0, n - c), min(n, c) + 1)  # rows inside the box
            out[:, k, n - k] = block[0][:, k]
            prob = block[0].real ** 2 + block[0].imag ** 2
            clipped += prob[:, : k[0]].sum(axis=1) + prob[:, k[-1] + 1 :].sum(axis=1)
    rotated = TwoModeState(
        cutoff=c,
        components=tuple(zip(weights, out)),
        leakage=min(1.0, state.leakage + float(weights @ clipped)),
    )
    _check_norm(state.trace, rotated.trace + float(weights @ clipped))
    return rotated


def rotate_many(state: TwoModeState, directions) -> np.ndarray:
    """Joint photon distributions behind many splitters in one batch.

    Each block keeps its total photon number, so a state at cutoff c has
    its output on n_a + n_b <= 2c: p[i], of shape (2c+1, 2c+1), holds
    every row of every block along directions[i].  Raises NumericalError
    if sum(p[i]) misses the trace by more than TOL.trace_window.
    """
    directions = list(directions)
    c = state.cutoff
    T = np.array([d.T for d in directions], dtype=complex)
    R = np.array([d.R for d in directions], dtype=complex)
    weights = np.array([w for w, _ in state.components])
    amps = np.stack([amp for _, amp in state.components])
    p = np.zeros((len(directions), 2 * c + 1, 2 * c + 1))
    # R == 0 only applies per-mode phases, which the counts do not see
    p[R == 0, : c + 1, : c + 1] = np.einsum("c,cij->ij", weights,
                                            amps.real**2 + amps.imag**2)
    turn = np.flatnonzero(R != 0)
    for idx, n, block in _rotated_blocks(amps, T[turn], R[turn]):
        k = np.arange(n + 1)
        p[turn[idx, None], k, n - k] = np.einsum("c,dck->dk", weights,
                                                 block.real**2 + block.imag**2)
    _check_norm(state.trace, p.sum(axis=(1, 2)))
    return p


# ---------------------------------------------------------------------------
# photon statistics


@dataclass(frozen=True)
class JointPhotonDistribution:
    """Joint photon-number distribution behind a splitter.

    p[n_a, n_b] is the probability of counting (n_a, n_b) photons in the
    output modes selected by direction.  Taken from a state at cutoff c,
    p is (2c+1) x (2c+1) and holds every output row of every block, so
    cutoff, the largest count per mode, is 2c.  leakage is the source
    truncation of that state: the only mass p misses.
    """

    p: np.ndarray
    direction: MeasurementDirection
    leakage: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("p must be a square matrix")
        if p.min() < TOL.distribution_floor:
            raise ValueError(f"negative probability {p.min():.3e} in distribution")

    @property
    def cutoff(self) -> int:
        return self.p.shape[0] - 1


def _distributions(state: TwoModeState, directions) -> list[JointPhotonDistribution]:
    """Photon statistics along many axes from one batched rotation."""
    directions = list(directions)
    return [JointPhotonDistribution(p, d, state.leakage)
            for p, d in zip(rotate_many(state, directions), directions)]


def joint_photon_distribution(
    state: TwoModeState, direction: MeasurementDirection
) -> JointPhotonDistribution:
    """Photon statistics of the splitter outputs along a Stokes axis."""
    return _distributions(state, [direction])[0]


def _distribution_along(
    source: TwoModeState | JointPhotonDistribution, direction: MeasurementDirection
) -> JointPhotonDistribution:
    """Photon distribution of source along direction.

    A state is rotated; a distribution already taken along direction is
    returned as it is, so a caller that reads one axis many times
    rotates once.
    """
    if isinstance(source, JointPhotonDistribution):
        if not np.array_equal(source.direction.e, direction.e):
            raise ValueError("the distribution was taken along another axis")
        return source
    return joint_photon_distribution(source, direction)


def _power_sum(p: np.ndarray, z_a, z_b):
    """sum z_a^n_a p[n_a, n_b] z_b^n_b, broadcast over leading axes of p, z_a, z_b."""
    c = p.shape[-1] - 1
    va, vb = _powers(z_a, c), _powers(z_b, c)
    # two real products: a complex operand would copy p to complex
    pv = p @ vb.real[..., :, None] + 1j * (p @ vb.imag[..., :, None])
    return (va[..., None, :] @ pv)[..., 0, 0]


def _warn_divergent(leakage: float, cutoff: int, z_a, z_b) -> None:
    """The existence rule: one ConvergenceWarning when any kernel (z_a, z_b)
    lies outside the unit disc and leakage r^(cutoff+1) exceeds
    TOL.convergence_leakage, with r the largest |z_a|, |z_b|: the terms the
    source truncation at cutoff drops hold more than cutoff photons, which
    such a kernel can weigh by up to r^(cutoff+1).  z_a, z_b may be arrays."""
    r = max(np.max(np.abs(z_a), initial=0.0), np.max(np.abs(z_b), initial=0.0))
    # r^-(cutoff+1) underflows quietly to 0 where r^(cutoff+1) would overflow
    if r > 1.0 + 1e-12 and leakage > TOL.convergence_leakage * r ** -(cutoff + 1):
        warnings.warn(
            "kernel lies beyond the guaranteed-existence region and the "
            f"state misses {leakage:.2e} of its mass above cutoff {cutoff}; "
            "the truncated sum may be inaccurate",
            ConvergenceWarning,
            stacklevel=3,
        )


# doubles of p in one batch of _kernel_sums (4 MB); each batch pays the
# direction-independent work of _wigner_blocks again, so batches stay large
_BATCH_DOUBLES = 1 << 19


def _kernel_sums(state: TwoModeState, directions, z_a, z_b) -> np.ndarray:
    """Entry i: the kernel sum of state with (z_a[i], z_b[i]) along the i-th
    of len(z_a) directions, taken from any iterable a batch at a time (at
    most _BATCH_DOUBLES of p), so a generator holds one batch of direction
    objects.  The existence rule runs once, on every kernel."""
    _warn_divergent(state.leakage, state.cutoff, z_a, z_b)
    out = np.empty(len(z_a), dtype=complex)
    step = max(1, _BATCH_DOUBLES // (2 * state.cutoff + 1) ** 2)
    directions = iter(directions)
    for lo in range(0, out.size, step):
        p = rotate_many(state, itertools.islice(directions, step))
        out[lo : lo + step] = _power_sum(p, z_a[lo : lo + step], z_b[lo : lo + step])
    return out


def power_expectation(
    state: TwoModeState,
    direction: MeasurementDirection,
    z_a: complex,
    z_b: complex,
) -> complex:
    """Ordered moment <z_a^n_a z_b^n_b> of the output photon numbers.

    For |z| <= 1 the truncated sum converges unconditionally; outside
    that disc a ConvergenceWarning is attached when the distribution
    misses non-negligible mass.
    """
    _warn_divergent(state.leakage, state.cutoff, z_a, z_b)
    dist = joint_photon_distribution(state, direction)
    return complex(_power_sum(dist.p, z_a, z_b))


def _falling(n: np.ndarray, p: int) -> np.ndarray:
    out = np.ones_like(n, dtype=float)
    for i in range(p):
        out *= n - i
    return np.where(n >= p, out, 0.0)


def distribution_factorial_moment(
    dist: JointPhotonDistribution, p: int, q: int
) -> float:
    n = np.arange(dist.cutoff + 1)
    return float(_falling(n, p) @ (dist.p @ _falling(n, q)))


# ---------------------------------------------------------------------------
# Stokes vectors


@dataclass(frozen=True)
class StokesVector:
    """Mean Stokes vector S and total mean photon number S0 = <n_a + n_b>."""

    S: np.ndarray
    S0: float

    def __post_init__(self):
        object.__setattr__(self, "S", np.asarray(self.S, dtype=float).reshape(3))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.S))


def coherent_stokes(alpha: complex, beta: complex) -> StokesVector:
    """Stokes vector of a coherent pair; here ||S|| = |alpha|^2 + |beta|^2."""
    ab = np.conj(alpha) * beta
    return StokesVector(
        S=np.array([2.0 * ab.real, 2.0 * ab.imag, abs(alpha) ** 2 - abs(beta) ** 2]),
        S0=abs(alpha) ** 2 + abs(beta) ** 2,
    )


def stokes_mean(state: TwoModeState) -> StokesVector:
    """Mean Stokes vector of the input modes (no splitter applied)."""
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
    return StokesVector(
        S=np.array([sx, sy, na_mean - nb_mean]), S0=na_mean + nb_mean
    )
