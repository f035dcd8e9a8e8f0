"""Two-mode Fock states, beam-splitter optics, and photon statistics.

States live on the truncated joint basis |n_a, n_b> with 0 <= n_a, n_b
<= cutoff.  A state is stored as a convex mixture of pure amplitude
grids and no dense density matrix is ever formed, so diagonal-heavy
states (squeezed vacuum, Fock states) stay cheap at large cutoff.

A lossless four-port splitter is parametrized by (T, R) with
|T|^2 + |R|^2 = 1.  It maps coherent amplitudes (alpha, beta) to
(T alpha + R beta, T* beta - R* alpha) and acts block-diagonally on
each fixed total photon number.  The associated Stokes axis is
e = (2 Re(T R*), 2 Im(T R*), |T|^2 - |R|^2).
"""

from __future__ import annotations

import collections
import functools
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .config import TOL, NumericalError, ReachError, TruncationWarning


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
# classical sources and state specs


def _check_finite(fields: dict) -> None:
    """The finite-amplitude rule, which NaN fails: each amplitude z, and so its
    intensity |z|^2, must be finite.  ValueError names the field."""
    for name, value in fields.items():
        with np.errstate(over="ignore"):
            intensity = np.abs(np.asarray(value, dtype=complex)) ** 2
        if not np.all(np.isfinite(intensity)):
            raise ValueError(f"{name} must be finite")


def _mixture_weights(weights, m: int) -> np.ndarray:
    """The weights if they are m, each >= 0, summing to 1 within 1e-12 (NaN fails)."""
    w = np.asarray(weights, dtype=float)
    if not (w.shape == (m,) and np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12):
        raise ValueError(f"mixture weights must be {m} numbers >= 0 that sum to 1")
    return w


# complex entries of one point chunk's phase table in _CoherentPoints.kernel
# (32 MB), and never more than the output grid holds
_POINT_CHUNK_ENTRIES = 1 << 21


class _CoherentPoints:
    """A classical source as data, its non-negative essential P: the coherent
    pairs (alpha, beta) it mixes, an (m, 2) complex array points, and their
    weights, (m,) or None for equal ones.  _hold judges them once, at
    construction; make_state, mgf_closed_form, kernel and draw read them."""

    def __post_init__(self):  # CoherentEnsemble's; each spec holds its own fields
        self._hold(self.points, self.weights, "ensemble points")

    def _hold(self, points, weights, *names) -> None:
        """The one rule: m >= 1 rows of two amplitudes (ValueError naming
        names[0]), finite by _check_finite (one name, or one per column), and
        m weights by _mixture_weights."""
        try:
            pts = np.atleast_2d(np.asarray(points, dtype=complex))
        except ValueError:  # rows of unequal length
            pts = np.empty((0, 0))
        if pts.ndim != 2 or pts.shape[1] != 2 or not len(pts):
            raise ValueError(f"{names[0]} must be m >= 1 pairs (alpha, beta)")
        _check_finite(dict(zip(names, np.split(pts, len(names), axis=1))))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", None if weights is None
                           else _mixture_weights(weights, len(pts)))

    @property
    def _shares(self) -> np.ndarray:
        """The weights, 1/m each where they are None."""
        m = len(self.points)
        return np.full(m, 1.0 / m) if self.weights is None else self.weights

    def kernel(self, k_grid, tau: float) -> np.ndarray:
        """sum_p w_p exp(i k.S_p - tau |S_p|) on the Cartesian grid of the real
        k_grid axes: the exact M(i k; tau) of the point set.  Real k keeps
        each phase factor on the unit circle; at complex k the factors
        would overflow alone, so mgf_closed_form takes each exponent whole.

        exp(i k.S) = e^{i kx Sx} e^{i ky Sy} e^{i kz Sz}, so the sum is one
        complex GEMM (nx, m) @ (m, ny nz) over three 1-D phase tables, run
        over chunks of points whose (m, ny nz) operand holds at most
        _POINT_CHUNK_ENTRIES entries and at most as many as the output.
        """
        kx, ky, kz = k_grid.axes()
        svec = stokes_points(self.points)
        damp = self._shares * np.exp(-tau * np.linalg.norm(svec, axis=1))
        out = np.zeros((kx.size, ky.size * kz.size), dtype=complex)
        step = max(1, min(_POINT_CHUNK_ENTRIES, out.size) // (ky.size * kz.size))
        for lo in range(0, len(svec), step):
            sx, sy, sz = svec[lo:lo + step].T
            ex = np.exp(1j * np.multiply.outer(kx, sx)) * damp[lo:lo + step]
            ey = np.exp(1j * np.multiply.outer(sy, ky))
            ez = np.exp(1j * np.multiply.outer(sz, kz))
            out += ex @ (ey[:, :, None] * ez[:, None, :]).reshape(sx.size, -1)
        return out.reshape(kx.size, ky.size, kz.size)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n pairs drawn by weight; equal weights draw with p=None."""
        return self.points[rng.choice(len(self.points), size=n, p=self.weights)]


@dataclass(frozen=True)
class VacuumSpec(_CoherentPoints):
    kind: ClassVar[str] = "vacuum"

    def __post_init__(self):
        self._hold([(0j, 0j)], None, "vacuum")


@dataclass(frozen=True)
class CoherentSpec(_CoherentPoints):
    alpha: complex
    beta: complex
    kind: ClassVar[str] = "coherent"

    def __post_init__(self):
        self._hold([(self.alpha, self.beta)], None, "alpha", "beta")


@dataclass(frozen=True)
class HomInputSpec:
    """Single photon in each input port, |1,1>."""

    kind: ClassVar[str] = "hom_input"


@dataclass(frozen=True)
class TmsvSpec:
    """Two-mode squeezed vacuum with squeezing parameter xi >= 0 and
    tanh(xi) < 1 in double precision (xi below about 19.06)."""

    xi: float
    kind: ClassVar[str] = "tmsv"

    def __post_init__(self):
        if not self.xi >= 0:
            raise ValueError("squeezing parameter must be >= 0")
        # from about 19.06 on (and at inf) tanh rounds to 1: no photon-number
        # tail decays, so no cutoff holds the state
        if not math.tanh(self.xi) < 1.0:
            raise ValueError(f"squeezing parameter {self.xi!r} is too large: "
                             "tanh(xi) rounds to 1")


@dataclass(frozen=True)
class MixtureSpec(_CoherentPoints):
    """Statistical mixture of coherent states: ((weight, alpha, beta), ...)."""

    components: tuple[tuple[float, complex, complex], ...]
    kind: ClassVar[str] = "mixture"

    def __post_init__(self):
        self._hold([c[1:] for c in self.components], [c[0] for c in self.components],
                   "mixture alpha and beta")


StateSpec = VacuumSpec | CoherentSpec | HomInputSpec | TmsvSpec | MixtureSpec


def _json_number(value, field: str, whole: bool = False) -> float:
    """The one rule for a JSON number: an int or a float, numpy scalars
    included, but no bool (an int to Python) and no str; whole asks for an
    integral value too, which 1e400 (read as inf) is not."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or whole and not float(value).is_integer()):
        raise ValueError(f"{field} must be a {'whole ' * whole}number, got {value!r}")
    return float(value)


# the value of a JSON field left out; a field not named here must be given
_DEFAULTS = {"re": 0.0, "im": 0.0, "mean_alpha": 0.0, "mean_beta": 0.0, "cutoff": None,
             "weights": None}


def _decode(obj, table: dict, what: str, prefix: str = "") -> dict:
    """{key: from_json(obj[key], prefix + key)} for the keys of table, in its
    order, _DEFAULTS[key] where obj lacks one (else KeyError).  Then a key
    outside table raises ValueError naming it: a nested object names its
    own stray key first."""
    if not isinstance(obj, dict):
        raise TypeError(f"{what} must be a JSON object, got {obj!r}")
    out = {key: from_json(obj[key], prefix + key) if key in obj else _DEFAULTS[key]
           for key, from_json in table.items()}
    unknown = [key for key in obj if key not in table]
    if unknown:
        raise ValueError(f"{what} has unknown key {unknown[0]!r}; "
                         f"known keys: {', '.join(table)}")
    return out


def _from_json(obj, what: str, kinds: dict, key: str | None = None) -> tuple[str, dict]:
    """(kind, fields by its table) of a source's JSON, an object or its text:
    the kind is obj[key], or else the first of kinds, {kind: table}, that obj
    holds as a key.  An unknown kind, a key outside the table, and a missing
    or mistyped field (an int past 1e308 overflows) raise ValueError."""
    obj = json.loads(obj) if isinstance(obj, str) else obj
    obj = obj if isinstance(obj, dict) else {}  # no kind, so it fails the next rule
    kind = obj.get(key) if key else next((k for k in kinds if k in obj), None)
    if not (isinstance(kind, str) and kind in kinds):
        raise ValueError(f"{what} must be an object with "
                         f"{f'a {key!r} of' if key else 'one key of'} {', '.join(kinds)}")
    try:
        fields = {k: v for k, v in obj.items() if k != key}
        return kind, _decode(fields, kinds[kind], f"{kind} {what}")
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {kind} {what} ({type(exc).__name__}: {exc})") from exc


def _complex_to_json(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _complex_from_json(obj, field: str) -> complex:
    if isinstance(obj, dict):
        parts = _decode(obj, {"re": _json_number, "im": _json_number}, field, field + ".")
        return complex(parts["re"], parts["im"])
    return complex(_json_number(obj, field))


_COMPONENT = {"weight": _json_number, "alpha": _complex_from_json, "beta": _complex_from_json}
_GAUSSIAN = {"sigma": _json_number, "mean_alpha": _complex_from_json,
             "mean_beta": _complex_from_json}
# the JSON form of each ensemble kind of reconstruct, named by its top-level key
_ENSEMBLES = {
    "gaussian": {"gaussian": lambda obj, _: _decode(obj, _GAUSSIAN, "gaussian ensemble")},
    "points": {
        "points": lambda objs, _: [[_complex_from_json(z, "ensemble points") for z in pair]
                                   for pair in objs],
        "weights": lambda ws, _: None if ws is None else [_json_number(w, "ensemble weights")
                                                          for w in ws],
    },
}
# the JSON form of each state kind: kind -> (spec class, {field: from_json}),
# fields in the order the JSON text lists them; _TO_JSON writes each field
_KINDS = {
    "vacuum": (VacuumSpec, {}),
    "coherent": (CoherentSpec, {"alpha": _complex_from_json, "beta": _complex_from_json}),
    "hom_input": (HomInputSpec, {}),
    "tmsv": (TmsvSpec, {"xi": _json_number}),
    "mixture": (MixtureSpec, {"components": lambda objs, _: tuple(
        tuple(_decode(obj, _COMPONENT, "mixture component", "mixture ").values())
        for obj in objs)}),
}
_TO_JSON = {"alpha": _complex_to_json, "beta": _complex_to_json, "xi": float,
            "components": lambda comps: [{"weight": float(w), "alpha": _complex_to_json(a),
                                          "beta": _complex_to_json(b)} for w, a, b in comps]}


def spec_to_json(spec: StateSpec, cutoff: int | None = None) -> dict:
    """JSON-ready dict for a state spec, optionally embedding a cutoff."""
    cls, fields = _KINDS.get(getattr(spec, "kind", None), (None, None))
    if cls is None or not isinstance(spec, cls):
        raise ValueError(f"unknown state spec {spec!r}")
    out = {"kind": spec.kind}
    out.update((name, _TO_JSON[name](getattr(spec, name))) for name in fields)
    if cutoff is not None:
        out["cutoff"] = int(cutoff)
    return out


def _cutoff_from_json(value, _) -> int | None:  # null, as absent, is no cutoff
    return None if value is None else int(_json_number(value, "state spec cutoff", whole=True))


def spec_from_json(obj) -> tuple[StateSpec, int | None]:
    """Parse a state spec dict (or JSON string).  Returns (spec, cutoff or None).

    An unknown kind, a key outside the kind's fields and "cutoff", or a
    missing or mistyped field (true or "0.5" as a number, a cutoff of 2.7)
    raises ValueError."""
    kinds = {kind: {**table, "cutoff": _cutoff_from_json} for kind, (_, table) in _KINDS.items()}
    kind, fields = _from_json(obj, "state spec", kinds, "kind")
    cutoff = fields.pop("cutoff")
    return _KINDS[kind][0](**fields), cutoff


# ---------------------------------------------------------------------------
# measurement direction


def _stokes(a, b):
    """The Stokes vector (2 Re a* b, 2 Im a* b, |a|^2 - |b|^2) of the coherent
    pair (a, b), for complex numbers and arrays alike: the one formula behind
    splitter axes and stokes_points, which the exact routes of a point set read."""
    cross = np.conj(a) * b
    return 2.0 * cross.real, 2.0 * cross.imag, abs(a) ** 2 - abs(b) ** 2


def stokes_points(pairs: np.ndarray) -> np.ndarray:
    """Map (m, 2) coherent amplitudes to (m, 3) Stokes vectors."""
    pairs = np.atleast_2d(np.asarray(pairs, dtype=complex))
    return np.stack(_stokes(pairs[:, 0], pairs[:, 1]), axis=1)


def _stokes_axis(T, R) -> np.ndarray:  # that of (T*, R*), one row per entry
    return np.stack(_stokes(np.conj(T), np.conj(R)), axis=-1)


@dataclass(frozen=True)
class MeasurementDirection:
    """Splitter (T, R) and the unit Stokes axis e it realizes, derived from
    (T, R) by the one-row case of the array map that _splitters uses."""

    T: complex
    R: complex
    e: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "T", complex(self.T))
        object.__setattr__(self, "R", complex(self.R))
        # written so that NaN fails it
        if not abs(abs(self.T) ** 2 + abs(self.R) ** 2 - 1.0) <= TOL.unit_vector:
            raise ValueError("|T|^2 + |R|^2 must equal 1")
        e = _stokes_axis(np.array([self.T]), np.array([self.R]))[0]
        object.__setattr__(self, "e", e)


def _splitters(axes):
    """(e, T, R) for (n, 3) Stokes axes, the one axis-to-splitter map: T =
    sqrt((1 + e_z)/2) and R = sqrt((1 - e_z)/2) exp(-i phi), phi the azimuth
    (0 at the poles, where T or R is exactly 0); e holds the axes they realize.
    Rows within 1e-9 of unit norm are renormalized; any other (NaN too) raises."""
    e = np.asarray(axes, dtype=float).reshape(-1, 3)
    norm = np.sqrt(e[:, None] @ e[:, :, None]).ravel()  # as np.linalg.norm of one row
    if not np.all(np.abs(norm - 1.0) <= TOL.direction_input):  # NaN fails too
        raise ValueError("axis must be within 1e-9 of unit norm")
    e = e / norm[:, None]
    e_z, phi = np.clip(e[:, 2], -1.0, 1.0), np.arctan2(e[:, 1], e[:, 0])
    T = np.sqrt((1.0 + e_z) / 2.0).astype(complex)
    R = np.sqrt((1.0 - e_z) / 2.0) * (np.cos(phi) - 1j * np.sin(phi))
    return _stokes_axis(T, R), T, R


def direction_to_beamsplitter(e) -> MeasurementDirection:
    """Splitter parameters for one Stokes axis, the one-row case of _splitters."""
    _, T, R = _splitters(np.reshape(e, (1, 3)))
    return MeasurementDirection(T[0], R[0])


def direction_from_tr(T: complex, R: complex) -> MeasurementDirection:
    """Direction for explicit splitter parameters (any phase convention)."""
    s = math.sqrt(abs(T) ** 2 + abs(R) ** 2)
    if not abs(s - 1.0) <= TOL.direction_input:
        raise ValueError("|T|^2 + |R|^2 must be within 1e-9 of 1")
    return MeasurementDirection(complex(T) / s, complex(R) / s)


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class TwoModeState:
    """Truncated two-mode state as a mixture of pure amplitude grids.

    components holds (weight, amp) pairs where amp[n_a, n_b] is the
    joint Fock amplitude of one pure component.  Amplitudes keep their
    exact truncated values (no renormalization), so trace equals
    1 - leakage up to rounding.  leakage estimates the probability mass
    lost to the cutoff, and the series of M converges for |z| < reach.
    """

    cutoff: int
    components: tuple[tuple[float, np.ndarray], ...]
    leakage: float = 0.0
    reach: float = math.inf

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        n = self.cutoff + 1
        comps = []
        for w, amp in self.components:
            amp = np.asarray(amp, dtype=complex)
            if amp.shape != (n, n):
                raise ValueError("component amplitude grid has wrong shape")
            if not w >= -1e-15:
                raise ValueError("component weights must be >= 0")
            comps.append((float(w), amp))
        object.__setattr__(self, "components", tuple(comps))
        if not (0.0 <= self.leakage <= 1.0 + 1e-12):
            raise ValueError("leakage must lie in [0, 1]")

    @cached_property
    def trace(self) -> float:
        return float(
            sum(w * np.sum(amp.real**2 + amp.imag**2) for w, amp in self.components)
        )


def _log_factorials(cutoff: int) -> np.ndarray:
    """ln n! for n = 0..cutoff."""
    return np.array([math.lgamma(n + 1.0) for n in range(cutoff + 1)])


def coherent_amplitudes(alpha, cutoff: int) -> np.ndarray:
    """Truncated single-mode coherent amplitudes exp(-|a|^2/2) a^n / sqrt(n!),
    one row per entry of an array alpha, on a new last axis."""
    alpha = np.asarray(alpha, dtype=complex)
    a = np.abs(alpha)
    r = np.where(a == 0.0, 1.0, a)  # a = 0: phase 0, so exactly e_0
    # magnitudes from logs: |a|^n alone overflows once n ln|a| > 709, which
    # |a| = 14 reaches at its auto cutoff
    log_mag = np.log(r)[..., None] * np.arange(cutoff + 1) - 0.5 * (a * a)[..., None]
    return _powers(alpha / r, cutoff) * np.exp(log_mag - 0.5 * _log_factorials(cutoff))


def _poisson_tails(mu: float, top: int) -> np.ndarray:
    """P(N > c) for c = 0..top, N Poisson with mean mu.

    For c < mu - 1 the tail exceeds 1/4 and is 1 - P(N <= c), the pmf
    summed from below.  From there on it is the sum of the pmf terms above
    c, added smallest first so a tiny tail keeps its relative precision;
    terms past max(top, mu) + 10 sqrt(mu) + 40 (below 1e-20 of the
    smallest tail) are left out.  Either way, as that sum needs
    mu <= top + 1, the terms span O(top + sqrt(top)) counts.
    """
    if mu == 0.0:
        return np.zeros(top + 1)
    below = min(top + 1, max(0, math.ceil(mu - 1.0)))  # the c < mu - 1
    end = top if below > top else int(max(top, mu) + 10.0 * math.sqrt(mu)) + 40
    n = np.arange(end + 1)
    terms = np.exp(n * math.log(mu) - mu - _log_factorials(end))
    above = np.cumsum(terms[::-1])[::-1][below + 1 : top + 2]
    return np.concatenate([1.0 - np.cumsum(terms[:below]), above])


def _leakage_table(spec: StateSpec, top: int):
    """(weights, L) of a spec's components: L[i, c] the mass component i
    leaves outside the box at cutoff c, for c = 0..top."""
    if isinstance(spec, _CoherentPoints):
        tails = np.array([[_poisson_tails(abs(z) ** 2, top) for z in pair]
                          for pair in spec.points.tolist()])
        ta, tb = tails[:, 0], tails[:, 1]
        return spec._shares, ta + tb - ta * tb  # 1 - (1 - ta)(1 - tb), precise for tiny tails
    if isinstance(spec, HomInputSpec):  # |1,1> fits from cutoff 1 on
        return np.ones(1), np.eye(1, top + 1)
    if isinstance(spec, TmsvSpec):  # the diagonal terms past c
        return np.ones(1), math.tanh(spec.xi) ** (2.0 * np.arange(1, top + 2))[None]
    raise ValueError(f"unknown state spec {spec!r}")


def make_state(spec: StateSpec, cutoff: int) -> TwoModeState:
    """Build the truncated state a StateSpec describes, with its reach.

    Emits a TruncationWarning when the analytic leakage estimate exceeds
    TOL.leakage_bound.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    weights, table = _leakage_table(spec, cutoff)
    leak = float(weights @ table[:, cutoff])
    n = cutoff + 1
    reach = math.inf  # every tail but a squeezed vacuum's falls faster than geometric
    if isinstance(spec, _CoherentPoints):
        amps = coherent_amplitudes(spec.points, cutoff)
        comps = tuple(zip(weights, amps[:, 0, :, None] * amps[:, 1, None, :]))
    else:  # one pure component
        amp = np.zeros((n, n), dtype=complex)
        comps = ((1.0, amp),)
        if isinstance(spec, HomInputSpec):
            if cutoff < 1:
                raise ValueError("hom_input needs cutoff >= 1")
            amp[1, 1] = 1.0
        else:  # TmsvSpec
            diag = _powers(-math.tanh(spec.xi), cutoff) / math.cosh(spec.xi)
            amp[np.arange(n), np.arange(n)] = diag
            if spec.xi > 0:  # P(2n) = tanh(xi)^2n / cosh(xi)^2
                reach = 1.0 / math.tanh(spec.xi)
    if leak > TOL.leakage_bound:
        warnings.warn(
            f"cutoff {cutoff} leaves {leak:.3e} probability mass behind "
            f"(requested bound {TOL.leakage_bound:.1e})",
            TruncationWarning,
            stacklevel=2,
        )
    return TwoModeState(cutoff, comps, leak, reach)


# largest cutoff auto_cutoff returns
_MAX_AUTO_CUTOFF = 512


def auto_cutoff(spec: StateSpec, bound: float = TOL.leakage_bound) -> int:
    """Smallest cutoff >= 2 at which every component's analytic leakage
    stays below bound, at most _MAX_AUTO_CUTOFF; bound must be > 0."""
    if not bound > 0:  # NaN fails too
        raise ValueError(f"leakage bound must be > 0, got {bound!r}")
    leak = np.max(_leakage_table(spec, _MAX_AUTO_CUTOFF)[1], axis=0)
    below = np.flatnonzero(leak[2:] < bound)
    return 2 + int(below[0]) if below.size else _MAX_AUTO_CUTOFF


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
# the identity.  Offsets below are delta = n_a - n_b = 2m.  One front end,
# _axis_rows, feeds counts, kernel sums and beam_splitter: a splitter with
# |R| > |T| is the mode swap |k, l> -> (-1)^k |l, k> after the splitter
# (R*, -T*), so beta <= pi/2 always (counts transpose, amplitudes also take
# the sign), and a pole (R = 0) only rephases the modes.  All that depends
# on the state alone is planned once per call for all its direction
# batches.  Counts do not see the unit-modulus factor (uT uR)^k' uT*^N:
# only beam_splitter applies it.  Kernel sums, mgf among them, take each
# batch of counts as it comes and build no photon distribution.
#
# Counts over many axes may take a second route, d^{N/2}(beta) = P Delta^T
# E(beta) Delta P*, Delta = d^{N/2}(pi/2), E = diag(e^{-i mu beta}), P =
# diag(e^{i pi m/2}) (Risbo, J. Geodesy 70, 383 (1996)): the recurrence
# builds Delta once per call, then a block of an axis batch is two real GEMMs.
# With n rotated axes and, summed over blocks, W_rec = live_cols (N+1),
# W_build = (N+1)^2, W_gemm = (N+1) (live_cols + N+1), a call takes it iff
# n W_rec > W_build + _GEMM_COST n W_gemm: never for one axis, nor for a
# squeezed vacuum (one live column a block).

# doubles per recurrence buffer: direction batches are cut to this size so
# the engine's live arrays stay a few MB at any batch size (GEMM: its rows)
_BUFFER_DOUBLES = 1 << 15
# doubles of step tables per plan chunk (a few times more to build them);
# one direction batch builds the chunks in turn, several keep them all
_PLAN_DOUBLES = 1 << 14
# gamma, a unit of W_gemm in units of W_rec: slopes in n over 112-500 axes
# (OpenBLAS at 1 thread, x86-64) read 0.04-0.06 for coherent pairs at cutoffs
# 10-40, 0.13 for a three-part mixture and 0.22 for |1,1>; 0.2 also covers
# the cost of the build that W_build leaves out
_GEMM_COST = 0.2
# a run of planned blocks, as _plan_chunk builds it
_Chunk = collections.namedtuple("_Chunk", "blocks offsets ka psi edges tables k n")


def _ragged(counts):
    """Ranges of these lengths end to end: each entry's range and place in it."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]


def _plan_chunk(src, chains, n, hi, old, r0) -> _Chunk:
    """Plan of blocks n, whose columns :hi are live and :old running: the
    block records (N, live and running columns, row offset, chain base,
    whether it has a GEMM, and where it starts in psi, edges and tables),
    the chains' offsets, the clipped n_a and amplitudes of the columns the
    GEMMs read, the b indices and signs of the edge rows m' = -j, +j that
    the running columns gain, their step tables (k3, e, a), and the output
    rows (k', N) of the GEMMs."""
    cut, offsets = src.shape[-1] - 1, np.concatenate(chains)
    base = n % 2 * chains[0].size
    blk, j = _ragged(hi)
    nb, ka = n[blk], (n[blk] + offsets[base[blk] + j]) // 2
    inside = (ka <= cut) & (nb - ka <= cut)
    ka, kb = np.minimum(ka, cut), np.minimum(nb - ka, cut)
    psi = src[:, ka, kb] * inside
    gemm = np.bincount(blk, psi.any(axis=0), n.size) > 0  # blocks with amplitude
    blk, j = _ragged(old)
    dc = offsets[base[blk] + j]
    ib0 = (n[blk] - dc) // 2
    edges = np.stack([ib0, (n[blk] + dc) // 2, 1 - 2 * (ib0 % 2)])
    # one entry per (block, running column, interior row); at n = 2 the
    # tables come out (0, 0, 1), so D^1_00 = -y d^0_00
    reps = np.repeat(n - 1, old)  # interior rows of each running column
    dc = np.repeat(dc, reps).astype(float)
    nn = np.repeat(n, old * (n - 1)).astype(float)
    m = nn - 2.0
    dr = 2.0 * _ragged(reps)[1] - m
    ac, ar = np.sqrt(nn * nn - dc * dc), np.sqrt(nn * nn - dr * dr)
    gc, gr = np.sqrt(m * m - dc * dc), np.sqrt(m * m - dr * dr)
    inv = 1.0 / (ac * ar)
    cross = dc * dr
    # e = k1 - k2 - k3 - 1 >= 0 written without cancellation; it vanishes on
    # the diagonal, where both denominators may be zero
    lo = m * m - cross + gc * gr
    lo[lo == 0.0] = 1.0
    e = (dc - dr) ** 2 * (nn * m / lo + nn * nn / (nn * nn - cross + ac * ar)) * inv
    tables = np.stack([nn / np.maximum(m, 1.0) * gc * gr * inv, e,
                       (2.0 * (m + 1.0) * nn) * inv])
    blk, k = _ragged((n + 1) * gemm)
    at = (np.cumsum(x) - x for x in (hi, old, old * (n - 1)))
    blocks = list(zip(*(x.tolist() for x in (n, hi, old, r0, base, gemm, *at))))
    return _Chunk(blocks, offsets, ka, psi, edges, tables, k, n[blk])


def _rotation_plan(src: np.ndarray):
    """The _plan of rotating the blocks of src, or None if src is zero."""
    c = src.shape[-1] - 1
    na, nb = np.nonzero(np.any(src != 0, axis=0))
    if not na.size:
        return None
    last = np.full(2 * c + 1, -1)  # the last block holding each offset
    np.maximum.at(last, na - nb + c, na + nb)
    return _plan(src, last)


def _plan(src, last):
    """The direction-independent work of rotating the columns delta of src
    (cutoff c) up to block last[delta + c] >= 0: the last block visited, each
    parity's buffer shape, functions that plan the visited blocks in chunks of
    about _PLAN_DOUBLES doubles of step tables, and (W_rec, W_build, W_gemm)."""
    c = src.shape[-1] - 1
    offsets = np.flatnonzero(last >= 0) - c
    chains, runs, shapes = [], [], [None, None]
    for q in (0, 1):  # each parity's offsets, sorted by |delta|
        d = offsets[offsets % 2 == q]
        chains.append(d[np.argsort(np.abs(d), kind="stable")])
        if d.size:
            # live[i]: the last block that needs column i or one after it,
            # so the columns live at any block form a prefix
            live = np.maximum.accumulate(last[chains[q] + c][::-1])[::-1]
            n = np.arange(q, live[0] + 1, 2)
            hi = np.minimum(np.searchsorted(np.abs(chains[q]), n, side="right"),
                            np.searchsorted(-live, -n, side="right"))
            runs.append((n, hi, np.minimum(hi, np.r_[0, hi[:-1]]), (live[0] - n) // 2))
            shapes[q] = (d.size, int(live[0]) + 1)
    order = np.argsort(np.concatenate([run[0] for run in runs]))
    n, hi, old, r0 = (np.concatenate(a)[order] for a in zip(*runs))
    end = np.cumsum(3 * old * (n - 1))  # chunks end at multiples of _PLAN_DOUBLES
    cuts = [0, *(np.flatnonzero(np.diff(end // _PLAN_DOUBLES)) + 1).tolist(), n.size]
    chunks = [functools.partial(_plan_chunk, src, chains, n[i:j], hi[i:j], old[i:j],
                                r0[i:j]) for i, j in zip(cuts, cuts[1:])]
    size = n + 1
    return int(n[-1]), shapes, chunks, (hi @ size, size @ size, size @ (hi + size))


def _stepper(top, shapes, T, R):
    """The recurrence behind splitters with |T| >= |R| > 0, cos(beta/2) = |T|:
    given a plan's built chunks in turn, it yields per block cols[i, j, k'] =
    d^{N/2}_{m'm}(beta_i) for live column j (delta = 2m) and m' = k' - N/2,
    a view that the next block of its parity overwrites."""
    n_d = T.shape[0]
    aT, aR = np.abs(T), np.abs(R)
    c2 = (aT * aT / (aT * aT + aR * aR))[:, None]
    s2 = (aR * aR / (aT * aT + aR * aR))[:, None]
    y = 2.0 * s2[:, :, None]
    # binom[:, a] = C(N, a) cos^2a sin^2(N-a), the squared edge values of d,
    # after a zero column in ext; N -> N + 1 is c2 binom[a - 1] + s2 binom[a]
    ext = np.eye(1, top + 2, 1).repeat(n_d, axis=0)
    binom = ext[:, 1:]
    alt = 1.0 - 2.0 * (np.arange(top + 1) % 2)
    bufs = [s and (np.zeros((n_d,) + s), np.zeros((n_d,) + s)) for s in shapes]
    done = 0

    def steps(chunk):
        nonlocal done
        for n, hi, old, r0, base, _, _, o_edge, o_tab in chunk.blocks:
            while done < n:
                done += 1
                shift, row = c2 * ext[:, : done + 1], binom[:, : done + 1]
                row *= s2
                row += shift
                row /= np.add.reduce(row, axis=1, keepdims=True)
            cur, diff = bufs[n % 2]
            r1 = r0 + n + 1
            b = np.sqrt(binom[:, : n + 1])
            if old:
                k3, e, a = chunk.tables[:, o_tab : o_tab + old * (n - 1)].reshape(3, old, -1)
                ib0, ib1, sign = chunk.edges[:, o_edge : o_edge + old]
                cu, di = cur[:, :old, r0 + 1 : r1 - 1], diff[:, :old, r0 + 1 : r1 - 1]
                # diff <- k3 diff + (e - y a) cur, with one temporary
                step = np.multiply(y, a)
                np.subtract(e, step, out=step)
                step *= cu
                di *= k3
                di += step
                cu += di
                cur[:, :old, r0] = diff[:, :old, r0] = b[:, ib0]
                cur[:, :old, r1 - 1] = diff[:, :old, r1 - 1] = sign * b[:, ib1]
            for i in range(old, hi):  # columns m = +-j start at this block
                col = b if chunk.offsets[base + i] >= 0 else b[:, ::-1] * alt[: n + 1]
                cur[:, i, r0:r1] = diff[:, i, r0:r1] = col
            yield cur[:, :hi, r0:r1]

    return steps


def _wigner_rows(top, shapes, chunks, T, R, cut):
    """Rows behind splitters with |T| >= |R| > 0, amps at cutoff cut, from the
    built chunks of their plan: per chunk (k, n, rows), rows[i, :, j] =
    <k[j], n[j]-k[j]| U(T[i], R[i]) |amps> for each component, real parts
    then imaginary parts without the output phase."""
    steps = _stepper(top, shapes, T, R)
    # the input phase (uT uR*)^k, each power taken from its angle, since
    # products of unit numbers drift off the unit circle by an ulp per factor
    arg = (np.angle(T) - np.angle(-R))[:, None]
    phase_in = np.exp(1j * arg * np.arange(cut + 1))
    for chunk in chunks:
        phi = phase_in[:, None, chunk.ka] * chunk.psi[None]
        phi = np.concatenate([phi.real, phi.imag], axis=1)
        out = [phi[:, :, o : o + hi] @ cols for (_, hi, _, _, _, gemm, o, _, _), cols
               in zip(chunk.blocks, steps(chunk)) if gemm]
        if not out:
            continue
        yield chunk.k, chunk.n, np.concatenate(out, axis=2)


def _half_turns(top, shapes):
    """Delta_N^T for the blocks N a plan visits, in turn: the recurrence steps
    the columns m >= 0, and d_{m',-m}(pi/2) = (-1)^{k'} d_{m'm}(pi/2)."""
    d = np.arange(-top, top + 1)
    end = np.array([s[1] - 1 if s else -1 for s in shapes])[d % 2]
    top, shapes, chunks, _ = _plan(np.zeros((1, top + 1, top + 1)),
                                   np.where((d >= 0) & (d <= end), end, -1))
    steps = _stepper(top, shapes, *np.full((2, 1), math.sqrt(0.5)))
    alt = 1.0 - 2.0 * (np.arange(top + 1) % 2)
    for build in chunks:
        chunk = build()
        for (n, hi, _, _, base, *_), cols in zip(chunk.blocks, steps(chunk)):
            k = (n + chunk.offsets[base : base + hi]) // 2
            delta_t = np.empty((n + 1, n + 1))
            delta_t[k] = cols[0]
            delta_t[n - k] = cols[0] * alt[: n + 1]
            yield delta_t


def _half_turn_rows(top, shapes, chunks, T, R):
    """The rows of _wigner_rows, up to a unit-modulus factor per row
    and block: per chunk and batch of about _BUFFER_DOUBLES doubles of rows
    (at, k, n, rows), with at a slice of T and R."""
    deltas = _half_turns(top, shapes)
    # per row k = 0..top: P* with the input phase (uT uR*)^k, and E(beta)
    k = np.arange(top + 1)[:, None]
    phase_in = np.exp(1j * k * (np.angle(T) - np.angle(-R) - 0.5 * np.pi))
    e_beta = np.exp(-2j * k * np.arctan2(np.abs(R), np.abs(T)))[:, :, None]
    for build in chunks:
        chunk = build()
        halves = [(n, o, hi, delta_t[(n + chunk.offsets[base : base + hi]) // 2].T, delta_t.T)
                  for (n, hi, _, _, base, gemm, o, _, _), delta_t in zip(chunk.blocks, deltas)
                  if gemm]  # Delta's live columns in plan order, and Delta^T
        n_c, size = len(chunk.psi), len(chunk.k)
        step = max(1, _BUFFER_DOUBLES // max(1, 2 * n_c * size))  # size 0: no GEMM here
        for lo in range(0, T.size * bool(halves), step):
            at = slice(lo, lo + step)
            phi = phase_in[chunk.ka, at, None] * chunk.psi.T[:, None]  # column, axis, comp
            phi = phi.view(float).reshape(len(phi), -1)
            out = []
            for n, o, hi, sub, delta in halves:
                x = sub @ phi[o : o + hi]  # two real GEMMs: Delta, then Delta^T
                xc = x.view(complex).reshape(n + 1, -1, n_c)
                xc *= e_beta[: n + 1, at]
                out.append(x.T @ delta)
            out = np.concatenate(out, axis=1).reshape(-1, n_c, 2, size)
            yield at, chunk.k, chunk.n, out.transpose(0, 2, 1, 3).reshape(-1, 2 * n_c, size)


def _axis_rows(state: TwoModeState, T: np.ndarray, R: np.ndarray):
    """Output rows of the components of state behind the splitters (T[i], R[i]),
    from one plan: per batch (at, swap, k, n, rows), rows[i, :, j] the
    amplitude of |k[j], n[j] - k[j]> along axis at[i], real parts then
    imaginary parts, without the unit-modulus phase of the row.  Where
    swap[i], the rows are those behind (R*, -T*), and the caller applies
    the mode swap S: U(T, R) = S U(R*, -T*) with S|k, l> = (-1)^k |l, k>.
    The poles share one row set."""
    amps = np.stack([amp for _, amp in state.components])
    c = state.cutoff
    swap = np.abs(R) > np.abs(T)  # then |R*| > |-T*|
    T, R = np.where(swap, np.conj(R), T), np.where(swap, -np.conj(T), R)
    pole, turn = np.flatnonzero(R == 0), np.flatnonzero(R != 0)
    if pole.size:  # per-mode phases a -> u a, b -> u* b, u = T/|T|: nothing moves
        ka, kb = np.divmod(np.arange((c + 1) ** 2), c + 1)
        rows = np.stack([amps.real, amps.imag]).reshape(1, 2 * len(amps), -1)
        yield pole, swap[pole], ka, ka + kb, rows
    plan = _rotation_plan(amps) if turn.size else None
    if plan is None:
        return
    top, shapes, chunks, (w_rec, w_build, w_gemm) = plan
    # one axis never takes the GEMMs, so beam_splitter doesn't
    if turn.size * (w_rec - _GEMM_COST * w_gemm) > w_build:
        for at, k, n, rows in _half_turn_rows(top, shapes, chunks, T[turn], R[turn]):
            yield turn[at], swap[turn[at]], k, n, rows
        return
    step = max(1, _BUFFER_DOUBLES // max(s[0] * s[1] for s in shapes if s))
    chunks = (chunk() for chunk in chunks)
    if step < turn.size:  # several batches share the chunks
        chunks = list(chunks)
    for lo in range(0, turn.size, step):
        at = turn[lo : lo + step]
        for k, n, rows in _wigner_rows(top, shapes, chunks, T[at], R[at], c):
            yield at, swap[at], k, n, rows


def _count_rows(state: TwoModeState, T: np.ndarray, R: np.ndarray):
    """Photon counts behind the splitters (T[i], R[i]): per batch (at, swap, k,
    n, prob), prob[i, j] the probability of (k[j], n[j] - k[j]) counts along
    axis at[i], swapped where swap[i].  After the last batch, NumericalError
    if the mass along an axis misses the trace by more than TOL.trace_window."""
    weights = np.array([w for w, _ in state.components])
    mass = np.zeros(T.size)
    for at, swap, k, n, rows in _axis_rows(state, T, R):  # real, then imag
        prob = np.einsum("c,dck->dk", np.r_[weights, weights], rows**2)
        mass[at] += prob.sum(axis=1)
        yield at, swap, k, n, np.broadcast_to(prob, (at.size, k.size))
    _check_norm(state.trace, mass)


def _check_norm(trace: float, total) -> None:
    """The rotated mass must reproduce the trace."""
    defect = np.max(np.abs(np.asarray(total) - trace), initial=0.0)
    if not defect <= TOL.trace_window:  # NaN fails too
        raise NumericalError(
            f"splitter changed the norm by {defect:.3e} "
            f"(window {TOL.trace_window:.0e})"
        )


def beam_splitter(state: TwoModeState, T: complex, R: complex) -> TwoModeState:
    """Propagate a state through a lossless splitter with parameters (T, R).

    (T, R) take the raw-input rule of direction_from_tr: within 1e-9 of
    |T|^2 + |R|^2 = 1 they are renormalized, else (NaN too) ValueError.
    The result lives in the same (cutoff+1)^2 box: exactly unitary on
    every total-photon-number block that fits it; blocks that spill past
    it lose the spilled mass to leakage.  Raises NumericalError if the
    rotated mass misses the trace by more than TOL.trace_window.
    """
    d = direction_from_tr(T, R)
    c = state.cutoff
    weights = np.array([w for w, _ in state.components])
    out = np.zeros((len(weights), c + 1, c + 1), dtype=complex)
    clipped = np.zeros(len(weights))
    for _, swap, k, n, rows in _axis_rows(state, np.array([d.T]), np.array([d.R])):
        # the row phase (uT uR)^k uT*^N of the splitter (t, r) the rows are
        # behind, from angles; a pole (r = 0) takes arg(-r) := arg t
        t, r = (np.conj(d.R), -np.conj(d.T)) if swap[0] else (d.T, d.R)
        arg_t, arg_r = np.angle(t), np.angle(-r if r else t)
        re, im = np.split(rows[0], 2)
        rows = (re + 1j * im) * np.exp(1j * ((arg_t + arg_r) * k - n * arg_t))
        ka, kb = k, n - k
        if swap[0]:  # rows behind (R*, -T*), then S|k, l> = (-1)^k |l, k>
            rows, ka, kb = rows * (1 - 2 * (k % 2)), kb, ka
        inside = (ka <= c) & (kb <= c)  # rows that stay in the box
        out[:, ka[inside], kb[inside]] = rows[:, inside]
        clipped += (rows.real ** 2 + rows.imag ** 2)[:, ~inside].sum(axis=1)
    lost = float(weights @ clipped)
    rotated = TwoModeState(c, tuple(zip(weights, out)), min(1.0, state.leakage + lost),
                           state.reach)
    _check_norm(state.trace, rotated.trace + lost)
    return rotated


def rotate_many(state: TwoModeState, directions) -> np.ndarray:
    """Joint photon distributions behind many splitters in one batch.

    Each block keeps its total photon number, so a state at cutoff c has
    its output on n_a + n_b <= 2c: p[i], of shape (2c+1, 2c+1), holds
    every row of every block along directions[i].  Raises NumericalError
    if sum(p[i]) misses the trace by more than TOL.trace_window.
    """
    T, R = np.fromiter(((d.T, d.R) for d in directions), np.dtype((complex, 2))).T
    p = np.zeros((T.size,) + (2 * state.cutoff + 1,) * 2)
    for at, sw, k, n, prob in _count_rows(state, T, R):
        p[at[~sw, None], k, n - k] = prob[~sw]
        p[at[sw, None], n - k, k] = prob[sw]
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
    truncation of that state, the only mass p misses, and reach its reach.
    """

    p: np.ndarray
    direction: MeasurementDirection
    leakage: float = 0.0
    reach: float = math.inf

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("p must be a square matrix")
        if not p.min() >= TOL.distribution_floor:  # NaN fails too
            raise ValueError(f"negative probability {p.min():.3e} in distribution")

    @property
    def cutoff(self) -> int:
        return self.p.shape[0] - 1


def joint_photon_distribution(
    state: TwoModeState, direction: MeasurementDirection
) -> JointPhotonDistribution:
    """Photon statistics of the splitter outputs along a Stokes axis."""
    return JointPhotonDistribution(rotate_many(state, [direction])[0], direction,
                                   state.leakage, state.reach)


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


def _finite(sums):
    """sums if all are finite: powers of |z| > 1 overflow at large N."""
    if np.all(np.isfinite(sums)):
        return sums
    raise NumericalError("kernel sum is not finite: the kernel's powers overflow")


def _power_sum(p: np.ndarray, z_a, z_b):
    """sum z_a^n_a p[n_a, n_b] z_b^n_b, broadcast over leading axes of p, z_a, z_b;
    NumericalError if one is not finite."""
    c = p.shape[-1] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        va, vb = _powers(z_a, c), _powers(z_b, c)
        # two real products: a complex operand would copy p to complex
        pv = p @ vb.real[..., :, None] + 1j * (p @ vb.imag[..., :, None])
        return _finite((va[..., None, :] @ pv)[..., 0, 0])


def _check_kernels(leakage: float, cutoff: int, reach: float, z_a, z_b) -> None:
    """The kernel rules in turn, r the largest |z_a|, |z_b| (arrays too) and
    cutoff, leakage and reach the state's.  Overflow, on both kernel-sum routes:
    NumericalError if r^(2 cutoff), the top power of a count, is not finite.
    Reach: ReachError if r >= reach.  Truncation: one TruncationWarning when
    r > 1 and leakage r^(cutoff+1) exceeds TOL.convergence_leakage (the sum
    drops terms of more than cutoff photons)."""
    r = max(np.max(np.abs(z_a), initial=0.0), np.max(np.abs(z_b), initial=0.0))
    with np.errstate(over="ignore"):
        _finite(r ** (2 * cutoff))
    if not r < reach:
        raise ReachError(f"the series of M diverges at |z| = {r:.4g} >= reach {reach:.4g}")
    # r^-(cutoff+1) underflows quietly to 0 where r^(cutoff+1) would overflow
    if r > 1.0 + 1e-12 and leakage > TOL.convergence_leakage * r ** -(cutoff + 1):
        warnings.warn(
            f"the state misses {leakage:.2e} of its mass above cutoff {cutoff}, which "
            f"kernel radius {r:.4g} weighs up to r^{cutoff + 1}: the sum may be inaccurate",
            TruncationWarning,
            stacklevel=3,
        )


def _kernel_sums(state: TwoModeState, T, R, z_a, z_b) -> np.ndarray:
    """Entry [i, j]: the kernel sum of state behind the splitter (T[i], R[i])
    with the kernel (z_a[j], z_b[j]), shared by every axis, or (z_a[i, j],
    z_b[i, j]), summed per batch of counts: no photon distribution is stored.
    Shared kernels are one row per point and swap orientation a batch uses, in
    one real matrix product.  _check_kernels runs first; a non-finite sum raises."""
    _check_kernels(state.leakage, state.cutoff, state.reach, z_a, z_b)
    out = np.zeros((T.size, np.shape(z_a)[-1]), dtype=complex)
    for at, sw, k, n, prob in _count_rows(state, T, R):
        with np.errstate(over="ignore", invalid="ignore"):
            if np.ndim(z_a) == 1:  # rows z_a^k z_b^(n-k), or z_b^k z_a^(n-k) if swapped
                turns = np.flatnonzero([not sw.all(), sw.any()])  # orientations used
                pw = _powers(np.array([z_a, z_b]), n.max())
                rows = (pw[turns][..., k] * pw[1 - turns][..., n - k]).reshape(-1, k.size)
                sums = (prob @ np.concatenate([rows.real, rows.imag]).T).reshape(
                    at.size, 2, turns.size, -1)[np.arange(at.size), :, sw - turns[0]]
                out[at] += sums[:, 0] + 1j * sums[:, 1]
                continue
            a, b = (np.where(sw[:, None], x[at], y[at]) for x, y in ((z_b, z_a), (z_a, z_b)))
            kernel = _powers(a, n.max())[..., k] * _powers(b, n.max())[..., n - k]
            out[at] += (prob[:, None] * kernel).sum(axis=-1)
    return _finite(out)


def power_expectation(state: TwoModeState, direction: MeasurementDirection,
                      z_a: complex, z_b: complex) -> complex:
    """Ordered moment <z_a^n_a z_b^n_b> of the output photon numbers as a
    one-axis kernel sum: no photon distribution is built, and the kernel
    meets the rules of _check_kernels."""
    T, R = np.array([direction.T]), np.array([direction.R])
    return complex(_kernel_sums(state, T, R, np.array([z_a]), np.array([z_b]))[0, 0])


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
