"""Multiplexed click detectors and moment-based access to the generating function.

Each output mode feeds a balanced array of D avalanche photodiodes with
quantum efficiency eta, dark-count parameter nu per diode, and an
attenuation factor eps applied before the split.  Click statistics are
computed exactly from the joint photon-number distribution; normalized
"silent diode" moments of the click counts reconstruct the generating
function on a lattice of (t, tau) points inside its existence wedge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL, NumericalError
from .fock import (
    JointPhotonDistribution,
    MeasurementDirection,
    TwoModeState,
    _distribution_along,
    power_sum,
)

# Alternating-sum inversion loses precision quickly with diode count.
_MAX_APDS = 8


@dataclass(frozen=True)
class ClickDetectorConfig:
    """One detector arm: D diodes, efficiency eta, dark rate nu, attenuation eps."""

    apds: int = 1
    eta: float = 1.0
    nu: float = 0.0
    eps: float = 1.0

    def __post_init__(self):
        if int(self.apds) != self.apds or self.apds < 1:
            raise ValueError("apds must be a positive integer")
        object.__setattr__(self, "apds", int(self.apds))
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if self.nu < 0.0:
            raise ValueError("nu must be >= 0")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")


@dataclass(frozen=True)
class ClickDistribution:
    """Joint probability c[i, j] of i clicks in arm a and j in arm b."""

    c: np.ndarray
    direction: MeasurementDirection
    config_a: ClickDetectorConfig
    config_b: ClickDetectorConfig

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.config_a.apds + 1, self.config_b.apds + 1):
            raise ValueError("click array shape must be (D_a + 1, D_b + 1)")
        if c.min() < TOL.click_floor:
            raise NumericalError(
                f"click probability {c.min():.3e} below floor {TOL.click_floor:.0e}"
            )
        object.__setattr__(self, "c", c)

    def probabilities(self) -> np.ndarray:
        """Clipped copy safe for sampling."""
        return np.clip(self.c, 0.0, None)


def _silent_prob_grid(
    dist: JointPhotonDistribution,
    cfg_a: ClickDetectorConfig,
    cfg_b: ClickDetectorConfig,
) -> np.ndarray:
    """P[m, n]: probability that m chosen diodes of arm a and n of arm b are silent."""
    da, db = cfg_a.apds, cfg_b.apds
    grid = np.empty((da + 1, db + 1))
    za = 1.0 - np.arange(da + 1) * (cfg_a.eps * cfg_a.eta / da)
    zb = 1.0 - np.arange(db + 1) * (cfg_b.eps * cfg_b.eta / db)
    for m in range(da + 1):
        for n in range(db + 1):
            grid[m, n] = power_sum(dist, za[m], zb[n]).real
    dark = np.exp(-np.arange(da + 1) * cfg_a.nu)[:, None] * np.exp(
        -np.arange(db + 1) * cfg_b.nu
    )
    return grid * dark


def click_distribution(
    source: TwoModeState | JointPhotonDistribution,
    direction: MeasurementDirection,
    config_a: ClickDetectorConfig,
    config_b: ClickDetectorConfig,
) -> ClickDistribution:
    """Exact joint click statistics after the measurement beam splitter.

    source is a TwoModeState, or its JointPhotonDistribution along
    direction.  Uses inclusion-exclusion over silent-diode patterns;
    diode counts above 8 are rejected because the alternating sums
    become numerically unstable.
    """
    da, db = config_a.apds, config_b.apds
    if da > _MAX_APDS or db > _MAX_APDS:
        raise NumericalError(f"diode counts above {_MAX_APDS} are not supported")
    dist = _distribution_along(source, direction)
    grid = _silent_prob_grid(dist, config_a, config_b)
    signed_a = [
        np.array([math.comb(i, r) * (-1.0) ** r for r in range(i + 1)])
        for i in range(da + 1)
    ]
    signed_b = [
        np.array([math.comb(j, s) * (-1.0) ** s for s in range(j + 1)])
        for j in range(db + 1)
    ]
    c = np.zeros((da + 1, db + 1))
    for i in range(da + 1):
        for j in range(db + 1):
            # pairwise summation keeps the alternating cancellation benign
            block = grid[da - i : da + 1, db - j : db + 1]
            terms = np.outer(signed_a[i], signed_b[j]) * block
            c[i, j] = math.comb(da, i) * math.comb(db, j) * np.sum(terms)
    total = float(c.sum())
    # inclusion-exclusion telescopes back to the box trace
    if abs(total - float(grid[0, 0])) > TOL.click_norm:
        raise NumericalError(
            f"click probabilities sum to {total:.12f}, expected {grid[0, 0]:.12f}"
        )
    return ClickDistribution(
        c=c, direction=direction, config_a=config_a, config_b=config_b
    )


def _moment_weights(da: int, db: int, k: int, l: int) -> np.ndarray:
    """w[i, j] = C(da-i, k) C(db-j, l) / (C(da, k) C(db, l))."""
    if not 0 <= k <= da:
        raise ValueError("k must lie in 0..D_a")
    if not 0 <= l <= db:
        raise ValueError("l must lie in 0..D_b")
    wa = np.array([math.comb(da - i, k) for i in range(da + 1)], dtype=float)
    wb = np.array([math.comb(db - j, l) for j in range(db + 1)], dtype=float)
    return np.outer(wa / math.comb(da, k), wb / math.comb(db, l))


def moments_from_clicks(
    clicks: ClickDistribution, k: int, l: int, correct_dark: bool = True
) -> float:
    """Normalized silent-diode moment mu_{k,l} of a click distribution.

    With dark correction the result equals the generating function at
    the lattice point given by click_moment_to_mgf_point exactly (up to
    truncation of the underlying state).
    """
    cfg_a, cfg_b = clicks.config_a, clicks.config_b
    w = _moment_weights(cfg_a.apds, cfg_b.apds, k, l)
    mu = float(np.sum(w * clicks.c))
    if correct_dark:
        mu *= math.exp(k * cfg_a.nu + l * cfg_b.nu)
    return mu


def click_moment_to_mgf_point(
    k: int, l: int, config_a: ClickDetectorConfig, config_b: ClickDetectorConfig
) -> tuple[float, float]:
    """(t, tau) probed by the dark-corrected moment mu_{k,l}.

    The lattice always satisfies |t| <= tau, so every accessible point
    lies inside the existence wedge of the generating function.
    """
    if not 0 <= k <= config_a.apds:
        raise ValueError("k must lie in 0..D_a")
    if not 0 <= l <= config_b.apds:
        raise ValueError("l must lie in 0..D_b")
    u = k * config_a.eps * config_a.eta / (2.0 * config_a.apds)
    v = l * config_b.eps * config_b.eta / (2.0 * config_b.apds)
    return v - u, u + v


@dataclass(frozen=True)
class AccessibleRegion:
    """(t, tau) points reachable by click moments of one detector pair.

    lattice holds one (k, l, t, tau) record per moment order; with an
    attenuation sweep (eps in (0, 1]) the reachable set becomes the
    filled rectangle 0 <= (tau - t)/2 <= u_max, 0 <= (tau + t)/2 <= v_max.
    """

    lattice: tuple[tuple[int, int, float, float], ...]
    swept: bool
    u_max: float
    v_max: float

    def contains(self, t: float, tau: float, tol: float = 1e-12) -> bool:
        u = 0.5 * (tau - t)
        v = 0.5 * (tau + t)
        if self.swept:
            return (
                -tol <= u <= self.u_max + tol and -tol <= v <= self.v_max + tol
            )
        return any(
            abs(t - tp) <= tol and abs(tau - taup) <= tol
            for _, _, tp, taup in self.lattice
        )


def accessible_region(
    config_a: ClickDetectorConfig,
    config_b: ClickDetectorConfig,
    eps_sweep: bool = False,
) -> AccessibleRegion:
    """Enumerate the moment lattice of a detector pair.

    eps_sweep=True describes the continuous region reachable by varying
    the attenuations, whose corners are set by the efficiencies alone.
    """
    lattice = []
    for k in range(config_a.apds + 1):
        for l in range(config_b.apds + 1):
            t, tau = click_moment_to_mgf_point(k, l, config_a, config_b)
            lattice.append((k, l, t, tau))
    u_max = (config_a.eta if eps_sweep else config_a.eps * config_a.eta) / 2.0
    v_max = (config_b.eta if eps_sweep else config_b.eps * config_b.eta) / 2.0
    return AccessibleRegion(
        lattice=tuple(lattice), swept=eps_sweep, u_max=u_max, v_max=v_max
    )


@dataclass(frozen=True)
class ClickSampleSet:
    """Multinomial click counts from n_total simulated runs."""

    counts: np.ndarray
    n_total: int
    seed: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2:
            raise ValueError("counts must be a 2-d array")
        if counts.sum() != self.n_total:
            raise ValueError("counts must sum to n_total")
        object.__setattr__(self, "counts", counts)


def sample_clicks(clicks: ClickDistribution, n: int, seed: int) -> ClickSampleSet:
    """Draw n independent runs of the click experiment (counting statistics)."""
    if n < 1:
        raise ValueError("need at least one sample")
    p = clicks.probabilities().ravel()
    if abs(p.sum() - 1.0) > TOL.click_norm:
        raise ValueError(
            f"click distribution sums to {p.sum():.12f}; "
            "cannot sample an unnormalized distribution"
        )
    p = p / p.sum()
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = rng.multinomial(n, p).reshape(clicks.c.shape)
    return ClickSampleSet(counts=counts, n_total=n, seed=seed)


def estimate_mgf_from_samples(
    samples: ClickSampleSet,
    k: int,
    l: int,
    config_a: ClickDetectorConfig,
    config_b: ClickDetectorConfig,
    correct_dark: bool = True,
) -> tuple[float, float]:
    """(estimate, standard error) of mu_{k,l} from finite click counts.

    The estimate is the sample mean of the silent-diode weight; the
    error is the sample standard deviation over sqrt(n), both scaled by
    the dark correction.
    """
    if samples.counts.shape != (config_a.apds + 1, config_b.apds + 1):
        raise ValueError("sample shape does not match detector configuration")
    w = _moment_weights(config_a.apds, config_b.apds, k, l)
    n = samples.n_total
    counts = samples.counts.astype(float)
    mean = float(np.sum(counts * w)) / n
    if n > 1:
        var = float(np.sum(counts * (w - mean) ** 2)) / (n - 1)
    else:
        var = 0.0
    scale = math.exp(k * config_a.nu + l * config_b.nu) if correct_dark else 1.0
    return mean * scale, math.sqrt(var / n) * scale


def _config_to_json(cfg: ClickDetectorConfig) -> dict:
    return {"apds": cfg.apds, "eta": cfg.eta, "nu": cfg.nu, "eps": cfg.eps}


def clicks_to_json(clicks: ClickDistribution) -> dict:
    """Row-major probability array plus the detector configs that produced it."""
    return {
        "probabilities": [list(row) for row in clicks.c],
        "direction": list(clicks.direction.e),
        "config_a": _config_to_json(clicks.config_a),
        "config_b": _config_to_json(clicks.config_b),
    }


def samples_to_json(samples: ClickSampleSet) -> dict:
    return {
        "counts": [[int(v) for v in row] for row in samples.counts],
        "n_total": samples.n_total,
        "seed": samples.seed,
    }
