"""Multiplexed click detectors and moment-based access to the generating function.

Each output mode feeds a balanced array of D avalanche photodiodes with
quantum efficiency eta, dark-count parameter nu per diode, and an
attenuation factor eps applied before the split.  Click statistics are
computed exactly from the joint photon-number distribution for any D,
as sums of nonnegative terms only; normalized "silent diode" moments of
the click counts reconstruct the generating function on a lattice of
(t, tau) points inside its existence wedge.
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
)


@dataclass(frozen=True)
class ClickDetectorConfig:
    """One detector arm: D diodes, efficiency eta, dark rate nu, attenuation eps."""

    apds: int = 1
    eta: float = 1.0
    nu: float = 0.0
    eps: float = 1.0

    def __post_init__(self):
        if not (1 <= self.apds < math.inf and int(self.apds) == self.apds):  # NaN fails
            raise ValueError("apds must be a positive integer")
        object.__setattr__(self, "apds", int(self.apds))
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if not 0.0 <= self.nu < math.inf:
            raise ValueError("nu must be finite and >= 0")
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
        if not c.min() >= TOL.click_floor:  # NaN fails too
            raise NumericalError(
                f"click probability {c.min():.3e} below floor {TOL.click_floor:.0e}"
            )
        object.__setattr__(self, "c", c)


def _click_matrix(cfg: ClickDetectorConfig, cutoff: int) -> np.ndarray:
    """Q[i, n]: probability that n photons in one arm give i clicks.

    Dark counts come first: each of the D diodes fires with probability
    1 - exp(-nu), so column n = 0 is their binomial, built diode by diode.
    Then photon by photon: with q = eps eta, a photon lights one of the
    D - i diodes still dark with probability q (D - i) / D; otherwise it
    is lost or lands on a lit diode and the count stays.  Every entry is
    a sum of products of probabilities, so nothing cancels at any D (the
    on-off model of Sperling, Vogel & Agarwal, PRA 85, 023820 (2012)).
    """
    d = cfg.apds
    dark = -math.expm1(-cfg.nu)
    light = cfg.eps * cfg.eta * (d - np.arange(d + 1)) / d
    rows = np.zeros((cutoff + 1, d + 1))  # row n: clicks of n photons
    rows[0, 0] = 1.0
    for _ in range(d):
        rows[0, 1:] = rows[0, 1:] * (1.0 - dark) + rows[0, :-1] * dark
        rows[0, 0] *= 1.0 - dark
    for n in range(cutoff):
        rows[n + 1] = rows[n] * (1.0 - light)
        rows[n + 1, 1:] += rows[n, :-1] * light[:-1]
    return rows.T


def click_distribution(
    source: TwoModeState | JointPhotonDistribution,
    direction: MeasurementDirection,
    config_a: ClickDetectorConfig,
    config_b: ClickDetectorConfig,
) -> ClickDistribution:
    """Exact joint click statistics after the measurement beam splitter.

    source is a TwoModeState, or its JointPhotonDistribution along
    direction.  c = Q_a p Q_b^T with the per-arm click matrices of
    _click_matrix, for any number of diodes.
    """
    dist = _distribution_along(source, direction)
    qa, qb = (_click_matrix(cfg, dist.cutoff) for cfg in (config_a, config_b))
    c = qa @ dist.p @ qb.T
    # every column of Q sums to one, so the clicks keep the trace of p
    total, trace = float(c.sum()), float(dist.p.sum())
    if not abs(total - trace) <= TOL.click_norm:  # NaN fails too
        raise NumericalError(
            f"click probabilities sum to {total:.12f}, expected {trace:.12f}"
        )
    return ClickDistribution(
        c=c, direction=direction, config_a=config_a, config_b=config_b
    )


def _moment_weights(d: int) -> np.ndarray:
    """W[i, k] = C(d - i, k) / C(d, k): the order-k silent-diode weight of i clicks."""
    return np.array(
        [[math.comb(d - i, k) / math.comb(d, k) for k in range(d + 1)]
         for i in range(d + 1)]
    )


def _moment_orders(
    k, l, config_a: ClickDetectorConfig, config_b: ClickDetectorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """k and l as arrays, checked against the diode counts."""
    k, l = np.asarray(k), np.asarray(l)
    if np.any((k < 0) | (k > config_a.apds)):
        raise ValueError("k must lie in 0..D_a")
    if np.any((l < 0) | (l > config_b.apds)):
        raise ValueError("l must lie in 0..D_b")
    return k, l


def _dark_corrected(moments, k, l, cfg_a: ClickDetectorConfig, cfg_b: ClickDetectorConfig):
    """moments * exp(k nu_a + l nu_b); NumericalError where one is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = moments * np.exp(k * cfg_a.nu + l * cfg_b.nu)
    if not np.all(np.isfinite(out)):
        raise NumericalError("a dark-corrected moment is not finite: exp(k nu) overflows")
    return out


def moments_from_clicks(
    clicks: ClickDistribution, k, l
) -> float | np.ndarray:
    """Normalized, dark-corrected silent-diode moment mu_{k,l} of a click
    distribution.

    k and l broadcast; the whole table of moments is W_a^T c W_b, scaled
    by exp(k nu_a + l nu_b).  The result equals the generating function
    at the lattice point given by click_moment_to_mgf_point exactly (up
    to truncation of the underlying state).
    """
    cfg_a, cfg_b = clicks.config_a, clicks.config_b
    k, l = _moment_orders(k, l, cfg_a, cfg_b)
    table = _moment_weights(cfg_a.apds).T @ clicks.c @ _moment_weights(cfg_b.apds)
    return _dark_corrected(table[k, l], k, l, cfg_a, cfg_b)


def click_moment_to_mgf_point(
    k, l, config_a: ClickDetectorConfig, config_b: ClickDetectorConfig
) -> tuple:
    """(t, tau) probed by the dark-corrected moment mu_{k,l}; k and l broadcast.

    The lattice always satisfies |t| <= tau, so every accessible point
    lies inside the existence wedge of the generating function.
    """
    k, l = _moment_orders(k, l, config_a, config_b)
    u = k * config_a.eps * config_a.eta / (2.0 * config_a.apds)
    v = l * config_b.eps * config_b.eta / (2.0 * config_b.apds)
    return v - u, u + v


@dataclass(frozen=True)
class ClickSampleSet:
    """Multinomial click counts from n_total = counts.sum() simulated runs."""

    counts: np.ndarray
    seed: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2:
            raise ValueError("counts must be a 2-d array")
        object.__setattr__(self, "counts", counts)

    @property
    def n_total(self) -> int:
        return int(self.counts.sum())


def sample_clicks(clicks: ClickDistribution, n: int, seed: int) -> ClickSampleSet:
    """Draw n independent runs of the click experiment (counting statistics)."""
    if n < 1:
        raise ValueError("need at least one sample")
    p = np.clip(clicks.c, 0.0, None).ravel()  # rounding dips below 0 get no draws
    if not abs(p.sum() - 1.0) <= TOL.click_norm:  # NaN fails too
        raise ValueError(
            f"click distribution sums to {p.sum():.12f}; "
            "cannot sample an unnormalized distribution"
        )
    p = p / p.sum()
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = rng.multinomial(n, p).reshape(clicks.c.shape)
    return ClickSampleSet(counts=counts, seed=seed)


def estimate_mgf_from_samples(
    samples: ClickSampleSet,
    k,
    l,
    config_a: ClickDetectorConfig,
    config_b: ClickDetectorConfig,
) -> tuple:
    """(estimate, standard error) of the dark-corrected mu_{k,l} from finite
    click counts; k and l broadcast.

    The estimate is the sample mean of the silent-diode weight; the
    error is the sample standard deviation over sqrt(n), both scaled by
    the dark correction.
    """
    if samples.counts.shape != (config_a.apds + 1, config_b.apds + 1):
        raise ValueError("sample shape does not match detector configuration")
    k, l = _moment_orders(k, l, config_a, config_b)
    wa, wb = _moment_weights(config_a.apds), _moment_weights(config_b.apds)
    n = samples.n_total
    counts = samples.counts.astype(float)
    mean = (wa.T @ counts @ wb)[k, l] / n
    if n > 1:
        # the weight of one run factorizes, so its square does too
        square = ((wa**2).T @ counts @ wb**2)[k, l]
        var = np.maximum(square - n * mean**2, 0.0) / (n - 1)
    else:
        var = np.zeros_like(mean)
    return tuple(_dark_corrected(np.array([mean, np.sqrt(var / n)]), k, l,
                                 config_a, config_b))


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
