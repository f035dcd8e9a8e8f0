"""Fixed reference kernel: how fast this machine runs right now.

    python3 bench/speed.py SPAWNED

SPAWNED is the CLOCK_MONOTONIC reading taken by the parent just before
it started this process.  The script imports the program's numeric
stack (numpy, scipy.special), runs one round of a fixed kernel and
prints the seconds since SPAWNED.  run.py starts it on the CPU of the
next pass, before every pass and after the last, and scales pass times
by its median.

On a shared host the speed of the machine drifts by up to ~2x in spells
of minutes, longer than a run.  The drift slows a fresh interpreter
most: start-up, imports and first-touch memory, the very work the
benchmark's fresh-process passes do.  An in-process kernel with warm
memory tracked pass times worse than the passes' own set-up time did,
so the kernel runs in a fresh interpreter too, and starts cold.

The round mixes the kinds of work a pass does: interpreted Python,
numpy calls on small arrays inside a Python loop (the splitter's
per-block columns), BLAS, FFT and streaming over a large array (the
reconstruction grids), and float formatting (the CSV writers).  It is
benchmark code, not program code, so no change to the program moves it.
"""

import time  # first: the imports below are part of what is timed

import sys

import numpy as np
import scipy.special  # noqa: F401  (the rest of the program's numeric stack)


def _python() -> float:
    total = 0
    table = {}
    for i in range(300_000):
        total += (i * i) % 7
        table[i & 255] = total
    return float(total + len(table))


def _small_numpy() -> float:
    acc = 0.0
    p = np.linspace(0.0, 1.0, 24) + 0.5j
    for n in range(1, 3000):
        q = np.convolve(p, p[: 1 + n % 23]) * np.exp(-1e-3 * n)
        acc += float(np.sum(q.real ** 2 + q.imag ** 2))
    return acc


def _dense(rng: np.random.Generator) -> float:
    m = rng.standard_normal((160, 160))
    for _ in range(4):
        m = m @ m
        m /= np.abs(m).max()
    grid = rng.standard_normal((40, 40, 40))
    spec = np.fft.fftn(grid)
    big = rng.standard_normal(1_000_000)
    return float(m[0, 0] + spec.real[1, 2, 3] + np.sum(np.sqrt(np.abs(big))))


def _format(rng: np.random.Generator) -> float:
    rows = rng.standard_normal((3_000, 6))
    text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in rows)
    return float(len(text))


def main(argv) -> int:
    spawned = float(argv[0])
    rng = np.random.default_rng(12345)
    _python()
    _small_numpy()
    _dense(rng)
    _format(rng)
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC) - spawned))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
