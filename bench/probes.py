"""Accuracy probe table and run environment, recorded on every run.

Not timed and not a regression metric: it shows how far the numbers can
be trusted at the commit being measured.

* splitter norm defect |sum p - 1| of the Fock state |N/2, N/2> behind a
  balanced splitter at cutoff N, for N in 40 .. 640 (no block is
  clipped, so any defect is rounding in the splitter);
* relative error of mgf against mgf_closed_form at a balanced splitter
  with auto_cutoff, for TMSV xi in {1, 1.5, 2} and coherent alpha in
  {4, 8}, at the norm point (0, 0) and at (t, tau) = (0.1, 0.4).

    python3 bench/probes.py OUT_JSON
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy

from stokespace import (
    CoherentSpec,
    MgfQuery,
    TmsvSpec,
    TwoModeState,
    auto_cutoff,
    beam_splitter,
    direction_to_beamsplitter,
    make_state,
    mgf,
    mgf_closed_form,
)

NORM_DEFECT_N = (40, 80, 160, 320, 640)
MGF_STATES = (("tmsv", 1.0), ("tmsv", 1.5), ("tmsv", 2.0),
              ("coherent", 4.0), ("coherent", 8.0))
MGF_POINTS = ((0.0, 0.0), (0.1, 0.4))


def _num(x: float):
    """JSON has no inf or nan; keep them readable."""
    x = float(x)
    return x if math.isfinite(x) else str(x)


def norm_defect(n: int) -> float:
    amp = np.zeros((n + 1, n + 1), dtype=complex)
    amp[n // 2, n - n // 2] = 1.0
    state = TwoModeState(cutoff=n, components=((1.0, amp),))
    half = math.sqrt(0.5)
    out = beam_splitter(state, half, half)
    return abs(out.trace - 1.0)


def mgf_rel_error(kind: str, param: float) -> tuple[int, float]:
    spec = TmsvSpec(param) if kind == "tmsv" else CoherentSpec(param, 0.0)
    cutoff = auto_cutoff(spec)
    state = make_state(spec, cutoff)
    d = direction_to_beamsplitter((1.0, 0.0, 0.0))
    worst = 0.0
    for t, tau in MGF_POINTS:
        want = mgf_closed_form(spec, d, t, tau)
        got = mgf(state, MgfQuery(d, t, tau))
        worst = max(worst, abs(got - want) / abs(want))
    return cutoff, worst


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def main(argv) -> int:
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        table = {
            "splitter_norm_defect": {str(n): _num(norm_defect(n)) for n in NORM_DEFECT_N},
            "mgf_rel_error": {},
        }
        for kind, param in MGF_STATES:
            cutoff, err = mgf_rel_error(kind, param)
            table["mgf_rel_error"][f"{kind}:{param:g}"] = {
                "cutoff": cutoff, "rel_error": _num(err)}
    Path(argv[0]).write_text(json.dumps({"accuracy": table, "environment": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
