"""Reference checks for the artifacts one pass wrote.

Every op is checked against a reference that does not use the code path
the op exercises:

* surface, mgf, hom-scan, tmsv-scan and the nctest determinant and
  minimum eigenvalue: ``mgf_closed_form``;
* clicks: the dark-corrected moment mu_kl, the direct M column and the
  sampled estimate against M at the lattice point (t, tau), with the
  lattice recomputed here;
* reconstruct from a state: L1 distance to the single-point-ensemble
  reconstruction of the same coherent pair;
* reconstruct from an ensemble: mass, pess.csv against pess.bin, a
  direct (non-FFT) inverse sum at sampled grid points and, with an
  oracle, the L1 distance to the Monte Carlo histogram on 8^3 blocks.

Tolerances carry the truncation budget of the op's state and cutoff,
so budgeted truncation passes and a wrong number fails.  For a kernel
with |z_a|, |z_b| <= 1 (every real point inside the wedge |t| <= tau <=
1) the truncated sum differs from the exact one by at most twice the
probability that the total photon number N exceeds the cutoff: blocks
with N <= cutoff are kept whole by the square box and the splitter.

    python3 bench/check.py OPS_JSON PASS_DIR OUT_JSON
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import gammainc

from stokespace.fock import auto_cutoff, direction_to_beamsplitter, spec_from_json
from stokespace.mgf import mgf_closed_form
from stokespace.reconstruct import (
    CoherentEnsemble,
    Grid3,
    dual_grid,
    ensemble_from_json,
    invert_to_pess,
    l1_distance,
    load_pess,
    mgf_imaginary_grid,
)

RTOL = 1e-9              # rounding slack relative to max(1, |reference|)
CLICK_SLACK = 1e-8       # alternating inclusion-exclusion sums, 8 diodes
SAMPLE_SIGMAS = 6.0      # sampled estimate vs reference, in standard errors
STATE_ROUTE_L1 = 5e-3    # state vs single-point ensemble, band-limited
MASS_WINDOW = 0.02       # |mass - 1| of an ensemble reconstruction
ORACLE_BLOCK_L1 = 0.2    # L1 vs MC histogram on 8^3 blocks: window blur and
                         # 1e5 draws give <= 0.07 over 40 seeds
SPOT_RTOL = 1e-8         # direct inverse sum vs FFT, relative to the peak


class CheckFailed(Exception):
    pass


def reference_mgf(spec, e, t, tau) -> complex:
    """Closed-form M(t e; tau); the one reference the MGF checks share."""
    return complex(mgf_closed_form(spec, direction_to_beamsplitter(e), t, tau))


def truncation_budget(spec, cutoff: int) -> float:
    """2 P(N > cutoff) for the exact state (see the module docstring)."""
    kind = spec.kind
    if kind in ("vacuum", "hom_input"):
        return 0.0
    if kind == "coherent":
        return 2.0 * float(gammainc(cutoff + 1, abs(spec.alpha) ** 2 + abs(spec.beta) ** 2))
    if kind == "mixture":
        return 2.0 * sum(
            w * float(gammainc(cutoff + 1, abs(a) ** 2 + abs(b) ** 2))
            for w, a, b in spec.components
        )
    if kind == "tmsv":
        return 2.0 * math.tanh(spec.xi) ** (2 * (cutoff // 2 + 1))
    raise CheckFailed(f"no truncation budget for {kind}")


def _state(op):
    spec, embedded = spec_from_json(op["ref"]["state"])
    argv = op["argv"]
    if "--cutoff" in argv:
        cutoff = int(argv[argv.index("--cutoff") + 1])
    else:
        cutoff = embedded if embedded is not None else auto_cutoff(spec)
    return spec, truncation_budget(spec, cutoff)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class _Worst:
    """Largest error / tolerance ratio seen; > 1 fails the op."""

    def __init__(self):
        self.ratio = 0.0
        self.where = ""

    def add(self, got, want, tol, where):
        ratio = abs(got - want) / tol if tol > 0 else (0.0 if got == want else math.inf)
        if not ratio <= self.ratio:  # also catches nan
            self.ratio, self.where = ratio, f"{where}: got {got!r}, want {want!r}, tol {tol:.3g}"

    def verdict(self) -> dict:
        if not self.ratio <= 1.0:
            raise CheckFailed(self.where)
        return {"max_err_over_tol": self.ratio}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# per-kind checks: each returns a detail dict or raises CheckFailed


def check_surface(op, out: Path) -> dict:
    spec, budget = _state(op)
    ref = op["ref"]
    rows = _rows(out / "surface.csv")
    _expect(len(rows) == ref["rows"], f"{len(rows)} rows, expected {ref['rows']}")
    worst = _Worst()
    for r in rows:
        _expect(_close(float(r["t_re"]), ref["t"]) and float(r["t_im"]) == 0.0
                and _close(float(r["tau"]), ref["tau"]), "t or tau not echoed")
        e = [float(r["e_x"]), float(r["e_y"]), float(r["e_z"])]
        want = reference_mgf(spec, e, ref["t"], ref["tau"])
        got = complex(float(r["M_re"]), float(r["M_im"]))
        worst.add(got, want, budget + RTOL * max(1.0, abs(want)), f"e={e}")
    return worst.verdict()


def check_mgf(op, out: Path) -> dict:
    spec, budget = _state(op)
    ref = op["ref"]
    rows = _rows(out / "mgf.csv")
    want_pts = [(t, tau) for t in ref["ts"] for tau in ref["taus"]]
    _expect(len(rows) == len(want_pts), f"{len(rows)} rows, expected {len(want_pts)}")
    worst = _Worst()
    for r, (t, tau) in zip(rows, want_pts):
        _expect(_close(float(r["t_re"]), t) and _close(float(r["tau"]), tau),
                "t or tau not echoed in order")
        e = [float(r["e_x"]), float(r["e_y"]), float(r["e_z"])]
        _expect(all(_close(a, b) for a, b in zip(e, ref["e"])), "axis not echoed")
        want = reference_mgf(spec, e, t, tau)
        got = complex(float(r["M_re"]), float(r["M_im"]))
        worst.add(got, want, budget + RTOL * max(1.0, abs(want)), f"t={t}, tau={tau}")
    return worst.verdict()


def _second_order(spec, e, t, tau, t2, tau2):
    m11 = reference_mgf(spec, e, 2.0 * t.real, 2.0 * tau).real
    m22 = reference_mgf(spec, e, 2.0 * t2.real, 2.0 * tau2).real
    m12 = reference_mgf(spec, e, t.conjugate() + t2, tau + tau2)
    return m11, m22, m12


def check_hom_scan(op, out: Path) -> dict:
    spec, _ = spec_from_json({"kind": "hom_input"})
    ref = op["ref"]
    rows = _rows(out / "hom_scan.csv")
    _expect(len(rows) == ref["rows"], f"{len(rows)} rows, expected {ref['rows']}")
    _expect(sorted({float(r["t"]) for r in rows}) == sorted(ref["ts"]), "t values")
    worst = _Worst()
    for r in rows:
        ez = 2.0 * float(r["T2"]) - 1.0
        e = [math.sqrt(max(0.0, 1.0 - ez * ez)), 0.0, ez]
        t = complex(float(r["t"]))
        m11, m22, m12 = _second_order(spec, e, t, 0.0, 0j, 0.0)
        want = m11 * m22 - abs(m12) ** 2
        worst.add(float(r["determinant"]), want, RTOL * max(1.0, abs(m11) + abs(m12) ** 2),
                  f"T2={r['T2']}, t={r['t']}")
    return worst.verdict()


def check_tmsv_scan(op, out: Path) -> dict:
    ref = op["ref"]
    rows = _rows(out / "tmsv_scan.csv")
    n = ref["kappa_steps"] * ref["tau_steps"]
    _expect(len(rows) == n, f"{len(rows)} rows, expected {n}")
    kappas = np.linspace(ref["kappa_min"], ref["kappa_max"], ref["kappa_steps"])
    taus = np.linspace(ref["tau_min"], ref["tau_max"], ref["tau_steps"])
    z = [0.0, 0.0, 1.0]
    worst = _Worst()
    for r, (kappa, tau) in zip(rows, [(k, t) for k in kappas for t in taus]):
        _expect(_close(float(r["tanh_xi"]), kappa) and _close(float(r["tau"]), tau),
                "kappa or tau not echoed in order")
        spec, _ = spec_from_json({"kind": "tmsv", "xi": math.atanh(kappa)})
        budget = truncation_budget(spec, auto_cutoff(spec))
        m11, m22, m12 = _second_order(spec, z, complex(-tau), tau, complex(tau), tau)
        want = m11 * m22 - abs(m12) ** 2
        worst.add(float(r["determinant"]), want, 4.0 * budget + RTOL,
                  f"kappa={kappa}, tau={tau}")
    return worst.verdict()


def check_nctest(op, out: Path) -> dict:
    spec, budget = _state(op)
    ref = op["ref"]
    rows = {r["criterion"]: r for r in _rows(out / "nctest.csv")}
    t, t2 = complex(ref["t"]), complex(ref["t2"])
    e = ref["e"]
    m11, m22, m12 = _second_order(spec, e, t, ref["tau"], t2, ref["tau2"])
    matrix = np.array([[m11, m12], [np.conj(m12), m22]])
    tol = 4.0 * budget + RTOL
    worst = _Worst()
    r = rows["second_order_det"]
    _expect(_close(float(r["t_re"]), t.real) and _close(float(r["tau2"]), ref["tau2"]),
            "points not echoed")
    _expect(all(_close(float(r[k]), v) for k, v in zip(("e_x", "e_y", "e_z"), e)),
            "axis not echoed")
    worst.add(float(r["value"]), m11 * m22 - abs(m12) ** 2, tol, "second_order_det")
    worst.add(float(rows["matrix_min_eigenvalue"]["value"]),
              float(np.linalg.eigvalsh(matrix)[0]), tol, "matrix_min_eigenvalue")
    return worst.verdict()


def check_clicks(op, out: Path) -> dict:
    spec, budget = _state(op)
    ref = op["ref"]
    rows = _rows(out / "moments.csv")
    da, db = ref["apds_a"], ref["apds_b"]
    _expect(len(rows) == (da + 1) * (db + 1), f"{len(rows)} moment rows")
    worst = _Worst()
    for r in rows:
        k, l = int(r["k"]), int(r["l"])
        u = k * ref["eta_a"] / (2.0 * da)
        v = l * ref["eta_b"] / (2.0 * db)
        t, tau = v - u, u + v
        _expect(_close(float(r["t"]), t) and _close(float(r["tau"]), tau),
                f"lattice point of ({k}, {l})")
        want = reference_mgf(spec, ref["e"], t, tau).real
        where = f"(k, l)=({k}, {l})"
        worst.add(float(r["mu"]), want, budget + CLICK_SLACK, f"mu {where}")
        worst.add(float(r["mgf"]), want, budget + RTOL * max(1.0, abs(want)), f"M {where}")
        if ref["samples"]:
            worst.add(float(r["estimate"]), want,
                      SAMPLE_SIGMAS * float(r["std_error"]) + budget + CLICK_SLACK,
                      f"estimate {where}")
    return worst.verdict()


def _cube(ref) -> Grid3:
    return Grid3.cube(ref["s_max"], ref["n_points"])


def check_reconstruct_state(op, out: Path) -> dict:
    ref = op["ref"]
    pess = load_pess(out / "pess.bin")
    grid = _cube(ref)
    _expect(pess.grid == grid, "grid not as requested")
    report = json.loads((out / "report.json").read_text())
    tau, window = report["config"]["tau"], report["config"]["window"]
    spec, _ = spec_from_json(ref["state"])
    point = CoherentEnsemble(points=np.array([[spec.alpha, spec.beta]]))
    want = invert_to_pess(mgf_imaginary_grid(point, dual_grid(grid), tau), grid, tau,
                          window=window)
    l1 = l1_distance(pess, want)
    if not l1 <= STATE_ROUTE_L1:
        raise CheckFailed(f"L1 {l1:.3e} to the single-point ensemble > {STATE_ROUTE_L1}")
    return {"l1": l1}


def _direct_inverse(values_k, k_grid: Grid3, s_points, tau, window) -> np.ndarray:
    """P(S) = e^{tau|S|} (2 pi)^-3 dk^3 Re sum_k M(ik) w(k) e^{-ik.S}."""
    kx, ky, kz = k_grid.axes()
    k = np.stack(np.meshgrid(kx, ky, kz, indexing="ij"), axis=-1).reshape(-1, 3)
    m = values_k.reshape(-1)
    if window == "raised-cosine":
        k_cut = min(-lo for lo in k_grid.mins)
        kn = np.linalg.norm(k, axis=1)
        m = m * np.where(kn < k_cut, np.cos(np.pi * kn / (2.0 * k_cut)) ** 2, 0.0)
    dk3 = float(np.prod(k_grid.spacing()))
    sums = np.array([(np.exp(-1j * (k @ s)) @ m).real for s in s_points])
    return np.exp(tau * np.linalg.norm(s_points, axis=1)) * dk3 / (2 * np.pi) ** 3 * sums


def _points_kernel(obj, k_flat, tau) -> np.ndarray:
    pairs = np.array([[complex(a["re"], a["im"]), complex(b["re"], b["im"])]
                      for a, b in obj["points"]])
    s = np.stack([2 * (pairs[:, 0].conj() * pairs[:, 1]).real,
                  2 * (pairs[:, 0].conj() * pairs[:, 1]).imag,
                  abs(pairs[:, 0]) ** 2 - abs(pairs[:, 1]) ** 2], axis=1)
    w = np.exp(-tau * np.linalg.norm(s, axis=1)) / len(pairs)
    return np.exp(1j * (k_flat @ s.T)) @ w


def _blocks(values: np.ndarray, f: int = 8) -> np.ndarray:
    n = [d // f for d in values.shape]
    return values.reshape(n[0], f, n[1], f, n[2], f).sum(axis=(1, 3, 5))


def check_reconstruct_ensemble(op, out: Path) -> dict:
    ref = op["ref"]
    pess = load_pess(out / "pess.bin")
    grid = _cube(ref)
    _expect(pess.grid == grid, "grid not as requested")
    report = json.loads((out / "report.json").read_text())
    tau, window = report["config"]["tau"], report["config"]["window"]
    detail = {"mass": pess.total_mass}
    _expect(abs(pess.total_mass - 1.0) <= MASS_WINDOW, f"mass {pess.total_mass!r}")
    _expect(math.isclose(report["total_mass"], pess.total_mass, rel_tol=1e-12),
            "report.json mass differs from pess.bin")
    table = np.loadtxt(out / "pess.csv", delimiter=",", comments="#", skiprows=1)
    ax, ay, az = grid.axes()
    coords = np.stack(np.meshgrid(ax, ay, az, indexing="ij"), axis=-1).reshape(-1, 3)
    _expect(table.shape == (coords.shape[0], 4), "pess.csv shape")
    _expect(np.array_equal(table[:, 3], pess.values.reshape(-1)), "pess.csv values != pess.bin")
    _expect(np.array_equal(table[:, :3], coords), "pess.csv coordinates")
    # direct inverse sum at sampled grid points, one fixed draw per op
    rng = np.random.default_rng(0)
    pick = rng.choice(coords.shape[0], size=24, replace=False)
    pick[0] = int(np.argmax(np.abs(pess.values)))
    k_grid = dual_grid(grid)
    kx, ky, kz = k_grid.axes()
    k_flat = np.stack(np.meshgrid(kx, ky, kz, indexing="ij"), axis=-1).reshape(-1, 3)
    obj = ref["ensemble"]
    if "points" in obj:
        values_k = _points_kernel(obj, k_flat, tau)
    else:
        values_k = mgf_imaginary_grid(ensemble_from_json(obj), k_grid, tau).reshape(-1)
    direct = _direct_inverse(values_k, k_grid, coords[pick], tau, window)
    spot = float(np.max(np.abs(direct - pess.values.reshape(-1)[pick]))) / pess.peak
    detail["spot_rel"] = spot
    _expect(spot <= SPOT_RTOL, f"direct inverse sum differs by {spot:.3e} of the peak")
    if ref["oracle"]:
        oracle = load_pess(out / "oracle.bin")
        l1 = l1_distance(pess, oracle)
        _expect(math.isclose(report["l1_vs_oracle"], l1, rel_tol=1e-9),
                "report.json l1_vs_oracle differs from the binaries")
        block = float(np.abs(_blocks(pess.values) - _blocks(oracle.values)).sum()) * grid.cell_volume
        detail["oracle_block_l1"] = block
        _expect(block <= ORACLE_BLOCK_L1, f"oracle L1 on 8^3 blocks {block:.3e}")
    return detail


CHECKS = {
    "surface": check_surface,
    "mgf": check_mgf,
    "hom-scan": check_hom_scan,
    "tmsv-scan": check_tmsv_scan,
    "nctest": check_nctest,
    "clicks": check_clicks,
    "reconstruct-state": check_reconstruct_state,
    "reconstruct-ensemble": check_reconstruct_ensemble,
}


def check_op(op, out: Path) -> dict:
    """{"ok": bool, "detail": ...}; a missing or malformed artifact fails."""
    try:
        return {"ok": True, "detail": CHECKS[op["kind"]](op, out)}
    except (CheckFailed, OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        return {"ok": False, "detail": f"{type(exc).__name__}: {exc}"}


def main(argv) -> int:
    ops_path, pass_dir, out_path = argv[:3]
    ops = json.loads(Path(ops_path).read_text())
    results = {op["id"]: check_op(op, Path(pass_dir) / op["id"]) for op in ops}
    Path(out_path).write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
