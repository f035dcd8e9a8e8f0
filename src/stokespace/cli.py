"""Command-line front end emitting CSV/JSON data grids.

Subcommands: mgf, surface, hom-scan, tmsv-scan, nctest, clicks,
reconstruct.  Exit codes: 0 success, 2 validation error, 3 numeric
failure.  Output is deterministic for a fixed configuration and seed;
the timestamp comment line can be suppressed for byte-identical reruns.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import NumericalError
from .fock import (
    HomInputSpec,
    JointPhotonDistribution,
    TmsvSpec,
    VacuumSpec,
    _warn_divergent,
    auto_cutoff,
    direction_to_beamsplitter,
    joint_photon_distribution,
    make_state,
    rotate_many,
    spec_from_json,
    spec_to_json,
)
from .mgf import mgf_from_distribution, sphere_grid, surface_map
from .nonclassicality import (
    MgfMatrixSpec,
    _verdict,
    cross_correlation_det,
    matrix_verdict,
    mgf_matrix,
    second_order_det,
    variance_criteria,
)
from .detector import (
    ClickDetectorConfig,
    click_distribution,
    click_moment_to_mgf_point,
    clicks_to_json,
    estimate_mgf_from_samples,
    moments_from_clicks,
    sample_clicks,
    samples_to_json,
)
from .reconstruct import (
    Grid3,
    classicality_check,
    default_tau,
    dual_grid,
    ensemble_from_json,
    invert_to_pess,
    l1_distance,
    mgf_imaginary_grid,
    pess_mc_oracle,
    save_pess,
)


@dataclass
class RunConfig:
    """Resolved global options, echoed into every JSON artifact."""

    state_json: dict | None
    out: Path
    seed: int
    cutoff: int | None
    timestamp: bool

    def echo(self) -> dict:
        return {
            "state": self.state_json,
            "seed": self.seed,
            "cutoff": self.cutoff,
            "timestamp": self.timestamp,
        }


def _parse_direction(text: str) -> np.ndarray:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"direction needs three components, got {text!r}")
    return np.array(parts)


# rows formatted, joined and written at once by _write_csv
_CSV_CHUNK_ROWS = 1 << 15


def _column_text(col) -> np.ndarray:
    """Fixed-width byte cells of a column chunk, every number as .17g text.
    A float array is formatted once per distinct bit pattern (so -0.0, 0.0
    and every NaN keep their own text), any other column cell by cell."""
    if isinstance(col, np.ndarray):
        bits = col.astype(float).view(np.uint64)
        bits, inverse = np.unique(bits, return_inverse=True)
        values = bits.view(np.float64).tolist()
        text = ("%.17g\n" * len(values) % tuple(values)).encode().split(b"\n")
        return np.array(text[:-1], dtype=bytes)[inverse]
    return np.array(
        [(v if isinstance(v, str) else format(float(v), ".17g")).encode() for v in col],
        dtype=bytes,
    )


def _write_csv(path: Path, columns, rows, timestamp: bool) -> None:
    """Write a table given as an (n, len(columns)) float array or as row
    tuples of numbers and strings; see the CSV contract in the README."""
    if isinstance(rows, np.ndarray):
        cells = rows.reshape(len(rows), len(columns)).T
    else:
        cells = list(zip(*rows))
    with open(path, "wb") as fh:
        if timestamp:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n".encode())
        fh.write((",".join(columns) + "\n").encode())
        for lo in range(0, len(rows), _CSV_CHUNK_ROWS):
            # one byte row per table row: each cell NUL-padded to its
            # column width, then a separator; dropping the NULs joins the row
            n = min(_CSV_CHUNK_ROWS, len(rows) - lo)
            block = [
                _column_text(col[lo:lo + n]).view(np.uint8).reshape(n, -1)
                for col in cells
            ]
            sep = np.full((n, 1), ord(","), dtype=np.uint8)
            buf = np.hstack([a for c in block for a in (c, sep)])
            buf[:, -1] = ord("\n")
            fh.write(buf[buf != 0].tobytes())


def _write_json(path: Path, payload: dict, timestamp: bool) -> None:
    if timestamp:
        payload = {"generated": datetime.now(timezone.utc).isoformat(), **payload}
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _resolve_config(args) -> RunConfig:
    state_json = None
    if args.state is not None:
        text = args.state.strip()
        if text.startswith("{"):
            state_json = json.loads(text)
        else:
            state_json = json.loads(Path(text).read_text())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return RunConfig(
        state_json=state_json,
        out=out,
        seed=args.seed,
        cutoff=args.cutoff,
        timestamp=not args.no_timestamp,
    )


def _build_state(cfg: RunConfig, default_spec=None):
    if cfg.state_json is not None:
        spec, embedded = spec_from_json(cfg.state_json)
    else:
        spec, embedded = default_spec or VacuumSpec(), None
    cutoff = cfg.cutoff if cfg.cutoff is not None else embedded
    if cutoff is None:
        cutoff = auto_cutoff(spec)
    return make_state(spec, cutoff), spec, cutoff


def cmd_mgf(args) -> int:
    cfg = _resolve_config(args)
    state, _, _ = _build_state(cfg)
    directions = args.direction or [np.array([0.0, 0.0, 1.0])]
    t, tau = (
        g.ravel()
        for g in np.meshgrid(args.t or [1.0], args.tau or [0.0], indexing="ij")
    )
    t = t.astype(complex)
    _warn_divergent(state.leakage, 1.0 + t - tau, 1.0 - t - tau)
    blocks = []
    for e in directions:
        d = direction_to_beamsplitter(e)
        v = mgf_from_distribution(joint_photon_distribution(state, d), t, tau)
        blocks.append(np.column_stack(
            [np.tile(d.e, (t.size, 1)), t.real, t.imag, tau, v.real, v.imag]
        ))
    path = cfg.out / "mgf.csv"
    _write_csv(
        path,
        ["e_x", "e_y", "e_z", "t_re", "t_im", "tau", "M_re", "M_im"],
        np.vstack(blocks),
        cfg.timestamp,
    )
    print(path)
    return 0


def cmd_surface(args) -> int:
    cfg = _resolve_config(args)
    state, _, _ = _build_state(cfg)
    axes = sphere_grid(args.n_theta, args.n_phi)
    samples = surface_map(state, args.t, args.tau, axes)
    e = np.array([s.e for s in samples]).reshape(-1, 3)
    value = np.array([complex(s.value) for s in samples])
    query = np.broadcast_to((args.t.real, args.t.imag, args.tau), (len(samples), 3))
    path = cfg.out / "surface.csv"
    _write_csv(
        path,
        ["e_x", "e_y", "e_z", "t_re", "t_im", "tau", "M_re", "M_im"],
        np.column_stack([e, query, value.real, value.imag]),
        cfg.timestamp,
    )
    print(path)
    return 0


def cmd_hom_scan(args) -> int:
    # the scan is defined for the two-single-photon input; --state is ignored
    cfg = _resolve_config(args)
    cutoff = cfg.cutoff if cfg.cutoff is not None else 4
    state = make_state(HomInputSpec(), cutoff)
    ts = args.t or [math.sqrt(2.0), math.sqrt(3.0), 2.0]
    t2_grid = np.linspace(args.t2_min, args.t2_max, args.t2_steps)
    e_z = 2.0 * t2_grid - 1.0
    axes = np.column_stack(
        [np.sqrt(np.maximum(0.0, 1.0 - e_z**2)), np.zeros_like(e_z), e_z]
    )
    directions = [direction_to_beamsplitter(e) for e in axes]
    p, clipped = rotate_many(state, directions)
    dets = []
    for d, p_d, c_d in zip(directions, p, clipped):
        dist = JointPhotonDistribution(p_d, d, min(1.0, state.leakage + c_d))
        dets.extend(second_order_det(dist, d, t, 0.0, 0.0, 0.0) for t in ts)
    table = np.column_stack(
        [np.repeat(t2_grid, len(ts)), np.tile(ts, len(t2_grid)), dets]
    )
    path = cfg.out / "hom_scan.csv"
    _write_csv(path, ["T2", "t", "determinant"], table, cfg.timestamp)
    print(path)
    return 0


def cmd_tmsv_scan(args) -> int:
    cfg = _resolve_config(args)
    kappas = np.linspace(args.kappa_min, args.kappa_max, args.kappa_steps)
    taus = np.linspace(args.tau_min, args.tau_max, args.tau_steps)
    if not np.all((kappas >= 0.0) & (kappas < 1.0)):
        raise ValueError("tanh xi must lie in [0, 1)")
    if np.any(taus < 0.0):
        raise ValueError("tau must be >= 0")
    d = direction_to_beamsplitter(np.array([0.0, 0.0, 1.0]))
    dets = []
    for kappa in kappas:
        spec = TmsvSpec(xi=math.atanh(kappa))
        cutoff = cfg.cutoff if cfg.cutoff is not None else auto_cutoff(spec)
        dist = joint_photon_distribution(make_state(spec, cutoff), d)
        dets.extend(second_order_det(dist, d, -tau, tau, tau, tau) for tau in taus)
    table = np.column_stack(
        [np.repeat(kappas, len(taus)), np.tile(taus, len(kappas)), dets]
    )
    path = cfg.out / "tmsv_scan.csv"
    _write_csv(path, ["tanh_xi", "tau", "determinant"], table, cfg.timestamp)
    print(path)
    return 0


def cmd_nctest(args) -> int:
    cfg = _resolve_config(args)
    state, _, _ = _build_state(cfg)
    e = args.direction if args.direction is not None else np.array([0.0, 0.0, 1.0])
    d = direction_to_beamsplitter(e)
    t, tau = args.t, args.tau
    t2, tau2 = args.t2, args.tau2
    tol = args.tolerance
    spec = MgfMatrixSpec(d, ((t, tau), (t2, tau2)))
    # every criterion reads the one distribution along d; the
    # characteristic function Phi(k e) = M(i k e; 0) is one of its sums
    dist = joint_photon_distribution(state, d)
    pair = (t.real, t.imag, tau, t2.real, t2.imag, tau2)
    blank = ("",) * 6
    rows = []

    det = second_order_det(dist, d, t, tau, t2, tau2)
    rows.append(("second_order_det", *d.e, *pair, det, _verdict(det, tol)))
    report = matrix_verdict(mgf_matrix(dist, spec), tolerance=tol)
    rows.append(("matrix_min_eigenvalue", *d.e, *pair, report.value, report.verdict))
    phi = 1.0
    if args.k_norm != 0.0:
        z = 1j * args.k_norm * float(np.linalg.norm(e))
        _warn_divergent(state.leakage, 1.0 + z, 1.0 - z)
        phi = mgf_from_distribution(dist, z, 0.0)
    cf = 1.0 - abs(phi)
    rows.append(("char_fn", *d.e, *blank, cf, _verdict(cf, tol)))
    var_s, var_n = variance_criteria(dist, d)
    rows.append(("variance_stokes", *d.e, *blank, var_s, _verdict(var_s, tol)))
    rows.append(("variance_number", *d.e, *blank, var_n, _verdict(var_n, tol)))
    cross = cross_correlation_det(dist, d)
    rows.append(("cross_number_stokes", *d.e, *blank, cross.number_stokes,
                 _verdict(cross.number_stokes, tol)))
    rows.append(("cross_photon_photon", *d.e, *blank, cross.photon_photon,
                 _verdict(cross.photon_photon, tol)))
    path = cfg.out / "nctest.csv"
    _write_csv(
        path,
        ["criterion", "e_x", "e_y", "e_z", "t_re", "t_im", "tau",
         "t2_re", "t2_im", "tau2", "value", "verdict"],
        rows,
        cfg.timestamp,
    )
    print(path)
    return 0


def cmd_clicks(args) -> int:
    if args.samples < 0:
        raise ValueError("--samples must be >= 0")
    cfg = _resolve_config(args)
    state, spec, cutoff = _build_state(cfg)
    e = args.direction if args.direction is not None else np.array([0.0, 0.0, 1.0])
    d = direction_to_beamsplitter(e)
    cfg_a = ClickDetectorConfig(
        apds=args.apds_a, eta=args.eta_a, nu=args.nu_a, eps=args.eps_a
    )
    cfg_b = ClickDetectorConfig(
        apds=args.apds_b, eta=args.eta_b, nu=args.nu_b, eps=args.eps_b
    )
    # the click table and the direct M column share one distribution
    dist = joint_photon_distribution(state, d)
    clicks = click_distribution(dist, d, cfg_a, cfg_b)

    i, j = np.indices(clicks.c.shape)
    _write_csv(
        cfg.out / "clicks.csv",
        ["i", "j", "probability"],
        np.column_stack([i.ravel(), j.ravel(), clicks.c.ravel()]),
        cfg.timestamp,
    )

    samples = None
    if args.samples:
        samples = sample_clicks(clicks, args.samples, cfg.seed)

    k, l = i.ravel(), j.ravel()
    t, tau = click_moment_to_mgf_point(k, l, cfg_a, cfg_b)
    mu = moments_from_clicks(clicks, k, l)
    direct = mgf_from_distribution(dist, t, tau).real
    if samples is not None:
        est, err = estimate_mgf_from_samples(samples, k, l, cfg_a, cfg_b)
    else:
        est = err = ("",) * k.size
    _write_csv(
        cfg.out / "moments.csv",
        ["k", "l", "t", "tau", "mu", "mgf", "estimate", "std_error"],
        list(zip(k, l, t, tau, mu, direct, est, err)),
        cfg.timestamp,
    )

    payload = {
        "config": {
            **cfg.echo(),
            "state": spec_to_json(spec, cutoff),
            "direction": list(d.e),
            "samples": args.samples,
        },
        "clicks": clicks_to_json(clicks),
    }
    if samples is not None:
        payload["sampled"] = samples_to_json(samples)
    _write_json(cfg.out / "clicks.json", payload, cfg.timestamp)
    print(cfg.out / "clicks.json")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = _resolve_config(args)
    mins = _parse_direction(args.s_min)
    maxs = _parse_direction(args.s_max)
    grid = Grid3(tuple(mins), tuple(maxs), (args.n_points,) * 3)
    tau = args.tau if args.tau is not None else default_tau(grid)
    if args.mc_oracle and args.ensemble is None:
        raise ValueError("the MC oracle requires an --ensemble source")

    ensemble = None
    if args.ensemble is not None:
        text = args.ensemble.strip()
        obj = json.loads(text if text.startswith("{") else Path(text).read_text())
        ensemble = ensemble_from_json(obj)
        source = ensemble
        source_json = obj
    else:
        state, spec, cutoff = _build_state(cfg)
        source = state
        source_json = spec_to_json(spec, cutoff)

    values = mgf_imaginary_grid(
        source, dual_grid(grid), tau, n_samples=args.n_samples, seed=cfg.seed
    )
    pess = invert_to_pess(values, grid, tau, window=args.window)
    save_pess(pess, cfg.out / "pess.bin")

    coords = [c.reshape(-1) for c in np.meshgrid(*grid.axes(), indexing="ij")]
    _write_csv(
        cfg.out / "pess.csv",
        ["S_x", "S_y", "S_z", "value"],
        np.column_stack([*coords, pess.values.reshape(-1)]),
        cfg.timestamp,
    )

    report = classicality_check(pess)
    payload = {
        "config": {
            **cfg.echo(),
            "source": source_json,
            "tau": tau,
            "window": args.window,
            "grid": {"mins": list(grid.mins), "maxs": list(grid.maxs),
                     "ns": list(grid.ns)},
            "mc_oracle": args.mc_oracle,
        },
        "total_mass": pess.total_mass,
        "min_value": report.min_value,
        "peak": pess.peak,
        "essentially_classical": report.essentially_classical,
        "label": pess.label,
    }
    if args.mc_oracle:
        oracle = pess_mc_oracle(ensemble, grid, args.mc_oracle, cfg.seed)
        save_pess(oracle, cfg.out / "oracle.bin")
        payload["l1_vs_oracle"] = l1_distance(pess, oracle)
    _write_json(cfg.out / "report.json", payload, cfg.timestamp)
    print(cfg.out / "report.json")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--state", help="state spec: JSON file path or inline JSON object"
    )
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument("--cutoff", type=int, help="Fock cutoff override")
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp comment for byte-identical reruns",
    )

    parser = argparse.ArgumentParser(
        prog="stokespace",
        description="Stokes-space generating functions, nonclassicality "
        "criteria, click statistics, and phase-space reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mgf", parents=[common], help="MGF over an (e, t, tau) grid")
    p.add_argument("--direction", type=_parse_direction, action="append",
                   help="axis x,y,z (repeatable)")
    p.add_argument("--t", type=complex, action="append",
                   help="argument t (repeatable, complex literal)")
    p.add_argument("--tau", type=float, action="append",
                   help="damping tau (repeatable)")
    p.set_defaults(func=cmd_mgf)

    p = sub.add_parser("surface", parents=[common],
                       help="unit-sphere map e -> M(t e; tau)")
    p.add_argument("--t", type=complex, default=complex(1.0))
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--n-theta", type=int, default=32)
    p.add_argument("--n-phi", type=int, default=64)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser(
        "hom-scan", parents=[common],
        help="second-order determinant of the two-photon input vs splitter "
        "transmittance (--state is ignored)")
    p.add_argument("--t", type=float, action="append",
                   help="t value (repeatable; default sqrt2, sqrt3, 2)")
    p.add_argument("--t2-min", type=float, default=0.0, help="|T|^2 start")
    p.add_argument("--t2-max", type=float, default=1.0, help="|T|^2 end")
    p.add_argument("--t2-steps", type=int, default=101)
    p.set_defaults(func=cmd_hom_scan)

    p = sub.add_parser(
        "tmsv-scan", parents=[common],
        help="determinant scan of two-mode squeezed vacuum on the z axis "
        "with t = -tau, t' = tau' = tau")
    p.add_argument("--kappa-min", type=float, default=0.05, help="tanh xi start")
    p.add_argument("--kappa-max", type=float, default=0.95, help="tanh xi end")
    p.add_argument("--kappa-steps", type=int, default=19)
    p.add_argument("--tau-min", type=float, default=0.05)
    p.add_argument("--tau-max", type=float, default=0.5)
    p.add_argument("--tau-steps", type=int, default=10)
    p.set_defaults(func=cmd_tmsv_scan)

    p = sub.add_parser("nctest", parents=[common],
                       help="criteria battery at one axis and point pair")
    p.add_argument("--direction", type=_parse_direction)
    p.add_argument("--t", type=complex, default=complex(math.sqrt(3.0)))
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--t2", type=complex, default=complex(0.0))
    p.add_argument("--tau2", type=float, default=0.0)
    p.add_argument("--k-norm", type=float, default=1.0,
                   help="length of the characteristic-function argument")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_nctest)

    p = sub.add_parser("clicks", parents=[common],
                       help="exact click statistics and moment sampling")
    p.add_argument("--direction", type=_parse_direction)
    p.add_argument("--apds-a", type=int, default=4)
    p.add_argument("--apds-b", type=int, default=4)
    p.add_argument("--eta-a", type=float, default=1.0)
    p.add_argument("--eta-b", type=float, default=1.0)
    p.add_argument("--nu-a", type=float, default=0.0)
    p.add_argument("--nu-b", type=float, default=0.0)
    p.add_argument("--eps-a", type=float, default=1.0)
    p.add_argument("--eps-b", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=0,
                   help="multinomial sample count (0 = exact only)")
    p.set_defaults(func=cmd_clicks)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="invert MGF data to the phase-space density")
    p.add_argument("--ensemble",
                   help="classical ensemble: JSON file path or inline JSON")
    p.add_argument("--s-min", default="-8,-8,-8", help="grid minima x,y,z")
    p.add_argument("--s-max", default="8,8,8", help="grid maxima x,y,z")
    p.add_argument("--n-points", type=int, default=32, help="points per axis")
    p.add_argument("--tau", type=float, help="damping (default 1/(2 r_grid))")
    p.add_argument("--window", default="raised-cosine",
                   choices=["raised-cosine", "none"])
    p.add_argument("--n-samples", type=int, default=100000,
                   help="draws when the ensemble only has a sampler")
    p.add_argument("--mc-oracle", type=int, default=0,
                   help="compare against a histogram of this many draws")
    p.set_defaults(func=cmd_reconstruct)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (NumericalError,) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
