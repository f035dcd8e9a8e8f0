"""Command-line front end emitting CSV/JSON data grids.

Subcommands: mgf, surface, hom-scan, tmsv-scan, nctest, clicks,
reconstruct.  Each takes --out, --cutoff and --no-timestamp; --state
only where a state is read (all but the two scans) and --seed only where
draws are made (clicks, reconstruct).  Exit codes: 0 success, 2
validation error, 3 numeric failure.  Output is deterministic for a
fixed configuration and seed; the timestamp comment line can be
suppressed for byte-identical reruns.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import NumericalError
from .fock import (
    HomInputSpec,
    TmsvSpec,
    VacuumSpec,
    _distributions,
    auto_cutoff,
    direction_to_beamsplitter,
    joint_photon_distribution,
    make_state,
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
    ORACLE_MIN_SAMPLES,
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


def _three_vector(text: str) -> np.ndarray:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"need three components x,y,z, got {text!r}")
    return np.array(parts)


def _json_object(text: str):
    """An inline JSON object, or the path of a file holding one."""
    text = text.strip()
    try:
        return json.loads(text if text.startswith("{") else Path(text).read_text())
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


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


def _build_state(args):
    if args.state is not None:
        spec, embedded = spec_from_json(args.state)
    else:
        spec, embedded = VacuumSpec(), None
    cutoff = args.cutoff if args.cutoff is not None else embedded
    if cutoff is None:
        cutoff = auto_cutoff(spec)
    return make_state(spec, cutoff), spec, cutoff


def _echo(args) -> dict:
    """The run settings every JSON artifact records under "config"."""
    return {"state": args.state, "seed": args.seed, "cutoff": args.cutoff,
            "timestamp": args.timestamp}


def _table(args, name: str, columns, rows) -> Path:
    path = args.out / name
    _write_csv(path, columns, rows, args.timestamp)
    return path


_M_COLUMNS = ["e_x", "e_y", "e_z", "t_re", "t_im", "tau", "M_re", "M_im"]


def cmd_mgf(args) -> int:
    state, _, _ = _build_state(args)
    t, tau = (
        g.ravel()
        for g in np.meshgrid(args.t or [1.0], args.tau or [0.0], indexing="ij")
    )
    t = t.astype(complex)
    blocks = []
    for e in args.direction or [np.array([0.0, 0.0, 1.0])]:
        d = direction_to_beamsplitter(e)
        v = mgf_from_distribution(joint_photon_distribution(state, d), t, tau)
        blocks.append(np.column_stack(
            [np.tile(d.e, (t.size, 1)), t.real, t.imag, tau, v.real, v.imag]
        ))
    print(_table(args, "mgf.csv", _M_COLUMNS, np.vstack(blocks)))
    return 0


def cmd_surface(args) -> int:
    state, _, _ = _build_state(args)
    axes = sphere_grid(args.n_theta, args.n_phi)
    samples = surface_map(state, args.t, args.tau, axes)
    e = np.array([s.e for s in samples]).reshape(-1, 3)
    value = np.array([complex(s.value) for s in samples])
    query = np.broadcast_to((args.t.real, args.t.imag, args.tau), (len(samples), 3))
    table = np.column_stack([e, query, value.real, value.imag])
    print(_table(args, "surface.csv", _M_COLUMNS, table))
    return 0


def cmd_hom_scan(args) -> int:
    state = make_state(HomInputSpec(), args.cutoff if args.cutoff is not None else 4)
    ts = args.t or [math.sqrt(2.0), math.sqrt(3.0), 2.0]
    t2_grid = np.linspace(args.t2_min, args.t2_max, args.t2_steps)
    e_z = 2.0 * t2_grid - 1.0
    axes = np.column_stack(
        [np.sqrt(np.maximum(0.0, 1.0 - e_z**2)), np.zeros_like(e_z), e_z]
    )
    dists = _distributions(state, [direction_to_beamsplitter(e) for e in axes])
    dets = [second_order_det(dist, dist.direction, ts, 0.0, 0.0, 0.0) for dist in dists]
    table = np.column_stack(
        [np.repeat(t2_grid, len(ts)), np.tile(ts, len(t2_grid)), np.ravel(dets)]
    )
    print(_table(args, "hom_scan.csv", ["T2", "t", "determinant"], table))
    return 0


def cmd_tmsv_scan(args) -> int:
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
        cutoff = args.cutoff if args.cutoff is not None else auto_cutoff(spec)
        dist = joint_photon_distribution(make_state(spec, cutoff), d)
        dets.append(second_order_det(dist, d, -taus, taus, taus, taus))
    table = np.column_stack(
        [np.repeat(kappas, len(taus)), np.tile(taus, len(kappas)), np.ravel(dets)]
    )
    print(_table(args, "tmsv_scan.csv", ["tanh_xi", "tau", "determinant"], table))
    return 0


def cmd_nctest(args) -> int:
    state, _, _ = _build_state(args)
    d = direction_to_beamsplitter(args.direction)
    t, tau, t2, tau2 = args.t, args.tau, args.t2, args.tau2
    # every criterion reads the one distribution along d; the
    # characteristic function Phi(k e) = M(i k e; 0) is one of its sums
    dist = joint_photon_distribution(state, d)
    phi = 1.0
    if args.k_norm != 0.0:
        t_phi = 1j * args.k_norm * float(np.linalg.norm(args.direction))
        phi = mgf_from_distribution(dist, t_phi, 0.0)
    var_s, var_n = variance_criteria(dist, d)
    cross = cross_correlation_det(dist, d)
    matrix = mgf_matrix(dist, MgfMatrixSpec(d, ((t, tau), (t2, tau2))))
    # the first two criteria read M at the point pair; the rest read none
    criteria = [
        ("second_order_det", second_order_det(dist, d, t, tau, t2, tau2)),
        ("matrix_min_eigenvalue", matrix_verdict(matrix).value),
        ("char_fn", 1.0 - abs(phi)),
        ("variance_stokes", var_s),
        ("variance_number", var_n),
        ("cross_number_stokes", cross.number_stokes),
        ("cross_photon_photon", cross.photon_photon),
    ]
    pair = (t.real, t.imag, tau, t2.real, t2.imag, tau2)
    rows = [
        (name, *d.e, *(pair if i < 2 else ("",) * 6), value,
         _verdict(value, args.tolerance))
        for i, (name, value) in enumerate(criteria)
    ]
    columns = ["criterion", "e_x", "e_y", "e_z", "t_re", "t_im", "tau",
               "t2_re", "t2_im", "tau2", "value", "verdict"]
    print(_table(args, "nctest.csv", columns, rows))
    return 0


def cmd_clicks(args) -> int:
    if args.samples < 0:
        raise ValueError("--samples must be >= 0")
    state, spec, cutoff = _build_state(args)
    d = direction_to_beamsplitter(args.direction)
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
    _table(args, "clicks.csv", ["i", "j", "probability"],
           np.column_stack([i.ravel(), j.ravel(), clicks.c.ravel()]))

    samples = sample_clicks(clicks, args.samples, args.seed) if args.samples else None
    k, l = i.ravel(), j.ravel()
    t, tau = click_moment_to_mgf_point(k, l, cfg_a, cfg_b)
    mu = moments_from_clicks(clicks, k, l)
    direct = mgf_from_distribution(dist, t, tau).real
    if samples is not None:
        est, err = estimate_mgf_from_samples(samples, k, l, cfg_a, cfg_b)
    else:
        est = err = ("",) * k.size
    _table(args, "moments.csv",
           ["k", "l", "t", "tau", "mu", "mgf", "estimate", "std_error"],
           list(zip(k, l, t, tau, mu, direct, est, err)))

    payload = {
        "config": {
            **_echo(args),
            "state": spec_to_json(spec, cutoff),
            "direction": list(d.e),
            "samples": args.samples,
        },
        "clicks": clicks_to_json(clicks),
    }
    if samples is not None:
        payload["sampled"] = samples_to_json(samples)
    _write_json(args.out / "clicks.json", payload, args.timestamp)
    print(args.out / "clicks.json")
    return 0


def cmd_reconstruct(args) -> int:
    if args.state is not None and args.ensemble is not None:
        raise ValueError("give --state or --ensemble, not both")
    if args.mc_oracle and args.ensemble is None:
        raise ValueError("the MC oracle requires an --ensemble source")
    if args.mc_oracle and args.mc_oracle < ORACLE_MIN_SAMPLES:
        raise ValueError(f"--mc-oracle needs at least {ORACLE_MIN_SAMPLES} samples")
    grid = Grid3(tuple(args.s_min), tuple(args.s_max), (args.n_points,) * 3)
    tau = args.tau if args.tau is not None else default_tau(grid)

    if args.ensemble is not None:
        source = ensemble_from_json(args.ensemble)
        source_json = args.ensemble
    else:
        source, spec, cutoff = _build_state(args)
        source_json = spec_to_json(spec, cutoff)

    values = mgf_imaginary_grid(source, dual_grid(grid), tau)
    pess = invert_to_pess(values, grid, tau, window=args.window)
    save_pess(pess, args.out / "pess.bin")
    coords = [c.reshape(-1) for c in np.meshgrid(*grid.axes(), indexing="ij")]
    _table(args, "pess.csv", ["S_x", "S_y", "S_z", "value"],
           np.column_stack([*coords, pess.values.reshape(-1)]))

    report = classicality_check(pess)
    payload = {
        "config": {
            **_echo(args),
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
        oracle = pess_mc_oracle(source, grid, args.mc_oracle, args.seed)
        save_pess(oracle, args.out / "oracle.bin")
        payload["l1_vs_oracle"] = l1_distance(pess, oracle)
    _write_json(args.out / "report.json", payload, args.timestamp)
    print(args.out / "report.json")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built at the first main call; parsing never changes it,
    and main looks up each command's cmd_ function by name at every call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, default=".", help="output directory")
    common.add_argument("--cutoff", type=int, help="Fock cutoff override")
    common.add_argument(
        "--no-timestamp", dest="timestamp", action="store_false",
        help="omit the timestamp comment for byte-identical reruns",
    )
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--state", type=_json_object,
                       help="state spec: JSON file path or inline JSON object")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="RNG seed")

    parser = argparse.ArgumentParser(
        prog="stokespace",
        description="Stokes-space generating functions, nonclassicality "
        "criteria, click statistics, and phase-space reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mgf", parents=[common, state],
                       help="MGF over an (e, t, tau) grid")
    p.add_argument("--direction", type=_three_vector, action="append",
                   help="axis x,y,z (repeatable; default 0,0,1)")
    p.add_argument("--t", type=complex, action="append",
                   help="argument t (repeatable, complex literal)")
    p.add_argument("--tau", type=float, action="append",
                   help="damping tau (repeatable)")

    p = sub.add_parser("surface", parents=[common, state],
                       help="unit-sphere map e -> M(t e; tau)")
    p.add_argument("--t", type=complex, default=complex(1.0))
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--n-theta", type=int, default=32)
    p.add_argument("--n-phi", type=int, default=64)

    p = sub.add_parser(
        "hom-scan", parents=[common],
        help="second-order determinant of the two-photon input vs splitter "
        "transmittance")
    p.add_argument("--t", type=float, action="append",
                   help="t value (repeatable; default sqrt2, sqrt3, 2)")
    p.add_argument("--t2-min", type=float, default=0.0, help="|T|^2 start")
    p.add_argument("--t2-max", type=float, default=1.0, help="|T|^2 end")
    p.add_argument("--t2-steps", type=int, default=101)

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

    p = sub.add_parser("nctest", parents=[common, state],
                       help="criteria battery at one axis and point pair")
    p.add_argument("--direction", type=_three_vector, default="0,0,1")
    p.add_argument("--t", type=complex, default=complex(math.sqrt(3.0)))
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--t2", type=complex, default=complex(0.0))
    p.add_argument("--tau2", type=float, default=0.0)
    p.add_argument("--k-norm", type=float, default=1.0,
                   help="length of the characteristic-function argument")
    p.add_argument("--tolerance", type=float, default=1e-9)

    p = sub.add_parser("clicks", parents=[common, state, seed],
                       help="exact click statistics and moment sampling")
    p.add_argument("--direction", type=_three_vector, default="0,0,1")
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

    p = sub.add_parser("reconstruct", parents=[common, state, seed],
                       help="invert MGF data to the phase-space density")
    p.add_argument("--ensemble", type=_json_object,
                   help="classical ensemble: JSON file path or inline JSON "
                   "(instead of --state)")
    p.add_argument("--s-min", type=_three_vector, default="-8,-8,-8",
                   help="grid minima x,y,z")
    p.add_argument("--s-max", type=_three_vector, default="8,8,8",
                   help="grid maxima x,y,z")
    p.add_argument("--n-points", type=int, default=32, help="points per axis")
    p.add_argument("--tau", type=float, help="damping (default 1/(2 r_grid))")
    p.add_argument("--window", default="raised-cosine",
                   choices=["raised-cosine", "none"])
    p.add_argument("--mc-oracle", type=int, default=0,
                   help="compare against a histogram of this many draws (>= 10^4)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except NumericalError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
