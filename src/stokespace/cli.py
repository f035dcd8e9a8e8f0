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

from .config import TOL, NumericalError, ReachError
from .fock import (
    HomInputSpec,
    TmsvSpec,
    VacuumSpec,
    _kernel_sums,
    _splitters,
    auto_cutoff,
    direction_to_beamsplitter,
    joint_photon_distribution,
    make_state,
    spec_from_json,
    spec_to_json,
)
from .mgf import _check_points, _kernels, mgf_from_distribution, sphere_grid, surface_map
from .nonclassicality import (
    MgfMatrixSpec,
    _moment_det,
    _tolerance,
    char_fn_criterion,
    cross_correlation_det,
    mgf_matrix,
    min_eigenpair,
    second_order_det,
    variance_criteria,
    verdict,
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
    _judge_inversion,
    classicality_check,
    default_tau,
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


def _steps(text: str) -> int:
    """A scan's number of steps: an empty scan is an input error."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"need at least one step, got {text}")
    return int(text)


def _seed(text: str) -> int:
    """An RNG seed: the Philox key takes 0 <= seed < 2**128."""
    if not 0 <= int(text) < 2**128:
        raise argparse.ArgumentTypeError(f"need 0 <= seed < 2**128, got {text}")
    return int(text)


def _samples(text: str) -> int:
    """A multinomial sample count: numpy draws it as an int64, 0 <= n < 2**63."""
    if not 0 <= int(text) < 2**63:
        raise argparse.ArgumentTypeError(f"need 0 <= samples < 2**63, got {text}")
    return int(text)


def _json_object(text: str):
    """An inline JSON object, or the path of a file holding one."""
    text = text.strip()
    try:
        return json.loads(text if text.startswith("{") else Path(text).read_text())
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# rows formatted and written at once by _write_csv
_CSV_CHUNK_ROWS = 1 << 13

# Dekker's splitter 2**27 + 1: x = head + tail with 26-bit halves, whose
# products are exact, so a*b is split into p + e without an FMA
_SPLIT = 134217729.0
# 16 - d for the decimal exponents d of [1e-270, 1e270], one either side
_K_MIN, _K_MAX = -255, 287
# the exponents d that _format_17g's layout table covers, -280..280
_D_MIN = -280
# the bytes of one cell of _format_17g: six little-endian words
_CELL = 48


@functools.cache
def _pow10(k: int) -> tuple[float, float, float, float]:
    """10**k as hi + lo, hi the nearest double, with hi's Dekker halves;
    lo is the rounded rest, from exact integers."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den  # int true division rounds correctly
    p, q = hi.as_integer_ratio()
    c = _SPLIT * hi
    head = c - (c - hi)
    return hi, head, hi - head, (num * q - p * den) / (den * q)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_format_17g's layout tables, from numpy arithmetic.  A cell is six
    little-endian words: sign, "0.000" lead, digit 0 and its '.' slot;
    digits 1-16 at even bytes, a '.' slot after each; the exponent.

    words[g]: the four digits of g < 10**4 at the even bytes of a word.
    last[10**4 i + g]: g as group i of four of digits 1-16, the position
    of its last nonzero digit (0 if g = 0).  keep[k]: the mask of digits
    1..k-1 over words 1-4.  by_exp[:, d - _D_MIN]: word 0's lead of a
    fixed value below 1, word 5's "e+XX" of one in scientific notation,
    the digit the '.' may follow (17: none) and the integer digits."""
    ten = np.arange(10)
    words = length = 0  # broadcast over the four digits of g, thousands first
    for i in range(4):
        shape = (10,) + (1,) * (3 - i)
        words = words | ((ten + ord("0")).astype(np.uint64) << 16 * i).reshape(shape)
        length = np.maximum(length, ((i + 1) * (ten != 0)).reshape(shape))
    words, length = words.ravel(), length.ravel()  # length: up to the last nonzero digit
    last = ((length + 4 * np.arange(4)[:, None]) * (length > 0)).ravel()
    keep = np.zeros((18, 16, 2), np.uint8)
    keep[:, :, 0] = (np.arange(1, 17) < np.arange(18)[:, None]) * 0xFF
    d = np.arange(_D_MIN, 1 - _D_MIN)
    fixed = (d >= -4) & (d < 17)
    lead = (fixed & (d < 0)) * (ord("0") << 8 | ord(".") << 16)
    for m in (2, 3, 4):  # "0.0", "0.00", "0.000"
        lead |= (fixed & (d <= -m)) * (ord("0") << 8 * (m + 1))
    ad = abs(d)
    exp = (ord("e") | np.where(d < 0, ord("-"), ord("+")) << 8
           | (ad >= 100) * (ad // 100 + ord("0")) << 16
           | (ad // 10 % 10 + ord("0")) << 24 | (ad % 10 + ord("0")) << 32) * ~fixed
    point = np.where(fixed, np.where(d >= 0, d, 17), 0)
    return (words, last, keep.reshape(18, 32).view("<u8"),
            np.stack([lead, exp, point, np.where(fixed & (d >= 0), d + 1, 0)]))


def _times_pow10(a, k):
    """a * 10**k as p + t in double-double arithmetic: p = fl(a * hi) and
    t = the exact error of that product plus a * lo, with 10**k = hi + lo
    from _pow10 for each k present."""
    ks = np.flatnonzero(np.bincount(k - _K_MIN))
    table = np.zeros((4, _K_MAX - _K_MIN + 1))
    table[:, ks] = np.transpose([_pow10(int(j) + _K_MIN) for j in ks])
    hi, head, tail, lo = np.take(table, k - _K_MIN, axis=1)
    p = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    return p, ((ah * head - p) + ah * tail + al * head) + al * tail + a * lo


def _format_17g(values: np.ndarray) -> np.ndarray:
    """format(v, ".17g") of every double of `values`, as an array of
    values.shape + (48,) bytes: the text's characters in order with NULs
    around and between them, the last byte NUL.

    The 17-digit significand is N = round(|v| 10**(16-d)) for the exponent
    d with 10**d <= |v| < 10**(d+1), judged on the unrounded product: log10
    then one step on a double-double product, exact to about 1e-15.  A value
    takes format() itself where that product lies within 1e-6 of a tie or
    of 10**16 or 10**17 (exact powers such as 1e20), or where it is not
    finite or its magnitude is nonzero and outside [1e-270, 1e270]."""
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    fast = (a >= 1e-270) & (a <= 1e270)  # NaN fails
    a[~fast] = 1.0
    d = np.floor(np.log10(a)).astype(np.int64)
    p, t = _times_pow10(a, 16 - d)
    below, above = (p - 1e16) + t < 0, (p - 1e17) + t >= 0
    off = np.flatnonzero(below | above)  # log10 one off
    if off.size:
        d[off] += above[off].astype(np.int64) - below[off]
        p[off], t[off] = _times_pow10(a[off], 16 - d[off])
    whole = np.floor(t)
    frac = t - whole
    fast &= ((np.abs(frac - 0.5) >= 1e-6) & ((p - 1e16) + t >= 1e-6)
             & ((p - 1e17) + t <= -1e-6))
    n = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = n == 10**17
    n -= carry * (9 * 10**16)
    d += carry

    # %g: fixed for -4 <= d < 17, else d.ddde+XX; the digits of N up to
    # its last nonzero one, and in fixed notation its integer digits too
    words, last, keep, by_exp = _tables()
    lead, exp, point, integer = np.take(by_exp, d - _D_MIN, axis=1)
    high, low = np.divmod(n, 10**8)
    groups = np.stack([high // 10**4 % 10**4, high % 10**4, low // 10**4, low % 10**4])
    digits = 1 + np.take(last, groups + 10**4 * np.arange(4)[:, None]).max(axis=0)
    cells = np.zeros((v.size, _CELL // 8), "<u8")
    cells[:, 0] = lead | np.signbit(v) * ord("-") | (high // 10**8 + ord("0")) << 48
    cells[:, 1:5] = (np.take(words, groups).T
                     & np.take(keep, np.maximum(digits, integer), axis=0))
    cells[:, 5] = exp
    text = cells.view(np.uint8)
    dotted = np.flatnonzero(digits > point + 1)  # a digit follows the '.'
    text[dotted, 2 * point[dotted] + 7] = ord(".")
    # +-0, common in imaginary parts, is "0" or "-0"
    zero = v == 0
    slow = np.flatnonzero(~fast & ~zero)
    zero = np.flatnonzero(zero)
    cells[zero] = 0
    text[zero, 0] = np.signbit(v[zero]) * ord("-")
    text[zero, 6] = ord("0")
    if slow.size:
        cell = f"S{_CELL}"  # NUL-padded
        text[slow] = np.array([format(x, ".17g").encode() for x in v[slow].tolist()],
                              cell).view(np.uint8).reshape(-1, _CELL)
    return text.reshape(np.shape(values) + (_CELL,))


def _literals(axis) -> np.ndarray:
    """The cells "v," of a grid axis, one NUL-padded row of bytes each."""
    cells = [format(float(v), ".17g").encode() + b"," for v in axis]
    return np.array(cells, dtype=bytes).view(np.uint8).reshape(len(cells), -1)


def _array_chunks(rows: np.ndarray, axes):
    """The bytes of an (n, k) float table, chunks of whole runs of the last
    axis: each chunk one NUL-padded byte matrix, coordinate literals
    broadcast per run beside the values' _format_17g cells, NULs dropped."""
    lits = [_literals(a) for a in axes]
    lead = [len(a) for a in axes[:-1]]
    run = len(axes[-1]) if axes else 1
    width = sum(lit.shape[1] for lit in lits)
    step = max(1, _CSV_CHUNK_ROWS // run)
    for lo in range(0, len(rows) // run, step):
        part = rows[lo * run:(lo + step) * run]
        m = len(part) // run
        block = np.zeros((m, run, width + _CELL * rows.shape[1]), np.uint8)
        at = 0
        # the runs' indices on the leading axes; zip stops before the last
        for lit, idx in zip(lits, np.unravel_index(np.arange(lo, lo + m), lead)
                            if lead else ()):
            block[:, :, at:at + lit.shape[1]] = lit[idx][:, None]
            at += lit.shape[1]
        if lits:
            block[:, :, at:width] = lits[-1]
        cells = block[:, :, width:].reshape(m, run, -1, _CELL)
        cells[...] = _format_17g(part).reshape(cells.shape)
        cells[..., -1] = ord(",")
        cells[..., -1, -1] = ord("\n")
        yield block.tobytes().translate(None, b"\0")


def _row_chunks(rows):
    """The bytes of row tuples of numbers and strings, each row its own
    %-template, _CSV_CHUNK_ROWS rows at a time."""
    for lo in range(0, len(rows), _CSV_CHUNK_ROWS):
        part = rows[lo:lo + _CSV_CHUNK_ROWS]
        fmt = "".join(",".join("%s" if isinstance(v, str) else "%.17g" for v in row)
                      + "\n" for row in part)
        yield (fmt % tuple(v for row in part for v in row)).encode()


def _write_csv(path: Path, columns, rows, timestamp: bool, axes=()) -> None:
    """Write a table of `rows`: row tuples of numbers and strings, or an
    (n, k) float array, one row per grid point, whose leading columns are
    then the C-order product of `axes`.  Every number is
    written as format(v, ".17g"), byte for byte; see the CSV contract in
    the README.  A float array is formatted by the numpy kernel
    _format_17g, which hands only non-finite, subnormal or extreme values
    and near-ties to format(), in chunks of whole runs of the last
    axis of about _CSV_CHUNK_ROWS rows: memory is set by the chunk, not
    the row count, and a 64^3 pess.csv row costs about 0.33 us against
    0.68 us with format() per value.  Row tuples keep a %-template per
    row."""
    with open(path, "wb") as fh:
        if timestamp:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n".encode())
        fh.write((",".join(columns) + "\n").encode())
        chunks = (_array_chunks(rows, axes) if isinstance(rows, np.ndarray)
                  else _row_chunks(rows))
        for chunk in chunks:
            fh.write(chunk)


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


def _table(args, name: str, columns, rows, axes=()) -> Path:
    path = args.out / name
    _write_csv(path, columns, rows, args.timestamp, axes)
    return path


_M_COLUMNS = ["e_x", "e_y", "e_z", "t_re", "t_im", "tau", "M_re", "M_im"]


def cmd_mgf(args) -> int:
    grid = np.meshgrid(args.t or [1.0], args.tau or [0.0], indexing="ij")
    t, tau = grid[0].ravel().astype(complex), grid[1].ravel()
    _check_points(t, tau)  # the input, axes included, is checked before any work
    directions = [direction_to_beamsplitter(e)
                  for e in args.direction or [np.array([0.0, 0.0, 1.0])]]
    state, _, _ = _build_state(args)
    blocks = []
    for d in directions:
        v = mgf_from_distribution(joint_photon_distribution(state, d), t, tau)
        blocks.append(np.column_stack(
            [np.tile(d.e, (t.size, 1)), t.real, t.imag, tau, v.real, v.imag]
        ))
    print(_table(args, "mgf.csv", _M_COLUMNS, np.vstack(blocks)))
    return 0


def cmd_surface(args) -> int:
    axes = sphere_grid(args.n_theta, args.n_phi)
    _check_points(args.t, args.tau)  # the grid and point are checked before any work
    state, _, _ = _build_state(args)
    samples = surface_map(state, args.t, args.tau, axes)
    e = np.array([s.e for s in samples]).reshape(-1, 3)
    value = np.array([complex(s.value) for s in samples])
    query = np.broadcast_to((args.t.real, args.t.imag, args.tau), (len(samples), 3))
    table = np.column_stack([e, query, value.real, value.imag])
    print(_table(args, "surface.csv", _M_COLUMNS, table))
    return 0


def cmd_hom_scan(args) -> int:
    ts = np.array(args.t or [math.sqrt(2.0), math.sqrt(3.0), 2.0])
    _check_points(ts, 0.0)
    if not (0.0 <= args.t2_min <= 1.0 and 0.0 <= args.t2_max <= 1.0):  # NaN fails too
        raise ValueError("|T|^2 range (--t2-min, --t2-max) must lie in [0, 1]")
    t2_grid = np.linspace(args.t2_min, args.t2_max, args.t2_steps)
    e_z = 2.0 * t2_grid - 1.0
    axes = np.column_stack([np.sqrt(np.maximum(0.0, 1.0 - e_z**2)), np.zeros_like(e_z), e_z])
    _, T, R = _splitters(axes)
    spec = HomInputSpec()
    state = make_state(spec, args.cutoff if args.cutoff is not None else auto_cutoff(spec))
    # second_order_det(t, 0, 0, 0) on every axis: M(2t; 0), M(0; 0), M(t; 0)
    t, n = np.r_[2.0 * ts, 0.0, ts], ts.size
    m = _kernel_sums(state, T, R, *_kernels(t, 0.0))
    dets = _moment_det(m[:, :n], m[:, n, None], m[:, n + 1 :])
    print(_table(args, "hom_scan.csv", ["T2", "t", "determinant"], dets.reshape(-1, 1),
                 (t2_grid, ts)))
    return 0


def cmd_tmsv_scan(args) -> int:
    kappas = np.linspace(args.kappa_min, args.kappa_max, args.kappa_steps)
    taus = np.linspace(args.tau_min, args.tau_max, args.tau_steps)
    if not np.all((kappas >= 0.0) & (kappas < 1.0)):
        raise ValueError("tanh xi must lie in [0, 1)")
    _check_points(0.0, taus)
    d = direction_to_beamsplitter(np.array([0.0, 0.0, 1.0]))
    dets = []
    for kappa in kappas:
        spec = TmsvSpec(xi=math.atanh(kappa))
        cutoff = args.cutoff if args.cutoff is not None else auto_cutoff(spec)
        dist = joint_photon_distribution(make_state(spec, cutoff), d)
        dets.append(second_order_det(dist, d, -taus, taus, taus, taus))
    print(_table(args, "tmsv_scan.csv", ["tanh_xi", "tau", "determinant"],
                 np.reshape(dets, (-1, 1)), (kappas, taus)))
    return 0


def cmd_nctest(args) -> int:
    # the tolerance, axis and points are checked before any work
    _tolerance(args.tolerance)
    d = direction_to_beamsplitter(args.direction)
    t, tau, t2, tau2 = args.t, args.tau, args.t2, args.tau2
    spec = MgfMatrixSpec(d, ((t, tau), (t2, tau2)))
    _check_points(1j * args.k_norm, 0.0)
    state, _, _ = _build_state(args)
    # every criterion reads the one distribution along d
    dist = joint_photon_distribution(state, d)
    var_s, var_n = variance_criteria(dist, d)
    # the first two criteria read M at the point pair, both off this one
    # matrix (its 2 x 2 determinant is second_order_det); the rest read none.
    # One that reads M past the state's reach is NaN, so inconclusive
    try:
        matrix = mgf_matrix(dist, spec)
        det = float(_moment_det(matrix[0, 0], matrix[1, 1], matrix[0, 1]))
        low = min_eigenpair(matrix)[0]
    except ReachError:
        det = low = math.nan
    try:
        char = char_fn_criterion(dist, d, args.k_norm)
    except ReachError:
        char = math.nan
    criteria = [
        ("second_order_det", det),
        ("matrix_min_eigenvalue", low),
        ("char_fn", char),
        ("variance_stokes", var_s),
        ("variance_number", var_n),
        ("cross_photon_photon", cross_correlation_det(dist, d)),
    ]
    pair = (t.real, t.imag, tau, t2.real, t2.imag, tau2)
    rows = [
        (name, *d.e, *(pair if i < 2 else ("",) * 6), value,
         verdict(value, args.tolerance))
        for i, (name, value) in enumerate(criteria)
    ]
    columns = ["criterion", "e_x", "e_y", "e_z", "t_re", "t_im", "tau",
               "t2_re", "t2_im", "tau2", "value", "verdict"]
    print(_table(args, "nctest.csv", columns, rows))
    return 0


def cmd_clicks(args) -> int:
    # the axis and detector configs are checked before any work; the clicks
    # read eps only through eps * eta, so --eta-* sets that product
    d = direction_to_beamsplitter(args.direction)
    cfg_a = ClickDetectorConfig(apds=args.apds_a, eta=args.eta_a, nu=args.nu_a)
    cfg_b = ClickDetectorConfig(apds=args.apds_b, eta=args.eta_b, nu=args.nu_b)
    state, spec, cutoff = _build_state(args)
    # the click table and the direct M column share one distribution
    dist = joint_photon_distribution(state, d)
    clicks = click_distribution(dist, d, cfg_a, cfg_b)
    i, j = np.indices(clicks.c.shape)
    samples = sample_clicks(clicks, args.samples, args.seed) if args.samples else None
    k, l = i.ravel(), j.ravel()
    t, tau = click_moment_to_mgf_point(k, l, cfg_a, cfg_b)
    # every number is computed before the first file is written
    mu = moments_from_clicks(clicks, k, l)
    direct = mgf_from_distribution(dist, t, tau).real
    if samples is not None:
        est, err = estimate_mgf_from_samples(samples, k, l, cfg_a, cfg_b)
    else:
        est = err = ("",) * k.size
    _table(args, "clicks.csv", ["i", "j", "probability"], clicks.c.reshape(-1, 1),
           [np.arange(n) for n in clicks.c.shape])
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
    k_grid = _judge_inversion(grid, tau)  # before the source is built

    if args.ensemble is not None:
        source = ensemble_from_json(args.ensemble)
        source_json = args.ensemble
    else:
        source, spec, cutoff = _build_state(args)
        source_json = spec_to_json(spec, cutoff)

    pess = invert_to_pess(mgf_imaginary_grid(source, k_grid, tau), grid, tau,
                          window=args.window)
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
        "boundary_share": pess.boundary_share,
        "min_value": report.min_value,
        "peak": pess.peak,
        "essentially_classical": report.essentially_classical,
        "label": pess.label,
    }
    if args.mc_oracle:
        oracle = pess_mc_oracle(source, grid, args.mc_oracle, args.seed)
        payload["l1_vs_oracle"] = l1_distance(pess, oracle)
    # every number is computed before the first file is written
    save_pess(pess, args.out / "pess.bin")
    if args.mc_oracle:
        save_pess(oracle, args.out / "oracle.bin")
        del oracle  # not held while pess.csv, the run's largest file, is written
    _table(args, "pess.csv", ["S_x", "S_y", "S_z", "value"], pess.values.reshape(-1, 1),
           grid.axes())
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
    seed.add_argument("--seed", type=_seed, default=0, help="RNG seed")

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
    p.add_argument("--t2-steps", type=_steps, default=101)

    p = sub.add_parser(
        "tmsv-scan", parents=[common],
        help="determinant scan of two-mode squeezed vacuum on the z axis "
        "with t = -tau, t' = tau' = tau")
    p.add_argument("--kappa-min", type=float, default=0.05, help="tanh xi start")
    p.add_argument("--kappa-max", type=float, default=0.95, help="tanh xi end")
    p.add_argument("--kappa-steps", type=_steps, default=19)
    p.add_argument("--tau-min", type=float, default=0.05)
    p.add_argument("--tau-max", type=float, default=0.5)
    p.add_argument("--tau-steps", type=_steps, default=10)

    p = sub.add_parser("nctest", parents=[common, state],
                       help="criteria battery at one axis and point pair")
    p.add_argument("--direction", type=_three_vector, default="0,0,1")
    p.add_argument("--t", type=complex, default=complex(math.sqrt(3.0)))
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--t2", type=complex, default=complex(0.0))
    p.add_argument("--tau2", type=float, default=0.0)
    p.add_argument("--k-norm", type=float, default=1.0,
                   help="length of the characteristic-function argument")
    p.add_argument("--tolerance", type=float, default=TOL.verdict)

    p = sub.add_parser("clicks", parents=[common, state, seed],
                       help="exact click statistics and moment sampling")
    p.add_argument("--direction", type=_three_vector, default="0,0,1")
    p.add_argument("--apds-a", type=int, default=4)
    p.add_argument("--apds-b", type=int, default=4)
    p.add_argument("--eta-a", type=float, default=1.0)
    p.add_argument("--eta-b", type=float, default=1.0)
    p.add_argument("--nu-a", type=float, default=0.0)
    p.add_argument("--nu-b", type=float, default=0.0)
    p.add_argument("--samples", type=_samples, default=0,
                   help="multinomial sample count, 0 <= n < 2**63 (0 = exact only)")

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
