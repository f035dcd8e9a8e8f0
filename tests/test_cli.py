import contextlib
import csv
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stokespace
from stokespace import TOL, Grid3, Tolerances, TruncationWarning, load_pess
from stokespace.cli import _CSV_CHUNK_ROWS, _format_17g, _write_csv, main

VAC = '{"kind": "vacuum"}'
HOM = '{"kind": "hom_input"}'
TMSV = '{"kind": "tmsv", "xi": 0.5493061443340549}'  # tanh xi = 1/2


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return header, [[float(v) for v in row] for row in body]


def test_console_entry_point():
    # the child imports the same stokespace as this process, installed or not
    src = str(Path(stokespace.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-m", "stokespace.cli", "--help"],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0
    for name in ("mgf", "surface", "hom-scan", "tmsv-scan", "nctest",
                 "clicks", "reconstruct"):
        assert name in r.stdout


def test_import_pulls_in_no_scipy():
    src = str(Path(stokespace.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, stokespace, stokespace.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_mgf_vacuum(tmp_path):
    assert main(["mgf", "--state", VAC, "--out", str(tmp_path),
                 "--direction", "0,0,1", "--t", "0.1", "--tau", "0.2",
                 "--no-timestamp"]) == 0
    header, body = read_csv(tmp_path / "mgf.csv")
    assert header == ["e_x", "e_y", "e_z", "t_re", "t_im", "tau", "M_re", "M_im"]
    assert len(body) == 1
    assert body[0][6] == pytest.approx(1.0, abs=1e-12)
    assert body[0][7] == 0.0


def test_surface_photon_pair(tmp_path):
    assert main(["surface", "--state", HOM, "--out", str(tmp_path),
                 "--t", "1.4142135623730951", "--n-theta", "3", "--n-phi", "4",
                 "--no-timestamp"]) == 0
    header, body = read_csv(tmp_path / "surface.csv")
    assert len(body) == 12
    by_ez = {round(r[2], 6): r[6] for r in body}
    assert by_ez[1.0] == pytest.approx(-1.0, abs=1e-10)  # pole: 1 - t^2
    assert by_ez[0.0] == pytest.approx(3.0, abs=1e-10)  # equator: 1 + t^2


def test_hom_scan_reproduces_closed_form(tmp_path):
    assert main(["hom-scan", "--out", str(tmp_path), "--t2-steps", "5",
                 "--no-timestamp"]) == 0
    header, body = read_csv(tmp_path / "hom_scan.csv")
    assert header == ["T2", "t", "determinant"]
    assert len(body) == 15  # 5 transmittances x 3 default t values
    for t2, t, det in body:
        ez2 = (2.0 * t2 - 1.0) ** 2
        ref = (1.0 + 4.0 * (1.0 - 2.0 * ez2) * t * t) - (
            1.0 + (1.0 - 2.0 * ez2) * t * t) ** 2
        assert det == pytest.approx(ref, abs=1e-9)
    # the deepest default point: t = 2 at a transparent splitter
    assert min(r[2] for r in body) == pytest.approx(-24.0, abs=1e-9)


def test_tmsv_scan_spot_value(tmp_path):
    assert main(["tmsv-scan", "--out", str(tmp_path),
                 "--kappa-min", "0.5", "--kappa-max", "0.5", "--kappa-steps", "1",
                 "--tau-min", "0.25", "--tau-max", "0.25", "--tau-steps", "1",
                 "--no-timestamp"]) == 0
    header, body = read_csv(tmp_path / "tmsv_scan.csv")
    assert header == ["tanh_xi", "tau", "determinant"]
    ((kappa, tau, det),) = body
    assert det == pytest.approx(0.5625 - 0.64, abs=1e-12)


@pytest.mark.parametrize("argv, calls_expected, rows", [
    (["tmsv-scan", "--kappa-steps", "3", "--tau-steps", "4"], 3, 12),  # per kappa
])
def test_scans_take_one_determinant_call_per_distribution(
        tmp_path, monkeypatch, argv, calls_expected, rows):
    import stokespace.cli as cli

    calls = []
    det = cli.second_order_det

    def counting(*args):
        calls.append(args)
        return det(*args)

    monkeypatch.setattr(cli, "second_order_det", counting)
    assert main(argv + ["--out", str(tmp_path), "--no-timestamp"]) == 0
    assert len(calls) == calls_expected
    _, body = read_csv(tmp_path / f"{argv[0].replace('-', '_')}.csv")
    assert len(body) == rows


def test_hom_scan_is_one_kernel_sum_over_all_axes(tmp_path, monkeypatch):
    import stokespace.cli as cli
    import stokespace.fock as fock

    sums, plans, rotations = [], [], []
    kernel_sums, axis_rows = cli._kernel_sums, fock._axis_rows
    monkeypatch.setattr(cli, "_kernel_sums", lambda *a: sums.append(a) or kernel_sums(*a))
    monkeypatch.setattr(fock, "_axis_rows", lambda *a: plans.append(a) or axis_rows(*a))
    monkeypatch.setattr(fock, "rotate_many", lambda *a: rotations.append(a))
    assert main(["hom-scan", "--t2-steps", "5", "--out", str(tmp_path),
                 "--no-timestamp"]) == 0
    assert len(sums) == len(plans) == 1 and rotations == []
    _, T, _, z_a, _ = sums[0]
    assert T.shape == (5,) and z_a.shape == (7,)  # 5 axes, 2 * 3 + 1 shared points
    _, body = read_csv(tmp_path / "hom_scan.csv")
    assert len(body) == 15


@pytest.mark.parametrize("argv, message", [
    (["hom-scan", "--t", "nan"], "error: t must be finite"),
    (["hom-scan", "--t", "1", "--t", "inf"], "error: t must be finite"),
    (["hom-scan", "--t2-steps", "0"], "--t2-steps: need at least one step, got 0"),
    (["tmsv-scan", "--kappa-steps", "0"], "--kappa-steps: need at least one step, got 0"),
    (["tmsv-scan", "--tau-steps", "0"], "--tau-steps: need at least one step, got 0"),
    (["tmsv-scan", "--tau-steps", "-2"], "--tau-steps: need at least one step, got -2"),
], ids=["t-nan", "t-inf", "t2-steps", "kappa-steps", "tau-steps", "negative-steps"])
def test_scans_reject_bad_input_before_the_state(tmp_path, monkeypatch, capsys, argv,
                                                 message):
    # zero steps wrote a header-only table with exit 0, and a non-finite t
    # was caught only after the rotation
    import stokespace.cli as cli

    monkeypatch.setattr(cli, "make_state", lambda *a: pytest.fail("state built"))
    assert main([*argv, "--out", str(tmp_path), "--no-timestamp"]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_tmsv_scan_checks_the_whole_range_first(tmp_path, monkeypatch):
    import stokespace.cli as cli

    calls = []
    rotate = cli.joint_photon_distribution

    def counting(state, direction):
        calls.append(direction)
        return rotate(state, direction)

    monkeypatch.setattr(cli, "joint_photon_distribution", counting)
    assert main(["tmsv-scan", "--out", str(tmp_path), "--kappa-max", "1.0",
                 "--no-timestamp"]) == 2
    assert calls == []
    assert not (tmp_path / "tmsv_scan.csv").exists()


def test_tmsv_scan_rejects_negative_tau_first(tmp_path, monkeypatch):
    import stokespace.cli as cli

    calls = []
    rotate = cli.joint_photon_distribution

    def counting(state, direction):
        calls.append(direction)
        return rotate(state, direction)

    monkeypatch.setattr(cli, "joint_photon_distribution", counting)
    assert main(["tmsv-scan", "--out", str(tmp_path), "--tau-min", "-0.5",
                 "--tau-max", "0.1", "--tau-steps", "3", "--kappa-steps", "2",
                 "--no-timestamp"]) == 2
    assert calls == []
    assert not (tmp_path / "tmsv_scan.csv").exists()


@pytest.mark.parametrize("flag", [["--direction", "nan,0,1"], ["--tau", "nan"],
                                  ["--t", "nan"], ["--tau", "inf"]],
                         ids=["direction", "tau", "t", "tau-inf"])
def test_mgf_rejects_non_finite_input_first(tmp_path, monkeypatch, flag):
    import stokespace.cli as cli

    calls = []
    monkeypatch.setattr(cli, "joint_photon_distribution", lambda *a: calls.append(a))
    assert main(["mgf", "--state", VAC, "--out", str(tmp_path), *flag,
                 "--no-timestamp"]) == 2
    assert calls == []
    assert not (tmp_path / "mgf.csv").exists()


def test_clicks_rejects_negative_samples_before_writing(tmp_path):
    assert main(["clicks", "--state", HOM, "--out", str(tmp_path),
                 "--samples", "-5", "--no-timestamp"]) == 2
    assert not (tmp_path / "clicks.csv").exists()


def test_clicks_exits_3_on_a_dark_correction_that_overflows(tmp_path, capsys):
    # exp(4 nu_a) overflows a double: no NaN rows, no file, no numpy warning
    assert main(["clicks", "--state", HOM, "--out", str(tmp_path), "--nu-a", "800",
                 "--no-timestamp"]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: a dark-corrected moment")
    assert list(tmp_path.iterdir()) == []


def test_nctest_battery(tmp_path, monkeypatch):
    import stokespace.cli as cli

    # the verdict tolerance defaults to the one shared value
    assert cli._build_parser().parse_args(["nctest"]).tolerance == TOL.verdict
    monkeypatch.setattr(cli, "TOL", Tolerances(verdict=2.5e-7))
    assert cli._build_parser.__wrapped__().parse_args(["nctest"]).tolerance == 2.5e-7
    monkeypatch.undo()
    assert main(["nctest", "--state", HOM, "--out", str(tmp_path),
                 "--direction", "1,0,0", "--no-timestamp"]) == 0
    with open(tmp_path / "nctest.csv") as fh:
        rows = list(csv.DictReader(fh))
    values = {r["criterion"]: float(r["value"]) for r in rows}
    verdicts = {r["criterion"]: r["verdict"] for r in rows}
    assert values["second_order_det"] == pytest.approx(-3.0, abs=1e-9)
    assert values["variance_number"] == pytest.approx(-2.0, abs=1e-9)
    assert values["variance_stokes"] == pytest.approx(2.0, abs=1e-9)
    assert verdicts["second_order_det"] == "nonclassical"
    assert verdicts["variance_stokes"] == "inconclusive"
    assert set(values) == {
        "second_order_det", "matrix_min_eigenvalue", "char_fn",
        "variance_stokes", "variance_number", "cross_photon_photon",
    }


def test_nctest_prints_one_cross_correlation_witness(tmp_path):
    # the table carried det cov(N, e.S) = 4 det cov(n_a, n_b) as a row of
    # its own: at xi = 0.005 the two read -2.5e-9 "nonclassical" and
    # -6.25e-10 "inconclusive", one witness with two verdicts
    with pytest.warns(TruncationWarning):  # the criteria read M at |kernel| > 1
        assert main(["nctest", "--state", '{"kind": "tmsv", "xi": 0.005}',
                     "--out", str(tmp_path), "--no-timestamp"]) == 0
    with open(tmp_path / "nctest.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    cross = [r for r in rows if r["criterion"].startswith("cross_")]
    assert [r["criterion"] for r in cross] == ["cross_photon_photon"]
    assert float(cross[0]["value"]) == pytest.approx(-6.25e-10, rel=1e-4)
    assert cross[0]["verdict"] == "inconclusive"


def test_nctest_char_fn_row_reads_the_criterion(tmp_path, monkeypatch):
    import stokespace.cli as cli

    # a seeded benchmark op (TMSV at cutoff 42, off-axis); its char_fn row
    # read 0.36004101592950788 while the command summed M(i k e; 0) itself
    argv = ["nctest", "--state", '{"kind": "tmsv", "xi": 0.6883519772529766}',
            "--cutoff", "42",
            "--direction=0.79489184133687596,0.14149979974724872,0.59002098881951603",
            "--t=0.07745752382897915", "--tau=0.10413367825121288",
            "--t2=0.090996162347555851", "--tau2=0.21306106499516458"]
    reports = []
    criterion = cli.char_fn_criterion
    monkeypatch.setattr(cli, "char_fn_criterion",
                        lambda *a: reports.append(criterion(*a)) or reports[-1])
    assert main(argv + ["--out", str(tmp_path), "--no-timestamp"]) == 0
    with open(tmp_path / "nctest.csv") as fh:
        rows = {r["criterion"]: r for r in csv.DictReader(fh)}
    assert len(reports) == 1 and float(rows["char_fn"]["value"]) == reports[0]
    assert abs(reports[0] - 0.36004101592950788) <= 1e-12


# a seeded benchmark op (TMSV xi = 0.996 at cutoff 42, off-axis) whose
# characteristic function sits at |z| = sqrt 2, past the reach 1/tanh xi = 1.317
FAR_NCTEST = ["nctest", "--state", '{"kind": "tmsv", "xi": 0.9957720427122672}',
              "--cutoff", "42",
              "--direction=-0.90678331320222749,0.39482266582646519,0.14784818378212972",
              "--t=0.076572236969841223", "--tau=0.17639376136298879",
              "--t2=-0.12285741035353019", "--tau2=0.16806545383529803"]


def test_nctest_reads_no_criterion_past_the_reach(tmp_path):
    # the char_fn row read 1 - |Phi| = -0.719 "nonclassical" at cutoff 42
    # and -712445 at cutoff 120, off a divergent sum; the other rows are
    # inside the reach and keep their bytes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(FAR_NCTEST + ["--out", str(tmp_path), "--no-timestamp"]) == 0
    axis = "-0.90678331320222727,0.39482266582646519,0.14784818378212966"
    pair = ("0.076572236969841223,0,0.17639376136298879,"
            "-0.12285741035353019,0,0.16806545383529803")
    assert (tmp_path / "nctest.csv").read_text().splitlines() == [
        "criterion,e_x,e_y,e_z,t_re,t_im,tau,t2_re,t2_im,tau2,value,verdict",
        f"second_order_det,{axis},{pair},0.035111430623802675,inconclusive",
        f"matrix_min_eigenvalue,{axis},{pair},0.030312196979937256,inconclusive",
        f"char_fn,{axis},,,,,,,nan,inconclusive",
        f"variance_stokes,{axis},,,,,,,9.9111000739021122,inconclusive",
        f"variance_number,{axis},,,,,,,10.193635052101953,inconclusive",
        f"cross_photon_photon,{axis},,,,,,,25.257534279554715,inconclusive",
    ]


def test_clicks_moments_and_sampling(tmp_path):
    assert main(["clicks", "--state", TMSV, "--out", str(tmp_path),
                 "--cutoff", "40", "--apds-a", "2", "--apds-b", "2",
                 "--eta-a", "0.6", "--eta-b", "0.6", "--samples", "20000",
                 "--seed", "9", "--no-timestamp"]) == 0
    header, body = read_csv(tmp_path / "clicks.csv")
    assert header == ["i", "j", "probability"]
    assert sum(r[2] for r in body) == pytest.approx(1.0, abs=1e-9)
    mheader, mbody = read_csv(tmp_path / "moments.csv")
    assert mheader == ["k", "l", "t", "tau", "mu", "mgf", "estimate", "std_error"]
    for row in mbody:
        mu, mgf_val, est, err = row[4], row[5], row[6], row[7]
        assert mu == pytest.approx(mgf_val, abs=1e-9)  # exact composition
        if row[0] == 0 and row[1] == 0:
            assert est == 1.0 and err == 0.0
        else:
            assert est == pytest.approx(mu, abs=6.0 * err)
    payload = json.loads((tmp_path / "clicks.json").read_text())
    assert payload["config"]["samples"] == 20000
    assert np.sum(payload["sampled"]["counts"]) == 20000


def test_clicks_seed_reproducible(tmp_path):
    args = ["clicks", "--state", HOM, "--out", None, "--apds-a", "2",
            "--apds-b", "2", "--samples", "5000", "--seed", "3",
            "--no-timestamp"]
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        args[4] = str(d)
        assert main(list(args)) == 0
        outs.append((d / "clicks.json").read_bytes())
    assert outs[0] == outs[1]


def test_reconstruct_with_oracle(tmp_path):
    ens = '{"gaussian": {"sigma": 0.12, "mean_alpha": 2.0}}'
    assert main(["reconstruct", "--out", str(tmp_path), "--ensemble", ens,
                 "--s-min=-4,-4,0", "--s-max=4,4,8", "--n-points", "16",
                 "--mc-oracle", "20000", "--seed", "5", "--no-timestamp"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["total_mass"] - 1.0) < 0.02
    assert report["essentially_classical"] is True
    assert 0.0 < report["l1_vs_oracle"] < 1.0
    pess = load_pess(tmp_path / "pess.bin")
    assert pess.grid.ns == (16, 16, 16)
    assert pess.label == "fft-inversion"
    oracle = load_pess(tmp_path / "oracle.bin")
    assert oracle.label == "mc-histogram"
    header, body = read_csv(tmp_path / "pess.csv")
    assert header == ["S_x", "S_y", "S_z", "value"]
    assert len(body) == 16**3


def test_reconstruct_csv_parses_back_to_the_binary_grid(tmp_path):
    ens = ('{"points": [[{"re": 0.9, "im": 0.2}, 0.3], [0.1, {"re": 0, "im": -0.7}]],'
           ' "weights": [0.25, 0.75]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the face share is a number of the report
        assert main(["reconstruct", "--out", str(tmp_path), "--ensemble", ens,
                     "--s-min=-2,-3,-1", "--s-max=2,1,3", "--n-points", "10",
                     "--no-timestamp"]) == 0
    pess = load_pess(tmp_path / "pess.bin")
    table = np.loadtxt(tmp_path / "pess.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 3], pess.values.reshape(-1))
    grid = Grid3((-2, -3, -1), (2, 1, 3), (10, 10, 10))
    coords = np.meshgrid(*grid.axes(), indexing="ij")
    for col, c in zip(table[:, :3].T, coords):
        assert np.array_equal(col, c.reshape(-1))
    # and byte for byte the row formatter's text of the same doubles
    rows = [(*c, v) for c, v in zip(itertools.product(*grid.axes()), pess.values.ravel())]
    assert (tmp_path / "pess.csv").read_text() == \
        reference_csv(["S_x", "S_y", "S_z", "value"], rows)


def reference_csv(columns, rows) -> str:
    """The per-cell row formatter the columnar writer must reproduce."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(
            v if isinstance(v, str) else format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


SPECIAL = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
           -5e-324, 1e308, 3.0, -7.0, 2.0**53, 0.1, 1.0 / 3.0]


def float_table(n):
    values = np.resize(np.array(SPECIAL), (n, 3))
    return np.column_stack([values, np.arange(n), values[::-1, 0]])


def mixed_rows(n):
    k = len(SPECIAL)
    return [
        (f"row{i}", SPECIAL[i % k], "" if i % 3 else SPECIAL[-i % k], i,
         "nonclassical" if i % 2 else "inconclusive")
        for i in range(n)
    ]


def written(path, timestamp):
    text = path.read_text()
    if timestamp:
        first, text = text.split("\n", 1)
        assert first.startswith("# generated ")
    return text


@pytest.mark.parametrize("n, timestamp", [
    (0, False), (1, False), (_CSV_CHUNK_ROWS - 1, False),
    (_CSV_CHUNK_ROWS + 1, False), (0, True), (_CSV_CHUNK_ROWS + 1, True),
    # several whole chunks, then a last one of all but one row or of one row
    (4 * _CSV_CHUNK_ROWS - 1, False), (4 * _CSV_CHUNK_ROWS + 1, False),
    (4 * _CSV_CHUNK_ROWS + 1, True)])
def test_columnar_writer_matches_row_formatter(tmp_path, n, timestamp):
    cols = ["a", "b", "c", "d", "e"]
    table = float_table(n)
    _write_csv(tmp_path / "f.csv", cols, table, timestamp)
    assert written(tmp_path / "f.csv", timestamp) == reference_csv(cols, table)
    rows = mixed_rows(n)
    _write_csv(tmp_path / "m.csv", cols, rows, timestamp)
    assert written(tmp_path / "m.csv", timestamp) == reference_csv(cols, rows)


@pytest.mark.parametrize("shape, timestamp", [
    ((len(SPECIAL),), False), ((len(SPECIAL), 3), False), ((3, 5, len(SPECIAL)), True),
    ((len(SPECIAL), 1), False), ((3, 2, 1), True),
    (((_CSV_CHUNK_ROWS + 1) // 7 + 1, 7), False), ((_CSV_CHUNK_ROWS + 1, 1), True),
    ((2, _CSV_CHUNK_ROWS + 1), False)],
    ids=["1-axis", "2-axis", "3-axis", "last-1", "3-axis-last-1", "chunks",
         "chunks-last-1", "last-past-chunk"])
def test_grid_writer_matches_row_formatter(tmp_path, shape, timestamp):
    # the leading columns are the C-order product of the axes, last axis fastest
    axes = [np.resize(np.array(SPECIAL[i:] + SPECIAL[:i]), n) for i, n in enumerate(shape)]
    n = math.prod(shape)
    coords = list(itertools.product(*axes))
    cols = [f"x{i}" for i in range(len(shape))] + ["a", "b"]
    table = np.resize(np.array(SPECIAL), (n, 2))
    table[:, 1] = table[::-1, 0]
    _write_csv(tmp_path / "f.csv", cols, table, timestamp, axes)
    assert written(tmp_path / "f.csv", timestamp) == \
        reference_csv(cols, [(*c, *r) for c, r in zip(coords, table)])


def formatter_probes() -> np.ndarray:
    """Doubles on every path of the .17g kernel and its fallback."""
    rng = np.random.default_rng(17)
    # random bit patterns: 16 significands in every binade, random signs
    binade = np.repeat(np.arange(2047, dtype=np.uint64), 16) << np.uint64(52)
    bits = binade | rng.integers(0, 2**52, binade.size, dtype=np.uint64)
    bits |= rng.integers(0, 2, binade.size, dtype=np.uint64) << np.uint64(63)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # walks of 300 neighbours and sweeps of 2001 points across each switch
    # of %g (1e-5, 1e-4 and 1e17) and of the significand's decade (1e16)
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    steps = np.arange(-150, 151, dtype=np.int64)
    walks = (switches.view(np.int64)[:, None] + steps).view(np.float64)
    sweeps = switches[:, None] * np.linspace(0.9, 1.1, 2001)
    # m / 2**j: m 5**j has 18 digits for j near 25, a tie at 17
    m = np.arange(1, 2000, 2, dtype=float)
    ties = (m[:, None] * 2.0 ** -np.arange(1, 64)).ravel()
    tiny = np.finfo(float).tiny
    special = [0.0, math.nan, math.inf, 5e-324, tiny, tiny * 0.5, np.nextafter(tiny, 0),
               1.7976931348623157e308, 1e-270, 1e270, 1e-269, 1e20, 0.1, 1.0, 100.0]
    values = np.concatenate([bits.view(np.float64), powers, np.nextafter(powers, 0),
                             np.nextafter(powers, math.inf), walks.ravel(), sweeps.ravel(),
                             ties, special])
    return np.concatenate([values, -values])


def test_float_kernel_is_format_17g_exactly():
    values = formatter_probes()
    text = _format_17g(values.reshape(-1, 2))  # any shape: (..., 48) cells
    assert text.shape == (values.size // 2, 2, 48) and not text[..., -1].any()
    got = [bytes(cell).replace(b"\0", b"").decode() for cell in text.reshape(-1, 48)]
    want = [format(float(v), ".17g") for v in values]
    assert [(v, g, w) for v, g, w in zip(values, got, want) if g != w] == []


def test_reconstruct_past_a_squeezed_vacuum_reach_exits_3(tmp_path, capsys):
    # the k grid reaches |z| = 10.6, past 1/tanh 0.5 = 2.164, where the
    # truncated sums diverge: the run wrote total_mass -85842 with exit 0
    assert main(["reconstruct", "--state", '{"kind": "tmsv", "xi": 0.5}',
                 "--out", str(tmp_path), "--no-timestamp"]) == 3
    assert capsys.readouterr().err == \
        "numeric failure: the series of M diverges at |z| = 10.59 >= reach 2.164\n"
    assert list(tmp_path.iterdir()) == []


def test_report_records_the_boundary_share_of_pess_bin(tmp_path):
    assert main(["reconstruct", "--n-points", "16", "--out", str(tmp_path),
                 "--no-timestamp"]) == 0
    share = json.loads((tmp_path / "report.json").read_text())["boundary_share"]
    pess = load_pess(tmp_path / "pess.bin")
    assert share == pess.boundary_share
    # |P| on the six faces, a cell once per face it lies on, over all |P|
    v = np.abs(pess.values)
    faces = sum(v[i].sum() + v[:, i].sum() + v[:, :, i].sum() for i in (0, -1))
    assert share == pytest.approx(faces / v.sum(), rel=1e-12)
    assert 1e-3 < share < 1e-2  # the vacuum's point density rings to the faces


def test_reconstruct_from_state(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the face share is a number of the report
        assert main(["reconstruct", "--state", VAC, "--out", str(tmp_path),
                     "--s-min=-2,-2,-2", "--s-max=2,2,2", "--n-points", "16",
                     "--tau", "0", "--no-timestamp"]) == 0
    pess = load_pess(tmp_path / "pess.bin")
    idx = np.unravel_index(np.argmax(pess.values), pess.values.shape)
    # the symmetric even grid has no node at 0: the peak sits on a neighbor
    assert all(i in (7, 8) for i in idx)


# one short run of every command that writes a grid table, and its tables
GRID_RUNS = {
    "reconstruct": (["reconstruct", "--n-points", "8"], ["pess.csv"]),
    "hom-scan": (["hom-scan", "--t2-steps", "5"], ["hom_scan.csv"]),
    "tmsv-scan": (["tmsv-scan", "--kappa-steps", "3", "--tau-steps", "4"],
                  ["tmsv_scan.csv"]),
    "clicks": (["clicks", "--state", TMSV, "--apds-a", "3", "--apds-b", "2"],
               ["clicks.csv", "moments.csv"]),
}


def run_cleanly(argv, out):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no run warns, the 8^3 vacuum included
        assert main([*argv, "--out", str(out), "--no-timestamp"]) == 0


def test_byte_identical_reruns(tmp_path):
    for sub in ("a", "b"):
        d = tmp_path / sub
        assert main(["surface", "--state", HOM, "--out", str(d),
                     "--n-theta", "3", "--n-phi", "4", "--no-timestamp"]) == 0
        for argv, _ in GRID_RUNS.values():
            run_cleanly(argv, d / argv[0])
    assert (tmp_path / "a/surface.csv").read_bytes() == \
        (tmp_path / "b/surface.csv").read_bytes()
    for argv, names in GRID_RUNS.values():
        for name in names:
            assert (tmp_path / "a" / argv[0] / name).read_bytes() == \
                (tmp_path / "b" / argv[0] / name).read_bytes(), name


@pytest.mark.parametrize("argv, names", GRID_RUNS.values(), ids=GRID_RUNS.keys())
def test_each_table_is_one_write_call_of_its_rows(tmp_path, monkeypatch, argv, names):
    # the benchmark tracer counts cli.rows_written as len(rows) of each call
    import stokespace.cli as cli

    calls, write = [], cli._write_csv

    def spy(path, columns, rows, timestamp, axes=()):
        calls.append((Path(path).name, len(rows)))
        write(path, columns, rows, timestamp, axes)

    monkeypatch.setattr(cli, "_write_csv", spy)
    run_cleanly(argv, tmp_path)
    assert sorted(calls) == sorted(
        (name, len((tmp_path / name).read_text().splitlines()) - 1) for name in names)
    if argv[0] == "reconstruct":
        assert calls == [("pess.csv", 512)]


def test_timestamp_emitted_by_default(tmp_path):
    assert main(["mgf", "--state", VAC, "--out", str(tmp_path),
                 "--direction", "0,0,1", "--t", "0", "--tau", "0"]) == 0
    first = (tmp_path / "mgf.csv").read_text().splitlines()[0]
    assert first.startswith("# generated ")


def test_error_exit_codes(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["mgf", "--state", '{"kind": "nope"}', "--out", out]) == 2
    assert main(["mgf", "--state", "{not json", "--out", out]) == 2
    capsys.readouterr()
    assert main(["mgf", "--state", "/does/not/exist.json", "--out", out]) == 2
    assert "/does/not/exist.json" in capsys.readouterr().err
    with warnings.catch_warnings():
        # a point far outside the grid: the MC oracle finds no sample on it
        warnings.simplefilter("error")
        assert main(["reconstruct", "--out", out, "--n-points", "8",
                     "--ensemble", '{"points": [[{"re": 10, "im": 0}, '
                     '{"re": 0, "im": 0}]]}', "--mc-oracle", "10000"]) == 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["reconstruct", "--out", out, "--mc-oracle", "20000",
                     "--state", VAC]) == 2  # oracle needs an ensemble
    assert main(["--definitely-not-a-flag"]) == 2
    # no command-line ensemble has only a sampler, so the draw count is gone
    assert main(["reconstruct", "--out", out, "--n-samples", "1000"]) == 2


@pytest.mark.parametrize("xi", ["20", "Infinity"])
def test_mgf_rejects_squeezing_past_double_precision(tmp_path, capsys, xi):
    # tanh(xi) rounds to 1: no cutoff holds the state
    state = f'{{"kind": "tmsv", "xi": {xi}}}'
    assert main(["mgf", "--state", state, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: squeezing parameter") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "mgf.csv").exists()


def test_mgf_fails_loudly_on_a_non_finite_kernel_sum(tmp_path, capsys):
    # the cutoff cap of 512 leaves nearly all of this state behind, and the
    # powers of |z_a| = 2 overflow at N = 1024
    state = '{"kind": "tmsv", "xi": 8}'
    with pytest.warns(TruncationWarning) as caught:
        assert main(["mgf", "--state", state, "--out", str(tmp_path)]) == 3
    # make_state's warning alone: overflow is the first kernel rule, so the
    # reach and the kernel's truncation warning are not reached
    assert len(caught) == 1 and "probability mass behind" in str(caught[0].message)
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: kernel sum is not finite")
    assert not (tmp_path / "mgf.csv").exists()


def test_state_file_input(tmp_path):
    spec_path = tmp_path / "state.json"
    spec_path.write_text('{"kind": "coherent", "alpha": 0.5, "beta": 0.0, '
                         '"cutoff": 12}')
    assert main(["mgf", "--state", str(spec_path), "--out", str(tmp_path),
                 "--direction", "0,0,1", "--t", "0.1", "--tau", "0.1",
                 "--no-timestamp"]) == 0
    _, body = read_csv(tmp_path / "mgf.csv")
    # coherent pair (0.5, 0): M = exp(t S_z - tau S_0) with S_z = S_0 = 0.25
    assert body[0][6] == pytest.approx(math.exp(0.25 * 0.1 - 0.25 * 0.1), abs=1e-9)


def test_oracle_without_ensemble_fails_before_the_inversion(tmp_path):
    assert main(["reconstruct", "--out", str(tmp_path), "--mc-oracle", "20000",
                 "--state", VAC]) == 2
    assert not (tmp_path / "pess.bin").exists()


@pytest.mark.parametrize("argv", [
    ["--ensemble", '{"points": [[0.5, 0.5]]}', "--mc-oracle", "9999"],
    ["--ensemble", '{"points": [[0.5, 0.5]]}', "--mc-oracle", "-1"],
    ["--ensemble", '{"points": [[0.5, 0.5]]}', "--state", VAC],
    ["--ensemble", '{"points": [[0.5, 0.5], [0.1, 0.2]], "weights": [NaN, 1.0]}'],
    # malformed fields: each raised KeyError or TypeError and exited 1
    ["--ensemble", '{"gaussian": {}}'],
    ["--ensemble", '{"points": [[{"re": "x"}, 0.5]]}'],
    # a point of three entries: "too many values to unpack" named no field
    ["--ensemble", '{"points": [[1, 0, 5]]}'],
    ["--ensemble", '{"points": [[1, 0]], "weights": [0.5, 0.5]}'],
    ["--state", '{"kind": "coherent", "beta": 0.5}'],
    ["--state", '{"kind": "tmsv"}'],
    ["--state", '{"kind": "mixture", "components": [{"weight": 1, "alpha": 0.5}]}'],
    ["--state", '{"kind": "coherent", "alpha": [0.5, 0.1], "beta": 0}'],
    # a null part or mean is no number, not the default 0
    ["--state", '{"kind": "coherent", "alpha": {"re": null}, "beta": 0}'],
    ["--ensemble", '{"gaussian": {"sigma": 0.3, "mean_beta": null}}'],
])
def test_reconstruct_rejects_its_sources_before_the_inversion(tmp_path, monkeypatch,
                                                              capsys, argv):
    import stokespace.cli as cli

    calls = []
    monkeypatch.setattr(cli, "mgf_imaginary_grid", lambda *a: calls.append(a))
    assert main(["reconstruct", "--out", str(tmp_path), "--n-points", "8", *argv]) == 2
    assert calls == []
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("points", ["[[1, 0, 5]]", "[[1, 0], [5]]", "[[1]]", "[]"])
def test_a_point_that_is_no_pair_names_ensemble_points(tmp_path, capsys, points):
    # [[1, 0, 5]] exited 2 with "too many values to unpack (expected 2)"
    assert main(["reconstruct", "--out", str(tmp_path), "--n-points", "8",
                 "--ensemble", f'{{"points": {points}}}']) == 2
    assert capsys.readouterr().err == (
        "error: ensemble points must be m >= 1 pairs (alpha, beta)\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, key", [
    (["mgf", "--state", '{"kind": "coherent", "alpha": {"re": 1, "imag": 2}, "beta": 0, '
      '"cutof": 3}'], "imag"),
    (["mgf", "--state", '{"kind": "coherent", "alpha": 1, "beta": 0, "cutof": 3}'], "cutof"),
    (["mgf", "--state", '{"kind": "tmsv", "xi": 0.5, "alpha": 1}'], "alpha"),
    (["mgf", "--state", '{"kind": "mixture", "components": [{"weight": 1, "alpha": 0.5, '
      '"beta": 0, "phase": 1}]}'], "phase"),
    (["reconstruct", "--ensemble", '{"gaussian": {"sigma": 0.3, "mean_alpa": 1}}'],
     "mean_alpa"),
    (["reconstruct", "--ensemble", '{"gaussian": {"sigma": 0.3}, "points": [[1, 0]]}'],
     "points"),
    (["reconstruct", "--ensemble", '{"points": [[1, 0]], "weight": [1]}'], "weight"),
    (["reconstruct", "--ensemble", '{"points": [[{"re": 1, "i": 1}, 0]]}'], "i"),
])
def test_an_unknown_json_key_is_named_and_exits_2(tmp_path, capsys, argv, key):
    # a misspelt key was dropped without a word, and its field defaulted
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []
    assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["mgf", "--cutoff", "5", "--state", '{"kind": "mixture", "components": '
      '[{"weight": 1, "alpha": {"re": Infinity}, "beta": 0}]}'], "mixture alpha and beta"),
    (["mgf", "--state", '{"kind": "coherent", "alpha": {"re": NaN}, "beta": 0}'], "alpha"),
    (["surface", "--state", '{"kind": "coherent", "alpha": 0, "beta": {"im": -Infinity}}'],
     "beta"),
    (["reconstruct", "--n-points", "8", "--ensemble", '{"gaussian": {"sigma": NaN}}'],
     "sigma"),
    (["reconstruct", "--n-points", "8", "--ensemble", '{"gaussian": {"sigma": Infinity}}'],
     "sigma"),
    (["reconstruct", "--n-points", "8", "--ensemble",
      '{"gaussian": {"sigma": 0.5, "mean_alpha": NaN}}'], "mean_alpha"),
    (["reconstruct", "--n-points", "8", "--ensemble", '{"points": [[{"re": NaN}, 0.5]]}'],
     "ensemble points"),
    # finite amplitudes whose intensity |z|^2 overflows
    (["mgf", "--state", '{"kind": "coherent", "alpha": 1e200, "beta": 0}'], "alpha"),
    (["reconstruct", "--n-points", "8", "--ensemble", '{"gaussian": {"sigma": 1e200}}'],
     "sigma"),
    (["reconstruct", "--n-points", "8", "--ensemble", '{"gaussian": {"sigma": 1e100}}'],
     "sigma"),
    (["reconstruct", "--n-points", "8", "--ensemble", '{"points": [[1e200, 0]]}'],
     "ensemble points"),
    (["reconstruct", "--n-points", "8", "--ensemble",
      '{"gaussian": {"sigma": 0.5, "mean_alpha": 1e200}}'], "mean_alpha"),
], ids=["mixture-inf", "coherent-nan", "coherent-inf", "sigma-nan", "sigma-inf",
        "mean-nan", "point-nan", "coherent-intensity", "sigma-intensity",
        "sigma-squared-intensity", "point-intensity", "mean-intensity"])
def test_non_finite_amplitudes_exit_2_before_any_work(tmp_path, monkeypatch, capsys, argv,
                                                      field):
    import stokespace.cli as cli

    calls = []
    for name in ("auto_cutoff", "make_state", "mgf_imaginary_grid"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append(name))
    assert main([*argv, "--out", str(tmp_path), "--no-timestamp"]) == 2
    assert calls == []
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err == f"error: {field} must be finite\n"


@pytest.mark.parametrize("argv", [
    ["surface", "--t", "nan"],
    ["surface", "--n-theta", "1"],
    ["surface", "--tau", "-1"],
    ["nctest", "--direction", "0,0,0"],
    ["nctest", "--tau", "-1"],
    ["nctest", "--t", "nan"],
    ["nctest", "--k-norm", "nan"],
    ["clicks", "--direction", "0,0,0"],
    ["clicks", "--eta-a", "2"],
    ["clicks", "--apds-a", "0"],
    ["reconstruct", "--tau", "nan"],
    ["clicks", "--state", HOM, "--nu-a", "inf"],
    ["reconstruct", "--ensemble", '{"points": [[0.5, 0]]}', "--n-points", "8",
     "--mc-oracle", "10000", "--seed", "-1"],
    ["clicks", "--samples", "10", "--seed", "-5"],
    ["clicks", "--samples", "10", "--seed", str(2**128)],
], ids=["surface-t", "surface-n-theta", "surface-tau", "nctest-direction", "nctest-tau",
        "nctest-t", "nctest-k-norm", "clicks-direction", "clicks-eta", "clicks-apds",
        "reconstruct-tau", "clicks-nu-inf", "reconstruct-seed-negative",
        "clicks-seed-negative", "clicks-seed-2-128"])
def test_state_commands_check_their_options_before_the_state(tmp_path, monkeypatch,
                                                             argv):
    # each exited 2, but only after make_state had run
    import stokespace.cli as cli

    calls = []
    for name in ("auto_cutoff", "make_state"):
        monkeypatch.setattr(cli, name, lambda *a: calls.append(a))
    assert main([*argv, "--out", str(tmp_path), "--no-timestamp"]) == 2
    assert calls == []
    assert list(tmp_path.iterdir()) == []


_EXTREME = {
    "grid-radius": ["reconstruct", "--s-min=-1e200,-8,-8", "--s-max", "1e200,8,8",
                    "--n-points", "8"],
    "grid-width": ["reconstruct", "--s-max", "1e308,8,8", "--tau", "0.1"],
    "oracle-seed": ["reconstruct", "--ensemble", '{"points": [[0.5, 0]]}', "--n-points",
                    "8", "--mc-oracle", "10000", "--seed", "-1"],
    "clicks-seed": ["clicks", "--samples", "10", "--seed", "-5"],
    "coherent-alpha": ["mgf", "--state", '{"kind": "coherent", "alpha": 1e200, "beta": 0}'],
    "sigma": ["reconstruct", "--n-points", "8", "--ensemble", '{"gaussian": {"sigma": 1e200}}'],
    "sigma-squared": ["reconstruct", "--n-points", "8", "--ensemble",
                      '{"gaussian": {"sigma": 1e100}}'],
    "point": ["reconstruct", "--n-points", "8", "--ensemble", '{"points": [[1e200, 0]]}'],
    "mean-alpha": ["reconstruct", "--n-points", "8", "--ensemble",
                   '{"gaussian": {"sigma": 0.5, "mean_alpha": 1e200}}'],
}


@pytest.mark.parametrize("argv", _EXTREME.values(), ids=_EXTREME.keys())
def test_extreme_inputs_keep_the_exit_contract(tmp_path, capsys, argv):
    # each ended in a traceback, numpy RuntimeWarnings or a file written
    # before the failure; an option that argparse rejects prints its usage
    # line before the one "stokespace <command>: error: ..." line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(tmp_path), "--no-timestamp"])
    err = capsys.readouterr().err
    assert code in (2, 3)
    assert "Traceback" not in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    lines = [line for line in err.splitlines()
             if re.match(r"(stokespace [\w-]+: )?(error|numeric failure): ", line)]
    assert len(lines) == 1
    if code == 2:
        assert list(tmp_path.iterdir()) == []
    if "--s-max" in argv:
        assert "grid extent" in lines[0]


@pytest.mark.parametrize("argv, message", [
    (["--s-max", "1e100,8,8", "--tau", "0.1"],
     "error: tau 0.1 times the grid radius 1e+100 overflows exp(tau |S|)"),
    (["--s-min=-1e-300,-8,-8", "--s-max", "1e-300,8,8"],
     "error: grid extent (-1e-300, -8.0, -8.0) to (1e-300, 8.0, 8.0) over (8, 8, 8) "
     "points is too fine"),
    (["--s-min=-7e153,-7e153,-7e153", "--s-max", "7e153,7e153,7e153"],
     "error: grid extent (-7e+153, -7e+153, -7e+153) to (7e+153, 7e+153, 7e+153) over "
     "(8, 8, 8) points has cell volume inf"),
    (["--s-min=-6.5e153,-6.5e153,-6.5e153", "--s-max", "6.5e153,6.5e153,6.5e153"],
     "error: grid extent (-6.5e+153, -6.5e+153, -6.5e+153) to (6.5e+153, 6.5e+153, "
     "6.5e+153) over (8, 8, 8) points has cell volume inf"),
    (["--s-min=-1e104,-1e104,-1e104", "--s-max", "1e104,1e104,1e104"],
     "error: grid extent (-1e+104, -1e+104, -1e+104) to (1e+104, 1e+104, 1e+104) over "
     "(8, 8, 8) points has cell volume inf"),
], ids=["damping", "dual-grid", "cell-volume", "nan-mass", "infinite-mass"])
def test_reconstruct_judges_its_grid_and_damping_before_the_source(
        tmp_path, monkeypatch, capsys, argv, message):
    # the first wrote pess.bin and pess.csv after a numpy RuntimeWarning and
    # exited 2 with "tol must be >= 0, got nan"; the second named the extent
    # of the dual grid, (-1.0995574287564276e+301, ...); the third the extent of
    # the dual grid too, (-1.5707963267948965e-153, ...), whose own dual
    # overflowed; the last two exited 0 with a total_mass of NaN and of inf
    import stokespace.cli as cli

    monkeypatch.setattr(cli, "_build_state", lambda args: pytest.fail("source built"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["reconstruct", *argv, "--n-points", "8", "--out", str(tmp_path),
                     "--no-timestamp"]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_reconstruct_inverts_a_coarse_grid_whose_cell_volume_fits(tmp_path):
    # the dual-of-dual rule rejected it with exit 2
    assert main(["reconstruct", "--s-min=-1.3e154,-8,-8", "--s-max", "1.3e154,8,8",
                 "--n-points", "8", "--out", str(tmp_path), "--no-timestamp"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert math.isfinite(report["total_mass"])
    # the vacuum is not resolved on it: mass 1.096, half of |P| on the faces
    assert abs(report["total_mass"] - 1.0) > 1e-2 and report["boundary_share"] > 1e-3


@pytest.mark.parametrize("cutoff", ["1e400", "2.7", "true", '"3"'],
                         ids=["overflow", "fraction", "boolean", "string"])
def test_an_embedded_cutoff_must_be_a_whole_number(tmp_path, monkeypatch, capsys, cutoff):
    # 1e400 ended in an OverflowError traceback; 2.7 ran at cutoff 2 and
    # true at cutoff 1
    import stokespace.cli as cli

    monkeypatch.setattr(cli, "make_state", lambda *a: pytest.fail("state built"))
    state = f'{{"kind": "vacuum", "cutoff": {cutoff}}}'
    assert main(["mgf", "--state", state, "--out", str(tmp_path), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: state spec cutoff must be a whole number, got ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


_NOT_NUMBERS = {
    "tmsv-xi-true": (["mgf", "--state", '{"kind": "tmsv", "xi": true}'], "xi", "True"),
    "tmsv-xi-string": (["mgf", "--state", '{"kind": "tmsv", "xi": "0.5"}'], "xi", "'0.5'"),
    "coherent-alpha-true": (["mgf", "--state",
                             '{"kind": "coherent", "alpha": true, "beta": 0}'],
                            "alpha", "True"),
    "coherent-beta-string": (["mgf", "--state",
                              '{"kind": "coherent", "alpha": 0, "beta": "1"}'],
                             "beta", "'1'"),
    "coherent-re-true": (["mgf", "--state",
                          '{"kind": "coherent", "alpha": {"re": true}, "beta": 0}'],
                         "alpha.re", "True"),
    "coherent-im-string": (["mgf", "--state",
                            '{"kind": "coherent", "alpha": 0, "beta": {"im": "1"}}'],
                           "beta.im", "'1'"),
    "mixture-weight-true": (["mgf", "--state", '{"kind": "mixture", "components": '
                             '[{"weight": true, "alpha": 0.5, "beta": 0}]}'],
                            "mixture weight", "True"),
    "mixture-alpha-string": (["mgf", "--state", '{"kind": "mixture", "components": '
                              '[{"weight": 1, "alpha": "0.5", "beta": 0}]}'],
                             "mixture alpha", "'0.5'"),
    "point-true": (["reconstruct", "--ensemble", '{"points": [[true, 0]]}'],
                   "ensemble points", "True"),
    "point-string": (["reconstruct", "--ensemble", '{"points": [[0.5, {"im": "1"}]]}'],
                     "ensemble points.im", "'1'"),
    "weight-true": (["reconstruct", "--ensemble",
                     '{"points": [[0.5, 0]], "weights": [true]}'],
                    "ensemble weights", "True"),
    "sigma-true": (["reconstruct", "--ensemble", '{"gaussian": {"sigma": true}}'],
                   "sigma", "True"),
    "sigma-string": (["reconstruct", "--ensemble", '{"gaussian": {"sigma": "0.3"}}'],
                     "sigma", "'0.3'"),
    "mean-string": (["reconstruct", "--ensemble",
                     '{"gaussian": {"sigma": 0.3, "mean_alpha": "1"}}'],
                    "mean_alpha", "'1'"),
}


@pytest.mark.parametrize("argv, field, value", _NOT_NUMBERS.values(), ids=_NOT_NUMBERS)
def test_a_json_number_is_never_a_boolean_or_a_string(tmp_path, monkeypatch, capsys,
                                                      argv, field, value):
    # each ran: true as 1 (xi = 1, a weight of 1, sigma = 1) and "0.5" as 0.5
    import stokespace.cli as cli

    for name in ("auto_cutoff", "make_state", "mgf_imaginary_grid"):
        monkeypatch.setattr(cli, name, lambda *a: pytest.fail("source built"))
    if argv[0] == "reconstruct":
        argv = [*argv, "--n-points", "8"]
    assert main([*argv, "--out", str(tmp_path), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == f"error: {field} must be a number, got {value}\n"
    assert list(tmp_path.iterdir()) == []


def test_a_json_number_may_be_a_numpy_scalar():
    spec, _ = stokespace.spec_from_json({"kind": "tmsv", "xi": np.float32(0.5)})
    assert spec == stokespace.TmsvSpec(0.5)
    ens = stokespace.ensemble_from_json({"points": [[np.int64(1), {"re": np.float64(0.5)}]],
                                         "weights": [np.float64(1.0)]})
    assert ens.points.tolist() == [[1.0, 0.5]]
    with pytest.raises(ValueError, match="xi must be a number"):
        stokespace.spec_from_json({"kind": "tmsv", "xi": np.bool_(True)})


@pytest.mark.parametrize("samples", ["-1", str(2**63), str(10**19)])
def test_clicks_samples_must_fit_an_int64(tmp_path, monkeypatch, capsys, samples):
    # 10**19 ended in an OverflowError traceback from the multinomial draw
    # (exit 1), after the state and the click table were built
    import stokespace.cli as cli

    monkeypatch.setattr(cli, "make_state", lambda *a: pytest.fail("state built"))
    assert main(["clicks", "--state", HOM, "--samples", samples, "--out", str(tmp_path),
                 "--no-timestamp"]) == 2
    assert f"--samples: need 0 <= samples < 2**63, got {samples}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--eps-a", "--eps-b"])
def test_clicks_takes_no_eps_option(tmp_path, flag):
    # eps entered only as eps * eta, which --eta-a and --eta-b already set
    assert main(["clicks", flag, "0.5", "--out", str(tmp_path), "--no-timestamp"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_a_failing_reconstruct_writes_no_file(tmp_path, capsys):
    # a point far outside the grid: the oracle finds no sample on it, which
    # came after pess.bin and pess.csv were written
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the inversion reports numbers, not warnings
        assert main(["reconstruct", "--out", str(tmp_path), "--n-points", "8",
                     "--ensemble", '{"points": [[10, 0]]}', "--mc-oracle", "10000",
                     "--no-timestamp"]) == 3
    assert capsys.readouterr().err == "numeric failure: no samples landed on the grid\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--t2-max", "1.5"],
    ["--t2-min", "1.0000000001", "--t2-max", "1.0000000001", "--t2-steps", "1"],
    ["--t2-min", "nan"],
    ["--t2-min", "-0.25"],
], ids=["above-one", "just-above-one", "nan", "negative"])
def test_hom_scan_rejects_a_transmittance_outside_the_unit_interval(
        tmp_path, monkeypatch, capsys, argv):
    # 1.5 was blamed on the axis norm, and 1.0000000001 wrote T2 = 1.0000000001
    import stokespace.cli as cli

    monkeypatch.setattr(cli, "make_state", lambda *a: pytest.fail("state built"))
    assert main(["hom-scan", *argv, "--out", str(tmp_path), "--no-timestamp"]) == 2
    assert "|T|^2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--state", HOM, "--direction", "1,0,0"],
    # a seeded benchmark op: TMSV at cutoff 42, off-axis
    ["--state", '{"kind": "tmsv", "xi": 0.6883519772529766}', "--cutoff", "42",
     "--direction=0.79489184133687596,0.14149979974724872,0.59002098881951603",
     "--t=0.07745752382897915", "--tau=0.10413367825121288",
     "--t2=0.090996162347555851", "--tau2=0.21306106499516458"],
], ids=["hom", "tmsv"])
def test_nctest_reads_its_determinant_off_the_matrix(tmp_path, monkeypatch, argv):
    # two kernel sums, the matrix and the characteristic function, and the
    # second_order_det row equals the criterion bit for bit
    import stokespace.cli as cli
    import stokespace.nonclassicality as nc
    from stokespace import joint_photon_distribution, make_state, second_order_det

    sums, original = [], nc.mgf_from_distribution
    for module in (cli, nc):
        monkeypatch.setattr(module, "mgf_from_distribution",
                            lambda *a: sums.append(a) or original(*a))
    assert main(["nctest", *argv, "--out", str(tmp_path), "--no-timestamp"]) == 0
    assert len(sums) == 2
    args = cli._build_parser().parse_args(["nctest", *argv])
    state, _, _ = cli._build_state(args)
    d = cli.direction_to_beamsplitter(args.direction)
    det = second_order_det(joint_photon_distribution(state, d), d, args.t, args.tau,
                           args.t2, args.tau2)
    with open(tmp_path / "nctest.csv") as fh:
        rows = {r["criterion"]: r for r in csv.DictReader(fh)}
    assert float(rows["second_order_det"]["value"]) == det


@pytest.mark.parametrize("tolerance", ["-1", "nan"])
def test_nctest_rejects_a_bad_tolerance_before_the_state(tmp_path, monkeypatch, capsys,
                                                         tolerance):
    # -1 marked every criterion of a state "nonclassical", and NaN marked
    # the negative |1,1> determinant "inconclusive"
    import stokespace.cli as cli

    monkeypatch.setattr(cli, "_build_state", lambda args: pytest.fail("state built"))
    assert main(["nctest", "--state", HOM, "--out", str(tmp_path),
                 "--tolerance", tolerance, "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: verdict tolerance") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["hom-scan", "--state", VAC],
    ["tmsv-scan", "--state", VAC],
    *([name, "--seed", "1"] for name in ("mgf", "surface", "hom-scan", "tmsv-scan",
                                         "nctest")),
])
def test_subcommands_take_only_the_options_they_read(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, printed", [
    (["mgf"], "mgf.csv"),
    (["surface", "--n-theta", "3", "--n-phi", "4"], "surface.csv"),
    (["hom-scan", "--t2-steps", "3"], "hom_scan.csv"),
    (["tmsv-scan", "--kappa-max", "0.5", "--kappa-steps", "2", "--tau-steps", "2"],
     "tmsv_scan.csv"),
    (["nctest"], "nctest.csv"),
    (["clicks", "--samples", "100"], "clicks.json"),
    (["reconstruct", "--n-points", "8"], "report.json"),
])
def test_every_subcommand_prints_one_path(tmp_path, capsys, argv, printed):
    assert main(argv + ["--out", str(tmp_path), "--no-timestamp"]) == 0
    assert capsys.readouterr().out.splitlines() == [str(tmp_path / printed)]


def test_readme_command_lines_parse(tmp_path, monkeypatch):
    import stokespace.cli as cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    monkeypatch.chdir(tmp_path)  # where the block's `echo ... > file` lines write
    commands = set()
    for words in map(shlex.split, lines):
        if words[0] == "echo":
            _, payload, _, name = words
            Path(name).write_text(payload)
            continue
        assert words[0] == "stokespace"
        try:
            cli._build_parser().parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(words)}")
        commands.add(words[1])
    assert commands == {"mgf", "surface", "hom-scan", "tmsv-scan", "nctest", "clicks",
                        "reconstruct"}


@pytest.mark.parametrize("argv", [
    ["nctest", "--state", TMSV, "--direction", "0.6,0,0.8", "--cutoff", "20"],
    ["clicks", "--state", TMSV, "--direction", "0.6,0,0.8", "--cutoff", "20",
     "--apds-a", "3", "--apds-b", "3"],
    ["mgf", "--state", TMSV, "--direction", "0.6,0,0.8", "--cutoff", "20",
     "--t", "0.1", "--t", "-0.1", "--tau", "0.2", "--tau", "0.3"],
])
def test_single_axis_commands_rotate_once(tmp_path, monkeypatch, argv):
    import stokespace.cli as cli

    calls = []
    rotate = cli.joint_photon_distribution

    def counting(state, direction):
        calls.append(direction)
        return rotate(state, direction)

    monkeypatch.setattr(cli, "joint_photon_distribution", counting)
    # nctest reads M at |z| > 1: the matrix pair past the reach 2 (NaN
    # rows), and the characteristic function at |1 + i| = sqrt 2, where
    # the 2.3e-13 the cutoff-20 state misses weighs up to 2^(21/2) times as
    # much, so the truncated sum warns
    expect = (pytest.warns(TruncationWarning) if argv[0] == "nctest"
              else contextlib.nullcontext())
    with expect:
        assert main(argv + ["--out", str(tmp_path), "--no-timestamp"]) == 0
    assert len(calls) == 1
    if argv[0] == "nctest":
        with open(tmp_path / "nctest.csv") as fh:
            rows = {r["criterion"]: r for r in csv.DictReader(fh)}
        pair = [rows[name] for name in ("second_order_det", "matrix_min_eigenvalue")]
        assert [(r["value"], r["verdict"]) for r in pair] == [("nan", "inconclusive")] * 2


def test_parser_is_built_once_and_reused(tmp_path, monkeypatch):
    import stokespace.cli as cli

    runs = [
        ["mgf", "--state", TMSV, "--direction", "0,0,1", "--direction", "0.6,0,0.8",
         "--t", "0.1", "--tau", "0.2"],
        ["mgf", "--state", TMSV, "--direction", "0,1,0", "--t", "0.1", "--tau", "0.2"],
        ["nctest", "--state", TMSV, "--direction", "0.6,0,0.8", "--cutoff", "20"],
    ]

    def outputs(label):
        got = []
        for i, argv in enumerate(runs):
            out = tmp_path / f"{label}{i}"
            # nctest's characteristic function reads M at |z| = sqrt 2
            with (pytest.warns(TruncationWarning) if argv[0] == "nctest"
                  else contextlib.nullcontext()):
                assert main(argv + ["--out", str(out), "--no-timestamp"]) == 0
            got.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        return got

    shared = outputs("shared")
    assert cli._build_parser() is cli._build_parser()
    # the same calls, each with a parser of its own
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert outputs("fresh") == shared
    # the second mgf holds its own axis only: no --direction list carried over
    header, body = read_csv(tmp_path / "shared1" / "mgf.csv")
    assert len(body) == 1 and np.allclose(body[0][:3], [0.0, 1.0, 0.0], atol=1e-15)
    # a command function replaced after the parser is built is the one run
    monkeypatch.undo()
    monkeypatch.setattr(cli, "cmd_tmsv_scan", lambda args: 7)
    assert main(["tmsv-scan", "--out", str(tmp_path / "swapped")]) == 7
