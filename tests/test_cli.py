import contextlib
import csv
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stokespace
from stokespace import ConvergenceWarning, Grid3, load_pess
from stokespace.cli import _CSV_CHUNK_ROWS, _write_csv, main

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
    (["hom-scan", "--t2-steps", "5"], 5, 15),  # per axis
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


def test_clicks_rejects_negative_samples_before_writing(tmp_path):
    assert main(["clicks", "--state", HOM, "--out", str(tmp_path),
                 "--samples", "-5", "--no-timestamp"]) == 2
    assert not (tmp_path / "clicks.csv").exists()


def test_nctest_battery(tmp_path):
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
        "variance_stokes", "variance_number", "cross_number_stokes",
        "cross_photon_photon",
    }


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
        warnings.simplefilter("ignore")  # point densities ring to the edge
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
    (_CSV_CHUNK_ROWS + 1, False), (0, True), (_CSV_CHUNK_ROWS + 1, True)])
def test_columnar_writer_matches_row_formatter(tmp_path, n, timestamp):
    cols = ["a", "b", "c", "d", "e"]
    table = float_table(n)
    _write_csv(tmp_path / "f.csv", cols, table, timestamp)
    assert written(tmp_path / "f.csv", timestamp) == reference_csv(cols, table)
    rows = mixed_rows(n)
    _write_csv(tmp_path / "m.csv", cols, rows, timestamp)
    assert written(tmp_path / "m.csv", timestamp) == reference_csv(cols, rows)


def test_reconstruct_from_state(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the point density rings to the edge
        assert main(["reconstruct", "--state", VAC, "--out", str(tmp_path),
                     "--s-min=-2,-2,-2", "--s-max=2,2,2", "--n-points", "16",
                     "--tau", "0", "--no-timestamp"]) == 0
    pess = load_pess(tmp_path / "pess.bin")
    idx = np.unravel_index(np.argmax(pess.values), pess.values.shape)
    # the symmetric even grid has no node at 0: the peak sits on a neighbor
    assert all(i in (7, 8) for i in idx)


def test_byte_identical_reruns(tmp_path):
    for sub in ("a", "b"):
        d = tmp_path / sub
        assert main(["surface", "--state", HOM, "--out", str(d),
                     "--n-theta", "3", "--n-phi", "4", "--no-timestamp"]) == 0
    assert (tmp_path / "a/surface.csv").read_bytes() == \
        (tmp_path / "b/surface.csv").read_bytes()


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
        # a point far outside the grid: the inversion warns, then the MC
        # oracle finds no sample on the grid
        warnings.simplefilter("ignore")
        assert main(["reconstruct", "--out", out, "--n-points", "8",
                     "--ensemble", '{"points": [[{"re": 10, "im": 0}, '
                     '{"re": 0, "im": 0}]]}', "--mc-oracle", "10000"]) == 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fails after the inversion ran
        assert main(["reconstruct", "--out", out, "--mc-oracle", "20000",
                     "--state", VAC]) == 2  # oracle needs an ensemble
    assert main(["--definitely-not-a-flag"]) == 2
    # no command-line ensemble has only a sampler, so the draw count is gone
    assert main(["reconstruct", "--out", out, "--n-samples", "1000"]) == 2


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
])
def test_reconstruct_rejects_its_sources_before_the_inversion(tmp_path, monkeypatch,
                                                              argv):
    import stokespace.cli as cli

    calls = []
    monkeypatch.setattr(cli, "mgf_imaginary_grid", lambda *a: calls.append(a))
    assert main(["reconstruct", "--out", str(tmp_path), "--n-points", "8", *argv]) == 2
    assert calls == []
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
    # the vacuum's point density misses mass on 8 points a side
    pytest.param(["reconstruct", "--n-points", "8"], "report.json",
                 marks=pytest.mark.filterwarnings(
                     "ignore::stokespace.config.ConvergenceWarning")),
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
    # nctest reads M at |z| > 1 (the characteristic function sits at
    # |1 + i| = sqrt 2), where the 2.3e-13 the cutoff-20 state misses
    # weighs up to 2^(21/2) times as much, so the truncated sums warn
    expect = (pytest.warns(ConvergenceWarning) if argv[0] == "nctest"
              else contextlib.nullcontext())
    with expect:
        assert main(argv + ["--out", str(tmp_path), "--no-timestamp"]) == 0
    assert len(calls) == 1


@pytest.mark.filterwarnings("ignore::stokespace.config.ConvergenceWarning")
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
