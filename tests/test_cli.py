import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stokespace
from stokespace import load_pess
from stokespace.cli import main

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


def test_error_exit_codes(tmp_path):
    out = str(tmp_path)
    assert main(["mgf", "--state", '{"kind": "nope"}', "--out", out]) == 2
    assert main(["mgf", "--state", "{not json", "--out", out]) == 2
    assert main(["mgf", "--state", "/does/not/exist.json", "--out", out]) == 2
    assert main(["clicks", "--state", VAC, "--out", out, "--apds-a", "9"]) == 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fails after the inversion ran
        assert main(["reconstruct", "--out", out, "--mc-oracle", "20000",
                     "--state", VAC]) == 2  # oracle needs an ensemble
    assert main(["--definitely-not-a-flag"]) == 2


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
    assert main(argv + ["--out", str(tmp_path), "--no-timestamp"]) == 0
    assert len(calls) == 1
