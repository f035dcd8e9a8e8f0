"""Guards on the public surface: exported names, traced layers, warnings,
and the input and output gates that NaN must fail."""

import ast
import importlib
import importlib.util
import inspect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import stokespace
from stokespace import (
    ClickDetectorConfig,
    ClickDistribution,
    ClickSampleSet,
    CoherentEnsemble,
    CoherentSpec,
    ConvergenceWarning,
    Grid3,
    HomInputSpec,
    JointPhotonDistribution,
    MeasurementDirection,
    MgfMatrixSpec,
    MgfQuery,
    MixtureSpec,
    NumericalError,
    PessGrid,
    QuadratureError,
    TmsvSpec,
    TruncationWarning,
    TwoModeState,
    VacuumSpec,
    beam_splitter,
    char_fn_criterion,
    click_distribution,
    direction_from_tr,
    direction_to_beamsplitter,
    dual_grid,
    find_node,
    gaussian_ensemble,
    invert_to_pess,
    joint_photon_distribution,
    make_state,
    mgf,
    mgf_closed_form,
    mgf_from_distribution,
    mgf_imaginary_grid,
    mgf_via_husimi_quadrature,
    min_eigenpair,
    sample_clicks,
    second_order_det,
    spec_from_json,
    spec_to_json,
    sphere_grid,
    surface_map,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def test_every_exported_name_resolves():
    missing = [n for n in stokespace.__all__ if not hasattr(stokespace, n)]
    assert missing == []


def test_every_traced_layer_is_a_callable():
    # the benchmark tracer patches these by name; a renamed function would
    # only show up as a crash of a traced pass
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.LAYERS.items():
        mod = importlib.import_module(f"stokespace.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
    # it also reads these arguments by position, or by name if passed so
    for module, name, index, param in [
        ("fock", "make_state", 1, "cutoff"),
        ("fock", "joint_photon_distribution", 0, "state"),
        ("fock", "joint_photon_distribution", 1, "direction"),
        ("reconstruct", "mgf_imaginary_grid", 1, "k_grid"),
        ("cli", "_write_csv", 0, "path"),
        ("cli", "_write_csv", 2, "rows"),
        ("cli", "_write_json", 0, "path"),
    ]:
        fn = getattr(importlib.import_module(f"stokespace.{module}"), name)
        params = list(inspect.signature(fn).parameters)
        assert params[index : index + 1] == [param], f"{module}.{name} {params}"


def _bench_names():
    """(module, name) of every package name the benchmark reads: the traced
    LAYERS of tracer.py and each `from stokespace... import` of a bench
    script, read with ast so that no bench code runs."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and str(node.module).startswith("stokespace"):
                yield from ((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets) == "LAYERS":
                for module, names in ast.literal_eval(node.value).items():
                    yield from ((f"stokespace.{module}", name) for name in names)


def test_every_package_name_the_benchmark_reads_resolves():
    # retiring a traced layer or a name that check.py or probes.py imports
    # breaks the benchmark, not a program test
    names = list(_bench_names())
    assert {("stokespace.cli", "main"), ("stokespace.reconstruct", "dual_grid"),
            ("stokespace", "auto_cutoff")} <= set(names)
    missing = [f"{module}.{name}" for module, name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def _leaky_state():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return make_state(CoherentSpec(2.0, 0.0), cutoff=4)


@pytest.mark.parametrize("call", [
    lambda state: surface_map(state, 0.5, 0.0, sphere_grid(3, 4)),  # |z_a| = 1.5
    lambda state: mgf_imaginary_grid(  # |1 + i |k| - tau| > 1 off k = 0
        state, dual_grid(Grid3((-2, -2, -2), (2, 2, 2), (8, 8, 8))), 0.1),
])
def test_many_point_calls_warn_once(call):
    state = _leaky_state()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            call(state)
    kinds = [w.category for w in caught]
    assert kinds.count(ConvergenceWarning) == 2


@pytest.mark.parametrize("t, tau", [(0.2, 0.3), (0.0, 0.0)])
def test_surface_map_inside_the_disc_is_silent(t, tau):
    state = _leaky_state()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        surface_map(state, t, tau, sphere_grid(3, 4))
    assert not [w for w in caught if w.category is ConvergenceWarning]


def _corner_state(cutoff=3):
    """|1,1> mixed with the corner |3,3>: no source leakage, and an off-axis
    splitter spreads the N = 6 block past the input box at cutoff 3."""
    amps = [np.zeros((cutoff + 1, cutoff + 1), dtype=complex) for _ in range(2)]
    amps[0][1, 1] = amps[1][3, 3] = 1.0
    return TwoModeState(cutoff=cutoff, components=((0.9, amps[0]), (0.1, amps[1])))


OFF_AXIS = direction_to_beamsplitter((0.6, 0.0, 0.8))
# 8^3 dual grid with |k| <= 0.48: inside the disc for tau = 0.3
WIDE = dual_grid(Grid3((-40, -40, -40), (40, 40, 40), (8, 8, 8)))


@pytest.mark.parametrize("call", [
    lambda s, t, tau: mgf_from_distribution(
        joint_photon_distribution(s, OFF_AXIS), [-t, 0.0, t], tau),
    lambda s, t, tau: mgf(s, MgfQuery(OFF_AXIS, t, tau)),
    lambda s, t, tau: second_order_det(s, OFF_AXIS, t, tau, [0.0, t / 2], tau),
    lambda s, t, tau: surface_map(s, t, tau, sphere_grid(3, 4)),
    lambda s, t, tau: mgf_imaginary_grid(s, WIDE, tau),
    # at t = 1 the scan brackets the node near 1.88, so bisection runs too
    lambda s, t, tau: find_node(s, OFF_AXIS, tau, (0.0, 3.0 * t)),
], ids=["mgf_from_distribution", "mgf", "second_order_det", "surface_map",
        "mgf_imaginary_grid", "find_node"])
@pytest.mark.parametrize("t, tau", [(1.0, 0.0), (0.1, 0.3)],
                         ids=["outside", "inside"])
def test_clipped_mass_alone_warns_once_outside_the_disc(call, t, tau):
    # the N = 6 block that spreads past the input box is kept whole, not
    # clipped: p is that of the same amplitudes embedded at cutoff 6, so
    # nothing is missing and no call warns, inside the disc or outside it
    state = _corner_state()
    assert state.leakage == 0.0
    p = joint_photon_distribution(state, OFF_AXIS).p
    wide = joint_photon_distribution(_corner_state(6), OFF_AXIS).p
    assert p.shape == (7, 7)
    assert np.max(np.abs(wide[:7, :7] - p)) <= 1e-15
    assert wide[7:].sum() + wide[:, 7:].sum() == 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(state, t, tau)
    assert not [w for w in caught if w.category is ConvergenceWarning]


NAN = float("nan")
Z_AXIS = direction_to_beamsplitter((0, 0, 1))


def vacuum_along_z():
    return joint_photon_distribution(make_state(VacuumSpec(), 2), Z_AXIS)


@pytest.mark.parametrize("build", [
    lambda: direction_to_beamsplitter([NAN, 0, 1]),
    lambda: direction_from_tr(NAN, 0),
    lambda: MeasurementDirection(T=NAN, R=0),
    lambda: MgfQuery(Z_AXIS, 0.1, NAN),
    lambda: MgfQuery(Z_AXIS, NAN, 0.1),
    lambda: MgfQuery(Z_AXIS, 0.1, math.inf),
    lambda: mgf_from_distribution(vacuum_along_z(), 0.1, [0.2, NAN]),
    lambda: mgf_from_distribution(vacuum_along_z(), [0.1, math.inf], 0.2),
    lambda: mgf_closed_form(VacuumSpec(), Z_AXIS, 0.1, NAN),
    lambda: MgfMatrixSpec(Z_AXIS, ((0.1, 0.2), (0.3, NAN))),
    lambda: mgf_imaginary_grid(make_state(VacuumSpec(), 2), dual_grid(Grid3.cube(2.0, 8)),
                               NAN),
    lambda: TmsvSpec(NAN),
    lambda: ClickDetectorConfig(nu=NAN),
    lambda: ClickDetectorConfig(eta=NAN),
    lambda: ClickDetectorConfig(eps=NAN),
    lambda: beam_splitter(make_state(VacuumSpec(), 2), NAN, 0.6),
    lambda: beam_splitter(make_state(VacuumSpec(), 2), 0.8, NAN),
    lambda: MixtureSpec(((NAN, 0.0, 0.0), (1.0, 0.5, 0.0))),
    lambda: CoherentEnsemble(points=[[0, 0], [1, 0]], weights=[NAN, 1.0]),
    lambda: char_fn_criterion(vacuum_along_z(), Z_AXIS, NAN),
    lambda: ClickDetectorConfig(apds=math.inf),
    lambda: ClickDetectorConfig(apds=NAN),
    lambda: ClickDetectorConfig(nu=math.inf),
    # the other input gates, each a ValueError
    lambda: TwoModeState(-1, ()),
    lambda: TwoModeState(1, ((1.0, np.zeros((3, 3))),)),
    lambda: TwoModeState(1, ((-1.0, np.zeros((2, 2))),)),
    lambda: TwoModeState(1, (), leakage=2.0),
    lambda: spec_from_json("[]"),
    lambda: spec_to_json(object()),
    lambda: make_state(HomInputSpec(), 0),
    lambda: MixtureSpec(()),
    lambda: sample_clicks(_clicks(), 0, 0),
    lambda: ClickSampleSet(np.zeros(3), 0),
    lambda: Grid3((-1, -1), (1, 1), (8, 8)),
    lambda: PessGrid(Grid3.cube(1.0, 8), np.zeros((8, 8)), 0.1, "none", ""),
    lambda: CoherentEnsemble(points=np.zeros((2, 3))),
    lambda: CoherentEnsemble(points=np.zeros((0, 2))),
    lambda: CoherentEnsemble(points=[[0, 0], [1, 0]], weights=[1.0]),
    lambda: gaussian_ensemble(0.0),
    lambda: mgf_closed_form(object(), Z_AXIS, 0.1, 0.2),
    lambda: mgf_via_husimi_quadrature(make_state(VacuumSpec(), 2), Z_AXIS, 0.1j, 0.5),
    lambda: JointPhotonDistribution(np.zeros((2, 3)), Z_AXIS),
], ids=["axis", "tr", "direction", "query-tau", "query-t", "query-inf",
        "from-distribution", "from-distribution-inf", "closed-form", "matrix-spec",
        "k-grid", "tmsv", "nu", "eta", "eps", "splitter-t", "splitter-r",
        "mixture-weight", "ensemble-weight", "char-fn-k", "apds-inf", "apds-nan",
        "nu-inf", "state-cutoff", "state-shape", "state-weight", "state-leakage",
        "spec-json-list", "spec-to-json", "hom-cutoff", "mixture-empty", "sample-count",
        "sample-counts-1d", "grid-two-axes", "pess-shape", "ensemble-points-shape",
        "ensemble-points-empty", "ensemble-weight-count", "sigma-zero",
        "closed-form-spec", "husimi-complex-t", "distribution-not-square"])
def test_non_finite_input_is_rejected(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build, field", [
    (lambda: CoherentSpec(NAN, 0.5), "alpha"),
    (lambda: CoherentSpec(0.5, complex(0.0, math.inf)), "beta"),
    (lambda: MixtureSpec(((1.0, math.inf, 0.0),)), "mixture alpha and beta"),
    (lambda: MixtureSpec(((0.5, 0.1, 0.2), (0.5, 0.3, NAN))), "mixture alpha and beta"),
    (lambda: CoherentEnsemble(points=[[0.5, 0.5], [NAN, 0.0]]), "ensemble points"),
    (lambda: CoherentEnsemble(points=[[0.5, complex(-math.inf, 0.0)]]), "ensemble points"),
    (lambda: gaussian_ensemble(NAN), "sigma"),
    (lambda: gaussian_ensemble(math.inf), "sigma"),
    (lambda: gaussian_ensemble(0.5, mean_alpha=NAN), "mean_alpha"),
    (lambda: gaussian_ensemble(0.5, mean_beta=complex(0.0, -math.inf)), "mean_beta"),
    # finite amplitudes whose intensity |z|^2 overflows
    (lambda: CoherentSpec(1e200, 0.5), "alpha"),
    (lambda: MixtureSpec(((1.0, 0.0, -1e200j),)), "mixture alpha and beta"),
    (lambda: CoherentEnsemble(points=[[1e200, 0.0]]), "ensemble points"),
    (lambda: gaussian_ensemble(1e200), "sigma"),
    (lambda: gaussian_ensemble(1e100), "sigma"),  # its sigma^4 overflows
    (lambda: gaussian_ensemble(0.5, mean_alpha=1e200), "mean_alpha"),
], ids=["coherent-alpha", "coherent-beta", "mixture-alpha", "mixture-beta", "points-nan",
        "points-inf", "sigma-nan", "sigma-inf", "mean-alpha", "mean-beta",
        "coherent-intensity", "mixture-intensity", "points-intensity", "sigma-intensity",
        "sigma-squared-intensity", "mean-intensity"])
def test_non_finite_amplitudes_are_rejected_by_field(build, field):
    # one finite-amplitude rule, checked where the amplitudes enter
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        build()


APD = ClickDetectorConfig(apds=1)


def _clicks():
    return click_distribution(vacuum_along_z(), Z_AXIS, APD, APD)


def _nan_clicks():
    clicks = _clicks()
    clicks.c[0, 0] = NAN  # past the floor of ClickDistribution
    return clicks


def _nan_quadrature(monkeypatch):
    monkeypatch.setattr(importlib.import_module("stokespace.mgf"),
                        "_husimi_quadrature_value", lambda *a: NAN)
    mgf_via_husimi_quadrature(make_state(VacuumSpec(), 2), Z_AXIS, 0.0, 0.5)


def _nan_click_matrix(monkeypatch):
    detector = importlib.import_module("stokespace.detector")
    monkeypatch.setattr(detector, "_click_matrix",
                        lambda cfg, cutoff: np.full((2, cutoff + 1), NAN))
    _clicks()


@pytest.mark.parametrize("gate, error", [
    (lambda mp: importlib.import_module("stokespace.fock")._check_norm(
        1.0, np.array([NAN, 1.0])), NumericalError),
    (lambda mp: JointPhotonDistribution(np.array([[NAN, 0.5], [0.25, 0.25]]), Z_AXIS),
     ValueError),
    (lambda mp: ClickDistribution(np.array([[NAN, 0.5], [0.25, 0.25]]), Z_AXIS, APD, APD),
     NumericalError),
    (_nan_click_matrix, NumericalError),
    (lambda mp: sample_clicks(_nan_clicks(), 10, 0), ValueError),
    (_nan_quadrature, QuadratureError),
    (lambda mp: min_eigenpair(np.array([[NAN, 0.0], [0.0, 1.0]])), ValueError),
    (lambda mp: invert_to_pess(np.full((8, 8, 8), NAN), Grid3.cube(2.0, 8), 0.1),
     NumericalError),
], ids=["check-norm", "distribution-floor", "click-floor", "click-norm", "sample-norm",
        "quadrature", "hermiticity", "pess-residue"])
def test_nan_fails_every_tolerance_gate(monkeypatch, gate, error):
    # a gate written as value > bound is False for NaN and would let it pass
    with pytest.raises(error):
        gate(monkeypatch)
