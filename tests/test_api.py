"""Guards on the public surface: exported names, traced layers, warnings."""

import importlib
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

import stokespace
from stokespace import (
    CoherentSpec,
    ConvergenceWarning,
    Grid3,
    MgfQuery,
    TruncationWarning,
    TwoModeState,
    direction_to_beamsplitter,
    dual_grid,
    find_node,
    joint_photon_distribution,
    make_state,
    mgf,
    mgf_from_distribution,
    mgf_imaginary_grid,
    second_order_det,
    sphere_grid,
    surface_map,
)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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


def _clipping_state():
    """|1,1> mixed with the corner |3,3> at cutoff 3: no source leakage, but
    an off-axis splitter pushes part of the N = 6 block out of the box."""
    amps = [np.zeros((4, 4), dtype=complex) for _ in range(2)]
    amps[0][1, 1] = amps[1][3, 3] = 1.0
    return TwoModeState(cutoff=3, components=((0.9, amps[0]), (0.1, amps[1])))


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
@pytest.mark.parametrize("t, tau, expected", [(1.0, 0.0, 1), (0.1, 0.3, 0)],
                         ids=["outside", "inside"])
def test_clipped_mass_alone_warns_once_outside_the_disc(call, t, tau, expected):
    state = _clipping_state()
    assert state.leakage == 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(state, t, tau)
    kinds = [w.category for w in caught]
    assert kinds.count(ConvergenceWarning) == expected
