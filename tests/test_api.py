"""Guards on the public surface: exported names, traced layers, warnings."""

import importlib
import importlib.util
import warnings
from pathlib import Path

import pytest

import stokespace
from stokespace import (
    CoherentSpec,
    ConvergenceWarning,
    Grid3,
    TruncationWarning,
    dual_grid,
    make_state,
    mgf_imaginary_grid,
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
