"""Per-layer spans recorded from outside the package.

Each public function listed in ``LAYERS`` is replaced by a wrapper that
records a span (name, start, end, parent).  A module that imported the
function by value holds its own reference, so the wrapper is patched
into every ``stokespace`` module namespace that bound the original.
Modules are reached through ``sys.modules`` because ``stokespace.mgf``
is the re-exported function, not the module.  Spans stay in memory and
are summarised once, at the end of the pass.
"""

from __future__ import annotations

import functools
import os
import sys
import time

LAYERS = {
    "fock": ("make_state", "beam_splitter", "joint_photon_distribution"),
    "mgf": ("mgf", "mgf_from_distribution", "surface_map", "find_node"),
    "nonclassicality": ("second_order_det", "mgf_matrix", "variance_criteria",
                        "cross_correlation_det", "char_fn_criterion"),
    "detector": ("click_distribution", "sample_clicks", "moments_from_clicks",
                 "estimate_mgf_from_samples"),
    "reconstruct": ("mgf_imaginary_grid", "invert_to_pess", "pess_mc_oracle",
                    "save_pess"),
    # main is the root span of every op, so the harness loop is all that
    # stays unattributed
    "cli": ("main", "_write_csv", "_write_json"),
}


COUNTER_UNITS = {
    "fock.max_cutoff": "photons",
    "fock.rotations_per_axis": "ratio",
    "reconstruct.grid_points": "count",
    "cli.bytes_written": "B",
    "cli.rows_written": "count",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric: calls are counts, the rest seconds."""
    return COUNTER_UNITS.get(name, "count" if name.endswith(".calls") else "s")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Installs the wrappers and keeps the spans and layer counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self._states = []  # keeps traced states alive so id() stays unique
        self._pairs = set()
        self.counters = {
            "fock.max_cutoff": 0,
            "reconstruct.grid_points": 0,
            "cli.bytes_written": 0,
            "cli.rows_written": 0,
        }

    # -- counters taken where the work happens --------------------------

    def _count(self, name, args, kwargs):
        c = self.counters
        if name == "fock.make_state":
            c["fock.max_cutoff"] = max(c["fock.max_cutoff"],
                                       int(_arg(args, kwargs, 1, "cutoff")))
        elif name == "fock.joint_photon_distribution":
            state = _arg(args, kwargs, 0, "state")
            direction = _arg(args, kwargs, 1, "direction")
            self._states.append(state)
            axis = tuple(round(float(v), 12) for v in direction.e)
            self._pairs.add((id(state), axis))
            c["fock.max_cutoff"] = max(c["fock.max_cutoff"], state.cutoff)
        elif name == "reconstruct.mgf_imaginary_grid":
            ns = _arg(args, kwargs, 1, "k_grid").ns
            c["reconstruct.grid_points"] += ns[0] * ns[1] * ns[2]
        elif name == "cli._write_csv":
            c["cli.rows_written"] += len(_arg(args, kwargs, 2, "rows"))
            c["cli.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        elif name == "cli._write_json":
            c["cli.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._count(name, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        pkg = [m for n, m in list(sys.modules.items())
               if n == "stokespace" or n.startswith("stokespace.")]
        for module, names in LAYERS.items():
            mod = sys.modules[f"stokespace.{module}"]
            for fname in names:
                original = getattr(mod, fname)
                wrapper = self._wrap(f"{module}.{fname}", original)
                for m in pkg:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    # -- summary ------------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-function calls and inclusive seconds, per-module self
        seconds (inclusive minus wrapped children) and the counters."""
        out = {}
        for module, names in LAYERS.items():
            out[f"{module}.self_s"] = 0.0
            for fname in names:
                out[f"{module}.{fname}.calls"] = 0
                out[f"{module}.{fname}.s"] = 0.0
        child = [0.0] * len(self.spans)
        root_s = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                root_s += end - start
        for (name, start, end, _), kids in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[name.split(".")[0] + ".self_s"] += end - start - kids
        out.update(self.counters)
        out["fock.rotations_per_axis"] = (
            out["fock.joint_photon_distribution.calls"] / len(self._pairs)
            if self._pairs else 0.0
        )
        out["trace.unattributed_s"] = wall_s - root_s
        return out
