"""One timed pass over a workload's op list, in a fresh interpreter.

Started by run.py with the BLAS thread count already pinned in the
environment, so it holds before numpy is imported.  Writes one JSON
record: set-up time, pass wall time, peak RSS, per-op exit status and
time, and, when traced, the per-layer summary.

    python3 bench/pass_main.py OPS_JSON OUT_DIR RECORD_JSON [--trace] SPAWNED

SPAWNED is the CLOCK_MONOTONIC reading taken by the parent just before
it started this process, so set-up time counts interpreter start-up too.
"""

import time  # first: nothing before the import below should be slow

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs",
                                  "lib*openblas*.so*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv) -> int:
    ops_path, out_dir, record_path = argv[:3]
    traced = argv[3] == "--trace"
    spawned = float(argv[-1])

    import stokespace.cli  # noqa: F401  (the set-up being timed)

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    pkg_file = Path(sys.modules["stokespace"].__file__).resolve()
    expected = Path(os.environ["STOKESPACE_BENCH_SRC"]).resolve()
    if expected not in pkg_file.parents:
        print(f"imported stokespace from {pkg_file}, not from {expected}",
              file=sys.stderr)
        return 2

    ops = json.loads(Path(ops_path).read_text())
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli = sys.modules["stokespace.cli"]  # looked up after patching
    results = []
    clock = time.perf_counter
    pass_start = clock()
    for op in ops:
        args = op["argv"] + ["--out", os.path.join(out_dir, op["id"]),
                             "--no-timestamp"]
        error = None
        stderr = io.StringIO()  # the CLI reports errors and warnings here
        start = clock()
        try:
            with contextlib.redirect_stderr(stderr):
                rc = cli.main(args)
        except Exception:  # an op that raises is a failed op, not a crash
            rc = None
            error = traceback.format_exc(limit=3)
        elapsed = clock() - start
        if rc != 0 and error is None:
            error = stderr.getvalue()
        results.append({"id": op["id"], "rc": rc, "s": elapsed, "error": error})
    wall_s = clock() - pass_start
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": _blas_threads(),
        "ops": results,
    }
    if tracer is not None:
        record["layers"] = tracer.summary(wall_s)
    Path(record_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
