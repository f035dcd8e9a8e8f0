"""stokespace benchmark: seeded CLI session workloads, checked and timed.

    python3 bench/run.py --workload {directions,ensemble-grid,lab-session}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.
Each timed pass runs the workload's op list once in a fresh interpreter
(every CLI user pays import and cache fill on every call), with the BLAS
thread count pinned to 1 before numpy loads.  Passes repeat while the
next one fits in S seconds (at least MIN_PASSES).  Afterwards one
process checks the artifacts of the first pass against independent
references, and the sha256 of every artifact of every pass must match
the first pass (--no-timestamp promises byte-identical reruns).
Another process records the accuracy probe table and the environment.

--trace 0 reports the end-to-end metrics:
  wall_s       wall time of one pass over the op list, failed ops
               included; median over passes, at reference speed
  setup_s      interpreter start until `import stokespace.cli` returns;
               median over passes, at reference speed
  peak_rss_mb  ru_maxrss of the pass process; median over passes
  ok_op_share  ops that passed their reference check / ops attempted
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of bench/tracer.py from the fastest traced pass, plus
trace.overhead_s (fastest traced minus fastest untraced wall_s), all
as measured.

On a shared host the speed of the machine drifts by up to ~2x in spells
of minutes, longer than a run, and often on one vCPU at a time.  So each
pass is pinned to the CPU that runs a short probe loop fastest just
before it starts, and bench/speed.py, a fixed kernel in a fresh
interpreter, is timed SPEED_SPAWNS times on that CPU before every pass
and after the last.  "At reference speed" means the median over passes
of the pass time times REFERENCE_S over the mean speed.py time just
before and just after that pass: the time the pass would take on the
machine state in which speed.py takes REFERENCE_S.  speed.py is
benchmark code, so a change to the program moves wall_s and setup_s and
not the scale.  Every raw pass time and speed.py time is kept in the
record, and the summary prints the raw median pass time and the range
of the scale.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  An op fails if it raises, exits non-zero or misses its
reference check; `failed` counts every failed op.  Ops that reproduce a
known defect (workloads.KNOWN_DEFECTS) are counted like any other, but
only a failure of any other op, or artifacts that differ between
passes, makes `correct` false.  The full record (environment, per-op
checks and digests, accuracy table, per-pass figures) goes to
bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import unit_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_PASSES = 3
# a run must end within 180 s: passes get 120 s, the checker and the
# probe table 25 s each
PASS_BUDGET_S = 120
AFTER_PASSES_TIMEOUT_S = 25
BLAS_THREADS = "1"
SPEED_SPAWNS = 2  # bench/speed.py runs per reading
# bench/speed.py time, in seconds, of the machine state the reported
# times are scaled to: the median of 88 readings over 6 runs on the
# shared 2-vCPU x86_64 VM the benchmark was defined on (Python 3.11,
# numpy 2.4, scipy, OpenBLAS 0.3.31; deciles 0.49 and 0.70 s).
REFERENCE_S = 0.6
CPU_PROBE_LOOPS = 300_000   # ~25 ms of pure Python per allowed CPU

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_op_share": "fraction"}


class BenchError(RuntimeError):
    """The harness could not measure: no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["STOKESPACE_BENCH_SRC"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _quietest_cpu() -> int | None:
    """The allowed CPU that runs a short fixed loop fastest right now.

    On a shared host one vCPU at a time can run ~1.5x slower for seconds
    to minutes while the other stays fast; pinning each pass to the
    currently faster one keeps that contention out of the pass time.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None
    speed = {}
    try:
        for cpu in allowed:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            total = 0
            for i in range(CPU_PROBE_LOOPS):
                total += i
            speed[cpu] = time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, allowed)
    return min(speed, key=speed.get)


def _speed_reading(cpu: int | None) -> list[float]:
    """Times of SPEED_SPAWNS runs of bench/speed.py on `cpu`, each from
    spawn until its kernel round is done."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    times = []
    for _ in range(SPEED_SPAWNS):
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "speed.py"), repr(spawned)],
                                  capture_output=True, text=True, env=_child_env(),
                                  cwd=ROOT, timeout=AFTER_PASSES_TIMEOUT_S, preexec_fn=pin)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError("speed.py timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"speed.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def _run_child(args: list[str], log: Path, timeout: float, cpu: int | None = None) -> None:
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    with open(log, "ab") as fh:
        try:
            proc = subprocess.run([sys.executable, *args], stdout=fh, stderr=fh,
                                  env=_child_env(), cwd=ROOT, timeout=timeout,
                                  preexec_fn=pin)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"{args[0]} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"{args[0]} exited {proc.returncode}:\n{tail}")


def _digests(op_dir: Path) -> dict:
    if not op_dir.is_dir():
        return {}
    return {p.relative_to(op_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(op_dir.rglob("*")) if p.is_file()}


def _run_pass(work: Path, index: int, traced: bool, timeout: float) -> dict:
    out = work / f"pass{index}"
    record = work / f"pass{index}.json"
    args = [str(BENCH / "pass_main.py"), str(work / "ops.json"), str(out), str(record)]
    if traced:
        args.append("--trace")
    cpu = _quietest_cpu()
    speed_s = _speed_reading(cpu)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    _run_child(args + [repr(spawned)], work / "pass.log", timeout, cpu)
    rec = json.loads(record.read_text())
    rec["traced"] = traced
    rec["cpu"] = cpu
    rec["speed_s"] = speed_s
    rec["digests"] = {op["id"]: _digests(out / op["id"]) for op in rec["ops"]}
    if index > 0:  # the checker reads pass 0 only; the rest are compared by digest
        shutil.rmtree(out, ignore_errors=True)
    return rec


def tally(ops: list[dict], passes: list[dict], checks: dict) -> dict:
    """The gate: an op fails in a pass if it exited non-zero or raised,
    missed its reference check, or wrote other bytes than in pass 0."""
    by_id = {op["id"]: op for op in ops}
    out = {"attempted": 0, "failed": 0, "unexpected_failures": [],
           "nondeterministic": [], "failures": {}}
    for i, rec in enumerate(passes):
        for res in rec["ops"]:
            op_id = res["id"]
            out["attempted"] += 1
            same = rec["digests"][op_id] == passes[0]["digests"][op_id]
            if not same:
                out["nondeterministic"].append(f"pass{i}:{op_id}")
            if res["rc"] == 0 and checks[op_id]["ok"] and same:
                continue
            out["failed"] += 1
            if res["rc"] != 0:
                reason = res["error"] or f"exit {res['rc']}"
            elif not checks[op_id]["ok"]:
                reason = checks[op_id]["detail"]
            else:
                reason = "artifacts differ from pass 0"
            out["failures"].setdefault(op_id, {
                "known_defect": by_id[op_id]["known_defect"],
                "reason": str(reason).strip()[-400:]})
            if by_id[op_id]["known_defect"] is None:
                out["unexpected_failures"].append(f"pass{i}:{op_id}")
    out["correct"] = not out["unexpected_failures"] and not out["nondeterministic"]
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            size: float = 1.0) -> dict:
    if not (SRC / "stokespace" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    ops = workloads.generate(workload, seed, size)
    work.mkdir(parents=True)
    (work / "ops.json").write_text(json.dumps(ops))

    passes = []
    start = time.monotonic()
    deadline = start + PASS_BUDGET_S
    durations = []
    while True:
        now = time.monotonic()
        # stop when a typical pass would end after `seconds`, so that a run
        # measures for `seconds` and not up to one pass more
        if (len(passes) >= MIN_PASSES
                and now + statistics.median(durations) > start + seconds):
            break
        if passes and now + max(durations) > deadline:  # the next pass would not fit
            break
        passes.append(_run_pass(work, len(passes), trace and len(passes) % 2 == 1,
                                timeout=deadline - now))
        durations.append(time.monotonic() - now)
    if trace and len(passes) < 2:
        raise BenchError("no time for a traced pass after the untraced one")
    readings = [p["speed_s"] for p in passes] + [_speed_reading(passes[-1]["cpu"])]
    # each pass is reported at the machine speed where speed.py takes
    # REFERENCE_S, judged by the speed.py runs just before and just after
    # it: the speed drifts within a run too, and pairing each pass with
    # its neighbours steadied wall_s more than one scale for the run
    for i, p in enumerate(passes):
        p["scale"] = REFERENCE_S / statistics.mean(readings[i] + readings[i + 1])

    checks_path = work / "checks.json"
    _run_child([str(BENCH / "check.py"), str(work / "ops.json"), str(work / "pass0"),
                str(checks_path)], work / "check.log", AFTER_PASSES_TIMEOUT_S)
    checks = json.loads(checks_path.read_text())
    probes_path = work / "probes.json"
    _run_child([str(BENCH / "probes.py"), str(probes_path)], work / "probes.log",
               AFTER_PASSES_TIMEOUT_S)
    probes = json.loads(probes_path.read_text())
    gate = tally(ops, passes, checks)

    timed = [p for p in passes if not p["traced"]]
    if trace:
        # one whole traced pass (the fastest, the least disturbed), so its module
        # self times and unattributed time add up to its wall time exactly
        fastest = min((p for p in passes if p["traced"]), key=lambda p: p["wall_s"])
        layers = dict(fastest["layers"])
        layers["trace.wall_s"] = fastest["wall_s"]
        layers["trace.overhead_s"] = fastest["wall_s"] - min(p["wall_s"] for p in timed)
        metrics = {name: {"value": layers[name], "unit": unit_of(name)}
                   for name in sorted(layers)}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] * p["scale"] for p in timed),
            "setup_s": statistics.median(p["setup_s"] * p["scale"] for p in timed),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
            "ok_op_share": (gate["attempted"] - gate["failed"]) / gate["attempted"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {**probes["environment"], "blas_threads_env": BLAS_THREADS,
                        "blas_threads": passes[0]["blas_threads"]},
        "accuracy": probes["accuracy"],
        **gate,
        "metrics": metrics,
        "speed": {"reference_s": REFERENCE_S, "readings": readings},
        "passes": [{k: p[k] for k in ("traced", "cpu", "speed_s", "scale", "setup_s",
                                      "wall_s", "peak_rss_mb")}
                   | {"op_s": {r["id"]: r["s"] for r in p["ops"]}} for p in passes],
        "checks": checks,
        "digests": passes[0]["digests"],
        "ops": ops,
    }


def _print_summary(result: dict) -> None:
    env = result["environment"]
    print(f"# workload {result['workload']} seed {result['seed']} "
          f"trace {int(result['trace'])}: {len(result['passes'])} passes")
    print("# environment " + json.dumps(env, sort_keys=True))
    acc = result["accuracy"]
    print("# splitter norm defect |sum p - 1| at N: "
          + ", ".join(f"{n}: {v}" for n, v in acc["splitter_norm_defect"].items()))
    print("# mgf rel. error vs closed form (balanced, auto cutoff): "
          + ", ".join(f"{k} (cutoff {v['cutoff']}): {v['rel_error']}"
                      for k, v in acc["mgf_rel_error"].items()))
    for op_id, f in result["failures"].items():
        tag = f"known defect {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        print(f"# failed op {op_id} [{tag}]: {f['reason'].splitlines()[-1]}")
    walls = sorted(p["wall_s"] for p in result["passes"] if not p["traced"])
    print(f"# untraced pass wall times as measured: n={len(walls)}, min {walls[0]:.4g} s, "
          f"median {statistics.median(walls):.4g} s, max {walls[-1]:.4g} s")
    times = [t for r in result["speed"]["readings"] for t in r]
    scales = sorted(p["scale"] for p in result["passes"] if not p["traced"])
    print(f"# speed.py: median {statistics.median(times):.4g} s over {len(times)} runs; "
          f"scale to reference speed per pass {scales[0]:.4g} to {scales[-1]:.4g}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = BENCH / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    _print_summary(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
