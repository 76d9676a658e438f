"""Seeded, closed-loop benchmark of tcamsplit.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

One client in one process calls the package's public functions back to
back, each call (an "op") starting when the previous one has returned and
been checked.  The checkout's own `src/` is imported; nothing is installed.

--trace 0 prints the end-to-end metrics: setup_s (median over several fresh
processes that import tcamsplit and build the inputs), ops_per_s, op_ms_p50,
op_ms_p90 and peak_rss_mb.  --trace 1 runs half the time untraced and half
with every layer wrapped, prints per-layer calls, self time and median call
time, counters, and the tracing overhead (traced minus untraced), and writes
the spans to .perfbench_out/.

Times are speed-normalized.  On a shared host the same work takes anywhere
from 1.0 to 2.2 times its fastest time, in phases of seconds, which no
run length averages away.  So a fixed pure-Python task (`calibrate`) is
timed before and after every op, and each op's wall time is scaled by
CALIBRATION_MS / (the larger of those two calibration times): the time the
op would take with the host at full speed.  The larger one is used because
an op that straddles the start or end of a slow phase ran partly slow;
across separate runs it gave the steadiest p90.  The calibration task
does not touch tcamsplit, so any change in the program's own speed shows in
full.  Raw wall-clock figures are kept in the run record.

Every op's output is checked outside the timed region; a failed check counts
in `failed`.  After the timed loop the workload's golden cases run and their
output digests are compared with perfbench/golden.json.  The last line of
stdout is the result object; the line before it records the run's context.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"

MIN_OPS = 100  # leaves ten samples beyond p90
MAX_LOOP_SECONDS = 60  # a loop stops here even short of MIN_OPS
SETUP_PROBES = 5
# calibrate() at full speed: its 1st percentile on a 2-core x86-64 host
# under CPython 3.11.  It only sets the scale of the normalized times.
CALIBRATION_MS = 0.70
SETUP_CALIBRATIONS = 9  # before and after each set-up probe
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
                    "op_ms_p90": "ms", "peak_rss_mb": "MiB"}


def calibrate() -> float:
    """Milliseconds taken by a fixed task of dict updates keyed by tuples,
    integer arithmetic and a sort, with the garbage collector off."""
    gc.disable()
    try:
        start = time.perf_counter_ns()
        table: dict[tuple[int, int], int] = {}
        for i in range(3000):
            key = (i & 255, i >> 4)
            table[key] = table.get(key, 0) + i * i % 7
        sorted(table.values())
        return (time.perf_counter_ns() - start) / 1e6
    finally:
        gc.enable()


def slowdowns(calibrations: list[float]) -> list[float]:
    """Per op: the host's slowdown against full speed, from the slower of
    the calibrations just before and just after it."""
    return [max(a, b) / CALIBRATION_MS for a, b in zip(calibrations, calibrations[1:])]


def use_checkout_source() -> None:
    """Import tcamsplit from this checkout's src/ or stop."""
    if not (SRC / "tcamsplit" / "__init__.py").is_file():
        sys.exit(f"error: no tcamsplit package under {SRC}")
    sys.path.insert(0, str(SRC))


def set_up(name: str, seed: int, before_build=None):
    """Import tcamsplit and build the workload's inputs; return it and the seconds taken."""
    start = time.perf_counter()
    import workloads  # imports tcamsplit

    if before_build:
        before_build()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    workload = workloads.build(name, seed, golden)
    return workload, time.perf_counter() - start


def probe_set_up(name: str, seed: int) -> dict:
    """One set-up in this fresh process, with calibrations around it."""
    calibrations = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    _, seconds = set_up(name, seed)
    calibrations += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    slowdown = statistics.median(calibrations) / CALIBRATION_MS
    return {"setup_s": seconds / slowdown, "wall_s": seconds}


def probe_setups(name: str, seed: int) -> list[dict]:
    """Set-ups in fresh interpreters, so the import is never cached."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return probes


def timed_loop(workload, seconds: float, tracer=None) -> dict:
    """Run whole cycles of the workload's inputs, so every class keeps its
    exact share, until `seconds` have passed and MIN_OPS ops ran."""
    op_ms: list[float] = []
    calibrations: list[float] = []
    passed = 0
    failures: list[str] = []
    clock = time.perf_counter_ns
    start = time.perf_counter()
    i = 0
    while True:
        if i % workload.CYCLE == 0:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and i >= MIN_OPS) or elapsed >= MAX_LOOP_SECONDS:
                break
        item = workload.item(i)
        calibrations.append(calibrate())
        if tracer:
            tracer.begin_op(i, getattr(item, "kind", ""), getattr(item, "path", ""))
        t0 = clock()
        try:
            result = workload.run(item)
        except Exception as exc:  # the op failed; count it and keep going
            op_ms.append((clock() - t0) / 1e6)
            error = f"{type(exc).__name__}: {exc}"
        else:
            op_ms.append((clock() - t0) / 1e6)
            try:
                error = workload.check(item, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append(f"op {i}: {error}")
        else:
            passed += 1
        i += 1
    calibrations.append(calibrate())
    slowdown = slowdowns(calibrations)
    return {
        "attempted": i,
        "failures": failures,
        "metrics": op_metrics([ms / s for ms, s in zip(op_ms, slowdown)], passed),
        "wall": op_metrics(op_ms, passed),
        "median_slowdown": statistics.median(slowdown),
    }


def op_metrics(ms: list[float], passed: int) -> dict:
    return {
        "ops_per_s": passed / (sum(ms) / 1e3),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10)[-1],
    }


def golden_mismatches(workload, golden: dict) -> list[str]:
    """Outputs of the fixed golden cases whose digest differs from the record."""
    bad = []
    for case, item in workload.golden_cases().items():
        digest = workload.digest(item, workload.run(item))
        if digest != golden.get(case):
            bad.append(f"{workload.name}/{case}: {digest} != {golden.get(case)}")
    return bad


def load_average() -> list[float]:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return []


def source_identity() -> dict:
    """The commit when the checkout is a git work tree, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile", "audit", "montecarlo", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout_source()

    if args.setup_probe:
        print(json.dumps(probe_set_up(args.workload, args.seed)))
        return 0

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **source_identity(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "loadavg_start": load_average(),
    }
    probes = [] if args.trace else probe_setups(args.workload, args.seed)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    workload, _ = set_up(args.workload, args.seed, tracer and tracer.install)
    import tcamsplit

    if not Path(tcamsplit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: tcamsplit imported from {tcamsplit.__file__}, not {SRC}")

    if tracer:
        tracer.uninstall()
        loops = [timed_loop(workload, args.seconds / 2)]
        tracer.install()
        loops.append(timed_loop(workload, args.seconds / 2, tracer))
        tracer.uninstall()
        plain, traced = (loop["metrics"] for loop in loops)
        metrics = tracer.metrics()
        for key, unit in (("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms")):
            metrics[f"trace.overhead.{key}"] = {"value": traced[key] - plain[key], "unit": unit}
    else:
        loops = [timed_loop(workload, args.seconds)]
        values = {
            **loops[0]["metrics"],
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    mismatches = golden_mismatches(workload, golden.get(args.workload, {}))
    attempted = sum(loop["attempted"] for loop in loops)
    failures = [f for loop in loops for f in loop["failures"]]
    for line in failures[:10] + mismatches:
        print(line, file=sys.stderr)
    context.update({
        "loadavg_end": load_average(),
        "ops": [loop["attempted"] for loop in loops],
        "fail_frac": len(failures) / attempted,
        "golden_mismatches": mismatches,
        "median_slowdown": [loop["median_slowdown"] for loop in loops],
        "wall": [loop["wall"] for loop in loops],
        "setup_probes": probes,
    })
    if tracer:
        context["missing"] = tracer.missing
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file, context)
        context["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps({"run": context}))
    print(json.dumps({
        "correct": not failures and not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
