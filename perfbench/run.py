"""Run one benchmark workload against the anonauth library in ``src/``.

    python3 perfbench/run.py --workload auth-2048 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload runs whole cycles until ``--seconds`` have
passed, untraced, and the last line printed is a JSON object with the
end-to-end metrics. Times are scaled to a reference speed measured around
every cycle (see ``refspeed.py``); the report also gives them as measured. With ``--trace 1`` it runs a fixed batch of cycles
twice from the same seed, first untraced and then with every layer call
wrapped in a span, and prints the per-layer metrics and the tracing
overhead (traced wall time minus untraced). Spans are written to
``perfbench/out/trace-<workload>.csv``. The lines before the last one
are a readable report.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import refspeed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3
FAILURES_SHOWN = 20


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_library():
    """Import anonauth from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "anonauth" / "__init__.py").is_file():
        raise BenchError(f"no anonauth sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import anonauth

    if Path(anonauth.__file__).resolve().parent != (SRC / "anonauth").resolve():
        raise BenchError(f"anonauth imported from {anonauth.__file__}, not {SRC}")
    import workloads

    return workloads


def environment() -> dict:
    import cryptography

    try:
        import gmpy2  # noqa: F401
        gmpy2_state = "present"
    except ImportError:
        gmpy2_state = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cryptography": cryptography.__version__,
        "gmpy2": gmpy2_state,
    }


def _cycles(workload, state, log, more) -> None:
    """Run cycles while ``more()``; each cycle's times are scaled to the
    reference speed measured around it."""
    speed = refspeed.Scaled()
    while more():
        t0 = time.perf_counter()
        workload.cycle(state, log)
        log.close_cycle(speed.lap(time.perf_counter() - t0))
    log.wall, log.raw_wall = speed.scaled_s, speed.raw_s
    workload.summarize(state, log)


def measure(workload, state, log, seconds: float) -> None:
    """Closed loop of whole rounds of cycles until ``seconds`` have passed."""
    start = time.perf_counter()
    _cycles(workload, state, log, lambda: log.cycles % workload.round_cycles
            or time.perf_counter() - start < seconds)


def batch(workload, state, log, cycles: int) -> None:
    _cycles(workload, state, log, lambda: log.cycles < cycles)


def run_untraced(wl, workload, seed: int, seconds: float, import_s: float):
    speed = refspeed.Scaled()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        raw = time.perf_counter() - t0
        setups.append(raw * speed.lap(raw))
    log = wl.OpLog()
    measure(workload, state, log, seconds)
    samples = log.scaled[workload.op_kind]
    p50, p90 = wl.percentiles_ms(samples)
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ops_per_s": (log.units / log.wall, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_p50, raw_p90 = wl.percentiles_ms(log.latency[workload.op_kind])
    log.info.update({
        "op_samples": (len(samples), "count"),
        "import_s": (import_s, "s"),
        "setups_s": ([round(x, 6) for x in setups], "s"),
        "raw_op_p50_ms": (raw_p50, "ms"),
        "raw_op_p90_ms": (raw_p90, "ms"),
        "raw_wall_s": (log.raw_wall, "s"),
        "raw_ops_per_s": (log.units / log.raw_wall, "1/s"),
    })
    return log.attempted, log.failures, metrics, log.info


def run_traced(wl, workload, seed: int):
    import layers
    from tracer import Tracer

    plain = wl.OpLog()
    batch(workload, workload.setup(seed), plain, workload.trace_cycles)

    tracer = Tracer()
    layers.install(tracer)
    try:
        state = workload.setup(seed)
        traced = wl.OpLog(tracer)
        batch(workload, state, traced, workload.trace_cycles)
    finally:
        tracer.uninstall()

    failures = plain.failures + traced.failures
    if plain.outcomes != traced.outcomes:
        failures.append("the traced batch ended differently from the untraced one")
    # as measured: the two batches run seconds apart, and the scaling kernel
    # would itself run beside the tracer's state
    plain_s, traced_s = plain.raw_wall, traced.raw_wall
    metrics = layers.metrics(tracer, traced_s - plain_s, plain_s)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}.csv"
    tracer.write_csv(trace_path)
    info = {
        "untraced_batch_s": (plain_s, "s"),
        "traced_batch_s": (traced_s, "s"),
        "spans_stored": (tracer.stored, "count"),
        "spans_dropped": (tracer.dropped, "count"),
    }
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return plain.attempted + traced.attempted, failures, metrics, info


def result_line(attempted: int, failures: list, metrics: dict) -> str:
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small parameters, for the self-test only")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    before = refspeed.kernel_s()
    kernel_raw = time.perf_counter() - t0
    try:
        wl = import_library()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_raw = time.perf_counter() - PROCESS_START - kernel_raw
    import_s = import_raw * refspeed.NOMINAL_S / ((before + refspeed.kernel_s()) / 2)
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload](args.tiny)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}"
          f"{' tiny' if args.tiny else ''}")
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        attempted, failures, metrics, info = run_traced(wl, workload, args.seed)
    else:
        attempted, failures, metrics, info = run_untraced(
            wl, workload, args.seed, args.seconds, import_s)
    for name, (value, unit) in info.items():
        print(f"info {name} {value} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(f"fail_ratio {len(failures) / attempted} ({len(failures)} of {attempted})")
    for message in failures[:FAILURES_SHOWN]:
        print(f"failure: {message}")
    if len(failures) > FAILURES_SHOWN:
        print(f"failure: ... and {len(failures) - FAILURES_SHOWN} more")
    print(result_line(attempted, failures, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
