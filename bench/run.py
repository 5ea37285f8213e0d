"""Run one workload of the curvbound benchmark and print its metrics.

    python3 bench/run.py --workload scenario-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports curvbound from ``src/``.
It prints every metric by name with its unit, then, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` times warm passes with tracing off and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  A summary
with an ungated context block, and the spans of a traced run, are written to
``.bench_out/``.
"""

import time

_T0 = time.perf_counter()  # set-up timing of a --setup-probe child starts here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Cap BLAS threads before numpy loads; set-up children inherit the cap.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import speed  # noqa: E402  (loads numpy, so after the cap)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_KERNEL_RUNS = 20
SETUP_TIMEOUT_S = 60
# Deviations below this are round-off; equality_digits reads at most 12 so that
# reordering float arithmetic does not move it, while a coarser stencil does.
ROUND_OFF_FLOOR = 1e-12
SHOWN_FAILURES = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one set-up sample (smoke test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only build the workload; print the seconds taken")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_seconds(args) -> float:
    """Median set-up time over fresh processes, at the reference speed.

    Set-up is importing curvbound, loading scenarios and building patches.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        seconds, kernel_s = map(float, done.stdout.split()[-2:])
        samples.append(speed.rescale(seconds, kernel_s))
    return statistics.median(samples)


def run_passes(run_one, seconds):
    """Closed loop: ``run_one(i)`` runs pass ``i``; passes follow one another
    until ``seconds`` have elapsed.  Returns what each call returned."""
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        out.append(run_one(len(out)))
    return out


def timed_run(reference, fn, lib, total) -> speed.PassTiming:
    result, timing = reference.timed(lambda: fn(lib))
    total.merge(result)
    return timing


def end_to_end(args, workload, workloads, total):
    setup = setup_seconds(args)
    lib = workloads.library()
    reference = speed.SpeedReference()
    passes = run_passes(lambda _: timed_run(reference, workload.run_pass, lib, total),
                        args.seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(p.rescaled for p in passes), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "equality_digits": (-math.log10(max(total.deviation, ROUND_OFF_FLOOR)), "digits"),
    }
    return metrics, passes


def per_layer(args, workload, workloads, total):
    import spans

    tracer = spans.Tracer()
    plain = workloads.library()
    traced = workloads.library(lambda fn: tracer.wrap(spans.span_name(fn), fn))
    reference = speed.SpeedReference()

    def traced_run(chunk):
        tracer.install()
        try:
            return timed_run(reference, chunk, traced, total)
        finally:
            tracer.uninstall()

    def pair(i):
        # Each chunk runs untraced and traced back to back, in alternating
        # order, so speed drift and warm caches hit both alike.
        untraced_parts, traced_parts = [], []
        for j, chunk in enumerate(workload.chunks):
            if (i + j) % 2:
                traced_parts.append(traced_run(chunk))
                untraced_parts.append(timed_run(reference, chunk, plain, total))
            else:
                untraced_parts.append(timed_run(reference, chunk, plain, total))
                traced_parts.append(traced_run(chunk))
        return speed.PassTiming.total(untraced_parts), speed.PassTiming.total(traced_parts)

    pairs = run_passes(pair, args.seconds)
    untraced, traced_passes = map(list, zip(*pairs))
    metrics = spans.layer_metrics(tracer, traced=traced_passes, untraced=untraced)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}.json")
    return metrics, untraced + traced_passes


def tail_note(times) -> str:
    """The highest percentile with at least ten passes beyond it, if any."""
    for pct in (99, 90):
        if len(times) * (100 - pct) >= 1000:
            value = statistics.quantiles(times, n=100)[pct - 1]
            return f"p{pct} of one pass = {value:.6g} s ({len(times)} passes)"
    return f"no tail percentile: {len(times)} passes leave fewer than 10 beyond p90"


def context(args, workload, passes) -> dict:
    """Ungated facts recorded beside every result."""
    import numpy
    import scipy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "curvbound").rglob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "chunks_per_pass": len(workload.chunks),
        "pass_s": [p.own for p in passes],
        "pass_s_at_reference_speed": [p.rescaled for p in passes],
        "kernel_s": [p.kernel_s for p in passes],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "curvbound" / "__init__.py").is_file():
        print(f"error: no curvbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import curvbound
    import workloads

    if Path(curvbound.__file__).resolve().parent != (SRC / "curvbound").resolve():
        print(f"error: curvbound was imported from {curvbound.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        make(args.seed, args.tiny)
        seconds = time.perf_counter() - _T0
        print(seconds, speed.SpeedReference().kernel_seconds(SETUP_KERNEL_RUNS))
        return 0

    workload = make(args.seed, args.tiny)
    # warm-up on the tiny inputs: lazy imports and first-call costs land here
    total = make(args.seed, tiny=True).run_pass(workloads.library())
    measured = workloads.PassResult()
    run = per_layer if args.trace else end_to_end
    metrics, passes = run(args, workload, workloads, measured)
    total.merge(measured)

    times = [p.own for p in passes]
    info = context(args, workload, passes)
    print("context " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    fail_rate = total.failed / total.attempted
    print(f"fail_rate = {fail_rate:.6g} ({total.failed} of {total.attempted} units)")
    if not args.trace:
        print(f"measured wall time of one pass = {statistics.median(times):.6g} s, "
              f"median of {len(times)} passes; {tail_note(times)}")
    for line in total.failures[:SHOWN_FAILURES]:
        print(f"failed: {line}", file=sys.stderr)

    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    summary = dict(result, fail_rate=fail_rate, context=info)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
