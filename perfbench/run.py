"""flowcodec benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload codec-ladder --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  With
`--trace 0` the result holds the end-to-end metrics of BENCHMARK.json,
their times scaled to a nominal machine by a reference loop (reference.py);
with `--trace 1` it holds the per-layer metrics of a traced run, per
cycle over the workload's input set.  `--smoke` shrinks every input so
that a run takes seconds.  Diagnostics go to stderr; the last line of
stdout is the result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads.  The convolutions here are
# small, and on two cores shared with other processes a second BLAS
# thread made single operations up to twice as slow whenever the other
# core was busy, which widened the run-to-run spread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

SETUP_REPEATS = 9


def load_package():
    """Import flowcodec from this checkout's source tree, or exit."""
    try:
        import flowcodec
    except ImportError as exc:
        sys.exit(f"cannot import flowcodec from {SRC}: {exc}")
    if Path(flowcodec.__file__).resolve().parent.parent != SRC:
        sys.exit(f"flowcodec imported from {flowcodec.__file__}, not from {SRC}")


def run_cycles(workload, state, rec, seconds: float, first: bool, pause, after=None,
               partial: bool = False) -> int:
    """Cycles until `seconds` have passed; at least one whole cycle.  With
    `partial`, a later cycle may stop between requests at the deadline,
    so that a run whose cycle is long still ends near `seconds`.
    `after()` runs after each cycle."""
    start = time.perf_counter()
    deadline = start + seconds if partial else None
    cycles = 0
    while cycles == 0 or time.perf_counter() - start < seconds:
        workload.cycle(state, rec, first and cycles == 0, pause, deadline if cycles else None)
        cycles += 1
        if after is not None:
            after()
    return cycles


def tail_percentile(samples: list[float], scale: float) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    p = int(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return f"none beyond p50 with {n} samples"
    return f"p{p} {statistics.quantiles(samples, n=100)[p - 1] * scale * 1e3:.1f} ms of {n} samples"


def end_to_end(workload, setup, seconds: float):
    from reference import NOMINAL_S, Reference
    from workloads import Recorder

    setup_s = []

    def set_up():
        start = time.perf_counter()
        state = setup()
        setup_s.append(time.perf_counter() - start)
        return state

    def set_up_again():
        if len(setup_s) < SETUP_REPEATS:
            set_up()

    # One set-up after each cycle, not all of them at the start: the
    # machine's speed drifts within a run, and their median should see
    # the same drift that the requests see.
    state = set_up()
    rec = Recorder(reference=Reference())
    cycles = run_cycles(workload, state, rec, seconds, True, contextlib.nullcontext,
                        set_up_again, partial=True)
    while len(setup_s) < SETUP_REPEATS:
        set_up()
    # every time below is scaled to the nominal machine (reference.py)
    scale = rec.reference.scale
    requests = rec.samples()
    print(f"reference loop: median {NOMINAL_S / scale * 1e3:.1f} ms over "
          f"{len(rec.reference.samples)} samples, times scaled by {scale:.4g}; unscaled: "
          f"throughput {rec.kpx_s() if requests else 0.0:.4g} kpx/s, "
          f"latency {rec.ms_p50() if requests else 0.0:.1f} ms, set-up {statistics.median(setup_s):.4g} s",
          file=sys.stderr)
    print(f"{cycles} cycles, {len(requests)} requests over {len(rec.pixels)} inputs, "
          f"tail {tail_percentile(requests, scale)}", file=sys.stderr)
    for kind in rec.times:
        if kind != "request":
            print(f"{kind}_kpx_s {rec.kpx_s(kind) / scale:.4g} kpx/s, "
                  f"{kind}_ms_p50 {rec.ms_p50(kind) * scale:.1f} ms, "
                  f"tail {tail_percentile(rec.samples(kind), scale)}", file=sys.stderr)
    print(f"failed_ratio {rec.failed / max(rec.attempted, 1):.4g}", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setup_s) * scale, "s"),
        "throughput_kpx_s": (rec.kpx_s() / scale if requests else 0.0, "kpx/s"),
        "latency_ms_p50": (rec.ms_p50() * scale if requests else 0.0, "ms"),
        "bpp": (statistics.fmean(rec.bpp) if rec.bpp else 0.0, "bit/px"),
        "psnr_db": (statistics.fmean(rec.psnr) if rec.psnr else 0.0, "dB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return rec, metrics


def per_layer(workload, setup, seconds: float):
    from tracer import UNITS, Tracer
    from workloads import Recorder

    state = setup()
    rec = Recorder()
    start = time.perf_counter()
    run_cycles(workload, state, rec, 0, True, contextlib.nullcontext)
    untraced_wall = rec.busy_s
    # whole cycles, as the metrics are per cycle; the untraced one counts
    # toward the run time
    left = seconds - (time.perf_counter() - start)
    tracer = Tracer()
    traced = Recorder()
    with tracer.installed():
        cycles = run_cycles(workload, state, traced, left, False, tracer.paused)
    if tracer.absent:
        print(f"trace hooks absent: {', '.join(tracer.absent)}", file=sys.stderr)
    for broken in tracer.broken:
        print(f"trace counter dropped, {broken}", file=sys.stderr)
    values = tracer.metrics(cycles, traced.busy_s, untraced_wall)
    for section in ("z0", "z1", "z2"):
        values[f"codec.{section}_bytes"] = float(
            sum(n for name, n in rec.section_bytes.items() if name.startswith(section))
        )
    rec.attempted += traced.attempted
    rec.failed += traced.failed
    return rec, {name: (values[name], unit) for name, unit in UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    params = workload.smoke if args.smoke else workload.full
    setup = functools.partial(workload.setup, args.seed, **params)
    if args.trace:
        rec, metrics = per_layer(workload, setup, args.seconds)
    else:
        rec, metrics = end_to_end(workload, setup, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
