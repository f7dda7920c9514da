"""Benchmark onticsim through its public entry points.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload sample-jsonl --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics. The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 when every check passed, 1 when a check failed, 2 on bad usage
or when the checkout holds no ``src/onticsim``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SETUPS = 9  # set-up is repeated and its median reported
BLAS_THREADS = "1"  # steadier than 2 on a shared 2-core machine; see README
IMPORT_PROBE = "import time; t = time.perf_counter(); import onticsim; print(time.perf_counter() - t)"


def import_seconds(src: Path) -> float:
    """Import time of onticsim in a fresh interpreter (numpy included)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def measure(workload, seconds: float, tracer=None) -> list[dict]:
    """Whole rounds until ``seconds`` have passed (at least one). With a
    tracer, rounds alternate untraced and traced (at least two of each), so
    that both kinds see the same machine; each round notes ``traced``."""
    from calibration import Calibrator

    calibrator = Calibrator(workload.KERNEL)
    rounds = []
    deadline = perf_counter() + seconds
    while len(rounds) < (4 if tracer else 1) or perf_counter() < deadline:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            result = workload.run_round(calibrator.pause)
        finally:
            if traced:
                tracer.uninstall()
        result["traced"] = traced
        rounds.append(result)
    return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "onticsim" / "__init__.py").is_file():
        print(f"error: no onticsim package under {src}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    # BLAS reads its thread count when numpy loads, so set it first.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))

    from calibration import Calibrator
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = BENCH / ".out"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        import onticsim  # noqa: F401  (the untimed import this process works with)

        # Each set-up is a fresh-interpreter import plus a build of the
        # inputs, rescaled by the calibration taken right after it.
        calibrator = Calibrator(WORKLOADS[args.workload].KERNEL)
        setups = []
        workload = None
        for _ in range(SETUPS):
            seconds = import_seconds(src)
            workload = None  # drop the previous inputs before building new ones
            workload = WORKLOADS[args.workload](args.seed, work)
            start = perf_counter()
            workload.setup()
            seconds += perf_counter() - start
            setups.append(seconds * calibrator.pause())

        if args.trace:
            tracer = Tracer()
            rounds = measure(workload, args.seconds, tracer)
            tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json")
            traced = [r for r in rounds if r["traced"]]
            values = tracer.layer_metrics(len(traced), sum(r["time"] for r in traced))
            # Each traced round against the untraced round just before it.
            ratios = [b["ref_time"] / a["ref_time"] for a, b in zip(rounds, rounds[1:]) if b["traced"]]
            values["bench.trace_overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
            wanted = spec["per_layer"]
        else:
            rounds = measure(workload, args.seconds)
            values = workload.metrics(rounds)
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wanted = spec["end_to_end"]
        errors = workload.check(rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
