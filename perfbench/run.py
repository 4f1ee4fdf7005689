"""adaexit benchmark: one workload run in this process, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_mixture --seed 0 --seconds 8 --trace 0

The program is imported from the checkout's own `src/`; without it the run
fails before printing a result. BLAS is pinned to one thread before numpy
loads. Lines before the last describe the machine, the run and its checks;
the last line is {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# The encoder's matrices are 32x64: more BLAS threads only measure the scheduler.
for var in THREAD_VARS:
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("serve_mixture", "serve_full", "pipeline")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import adaexit from this checkout, never from anywhere else."""
    if not (SRC / "adaexit" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark: {SRC / 'adaexit'} is missing")
    sys.path.insert(0, str(SRC))
    import adaexit

    if Path(adaexit.__file__).resolve().parent != SRC / "adaexit":
        sys.exit(f"error: imported adaexit from {adaexit.__file__}, not from {SRC}")
    return adaexit


def machine_header() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def metric_spec(trace: int) -> dict:
    """name -> unit of the metrics this mode reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    adaexit = import_program()
    import tracing
    import workloads

    import_s = time.perf_counter() - STARTED
    units = metric_spec(args.trace)
    print(json.dumps({"header": machine_header(), "adaexit": adaexit.__version__}), flush=True)

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if args.workload == "pipeline":
            outcome = workloads.run_pipeline_workload(
                args.seed, args.seconds, tracer, workdir, import_s)
        else:
            outcome = workloads.run_serve(
                args.workload, args.seed, args.seconds, tracer, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = outcome.metrics
    if tracer:
        spans = tracer.spans()
        OUT.mkdir(parents=True, exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        spans.save(trace_file)
        outcome.info["spans"] = {
            "count": int(spans.name.size),
            "file": trace_file.relative_to(ROOT).as_posix(),
            "missing_entry_points": tracer.missing,
        }
    missing = sorted(name for name in units if metrics.get(name) is None)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "default_seed": workloads.DEFAULT_SEED,
                      "confirm_seed": workloads.CONFIRM_SEED, **outcome.info}), flush=True)
    print(json.dumps({"checks": outcome.checks, "requests": {
        "sent": outcome.attempted,
        "succeeded": outcome.attempted - outcome.failed,
        "failed": outcome.failed,
    }, "missing_metrics": missing}), flush=True)
    ungated = {name: value for name, value in metrics.items() if name not in units}
    if ungated:
        print(json.dumps({"ungated_metrics": ungated}), flush=True)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name not in missing
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
