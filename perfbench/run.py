#!/usr/bin/env python3
"""Benchmark for embedkit: one workload per run, metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toy-pipeline --seed 1 --seconds 55 --trace 0

Workloads: toy-pipeline and mining-eval (see bench.py).  The seed
makes every input.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` installs span wrappers around embedkit's public
functions and prints the per-layer metrics instead.  The last line of stdout
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
environment stamp.  Run directories, a JSON record of each run and the span
file of a traced run go to ``perfbench-out/`` in the checkout.

The process runs BLAS on one thread (EMBEDKIT_THREADS=1) and imports embedkit
from the checkout's ``src/``; without that tree it exits with status 2.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toy-pipeline", "mining-eval")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "embedkit_threads": os.environ.get("EMBEDKIT_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "embedkit" / "__init__.py").is_file():
        print(f"perfbench: no embedkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # one BLAS thread; must be set before numpy is first imported
    os.environ["EMBEDKIT_THREADS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import bench

    out = ROOT / "perfbench-out" / args.workload
    tag = f"seed{args.seed}-trace{args.trace}"
    res = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), out / tag)
    checks = res["checks"]
    for msg in checks.messages:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = res["per_layer"] if args.trace else res["end_to_end"]
    if set(measured) != {m["name"] for m in listed}:
        print(f"perfbench: measured metrics {sorted(measured)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}
    env = environment(args)
    record = {"env": env, "metrics": metrics, "attempted": checks.attempted,
              "failed": checks.failed, "detail": res["detail"]}
    (out / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
