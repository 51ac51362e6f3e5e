#!/usr/bin/env python3
"""Run the layer benchmarks in ``benchmarks/`` and write their summary as one JSON file.

Usage, from the root of a checkout:

    python scripts/bench.py --out BENCH_15.json
    python scripts/bench.py --out BENCH_15.json --baseline ../parent --pairs 6

Each side runs ``benchmarks/`` of this checkout under pytest-benchmark, in a
fresh process with BLAS on one thread.  ``--baseline DIR`` names a second
git checkout (another commit of this repository); its ``src/`` is benchmarked
with the same benchmark files, so both sides time the same code paths, and
the two sides alternate ``--pairs`` times on the same machine.  The file
holds the machine stamp (nproc, CPU, Python, numpy, BLAS name, version and
thread count) and, per side and benchmark, the median and IQR in seconds and
the round count, pooled over the side's runs.  Each side is labelled by
its checkout's git HEAD, with ``+dirty`` for uncommitted changes.  A benchmark
that fails on one side, such as one that calls an API the baseline lacks, is
left out of that side's results.  With ``--baseline`` the file also holds, and
the table prints, each benchmark's ratio of this checkout's median to the
baseline's.  The benchmarks of code a change does not touch are its controls:
a ratio is a gain or a loss only outside the spread of the controls' ratios
on the same run.
"""

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("EMBEDKIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the JSON file to write, e.g. BENCH_15.json")
    ap.add_argument("--baseline", help="a second checkout whose src/ is benchmarked too")
    ap.add_argument("--pairs", type=int, default=1, help="runs of each side, alternating")
    return ap.parse_args(argv)


def _git_label(root: Path) -> str:
    """HEAD's short hash, with ``+dirty`` when tracked files differ from it."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root, check=True,
                              capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                               check=True, capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "checkout"
    return head + ("+dirty" if dirty else "")


def _blas_threads():
    """The thread count OpenBLAS reports in this process, asked as the perfbench stamp asks it."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.blas_threads()


def machine() -> dict:
    """The stamp of this machine; call it after the thread variables are set."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def run_side(src: Path, json_path: Path) -> dict:
    """One pytest-benchmark run of ``benchmarks/`` against ``src``: {name: [round times]}."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(ROOT / "benchmarks"),
           "--benchmark-only", f"--benchmark-json={json_path}", "--benchmark-disable-gc"]
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})
    # exit status 1: some benchmarks failed, such as one that calls an API the
    # baseline lacks; that side reports the others
    status = subprocess.run(cmd, cwd=ROOT, env=env).returncode
    if status not in (0, 1):
        raise subprocess.CalledProcessError(status, cmd)
    report = json.loads(json_path.read_text())
    return {f"{Path(b['fullname'].split('::')[0]).name}::{b['name']}": b["stats"]["data"]
            for b in report["benchmarks"]}


def summary(times: list) -> dict:
    import numpy as np
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median_s": float(median), "iqr_s": float(q3 - q1), "rounds": len(times)}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sides = {_git_label(ROOT): ROOT / "src"}
    if args.baseline:
        baseline = Path(args.baseline).resolve()
        label = _git_label(baseline)
        if label in sides:
            sys.exit(f"{baseline} and this checkout are both labelled {label}: nothing to compare")
        sides = {label: baseline / "src", **sides}
    rounds = {name: {} for name in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for name in order:
                for bench, times in run_side(sides[name], Path(tmp) / "b.json").items():
                    rounds[name].setdefault(bench, []).extend(times)
    record = {
        "machine": machine(),
        "pairs": args.pairs,
        "results": {name: {bench: summary(times) for bench, times in sorted(per.items())}
                    for name, per in rounds.items()},
    }
    results = record["results"]
    if args.baseline:
        parent, change = (results[name] for name in sides)     # the baseline comes first
        record["ratios"] = {bench: change[bench]["median_s"] / parent[bench]["median_s"]
                            for bench in sorted(set(parent) & set(change))}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for bench in sorted(set().union(*rounds.values())):
        cells = "  ".join(f"{name} {results[name][bench]['median_s'] * 1e3:9.3f} ms"
                          for name in rounds if bench in results[name])
        if bench in record.get("ratios", {}):
            cells += f"  ratio {record['ratios'][bench]:.3f}"
        print(f"{bench:72s} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
