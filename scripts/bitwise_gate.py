#!/usr/bin/env python3
"""Check that training and evaluation keep every bit against a baseline checkout.

Usage, from the root of a checkout:

    python scripts/bitwise_gate.py --baseline ../parent

For seeds 1-3 of both perfbench workloads, the inputs are built once, with
perfbench's own ``bench.setup`` on this checkout.  Each tree, the baseline
first, then runs in a fresh process with its own ``src/`` and BLAS on one
thread: it trains the workload's manifest with ``Trainer``, evaluates the
final checkpoint on the held-out pairs with ``evaluate_checkpoint`` and embeds
the corpus with ``embed_texts``.  The gate compares the bytes of every
run-directory file, the eval metrics and the embedding bytes.  It exits 1
naming the first file or value that differs, and 0 when all are equal.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = [(workload, seed) for workload in ("toy-pipeline", "mining-eval") for seed in (1, 2, 3)]
THREAD_VARS = ("EMBEDKIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# one tree's run over built inputs: argv is (inputs dir, output dir)
_TREE_RUN = """
import json, sys
from pathlib import Path
from embedkit import pipeline
inputs, out = Path(sys.argv[1]), Path(sys.argv[2])
spec = json.loads((inputs / "gate.json").read_text())
manifest = pipeline.RunManifest.from_yaml(inputs / "manifest.yaml")
manifest.output_dir = str(out / "run")
ckpt = pipeline.Trainer(manifest).run()
metrics = pipeline.evaluate_checkpoint(ckpt, inputs / "heldout.jsonl", spec["ks"])
(out / "eval.json").write_text(json.dumps(metrics, sort_keys=True))
encoder, tokenizer, _ = pipeline.load_encoder(ckpt)
(out / "embeddings.bin").write_bytes(pipeline.embed_texts(encoder, tokenizer, spec["corpus"]).tobytes())
"""


def _perfbench():
    """``perfbench/bench.py`` as it is; it imports ``spans`` from its own directory."""
    here = str(ROOT / "perfbench")
    spec = importlib.util.spec_from_file_location("perfbench_bench", ROOT / "perfbench" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # its dataclasses look their module up
    sys.path.insert(0, here)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(here)
        del sys.modules[spec.name]
    return module


def build_inputs(bench, workload: str, seed: int, out: Path) -> Path:
    """perfbench's inputs for one case, plus the eval ks and the corpus the trees embed."""
    inputs = bench.setup(bench.WORKLOADS[workload], seed, out)
    (out / "gate.json").write_text(json.dumps({"ks": list(bench.EVAL_KS), "corpus": inputs.corpus}))
    return out


def run_tree(tree: Path, inputs: Path, out: Path) -> bool:
    """Train, evaluate and embed ``inputs`` with ``tree``'s ``src/``; whether the process succeeded."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{var: "1" for var in THREAD_VARS})
    return subprocess.run([sys.executable, "-c", _TREE_RUN, str(inputs), str(out)], env=env).returncode == 0


def first_difference(a: Path, b: Path) -> str | None:
    """The first run-directory file, eval metric or embedding that differs between two tree outputs."""
    files = {side: sorted(str(p.relative_to(side / "run")) for p in (side / "run").rglob("*")
                          if p.is_file()) for side in (a, b)}
    for name in sorted(set(files[a]) | set(files[b])):
        if name not in files[a] or name not in files[b]:
            return f"run/{name}: only in {a if name in files[a] else b}"
        if (a / "run" / name).read_bytes() != (b / "run" / name).read_bytes():
            return f"run/{name}: bytes differ"
    metrics = [json.loads((side / "eval.json").read_text()) for side in (a, b)]
    for key in sorted(set(metrics[0]) | set(metrics[1])):
        if metrics[0].get(key) != metrics[1].get(key):
            return f"eval metric {key}: {metrics[0].get(key)} vs {metrics[1].get(key)}"
    if (a / "embeddings.bin").read_bytes() != (b / "embeddings.bin").read_bytes():
        return "embeddings: bytes differ"
    return None


def gate(baseline: Path, cases, work: Path) -> str | None:
    """Run ``cases`` of (workload, seed) in the baseline and in this checkout; the first difference."""
    bench = _perfbench()
    for workload, seed in cases:
        case = work / f"{workload}-seed{seed}"
        inputs = build_inputs(bench, workload, seed, case / "inputs")
        for side, tree in (("baseline", baseline), ("change", ROOT)):
            if not run_tree(tree, inputs, case / side):
                return f"{workload} seed {seed}: the {side} run failed ({tree})"
        diff = first_difference(case / "baseline", case / "change")
        if diff is not None:
            return f"{workload} seed {seed}: {diff}"
        print(f"{workload} seed {seed}: equal", flush=True)
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, help="a second checkout of this repository")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))      # the inputs are built with this checkout's embedkit
    with tempfile.TemporaryDirectory() as tmp:
        diff = gate(Path(args.baseline).resolve(), CASES, Path(tmp))
    if diff is not None:
        print(f"bitwise gate: {diff}", file=sys.stderr)
        return 1
    print("bitwise gate: every run file, eval metric and embedding is equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
