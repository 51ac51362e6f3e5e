#!/usr/bin/env python3
"""Check that training and evaluation keep every bit against a baseline checkout.

Usage, from the root of a checkout:

    python scripts/bitwise_gate.py --baseline ../parent

For seeds 1-3 of both perfbench workloads, each tree, the baseline first,
builds the inputs with this checkout's ``perfbench/bench.py`` (its ``setup``)
in a fresh process with the tree's own ``src/``, and the gate compares the
bytes of every input file.  Then each tree, in a fresh process with its own
``src/`` and BLAS on one thread, trains its inputs' manifest with ``Trainer``,
evaluates the final checkpoint on the held-out pairs with
``evaluate_checkpoint`` and embeds the corpus with ``embed_texts``.  The gate
compares the bytes of every run-directory file, the eval metrics and the
embedding bytes.  It exits 1 naming the first file or value that differs, and
0 when all are equal.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = [(workload, seed) for workload in ("toy-pipeline", "mining-eval") for seed in (1, 2, 3)]
THREAD_VARS = ("EMBEDKIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# one tree's inputs for one case: argv is (perfbench dir, workload, seed, inputs dir)
_TREE_INPUTS = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import bench
out = Path(sys.argv[4])
inputs = bench.setup(bench.WORKLOADS[sys.argv[2]], int(sys.argv[3]), out)
(out / "gate.json").write_text(json.dumps({"ks": list(bench.EVAL_KS), "corpus": inputs.corpus}))
"""

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


def _run_python(tree: Path, code: str, *args) -> bool:
    """Run ``code`` with ``args`` in a fresh process on ``tree``'s ``src/``; whether it succeeded."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{var: "1" for var in THREAD_VARS})
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env).returncode == 0


def build_inputs(tree: Path, workload: str, seed: int, out: Path) -> bool:
    """perfbench's inputs for one case built with ``tree``'s ``src/``, plus the eval ks and the
    corpus the trees embed; whether the process succeeded."""
    return _run_python(tree, _TREE_INPUTS, ROOT / "perfbench", workload, seed, out)


def run_tree(tree: Path, inputs: Path, out: Path) -> bool:
    """Train, evaluate and embed ``inputs`` with ``tree``'s ``src/``; whether the process succeeded."""
    out.mkdir(parents=True, exist_ok=True)
    return _run_python(tree, _TREE_RUN, inputs, out)


def files_difference(a: Path, b: Path, name: str) -> str | None:
    """The first file under ``a / name`` or ``b / name`` that the other lacks or whose bytes differ."""
    files = {side: sorted(str(p.relative_to(side / name)) for p in (side / name).rglob("*")
                          if p.is_file()) for side in (a, b)}
    for f in sorted(set(files[a]) | set(files[b])):
        if f not in files[a] or f not in files[b]:
            return f"{name}/{f}: only in {a if f in files[a] else b}"
        if (a / name / f).read_bytes() != (b / name / f).read_bytes():
            return f"{name}/{f}: bytes differ"
    return None


def first_difference(a: Path, b: Path) -> str | None:
    """The first run-directory file, eval metric or embedding that differs between two tree outputs."""
    diff = files_difference(a, b, "run")
    if diff is not None:
        return diff
    metrics = [json.loads((side / "eval.json").read_text()) for side in (a, b)]
    for key in sorted(set(metrics[0]) | set(metrics[1])):
        if metrics[0].get(key) != metrics[1].get(key):
            return f"eval metric {key}: {metrics[0].get(key)} vs {metrics[1].get(key)}"
    if (a / "embeddings.bin").read_bytes() != (b / "embeddings.bin").read_bytes():
        return "embeddings: bytes differ"
    return None


def gate(baseline: Path, cases, work: Path) -> str | None:
    """Run ``cases`` of (workload, seed) in the baseline and in this checkout; the first difference."""
    sides = (("baseline", baseline), ("change", ROOT))
    for workload, seed in cases:
        case = work / f"{workload}-seed{seed}"
        for side, tree in sides:
            if not build_inputs(tree, workload, seed, case / side / "inputs"):
                return f"{workload} seed {seed}: the {side} inputs failed ({tree})"
        diff = files_difference(case / "baseline", case / "change", "inputs")
        if diff is not None:
            return f"{workload} seed {seed}: {diff}"
        for side, tree in sides:
            if not run_tree(tree, case / side / "inputs", case / side):
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
    with tempfile.TemporaryDirectory() as tmp:
        diff = gate(Path(args.baseline).resolve(), CASES, Path(tmp))
    if diff is not None:
        print(f"bitwise gate: {diff}", file=sys.stderr)
        return 1
    print("bitwise gate: every input file, run file, eval metric and embedding is equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
