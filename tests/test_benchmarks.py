"""Every benchmark function in ``benchmarks/`` runs once, untimed, with a
pass-through stand-in for pytest-benchmark's ``benchmark`` fixture, so that
an API change that breaks a benchmark fails here, without pytest-benchmark.
Every embedkit name that ``perfbench/`` wraps by name must resolve, for the
same reason, and the manifest perfbench writes must read back with data for
every stage."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


def _benchmark_functions():
    for path in sorted(BENCHMARKS.glob("test_*.py")):
        spec = importlib.util.spec_from_file_location(f"benchmarks_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name, fn in vars(module).items():
            if name.startswith("test_") and inspect.isfunction(fn):
                yield pytest.param(fn, id=f"{path.stem}::{name}")


def _first_params(fn) -> dict:
    """Keyword arguments from the first value set of each ``parametrize`` mark on ``fn``."""
    kwargs = {}
    for mark in getattr(fn, "pytestmark", []):
        if mark.name == "parametrize":
            names, values = [n.strip() for n in mark.args[0].split(",")], mark.args[1]
            kwargs.update(zip(names, values[0] if len(names) > 1 else (values[0],)))
    return kwargs


@pytest.mark.parametrize("fn", list(_benchmark_functions()))
def test_benchmark_runs_once(fn):
    timed = []

    def benchmark(f, *args, **kwargs):
        timed.append(f)
        return f(*args, **kwargs)

    fn(benchmark=benchmark, **_first_params(fn))
    assert len(timed) == 1


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


def _missing(name: str) -> bool:
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"embedkit.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return True
        obj = getattr(obj, attr)
    return not callable(obj)


def test_perfbench_names_resolve():
    # perfbench's clock and tracer look these names up with getattr on
    # embedkit's modules, so deleting one would fail every benchmark run
    bench = _perfbench()
    names = set(bench.CLOCK_POINTS) | set(bench.CLOCK_OPS) | set(bench.HOOKS)
    assert names
    assert [n for n in sorted(names) if _missing(n)] == []


def test_perfbench_mining_hooks_count_real_calls():
    # perfbench's tracer counts slots from register_query's third argument, flags from
    # cache_scores' records and replacements from replace_flagged's events
    from embedkit.mining import MiningState

    bench = _perfbench()
    tracer = bench.Tracer()
    tracer.install(bench.HOOKS)
    try:
        ms = MiningState()
        ms.register_query("q", [0, 1], [2], ["n0", "n1", "p0"])
        ms.register_query("r", [0], [], ["m0"])
        ms.cache_scores(0, [("q", 0, 0.1), ("q", 1, 0.2), ("r", 0, 0.9)])
        events = ms.replace_flagged()
    finally:
        tracer.uninstall()
    assert [(e.new_negative, e.exhausted) for e in events] == [("p0", False), (None, True)]
    assert tracer.counters == {"mining.slots": 3, "mining.flags": 2, "mining.replacements": 1,
                               "mining.exhausted": 1}
    assert [tracer.totals(f"mining.MiningState.{name}")[0]
            for name in ("register_query", "cache_scores", "replace_flagged")] == [2, 1, 1]


def test_perfbench_loss_spans_count_real_calls(tmp_path):
    # perfbench's per-layer losses.<name>.self_ms read these spans: an lm step, a
    # triplet step and an STS step through Trainer each record their loss calls
    from embedkit.data import (build_sts, build_triplets, synth_corpus, write_dataset,
                               write_text_dataset)
    from embedkit.encoder import EncoderConfig
    from embedkit.pipeline import RunManifest, StageConfig, Trainer

    corpus = synth_corpus(4, 4, seed=1)
    write_text_dataset(tmp_path / "lm.jsonl", [s["text"] for s in corpus.sentences])
    write_dataset(tmp_path / "retrieval.jsonl", "retrieval", build_triplets(corpus, pool_size=4))
    write_dataset(tmp_path / "sts.jsonl", "sts", build_sts(corpus, 8))
    dims = (8, 16)
    manifest = RunManifest(
        encoder=EncoderConfig(layers=1, hidden_dim=16, heads=4, kv_heads=2, ffn_dim=32,
                              vocab_size=512, max_len=16, mrl_dims=dims),
        stages=[StageConfig(kind="lm-pretrain", steps=1, batch_size=4, window_len=8),
                # step 0 draws retrieval triplets, step 1 STS pairs
                StageConfig(kind="supervised", steps=2, mrl=True, dhnm=True, triplet_batch_size=2,
                            sts_batch_size=4, negatives_per_query=2)],
        data={"lm-pretrain": str(tmp_path / "lm.jsonl"),
              "supervised": {"retrieval": str(tmp_path / "retrieval.jsonl"),
                             "sts": str(tmp_path / "sts.jsonl")}},
        output_dir=str(tmp_path / "run"), seed=0)

    bench = _perfbench()
    tracer = bench.Tracer()
    tracer.install(bench.HOOKS)
    try:
        Trainer(manifest).run()
    finally:
        tracer.uninstall()
    calls = {name: tracer.totals(f"losses.{name}")[0]
             for name in ("next_token_ce", "info_nce_with_scores", "cosent")}
    assert calls == {"next_token_ce": 1, "info_nce_with_scores": len(dims), "cosent": len(dims)}


@pytest.mark.parametrize("workload", ["toy-pipeline", "mining-eval"])
def test_perfbench_manifest_reads_back_with_data_for_every_stage(tmp_path, workload):
    # perfbench writes its manifest with to_yaml and trains it after from_yaml
    from embedkit.pipeline import RunManifest, Trainer

    bench = _perfbench()
    inputs = bench.setup(bench.WORKLOADS[workload], 1, tmp_path / workload)
    manifest = RunManifest.from_yaml(inputs.manifest)
    trainer = Trainer(manifest)
    assert [all(len(rows) for rows in trainer._load_stage_data(cfg).values())
            for cfg in manifest.stages] == [True] * 4
