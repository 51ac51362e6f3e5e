"""Smoke runs of the scripts under ``scripts/`` at tiny sizes: each exits 0, and the
toy data holds, for each stage, the record kind that stage reads.  ``bench.py``
runs in-process on stand-in timings; ``bitwise_gate.py`` runs one case in-process,
with this checkout as its own baseline."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import embedkit
from embedkit.data import Triplet, read_dataset
from embedkit.pipeline import RunManifest, Trainer

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(embedkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_make_toy_data_writes_the_kind_each_stage_reads(tmp_path):
    _run("make_toy_data.py", "--out", str(tmp_path), "--clusters", "4", "--per-cluster", "4")
    manifest = RunManifest.from_yaml(tmp_path / "manifest.yaml")
    trainer = Trainer(manifest)
    for cfg in manifest.stages:
        assert len(trainer._load_stage_data(cfg))
    # the README evaluates the trained run on the held-out pairs
    assert read_dataset(tmp_path / "heldout.jsonl", Triplet)[1]


def test_mask_rank_study(tmp_path):
    rows = _run("mask_rank_study.py", "--sizes", "4,8", "--samples", "3").splitlines()
    assert rows[0] == "schedule\tn\tt_frac\trank"
    assert len(rows) == 1 + 3 * 2 * 3


def test_clr_centroid_study(tmp_path):
    out = _run("clr_centroid_study.py", "--out", str(tmp_path), "--clusters", "4",
               "--pretrain-steps", "2", "--finetune-steps", "2")
    assert "contraction:" in out
    assert (tmp_path / "projection-before.tsv").exists() and (tmp_path / "projection-after.tsv").exists()


def test_bench_records_each_benchmarks_ratio_to_the_baseline(tmp_path, monkeypatch, capsys):
    # the ratio of the medians, change over baseline, for each benchmark both sides ran
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for var in bench.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    baseline = tmp_path.resolve()
    times = {"base": {"a": [2.0, 2.0, 4.0], "b": [1.0]}, "change": {"a": [1.0, 1.0], "c": [3.0]}}
    side = {baseline: "base", bench.ROOT: "change"}
    monkeypatch.setattr(bench, "_git_label", lambda root: side[root])
    monkeypatch.setattr(bench, "run_side", lambda src, json_path: times[side[src.parent]])
    monkeypatch.setattr(bench, "machine", dict)
    out = tmp_path / "bench.json"
    assert bench.main(["--out", str(out), "--baseline", str(baseline), "--pairs", "2"]) == 0
    record = json.loads(out.read_text())
    assert record["ratios"] == {"a": 0.5}
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines] == ["a", "b", "c"]
    assert lines[0].endswith("ratio 0.500") and "ratio" not in lines[1] + lines[2]


def test_bitwise_gate_passes_against_its_own_checkout(tmp_path):
    # one perfbench case, trained and evaluated twice in fresh processes: equal bytes;
    # then one flipped byte in one run file is named
    spec = importlib.util.spec_from_file_location("bitwise_gate", SCRIPTS / "bitwise_gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    assert gate.gate(gate.ROOT, gate.CASES[:1], tmp_path) is None
    case = tmp_path / "toy-pipeline-seed1"
    log = case / "change" / "run" / "stage0-lm-pretrain.metrics.jsonl"
    data = bytearray(log.read_bytes())
    data[-2] ^= 1
    log.write_bytes(bytes(data))
    assert gate.first_difference(case / "baseline", case / "change") == (
        "run/stage0-lm-pretrain.metrics.jsonl: bytes differ")
