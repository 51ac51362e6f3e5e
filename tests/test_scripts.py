"""Smoke runs of the scripts under ``scripts/`` at tiny sizes: each exits 0, and the
toy data holds, for each stage, the record kind that stage reads.  ``bench.py``
runs in-process on stand-in timings; ``bitwise_gate.py`` runs one case in-process,
with this checkout as its own baseline, and against a copy whose datasets differ."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import embedkit
from embedkit.data import Triplet, read_dataset
from embedkit.pipeline import RunManifest, Trainer

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script: str, *args: str, code: int = 0) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(embedkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    return proc


def _load(script: str):
    spec = importlib.util.spec_from_file_location(Path(script).stem + "_script", SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_toy_data_writes_the_kind_each_stage_reads(tmp_path):
    _run("make_toy_data.py", "--out", str(tmp_path), "--clusters", "4", "--per-cluster", "4")
    manifest = RunManifest.from_yaml(tmp_path / "manifest.yaml")
    trainer = Trainer(manifest)
    for cfg in manifest.stages:
        assert all(len(rows) for rows in trainer._load_stage_data(cfg).values())
    # the README evaluates the trained run on the held-out pairs
    assert read_dataset(tmp_path / "heldout.jsonl", Triplet)[1]


def test_make_toy_data_refuses_clusters_past_one_language_block(tmp_path):
    # 400 clusters wrote two languages that shared 202 words
    err = _run("make_toy_data.py", "--out", str(tmp_path / "data"), "--clusters", "400",
               code=2).stderr
    assert "400 clusters of 3 words and 4 shared words make 1204 words, more than the 1000 " \
           "of one language block" in err
    assert not (tmp_path / "data").exists()


def test_mask_rank_study(tmp_path):
    rows = _run("mask_rank_study.py", "--sizes", "4,8", "--samples", "3").stdout.splitlines()
    assert rows[0] == "schedule\tn\tt_frac\trank"
    assert len(rows) == 1 + 3 * 2 * 3


def test_clr_centroid_study(tmp_path):
    out = _run("clr_centroid_study.py", "--out", str(tmp_path), "--clusters", "4",
               "--pretrain-steps", "2", "--finetune-steps", "2").stdout
    assert "contraction:" in out
    assert (tmp_path / "projection-before.tsv").exists() and (tmp_path / "projection-after.tsv").exists()


def test_bench_records_each_benchmarks_ratio_to_the_baseline(tmp_path, monkeypatch, capsys):
    # the ratio of the medians, change over baseline, for each benchmark both sides ran
    bench = _load("bench.py")
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
    gate = _load("bitwise_gate.py")
    assert gate.gate(gate.ROOT, gate.CASES[:1], tmp_path) is None
    case = tmp_path / "toy-pipeline-seed1"
    log = case / "change" / "run" / "stage0-lm-pretrain.metrics.jsonl"
    data = bytearray(log.read_bytes())
    data[-2] ^= 1
    log.write_bytes(bytes(data))
    assert gate.first_difference(case / "baseline", case / "change") == (
        "run/stage0-lm-pretrain.metrics.jsonl: bytes differ")


def test_bitwise_gate_names_an_input_file_that_differs(tmp_path, monkeypatch, capsys):
    # a baseline whose dataset writer adds one byte to each header: the gate built the inputs
    # with this checkout's embedkit only, so it trained both trees on equal inputs and passed
    gate = _load("bitwise_gate.py")
    baseline = tmp_path / "baseline"
    shutil.copytree(gate.ROOT / "src", baseline / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    data = baseline / "src" / "embedkit" / "data.py"
    text = data.read_text()
    assert text.count('fh.write(_dumps(header) + "\\n")') == 1
    data.write_text(text.replace('fh.write(_dumps(header) + "\\n")',
                                 'fh.write(_dumps(header) + " \\n")'))
    work = tmp_path / "work"
    assert gate.gate(baseline, gate.CASES[:1], work) == (
        "toy-pipeline seed 1: inputs/clr.jsonl: bytes differ")
    assert not any(work.rglob("run"))          # no tree trained
    monkeypatch.setattr(gate, "CASES", gate.CASES[:1])
    assert gate.main(["--baseline", str(baseline)]) == 1
    assert "inputs/clr.jsonl: bytes differ" in capsys.readouterr().err
