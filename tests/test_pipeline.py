"""Optimizer behavior, stage/manifest validation, scheduled-mask wiring,
round-robin task mixing, determinism, mid-stage resume, and the CLI surface."""

import builtins
import collections
import dataclasses
import hashlib
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

import embedkit
from embedkit import _dumps, checkpoint, pipeline, values
from embedkit.autograd import Tensor, no_grad
from embedkit.checkpoint import load_checkpoint, save_checkpoint
from embedkit.cli import main as cli_main
from embedkit.data import (MockTranslator, LanguageDistribution, ScoredPair, Triplet,
                           build_classification, build_sts, build_triplets, generate_clr_dataset,
                           pair_from_sft, build_sft_records, read_dataset, synth_corpus,
                           write_dataset, write_text_dataset)
from embedkit.encoder import Encoder, EncoderConfig
from embedkit.evaluation import exact_search, ndcg_at_10, recall_at_k
from embedkit.mining import MiningState
from embedkit.optim import AdamW, warmup_lr
from embedkit.pipeline import (_SCORE_BUDGET, STAGE_KINDS, SUPERVISED_TASKS, RunManifest,
                               StageConfig, Trainer, _block_rows, _fingerprint, _stage_alpha,
                               batch_ids, default_toy_manifest, embed_texts, evaluate_checkpoint,
                               evaluate_retrieval, load_encoder)
from embedkit.tokenizer import Tokenizer
from test_encoder import _save_v2

SMALL_ENC = EncoderConfig(layers=1, hidden_dim=16, heads=4, kv_heads=2, ffn_dim=32,
                          vocab_size=512, max_len=32, mrl_dims=(8, 16))


class TestAdamW:
    def test_zero_gradient_zero_decay_leaves_params(self):
        p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        opt = AdamW(p, 0.1, 0.0)
        p["w"].grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p["w"].data, [1.0, -2.0])

    def test_descends_on_quadratic(self):
        p = {"x": Tensor(np.array([1.0]), requires_grad=True)}
        opt = AdamW(p, 0.1, 0.0)
        p["x"].grad = 2.0 * p["x"].data
        opt.step()
        assert 0.0 < float(p["x"].data[0]) < 1.0

    def test_converges_on_convex_quadratic(self):
        target = np.array([0.3, -1.2, 2.0])
        p = {"x": Tensor(np.ones(3), requires_grad=True)}
        opt = AdamW(p, 0.1, 0.0)
        for _ in range(200):
            p["x"].grad = 2.0 * (p["x"].data - target)
            opt.step()
        assert np.linalg.norm(p["x"].data - target) < 1e-3

    def test_nonfinite_gradient_aborts(self):
        p = {"x": Tensor(np.ones(2), requires_grad=True)}
        opt = AdamW(p, 1e-3, 0.001)
        p["x"].grad = np.array([1.0, np.nan])
        with pytest.raises(ArithmeticError, match="non-finite"):
            opt.step()

    def test_state_roundtrip(self):
        p = {"x": Tensor(np.ones(2), requires_grad=True)}
        opt = AdamW(p, 0.05, 0.001)
        p["x"].grad = np.array([0.5, -0.5])
        opt.step()
        arrays = opt.export_state()
        opt2 = AdamW({"x": Tensor(p["x"].data.copy(), requires_grad=True)}, 0.05, 0.001)
        opt2.load_state(arrays, opt.step_count)
        assert opt2.step_count == 1
        np.testing.assert_array_equal(opt2.m["x"], opt.m["x"])

    def test_warmup_ramp(self):
        total, frac = 100, 0.1
        lrs = [warmup_lr(1.0, s, total, frac) for s in range(total)]
        assert lrs[0] == 0.1 and lrs[9] == 1.0 and all(v == 1.0 for v in lrs[10:])
        assert all(a <= b for a, b in zip(lrs[:10], lrs[1:10]))


class TestStageConfig:
    def test_defaults_by_kind(self):
        assert StageConfig(kind="lm-pretrain", steps=5).mask_policy == "causal"
        assert StageConfig(kind="weak-contrastive", steps=5).mask_policy == "soft"
        assert StageConfig(kind="supervised", steps=5).mask_policy == "bidirectional"
        assert StageConfig(kind="lm-pretrain", steps=5).warmup_frac == 0.05
        assert StageConfig(kind="supervised", steps=5).warmup_frac == 0.02

    def test_soft_mask_only_in_weak_contrastive(self):
        with pytest.raises(ValueError, match="mask policy"):
            StageConfig(kind="supervised", steps=5, mask_policy="soft")
        with pytest.raises(ValueError, match="mask policy"):
            StageConfig(kind="lm-pretrain", steps=5, mask_policy="bidirectional")

    def test_dhnm_only_in_supervised(self):
        with pytest.raises(ValueError, match="^this weak-contrastive stage does not read dhnm$"):
            StageConfig(kind="weak-contrastive", steps=5, dhnm=True)

    @pytest.mark.parametrize("options,unread", [
        ({"kind": "weak-contrastive", "mrl": True}, "mrl"),
        ({"kind": "supervised", "batch_size": 8}, "batch_size"),
        ({"kind": "supervised", "window_len": 8}, "window_len"),
        ({"kind": "lm-pretrain", "temperature": 0.1, "negatives_per_query": 3},
         "negatives_per_query, temperature"),
        ({"kind": "pair-sft", "triplet_batch_size": 2}, "triplet_batch_size"),
        ({"kind": "weak-contrastive", "mask_policy": "bidirectional", "mask_schedule": "accelerating"},
         "mask_schedule"),
        ({"kind": "supervised", "dhnm_mode": "literal"}, "dhnm_mode"),
    ])
    def test_option_its_kind_never_reads_must_keep_its_default(self, options, unread):
        with pytest.raises(ValueError, match=f"^this {options['kind']} stage does not read {unread}$"):
            StageConfig(steps=5, **options)
        # at its default an unread option passes: a config built in Python cannot tell it was set
        defaults = {k: StageConfig.__dataclass_fields__[k].default for k in unread.split(", ")}
        StageConfig(steps=5, kind=options["kind"], mask_policy=options.get("mask_policy", ""), **defaults)

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown stage options"):
            StageConfig.check_options({"kind": "supervised", "steps": 5, "learning_rate": 0.1})

    def test_seven_negatives_default(self):
        assert StageConfig(kind="supervised", steps=5).negatives_per_query == 7

    def test_batch_size_defaults(self):
        cfg = StageConfig(kind="supervised", steps=5)
        assert cfg.triplet_batch_size == 4 and cfg.sts_batch_size == 32

    def test_values_at_their_bounds_accepted(self):
        StageConfig(kind="supervised", steps=1, triplet_batch_size=1, sts_batch_size=1,
                    negatives_per_query=0, checkpoint_every=0, seed=0, weight_decay=0,
                    warmup_frac=1, lr=1, temperature=1e-9, dhnm=True, dhnm_mode="literal")
        StageConfig(kind="lm-pretrain", steps=1, batch_size=1, window_len=1, warmup_frac=0.0)

    @pytest.mark.parametrize("option,value", [
        ("steps", 1.0), ("batch_size", True), ("seed", -1), ("weight_decay", -0.1),
        ("warmup_frac", 1.5), ("lr", float("nan")), ("temperature", "0.05"), ("mrl", 1),
    ])
    def test_value_of_wrong_type_or_range_rejected(self, option, value):
        with pytest.raises(ValueError, match=f"^{option} must be "):
            StageConfig(**{"kind": "supervised", "steps": 5, option: value})


class TestStageMask:
    """``_stage_alpha``: the mask alpha each stage passes the encoder (0 causal, 1 bidirectional)."""

    def test_causal_policy(self):
        for kind in ("lm-pretrain", "pair-sft"):
            cfg = StageConfig(kind=kind, steps=3)
            assert [_stage_alpha(cfg, step) for step in range(3)] == [0.0, 0.0, 0.0]

    def test_bidirectional_policy(self):
        for cfg in (StageConfig(kind="supervised", steps=3),
                    StageConfig(kind="weak-contrastive", steps=3, mask_policy="bidirectional")):
            assert [_stage_alpha(cfg, step) for step in range(3)] == [1.0, 1.0, 1.0]

    def test_scheduled_stage_hits_exact_endpoints(self):
        cfg = StageConfig(kind="weak-contrastive", steps=10, mask_policy="soft")
        assert _stage_alpha(cfg, 0) == 0.0
        assert _stage_alpha(cfg, 9) == 1.0

    def test_single_step_stage_is_bidirectional(self):
        cfg = StageConfig(kind="weak-contrastive", steps=1, mask_policy="soft")
        assert _stage_alpha(cfg, 0) == 1.0


@pytest.fixture(scope="module")
def toy_data(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("toydata")
    corpus = synth_corpus(6, 6, languages=("aa", "bb"), seed=21)
    write_text_dataset(tmp / "lm.jsonl", [s["text"] for s in corpus.sentences])
    sft = [pair_from_sft(r) for r in build_sft_records(corpus)]
    write_dataset(tmp / "sft.jsonl", "pair", sft)
    write_dataset(tmp / "pairs.jsonl", "pair", corpus.pairs, languages=corpus.languages)
    trips = build_triplets(corpus, lang="aa", pool_size=10, seed=22)
    write_dataset(tmp / "retrieval.jsonl", "retrieval", trips, languages=("aa",))
    dist = LanguageDistribution.from_weights({"aa": 1, "bb": 1})
    clr, _ = generate_clr_dataset(build_triplets(corpus, lang="aa", pool_size=10, seed=23),
                                  MockTranslator(corpus.languages), dist, seed=24)
    write_dataset(tmp / "clr.jsonl", "clr", clr, languages=corpus.languages)
    write_dataset(tmp / "cls.jsonl", "classification",
                  build_classification(corpus, lang="aa", negatives=3), languages=("aa",))
    write_dataset(tmp / "sts.jsonl", "sts", build_sts(corpus, 40, lang="aa", seed=25),
                  languages=("aa",))
    return tmp


def _manifest(tmp, out, seed=5, sup_steps=12, dhnm=True):
    return RunManifest(
        encoder=SMALL_ENC,
        stages=[
            StageConfig(kind="lm-pretrain", steps=6, batch_size=8, lr=2e-3, window_len=12),
            StageConfig(kind="pair-sft", steps=4, batch_size=8, lr=1e-3, window_len=12),
            StageConfig(kind="weak-contrastive", steps=6, batch_size=6, lr=1e-3),
            StageConfig(kind="supervised", steps=sup_steps, lr=1e-3, mrl=True, dhnm=dhnm,
                        triplet_batch_size=3, sts_batch_size=6, negatives_per_query=3,
                        checkpoint_every=5),
        ],
        data={"lm-pretrain": str(tmp / "lm.jsonl"),
              "pair-sft": str(tmp / "sft.jsonl"),
              "weak-contrastive": str(tmp / "pairs.jsonl"),
              "supervised": {"retrieval": str(tmp / "retrieval.jsonl"),
                             "clr": str(tmp / "clr.jsonl"),
                             "classification": str(tmp / "cls.jsonl"),
                             "sts": str(tmp / "sts.jsonl")}},
        output_dir=str(out), seed=seed)


def _refused_after_edit(toy_data, tmp_path, capsys, edit, what):
    """Train ``_manifest``'s YAML after ``edit``: exit 3 with ``what`` after the manifest's
    path, before any stage makes the run directory."""
    yml = tmp_path / "m.yaml"
    _manifest(toy_data, tmp_path / "run").to_yaml(yml)
    doc = yaml.safe_load(yml.read_text())
    edit(doc)
    yml.write_text(yaml.safe_dump(doc))
    assert cli_main(["train", "--manifest", str(yml)]) == 3
    assert f"{yml}: {what}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


class TestManifest:
    def test_every_field_read_from_a_manifest_or_dataset_has_exactly_one_value_row(self):
        rows = collections.Counter(name for _, _, names in values._VALUES for name in names)
        assert [name for name, n in rows.items() if n > 1] == []
        read = ({f.name for f in dataclasses.fields(StageConfig)} - {"kind", "mask_policy"}
                | {f.name for f in dataclasses.fields(EncoderConfig)} - {"pooling"}
                | {f.name for cls in (Triplet, ScoredPair) for f in dataclasses.fields(cls)}
                | {"seed", "output_dir", "vocab", "languages", "text"})
        assert sorted(rows) == sorted(read)

    def test_stage_order_enforced(self, toy_data, tmp_path):
        with pytest.raises(ValueError, match="pipeline order"):
            RunManifest(encoder=SMALL_ENC,
                        stages=[StageConfig(kind="supervised", steps=1),
                                StageConfig(kind="lm-pretrain", steps=1)],
                        data={"supervised": {"retrieval": "x"}, "lm-pretrain": "y"},
                        output_dir=str(tmp_path), seed=0)

    def test_missing_data_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="missing data"):
            RunManifest(encoder=SMALL_ENC,
                        stages=[StageConfig(kind="lm-pretrain", steps=1)],
                        data={}, output_dir=str(tmp_path), seed=0)

    @pytest.mark.parametrize("index", [2, 3])
    def test_window_len_over_max_len_accepted_where_no_windows_are_packed(self, toy_data, tmp_path,
                                                                          index):
        m = _manifest(toy_data, tmp_path / "run")
        m.stages[index].window_len = SMALL_ENC.max_len + 1
        RunManifest(**vars(m))

    def test_yaml_roundtrip_resolves_paths(self, toy_data, tmp_path):
        m = _manifest(toy_data, tmp_path / "run")
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        back = RunManifest.from_yaml(yml)
        assert back.encoder == m.encoder
        assert [s.kind for s in back.stages] == [s.kind for s in m.stages]
        assert back.data == m.data

    @pytest.mark.parametrize("case", ["default-toy", "dhnm-on", "dhnm-off", "bidirectional-weak"])
    def test_yaml_roundtrip_keeps_stages_and_fingerprint_writing_only_read_options(
            self, toy_data, tmp_path, case):
        m = _manifest(toy_data, tmp_path / "run", dhnm=case != "dhnm-off")
        if case == "default-toy":
            m = default_toy_manifest(m.data, str(tmp_path / "run"))
        elif case == "bidirectional-weak":
            m.stages[2] = StageConfig(kind="weak-contrastive", steps=6, batch_size=6, lr=1e-3,
                                      mask_policy="bidirectional")
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        back = RunManifest.from_yaml(yml)
        assert back.stages == m.stages
        assert _fingerprint(back) == _fingerprint(m)
        # the options each kind reads, as README's "Training manifest" lists them
        common = {"kind", "steps", "lr", "mask_policy", "seed", "warmup_frac", "weight_decay",
                  "checkpoint_every"}
        reads = {"lm-pretrain": {"batch_size", "window_len"}, "pair-sft": {"batch_size", "window_len"},
                 "weak-contrastive": {"batch_size", "temperature"},
                 "supervised": {"temperature", "negatives_per_query", "mrl", "dhnm",
                                "triplet_batch_size", "sts_batch_size"}}
        for stage in yaml.safe_load(yml.read_text())["stages"]:
            want = common | reads[stage["kind"]]
            if stage["kind"] == "weak-contrastive" and stage["mask_policy"] == "soft":
                want.add("mask_schedule")
            if stage["kind"] == "supervised" and stage["dhnm"]:
                want.add("dhnm_mode")
            assert set(stage) == want, stage["kind"]


    @pytest.mark.parametrize("edit,what", [
        (lambda d: d.update(output_dir=5), "output_dir must be a string, not 5"),
        (lambda d: d["data"].update({"lm-pretrain": 5}),
         "data: lm-pretrain must be a string, not 5"),
        (lambda d: d["data"]["supervised"].update(retrieval=None),
         "data: supervised: retrieval must be a string, not None"),
        (lambda d: d["encoder"].update(mrl_dims=5),
         "encoder: mrl_dims must be a list of integers, not 5"),
        (lambda d: d["encoder"].update(mrl_dims=[16, "a"]),
         "encoder: mrl_dims must be a list of integers, not [16, 'a']"),
    ], ids=["output-dir-int", "lm-path-int", "retrieval-path-null", "mrl-dims-int",
            "mrl-dims-string-entry"])
    def test_a_path_or_mrl_dims_of_the_wrong_type_exits_3_naming_manifest_and_key(
            self, toy_data, tmp_path, capsys, edit, what):
        # these reached Path() or tuple() unchecked, and Python's message named no key
        _refused_after_edit(toy_data, tmp_path, capsys, edit, what)

    @pytest.mark.parametrize("edit,what", [
        (lambda d: d["data"].update({"lm-pretrain": ""}),
         "data: lm-pretrain must name a dataset file"),
        (lambda d: d["data"]["supervised"].update(sts=""),
         "data: supervised: sts must name a dataset file"),
        (lambda d: d["stages"][2].update(mask_policy=None),
         "stage 2 (weak-contrastive): mask policy None not allowed"),
        (lambda d: d["stages"][2].update(mask_policy=[]),
         "stage 2 (weak-contrastive): mask policy [] not allowed"),
        (lambda d: d["data"].update(supervised=5),
         "data: supervised data must map task names to dataset paths, not 5"),
        (lambda d: d["data"].update(supervised=None),
         "data: supervised data must map task names to dataset paths, not None"),
    ], ids=["lm-path-empty", "sts-path-empty", "mask-policy-null", "mask-policy-empty-list",
            "supervised-data-int", "supervised-data-null"])
    def test_an_empty_path_or_policy_or_a_scalar_supervised_data_exits_3_before_any_stage(
            self, toy_data, tmp_path, capsys, edit, what):
        # an empty path named the manifest's directory (exit 5, "Is a directory"), an empty
        # policy trained under the kind's default, and a scalar got the path rule's words
        _refused_after_edit(toy_data, tmp_path, capsys, edit, what)


# run as ``python -c _KILL_AFTER_SAVE <checkpoint name> <manifest>``: train, and
# SIGKILL the process as soon as the named checkpoint has been written
_KILL_AFTER_SAVE = """
import os, signal, sys
from pathlib import Path
from embedkit import cli, pipeline

save = pipeline.save_checkpoint

def save_then_die(path, *args, **kwargs):
    save(path, *args, **kwargs)
    if Path(path).name == sys.argv[1]:
        os.kill(os.getpid(), signal.SIGKILL)

pipeline.save_checkpoint = save_then_die
cli.main(["train", "--manifest", sys.argv[2]])
"""

# run as ``python -c _TRAIN_REPORTING_BLAS_THREADS <manifest>``: train, then print
# the thread count OpenBLAS reports (null where it cannot be asked) as the last line
_TRAIN_REPORTING_BLAS_THREADS = """
import ctypes, json, sys
from embedkit import cli

code = cli.main(["train", "--manifest", sys.argv[1]])
threads = None
try:
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
except OSError:
    libs = []
for lib in libs:
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None and threads is None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads = fn()
print(json.dumps({"blas_threads": threads}))
sys.exit(code)
"""


class TestTrainingRuns:
    def test_round_robin_visits_every_task_each_cycle(self, toy_data, tmp_path):
        m = _manifest(toy_data, tmp_path / "run")
        Trainer(m).run()
        lines = (tmp_path / "run" / "stage3-supervised.metrics.jsonl").read_text().splitlines()
        tasks = [json.loads(ln)["task"] for ln in lines]
        for cycle_start in range(0, len(tasks) - 3, 4):
            assert set(tasks[cycle_start:cycle_start + 4]) == {"retrieval", "clr",
                                                               "classification", "sts"}

    def test_identical_seeds_give_bitwise_identical_outputs(self, toy_data, tmp_path):
        m1 = _manifest(toy_data, tmp_path / "a")
        m2 = _manifest(toy_data, tmp_path / "b")
        c1 = Trainer(m1).run()
        c2 = Trainer(m2).run()
        assert Path(c1).read_bytes() == Path(c2).read_bytes()
        for name in ("stage0-lm-pretrain.metrics.jsonl", "stage3-supervised.metrics.jsonl",
                     "stage3-mining.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # stage 2's step also drives the soft-mask clock
    @pytest.mark.parametrize("stage,mid_step", [(0, 3), (2, 3), (3, 5)],
                             ids=["stage0", "stage2", "stage3"])
    def test_mid_stage_resume_matches_uninterrupted(self, toy_data, tmp_path, stage, mid_step):
        def manifest(out):
            m = _manifest(toy_data, out)
            m.stages[stage].checkpoint_every = mid_step
            return m

        final_full = Trainer(manifest(tmp_path / "full")).run()
        mid = tmp_path / "full" / f"stage{stage}-step{mid_step}.ckpt"
        assert mid.exists()
        final_res = Trainer(manifest(tmp_path / "resumed")).run(resume_from=str(mid))
        assert Path(final_full).read_bytes() == Path(final_res).read_bytes()
        name = f"stage{stage}-{STAGE_KINDS[stage]}.metrics.jsonl"
        full_lines = (tmp_path / "full" / name).read_text().splitlines()
        res_lines = (tmp_path / "resumed" / name).read_text().splitlines()
        assert full_lines[mid_step:] == res_lines
        later = [f"stage{i}-{STAGE_KINDS[i]}.metrics.jsonl" for i in range(stage + 1, 4)]
        if stage < 3:
            later.append("stage3-mining.jsonl")
        for name in later:
            assert (tmp_path / "resumed" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_mid_stage_resume_carries_replaced_slots_and_exhausted_pools(self, tmp_path):
        # one negative in each pool past the 3 slots, at lr 1e-2: slots are swapped
        # and pools run dry before the step-8 checkpoint, so the resume must carry
        # swapped slots, moved cursors and empty pools (at _manifest's lr no slot
        # is ever replaced)
        corpus = synth_corpus(6, 6, languages=("aa", "bb"), seed=21)
        write_dataset(tmp_path / "retrieval.jsonl", "retrieval",
                      build_triplets(corpus, lang="aa", pool_size=4, seed=22))

        def manifest(out):
            return RunManifest(
                encoder=SMALL_ENC, stages=[StageConfig(
                    kind="supervised", steps=16, lr=1e-2, mrl=True, dhnm=True,
                    triplet_batch_size=3, negatives_per_query=3, checkpoint_every=8)],
                data={"supervised": {"retrieval": str(tmp_path / "retrieval.jsonl")}},
                output_dir=str(out), seed=5)

        Trainer(manifest(tmp_path / "full")).run()
        full = {p.name: p.read_bytes() for p in (tmp_path / "full").iterdir()}
        records = [json.loads(ln) for ln in full["stage0-mining.jsonl"].decode().splitlines()]
        before = [r["exhausted"] for r in records if r.get("event") == "replace" and r["step"] < 8]
        assert False in before and True in before
        # the run directory as a crash past the checkpoint leaves it: logs run beyond it
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        for name in ("stage0-step8.ckpt", "stage0-supervised.metrics.jsonl", "stage0-mining.jsonl"):
            (resumed / name).write_bytes(full[name])
        Trainer(manifest(resumed)).run(resume_from=str(resumed / "stage0-step8.ckpt"))
        assert {p.name: p.read_bytes() for p in resumed.iterdir()} == full

    def test_crash_then_resume_in_place_matches_uninterrupted(self, toy_data, tmp_path):
        final_full = Trainer(_manifest(toy_data, tmp_path / "full")).run()

        class Crash(Trainer):
            def _loss(self, cfg, encoder, data, rng, step, mining):
                if cfg.kind == "supervised" and step == 8:
                    raise RuntimeError("simulated crash")
                return super()._loss(cfg, encoder, data, rng, step, mining)

        crashed = _manifest(toy_data, tmp_path / "crashed")
        with pytest.raises(RuntimeError, match="simulated crash"):
            Crash(crashed).run()
        with open(tmp_path / "crashed" / "stage3-supervised.metrics.jsonl", "a") as fh:
            fh.write('{"kind":"supervised","loss":0.5')      # a record torn by the crash
        final_res = Trainer(crashed).run(resume_from=str(tmp_path / "crashed" / "stage3-step5.ckpt"))
        assert Path(final_full).read_bytes() == Path(final_res).read_bytes()
        for name in ("stage3-supervised.metrics.jsonl", "stage3-mining.jsonl"):
            assert (tmp_path / "crashed" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    @pytest.mark.parametrize("stage,killed_after", [
        (StageConfig(kind="lm-pretrain", steps=60, batch_size=8, window_len=12, checkpoint_every=20),
         "stage0-step40.ckpt"),
        (StageConfig(kind="supervised", steps=12, mrl=True, dhnm=True, triplet_batch_size=3,
                     sts_batch_size=6, negatives_per_query=3, checkpoint_every=5),
         "stage0-step10.ckpt"),
    ], ids=["lm", "supervised-mining"])
    def test_sigkill_past_checkpoint_then_resume_matches_uninterrupted(
            self, toy_data, tmp_path, stage, killed_after):
        data = _manifest(toy_data, tmp_path).data

        def manifest(out):
            return RunManifest(encoder=SMALL_ENC, stages=[stage],
                               data={stage.kind: data[stage.kind]}, output_dir=str(out), seed=5)

        Trainer(manifest(tmp_path / "full")).run()
        yml = tmp_path / "m.yaml"
        manifest(tmp_path / "killed").to_yaml(yml)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(embedkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        # the process kills itself the moment the checkpoint is on disk: nothing
        # buffered in Python survives, as with a kill from outside
        proc = subprocess.run([sys.executable, "-c", _KILL_AFTER_SAVE, killed_after, str(yml)],
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert cli_main(["train", "--manifest", str(yml),
                         "--resume", str(tmp_path / "killed" / killed_after)]) == 0
        full = sorted(p.name for p in (tmp_path / "full").iterdir())
        assert sorted(p.name for p in (tmp_path / "killed").iterdir()) == full
        for name in full:
            assert (tmp_path / "killed" / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name

    def test_run_directory_bitwise_equal_on_one_and_two_blas_threads(self, toy_data, tmp_path):
        # the default encoder, so that the GEMMs are large enough for OpenBLAS to
        # split; four stages with mining and a mid-stage checkpoint
        m = _manifest(toy_data, tmp_path)
        m.encoder = EncoderConfig()
        # EMBEDKIT_THREADS only fills the BLAS variables a child does not inherit
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(embedkit.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH", "")])
        reported = []
        for threads in ("1", "2"):
            m.output_dir = str(tmp_path / f"threads{threads}")
            yml = tmp_path / f"m{threads}.yaml"
            m.to_yaml(yml)
            proc = subprocess.run([sys.executable, "-c", _TRAIN_REPORTING_BLAS_THREADS, str(yml)],
                                  env={**env, "EMBEDKIT_THREADS": threads}, capture_output=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr.decode()
            reported.append(json.loads(proc.stdout.decode().splitlines()[-1])["blas_threads"])
        if reported[0] is not None and len(os.sched_getaffinity(0)) >= 2:
            assert reported == [1, 2]
        one, two = tmp_path / "threads1", tmp_path / "threads2"
        names = sorted(p.name for p in one.iterdir())
        assert "stage3-step5.ckpt" in names and "stage3-mining.jsonl" in names
        assert sorted(p.name for p in two.iterdir()) == names
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name

    @pytest.mark.parametrize("boundary", ["record", "tmp-write", "fsync", "rename"])
    def test_crash_at_each_write_boundary_then_resume_matches_uninterrupted(
            self, toy_data, tmp_path, monkeypatch, boundary):
        # lm-pretrain, then supervised with mining and one mid-stage checkpoint;
        # the n-th write boundary of the kind fails, for n = 0, 1, ... until a run
        # passes them all, and each crashed run is resumed from its last checkpoint
        data = _manifest(toy_data, tmp_path).data

        def manifest(out):
            return RunManifest(
                encoder=SMALL_ENC, stages=[
                    StageConfig(kind="lm-pretrain", steps=2, batch_size=8, window_len=12),
                    StageConfig(kind="supervised", steps=4, mrl=True, dhnm=True, triplet_batch_size=2,
                                sts_batch_size=4, negatives_per_query=2, checkpoint_every=2)],
                data={k: data[k] for k in ("lm-pretrain", "supervised")}, output_dir=str(out), seed=5)

        Trainer(manifest(tmp_path / "full")).run()
        want = {p.name: p.read_bytes() for p in (tmp_path / "full").iterdir()}
        ckpts = ["stage0-lm-pretrain.ckpt", "stage1-step2.ckpt", "stage1-supervised.ckpt"]
        assert set(ckpts) < set(want) and "stage1-mining.jsonl" in want

        class Crash(Exception):
            pass

        count = {"seen": 0, "at": None}

        def hit():
            count["seen"] += 1
            return count["seen"] - 1 == count["at"]

        def write(run_dir, log, records):
            for record in records:
                if hit():   # the record is torn half way, as a crash inside the write leaves it
                    line = (_dumps(record) + "\n").encode()
                    run_dir._logs[log].write(line[:len(line) // 2])
                    raise Crash(boundary)
                real_write(run_dir, log, [record])

        class TornFile:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise Crash(boundary)

        def open_tmp(path, *args, **kwargs):
            fh = builtins.open(path, *args, **kwargs)
            return TornFile(fh) if str(path).endswith(".tmp") and hit() else fh

        def failing(real):
            def call(*args):
                if hit():
                    raise Crash(boundary)
                return real(*args)
            return call

        real_write = pipeline._RunDir.write
        patch = {"record": (pipeline._RunDir, "write", write),
                 "tmp-write": (checkpoint, "open", open_tmp),
                 "fsync": (os, "fsync", failing(os.fsync)),
                 "rename": (os, "replace", failing(os.replace))}[boundary]
        yml = tmp_path / "m.yaml"
        for at in itertools.count():
            out = tmp_path / f"crash{at}"
            manifest(out).to_yaml(yml)
            count.update(seen=0, at=at)
            with monkeypatch.context() as mp:
                mp.setattr(*patch, raising=False)
                try:
                    Trainer(manifest(out)).run()
                except Crash:
                    pass
                else:
                    break       # past the last boundary: nothing failed
            on_disk = [name for name in ckpts if (out / name).exists()]
            if on_disk[-1:] != ckpts[-1:]:
                resume = ["--resume", str(out / on_disk[-1])] if on_disk else []
                assert cli_main(["train", "--manifest", str(yml), *resume]) == 0
            assert sorted(p.name for p in out.iterdir()) == sorted(want), (at, on_disk)
            for name, content in want.items():
                assert (out / name).read_bytes() == content, (at, on_disk, name)
        assert at > 0

    def test_mining_state_bytes_do_not_depend_on_negative_text_length(self, toy_data, tmp_path):
        # a checkpoint names each negative by its dataset row, not by its text
        sizes = []
        for repeat in (1, 4):
            m = _manifest(toy_data, tmp_path / f"run{repeat}", sup_steps=6)
            m.stages = m.stages[-1:]
            _, examples = read_dataset(m.data["supervised"]["retrieval"])
            for ex in examples:
                ex.negatives = [" ".join(n.split()[:6] * repeat) for n in ex.negatives]
            path = tmp_path / f"retrieval{repeat}.jsonl"
            write_dataset(path, "retrieval", examples)
            m.data = {"supervised": {"retrieval": str(path)}}
            Trainer(m).run()
            sizes.append((tmp_path / f"run{repeat}" / "stage0-step5.ckpt").stat().st_size)
        assert sizes[0] == sizes[1]
        assert "mining.slots" in load_checkpoint(tmp_path / "run4" / "stage0-step5.ckpt")[1]

    @pytest.mark.parametrize("dhnm", [True, False], ids=["mining", "no-mining"])
    def test_supervised_task_trains_on_a_pair_file(self, toy_data, tmp_path, dhnm):
        # a pair is a triplet without negatives: its steps take in-batch negatives only (K = 0)
        m = _manifest(toy_data, tmp_path / "run", sup_steps=8, dhnm=dhnm)
        m.data["supervised"]["retrieval"] = m.data["weak-contrastive"]
        assert Path(Trainer(m).run()).exists()
        lines = (tmp_path / "run" / "stage3-supervised.metrics.jsonl").read_text().splitlines()
        records = [json.loads(ln) for ln in lines]
        assert [r["task"] for r in records].count("retrieval") == 2
        assert all(np.isfinite(r["loss"]) for r in records)
        if dhnm:
            mining = (tmp_path / "run" / "stage3-mining.jsonl").read_text()
            assert '"clr:' in mining and '"retrieval:' not in mining

    def test_stage_without_mining_writes_no_mining_log(self, toy_data, tmp_path):
        Trainer(_manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)).run()
        assert (tmp_path / "run" / "stage3-supervised.metrics.jsonl").exists()
        assert not list((tmp_path / "run").glob("*mining*"))

    def test_mining_log_schema(self, toy_data, tmp_path):
        m = _manifest(toy_data, tmp_path / "run")
        Trainer(m).run()
        lines = (tmp_path / "run" / "stage3-mining.jsonl").read_text().splitlines()
        assert lines, "mining log should not be empty"
        cached = [json.loads(ln) for ln in lines if "decision" in ln]
        assert cached
        for rec in cached[:20]:
            assert set(rec) == {"step", "query_id", "slot", "s0", "s_cur", "decision"}
            assert rec["decision"] in ("keep", "replace")

    def test_classification_batches_use_label_texts(self, toy_data):
        _, examples = read_dataset(toy_data / "cls.jsonl")
        for ex in examples[:10]:
            assert ex.positive.startswith("lab")
            assert all(n.startswith("lab") for n in ex.negatives)

    def test_eval_checkpoint_reports_metrics(self, toy_data, tmp_path):
        m = _manifest(toy_data, tmp_path / "run", sup_steps=8)
        ckpt = Trainer(m).run()
        metrics = evaluate_checkpoint(ckpt, toy_data / "retrieval.jsonl", ks=(1, 5))
        assert set(metrics) == {"recall@1", "recall@5", "ndcg@10"}
        sts = evaluate_checkpoint(ckpt, toy_data / "sts.jsonl")
        assert "spearman" in sts

        # every third passage repeats the one before it, so scores tie exactly
        encoder, tokenizer, _ = load_encoder(ckpt)
        _, examples = read_dataset(toy_data / "retrieval.jsonl")
        held = [Triplet(ex.query, examples[i - 1 if i % 3 == 2 else i].positive)
                for i, ex in enumerate(examples)]
        ks = (1, 5, 10, 20)
        qv = embed_texts(encoder, tokenizer, [ex.query for ex in held])
        cv = embed_texts(encoder, tokenizer, [ex.positive for ex in held])
        run = exact_search(qv, [f"q{i}" for i in range(len(held))], cv,
                           [f"d{i}" for i in range(len(held))], k=20)
        run.judgments = {f"q{i}": {f"d{i}"} for i in range(len(held))}
        want = {f"recall@{k}": recall_at_k(run, k) for k in ks}
        want["ndcg@10"] = ndcg_at_10(run)
        got = evaluate_retrieval(encoder, tokenizer, held, ks)
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
        assert 0.0 < got["recall@1"] < 1.0

    def test_step_graph_freed_before_next_step(self, toy_data, tmp_path):
        # step N's loss, and with it the whole tape, is gone when step N+1 starts
        previous = []

        class Watched(Trainer):
            def _loss(self, *args):
                assert all(ref() is None for ref in previous), "previous step's graph is alive"
                loss, task = super()._loss(*args)
                previous[:] = [weakref.ref(loss)]
                return loss, task

        Watched(_manifest(toy_data, tmp_path / "run", sup_steps=4)).run()
        assert previous

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf is injected on purpose
    def test_nonfinite_loss_aborts_with_step(self, toy_data, tmp_path):
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)

        class Poisoned(Trainer):
            def _loss(self, cfg, encoder, data, rng, step, mining):
                encoder.params["embed"].data[0, 0] = np.inf
                return super()._loss(cfg, encoder, data, rng, step, mining)

        with pytest.raises(ArithmeticError, match="stage 0 step 0"):
            Poisoned(m).run()


def _embed_per_group(encoder, tokenizer, texts, chunk=128):
    """Reference: ``embed_texts`` before row blocks, one ``embed_batch`` per padding group."""
    out = []
    with no_grad():
        for i in range(0, len(texts), chunk):
            ids, lengths = batch_ids(tokenizer, texts[i:i + chunk])
            out.append(encoder.embed_batch(ids, 1.0, lengths).data)
    return np.concatenate(out, axis=0)


def _change_one_byte(path: Path) -> list[str]:
    """Change the last digit of dataset ``path``; the fingerprint's digests before and after."""
    raw = bytearray(path.read_bytes())
    before = hashlib.sha256(raw).hexdigest()
    i = max(i for i, b in enumerate(raw) if chr(b).isdigit())
    raw[i] = ord("8") if raw[i] == ord("9") else raw[i] + 1
    path.write_bytes(bytes(raw))
    return [f'data pair-sft sha256 "{before}"', f'"{hashlib.sha256(raw).hexdigest()}"']


def _drop_fingerprint(path: Path):
    """Write checkpoint ``path`` again without its manifest fingerprint."""
    config, arrays, extra = load_checkpoint(path)
    del extra["fingerprint"]
    save_checkpoint(path, config, arrays, extra)


def _untrained_checkpoint(path):
    arrays = {f"model.{k}": v for k, v in Encoder(SMALL_ENC, seed=1).export_arrays().items()}
    save_checkpoint(path, SMALL_ENC.to_dict(), arrays, {"vocab": ["a"]})
    return path


class TestEmbedTexts:
    def test_row_blocks_match_one_batch_per_group(self):
        # three padding groups: widths 1..8 (one block), all 24 (28-row blocks,
        # unpadded as in the benchmark corpus) and 44 texts of widths 1..60 (4-row blocks)
        cfg = EncoderConfig(heads=8, kv_heads=2, max_len=64)
        encoder = Encoder(cfg, seed=3)
        words = [f"w{i}" for i in range(40)]
        tokenizer = Tokenizer(words, cfg.vocab_size)
        rng = np.random.default_rng(4)
        widths = np.concatenate([rng.integers(1, 9, 128), np.full(128, 24), rng.integers(1, 61, 44)])
        widths[[0, -1]] = [8, 60]
        texts = [" ".join(rng.choice(words, n)) for n in widths]
        seen = []
        embed_batch = encoder.embed_batch
        encoder.embed_batch = lambda ids, *a: seen.append(len(ids)) or embed_batch(ids, *a)
        got = embed_texts(encoder, tokenizer, texts)
        assert seen == [128] + [28] * 4 + [16] + [4] * 11
        assert [_block_rows(8, w) for w in (8, 24, 60)] == [256, 28, 4]
        assert got.tobytes() == _embed_per_group(encoder, tokenizer, texts).tobytes()

    @pytest.mark.parametrize("heads", [1, 2, 4, 8, 16])
    def test_block_scores_within_budget(self, heads):
        assert _SCORE_BUDGET == 1 << 20
        for width in range(1, 129):
            rows = _block_rows(heads, width)
            per_row = heads * width * width * 8
            if per_row <= _SCORE_BUDGET:
                assert rows * per_row <= _SCORE_BUDGET < (rows + 1) * per_row
            else:
                assert rows == 1    # a single row over the budget still runs

    def test_no_texts_give_empty_array(self):
        encoder = Encoder(SMALL_ENC, seed=1)
        out = embed_texts(encoder, Tokenizer(["a"], SMALL_ENC.vocab_size), [])
        assert out.shape == (0, SMALL_ENC.hidden_dim)

    @pytest.mark.parametrize("task", ["retrieval", "sts"])
    def test_eval_of_dataset_without_examples_names_it(self, tmp_path, task):
        data = tmp_path / f"{task}.jsonl"
        write_dataset(data, task, [])
        with pytest.raises(ValueError, match=re.escape(str(data))):
            evaluate_checkpoint(_untrained_checkpoint(tmp_path / "m.ckpt"), data)


def _init_mining_per_query(trainer, cfg, encoder, datasets):
    """Reference ranking: two ``embed_texts`` calls per query, as before batching."""
    mining = MiningState(mode=cfg.dhnm_mode)
    for task in SUPERVISED_TASKS:
        if task == "sts" or task not in datasets:
            continue
        for ex in datasets[task]:
            if not isinstance(ex, Triplet) or not ex.negatives:
                continue
            qv = embed_texts(encoder, trainer.tokenizer, [ex.query])[0]
            nv = embed_texts(encoder, trainer.tokenizer, list(ex.negatives))
            scores = nv @ qv
            order = np.lexsort((np.arange(len(ex.negatives)), -scores))
            k = min(cfg.negatives_per_query, len(order))
            mining.register_query(f"{task}:{ex.uid}", order[:k], order[k:], ex.negatives)
    return mining


class TestInitMining:
    def test_batched_ranking_matches_per_query_reference(self, toy_data, tmp_path):
        m = _manifest(toy_data, tmp_path / "run")
        trainer = Trainer(m)
        cfg = m.stages[-1]
        datasets = trainer._load_stage_data(cfg)
        encoder = Encoder(m.encoder, seed=m.seed)
        got = trainer._mining(cfg, encoder, datasets, None)
        want = _init_mining_per_query(trainer, cfg, encoder, datasets)
        assert got.queries == want.queries
        assert {k: v.tobytes() for k, v in got.arrays().items()} == \
            {k: v.tobytes() for k, v in want.arrays().items()}
        # the ranking is not the dataset order, so the comparison has teeth
        reordered = [ex.uid for task in ("retrieval", "clr") for ex in datasets[task]
                     if got.current_negatives(f"{task}:{ex.uid}")
                     != list(ex.negatives[:cfg.negatives_per_query])]
        assert reordered


class TestCli:
    def test_mask_demo_emits_trajectory(self, capsys):
        assert cli_main(["mask-demo", "--n", "8", "--samples", "3"]) == 0
        recs = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert [r["rank"] for r in recs] == [8, 4, 1]
        assert {r["l"] for r in recs} == {8}
        assert cli_main(["mask-demo", "--n", "16", "--l", "8", "--samples", "5"]) == 0
        recs = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert [(r["n"], r["l"], r["alpha"], r["rank"]) for r in recs] == [
            (16, 8, 0.0, 16), (16, 8, 0.25, 14), (16, 8, 0.5, 12), (16, 8, 0.75, 10), (16, 8, 1.0, 8)]

    def test_mask_demo_dump_mask(self, capsys):
        assert cli_main(["mask-demo", "--n", "4", "--samples", "2", "--dump-mask"]) == 0
        recs = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        rows = [r for r in recs if r["record"] == "mask_row"]
        assert len(rows) == 8 and len(rows[0]["values"]) == 4

    def test_grad_check_passes(self, capsys):
        assert cli_main(["grad-check", "--cases", "2"]) == 0
        recs = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert len(recs) == 12 and all(r["ok"] is True for r in recs)
        assert [r["target"] for r in recs[:5]] == ["info_nce_queries", "info_nce_passages",
                                                   "cosent", "next_token_ce_states",
                                                   "next_token_ce_table"]

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_manifest_exits_4(self):
        assert cli_main(["train", "--manifest", "/no/such/file.yaml"]) == 4

    @pytest.mark.parametrize("cut", [12, 200, -5])
    def test_eval_torn_checkpoint_exits_3_naming_file(self, toy_data, tmp_path, capsys, cut):
        # cut inside the fixed prefix, the header, or the training state
        path = _untrained_checkpoint(tmp_path / "torn.ckpt")
        path.write_bytes(path.read_bytes()[:cut])
        assert cli_main(["eval", "--checkpoint", str(path),
                         "--data", str(toy_data / "retrieval.jsonl")]) == 3
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("ks,bad", [("0,-1,1", "0"), ("1,-1", "-1"), ("5,0", "0")])
    def test_eval_cut_off_below_1_exits_3_naming_it(self, tmp_path, capsys, ks, bad):
        data = tmp_path / "heldout.jsonl"
        write_dataset(data, "pair", [Triplet("a", "a"), Triplet("a", "a")])
        assert cli_main(["eval", "--checkpoint", str(_untrained_checkpoint(tmp_path / "m.ckpt")),
                         "--data", str(data), "--k", ks]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"recall cut-off k must be at least 1, got {bad}" in captured.err

    def test_gen_clr_translator_that_cannot_start_exits_4_before_writing(self, tmp_path, capsys):
        data, out_path = tmp_path / "pairs.jsonl", tmp_path / "clr-out.jsonl"
        write_dataset(data, "pair", [Triplet("t1", "t2", query_lang="aa", passage_lang="aa")] * 2)
        dist = tmp_path / "dist.yaml"
        dist.write_text("bb: 1\n")
        args = ["gen-clr", "--input", str(data), "--output", str(out_path), "--distribution",
                str(dist), "--backend", "command", "--command"]
        assert cli_main(args + ["no-such-translator --to"]) == 4
        assert "translator program 'no-such-translator' not found" in capsys.readouterr().err
        assert not out_path.exists()
        # a translator that starts and then fails is still counted per record
        assert cli_main(args + ["sh -c 'exit 3'"]) == 0
        assert json.loads(capsys.readouterr().out)["failures"] == 2
        assert read_dataset(out_path, Triplet)[1] == []

    def test_eval_refuses_a_cut_off_below_1_before_it_embeds(self, tmp_path, capsys, monkeypatch):
        calls = []
        embed = pipeline.embed_texts
        monkeypatch.setattr(pipeline, "embed_texts", lambda *a: calls.append(len(a[2])) or embed(*a))
        data = tmp_path / "heldout.jsonl"
        write_dataset(data, "pair", [Triplet("a", "a"), Triplet("a a", "a")])
        args = ["eval", "--checkpoint", str(_untrained_checkpoint(tmp_path / "m.ckpt")),
                "--data", str(data)]
        assert cli_main(args + ["--k", "1,0"]) == 3
        assert "recall cut-off k must be at least 1, got 0" in capsys.readouterr().err
        assert calls == []
        assert cli_main(args + ["--k", "1"]) == 0 and calls == [2, 2]

    @pytest.mark.parametrize("file,line,edit,what", [
        ("retrieval", 2, lambda r: r.update(query=5), "query must be a string, not 5"),
        ("retrieval", 2, lambda r: r.update(query=None), "query must be a string, not None"),
        ("retrieval", 3, lambda r: r.update(negatives=[1, 2, 3]),
         "negatives must be a list of strings, not [1, 2, 3]"),
        ("retrieval", 2, lambda r: r.update(uid=7), "uid must be a string, not 7"),
        ("lm", 2, lambda r: r.update(text=3), "text must be a string, not 3"),
        ("lm", 1, lambda r: r.update(vocab="abc"), "vocab must be a list of strings, not 'abc'"),
        ("retrieval", 1, lambda r: r.update(vocab=[1, 2]),
         "vocab must be a list of strings, not [1, 2]"),
    ], ids=["query-int", "query-null", "negatives-ints", "uid-int", "lm-text-int", "vocab-string",
            "vocab-ints"])
    def test_train_on_a_field_of_the_wrong_type_exits_3_naming_file_and_line(
            self, toy_data, tmp_path, capsys, file, line, edit, what):
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)
        bad = tmp_path / f"{file}.jsonl"
        lines = (toy_data / f"{file}.jsonl").read_text().splitlines()
        record = json.loads(lines[line - 1])
        edit(record)
        lines[line - 1] = json.dumps(record)
        bad.write_text("\n".join(lines) + "\n")
        if file == "lm":
            m.stages, m.data = m.stages[:1], {"lm-pretrain": str(bad)}
        else:
            m.stages, m.data = m.stages[-1:], {"supervised": {"retrieval": str(bad)}}
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 3
        err = capsys.readouterr().err
        assert f"{bad}:{line}: " in err and what in err, err
        assert not list((tmp_path / "run").glob("stage0-*"))

    def test_eval_of_dataset_without_examples_exits_3_naming_it(self, tmp_path, capsys):
        data = tmp_path / "none.jsonl"
        write_dataset(data, "retrieval", [])
        assert cli_main(["eval", "--checkpoint", str(_untrained_checkpoint(tmp_path / "m.ckpt")),
                         "--data", str(data)]) == 3
        assert str(data) in capsys.readouterr().err

    @pytest.mark.parametrize("line,what", [
        ('{kind: "pair"}', "Expecting property name"),
        ('{"record":"example","kind":"pear","query":"q","positive":"p"}', "'pear'"),
        ('{"record":"example","kind":"triplet","qury":"q","positive":"p"}', "'qury'"),
    ], ids=["not-json", "unknown-kind", "unknown-field"])
    def test_bad_dataset_record_exits_3_naming_file_and_line(self, tmp_path, capsys, line, what):
        data = tmp_path / "bad.jsonl"
        write_dataset(data, "pair", [Triplet("q", "p")])
        with open(data, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        assert cli_main(["gen-clr", "--input", str(data), "--output", str(tmp_path / "o.jsonl")]) == 3
        err = capsys.readouterr().err
        assert f"{data}:3:" in err and what in err

    @pytest.mark.parametrize("text,what", [
        (" ".join(["a"] * 40), "text of 40 tokens exceeds max_len 32"),
        ("", "cannot encode an empty text"),
    ], ids=["over-long", "empty"])
    def test_eval_of_text_the_encoder_refuses_exits_3_naming_file_and_line(
            self, tmp_path, capsys, text, what):
        data = tmp_path / "heldout.jsonl"
        write_dataset(data, "pair", [Triplet("a", "a"), Triplet(text, "a"), Triplet("a", "a")])
        assert cli_main(["eval", "--checkpoint", str(_untrained_checkpoint(tmp_path / "m.ckpt")),
                         "--data", str(data)]) == 3
        err = capsys.readouterr().err
        assert f"{data}:3:" in err and what in err

    @pytest.mark.parametrize("kind,text,what", [
        ("weak-contrastive", " ".join(["t1"] * 40), "text of 40 tokens exceeds max_len 32"),
        ("weak-contrastive", "", "cannot encode an empty text"),
        ("retrieval", " ".join(["t1"] * 40), "text of 40 tokens exceeds max_len 32"),
    ], ids=["weak-over-long", "weak-empty", "supervised-negative-over-long"])
    def test_train_on_text_the_encoder_refuses_exits_3_naming_file_and_line(
            self, toy_data, tmp_path, capsys, kind, text, what):
        # checked when the stage reads its data, not when a step first draws the text
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4)
        bad = tmp_path / f"{kind}.jsonl"
        if kind == "retrieval":
            _, examples = read_dataset(m.data["supervised"]["retrieval"])
            examples[1].negatives[-1] = text
            m.data["supervised"]["retrieval"] = str(bad)
        else:
            _, examples = read_dataset(m.data[kind])
            examples[1].positive = text
            m.data[kind] = str(bad)
        write_dataset(bad, "pair" if kind != "retrieval" else kind, examples)
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 3
        err = capsys.readouterr().err
        assert f"{bad}:3:" in err and what in err

    @pytest.mark.parametrize("dhnm,code", [(True, 3), (False, 0)], ids=["mining", "no-mining"])
    def test_repeated_uid_under_mining_exits_3_naming_file_and_line(self, toy_data, tmp_path,
                                                                    capsys, dhnm, code):
        # mining names each query by task and uid, so two triplets of one file may not share one
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=dhnm)
        m.stages = m.stages[-1:]
        _, examples = read_dataset(m.data["supervised"]["retrieval"])
        for ex in examples:
            ex.uid = ""
        bad = tmp_path / "retrieval.jsonl"
        write_dataset(bad, "retrieval", examples)
        m.data = {"supervised": {**m.data["supervised"], "retrieval": str(bad)}}
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == code
        err = capsys.readouterr().err
        assert (f"{bad}:3: invalid record: uid '' repeats" in err) == dhnm, err

    @pytest.mark.parametrize("encoder", [{}, None], ids=["without-mrl-dims", "without-encoder"])
    def test_mrl_without_mrl_dims_exits_3_naming_stage_and_field(self, toy_data, tmp_path, capsys,
                                                                 encoder):
        # EncoderConfig.from_dict reads a missing mrl_dims as (): nothing to average over
        out = tmp_path / "run"
        yml = tmp_path / "m.yaml"
        _manifest(toy_data, out).to_yaml(yml)
        doc = yaml.safe_load(yml.read_text())
        if encoder is None:
            del doc["encoder"]
        else:
            del doc["encoder"]["mrl_dims"]
        yml.write_text(yaml.safe_dump(doc))
        assert cli_main(["train", "--manifest", str(yml)]) == 3
        assert f"{yml}: stage 3 (supervised): mrl is on, but the encoder's mrl_dims is empty" \
            in capsys.readouterr().err
        assert not out.exists()
        doc["stages"][3]["mrl"] = False
        yml.write_text(yaml.safe_dump(doc))
        RunManifest.from_yaml(yml)

    @pytest.mark.parametrize("index,code", [(0, 3), (-1, 0)], ids=["drawn", "never-drawn"])
    def test_train_without_mining_checks_only_the_negatives_a_step_draws(
            self, toy_data, tmp_path, capsys, index, code):
        # without DHNM a step embeds a triplet's first negatives_per_query negatives only
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)
        _, examples = read_dataset(m.data["supervised"]["retrieval"])
        assert len(examples[1].negatives) > m.stages[-1].negatives_per_query
        examples[1].negatives[index] = " ".join(["t1"] * 40)
        bad = tmp_path / "retrieval.jsonl"
        write_dataset(bad, "retrieval", examples)
        m.data["supervised"]["retrieval"] = str(bad)
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == code
        assert (f"{bad}:3:" in capsys.readouterr().err) == bool(code)

    @pytest.mark.parametrize("case", ["retrieval-as-sts", "sts-as-retrieval", "sts-as-pair-sft",
                                      "sts-as-weak-contrastive", "eval-triplets-under-sts-header"])
    def test_dataset_of_the_wrong_kind_exits_3_naming_file_and_line(self, toy_data, tmp_path,
                                                                    capsys, case):
        # refused as the stage reads it, before that stage writes a log
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)
        if case == "eval-triplets-under-sts-header":
            bad = tmp_path / "sts.jsonl"
            write_dataset(bad, "sts", read_dataset(toy_data / "retrieval.jsonl")[1])
            assert cli_main(["eval", "--checkpoint", str(_untrained_checkpoint(tmp_path / "m.ckpt")),
                             "--data", str(bad)]) == 3
            assert f"{bad}:2: invalid record: a triplet record" in capsys.readouterr().err
            return
        found, target = case.split("-as-")
        bad = toy_data / f"{found}.jsonl"
        if target in ("sts", "retrieval"):
            m.data["supervised"][target] = str(bad)
            idx = 3
        else:
            m.data[target] = str(bad)
            idx = STAGE_KINDS.index(target)
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 3
        found_kind = "scored_pair" if found == "sts" else "triplet"
        assert f"{bad}:2: invalid record: a {found_kind} record" in capsys.readouterr().err
        assert (tmp_path / "run" / f"stage{idx - 1}-{STAGE_KINDS[idx - 1]}.ckpt").exists()
        assert not list((tmp_path / "run").glob(f"stage{idx}-*"))

    def test_eval_of_one_scored_pair_exits_3_naming_the_file(self, tmp_path, capsys):
        # Spearman needs two pairs; its error named no file
        data = tmp_path / "sts.jsonl"
        write_dataset(data, "sts", [ScoredPair("a", "b", 1.0)])
        assert cli_main(["eval", "--checkpoint", str(_untrained_checkpoint(tmp_path / "m.ckpt")),
                         "--data", str(data)]) == 3
        assert f"dataset {data} has one scored pair" in capsys.readouterr().err

    def test_train_on_empty_lm_file_exits_3_naming_it(self, toy_data, tmp_path, capsys):
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)
        empty = tmp_path / "lm.jsonl"
        empty.write_text("")
        m.data["lm-pretrain"] = str(empty)
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 3
        assert f"dataset {empty} is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("data,task", [("weak-contrastive", "pair"), ("retrieval", "retrieval"),
                                           ("clr", "clr"), ("sts", "sts")])
    def test_train_on_dataset_without_examples_exits_3_naming_it(self, toy_data, tmp_path, capsys,
                                                                 data, task):
        # refused as the stage reads its data, before it writes a log, not at its first step
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)
        empty = tmp_path / f"{data}.jsonl"
        write_dataset(empty, task, [])
        idx = STAGE_KINDS.index(data) if data in STAGE_KINDS else 3
        (m.data if idx < 3 else m.data["supervised"])[data] = str(empty)
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 3
        assert f"dataset {empty} has no examples" in capsys.readouterr().err
        assert (tmp_path / "run" / f"stage{idx - 1}-{STAGE_KINDS[idx - 1]}.ckpt").exists()
        assert not list((tmp_path / "run").glob(f"stage{idx}-*"))

    @pytest.mark.parametrize("kind", ["lm-pretrain", "pair-sft"])
    def test_train_on_too_few_tokens_for_one_window_exits_3_naming_the_file(
            self, toy_data, tmp_path, capsys, kind):
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)
        short = tmp_path / f"{kind}.jsonl"
        if kind == "lm-pretrain":
            write_text_dataset(short, ["t1 t2"])
        else:
            write_dataset(short, "pair", [Triplet("t1", "t2")])
        m.data[kind] = str(short)
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 3
        err = capsys.readouterr().err
        assert f"dataset {short}: not enough tokens to fill a single training window" in err

    @pytest.mark.parametrize("text,what", [
        ("seed: 1\nstages: [ {kind: lm-pretrain\n", ":3: not valid YAML: expected ',' or '}'"),
        ("- kind: lm-pretrain\n  steps: 1\n", ": a manifest must be a YAML mapping, not list"),
        ("data: [lm.jsonl]\n", ": 'data' must be a YAML mapping"),
    ], ids=["syntax-error", "top-level-list", "data-not-mapping"])
    def test_yaml_error_exits_3_naming_manifest(self, tmp_path, capsys, text, what):
        yml = tmp_path / "m.yaml"
        yml.write_text(text)
        assert cli_main(["train", "--manifest", str(yml)]) == 3
        assert f"{yml}{what}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,what", [
        (lambda doc: doc["stages"][0].update(bogus=2), "stage 0: unknown stage options: ['bogus']"),
        # a removed option is refused like any unknown one
        (lambda doc: doc["stages"][3].update(loss_mix={"sts": 0.5}),
         "stage 3: unknown stage options: ['loss_mix']"),
        # "- lm-pretrain": a string, whose letters were read as unknown options
        (lambda doc: doc["stages"].__setitem__(0, "lm-pretrain"),
         "stage 0: a stage must be a mapping, not str"),
        (lambda doc: doc["data"]["supervised"].update(ranking="r.jsonl"),
         "stage 3 (supervised): unknown supervised tasks: ['ranking']"),
        (lambda doc: doc["stages"].reverse(),
         "stage 1 (weak-contrastive): stages must appear in pipeline order"),
        (lambda doc: doc["data"].pop("pair-sft"),
         "stage 1 (pair-sft): manifest is missing data for stage 'pair-sft'"),
        # an option the stage's kind never reads is refused even at its default value
        (lambda doc: doc["stages"][2].update(mrl=True),
         "stage 2 (weak-contrastive): this weak-contrastive stage does not read mrl"),
        (lambda doc: doc["stages"][3].update(batch_size=32),
         "stage 3 (supervised): this supervised stage does not read batch_size"),
        (lambda doc: doc["stages"][3].update(window_len=16),
         "stage 3 (supervised): this supervised stage does not read window_len"),
        (lambda doc: doc["stages"][0].update(negatives_per_query=7, temperature=0.05),
         "stage 0 (lm-pretrain): this lm-pretrain stage does not read negatives_per_query, temperature"),
        (lambda doc: doc["stages"][2].update(mask_policy="bidirectional"),
         "stage 2 (weak-contrastive): this weak-contrastive stage does not read mask_schedule"),
        (lambda doc: doc["stages"][3].update(dhnm=False),
         "stage 3 (supervised): this supervised stage does not read dhnm_mode"),
    ], ids=["stage-option", "removed-stage-option", "stage-not-mapping", "supervised-task", "stage-order",
            "stage-data", "weak-mrl", "supervised-batch-size", "supervised-window-len",
            "lm-negatives-and-temperature", "bidirectional-mask-schedule", "dhnm-mode-without-dhnm"])
    def test_manifest_error_exits_3_naming_manifest_and_stage(self, toy_data, tmp_path, capsys,
                                                             edit, what):
        yml = tmp_path / "m.yaml"
        _manifest(toy_data, tmp_path / "run").to_yaml(yml)
        doc = yaml.safe_load(yml.read_text())
        edit(doc)
        yml.write_text(yaml.safe_dump(doc))
        assert cli_main(["train", "--manifest", str(yml)]) == 3
        assert f"{yml}: {what}" in capsys.readouterr().err

    @pytest.mark.parametrize("stage,edit,what", [
        (2, lambda s, d: s.update(mask_schedule="cosine"), "mask_schedule must be one of"),
        (3, lambda s, d: s.update(dhnm_mode="fuzzy"), "dhnm_mode must be one of"),
        (0, lambda s, d: s.update(batch_size=0), "batch_size must be an integer >= 1, not 0"),
        (3, lambda s, d: s.update(triplet_batch_size=0), "triplet_batch_size must be an integer >= 1"),
        (1, lambda s, d: s.update(window_len=0), "window_len must be an integer >= 1"),
        (0, lambda s, d: s.update(window_len=33), "window_len 33 exceeds the encoder's max_len 32"),
        (1, lambda s, d: s.update(window_len=80), "window_len 80 exceeds the encoder's max_len 32"),
        (3, lambda s, d: s.update(negatives_per_query=-1), "negatives_per_query must be an integer >= 0"),
        (3, lambda s, d: s.update(checkpoint_every=-5), "checkpoint_every must be an integer >= 0"),
        (1, lambda s, d: s.update(lr=-1), "lr must be a finite number > 0, not -1"),
        (2, lambda s, d: s.update(temperature=0), "temperature must be a finite number > 0, not 0"),
        (1, lambda s, d: s.update(lr=float("inf")), "lr must be a finite number > 0, not inf"),
        (2, lambda s, d: s.update(temperature=float("nan")),
         "temperature must be a finite number > 0, not nan"),
        (3, lambda s, d: s.update(weight_decay=float("inf")),
         "weight_decay must be a finite number >= 0, not inf"),
        (0, lambda s, d: s.update(steps=True), "steps must be an integer >= 1, not True"),
        (0, lambda s, d: d.update({"lm-pretrain": {"text": "lm.jsonl"}}),
         "lm-pretrain data must be one dataset path, not a mapping"),
    ], ids=["mask-schedule", "dhnm-mode", "batch-size", "triplet-batch-size", "window-len",
            "lm-window-len-over-max-len", "sft-window-len-over-max-len", "negatives-per-query",
            "checkpoint-every", "lr", "temperature", "lr-inf", "temperature-nan", "weight-decay-inf",
            "steps-bool", "data-mapping"])
    def test_bad_stage_value_exits_3_before_any_stage_runs(self, toy_data, tmp_path, capsys,
                                                           stage, edit, what):
        # refused as the manifest is read, naming the stage, not when its stage starts
        out = tmp_path / "run"
        yml = tmp_path / "m.yaml"
        _manifest(toy_data, out).to_yaml(yml)
        doc = yaml.safe_load(yml.read_text())
        edit(doc["stages"][stage], doc["data"])
        yml.write_text(yaml.safe_dump(doc))
        assert cli_main(["train", "--manifest", str(yml)]) == 3
        kind = doc["stages"][stage]["kind"]
        assert f"{yml}: stage {stage} ({kind}): {what}" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config_exits_3(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("stages: [{kind: nonsense, steps: 1}]\ndata: {}\n")
        assert cli_main(["train", "--manifest", str(bad)]) == 3

    def test_train_eval_gen_clr_end_to_end(self, toy_data, tmp_path, capsys):
        m = _manifest(toy_data, tmp_path / "cli-run", sup_steps=4, dhnm=False)
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 0
        out = capsys.readouterr().out.splitlines()
        final = json.loads(out[-1])
        assert final["record"] == "final_checkpoint"

        assert cli_main(["eval", "--checkpoint", final["path"],
                         "--data", str(toy_data / "retrieval.jsonl"), "--k", "1,5"]) == 0
        recs = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert any(r["metric"] == "recall@1" for r in recs)

        dist = tmp_path / "dist.yaml"
        dist.write_text("aa: 1\nbb: 1\n")
        out_path = tmp_path / "clr-out.jsonl"
        assert cli_main(["gen-clr", "--input", str(toy_data / "pairs.jsonl"),
                         "--output", str(out_path), "--distribution", str(dist),
                         "--seed", "3"]) == 0
        assert out_path.exists()

    def test_gen_clr_non_finite_weight_exits_3_naming_code(self, toy_data, tmp_path, capsys):
        dist = tmp_path / "dist.yaml"
        dist.write_text("aa: .nan\nbb: 1\n")
        out_path = tmp_path / "clr-out.jsonl"
        assert cli_main(["gen-clr", "--input", str(toy_data / "pairs.jsonl"),
                         "--output", str(out_path), "--distribution", str(dist)]) == 3
        assert f"{dist}: language 'aa' has weight nan" in capsys.readouterr().err
        assert not out_path.exists()

    def test_resume_across_manifest_seeds_exits_3(self, toy_data, tmp_path, capsys):
        # the checkpoint's step rngs belong to seed 5: a seed-99 resume would
        # match neither run, so it is refused; adopting its weights is not
        m = _manifest(toy_data, tmp_path / "s1", sup_steps=4, dhnm=False)
        yml = tmp_path / "m1.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 0
        ckpt = tmp_path / "s1" / "stage1-pair-sft.ckpt"
        capsys.readouterr()
        assert cli_main(["train", "--manifest", str(yml), "--seed", "99", "--resume", str(ckpt),
                         "--output-dir", str(tmp_path / "s2")]) == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and "seed 5" in err and "seed 99" in err
        assert not (tmp_path / "s2").exists() or not list((tmp_path / "s2").iterdir())
        m.seed = 99
        m.output_dir = str(tmp_path / "s3")
        assert Path(Trainer(m).run(init_from=str(ckpt))).exists()

    def test_resume_from_a_version_2_checkpoint_exits_3_and_init_from_adopts_its_weights(
            self, toy_data, tmp_path, capsys):
        # a version-2 file kept its mining state as JSON after the buffers: its stage restarts,
        # but eval and init_from still read its weights
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)
        m.stages = m.stages[:2]
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 0
        ckpt = tmp_path / "run" / "stage0-lm-pretrain.ckpt"
        old = tmp_path / "old.ckpt"
        _save_v2(old, *load_checkpoint(ckpt), {"mining": {"mode": "absolute", "slots": []}})
        capsys.readouterr()
        assert cli_main(["train", "--manifest", str(yml), "--resume", str(old)]) == 3
        err = capsys.readouterr().err
        assert str(old) in err and "version 2" in err and "stage must restart" in err, err
        finals = []
        for name, path in (("from-v3", ckpt), ("from-v2", old)):
            m.output_dir = str(tmp_path / name)
            finals.append(Path(Trainer(m).run(init_from=str(path))).read_bytes())
        assert finals[0] == finals[1]
        assert finals[0] != (tmp_path / "run" / "stage1-pair-sft.ckpt").read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda m, ckpt: setattr(m.stages[2], "lr", 2e-3) or ["stage 2 lr 0.001", "stage 2 lr 0.002"],
        lambda m, ckpt: _change_one_byte(Path(m.data["pair-sft"])),
        lambda m, ckpt: _drop_fingerprint(ckpt) or ["records no manifest fingerprint"],
    ], ids=["stage-option", "dataset-byte", "no-fingerprint"])
    def test_resume_under_an_edited_manifest_exits_3(self, toy_data, tmp_path, capsys, edit):
        # a resume replays the run that wrote the checkpoint; under an edited
        # recipe it would continue neither that run nor the edited one
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)
        sft = tmp_path / "sft.jsonl"
        sft.write_bytes(Path(m.data["pair-sft"]).read_bytes())
        m.data["pair-sft"] = str(sft)
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 0
        ckpt = tmp_path / "run" / "stage1-pair-sft.ckpt"
        what = edit(m, ckpt)
        m.to_yaml(yml)
        before = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
        capsys.readouterr()
        assert cli_main(["train", "--manifest", str(yml), "--resume", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and all(w in err for w in what), err
        assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == before

    def test_resume_from_a_checkpoint_without_steps_exits_3(self, toy_data, tmp_path, capsys):
        # it resumed under the manifest's steps, whatever the steps of the run that wrote it
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)
        m.stages[0].checkpoint_every = 4
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 0
        ckpt = tmp_path / "run" / "stage0-step4.ckpt"
        config, arrays, extra = load_checkpoint(ckpt)
        del extra["steps"]
        save_checkpoint(ckpt, config, arrays, extra)
        capsys.readouterr()
        assert cli_main(["train", "--manifest", str(yml), "--resume", str(ckpt)]) == 3
        assert f"cannot resume from {ckpt}: it records no stage steps" in capsys.readouterr().err

    @pytest.mark.parametrize("line,what", [
        ("{not json}\n", "Expecting property name"),
        ('{"stage":0,"loss":0.5}\n', "'step'"),
        ('{"step":"1"}\n', "step '1' is not an integer"),
    ], ids=["not-json", "no-step", "step-not-integer"])
    def test_resume_over_a_bad_log_record_exits_3_naming_file_and_line(
            self, toy_data, tmp_path, capsys, line, what):
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)
        m.stages[0].checkpoint_every = 4
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 0
        log = tmp_path / "run" / "stage0-lm-pretrain.metrics.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        lines[2] = line
        log.write_text("".join(lines))
        capsys.readouterr()
        assert cli_main(["train", "--manifest", str(yml),
                         "--resume", str(tmp_path / "run" / "stage0-step4.ckpt")]) == 3
        err = capsys.readouterr().err
        assert f"{log}:3: not a log record with a step" in err and what in err, err

    @pytest.mark.parametrize("edit,what", [
        (lambda doc: doc["encoder"].update(max_len=0), "encoder: max_len must be an integer >= 1, not 0"),
        (lambda doc: doc["encoder"].update(ffn_dim=0), "encoder: ffn_dim must be an integer >= 1, not 0"),
        (lambda doc: doc["encoder"].update(kv_heads=0), "encoder: kv_heads must be an integer >= 1, not 0"),
        (lambda doc: doc["encoder"].update(hidden_dim=16.0),
         "encoder: hidden_dim must be an integer >= 1, not 16.0"),
        (lambda doc: doc["encoder"].update(layers=True), "encoder: layers must be an integer >= 0, not True"),
        (lambda doc: doc.update(seed=1.7), "seed must be an integer >= 0, not 1.7"),
        (lambda doc: doc.update(seed=True), "seed must be an integer >= 0, not True"),
    ], ids=["max-len", "ffn-dim", "kv-heads", "hidden-dim-float", "layers-bool", "seed-float",
            "seed-bool"])
    def test_bad_encoder_value_or_seed_exits_3_naming_manifest_and_field(
            self, toy_data, tmp_path, capsys, edit, what):
        out = tmp_path / "run"
        yml = tmp_path / "m.yaml"
        _manifest(toy_data, out).to_yaml(yml)
        doc = yaml.safe_load(yml.read_text())
        edit(doc)
        yml.write_text(yaml.safe_dump(doc))
        assert cli_main(["train", "--manifest", str(yml)]) == 3
        assert f"{yml}: {what}" in capsys.readouterr().err
        assert not out.exists()

    def test_vocab_size_below_the_dataset_headers_exits_3_naming_manifest_and_field(
            self, toy_data, tmp_path, capsys):
        # the Tokenizer's own message named neither
        out = tmp_path / "run"
        yml = tmp_path / "m.yaml"
        _manifest(toy_data, out).to_yaml(yml)
        doc = yaml.safe_load(yml.read_text())
        doc["encoder"]["vocab_size"] = 260
        yml.write_text(yaml.safe_dump(doc))
        assert cli_main(["train", "--manifest", str(yml)]) == 3
        err = capsys.readouterr().err
        assert f"{yml}: encoder: vocab_size: vocabulary of " in err and "vocab_size is 260" in err
        assert not out.exists()

    @pytest.mark.parametrize("line", [1, 2])
    def test_bytes_that_are_not_utf8_in_a_dataset_exit_3_naming_path_and_line(
            self, toy_data, tmp_path, capsys, line):
        # a header is read for the tokenizer, the records as the stage starts
        m = _manifest(toy_data, tmp_path / "run")
        m.stages = m.stages[:1]
        lm = tmp_path / "lm.jsonl"
        lines = Path(m.data["lm-pretrain"]).read_bytes().splitlines(keepends=True)
        lines[line - 1] = b"\xff" + lines[line - 1]
        lm.write_bytes(b"".join(lines))
        m.data["lm-pretrain"] = str(lm)
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 3
        assert f"{lm}:{line}: " in capsys.readouterr().err

    def test_bad_seed_override_exits_3_naming_it(self, toy_data, tmp_path, capsys):
        out = tmp_path / "run"
        yml = tmp_path / "m.yaml"
        _manifest(toy_data, out).to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml), "--seed", "-1"]) == 3
        assert "seed must be an integer >= 0, not -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stage,ckpt,steps,code", [
        (2, "stage2-step3.ckpt", 8, 3),
        (3, "stage3-step2.ckpt", 6, 3),
        (2, "stage2-weak-contrastive.ckpt", 8, 3),
        (3, "stage3-supervised.ckpt", 6, 0),
    ], ids=["weak-mid-stage", "supervised-mid-stage", "soft-final", "bidirectional-final"])
    def test_resume_under_other_steps(self, toy_data, tmp_path, capsys, stage, ckpt, steps, code):
        # steps sizes the warmup and the soft-mask clock: only a final checkpoint of a stage
        # without a soft mask may go on under other steps
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)
        m.stages[2].checkpoint_every = 3
        m.stages[3].checkpoint_every = 2
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 0
        before = m.stages[stage].steps
        m.stages[stage].steps = steps
        m.to_yaml(yml)
        path = tmp_path / "run" / ckpt
        capsys.readouterr()
        assert cli_main(["train", "--manifest", str(yml), "--resume", str(path)]) == code
        if code:
            err = capsys.readouterr().err
            assert str(path) in err and f"steps {before}" in err and f"steps {steps}" in err, err
        else:
            log = tmp_path / "run" / f"stage{stage}-{STAGE_KINDS[stage]}.metrics.jsonl"
            assert [json.loads(ln)["step"] for ln in log.read_text().splitlines()] == list(range(steps))

    def test_train_seed_override_changes_outputs(self, toy_data, tmp_path):
        m = _manifest(toy_data, tmp_path / "s1", sup_steps=4, dhnm=False)
        yml = tmp_path / "m1.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 0
        assert cli_main(["train", "--manifest", str(yml), "--seed", "99",
                         "--output-dir", str(tmp_path / "s2")]) == 0
        a = (tmp_path / "s1" / "stage0-lm-pretrain.metrics.jsonl").read_text()
        b = (tmp_path / "s2" / "stage0-lm-pretrain.metrics.jsonl").read_text()
        assert a != b
