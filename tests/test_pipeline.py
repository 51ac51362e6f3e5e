"""Optimizer behavior, stage/manifest validation, scheduled-mask wiring,
round-robin task mixing, determinism, mid-stage resume, and the CLI surface."""

import json
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from embedkit.autograd import Tensor, no_grad
from embedkit.checkpoint import save_checkpoint
from embedkit.cli import main as cli_main
from embedkit.data import (MockTranslator, LanguageDistribution, Pair, Triplet, build_classification,
                           build_sts, build_triplets, generate_clr_dataset, pair_from_sft,
                           build_sft_records, synth_corpus, write_dataset, write_text_dataset)
from embedkit.encoder import Encoder, EncoderConfig
from embedkit.masks import bidirectional_mask, causal_mask
from embedkit.mining import MiningState
from embedkit.optim import AdamW, AdamWConfig, warmup_lr
from embedkit.pipeline import (_SCORE_BUDGET, STAGE_KINDS, SUPERVISED_TASKS, RunManifest,
                               StageConfig, Trainer, _block_rows, _stage_mask, batch_ids,
                               embed_texts, evaluate_checkpoint)
from embedkit.tokenizer import Tokenizer

SMALL_ENC = EncoderConfig(layers=1, hidden_dim=16, heads=4, kv_heads=2, ffn_dim=32,
                          vocab_size=512, max_len=32, mrl_dims=(8, 16))


class TestAdamW:
    def test_zero_gradient_zero_decay_leaves_params(self):
        p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        opt = AdamW(p, AdamWConfig(lr=0.1, weight_decay=0.0))
        p["w"].grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p["w"].data, [1.0, -2.0])

    def test_descends_on_quadratic(self):
        p = {"x": Tensor(np.array([1.0]), requires_grad=True)}
        opt = AdamW(p, AdamWConfig(lr=0.1, weight_decay=0.0))
        p["x"].grad = 2.0 * p["x"].data
        opt.step()
        assert 0.0 < float(p["x"].data[0]) < 1.0

    def test_converges_on_convex_quadratic(self):
        target = np.array([0.3, -1.2, 2.0])
        p = {"x": Tensor(np.ones(3), requires_grad=True)}
        opt = AdamW(p, AdamWConfig(lr=0.1, weight_decay=0.0))
        for _ in range(200):
            p["x"].grad = 2.0 * (p["x"].data - target)
            opt.step()
        assert np.linalg.norm(p["x"].data - target) < 1e-3

    def test_nonfinite_gradient_aborts(self):
        p = {"x": Tensor(np.ones(2), requires_grad=True)}
        opt = AdamW(p, AdamWConfig())
        p["x"].grad = np.array([1.0, np.nan])
        with pytest.raises(ArithmeticError, match="non-finite"):
            opt.step()

    def test_state_roundtrip(self):
        p = {"x": Tensor(np.ones(2), requires_grad=True)}
        opt = AdamW(p, AdamWConfig(lr=0.05))
        p["x"].grad = np.array([0.5, -0.5])
        opt.step()
        arrays = opt.export_state()
        opt2 = AdamW({"x": Tensor(p["x"].data.copy(), requires_grad=True)}, AdamWConfig(lr=0.05))
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
        with pytest.raises(ValueError, match="mining"):
            StageConfig(kind="weak-contrastive", steps=5, dhnm=True)

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown stage options"):
            StageConfig.from_dict({"kind": "supervised", "steps": 5, "learning_rate": 0.1})

    def test_seven_negatives_default(self):
        assert StageConfig(kind="supervised", steps=5).negatives_per_query == 7

    def test_batch_size_defaults(self):
        cfg = StageConfig(kind="supervised", steps=5)
        assert cfg.triplet_batch_size == 4 and cfg.sts_batch_size == 32


class TestStageMask:
    def test_scheduled_stage_hits_exact_endpoints(self):
        cfg = StageConfig(kind="weak-contrastive", steps=10, mask_policy="soft")
        first = _stage_mask(cfg, 0, 6)
        last = _stage_mask(cfg, 9, 6)
        np.testing.assert_array_equal(first.entries, causal_mask(6).entries)
        np.testing.assert_array_equal(last.entries, np.ones((6, 6)))

    def test_single_step_stage_is_bidirectional(self):
        cfg = StageConfig(kind="weak-contrastive", steps=1, mask_policy="soft")
        np.testing.assert_array_equal(_stage_mask(cfg, 0, 4).entries, np.ones((4, 4)))

    def test_causal_policy(self):
        cfg = StageConfig(kind="lm-pretrain", steps=3)
        np.testing.assert_array_equal(_stage_mask(cfg, 1, 5).entries, causal_mask(5).entries)


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


class TestManifest:
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

    def test_yaml_roundtrip_resolves_paths(self, toy_data, tmp_path):
        m = _manifest(toy_data, tmp_path / "run")
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        back = RunManifest.from_yaml(yml)
        assert back.encoder == m.encoder
        assert [s.kind for s in back.stages] == [s.kind for s in m.stages]
        assert back.data == m.data


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

    def test_crash_then_resume_in_place_matches_uninterrupted(self, toy_data, tmp_path):
        final_full = Trainer(_manifest(toy_data, tmp_path / "full")).run()

        class Crash(Trainer):
            def _supervised_step(self, cfg, encoder, datasets, rng, step, mining, mining_fh):
                if step == 8:
                    raise RuntimeError("simulated crash")
                return super()._supervised_step(cfg, encoder, datasets, rng, step,
                                                mining, mining_fh)

        crashed = _manifest(toy_data, tmp_path / "crashed")
        with pytest.raises(RuntimeError, match="simulated crash"):
            Crash(crashed).run()
        with open(tmp_path / "crashed" / "stage3-supervised.metrics.jsonl", "a") as fh:
            fh.write('{"kind":"supervised","loss":0.5')      # a record torn by the crash
        final_res = Trainer(crashed).run(resume_from=str(tmp_path / "crashed" / "stage3-step5.ckpt"))
        assert Path(final_full).read_bytes() == Path(final_res).read_bytes()
        for name in ("stage3-supervised.metrics.jsonl", "stage3-mining.jsonl"):
            assert (tmp_path / "crashed" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

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
        from embedkit.data import read_dataset
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

    def test_step_graph_freed_before_next_step(self, toy_data, tmp_path):
        # step N's loss, and with it the whole tape, is gone when step N+1 starts
        previous = []

        class Watched(Trainer):
            def _watch(self, step_fn, *args):
                assert all(ref() is None for ref in previous), "previous step's graph is alive"
                loss, task = step_fn(*args)
                previous[:] = [weakref.ref(loss)]
                return loss, task

            def _lm_step(self, *args):
                return self._watch(super()._lm_step, *args)

            def _contrastive_step(self, *args):
                return self._watch(super()._contrastive_step, *args)

            def _supervised_step(self, *args):
                return self._watch(super()._supervised_step, *args)

        Watched(_manifest(toy_data, tmp_path / "run", sup_steps=4)).run()
        assert previous

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf is injected on purpose
    def test_nonfinite_loss_aborts_with_step(self, toy_data, tmp_path):
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)

        class Poisoned(Trainer):
            def _lm_step(self, cfg, encoder, data, rng, step, mining, mining_fh):
                encoder.params["embed"].data[0, 0] = np.inf
                return super()._lm_step(cfg, encoder, data, rng, step, mining, mining_fh)

        with pytest.raises(ArithmeticError, match="stage 0 step 0"):
            Poisoned(m).run()


def _embed_per_group(encoder, tokenizer, texts, chunk=128):
    """Reference: ``embed_texts`` before row blocks, one ``embed_batch`` per padding group."""
    out = []
    with no_grad():
        for i in range(0, len(texts), chunk):
            ids, lengths = batch_ids(tokenizer, texts[i:i + chunk])
            out.append(encoder.embed_batch(ids, bidirectional_mask(ids.shape[1]), lengths).data)
    return np.concatenate(out, axis=0)


def _untrained_checkpoint(path):
    arrays = {f"model.{k}": v for k, v in Encoder(SMALL_ENC, seed=1).export_arrays().items()}
    save_checkpoint(path, SMALL_ENC.to_dict(), arrays, {"vocab": ["a"]}, {"mining": None})
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
            ranked = [ex.negatives[i] for i in order]
            k = min(cfg.negatives_per_query, len(ranked))
            mining.register_query(f"{task}:{ex.uid}", ranked[:k], ranked[k:])
    return mining


class TestInitMining:
    def test_batched_ranking_matches_per_query_reference(self, toy_data, tmp_path):
        m = _manifest(toy_data, tmp_path / "run")
        trainer = Trainer(m)
        cfg = m.stages[-1]
        datasets = trainer._load_stage_data(cfg)
        encoder = Encoder(m.encoder, seed=m.seed)
        got = trainer._init_mining(cfg, encoder, datasets)
        want = _init_mining_per_query(trainer, cfg, encoder, datasets)
        assert got.to_dict() == want.to_dict()
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

    def test_mask_demo_dump_mask(self, capsys):
        assert cli_main(["mask-demo", "--n", "4", "--samples", "2", "--dump-mask"]) == 0
        recs = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        rows = [r for r in recs if r["record"] == "mask_row"]
        assert len(rows) == 8 and len(rows[0]["values"]) == 4

    def test_grad_check_passes(self, capsys):
        assert cli_main(["grad-check", "--cases", "2"]) == 0
        recs = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert len(recs) == 8 and all(r["ok"] is True for r in recs)

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

    def test_eval_of_dataset_without_examples_exits_3_naming_it(self, tmp_path, capsys):
        data = tmp_path / "none.jsonl"
        write_dataset(data, "retrieval", [])
        assert cli_main(["eval", "--checkpoint", str(_untrained_checkpoint(tmp_path / "m.ckpt")),
                         "--data", str(data)]) == 3
        assert str(data) in capsys.readouterr().err

    @pytest.mark.parametrize("line,what", [
        ('{kind: "pair"}', "Expecting property name"),
        ('{"record":"example","kind":"pear","query":"q","positive":"p"}', "'pear'"),
        ('{"record":"example","kind":"pair","qury":"q","positive":"p"}', "'qury'"),
    ], ids=["not-json", "unknown-kind", "unknown-field"])
    def test_bad_dataset_record_exits_3_naming_file_and_line(self, tmp_path, capsys, line, what):
        data = tmp_path / "bad.jsonl"
        write_dataset(data, "pair", [Pair("q", "p")])
        with open(data, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        assert cli_main(["gen-clr", "--input", str(data), "--output", str(tmp_path / "o.jsonl")]) == 3
        err = capsys.readouterr().err
        assert f"{data}:3:" in err and what in err

    def test_train_on_empty_lm_file_exits_3_naming_it(self, toy_data, tmp_path, capsys):
        m = _manifest(toy_data, tmp_path / "run", sup_steps=4, dhnm=False)
        empty = tmp_path / "lm.jsonl"
        empty.write_text("")
        m.data["lm-pretrain"] = str(empty)
        yml = tmp_path / "m.yaml"
        m.to_yaml(yml)
        assert cli_main(["train", "--manifest", str(yml)]) == 3
        assert f"dataset {empty} is empty" in capsys.readouterr().err

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
