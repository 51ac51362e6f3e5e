"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Criteria 1-5 and 9 are exact property checks; 6-8 are directional
desk-scale training runs with fixed seeds; 10 is bitwise reproducibility
of the default toy manifest including a mid-stage resume.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from embedkit import autograd as ag
from embedkit.autograd import Tensor, grad_check
from embedkit.data import (LanguageDistribution, MockTranslator, build_sft_records,
                           build_classification, build_sts, build_triplets,
                           generate_clr_dataset, pair_from_sft, synth_corpus,
                           write_dataset, write_text_dataset)
from embedkit.encoder import Encoder, EncoderConfig
from embedkit.evaluation import centroid_analysis, exact_search, ndcg_at_10, recall_at_k, spearman
from embedkit.losses import cosent, info_nce_with_scores, next_token_ce
from embedkit.masks import build_soft_mask, mask_numerical_rank, rank_trajectory, schedule_alpha
from embedkit.mining import Decision, MiningState, decide_scores
from embedkit.pipeline import (RunManifest, StageConfig, Trainer, default_toy_manifest,
                               embed_texts, evaluate_checkpoint, load_encoder)

from test_eval import oracle_ndcg10, oracle_recall, oracle_search, oracle_spearman
from test_masks import GOLDEN_RANKS_LINEAR_16
from test_mining import _register, oracle_replay


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
          + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. mask endpoints
# ---------------------------------------------------------------------------

def test_criterion_1_mask_endpoints():
    start = time.time()
    ok = True
    detail = []
    for n in (4, 16, 64):
        m0 = build_soft_mask(n, schedule_alpha("linear", 0, 100))
        m1 = build_soft_mask(n, schedule_alpha("linear", 100, 100))
        ok &= np.array_equal(m0, np.tril(np.ones((n, n))))
        ok &= np.array_equal(m1, np.ones((n, n)))
        r0, r1 = mask_numerical_rank(m0, 1e-8), mask_numerical_rank(m1, 1e-8)
        ok &= (r0 == n and r1 == 1)
        detail.append(f"n={n}: ranks {r0}/{r1}")
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    _report(1, "mask endpoints", ok, "; ".join(detail) + f"; {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. mask monotonicity + golden rank trajectory
# ---------------------------------------------------------------------------

def test_criterion_2_mask_monotonicity():
    start = time.time()
    ok = True
    for kind in ("linear", "accelerating", "decelerating"):
        prev = None
        for t in range(9):
            m = build_soft_mask(16, schedule_alpha(kind, t, 8))
            if prev is not None:
                ok &= bool(np.all(m >= prev))
            prev = m
    ranks = [r for _, r in rank_trajectory("linear", 16, samples=9)]
    ok &= ranks == GOLDEN_RANKS_LINEAR_16
    ok &= all(a >= b for a, b in zip(ranks, ranks[1:]))
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    _report(2, "mask monotonicity", ok, f"ranks={ranks}; {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. gradient fidelity
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_fidelity():
    start = time.time()
    worst = {"info_nce_with_scores": 0.0, "cosent": 0.0, "next_token_ce": 0.0, "encoder": 0.0}

    for seed in range(50):
        rng = np.random.default_rng(seed)
        pos = rng.normal(size=(4, 8))
        pos /= np.linalg.norm(pos, axis=-1, keepdims=True)
        neg = rng.normal(size=(4, 3, 8))
        neg /= np.linalg.norm(neg, axis=-1, keepdims=True)
        raw = rng.normal(size=(4, 8))
        passages = np.concatenate([pos, neg.reshape(12, 8)])    # 4 positives, then 3 negatives each
        worst["info_nce_with_scores"] = max(worst["info_nce_with_scores"], grad_check(
            lambda t: info_nce_with_scores(ag.l2_normalize(t), Tensor(passages),
                                           temperature=0.5)[0], raw, h=1e-6))

        cos = rng.uniform(-0.9, 0.9, 6)
        labels = rng.integers(0, 3, 6).astype(float)
        worst["cosent"] = max(worst["cosent"], grad_check(
            lambda t: cosent(t, labels, tau=0.05), cos, h=1e-6))

        states = rng.normal(size=(4, 6))
        table = rng.normal(size=(8, 6))
        targets = rng.integers(0, 8, 4)
        worst["next_token_ce"] = max(
            worst["next_token_ce"],
            grad_check(lambda t: next_token_ce(t, Tensor(table), targets), states, h=1e-6),
            grad_check(lambda t: next_token_ce(Tensor(states), t, targets), table, h=1e-6))

    cfg = EncoderConfig(layers=2, hidden_dim=16, heads=4, kv_heads=2, ffn_dim=32,
                        vocab_size=24, max_len=8, mrl_dims=(8, 16))
    for seed in range(50):
        enc = Encoder(cfg, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        q_ids = rng.integers(2, 24, size=(2, 4))
        p_ids = rng.integers(2, 24, size=(2, 4))
        name = sorted(enc.params)[seed % len(enc.params)]
        base = enc.params[name].data.copy()

        def f(t):
            enc.params[name] = t
            return info_nce_with_scores(enc.embed_batch(q_ids, 1.0),
                                        enc.embed_batch(p_ids, 1.0), temperature=0.5)[0]

        worst["encoder"] = max(worst["encoder"], grad_check(f, base, h=1e-5,
                                                            max_coords=20, seed=seed))
        enc.params[name] = Tensor(base, requires_grad=True)

    elapsed = time.time() - start
    ok = (worst["info_nce_with_scores"] < 1e-4 and worst["cosent"] < 1e-4
          and worst["next_token_ce"] < 1e-4 and worst["encoder"] < 1e-3
          and elapsed < 60.0)
    _report(3, "gradient fidelity", ok,
            ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. loss hand values
# ---------------------------------------------------------------------------

def test_criterion_4_loss_hand_values():
    # one query: its positive, then its negative(s)
    nce_single = float(info_nce_with_scores(
        Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0], [-1.0, 0.0]]), temperature=1.0)[0].data)
    m = 7
    cand = np.tile([[0.0, 1.0]], (m, 1))    # the positive and m - 1 negatives, all at cosine 0
    nce_uniform = float(info_nce_with_scores(
        Tensor([[1.0, 0.0]]), Tensor(cand), temperature=1.0)[0].data)
    cos_equal = float(cosent(Tensor([0.4, 0.4]), np.array([1.0, 0.0]), tau=0.05).data)

    expect = math.log(1.0 + math.exp(-2.0))
    ok = (abs(nce_single - expect) < 1e-9
          and abs(nce_uniform - math.log(m)) < 1e-9
          and abs(cos_equal - math.log(2.0)) < 1e-9)
    _report(4, "loss hand values", ok,
            f"nce={nce_single:.9f}, uniform(log {m})={nce_uniform:.9f}, cosent={cos_equal:.9f}")


# ---------------------------------------------------------------------------
# 5. mining oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_5_mining_oracle_equivalence():
    start = time.time()
    worked = (decide_scores(0.3, 0.3, True) is Decision.REPLACE
              and decide_scores(0.8, 0.6, False) is Decision.REPLACE
              and decide_scores(0.8, 0.75, False) is Decision.KEEP
              and decide_scores(0.5, 0.45, False) is Decision.KEEP)

    mismatches = 0
    total = 0
    for mode in ("literal", "absolute"):
        rng = np.random.default_rng(1234 if mode == "literal" else 5678)
        for _ in range(5_000):
            n_slots = int(rng.integers(1, 4))
            n_steps = int(rng.integers(1, 6))
            pool = [f"p{i}" for i in range(rng.integers(0, 5))]
            trajectory = []
            for _step in range(n_steps):
                observed = [k for k in range(n_slots) if rng.random() < 0.8]
                trajectory.append([(k, float(np.round(rng.uniform(-1, 1), 3)))
                                   for k in observed])
            ms = MiningState(mode=mode)
            _register(ms, "q", [f"n{k}" for k in range(n_slots)], pool)
            got = []
            n_exhausted = 0
            for step, obs in enumerate(trajectory):
                got.append([r["decision"] for r in ms.cache_scores(step, [("q", k, v)
                                                                          for k, v in obs])])
                n_exhausted += sum(e.exhausted for e in ms.replace_flagged())
            want, negs, cursor, exhausted = oracle_replay(trajectory, mode, pool, n_slots)
            total += 1
            if (got != want or ms.current_negatives("q") != negs
                    or ms.cursor[ms.queries["q"]] != cursor
                    or n_exhausted != exhausted):
                mismatches += 1
    elapsed = time.time() - start
    ok = worked and mismatches == 0 and elapsed < 10.0
    _report(5, "mining oracle equivalence", ok,
            f"{total} trajectories, {mismatches} mismatches; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# shared corpora for the training criteria
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _split_heldout(corpus):
    held = [p for p in corpus.pairs if p.uid.endswith("-p0")]
    train = [p for p in corpus.pairs if not p.uid.endswith("-p0")]
    trimmed = corpus.__class__(languages=corpus.languages, n_clusters=corpus.n_clusters,
                               sentences=corpus.sentences, pairs=train,
                               label_words=corpus.label_words)
    return trimmed, held


# ---------------------------------------------------------------------------
# 6. toy retrieval convergence
# ---------------------------------------------------------------------------

def test_criterion_6_toy_retrieval_convergence(work):
    start = time.time()
    data_dir = work / "retrieval64"
    corpus = synth_corpus(64, 6, seed=100, sentence_len=8)
    train_corpus, held = _split_heldout(corpus)
    write_dataset(data_dir / "retrieval.jsonl", "retrieval",
                  build_triplets(train_corpus, pool_size=24, seed=101))
    write_dataset(data_dir / "held.jsonl", "pair", held)

    budgets = (250, 500, 1000, 1500, 2000)
    successes = 0
    results = []
    for seed in range(5):
        ckpt = None
        best = 0.0
        for budget in budgets:
            manifest = RunManifest(
                encoder=EncoderConfig(),
                stages=[StageConfig(kind="supervised", steps=budget, lr=2e-3, dhnm=True,
                                    triplet_batch_size=4, negatives_per_query=7)],
                data={"supervised": {"retrieval": str(data_dir / "retrieval.jsonl")}},
                output_dir=str(work / f"c6-s{seed}"), seed=seed)
            ckpt = Trainer(manifest).run(resume_from=ckpt)
            best = evaluate_checkpoint(ckpt, data_dir / "held.jsonl", ks=(1,))["recall@1"]
            if best >= 0.95:
                break
        successes += best >= 0.95
        results.append(round(best, 3))
    elapsed = time.time() - start
    ok = successes >= 4 and elapsed < 300.0
    _report(6, "toy retrieval convergence", ok,
            f"recall@1 per seed {results}, {successes}/5 reached 0.95; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. soft-mask benefit (directional)
# ---------------------------------------------------------------------------

def test_criterion_7_soft_mask_benefit(work):
    start = time.time()
    data_dir = work / "softmask"
    corpus = synth_corpus(24, 8, seed=200, sentence_len=8)
    train_corpus, _ = _split_heldout(corpus)
    write_text_dataset(data_dir / "lm.jsonl", [s["text"] for s in corpus.sentences])
    write_dataset(data_dir / "sft.jsonl", "pair",
                  [pair_from_sft(r) for r in build_sft_records(corpus)])
    write_dataset(data_dir / "pairs.jsonl", "pair", train_corpus.pairs)

    cfg = EncoderConfig()
    base = RunManifest(
        encoder=cfg,
        stages=[StageConfig(kind="lm-pretrain", steps=600, batch_size=16, lr=2e-3),
                StageConfig(kind="pair-sft", steps=300, batch_size=16, lr=1e-3)],
        data={"lm-pretrain": str(data_dir / "lm.jsonl"), "pair-sft": str(data_dir / "sft.jsonl")},
        output_dir=str(work / "c7-base"), seed=7)
    base_ckpt = Trainer(base).run()

    probe = train_corpus.pairs[:32]

    def final_contrastive_loss(ckpt):
        enc, tok, _ = load_encoder(ckpt)
        q = embed_texts(enc, tok, [p.query for p in probe])
        p = embed_texts(enc, tok, [p.positive for p in probe])
        return float(info_nce_with_scores(Tensor(q), Tensor(p), temperature=0.05)[0].data)

    def run_stage3(policy, seed):
        manifest = RunManifest(
            encoder=cfg,
            stages=[StageConfig(kind="weak-contrastive", steps=200, batch_size=16, lr=5e-4,
                                mask_policy=policy, mask_schedule="linear", seed=seed)],
            data={"weak-contrastive": str(data_dir / "pairs.jsonl")},
            output_dir=str(work / f"c7-{policy}-{seed}"), seed=7)
        return final_contrastive_loss(Trainer(manifest).run(init_from=str(base_ckpt)))

    wins = 0
    deltas = []
    for seed in range(5):
        soft = run_stage3("soft", seed)
        hard = run_stage3("bidirectional", seed)
        wins += soft <= hard
        deltas.append(round(hard - soft, 4))
    elapsed = time.time() - start
    ok = wins >= 4 and elapsed < 600.0
    _report(7, "soft-mask benefit", ok,
            f"{wins}/5 seeds soft<=hard, hard-soft deltas {deltas}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. cross-lingual centroid contraction
# ---------------------------------------------------------------------------

def test_criterion_8_clr_centroid_contraction(work):
    start = time.time()
    data_dir = work / "clr"
    langs = ("aa", "bb")
    corpus = synth_corpus(16, 8, languages=langs, seed=300, sentence_len=8)
    write_text_dataset(data_dir / "lm.jsonl", [s["text"] for s in corpus.sentences])
    dist = LanguageDistribution.from_weights({"aa": 1, "bb": 1})
    clr, failures = generate_clr_dataset(build_triplets(corpus, pool_size=16, seed=301),
                                         MockTranslator(langs), dist, seed=302)
    assert failures == 0
    write_dataset(data_dir / "clr.jsonl", "clr", clr, languages=langs)

    cfg = EncoderConfig()
    base = RunManifest(
        encoder=cfg,
        stages=[StageConfig(kind="lm-pretrain", steps=400, batch_size=16, lr=2e-3)],
        data={"lm-pretrain": str(data_dir / "lm.jsonl")},
        output_dir=str(work / "c8-base"), seed=9)
    base_ckpt = Trainer(base).run()

    texts = [s["text"] for s in corpus.sentences]
    tags = [s["lang"] for s in corpus.sentences]

    def centroid_distance(ckpt):
        enc, tok, _ = load_encoder(ckpt)
        return centroid_analysis(embed_texts(enc, tok, texts), tags).mean_centroid_distance

    pre = centroid_distance(base_ckpt)
    finetune = RunManifest(
        encoder=cfg,
        stages=[StageConfig(kind="supervised", steps=300, lr=1e-3,
                            triplet_batch_size=4, negatives_per_query=4)],
        data={"supervised": {"clr": str(data_dir / "clr.jsonl")}},
        output_dir=str(work / "c8-finetune"), seed=9)
    post = centroid_distance(Trainer(finetune).run(init_from=str(base_ckpt)))

    drop = 1.0 - post / pre
    elapsed = time.time() - start
    ok = drop >= 0.30 and elapsed < 300.0
    _report(8, "cross-lingual centroid contraction", ok,
            f"pre={pre:.4f} post={post:.4f} drop={drop * 100:.1f}%; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. metric oracles
# ---------------------------------------------------------------------------

def test_criterion_9_metric_oracles():
    start = time.time()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        qv = rng.normal(size=(4, 6))
        qv /= np.linalg.norm(qv, axis=-1, keepdims=True)
        cv = rng.normal(size=(12, 6))
        cv /= np.linalg.norm(cv, axis=-1, keepdims=True)
        qids = [f"q{i}" for i in range(4)]
        cids = [f"d{i:02d}" for i in range(12)]
        k = int(rng.integers(1, 13))

        run = exact_search(qv, qids, cv, cids, k=max(k, 10))
        want = oracle_search(qv.tolist(), qids, cv.tolist(), cids, max(k, 10))
        for qid in qids:
            assert [d for d, _ in run.rankings[qid]] == [d for d, _ in want[qid]]
        judgments = {qid: set(rng.choice(cids, size=rng.integers(1, 4), replace=False))
                     for qid in qids}
        run.judgments = judgments
        worst = max(worst, abs(recall_at_k(run, k) - oracle_recall(run.rankings, judgments, k)))
        worst = max(worst, abs(ndcg_at_10(run) - oracle_ndcg10(run.rankings, judgments)))
        x = rng.normal(size=8)
        y = np.round(rng.normal(size=8), 1)
        worst = max(worst, abs(spearman(x, y) - oracle_spearman(x, y)))

    rank2 = ndcg_at_10(__rank2_run())
    elapsed = time.time() - start
    ok = worst <= 1e-12 and abs(rank2 - 1.0 / math.log2(3.0)) <= 1e-12 and elapsed < 10.0
    _report(9, "metric oracles", ok, f"worst deviation {worst:.2e}, "
                                     f"ndcg(rank 2)={rank2:.6f}; {elapsed:.1f}s")


def __rank2_run():
    from embedkit.evaluation import RetrievalRun
    ids = [f"d{i}" for i in range(12)]
    rankings = {"q": [(d, float(12 - i)) for i, d in enumerate(ids)]}
    return RetrievalRun(rankings=rankings, judgments={"q": {"d1"}})


# ---------------------------------------------------------------------------
# 10. reproducibility of the default toy manifest
# ---------------------------------------------------------------------------

def test_criterion_10_reproducibility(work):
    start = time.time()
    data_dir = work / "toy"
    corpus = synth_corpus(16, 8, languages=("aa", "bb"), seed=400, sentence_len=8)
    train_corpus, _ = _split_heldout(corpus)
    write_text_dataset(data_dir / "lm.jsonl", [s["text"] for s in corpus.sentences])
    write_dataset(data_dir / "sft.jsonl", "pair",
                  [pair_from_sft(r) for r in build_sft_records(corpus)])
    write_dataset(data_dir / "pairs.jsonl", "pair", train_corpus.pairs)
    write_dataset(data_dir / "retrieval.jsonl", "retrieval",
                  build_triplets(train_corpus, lang="aa", pool_size=16, seed=401))
    dist = LanguageDistribution.from_weights({"aa": 1, "bb": 1})
    clr, _ = generate_clr_dataset(build_triplets(train_corpus, lang="aa", pool_size=16, seed=402),
                                  MockTranslator(corpus.languages), dist, seed=403)
    write_dataset(data_dir / "clr.jsonl", "clr", clr, languages=corpus.languages)
    write_dataset(data_dir / "cls.jsonl", "classification",
                  build_classification(corpus, lang="aa"))
    write_dataset(data_dir / "sts.jsonl", "sts", build_sts(corpus, 200, lang="aa", seed=404))

    data = {"lm-pretrain": str(data_dir / "lm.jsonl"),
            "pair-sft": str(data_dir / "sft.jsonl"),
            "weak-contrastive": str(data_dir / "pairs.jsonl"),
            "supervised": {"retrieval": str(data_dir / "retrieval.jsonl"),
                           "clr": str(data_dir / "clr.jsonl"),
                           "classification": str(data_dir / "cls.jsonl"),
                           "sts": str(data_dir / "sts.jsonl")}}

    c1 = Trainer(default_toy_manifest(data, str(work / "run1"), seed=42)).run()
    c2 = Trainer(default_toy_manifest(data, str(work / "run2"), seed=42)).run()

    identical = Path(c1).read_bytes() == Path(c2).read_bytes()
    logs_identical = all(
        (work / "run1" / name).read_bytes() == (work / "run2" / name).read_bytes()
        for name in ("stage0-lm-pretrain.metrics.jsonl", "stage1-pair-sft.metrics.jsonl",
                     "stage2-weak-contrastive.metrics.jsonl",
                     "stage3-supervised.metrics.jsonl", "stage3-mining.jsonl"))

    mid = work / "run1" / "stage3-step500.ckpt"
    resumed = Trainer(default_toy_manifest(data, str(work / "resumed"), seed=42)) \
        .run(resume_from=str(mid))
    resume_identical = Path(c1).read_bytes() == Path(resumed).read_bytes()
    tail_full = (work / "run1" / "stage3-supervised.metrics.jsonl").read_text().splitlines()[500:]
    tail_res = (work / "resumed" / "stage3-supervised.metrics.jsonl").read_text().splitlines()
    resume_identical &= tail_full == tail_res

    elapsed = time.time() - start
    ok = identical and logs_identical and resume_identical
    _report(10, "reproducibility", ok,
            f"rerun bitwise={identical}, logs={logs_identical}, "
            f"resume bitwise={resume_identical}; {elapsed:.0f}s")
