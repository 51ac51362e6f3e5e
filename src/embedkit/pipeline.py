"""Four-stage training orchestration, checkpointing, and evaluation entry points.

Stages run in a fixed order: token-level pretraining and pair SFT (next-token
cross-entropy under a causal mask), weakly-supervised contrastive training
(in-batch InfoNCE under the scheduled mask, clock t = stage step out of
steps - 1 so the first step is exactly causal and the last exactly
bidirectional), and supervised multi-task fine-tuning (round-robin over
retrieval / cross-lingual / classification triplets with optional dynamic
hard negative mining, plus CoSENT on similarity pairs, all under the
bidirectional mask, optionally averaged over nested embedding dims).

Every batch is derived from a per-step seeded RNG, so a mid-stage resume
reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .checkpoint import (CheckpointError, load_checkpoint, load_weights, require_matching_config,
                         save_checkpoint)
from .data import Pair, Triplet, read_dataset, read_header, read_text_dataset
from .encoder import Encoder, EncoderConfig, truncate_normalize
from .evaluation import exact_search, ndcg_at_10, recall_at_k, spearman
from .losses import ContrastiveBatch, StsBatch, cosent, info_nce_with_scores, next_token_ce
from .masks import AttentionMask, ScheduleState, bidirectional_mask, build_soft_mask, causal_mask
from .mining import MiningState
from .optim import AdamW, AdamWConfig, warmup_lr
from .tokenizer import PAD_ID, Tokenizer

# per stage kind, in pipeline order: the Trainer method that computes one
# step's loss, and the allowed mask policies, the first being the default
_KINDS = {
    "lm-pretrain": ("_lm_step", ("causal",)),
    "pair-sft": ("_lm_step", ("causal",)),
    "weak-contrastive": ("_contrastive_step", ("soft", "bidirectional")),
    "supervised": ("_supervised_step", ("bidirectional",)),
}
STAGE_KINDS = tuple(_KINDS)
SUPERVISED_TASKS = ("retrieval", "clr", "classification", "sts")


@dataclass
class StageConfig:
    kind: str
    steps: int
    batch_size: int = 32
    lr: float = 1e-3
    mask_policy: str = ""            # defaults per kind; "soft" only in weak-contrastive
    mask_schedule: str = "linear"
    mask_l: Optional[int] = None
    temperature: float = 0.05
    cosent_tau: float = 0.05
    loss_mix: dict = field(default_factory=dict)
    negatives_per_query: int = 7
    mrl: bool = False
    dhnm: bool = False
    dhnm_mode: str = "absolute"
    seed: int = 0
    warmup_frac: Optional[float] = None   # 0.05 for lm-pretrain, 0.02 otherwise
    weight_decay: float = 0.001
    triplet_batch_size: int = 4
    sts_batch_size: int = 32
    window_len: int = 16
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.kind not in STAGE_KINDS:
            raise ValueError(f"unknown stage kind {self.kind!r}; expected one of {STAGE_KINDS}")
        if self.steps < 1:
            raise ValueError("stage needs at least one step")
        allowed = _KINDS[self.kind][1]
        self.mask_policy = self.mask_policy or allowed[0]
        if self.mask_policy not in allowed:
            raise ValueError(f"mask policy {self.mask_policy!r} not allowed in {self.kind} "
                             f"(allowed: {allowed})")
        if self.dhnm and self.kind != "supervised":
            raise ValueError("dynamic hard negative mining is only allowed in the supervised stage")
        if self.warmup_frac is None:
            self.warmup_frac = 0.05 if self.kind == "lm-pretrain" else 0.02

    @classmethod
    def from_dict(cls, d: dict) -> "StageConfig":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown stage options: {sorted(unknown)}")
        return cls(**d)


@dataclass
class RunManifest:
    encoder: EncoderConfig
    stages: list[StageConfig]
    data: dict
    output_dir: str
    seed: int = 0

    def __post_init__(self):
        order = [STAGE_KINDS.index(s.kind) for s in self.stages]
        if not self.stages:
            raise ValueError("manifest needs at least one stage")
        if any(a >= b for a, b in zip(order, order[1:])):
            raise ValueError("stages must appear in pipeline order, each kind at most once")
        for s in self.stages:
            if s.kind not in self.data:
                raise ValueError(f"manifest is missing data for stage {s.kind!r}")
            if s.kind == "supervised":
                if not isinstance(self.data[s.kind], dict) or not self.data[s.kind]:
                    raise ValueError("supervised data must map task names to dataset paths")
                bad = set(self.data[s.kind]) - set(SUPERVISED_TASKS)
                if bad:
                    raise ValueError(f"unknown supervised tasks: {sorted(bad)}")

    @classmethod
    def from_yaml(cls, path) -> "RunManifest":
        import yaml
        path = Path(path)
        with open(path) as fh:
            raw = yaml.safe_load(fh)
        base = path.parent

        def resolve(p):
            p = Path(p)
            return str(p if p.is_absolute() else base / p)

        data = {}
        for k, v in raw.get("data", {}).items():
            data[k] = {t: resolve(p) for t, p in v.items()} if isinstance(v, dict) else resolve(v)
        out = raw.get("output_dir", "runs/out")
        return cls(
            encoder=EncoderConfig.from_dict(raw.get("encoder", {})),
            stages=[StageConfig.from_dict(s) for s in raw.get("stages", [])],
            data=data,
            output_dir=str(Path(out) if Path(out).is_absolute() else base / out),
            seed=int(raw.get("seed", 0)),
        )

    def to_yaml(self, path):
        import yaml
        doc = {
            "seed": self.seed,
            "output_dir": str(self.output_dir),
            "encoder": self.encoder.to_dict(),
            "stages": [asdict(s) for s in self.stages],
            "data": self.data,
        }
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def batch_ids(tokenizer: Tokenizer, texts: list[str]) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Tokenize and right-pad to the batch maximum; lengths omitted when uniform."""
    seqs = [tokenizer.encode(t) for t in texts]
    lens = np.array([len(s) for s in seqs], dtype=np.intp)
    if lens.min() < 1:
        raise ValueError("cannot encode an empty text")
    width = int(lens.max())
    ids = np.full((len(seqs), width), PAD_ID, dtype=np.intp)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
    return ids, (None if lens.min() == width else lens)


# texts padded to one width together in inference
_PAD_GROUP = 128
# bytes of float64 attention scores one inference block may hold: rows x heads x width^2 x 8
_SCORE_BUDGET = 1 << 20


def _block_rows(heads: int, width: int) -> int:
    """Rows per ``embed_batch`` call whose attention scores fit in ``_SCORE_BUDGET`` (at least 1)."""
    return max(1, _SCORE_BUDGET // (heads * width * width * 8))


def embed_texts(encoder: Encoder, tokenizer: Tokenizer, texts: list[str]) -> np.ndarray:
    """(N, hidden) unit-norm embeddings under the bidirectional mask; no tape is recorded.

    Texts are padded in groups of ``_PAD_GROUP``; each group runs through the
    encoder in row blocks of ``_block_rows`` texts, so that a block's attention
    scores stay cache-sized.  An embedding depends on its group's padded
    width, not on the block size.
    """
    out = []
    with ag.no_grad():
        for i in range(0, len(texts), _PAD_GROUP):
            ids, lengths = batch_ids(tokenizer, texts[i:i + _PAD_GROUP])
            mask = bidirectional_mask(ids.shape[1])
            rows = _block_rows(encoder.cfg.heads, ids.shape[1])
            for j in range(0, len(ids), rows):
                part = None if lengths is None else lengths[j:j + rows]
                out.append(encoder.embed_batch(ids[j:j + rows], mask, part).data)
    if not out:
        return np.zeros((0, encoder.cfg.hidden_dim))
    return np.concatenate(out, axis=0)


def _truncate_log(path: Path, start_step: int):
    """Drop the records of steps >= ``start_step``, which a resume writes again.

    A last line without its newline is a record torn by a crash and is dropped too.
    """
    if not path.exists():
        return
    with open(path, encoding="utf-8") as fh:
        kept = [line for line in fh
                if line.endswith("\n") and json.loads(line)["step"] < start_step]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(kept)


def _stage_mask(cfg: StageConfig, step: int, n: int) -> AttentionMask:
    if cfg.mask_policy == "causal":
        return causal_mask(n)
    # scheduled: t counts this stage's steps; the final step (the only one
    # of a one-step stage) reaches alpha = 1
    if cfg.mask_policy == "bidirectional" or cfg.steps == 1:
        return bidirectional_mask(n)
    state = ScheduleState(kind=cfg.mask_schedule, t=step, tau_steps=cfg.steps - 1)
    return build_soft_mask(state, n, cfg.mask_l)


def _step_rng(manifest_seed: int, stage_seed: int, stage_index: int, step: int) -> np.random.Generator:
    return np.random.default_rng([manifest_seed, stage_seed, stage_index, step])


def _draw(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """``min(size, n)`` distinct row indices below ``n``, in ascending order."""
    return np.sort(rng.choice(n, size=min(size, n), replace=False))


def _mean(terms: list[Tensor]) -> Tensor:
    """Mean of the per-dim losses, summed in list order (the order sets the last bits)."""
    total = terms[0]
    for term in terms[1:]:
        total = ag.add(total, term)
    return ag.mul(total, 1.0 / len(terms))


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------

class Trainer:
    def __init__(self, manifest: RunManifest):
        self.manifest = manifest
        self.out_dir = Path(manifest.output_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tokenizer = self._build_tokenizer()

    # -- data ----------------------------------------------------------

    def _dataset_paths(self) -> list[str]:
        return [p for v in self.manifest.data.values()
                for p in (v.values() if isinstance(v, dict) else (v,))]

    def _build_tokenizer(self) -> Tokenizer:
        words: set[str] = set()
        for p in self._dataset_paths():
            words.update(read_header(p).get("vocab", []))
        return Tokenizer(sorted(words), self.manifest.encoder.vocab_size)

    def _load_stage_data(self, cfg: StageConfig):
        path = self.manifest.data[cfg.kind]
        if cfg.kind == "supervised":
            return {task: read_dataset(path[task])[1] for task in SUPERVISED_TASKS if task in path}
        if cfg.kind == "lm-pretrain":
            seqs = [self.tokenizer.encode(t) for t in read_text_dataset(path)[1]]
        else:
            _, examples = read_dataset(path)
            if cfg.kind == "weak-contrastive":
                return [e for e in examples if isinstance(e, (Pair, Triplet))]
            seqs = [self.tokenizer.encode(e.query) + self.tokenizer.encode(e.positive)
                    for e in examples]
        return self._pack_windows(seqs, cfg.window_len)

    @staticmethod
    def _pack_windows(seqs: list[list[int]], window_len: int) -> np.ndarray:
        stream = [tok for s in seqs for tok in s]
        span = window_len + 1
        n = len(stream) // span
        if n < 1:
            raise ValueError("not enough tokens to fill a single training window")
        return np.array(stream[:n * span], dtype=np.intp).reshape(n, span)

    # -- main loop -------------------------------------------------------

    def _adopt_checkpoint(self, path, resume: bool) -> tuple[Encoder, dict[str, np.ndarray], dict]:
        config, arrays, extra = (load_checkpoint if resume else load_weights)(path)
        require_matching_config(self.manifest.encoder.to_dict(), config, str(path))
        # a resume replays this manifest's step rngs, so only the run that wrote
        # the checkpoint can continue it; adopting weights (init_from) is free
        if resume and extra.get("manifest_seed") != self.manifest.seed:
            raise CheckpointError(f"cannot resume from {path}: it was written with manifest seed "
                                  f"{extra.get('manifest_seed')}, this manifest has seed {self.manifest.seed}")
        # checkpoint ids keep their meaning; words the checkpoint has not seen
        # are appended and map to still-untrained embedding rows
        ckpt_words = list(extra.get("vocab", []))
        new_words = sorted(set(self.tokenizer.words) - set(ckpt_words))
        self.tokenizer = Tokenizer(ckpt_words + new_words, self.manifest.encoder.vocab_size)
        encoder = Encoder(self.manifest.encoder,
                          params={k.removeprefix("model."): v
                                  for k, v in arrays.items() if k.startswith("model.")})
        return encoder, arrays, extra

    def run(self, resume_from: Optional[str] = None, init_from: Optional[str] = None) -> Path:
        """Execute the manifest.

        ``resume_from`` continues this same manifest from a mid-run
        checkpoint (stage indices must align); ``init_from`` only adopts a
        prior checkpoint's weights and vocabulary and starts the manifest
        from its first stage with a fresh optimizer.
        """
        if resume_from is not None and init_from is not None:
            raise ValueError("resume_from and init_from are mutually exclusive")
        manifest = self.manifest
        resume_stage, resume_step = -1, 0
        opt_arrays: dict[str, np.ndarray] = {}
        opt_step_count = 0
        mining_dict = None

        if resume_from is not None:
            encoder, arrays, extra = self._adopt_checkpoint(resume_from, resume=True)
            opt_arrays = {k: v for k, v in arrays.items() if k.startswith("opt.")}
            opt_step_count = int(extra["opt_step_count"])
            resume_stage = int(extra["stage_index"])
            resume_step = int(extra["stage_step"])
            mining_dict = extra.get("mining")
        elif init_from is not None:
            encoder, _, _ = self._adopt_checkpoint(init_from, resume=False)
        else:
            encoder = Encoder(manifest.encoder, seed=manifest.seed)

        last_ckpt = None
        for idx, cfg in enumerate(manifest.stages):
            if idx < resume_stage:
                continue
            start = resume_step if idx == resume_stage else 0
            if start >= cfg.steps:
                continue
            optimizer = AdamW(encoder.params,
                              AdamWConfig(lr=cfg.lr, weight_decay=cfg.weight_decay))
            mining = None
            if idx == resume_stage and opt_arrays:
                optimizer.load_state(opt_arrays, opt_step_count)
                if mining_dict is not None:
                    mining = MiningState.from_dict(mining_dict)
            last_ckpt = self._run_stage(idx, cfg, encoder, optimizer, start, mining)
        if last_ckpt is None:
            raise ValueError("nothing left to run: checkpoint is already past the last stage")
        return last_ckpt

    def _save(self, path: Path, encoder: Encoder, optimizer: AdamW, stage_index: int,
              stage_step: int, mining: Optional[MiningState]):
        arrays = {f"model.{k}": v for k, v in encoder.export_arrays().items()}
        arrays.update(optimizer.export_state())
        extra = {
            "stage_index": stage_index,
            "stage_step": stage_step,
            "opt_step_count": optimizer.step_count,
            "vocab": self.tokenizer.words,
            "manifest_seed": self.manifest.seed,
        }
        state = {"mining": mining.to_dict() if mining is not None else None}
        save_checkpoint(path, self.manifest.encoder.to_dict(), arrays, extra, state)

    def _run_stage(self, idx: int, cfg: StageConfig, encoder: Encoder,
                   optimizer: AdamW, start_step: int,
                   mining: Optional[MiningState]) -> Path:
        data = self._load_stage_data(cfg)
        metrics_path = self.out_dir / f"stage{idx}-{cfg.kind}.metrics.jsonl"
        mining_path = self.out_dir / f"stage{idx}-mining.jsonl"
        ckpt_path = self.out_dir / f"stage{idx}-{cfg.kind}.ckpt"
        if start_step > 0:
            for path in (metrics_path, mining_path):
                _truncate_log(path, start_step)
        mode = "a" if start_step > 0 else "w"

        if cfg.dhnm and mining is None:
            mining = self._init_mining(cfg, encoder, data)
        step_fn = getattr(self, _KINDS[cfg.kind][0])

        with open(metrics_path, mode, encoding="utf-8") as metrics_fh, \
                (open(mining_path, mode, encoding="utf-8") if mining is not None
                 else nullcontext()) as mining_fh:
            for step in range(start_step, cfg.steps):
                rng = _step_rng(self.manifest.seed, cfg.seed, idx, step)
                loss, task = step_fn(cfg, encoder, data, rng, step, mining, mining_fh)
                value = float(loss.data)
                if not np.isfinite(value):
                    raise ArithmeticError(f"non-finite loss at stage {idx} step {step}")
                ag.backward(loss)
                del loss  # free this step's graph before the next step's forward pass
                lr = warmup_lr(cfg.lr, step, cfg.steps, cfg.warmup_frac)
                optimizer.step(lr=lr)
                optimizer.zero_grads()
                if mining is not None:
                    for ev in mining.replace_flagged():
                        mining_fh.write(_dumps({"step": step, "event": "replace",
                                                "query_id": ev.query_id, "slot": ev.slot_index,
                                                "old": ev.old_negative, "new": ev.new_negative,
                                                "exhausted": ev.exhausted}) + "\n")
                metrics_fh.write(_dumps({"stage": idx, "kind": cfg.kind, "step": step,
                                         "task": task, "loss": value, "lr": lr}) + "\n")
                if cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0 \
                        and step + 1 < cfg.steps:
                    self._save(self.out_dir / f"stage{idx}-step{step + 1}.ckpt",
                               encoder, optimizer, idx, step + 1, mining)
        self._save(ckpt_path, encoder, optimizer, idx, cfg.steps, mining)
        return ckpt_path

    # -- per-kind steps: (cfg, encoder, data, rng, step, mining, mining_fh) -> (loss, task)

    def _embed(self, cfg: StageConfig, encoder: Encoder, texts: list[str], step: int) -> Tensor:
        """Tracked (B, hidden) embeddings of ``texts`` under the stage's mask at ``step``."""
        ids, lengths = batch_ids(self.tokenizer, texts)
        return encoder.embed_batch(ids, _stage_mask(cfg, step, ids.shape[1]), lengths)

    def _lm_step(self, cfg: StageConfig, encoder: Encoder, windows: np.ndarray,
                 rng: np.random.Generator, step: int, mining, mining_fh) -> tuple[Tensor, str]:
        batch = windows[_draw(rng, len(windows), cfg.batch_size)]
        inputs, targets = batch[:, :-1], batch[:, 1:]
        states = encoder.forward_batch(inputs, _stage_mask(cfg, step, inputs.shape[1]))
        logits = encoder.lm_logits(states)
        bsz, length, vocab = logits.shape
        return next_token_ce(ag.reshape(logits, (bsz * length, vocab)), targets.reshape(-1)), "lm"

    def _contrastive_step(self, cfg: StageConfig, encoder: Encoder, pairs: list,
                          rng: np.random.Generator, step: int, mining, mining_fh) -> tuple[Tensor, str]:
        chosen = [pairs[i] for i in _draw(rng, len(pairs), cfg.batch_size)]
        q_emb = self._embed(cfg, encoder, [p.query for p in chosen], step)
        p_emb = self._embed(cfg, encoder, [p.positive for p in chosen], step)
        loss, _, _ = info_nce_with_scores(
            ContrastiveBatch(q_emb, p_emb, temperature=cfg.temperature))
        return loss, "pairs"

    def _init_mining(self, cfg: StageConfig, encoder: Encoder, datasets: dict) -> MiningState:
        """Rank each query's candidate negatives with the incoming (seed) encoder.

        Every distinct query and negative text is embedded once, in one
        tape-free call; each query's negatives are then scored by row lookup.
        """
        triplets = [(task, ex) for task in SUPERVISED_TASKS
                    if task != "sts" and task in datasets
                    for ex in datasets[task] if isinstance(ex, Triplet) and ex.negatives]
        # sorted, not set order: string hashing is randomized per process
        texts = sorted({t for _, ex in triplets for t in (ex.query, *ex.negatives)})
        row = {t: i for i, t in enumerate(texts)}
        emb = embed_texts(encoder, self.tokenizer, texts) if texts else None
        mining = MiningState(mode=cfg.dhnm_mode)
        for task, ex in triplets:
            scores = emb[[row[n] for n in ex.negatives]] @ emb[row[ex.query]]
            order = np.lexsort((np.arange(len(ex.negatives)), -scores))
            ranked = [ex.negatives[i] for i in order]
            k = min(cfg.negatives_per_query, len(ranked))
            mining.register_query(f"{task}:{ex.uid}", ranked[:k], ranked[k:])
        return mining

    def _triplet_negatives(self, cfg: StageConfig, mining: Optional[MiningState],
                           task: str, ex: Triplet) -> list[str]:
        k = cfg.negatives_per_query
        if mining is not None:
            negs = mining.current_negatives(f"{task}:{ex.uid}")
            if negs:
                return negs[:k]
        return list(ex.negatives[:k])

    def _mrl_dims(self, cfg: StageConfig) -> tuple[int, ...]:
        if cfg.mrl:
            return tuple(self.manifest.encoder.mrl_dims)
        return (self.manifest.encoder.hidden_dim,)

    def _supervised_step(self, cfg: StageConfig, encoder: Encoder, datasets: dict,
                         rng: np.random.Generator, step: int,
                         mining: Optional[MiningState], mining_fh) -> tuple[Tensor, str]:
        tasks = [t for t in SUPERVISED_TASKS if t in datasets]
        task = tasks[step % len(tasks)]
        weight = float(cfg.loss_mix.get(task, 1.0))
        if task == "sts":
            loss = self._sts_batch_loss(cfg, encoder, datasets[task], rng, step)
        else:
            loss = self._triplet_batch_loss(cfg, encoder, datasets[task], rng, step,
                                            task, mining, mining_fh)
        if weight != 1.0:
            loss = ag.mul(loss, weight)
        return loss, task

    def _sts_batch_loss(self, cfg: StageConfig, encoder: Encoder, examples: list,
                        rng: np.random.Generator, step: int) -> Tensor:
        chosen = [examples[i] for i in _draw(rng, len(examples), cfg.sts_batch_size)]
        ea = self._embed(cfg, encoder, [e.text_a for e in chosen], step)
        eb = self._embed(cfg, encoder, [e.text_b for e in chosen], step)
        labels = np.array([e.similarity for e in chosen])
        dims = self._mrl_dims(cfg)
        cos = [ag.sum_lastdim(ag.mul(truncate_normalize(ea, d, dims),
                                     truncate_normalize(eb, d, dims))) for d in dims]
        return _mean([cosent(StsBatch(c, labels, tau=cfg.cosent_tau)) for c in cos])  # ascending dims

    def _triplet_batch_loss(self, cfg: StageConfig, encoder: Encoder, examples: list,
                            rng: np.random.Generator, step: int, task: str,
                            mining: Optional[MiningState], mining_fh) -> Tensor:
        chosen = [examples[i] for i in _draw(rng, len(examples), cfg.triplet_batch_size)]
        negatives = [self._triplet_negatives(cfg, mining, task, ex) for ex in chosen]
        k = min(len(n) for n in negatives)
        negatives = [n[:k] for n in negatives]

        q_emb = self._embed(cfg, encoder, [e.query for e in chosen], step)
        passages = [e.positive for e in chosen] + [n for negs in negatives for n in negs]
        all_emb = self._embed(cfg, encoder, passages, step)
        bsz = len(chosen)
        p_emb = ag.index_select(all_emb, 0, np.arange(bsz))
        n_emb = None
        if k > 0:
            n_emb = ag.reshape(ag.index_select(all_emb, 0, np.arange(bsz, bsz + bsz * k)),
                               (bsz, k, self.manifest.encoder.hidden_dim))

        dims = self._mrl_dims(cfg)
        widest_first = [info_nce_with_scores(ContrastiveBatch(
            truncate_normalize(q_emb, d, dims), truncate_normalize(p_emb, d, dims),
            truncate_normalize(n_emb, d, dims) if n_emb is not None else None,
            temperature=cfg.temperature)) for d in sorted(dims, reverse=True)]
        loss = _mean([loss_d for loss_d, _, _ in widest_first])

        if mining is not None and k > 0:
            full_neg_scores = widest_first[0][2]
            scored = [(f"{task}:{ex.uid}", slot, float(full_neg_scores[b, slot]))
                      for b, ex in enumerate(chosen) for slot in range(k)]
            for rec in mining.cache_scores(step, scored):
                mining_fh.write(_dumps(rec) + "\n")
        return loss


def default_toy_manifest(data: dict, output_dir: str, seed: int = 0,
                         encoder: Optional[EncoderConfig] = None) -> RunManifest:
    """Default desk-scale four-stage run: 500/200/500/1000 steps, batch 32
    (triplet batches of 4 and STS batches of 32 in the supervised stage)."""
    return RunManifest(
        encoder=encoder or EncoderConfig(),
        stages=[
            StageConfig(kind="lm-pretrain", steps=500, batch_size=32, lr=2e-3),
            StageConfig(kind="pair-sft", steps=200, batch_size=32, lr=1e-3),
            StageConfig(kind="weak-contrastive", steps=500, batch_size=32, lr=5e-4,
                        mask_policy="soft", mask_schedule="linear"),
            StageConfig(kind="supervised", steps=1000, lr=1e-3, mrl=True, dhnm=True,
                        triplet_batch_size=4, sts_batch_size=32, negatives_per_query=7,
                        checkpoint_every=500),
        ],
        data=data,
        output_dir=output_dir,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# evaluation against a checkpoint
# ---------------------------------------------------------------------------

def load_encoder(ckpt_path) -> tuple[Encoder, Tokenizer, dict]:
    config, arrays, extra = load_weights(ckpt_path)
    cfg = EncoderConfig.from_dict(config)
    encoder = Encoder(cfg, params={k.removeprefix("model."): v for k, v in arrays.items()})
    tokenizer = Tokenizer(extra["vocab"], cfg.vocab_size)
    return encoder, tokenizer, extra


def evaluate_retrieval(encoder: Encoder, tokenizer: Tokenizer, examples: list,
                       ks: tuple[int, ...] = (1, 5, 10, 20)) -> dict[str, float]:
    queries, corpus, judgments = [], [], {}
    for i, ex in enumerate(examples):
        qid, did = f"q{i}", f"d{i}"
        queries.append((qid, ex.query))
        corpus.append((did, ex.positive))
        judgments[qid] = {did}
    qv = embed_texts(encoder, tokenizer, [t for _, t in queries])
    cv = embed_texts(encoder, tokenizer, [t for _, t in corpus])
    run = exact_search(qv, [q for q, _ in queries], cv, [d for d, _ in corpus],
                       k=max(max(ks), 10))
    run.judgments = judgments
    metrics = {f"recall@{k}": recall_at_k(run, k) for k in ks}
    metrics["ndcg@10"] = ndcg_at_10(run)
    return metrics


def evaluate_sts(encoder: Encoder, tokenizer: Tokenizer, examples: list) -> dict[str, float]:
    av = embed_texts(encoder, tokenizer, [e.text_a for e in examples])
    bv = embed_texts(encoder, tokenizer, [e.text_b for e in examples])
    cos = (av * bv).sum(axis=-1)
    labels = [e.similarity for e in examples]
    return {"spearman": spearman(cos, labels)}


def evaluate_checkpoint(ckpt_path, dataset_path, ks: tuple[int, ...] = (1, 5, 10, 20)) -> dict[str, float]:
    encoder, tokenizer, _ = load_encoder(ckpt_path)
    header, examples = read_dataset(dataset_path)
    if not examples:
        raise ValueError(f"dataset {dataset_path} has no examples to evaluate")
    if header["task"] == "sts":
        return evaluate_sts(encoder, tokenizer, examples)
    return evaluate_retrieval(encoder, tokenizer, examples, ks)
