"""Four-stage training orchestration, checkpointing, and evaluation entry points.

Stages run in a fixed order: token-level pretraining and pair SFT (next-token
cross-entropy under a causal mask), weakly-supervised contrastive training
(in-batch InfoNCE under the scheduled mask, clock t = stage step out of
steps - 1 so the first step is exactly causal and the last exactly
bidirectional), and supervised multi-task fine-tuning (retrieval / cross-lingual
/ classification triplets with optional dynamic hard negative mining, plus
CoSENT on similarity pairs, all under the bidirectional mask, optionally
averaged over nested embedding dims).  A stage's data is a set of tasks (``lm``,
``pairs`` or the supervised tasks) that take turns, one a step: ``Trainer._loss``
draws the task's batch and scores it with the lm head, CoSENT or InfoNCE (a pair
is a triplet drawn with no negatives).  ``_KINDS`` lists what each kind reads;
a stage that sets any other option is refused.

Every batch is derived from a per-step seeded RNG, so a mid-stage resume
reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, asdict, fields
from pathlib import Path
from typing import BinaryIO, Iterable, NamedTuple, Optional

import numpy as np

from . import _dumps, autograd as ag
from .autograd import Tensor
from .checkpoint import (CheckpointError, load_checkpoint, load_weights, require_matching_config,
                         save_checkpoint)
from .data import ScoredPair, Triplet, _texts_of, read_dataset, read_header, read_text_dataset
from .encoder import Encoder, EncoderConfig, truncate_normalize
from .evaluation import check_cutoffs, retrieval_metrics, spearman, top_k
from .losses import cosent, info_nce_with_scores, next_token_ce
from .masks import schedule_alpha
from .mining import MiningState
from .optim import AdamW, warmup_lr
from .tokenizer import PAD_ID, Tokenizer
from .values import _check_values, _number

# the options every stage kind reads
_COMMON = ("kind", "steps", "lr", "mask_policy", "seed", "warmup_frac", "weight_decay",
           "checkpoint_every")
# per stage kind, in pipeline order: the allowed mask policies (the first the default) and
# the options it reads beyond _COMMON.  Every kind steps through Trainer._loss, its tasks
# taking turns (weak-contrastive reads no negatives_per_query: its pairs are drawn with K = 0)
_KINDS = {
    "lm-pretrain": (("causal",), ("batch_size", "window_len")),
    "pair-sft": (("causal",), ("batch_size", "window_len")),
    "weak-contrastive": (("soft", "bidirectional"), ("batch_size", "temperature", "mask_schedule")),
    "supervised": (("bidirectional",),
                   ("triplet_batch_size", "sts_batch_size", "temperature", "negatives_per_query",
                    "mrl", "dhnm", "dhnm_mode")),
}
STAGE_KINDS = tuple(_KINDS)
SUPERVISED_TASKS = ("retrieval", "clr", "classification", "sts")


@dataclass
class StageConfig:
    kind: str
    steps: int
    batch_size: int = 32
    lr: float = 1e-3
    mask_policy: str = ""            # unset: the kind's default; "soft" only in weak-contrastive
    mask_schedule: str = "linear"
    temperature: float = 0.05
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
        if self.warmup_frac is None:
            self.warmup_frac = 0.05 if self.kind == "lm-pretrain" else 0.02
        allowed = _KINDS[self.kind][0]
        if self.mask_policy == "":        # unset; null or [] is refused below
            self.mask_policy = allowed[0]
        if self.mask_policy not in allowed:
            raise ValueError(f"mask policy {self.mask_policy!r} not allowed in {self.kind} "
                             f"(allowed: {allowed})")
        _check_values(vars(self))
        # an option the kind never reads keeps its default
        self._refuse_unread(f.name for f in fields(self) if getattr(self, f.name) != f.default)

    def _reads(self) -> set[str]:
        """The options this stage reads: its kind's (``_KINDS``), of which ``mask_schedule``
        only under the soft mask and ``dhnm_mode`` only with ``dhnm`` on."""
        off = {"mask_schedule": self.mask_policy != "soft", "dhnm_mode": not self.dhnm}
        return {*_COMMON, *_KINDS[self.kind][1]} - {name for name, unread in off.items() if unread}

    def _refuse_unread(self, names: Iterable[str]):
        unread = sorted(set(names) - self._reads())
        if unread:
            raise ValueError(f"this {self.kind} stage does not read {', '.join(unread)}")

    @classmethod
    def check_options(cls, d: dict):
        """Refuse a manifest stage that is not a mapping or names an unknown option."""
        if not isinstance(d, dict):
            raise ValueError(f"a stage must be a mapping, not {type(d).__name__}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown stage options: {sorted(unknown)}")


@dataclass
class RunManifest:
    encoder: EncoderConfig
    stages: list[StageConfig]
    data: dict
    output_dir: str
    seed: int = 0

    def __post_init__(self):
        _check_values({"seed": self.seed})
        if not self.stages:
            raise ValueError("manifest needs at least one stage")
        order = [STAGE_KINDS.index(s.kind) for s in self.stages]
        for i, s in enumerate(self.stages):
            where = f"stage {i} ({s.kind})"
            if i and order[i - 1] >= order[i]:
                raise ValueError(f"{where}: stages must appear in pipeline order, "
                                 "each kind at most once")
            if s.kind not in self.data:
                raise ValueError(f"{where}: manifest is missing data for stage {s.kind!r}")
            if s.kind == "supervised":
                if not isinstance(self.data[s.kind], dict) or not self.data[s.kind]:
                    raise ValueError(f"{where}: supervised data must map task names to dataset paths")
                bad = set(self.data[s.kind]) - set(SUPERVISED_TASKS)
                if bad:
                    raise ValueError(f"{where}: unknown supervised tasks: {sorted(bad)}")
            elif isinstance(self.data[s.kind], dict):
                raise ValueError(f"{where}: {s.kind} data must be one dataset path, not a mapping")
            # a kind that reads window_len feeds the encoder windows of that many tokens
            if "window_len" in s._reads() and s.window_len > self.encoder.max_len:
                raise ValueError(f"{where}: window_len {s.window_len} exceeds the encoder's "
                                 f"max_len {self.encoder.max_len}")
            if s.mrl and not self.encoder.mrl_dims:
                raise ValueError(f"{where}: mrl is on, but the encoder's mrl_dims is empty")

    @classmethod
    def from_yaml(cls, path) -> "RunManifest":
        """Read a manifest; every error it raises names ``path``, and a stage's error its index."""
        import yaml
        path = Path(path)
        with open(path) as fh:
            try:
                raw = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                mark = getattr(exc, "problem_mark", None)
                where = f"{path}:{mark.line + 1}" if mark is not None else str(path)
                raise ValueError(f"{where}: not valid YAML: "
                                 f"{getattr(exc, 'problem', None) or exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: a manifest must be a YAML mapping, not {type(raw).__name__}")
        try:
            return cls._from_raw(raw, path.parent)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: {exc}") from exc

    @classmethod
    def _from_raw(cls, raw: dict, base: Path) -> "RunManifest":
        for key, kind, name in (("stages", list, "list"), ("data", dict, "mapping"),
                                ("encoder", dict, "mapping")):
            if not isinstance(raw.get(key, kind()), kind):
                raise ValueError(f"{key!r} must be a YAML {name}")
        stages = []
        for i, s in enumerate(raw.get("stages", [])):
            where = f"stage {i}"
            try:
                StageConfig.check_options(s)
                where += f" ({s.get('kind')})"
                stages.append(StageConfig(**s))
                stages[-1]._refuse_unread(s)      # an option set even to its default must be read
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{where}: {exc}") from exc

        def resolve(name, p):         # every path is checked as output_dir is
            _check_values({name: p}, rule="output_dir")
            if p == "" and name != "output_dir":     # it would name the manifest's directory
                raise ValueError(f"{name} must name a dataset file, not ''")
            p = Path(p)
            return str(p if p.is_absolute() else base / p)

        if not isinstance(raw.get("data", {}).get("supervised", {}), dict):
            raise ValueError("data: supervised data must map task names to dataset paths, "
                             f"not {raw['data']['supervised']!r}")
        data = {k: {t: resolve(f"data: {k}: {t}", p) for t, p in v.items()} if isinstance(v, dict)
                else resolve(f"data: {k}", v) for k, v in raw.get("data", {}).items()}
        try:
            encoder = EncoderConfig.from_dict(raw.get("encoder", {}))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"encoder: {exc}") from exc
        return cls(
            encoder=encoder,
            stages=stages,
            data=data,
            output_dir=resolve("output_dir", raw.get("output_dir", "runs/out")),
            seed=raw.get("seed", 0),
        )

    def to_yaml(self, path):
        import yaml
        doc = {
            "seed": self.seed,
            "output_dir": str(self.output_dir),
            "encoder": self.encoder.to_dict(),
            # each stage with only the options its kind reads
            "stages": [{k: v for k, v in asdict(s).items() if k in s._reads()} for s in self.stages],
            "data": self.data,
        }
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

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


def _text_check(tokenizer: Tokenizer, max_len: int, negatives: Optional[int], mining=False,
                seen: Optional[set] = None):
    """A ``read_dataset`` check: each text of an example, of a triplet's negatives the first
    ``negatives`` (all for None), must encode to 1-``max_len`` tokens.  With ``mining``, a
    triplet with negatives may not repeat an earlier one's uid: mining names its query by it.

    The encoder refuses any other text only when a batch reaches it; checked
    as the dataset is read, the error names the record's ``path:line``.
    Each distinct text is encoded once, also across the checks that share ``seen``.
    """
    seen = set() if seen is None else seen
    uids: set[str] = set()

    def check(example):
        if mining and isinstance(example, Triplet) and example.negatives:
            if example.uid in uids:
                raise ValueError(f"uid {example.uid!r} repeats; mining names each query by its uid")
            uids.add(example.uid)
        for text in _texts_of(example, negatives):
            if text in seen:
                continue
            n = len(tokenizer.encode(text))
            if n < 1:
                raise ValueError("cannot encode an empty text")
            if n > max_len:
                raise ValueError(f"text of {n} tokens exceeds max_len {max_len}")
            seen.add(text)

    return check


def _examples(path, kind: type, check=None) -> list:
    """``read_dataset``'s examples of ``path``; a dataset without any is refused, naming it."""
    examples = read_dataset(path, kind, check)[1]
    if not examples:
        raise ValueError(f"dataset {path} has no examples")
    return examples


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
            rows = _block_rows(encoder.cfg.heads, ids.shape[1])
            for j in range(0, len(ids), rows):
                part = None if lengths is None else lengths[j:j + rows]
                out.append(encoder.embed_batch(ids[j:j + rows], 1.0, part).data)
    if not out:
        return np.zeros((0, encoder.cfg.hidden_dim))
    return np.concatenate(out, axis=0)


def _datasets(data: dict) -> dict[str, str]:
    """A manifest's dataset paths by name: the stage kind, or ``<kind>/<task>``."""
    named = {}
    for kind, v in data.items():
        named.update({f"{kind}/{t}": p for t, p in v.items()} if isinstance(v, dict) else {kind: v})
    return named


def _fingerprint(manifest: RunManifest) -> dict:
    """What a resume must find as the checkpoint's run had it: the seed, every stage value
    but ``steps``, and each dataset's SHA-256 (the encoder config is checked on its own).

    ``steps`` is checked on its own (``_RunDir.load``): a stage's final checkpoint may go
    on to a new budget.  Datasets go by name, not path, so that data and runs may move.
    """
    fp = {"seed": manifest.seed}
    for i, s in enumerate(manifest.stages):
        fp.update({f"stage {i} {k}": v for k, v in asdict(s).items() if k != "steps"})
    for name, p in _datasets(manifest.data).items():
        fp[f"data {name} sha256"] = hashlib.sha256(Path(p).read_bytes()).hexdigest()
    return fp


def _record_step(path: Path, n: int, line: bytes) -> int:
    """The step of log record ``line``, line ``n`` of ``path``, which the error names."""
    try:
        step = json.loads(line)["step"]
        if not _number(step, numbers.Integral):
            raise TypeError(f"step {step!r} is not an integer")
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}:{n}: not a log record with a step: {exc}") from exc
    return step


class _Start(NamedTuple):
    """A run's start: fresh, from a checkpoint's weights, or resumed at a stage's step."""
    weights: Optional[dict] = None
    vocab: list = []
    stage: int = -1
    step: int = 0
    optimizer: tuple = ()             # AdamW.load_state's arrays and step count
    mining: dict = {}                 # the checkpoint's mining.* arrays


class _RunDir:
    """The run directory: the one owner of its file names, log writes and syncs, and checkpoints.

    A log holds one JSON record per line, each with the ``step`` that wrote it.
    """

    def __init__(self, manifest: RunManifest):
        self._manifest = manifest
        self._fingerprint = _fingerprint(manifest)
        self.path = Path(manifest.output_dir)
        self.path.mkdir(parents=True, exist_ok=True)
        self._stage: Optional[tuple[int, StageConfig]] = None
        self._logs: dict[str, BinaryIO] = {}

    def _file(self, idx: int, name: str) -> Path:
        return self.path / f"stage{idx}-{name}"

    @contextmanager
    def stage(self, idx: int, cfg: StageConfig, start: int, mining: bool):
        """Open stage ``idx``'s metrics log, and with ``mining`` its mining log, for steps ``start`` on;
        their records of those steps, and a last line a crash tore, are dropped."""
        names = {"metrics": f"{cfg.kind}.metrics.jsonl", "mining": "mining.jsonl"}
        try:
            for log in ("metrics", "mining") if mining else ("metrics",):
                path = self._file(idx, names[log])
                fh = self._logs[log] = open(path, "a+b" if start else "w+b")
                fh.seek(0)
                keep = 0
                for n, line in enumerate(fh, 1):
                    if not line.endswith(b"\n") or _record_step(path, n, line) >= start:
                        break
                    keep += len(line)
                fh.truncate(keep)
            self._stage = idx, cfg
            yield
        finally:
            for fh in self._logs.values():
                fh.close()
            self._logs, self._stage = {}, None

    def write(self, log: str, records: Iterable[dict]):
        """Append ``records`` to the running stage's ``log``, "metrics" or "mining"."""
        self._logs[log].writelines((_dumps(record) + "\n").encode() for record in records)

    def checkpoint(self, step: int, encoder: Encoder, optimizer: AdamW, vocab: list[str],
                   mining: Optional[MiningState]) -> Path:
        """Sync the open logs, then write the running stage's checkpoint after ``step`` steps."""
        idx, cfg = self._stage
        for fh in self._logs.values():
            fh.flush()
            os.fsync(fh.fileno())
        path = self._file(idx, f"{cfg.kind}.ckpt" if step == cfg.steps else f"step{step}.ckpt")
        arrays = {**{f"model.{k}": v for k, v in encoder.export_arrays().items()},
                  **optimizer.export_state(), **(mining.arrays() if mining is not None else {})}
        extra = {"stage_index": idx, "stage_step": step, "steps": cfg.steps,
                 "opt_step_count": optimizer.step_count, "vocab": vocab,
                 "fingerprint": self._fingerprint}
        save_checkpoint(path, self._manifest.encoder.to_dict(), arrays, extra)
        return path

    def load(self, path, resume: bool) -> _Start:
        """Adopt checkpoint ``path``'s weights or, with ``resume``, continue the run that wrote it.

        That run's manifest must have had this one's fingerprint: a resume replays its step rngs.
        """
        config, arrays, extra = (load_checkpoint if resume else load_weights)(path)
        require_matching_config(self._manifest.encoder.to_dict(), config, str(path))
        start = _Start({k.removeprefix("model."): v for k, v in arrays.items() if k.startswith("model.")},
                       list(extra.get("vocab", [])))
        if not resume:
            return start
        found = extra.get("fingerprint")
        if found is None:
            raise CheckpointError(f"cannot resume from {path}: it records no manifest fingerprint "
                                  "to check this manifest against")
        for key in [*self._fingerprint, *sorted(found.keys() - self._fingerprint.keys())]:
            if found.get(key) != self._fingerprint.get(key):
                raise CheckpointError(f"cannot resume from {path}: it was written with {key} "
                                      f"{_dumps(found.get(key))}, this manifest has {key} "
                                      f"{_dumps(self._fingerprint.get(key))}")
        idx, step = int(extra["stage_index"]), int(extra["stage_step"])
        cfg = self._manifest.stages[idx]
        if "steps" not in extra:
            raise CheckpointError(f"cannot resume from {path}: it records no stage steps")
        steps = extra["steps"]
        # steps sizes the lr warmup and the soft-mask clock, so a mid-stage resume under other steps
        # would follow a schedule no uninterrupted run has.  A stage's final checkpoint may go on
        # to a new budget (the acceptance tests' budget loop does), unless its soft mask, at
        # alpha = 1 there, would re-open toward causal.
        if steps != cfg.steps and (step != steps or cfg.mask_policy == "soft"):
            raise CheckpointError(f"cannot resume from {path}: it was written by stage {idx} "
                                  f"({cfg.kind}) with steps {steps}, this manifest has steps "
                                  f"{cfg.steps}; only a stage's final checkpoint, and not a soft-mask "
                                  "stage's, may resume under other steps")
        return start._replace(stage=idx, step=step, optimizer=(arrays, int(extra["opt_step_count"])),
                              mining={k: v for k, v in arrays.items() if k.startswith("mining.")})


def _stage_alpha(cfg: StageConfig, step: int) -> float:
    """The mask alpha the encoder receives at ``step``: 0 is causal, 1 bidirectional."""
    if cfg.mask_policy == "causal":
        return 0.0
    # scheduled: t counts this stage's steps; the final step (the only one
    # of a one-step stage) reaches alpha = 1
    if cfg.mask_policy == "bidirectional" or cfg.steps == 1:
        return 1.0
    return schedule_alpha(cfg.mask_schedule, step, cfg.steps - 1)


def _draw(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """``min(size, n)`` distinct row indices below ``n``, in ascending order."""
    return np.sort(rng.choice(n, size=min(size, n), replace=False))


def _mean(terms: list[Tensor]) -> Tensor:
    """Mean of the per-dim losses, summed in list order (the order sets the last bits); one term
    is its own mean, which scaling by 1.0 would give again for one more tape node."""
    total = terms[0]
    for term in terms[1:]:
        total = ag.add(total, term)
    return total if len(terms) == 1 else ag.mul(total, 1.0 / len(terms))


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------

class ManifestError(ValueError):
    """A manifest value that only the manifest's datasets show to be wrong."""


class Trainer:
    def __init__(self, manifest: RunManifest):
        self.manifest = manifest
        self.tokenizer = self._build_tokenizer()
        self.run_dir = _RunDir(manifest)

    # -- data ----------------------------------------------------------

    def _build_tokenizer(self) -> Tokenizer:
        words: set[str] = set()
        for p in _datasets(self.manifest.data).values():
            words.update(read_header(p).get("vocab", []))
        try:
            return Tokenizer(sorted(words), self.manifest.encoder.vocab_size)
        except ValueError as exc:         # the words are distinct, so vocab_size is too small
            raise ManifestError(f"encoder: vocab_size: {exc}") from exc

    def _load_stage_data(self, cfg: StageConfig) -> dict:
        """The stage's data by task, in turn order: ``lm``'s token windows, ``pairs``, or the
        supervised tasks' examples; empty data is refused, naming its file."""
        path = self.manifest.data[cfg.kind]
        max_len = self.manifest.encoder.max_len
        if cfg.kind == "supervised":
            # mining embeds every negative; without it a step draws the first negatives_per_query
            negatives, seen = None if cfg.dhnm else cfg.negatives_per_query, set()
            return {task: _examples(path[task], ScoredPair if task == "sts" else Triplet,
                                    _text_check(self.tokenizer, max_len, negatives, cfg.dhnm, seen))
                    for task in SUPERVISED_TASKS if task in path}
        if cfg.kind == "weak-contrastive":
            return {"pairs": _examples(path, Triplet, _text_check(self.tokenizer, max_len, 0))}
        if cfg.kind == "lm-pretrain":
            seqs = [self.tokenizer.encode(t) for t in read_text_dataset(path)[1]]
        else:
            seqs = [self.tokenizer.encode(e.query) + self.tokenizer.encode(e.positive)
                    for e in read_dataset(path, Triplet)[1]]
        return {"lm": self._pack_windows(seqs, cfg.window_len, path)}

    @staticmethod
    def _pack_windows(seqs: list[list[int]], window_len: int, path: str) -> np.ndarray:
        stream = [tok for s in seqs for tok in s]
        span = window_len + 1
        n = len(stream) // span
        if n < 1:
            raise ValueError(f"dataset {path}: not enough tokens to fill a single training window")
        return np.array(stream[:n * span], dtype=np.intp).reshape(n, span)

    # -- main loop -------------------------------------------------------

    def run(self, resume_from: Optional[str] = None, init_from: Optional[str] = None) -> Path:
        """Execute the manifest.

        ``resume_from`` continues this same manifest from a mid-run
        checkpoint (stage indices must align); ``init_from`` only adopts a
        prior checkpoint's weights and vocabulary and starts the manifest
        from its first stage with a fresh optimizer.
        """
        if resume_from is not None and init_from is not None:
            raise ValueError("resume_from and init_from are mutually exclusive")
        path = resume_from if resume_from is not None else init_from
        start = _Start() if path is None else self.run_dir.load(path, resume=resume_from is not None)
        # checkpoint ids keep their meaning; words the checkpoint has not seen
        # are appended and map to still-untrained embedding rows
        new_words = sorted(set(self.tokenizer.words) - set(start.vocab))
        self.tokenizer = Tokenizer(start.vocab + new_words, self.manifest.encoder.vocab_size)
        encoder = Encoder(self.manifest.encoder, seed=self.manifest.seed, params=start.weights)

        last_ckpt = None
        for idx, cfg in enumerate(self.manifest.stages):
            if idx > start.stage or idx == start.stage and start.step < cfg.steps:
                last_ckpt = self._run_stage(idx, cfg, encoder, start if idx == start.stage else _Start())
        if last_ckpt is None:
            raise ValueError("nothing left to run: checkpoint is already past the last stage")
        return last_ckpt

    def _run_stage(self, idx: int, cfg: StageConfig, encoder: Encoder, start: _Start) -> Path:
        """Run stage ``idx`` on from ``start``'s step, optimizer and mining state (``_Start()`` when fresh)."""
        optimizer = AdamW(encoder.params, cfg.lr, cfg.weight_decay)
        if start.optimizer:
            optimizer.load_state(*start.optimizer)
        data = self._load_stage_data(cfg)
        mining = self._mining(cfg, encoder, data, start.mining) if cfg.dhnm else None
        with self.run_dir.stage(idx, cfg, start.step, mining is not None):
            for step in range(start.step, cfg.steps):
                rng = np.random.default_rng([self.manifest.seed, cfg.seed, idx, step])
                loss, task = self._loss(cfg, encoder, data, rng, step, mining)
                value = float(loss.data)
                if not np.isfinite(value):
                    raise ArithmeticError(f"non-finite loss at stage {idx} step {step}")
                ag.backward(loss)
                del loss  # free this step's graph before the next step's forward pass
                lr = warmup_lr(cfg.lr, step, cfg.steps, cfg.warmup_frac)
                optimizer.step(lr=lr)
                optimizer.zero_grads()
                if mining is not None:
                    self.run_dir.write("mining", [{"step": step, "event": "replace",
                                                   "query_id": ev.query_id, "slot": ev.slot_index,
                                                   "old": ev.old_negative, "new": ev.new_negative,
                                                   "exhausted": ev.exhausted}
                                                  for ev in mining.replace_flagged()])
                self.run_dir.write("metrics", [{"stage": idx, "kind": cfg.kind, "step": step,
                                                "task": task, "loss": value, "lr": lr}])
                done = step + 1
                if done == cfg.steps or cfg.checkpoint_every and done % cfg.checkpoint_every == 0:
                    ckpt = self.run_dir.checkpoint(done, encoder, optimizer, self.tokenizer.words, mining)
        return ckpt

    # -- one step of any stage -------------------------------------------

    def _embed(self, cfg: StageConfig, encoder: Encoder, texts: list[str], step: int) -> Tensor:
        """Tracked (B, hidden) embeddings of ``texts`` under the stage's mask at ``step``."""
        ids, lengths = batch_ids(self.tokenizer, texts)
        return encoder.embed_batch(ids, _stage_alpha(cfg, step), lengths)

    def _loss(self, cfg: StageConfig, encoder: Encoder, data: dict, rng: np.random.Generator,
              step: int, mining: Optional[MiningState]) -> tuple[Tensor, str]:
        """Step ``step``'s loss and task: the tasks of ``data`` take turns, and the task's
        batch is drawn once, then scored by the lm head, CoSENT or InfoNCE."""
        task = list(data)[step % len(data)]
        size = {"lm": cfg.batch_size, "pairs": cfg.batch_size, "sts": cfg.sts_batch_size}
        rows = _draw(rng, len(data[task]), size.get(task, cfg.triplet_batch_size))
        if task == "lm":
            batch = data[task][rows]
            states = encoder.forward_batch(batch[:, :-1], _stage_alpha(cfg, step))
            return next_token_ce(states, encoder.params["embed"], batch[:, 1:]), task
        chosen = [data[task][i] for i in rows]
        if task == "sts":
            return self._sts_batch_loss(cfg, encoder, chosen, step), task
        # a pair is a triplet drawn with no negatives: in-batch InfoNCE over batch_size pairs
        per_query = 0 if task == "pairs" else cfg.negatives_per_query
        return self._triplet_batch_loss(cfg, encoder, chosen, step, task, mining, per_query), task

    def _mining(self, cfg: StageConfig, encoder: Encoder, datasets: dict,
                saved: dict) -> MiningState:
        """The stage's mining state: as ``saved`` by a checkpoint of this stage, or new if that is empty.

        Each triplet with negatives holds slots, in task and dataset order.  A
        saved state names negatives by dataset row; the fingerprint a resume
        checks holds each dataset's SHA-256, so the rows name the same texts.
        A new state ranks each query's negatives with the incoming (seed)
        encoder: every distinct query and negative text is embedded once, in
        one tape-free call, and each query's negatives are scored by row lookup.
        """
        triplets = [(task, ex) for task, examples in datasets.items() if task != "sts"
                    for ex in examples if ex.negatives]
        queries = [(f"{task}:{ex.uid}", ex.negatives, min(cfg.negatives_per_query, len(ex.negatives)))
                   for task, ex in triplets]
        if saved:
            return MiningState.from_arrays(cfg.dhnm_mode, queries, saved)
        # sorted, not set order: string hashing is randomized per process
        texts = sorted({t for _, ex in triplets for t in (ex.query, *ex.negatives)})
        row = {t: i for i, t in enumerate(texts)}
        emb = embed_texts(encoder, self.tokenizer, texts) if texts else None
        mining = MiningState(mode=cfg.dhnm_mode)
        for (_, ex), (query_id, negatives, k) in zip(triplets, queries):
            scores = emb[[row[n] for n in negatives]] @ emb[row[ex.query]]
            order = np.lexsort((np.arange(len(negatives)), -scores))
            mining.register_query(query_id, order[:k], order[k:], negatives)
        return mining

    def _mrl_dims(self, cfg: StageConfig) -> tuple[int, ...]:
        if cfg.mrl:
            return tuple(self.manifest.encoder.mrl_dims)
        return (self.manifest.encoder.hidden_dim,)

    def _sts_batch_loss(self, cfg: StageConfig, encoder: Encoder, chosen: list, step: int) -> Tensor:
        """CoSENT of the ``chosen`` scored pairs' cosines, averaged over the MRL dims."""
        ea = self._embed(cfg, encoder, [e.text_a for e in chosen], step)
        eb = self._embed(cfg, encoder, [e.text_b for e in chosen], step)
        labels = np.array([e.similarity for e in chosen])
        dims = self._mrl_dims(cfg)
        cos = [ag.sum_lastdim(ag.mul(truncate_normalize(ea, d, dims),
                                     truncate_normalize(eb, d, dims))) for d in dims]
        return _mean([cosent(c, labels) for c in cos])  # ascending dims

    def _triplet_batch_loss(self, cfg: StageConfig, encoder: Encoder, chosen: list, step: int,
                            task: str, mining: Optional[MiningState], per_query: int) -> Tensor:
        """InfoNCE of the ``chosen`` triplets over their positives and first ``per_query`` negatives."""
        # the mining slots hold a query's first negatives_per_query negatives, re-ranked and replaced
        negatives = [mining.current_negatives(f"{task}:{ex.uid}") if mining is not None
                     else ex.negatives[:per_query] for ex in chosen]
        k = min(len(n) for n in negatives)

        q_emb = self._embed(cfg, encoder, [e.query for e in chosen], step)
        passages = [e.positive for e in chosen] + [n for negs in negatives for n in negs[:k]]
        p_emb = self._embed(cfg, encoder, passages, step)

        dims = self._mrl_dims(cfg)
        widest_first = [info_nce_with_scores(truncate_normalize(q_emb, d, dims),
                                             truncate_normalize(p_emb, d, dims), cfg.temperature)
                        for d in sorted(dims, reverse=True)]
        loss = _mean([loss_d for loss_d, _, _ in widest_first])

        if mining is not None:
            full_neg_scores = widest_first[0][2]
            scored = [(f"{task}:{ex.uid}", slot, float(full_neg_scores[b, slot]))
                      for b, ex in enumerate(chosen) for slot in range(k)]
            self.run_dir.write("mining", mining.cache_scores(step, scored))
        return loss


def default_toy_manifest(data: dict, output_dir: str, seed: int = 0) -> RunManifest:
    """Default desk-scale four-stage run: 500/200/500/1000 steps, batch 32
    (triplet batches of 4 and STS batches of 32 in the supervised stage)."""
    return RunManifest(
        encoder=EncoderConfig(),
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
    """recall@k and nDCG@10 of each query's own passage (doc id ``d<i>``) among all passages."""
    n = len(examples)
    qv = embed_texts(encoder, tokenizer, [ex.query for ex in examples])
    cv = embed_texts(encoder, tokenizer, [ex.positive for ex in examples])
    rows, _ = top_k(qv, cv, [f"d{i}" for i in range(n)], k=max(max(ks), 10))
    # the doc ids are distinct, so each query's one relevant doc occurs at most once
    hits = rows == np.arange(n)[:, None]
    return retrieval_metrics(hits, hits, np.ones(n, dtype=np.intp), ks)


def evaluate_sts(encoder: Encoder, tokenizer: Tokenizer, examples: list) -> dict[str, float]:
    av = embed_texts(encoder, tokenizer, [e.text_a for e in examples])
    bv = embed_texts(encoder, tokenizer, [e.text_b for e in examples])
    cos = (av * bv).sum(axis=-1)
    labels = [e.similarity for e in examples]
    return {"spearman": spearman(cos, labels)}


def evaluate_checkpoint(ckpt_path, dataset_path, ks: tuple[int, ...] = (1, 5, 10, 20)) -> dict[str, float]:
    check_cutoffs(ks)
    encoder, tokenizer, _ = load_encoder(ckpt_path)
    kind = ScoredPair if read_header(dataset_path).get("task") == "sts" else Triplet
    examples = _examples(dataset_path, kind, _text_check(tokenizer, encoder.cfg.max_len, 0))
    if kind is ScoredPair:
        if len(examples) < 2:
            raise ValueError(f"dataset {dataset_path} has one scored pair; Spearman needs two")
        return evaluate_sts(encoder, tokenizer, examples)
    return evaluate_retrieval(encoder, tokenizer, examples, ks)
