"""Dataset records, SFT-pair conversion, filtering, cross-lingual pair generation,
and the synthetic cluster corpora used for desk-scale experiments.

Synthetic text is built from words "t<number>"; each "language" owns a
disjoint 1000-id block, and the mock translator maps a word to the
target language's block (a reversible substitution, ``_block_words``) and
prefixes a "[lang]" tag token.  Real words pass through the substitution
unchanged.  A synthetic corpus whose words would not fit in one block is refused.
Dataset files are line-delimited JSON with a leading header record that
carries the task, the languages, and the corpus vocabulary.  Each record's
fields and a header's lists pass the checks of ``values._VALUES`` as they are read.
"""

from __future__ import annotations

import json
import logging
import math
import re
import shutil
import subprocess
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Protocol, Sequence, Union

import numpy as np

from . import _dumps
from .values import _check_values

logger = logging.getLogger(__name__)

LANG_STRIDE = 1000
_SYNTH_WORD = re.compile(r"^t(\d+)$")


# ---------------------------------------------------------------------------
# training example records
# ---------------------------------------------------------------------------

@dataclass
class RawRecord:
    instruction: str
    input: str
    output: str
    source: str = ""


@dataclass
class Triplet:
    """A query, its positive and its candidate negatives; a pair is a triplet without negatives."""
    query: str
    positive: str
    negatives: list[str] = field(default_factory=list)
    query_lang: str = "und"
    passage_lang: str = "und"
    cluster: Optional[int] = None
    uid: str = ""
    source: str = ""

    def __post_init__(self):
        _check_values(vars(self))


@dataclass
class ScoredPair:
    text_a: str
    text_b: str
    similarity: float
    lang: str = "und"
    uid: str = ""
    source: str = ""

    def __post_init__(self):
        _check_values(vars(self))


TrainingExample = Union[Triplet, ScoredPair]

_KINDS = {"triplet": Triplet, "scored_pair": ScoredPair}
_KIND_NAMES = {cls: kind for kind, cls in _KINDS.items()}


def example_to_record(e: TrainingExample) -> dict:
    if type(e) not in _KIND_NAMES:
        raise TypeError(f"not a training example: {type(e)}")
    # vars(e) holds the fields in order; shallow, unlike dataclasses.asdict's deep copy
    return {"record": "example", "kind": _KIND_NAMES[type(e)], **vars(e)}


def example_from_record(d: dict) -> TrainingExample:
    d = dict(d)
    kind = d.pop("kind", None)
    if kind not in _KINDS:
        raise ValueError(f"unknown example kind {kind!r}; expected one of {sorted(_KINDS)}")
    d.pop("record", None)
    return _KINDS[kind](**d)


# ---------------------------------------------------------------------------
# SFT conversion and quality filtering
# ---------------------------------------------------------------------------

def pair_from_sft(r: RawRecord) -> Triplet:
    """Instruction + input become the query, the output becomes the positive."""
    if not r.output:
        raise ValueError("SFT record has an empty output")
    parts = [p for p in (r.instruction, r.input) if p]
    return Triplet(query="\n".join(parts), positive=r.output, source=r.source)


class ScorerClient(Protocol):
    def score(self, query: str, passage: str) -> float: ...


class TranslatorClient(Protocol):
    def translate(self, text: str, target_language: str) -> str: ...


@dataclass
class FilterReport:
    kept: list
    dropped_by_source: dict[str, int] = field(default_factory=dict)
    failed_by_source: dict[str, int] = field(default_factory=dict)

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped_by_source.values()) + sum(self.failed_by_source.values())


def quality_filter(pairs: Sequence[Triplet], scorer: ScorerClient, threshold: float = 0.4) -> FilterReport:
    """Keep pairs scoring >= threshold (boundary inclusive); order is preserved."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    report = FilterReport(kept=[])
    for p in pairs:
        try:
            s = scorer.score(p.query, p.positive)
        except Exception as exc:
            logger.warning("scorer failed on %r: %s; dropping record", p.uid or p.query[:40], exc)
            report.failed_by_source[p.source] = report.failed_by_source.get(p.source, 0) + 1
            continue
        if s >= threshold:
            report.kept.append(p)
        else:
            report.dropped_by_source[p.source] = report.dropped_by_source.get(p.source, 0) + 1
    return report


class OverlapScorer:
    """Jaccard word overlap, ignoring language-block offsets of synthetic words."""

    def score(self, query: str, passage: str) -> float:
        a = set(_block_words(query, 0))
        b = set(_block_words(passage, 0))
        if not a or not b:
            return 0.0
        return len(a & b) / len(a | b)


# ---------------------------------------------------------------------------
# language distributions
# ---------------------------------------------------------------------------

# weight table for sampling translation target languages (percent units)
TRANSLATION_LANGUAGE_WEIGHTS = {
    "en": 25, "zh": 12, "es": 8, "fr": 6, "ja": 6, "de": 5, "ru": 5,
    "it": 4, "pt": 4, "ar": 3, "ko": 3, "bn": 2, "da": 2, "sv": 2,
    "th": 2, "ms": 2, "tr": 2, "vi": 2, "nl": 2, "pl": 2, "hi": 2,
    "km": 1, "fi": 1, "he": 1, "hu": 1, "no": 1,
}


@dataclass(frozen=True)
class LanguageDistribution:
    codes: tuple[str, ...]
    proportions: tuple[float, ...]

    def __post_init__(self):
        if len(self.codes) != len(set(self.codes)):
            raise ValueError("language codes must be unique")
        if len(self.codes) != len(self.proportions) or not self.codes:
            raise ValueError("codes and proportions must be non-empty and equal-length")
        if not all(p >= 0 for p in self.proportions):     # NaN too
            raise ValueError("proportions must be non-negative")
        total = float(sum(self.proportions))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"proportions sum to {total}, not 1 (use from_weights to normalize)")

    @classmethod
    def from_weights(cls, weights: dict[str, float]) -> "LanguageDistribution":
        for code, w in weights.items():
            if not math.isfinite(w):
                raise ValueError(f"language {code!r} has weight {w}, not a finite number")
        total = float(sum(weights.values()))
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        codes = tuple(weights.keys())
        return cls(codes=codes, proportions=tuple(w / total for w in weights.values()))

    @classmethod
    def from_file(cls, path) -> "LanguageDistribution":
        import yaml
        with open(path) as fh:
            raw = yaml.safe_load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"distribution file {path} must map language codes to weights")
        try:
            return cls.from_weights({str(k): float(v) for k, v in raw.items()})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"distribution file {path}: {exc}") from exc


def default_translation_languages() -> LanguageDistribution:
    return LanguageDistribution.from_weights(TRANSLATION_LANGUAGE_WEIGHTS)


def sample_target_language(dist: LanguageDistribution, rng) -> str:
    """One categorical draw from the distribution."""
    u = rng.random()
    acc = 0.0
    for code, p in zip(dist.codes, dist.proportions):
        acc += p
        if u < acc:
            return code
    return dist.codes[-1]


# ---------------------------------------------------------------------------
# translators
# ---------------------------------------------------------------------------

def _block_words(text: str, offset: int) -> list[str]:
    """The words of ``text``, each synthetic word t<n> moved to t<n % LANG_STRIDE + offset>."""
    return [f"t{int(m.group(1)) % LANG_STRIDE + offset}" if (m := _SYNTH_WORD.match(w)) else w
            for w in text.split()]


class MockTranslator:
    """Deterministic offline translator: "[lang]" prefix + reversible word substitution."""

    def __init__(self, languages: Sequence[str]):
        self.languages = tuple(languages)
        self._index = {code: i for i, code in enumerate(self.languages)}

    def translate(self, text: str, target_language: str) -> str:
        if target_language not in self._index:
            raise ValueError(f"unsupported target language {target_language!r}")
        offset = self._index[target_language] * LANG_STRIDE
        return " ".join([f"[{target_language}]", *_block_words(text, offset)])


class CommandTranslator:
    """Shells out per record: text on stdin, target language as the last argument."""

    def __init__(self, command: Sequence[str]):
        self.command = list(command)
        if not self.command:
            raise ValueError("empty translator command")
        if shutil.which(self.command[0]) is None:
            raise FileNotFoundError(f"translator program {self.command[0]!r} not found")

    def translate(self, text: str, target_language: str) -> str:
        proc = subprocess.run(self.command + [target_language], input=text,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"translator command failed ({proc.returncode}): {proc.stderr.strip()}")
        return proc.stdout.rstrip("\n")


def make_clr_pair(example: Triplet, translator: TranslatorClient, target: str) -> Triplet:
    """Translate only the query side; the passage side is byte-identical."""
    if not example.passage_lang or example.passage_lang == "und":
        raise ValueError("record needs a passage-side language tag")
    query = example.query if target == example.query_lang else translator.translate(example.query, target)
    return replace(example, query=query, query_lang=target, negatives=list(example.negatives))


def generate_clr_dataset(examples: Sequence[Triplet], translator: TranslatorClient,
                         dist: LanguageDistribution, seed: int = 0) -> tuple[list[Triplet], int]:
    """CLR-tag every record with a sampled target language; failures are dropped."""
    rng = np.random.default_rng(seed)
    out: list[Triplet] = []
    failures = 0
    for e in examples:
        target = sample_target_language(dist, rng)
        try:
            out.append(make_clr_pair(e, translator, target))
        except Exception as exc:
            logger.warning("translation failed on %r: %s; dropping record", e.uid or e.query[:40], exc)
            failures += 1
    return out, failures


# ---------------------------------------------------------------------------
# synthetic cluster corpora
# ---------------------------------------------------------------------------

@dataclass
class SynthCorpus:
    languages: tuple[str, ...]
    n_clusters: int
    sentences: list[dict]            # {"cluster", "lang", "text"}
    pairs: list[Triplet]             # without negatives
    label_words: list[str]


# a synthetic cluster's own words, the words all clusters share, and each word's chance to be shared
WORDS_PER_CLUSTER, SHARED_WORDS, NOISE_PROB = 3, 4, 0.1


def _make_sentence(rng, cluster_words: list[str], shared_words: list[str], length: int) -> str:
    toks = []
    for _ in range(length):
        words = shared_words if rng.random() < NOISE_PROB else cluster_words
        toks.append(words[int(rng.integers(len(words)))])
    return " ".join(toks)


def synth_corpus(n_clusters: int, per_cluster: int, languages: Sequence[str] = ("l0",),
                 seed: int = 0, sentence_len: int = 8) -> SynthCorpus:
    """Separable token clusters; per-language surface forms share cluster identity.

    Words t0 .. t<n_clusters * WORDS_PER_CLUSTER + SHARED_WORDS - 1> must fit in
    one language block, so that no two languages share a word.
    """
    if n_clusters < 2:
        raise ValueError("need at least 2 clusters")
    if per_cluster < 2:
        raise ValueError("need at least 2 sentences per cluster")
    n_words = n_clusters * WORDS_PER_CLUSTER + SHARED_WORDS
    if n_words > LANG_STRIDE:
        raise ValueError(f"{n_clusters} clusters of {WORDS_PER_CLUSTER} words and {SHARED_WORDS} "
                         f"shared words make {n_words} words, more than the {LANG_STRIDE} of "
                         "one language block")
    rng = np.random.default_rng(seed)
    languages = tuple(languages)
    shared = [f"t{n_clusters * WORDS_PER_CLUSTER + k}" for k in range(SHARED_WORDS)]
    sentences: list[dict] = []
    pairs: list[Triplet] = []
    for c in range(n_clusters):
        cwords = [f"t{c * WORDS_PER_CLUSTER + k}" for k in range(WORDS_PER_CLUSTER)]
        base_texts = [_make_sentence(rng, cwords, shared, sentence_len) for _ in range(per_cluster)]
        for li, lang in enumerate(languages):
            # under the bound, block 0 holds the base words themselves
            texts = (base_texts if li == 0 else
                     [" ".join(_block_words(t, li * LANG_STRIDE)) for t in base_texts])
            for si, t in enumerate(texts):
                sentences.append({"cluster": c, "lang": lang, "text": t})
            for si in range(0, per_cluster - 1, 2):
                pairs.append(Triplet(query=texts[si], positive=texts[si + 1],
                                     query_lang=lang, passage_lang=lang,
                                     cluster=c, uid=f"c{c}-{lang}-p{si // 2}"))
    labels = [f"lab{c}" for c in range(n_clusters)]
    return SynthCorpus(languages=languages, n_clusters=n_clusters,
                       sentences=sentences, pairs=pairs, label_words=labels)


def build_sft_records(corpus: SynthCorpus) -> list[RawRecord]:
    return [RawRecord(instruction="inst", input=p.query, output=p.positive, source="synth")
            for p in corpus.pairs]


def build_triplets(corpus: SynthCorpus, lang: Optional[str] = None, pool_size: int = 24,
                   seed: int = 0) -> list[Triplet]:
    """The corpus pairs with a per-query candidate-negative list drawn from other clusters."""
    rng = np.random.default_rng(seed)
    langs = (lang,) if lang else corpus.languages
    by_cluster: dict[int, list[str]] = {}
    for s in corpus.sentences:
        if s["lang"] in langs:
            by_cluster.setdefault(s["cluster"], []).append(s["text"])
    out = []
    for p in corpus.pairs:
        if p.query_lang not in langs:
            continue
        foreign = [t for c, texts in sorted(by_cluster.items()) if c != p.cluster for t in texts]
        take = min(pool_size, len(foreign))
        idx = rng.choice(len(foreign), size=take, replace=False)
        out.append(replace(p, negatives=[foreign[i] for i in idx]))
    return out


def build_classification(corpus: SynthCorpus, lang: Optional[str] = None,
                         negatives: int = 7) -> list[Triplet]:
    """(text, true label word, other label words) records."""
    langs = (lang,) if lang else corpus.languages
    out = []
    for i, s in enumerate(corpus.sentences):
        if s["lang"] not in langs:
            continue
        c = s["cluster"]
        others = [w for j, w in enumerate(corpus.label_words) if j != c]
        step = max(1, len(others) // max(1, negatives))
        negs = others[::step][:negatives]
        out.append(Triplet(query=s["text"], positive=corpus.label_words[c], negatives=negs,
                           query_lang=s["lang"], passage_lang=s["lang"],
                           cluster=c, uid=f"cls-{i}"))
    return out


def build_sts(corpus: SynthCorpus, n_pairs: int, lang: Optional[str] = None,
              seed: int = 0) -> list[ScoredPair]:
    """Sentence pairs labeled 2 (same cluster), 1 (sibling cluster), or 0."""
    rng = np.random.default_rng(seed)
    langs = (lang,) if lang else corpus.languages
    sents = [s for s in corpus.sentences if s["lang"] in langs]
    out = []
    for i in range(n_pairs):
        a, b = rng.integers(len(sents), size=2)
        sa, sb = sents[int(a)], sents[int(b)]
        if sa["cluster"] == sb["cluster"]:
            sim = 2.0
        elif sa["cluster"] // 2 == sb["cluster"] // 2:
            sim = 1.0
        else:
            sim = 0.0
        out.append(ScoredPair(text_a=sa["text"], text_b=sb["text"], similarity=sim,
                              lang=sa["lang"], uid=f"sts-{i}"))
    return out


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

def _texts_of(e: TrainingExample, negatives: Optional[int] = None) -> tuple[str, ...]:
    """The texts of ``e``: of a triplet's negatives the first ``negatives``, all for None."""
    if isinstance(e, ScoredPair):
        return e.text_a, e.text_b
    return (e.query, e.positive, *e.negatives[:negatives])


def _write_lines(path, task: str, items: Sequence, texts: Iterable[str], record,
                 languages: Sequence[str] = (), extra: Optional[dict] = None):
    """The one dataset writer: a header of ``task``, the sorted ``languages``, the sorted
    words of ``texts``, the count of ``items`` and ``extra``, then one line ``record(item)``
    per item."""
    header = {"record": "header", "task": task, "languages": sorted(languages),
              "vocab": sorted({w for t in texts for w in t.split()}), "count": len(items),
              **(extra or {})}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for item in items:
            fh.write(_dumps(record(item)) + "\n")


def write_dataset(path, task: str, examples: Sequence[TrainingExample],
                  languages: Sequence[str] = (), extra: Optional[dict] = None):
    """Line-delimited records behind a header carrying task, languages and vocab."""
    _write_lines(path, task, examples, (t for e in examples for t in _texts_of(e)),
                 example_to_record, languages, extra)


def write_text_dataset(path, texts: Sequence[str]):
    """Plain text lines behind the same header scheme (token-level training data)."""
    _write_lines(path, "text", texts, texts,
                 lambda t: {"record": "example", "kind": "text", "text": t})


def _header(path, first_line: Optional[bytes]) -> dict:          # None: a file without lines
    if first_line is None:
        raise ValueError(f"dataset {path} is empty")
    try:
        header = json.loads(first_line.decode("utf-8"))
    except ValueError as exc:         # not UTF-8, or not JSON
        raise ValueError(f"{path}:1: invalid header: {exc}") from exc
    if not isinstance(header, dict) or header.get("record") != "header":
        raise ValueError(f"dataset {path} is missing its header record")
    try:
        _check_values({k: header[k] for k in ("vocab", "languages") if k in header})
    except ValueError as exc:
        raise ValueError(f"{path}:1: {exc}") from exc
    return header


def read_header(path) -> dict:
    """A dataset file's header record, read without its examples."""
    with open(path, "rb") as fh:
        return _header(path, fh.readline() or None)


def _read_records(path, parse, task: Optional[str] = None) -> tuple[dict, list]:
    """The header and ``parse(record)`` for each record line of a dataset file.

    A header of another ``task``, or a record that is not JSON or that
    ``parse`` rejects, raises ValueError naming the file (and ``path:line``).
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    header = _header(path, lines[0] if lines else None)
    if task is not None and header.get("task") != task:
        raise ValueError(f"{path} is not a {task} dataset")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line:
            try:
                out.append(parse(json.loads(line.decode("utf-8"))))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: record without field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: invalid record: {exc}") from exc
    return header, out


def read_dataset(path, kind: Optional[type] = None, check=None) -> tuple[dict, list[TrainingExample]]:
    """The header and examples of a dataset file.

    ``kind``, ``Triplet`` or ``ScoredPair``, is the one record kind the caller
    reads; a record of the other kind is refused at its ``path:line``.
    ``check``, when given, is called on each example as it is read; a
    ValueError it raises is reported at the record's ``path:line``.
    """
    def parse(record):
        example = example_from_record(record)
        if kind is not None and not isinstance(example, kind):
            raise ValueError(f"a {_KIND_NAMES[type(example)]} record, "
                             f"where {_KIND_NAMES[kind]} records are read")
        if check is not None:
            check(example)
        return example

    return _read_records(path, parse)


def read_text_dataset(path) -> tuple[dict, list[str]]:
    return _read_records(path, lambda rec: _check_values({"text": rec["text"]})["text"], task="text")
