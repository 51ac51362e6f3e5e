"""Dataset records, SFT-pair conversion, filtering, cross-lingual pair generation,
and the synthetic cluster corpora used for desk-scale experiments.

Synthetic text is built from words "t<number>"; each "language" owns a
disjoint 1000-id block, and the mock translator maps a word to the
target language's block (a reversible substitution) and prefixes a
"[lang]" tag token.  Real words pass through the substitution unchanged.
Dataset files are line-delimited JSON with a leading header record that
carries the task, the languages, and the corpus vocabulary.
"""

from __future__ import annotations

import json
import logging
import re
import subprocess
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Protocol, Sequence, Union

import numpy as np

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
class Pair:
    query: str
    positive: str
    query_lang: str = "und"
    passage_lang: str = "und"
    task: str = "pair"
    cluster: Optional[int] = None
    uid: str = ""
    source: str = ""


@dataclass
class Triplet:
    query: str
    positive: str
    negatives: list[str]
    query_lang: str = "und"
    passage_lang: str = "und"
    task: str = "retrieval"
    cluster: Optional[int] = None
    uid: str = ""
    source: str = ""


@dataclass
class ScoredPair:
    text_a: str
    text_b: str
    similarity: float
    lang: str = "und"
    task: str = "sts"
    uid: str = ""
    source: str = ""


TrainingExample = Union[Pair, Triplet, ScoredPair]

_KINDS = {"pair": Pair, "triplet": Triplet, "scored_pair": ScoredPair}
_FIELDS = {kind: tuple(f.name for f in fields(cls)) for kind, cls in _KINDS.items()}


def example_to_record(e: TrainingExample) -> dict:
    for kind, cls in _KINDS.items():
        if isinstance(e, cls):
            # shallow, unlike dataclasses.asdict's recursive deep copy: records are only serialized
            return {"record": "example", "kind": kind, **{f: getattr(e, f) for f in _FIELDS[kind]}}
    raise TypeError(f"not a training example: {type(e)}")


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

def pair_from_sft(r: RawRecord) -> Pair:
    """Instruction + input become the query, the output becomes the positive."""
    if not r.output:
        raise ValueError("SFT record has an empty output")
    parts = [p for p in (r.instruction, r.input) if p]
    return Pair(query="\n".join(parts), positive=r.output, source=r.source)


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


def quality_filter(pairs: Sequence[Pair], scorer: ScorerClient, threshold: float = 0.4) -> FilterReport:
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


class ConstantScorer:
    def __init__(self, value: float = 1.0):
        self.value = value

    def score(self, query: str, passage: str) -> float:
        return self.value


class OverlapScorer:
    """Jaccard word overlap, ignoring language-block offsets of synthetic words."""

    def score(self, query: str, passage: str) -> float:
        a = {_base_word(w) for w in query.split()}
        b = {_base_word(w) for w in passage.split()}
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
        if any(p < 0 for p in self.proportions):
            raise ValueError("proportions must be non-negative")
        total = float(sum(self.proportions))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"proportions sum to {total}, not 1 (use from_weights to normalize)")

    @classmethod
    def from_weights(cls, weights: dict[str, float]) -> "LanguageDistribution":
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
        return cls.from_weights({str(k): float(v) for k, v in raw.items()})


def default_translation_languages() -> LanguageDistribution:
    return LanguageDistribution.from_weights(TRANSLATION_LANGUAGE_WEIGHTS)


def sample_target_language(dist: LanguageDistribution, rng) -> str:
    """One categorical draw from the distribution."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
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

def _base_word(word: str) -> str:
    m = _SYNTH_WORD.match(word)
    if m:
        return f"t{int(m.group(1)) % LANG_STRIDE}"
    return word


class MockTranslator:
    """Deterministic offline translator: "[lang]" prefix + reversible word substitution."""

    def __init__(self, languages: Sequence[str]):
        self.languages = tuple(languages)
        self._index = {code: i for i, code in enumerate(self.languages)}

    def translate(self, text: str, target_language: str) -> str:
        if target_language not in self._index:
            raise ValueError(f"unsupported target language {target_language!r}")
        offset = self._index[target_language] * LANG_STRIDE
        words = []
        for w in text.split():
            m = _SYNTH_WORD.match(w)
            words.append(f"t{int(m.group(1)) % LANG_STRIDE + offset}" if m else w)
        return " ".join([f"[{target_language}]"] + words)


class CommandTranslator:
    """Shells out per record: text on stdin, target language as the last argument."""

    def __init__(self, command: Sequence[str]):
        self.command = list(command)

    def translate(self, text: str, target_language: str) -> str:
        proc = subprocess.run(self.command + [target_language], input=text,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"translator command failed ({proc.returncode}): {proc.stderr.strip()}")
        return proc.stdout.rstrip("\n")


def make_clr_pair(example: TrainingExample, translator: TranslatorClient, target: str) -> TrainingExample:
    """Translate only the query side; the passage side is byte-identical."""
    if isinstance(example, ScoredPair):
        raise TypeError("cross-lingual generation applies to pair/triplet records")
    if not example.passage_lang or example.passage_lang == "und":
        raise ValueError("record needs a passage-side language tag")
    if target == example.query_lang:
        query, qlang = example.query, example.query_lang
    else:
        query, qlang = translator.translate(example.query, target), target
    if isinstance(example, Triplet):
        return Triplet(query=query, positive=example.positive, negatives=list(example.negatives),
                       query_lang=qlang, passage_lang=example.passage_lang, task="clr",
                       cluster=example.cluster, uid=example.uid, source=example.source)
    return Pair(query=query, positive=example.positive, query_lang=qlang,
                passage_lang=example.passage_lang, task="clr",
                cluster=example.cluster, uid=example.uid, source=example.source)


def generate_clr_dataset(examples: Sequence[TrainingExample], translator: TranslatorClient,
                         dist: LanguageDistribution, seed: int = 0) -> tuple[list[TrainingExample], int]:
    """CLR-tag every record with a sampled target language; failures are dropped."""
    rng = np.random.default_rng(seed)
    out: list[TrainingExample] = []
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
    pairs: list[Pair]
    label_words: list[str]


def _make_sentence(rng, cluster_words: list[str], shared_words: list[str], length: int,
                   noise_prob: float) -> str:
    toks = []
    for _ in range(length):
        if shared_words and rng.random() < noise_prob:
            toks.append(shared_words[int(rng.integers(len(shared_words)))])
        else:
            toks.append(cluster_words[int(rng.integers(len(cluster_words)))])
    return " ".join(toks)


def _lang_surface(text: str, lang_index: int) -> str:
    if lang_index == 0:
        return text
    offset = lang_index * LANG_STRIDE
    return " ".join(
        f"t{int(m.group(1)) + offset}" if (m := _SYNTH_WORD.match(w)) else w
        for w in text.split()
    )


def synth_corpus(n_clusters: int, per_cluster: int, languages: Sequence[str] = ("l0",),
                 seed: int = 0, words_per_cluster: int = 3, sentence_len: int = 8,
                 shared_words: int = 4, noise_prob: float = 0.1) -> SynthCorpus:
    """Separable token clusters; per-language surface forms share cluster identity."""
    if n_clusters < 2:
        raise ValueError("need at least 2 clusters")
    if per_cluster < 2:
        raise ValueError("need at least 2 sentences per cluster")
    rng = np.random.default_rng(seed)
    languages = tuple(languages)
    shared = [f"t{n_clusters * words_per_cluster + k}" for k in range(shared_words)]
    sentences: list[dict] = []
    pairs: list[Pair] = []
    for c in range(n_clusters):
        cwords = [f"t{c * words_per_cluster + k}" for k in range(words_per_cluster)]
        base_texts = [_make_sentence(rng, cwords, shared, sentence_len, noise_prob)
                      for _ in range(per_cluster)]
        for li, lang in enumerate(languages):
            texts = [_lang_surface(t, li) for t in base_texts]
            for si, t in enumerate(texts):
                sentences.append({"cluster": c, "lang": lang, "text": t})
            for si in range(0, per_cluster - 1, 2):
                pairs.append(Pair(query=texts[si], positive=texts[si + 1],
                                  query_lang=lang, passage_lang=lang,
                                  cluster=c, uid=f"c{c}-{lang}-p{si // 2}"))
    labels = [f"lab{c}" for c in range(n_clusters)]
    return SynthCorpus(languages=languages, n_clusters=n_clusters,
                       sentences=sentences, pairs=pairs, label_words=labels)


def build_sft_records(corpus: SynthCorpus, instruction: str = "inst") -> list[RawRecord]:
    return [RawRecord(instruction=instruction, input=p.query, output=p.positive, source="synth")
            for p in corpus.pairs]


def build_triplets(corpus: SynthCorpus, lang: Optional[str] = None, pool_size: int = 24,
                   seed: int = 0, task: str = "retrieval") -> list[Triplet]:
    """Pairs plus a per-query candidate-negative list drawn from other clusters."""
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
        out.append(Triplet(query=p.query, positive=p.positive,
                           negatives=[foreign[i] for i in idx],
                           query_lang=p.query_lang, passage_lang=p.passage_lang,
                           task=task, cluster=p.cluster, uid=p.uid))
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
                           task="classification", cluster=c, uid=f"cls-{i}"))
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

def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _texts_of(e: TrainingExample) -> list[str]:
    if isinstance(e, ScoredPair):
        return [e.text_a, e.text_b]
    if isinstance(e, Triplet):
        return [e.query, e.positive, *e.negatives]
    return [e.query, e.positive]


def write_dataset(path, task: str, examples: Sequence[TrainingExample],
                  languages: Sequence[str] = (), extra: Optional[dict] = None):
    """Line-delimited records behind a header carrying task, languages and vocab."""
    vocab = sorted({w for e in examples for t in _texts_of(e) for w in t.split()})
    header = {"record": "header", "task": task, "languages": sorted(languages),
              "vocab": vocab, "count": len(examples)}
    if extra:
        header.update(extra)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for e in examples:
            fh.write(_dumps(example_to_record(e)) + "\n")


def _header(path, first_line: str) -> dict:
    if not first_line:
        raise ValueError(f"dataset {path} is empty")
    try:
        header = json.loads(first_line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:1: invalid header: {exc}") from exc
    if not isinstance(header, dict) or header.get("record") != "header":
        raise ValueError(f"dataset {path} is missing its header record")
    return header


def read_header(path) -> dict:
    """A dataset file's header record, read without its examples."""
    with open(path, encoding="utf-8") as fh:
        return _header(path, fh.readline())


def _read_records(path, parse, task: Optional[str] = None) -> tuple[dict, list]:
    """The header and ``parse(record)`` for each record line of a dataset file.

    A header of another ``task``, or a record that is not JSON or that
    ``parse`` rejects, raises ValueError naming the file (and ``path:line``).
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = _header(path, lines[0] if lines else "")
    if task is not None and header.get("task") != task:
        raise ValueError(f"{path} is not a {task} dataset")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line:
            try:
                out.append(parse(json.loads(line)))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: record without field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: invalid record: {exc}") from exc
    return header, out


def read_dataset(path) -> tuple[dict, list[TrainingExample]]:
    return _read_records(path, example_from_record)


def write_text_dataset(path, texts: Sequence[str], extra: Optional[dict] = None):
    """Plain text lines behind the same header scheme (token-level training data)."""
    vocab = sorted({w for t in texts for w in t.split()})
    header = {"record": "header", "task": "text", "languages": [], "vocab": vocab,
              "count": len(texts)}
    if extra:
        header.update(extra)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for t in texts:
            fh.write(_dumps({"record": "example", "kind": "text", "text": t}) + "\n")


def read_text_dataset(path) -> tuple[dict, list[str]]:
    return _read_records(path, lambda rec: rec["text"], task="text")
