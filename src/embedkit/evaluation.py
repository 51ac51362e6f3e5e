"""Exact retrieval, ranked-retrieval metrics, Spearman correlation, and the
per-language embedding-distribution report used to track cross-lingual drift."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass
class RetrievalRun:
    """Per-query ranked (doc_id, score) lists plus binary relevance judgments."""

    rankings: dict[str, list[tuple[str, float]]]
    judgments: dict[str, set[str]] = field(default_factory=dict)

    def __post_init__(self):
        for qid, ranked in self.rankings.items():
            for (a, sa), (b, sb) in zip(ranked, ranked[1:]):
                if sb > sa or (sb == sa and b < a):
                    raise ValueError(f"ranking for query {qid!r} violates (score desc, id asc) order")

    @classmethod
    def _ranked(cls, rankings: dict[str, list[tuple[str, float]]]) -> "RetrievalRun":
        """A run over rankings whose order ``top_k`` has already checked, without a second walk."""
        run = cls.__new__(cls)
        run.rankings, run.judgments = rankings, {}
        return run


_SEARCH_BLOCK = 256     # query rows ranked at once; bounds memory beyond the score matrix


def top_k(query_vecs: np.ndarray, corpus_vecs: np.ndarray, corpus_ids: Sequence[str],
          k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k by cosine over the whole corpus as two (n_queries, min(k, N)) arrays.

    ``rows[i]`` holds the corpus rows ranked for query ``i`` and ``scores[i]``
    their scores: score descending, ties broken by ascending doc id, then by
    corpus order.  The scores come from one GEMM over the whole corpus, so
    they do not depend on the block size.
    """
    q = np.asarray(query_vecs, dtype=np.float64)
    c = np.asarray(corpus_vecs, dtype=np.float64)
    for name, v in (("query", q), ("corpus", c)):
        norms = np.linalg.norm(v, axis=-1)
        if not (np.abs(norms - 1.0) <= 1e-6).all():
            raise ValueError(f"{name} embeddings must be L2-normalized")
    n = c.shape[0]
    if n == 0:
        raise ValueError("corpus is empty")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    k = min(k, n)
    scores = q @ c.T
    # a doc's place in ascending (id, corpus row) order: the whole tie rule in one key
    id_rank = np.empty(n, dtype=np.intp)
    id_rank[np.argsort(np.array(corpus_ids), kind="stable")] = np.arange(n)
    top_rows = np.empty((len(q), k), dtype=np.intp)
    for start in range(0, len(q), _SEARCH_BLOCK):
        block = scores[start:start + _SEARCH_BLOCK]
        b = len(block)
        # every score >= the k-th largest of its row: the top k plus ties at the cut
        kth = np.partition(block, n - k, axis=1)[:, n - k, None]
        # (a 2-D nonzero is several times slower than flatnonzero and divmod)
        hit_rows, hit_cols = np.divmod(np.flatnonzero(block >= kth), n)
        # candidates left-aligned in a (rows, widest) pad whose slack sorts last
        counts = np.bincount(hit_rows, minlength=b)
        slot = np.arange(hit_rows.size) - (np.cumsum(counts) - counts)[hit_rows]
        cand = np.zeros((b, counts.max()), dtype=np.intp)
        neg = np.full(cand.shape, np.inf)
        rank = np.full(cand.shape, n, dtype=np.intp)
        cand[hit_rows, slot] = hit_cols
        neg[hit_rows, slot] = -block[hit_rows, hit_cols]
        rank[hit_rows, slot] = id_rank[hit_cols]
        # lexsort keys: last key is primary
        order = np.lexsort((rank, neg), axis=-1)[:, :k]
        top_rows[start:start + b] = cand[np.arange(b)[:, None], order]
    top_scores = scores[np.arange(len(q))[:, None], top_rows]
    # RetrievalRun's order check, on the arrays
    ranks = id_rank[top_rows]
    prev, later = top_scores[:, :-1], top_scores[:, 1:]
    bad = (later > prev) | ((later == prev) & (ranks[:, 1:] < ranks[:, :-1]))
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        raise ValueError(f"ranking for query row {row} violates (score desc, id asc) order")
    return top_rows, top_scores


def exact_search(query_vecs: np.ndarray, query_ids: Sequence[str],
                 corpus_vecs: np.ndarray, corpus_ids: Sequence[str], k: int) -> RetrievalRun:
    """``top_k`` as a ``RetrievalRun``: per query id, the ranked (doc id, score) pairs."""
    rows, scores = top_k(query_vecs, corpus_vecs, corpus_ids, k)
    top_ids = np.array(corpus_ids)[rows].tolist()
    return RetrievalRun._ranked({qid: list(zip(row_ids, row_scores)) for qid, row_ids, row_scores
                                 in zip(query_ids, top_ids, scores.tolist())})


def _queries_with_judgments(run: RetrievalRun) -> list[str]:
    import logging
    usable = []
    for qid in run.rankings:
        if run.judgments.get(qid):
            usable.append(qid)
        else:
            logging.getLogger(__name__).warning("query %r has no relevance judgments; excluded", qid)
    if not usable:
        raise ValueError("no query has relevance judgments")
    return usable


# binary gain at 1-based rank r is 1 / log2(r + 1); the ideal DCG of m relevant
# docs is the sum of the first m gains, added in rank order
_GAINS = [1.0 / math.log2(rank + 1) for rank in range(1, 11)]
_IDEAL = np.array(list(itertools.accumulate(_GAINS, initial=0.0)))


def check_cutoffs(ks: Sequence[int]):
    """Refuse a recall cut-off below 1."""
    for k in ks:
        if k < 1:
            raise ValueError(f"recall cut-off k must be at least 1, got {k}")


def retrieval_metrics(hits: np.ndarray, first_hits: np.ndarray, n_relevant: np.ndarray,
                      ks: Sequence[int]) -> dict[str, float]:
    """recall@k for each k in ``ks``, then nDCG@10, each a mean over queries.

    ``hits[i, r]`` is true when the doc at 0-based rank ``r`` of query ``i``
    is relevant, and ``first_hits[i, r]`` when it is also that id's first
    occurrence in the ranking; ``n_relevant[i]`` counts the query's distinct
    relevant ids.  Recall counts distinct relevant ids in the top k; nDCG
    credits every relevant occurrence in the top 10, its gains summed in rank
    order.
    """
    check_cutoffs(ks)
    metrics = {f"recall@{k}": float(np.mean(first_hits[:, :k].sum(axis=1) / n_relevant))
               for k in ks}
    dcg = np.zeros(hits.shape[0])
    for rank, gain in enumerate(_GAINS[:hits.shape[1]]):
        dcg += hits[:, rank] * gain
    ideal = _IDEAL[np.minimum(n_relevant, 10)]
    metrics["ndcg@10"] = float(np.mean(dcg / ideal))
    return metrics


def _run_hits(run: RetrievalRun, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``retrieval_metrics``' inputs for the judged queries of ``run``, to rank ``depth``."""
    qids = _queries_with_judgments(run)
    hits = np.zeros((len(qids), depth), dtype=bool)
    first_hits = np.zeros_like(hits)
    for i, qid in enumerate(qids):
        rel, seen = run.judgments[qid], set()
        for rank, (doc, _) in enumerate(run.rankings[qid][:depth]):
            if doc in rel:
                hits[i, rank] = True
                first_hits[i, rank] = doc not in seen
                seen.add(doc)
    return hits, first_hits, np.array([len(run.judgments[qid]) for qid in qids])


def recall_at_k(run: RetrievalRun, k: int) -> float:
    """Mean over queries of |relevant among top-k| / |relevant|."""
    # depth clipped at 0 so that retrieval_metrics, not numpy, refuses a k below 1
    return retrieval_metrics(*_run_hits(run, max(k, 0)), ks=(k,))[f"recall@{k}"]


def ndcg_at_10(run: RetrievalRun) -> float:
    """Binary-gain nDCG over the top 10 ranks."""
    return retrieval_metrics(*_run_hits(run, 10), ks=())["ndcg@10"]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0   # average rank, 1-based
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of average ranks; nan when either input is constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError(f"need two equal-length vectors of >= 2 scores, got {x.shape} / {y.shape}")
    rx, ry = _average_ranks(x), _average_ranks(y)
    dx, dy = rx - rx.mean(), ry - ry.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        return math.nan
    return float(dx @ dy / denom)


@dataclass
class DistributionReport:
    languages: tuple[str, ...]
    centroids: dict[str, np.ndarray]
    pairwise_distances: dict[tuple[str, str], float]
    mean_centroid_distance: float
    projection: np.ndarray            # (n_points, 2) PCA coordinates
    projection_tags: list[str]


def _pca_2d(points: np.ndarray) -> np.ndarray:
    centered = points - points.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(1, points.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    comps = eigvecs[:, np.argsort(eigvals)[::-1][:2]]
    # deterministic sign: largest-|entry| coordinate made positive
    for c in range(comps.shape[1]):
        lead = np.argmax(np.abs(comps[:, c]))
        if comps[lead, c] < 0:
            comps[:, c] = -comps[:, c]
    return centered @ comps


def centroid_analysis(embeddings: np.ndarray, tags: Sequence[str]) -> DistributionReport:
    """Per-language centroids of unit-norm embeddings plus a 2-D PCA projection."""
    x = np.asarray(embeddings, dtype=np.float64)
    tags = [str(t) for t in tags]
    if x.ndim != 2 or len(tags) != x.shape[0]:
        raise ValueError("embeddings must be (n, d) with one language tag per row")
    langs = tuple(sorted(set(tags)))
    if len(langs) < 2:
        raise ValueError("centroid analysis needs at least two languages")
    counts = {lg: tags.count(lg) for lg in langs}
    thin = [lg for lg, c in counts.items() if c < 2]
    if thin:
        raise ValueError(f"need at least 2 embeddings per language; too few for {thin}")
    centroids = {lg: x[[i for i, t in enumerate(tags) if t == lg]].mean(axis=0) for lg in langs}
    dists = {}
    for i, a in enumerate(langs):
        for b in langs[i + 1:]:
            dists[(a, b)] = float(np.linalg.norm(centroids[a] - centroids[b]))
    return DistributionReport(
        languages=langs,
        centroids=centroids,
        pairwise_distances=dists,
        mean_centroid_distance=float(np.mean(list(dists.values()))),
        projection=_pca_2d(x),
        projection_tags=tags,
    )


def metric_records(values: dict[str, float], split: str) -> list[dict]:
    """Line-delimited record payloads: one {metric, split, value} per metric."""
    return [{"metric": k, "split": split, "value": v} for k, v in sorted(values.items())]


def projection_table(report: DistributionReport) -> str:
    """Plain numeric table (x, y, tag per line) of the 2-D projection for plotting."""
    lines = ["x\ty\tlanguage"]
    for (x, y), tag in zip(report.projection, report.projection_tags):
        lines.append(f"{float(x)!r}\t{float(y)!r}\t{tag}")
    return "\n".join(lines) + "\n"
