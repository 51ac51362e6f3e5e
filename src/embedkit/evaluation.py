"""Exact retrieval, ranked-retrieval metrics, Spearman correlation, and the
per-language embedding-distribution report used to track cross-lingual drift."""

from __future__ import annotations

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


_SEARCH_BLOCK = 256     # query rows ranked at once; bounds memory beyond the score matrix


def exact_search(query_vecs: np.ndarray, query_ids: Sequence[str],
                 corpus_vecs: np.ndarray, corpus_ids: Sequence[str], k: int) -> RetrievalRun:
    """Top-k by cosine over the whole corpus; ties break by ascending doc id, then corpus order."""
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
    ids = np.array(corpus_ids)
    id_rank = np.empty(n, dtype=np.intp)
    id_rank[np.argsort(ids, kind="stable")] = np.arange(n)
    query_ids = list(query_ids)
    rankings = {}
    for start in range(0, scores.shape[0], _SEARCH_BLOCK):
        block = scores[start:start + _SEARCH_BLOCK]
        # every score >= the k-th largest of its row: the top k plus ties at the cut
        kth = np.partition(block, n - k, axis=1)[:, n - k, None]
        rows, cols = np.nonzero(block >= kth)
        vals = block[rows, cols]
        # lexsort keys: last key is primary
        order = np.lexsort((id_rank[cols], -vals, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = np.searchsorted(rows, rows)             # each row's first position
        keep = np.arange(rows.size) - first < k
        top_ids = ids[cols[keep]].reshape(-1, k).tolist()
        top_vals = vals[keep].reshape(-1, k).tolist()
        for qid, row_ids, row_vals in zip(query_ids[start:start + _SEARCH_BLOCK], top_ids, top_vals):
            rankings[qid] = list(zip(row_ids, row_vals))
    return RetrievalRun(rankings=rankings)


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


def recall_at_k(run: RetrievalRun, k: int) -> float:
    """Mean over queries of |relevant among top-k| / |relevant|."""
    vals = []
    for qid in _queries_with_judgments(run):
        rel = run.judgments[qid]
        top = {doc for doc, _ in run.rankings[qid][:k]}
        vals.append(len(rel & top) / len(rel))
    return float(np.mean(vals))


def ndcg_at_10(run: RetrievalRun) -> float:
    """Binary-gain nDCG over the top 10 ranks."""
    vals = []
    for qid in _queries_with_judgments(run):
        rel = run.judgments[qid]
        dcg = sum(1.0 / math.log2(rank + 1)
                  for rank, (doc, _) in enumerate(run.rankings[qid][:10], start=1)
                  if doc in rel)
        ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(rel), 10) + 1))
        vals.append(dcg / ideal)
    return float(np.mean(vals))


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
