"""Metric hand values, quadratic-time oracle equivalence, monotone-transform
invariance, and the distribution report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedkit.evaluation import (RetrievalRun, centroid_analysis, exact_search,
                                 metric_records, ndcg_at_10, recall_at_k, spearman, top_k)


def _run(ranked_ids, relevant):
    """One-query run with descending integer scores."""
    rankings = {"q": [(d, float(len(ranked_ids) - i)) for i, d in enumerate(ranked_ids)]}
    return RetrievalRun(rankings=rankings, judgments={"q": set(relevant)})


class TestRecall:
    def test_hit_at_rank_1(self):
        assert recall_at_k(_run([f"d{i}" for i in range(25)], ["d0"]), 20) == 1.0

    def test_miss_at_rank_21(self):
        ids = [f"d{i}" for i in range(25)]
        assert recall_at_k(_run(ids, ["d20"]), 20) == 0.0

    def test_half_recall(self):
        ids = [f"d{i:02d}" for i in range(40)]
        assert recall_at_k(_run(ids, ["d02", "d29"]), 20) == 0.5

    def test_query_without_judgments_excluded(self):
        run = RetrievalRun(rankings={"q1": [("d0", 1.0)], "q2": [("d0", 1.0)]},
                           judgments={"q1": {"d0"}})
        assert recall_at_k(run, 1) == 1.0

    def test_all_queries_unjudged_rejected(self):
        run = RetrievalRun(rankings={"q1": [("d0", 1.0)]}, judgments={})
        with pytest.raises(ValueError):
            recall_at_k(run, 1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_cut_off_below_1_rejected(self, k):
        with pytest.raises(ValueError, match=f"^recall cut-off k must be at least 1, got {k}$"):
            recall_at_k(_run(["d0", "d1"], ["d0"]), k)

    def test_duplicate_id_counted_once(self):
        run = _run(["a", "a", "b", "c"], ["a", "b"])
        assert recall_at_k(run, 2) == 0.5
        assert recall_at_k(run, 3) == 1.0


class TestNdcg:
    def test_relevant_at_rank_1(self):
        assert ndcg_at_10(_run([f"d{i}" for i in range(12)], ["d0"])) == 1.0

    def test_relevant_at_rank_11_is_zero(self):
        ids = [f"d{i:02d}" for i in range(12)]
        assert ndcg_at_10(_run(ids, ["d10"])) == 0.0

    def test_relevant_at_rank_2(self):
        ids = [f"d{i}" for i in range(12)]
        assert ndcg_at_10(_run(ids, ["d1"])) == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)

    def test_perfect_iff_relevant_fill_top_ranks(self):
        ids = [f"d{i:02d}" for i in range(15)]
        assert ndcg_at_10(_run(ids, ["d00", "d01", "d02"])) == 1.0
        assert ndcg_at_10(_run(ids, ["d00", "d01", "d03"])) < 1.0

    def test_every_occurrence_of_a_relevant_id_gains(self):
        gain = {rank: 1.0 / math.log2(rank + 1) for rank in (1, 2, 4)}
        run = _run(["a", "a", "c", "b"], ["a", "b"])
        assert ndcg_at_10(run) == (gain[1] + gain[2] + gain[4]) / (gain[1] + gain[2])


class TestSpearman:
    def test_identical_orderings(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed_orderings(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_hand_case_point_eight(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_constant_input_returns_nan(self):
        assert math.isnan(spearman([1, 1, 1], [1, 2, 3]))

    def test_tie_handling_average_ranks(self):
        # ties share the average of the ranks they span
        assert spearman([1, 1, 2], [1, 1, 2]) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=3, max_size=12, unique=True),
           st.lists(st.integers(-50, 50), min_size=3, max_size=12, unique=True))
    def test_monotone_transform_invariance(self, x, y):
        n = min(len(x), len(y))
        x, y = np.array(x[:n], dtype=float), np.array(y[:n], dtype=float)
        base = spearman(x, y)
        assert spearman(np.exp(x / 50.0), y) == pytest.approx(base, abs=1e-9)
        assert spearman(x, 3.0 * y + 7.0) == pytest.approx(base, abs=1e-9)


class TestExactSearch:
    def test_exact_match_ranks_first(self):
        corpus = np.eye(4)
        run = exact_search(corpus[[2]], ["q"], corpus, ["d0", "d1", "d2", "d3"], k=4)
        doc, score = run.rankings["q"][0]
        assert doc == "d2" and score == 1.0

    def test_orthogonal_corpus_ties_break_by_id(self):
        q = np.array([[1.0, 0.0, 0.0]])
        corpus = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        run = exact_search(q, ["q"], corpus, ["b", "a"], k=2)
        assert [d for d, _ in run.rankings["q"]] == ["a", "b"]

    def test_k_clamped_to_corpus_size(self):
        corpus = np.eye(3)
        run = exact_search(corpus[[0]], ["q"], corpus, ["d0", "d1", "d2"], k=10)
        assert len(run.rankings["q"]) == 3

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            exact_search(np.array([[2.0, 0.0]]), ["q"], np.eye(2), ["a", "b"], k=1)

    @pytest.mark.parametrize("side", ["query", "corpus"])
    def test_nan_embeddings_rejected(self, side):
        nan = np.array([[np.nan, 0.0]])
        q, c = (nan, np.eye(2)) if side == "query" else (np.eye(2)[:1], np.vstack([nan, [[0.0, 1.0]]]))
        with pytest.raises(ValueError, match=f"{side} embeddings must be L2-normalized"):
            exact_search(q, ["q"], c, ["a", "b"], k=1)

    def test_empty_corpus_and_nonpositive_k_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            exact_search(np.eye(2)[:1], ["q"], np.zeros((0, 2)), [], k=1)
        with pytest.raises(ValueError, match="k must be positive"):
            exact_search(np.eye(2)[:1], ["q"], np.eye(2), ["a", "b"], k=0)


def _per_query_lexsort(qv, cv, cids, k):
    """The one-lexsort-per-query ranking that the blocked top-k pass replaced:
    (n_queries, min(k, N)) corpus rows and their scores."""
    scores = qv @ cv.T
    order_ids = np.array(cids)
    k = min(k, cv.shape[0])
    rows = np.array([np.lexsort((order_ids, -row))[:k] for row in scores]).reshape(-1, k)
    return rows, np.take_along_axis(scores, rows, axis=1)


def _quantized_unit(rng, n, d, levels):
    """Unit rows from a few coordinate levels, so that many scores tie exactly."""
    v = rng.integers(-levels, levels + 1, size=(n, d)).astype(float)
    v[np.all(v == 0, axis=1), 0] = 1.0
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize("nq, nc, d, levels, k, dup_ids", [
    (300, 40, 3, 1, 5, False),       # query count not a multiple of the block; dense ties
    (513, 64, 4, 1, 20, True),       # duplicate corpus ids: ties fall back to corpus order
    (7, 9, 2, 1, 9, False),          # k == N
    (5, 6, 3, 2, 50, True),          # k > N
    (1, 30, 4, 2, 10, False),        # a single query
    (40, 1, 3, 1, 10, False),        # a single document
    (257, 200, 8, 3, 20, False),     # few ties
])
def test_exact_search_equals_per_query_lexsort(nq, nc, d, levels, k, dup_ids):
    rng = np.random.default_rng(nq * 1000 + nc)
    qv, cv = _quantized_unit(rng, nq, d, levels), _quantized_unit(rng, nc, d, levels)
    qids = [f"q{i}" for i in range(nq)]
    cids = [f"d{rng.integers(0, max(1, nc // 3))}" if dup_ids else f"d{i}" for i in range(nc)]
    want_rows, want_scores = _per_query_lexsort(qv, cv, cids, k)
    rows, scores = top_k(qv, cv, cids, k)
    # corpus rows, not just ids: among duplicate ids, ties fall back to corpus order
    np.testing.assert_array_equal(rows, want_rows)
    assert scores.tobytes() == want_scores.tobytes()
    run = exact_search(qv, qids, cv, cids, k)
    # == on ids and float scores: the same ranking, bit for bit
    assert run.rankings == {qid: [(cids[j], s) for j, s in zip(r, sc)]
                            for qid, r, sc in zip(qids, want_rows.tolist(), want_scores.tolist())}


# ---------------------------------------------------------------------------
# quadratic-time oracles
# ---------------------------------------------------------------------------

def oracle_search(qv, qids, cv, cids, k):
    out = {}
    for qi, qid in enumerate(qids):
        scored = []
        for ci, cid in enumerate(cids):
            s = float(sum(a * b for a, b in zip(qv[qi], cv[ci])))
            scored.append((cid, s))
        scored.sort(key=lambda t: (-t[1], t[0]))
        out[qid] = scored[:min(k, len(cids))]
    return out


def oracle_recall(rankings, judgments, k):
    vals = []
    for qid, rel in judgments.items():
        hits = sum(1 for d, _ in rankings[qid][:k] if d in rel)
        vals.append(hits / len(rel))
    return sum(vals) / len(vals)


def oracle_ndcg10(rankings, judgments):
    vals = []
    for qid, rel in judgments.items():
        dcg = 0.0
        for rank, (d, _) in enumerate(rankings[qid][:10], start=1):
            if d in rel:
                dcg += 1.0 / math.log2(rank + 1)
        ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(rel), 10) + 1))
        vals.append(dcg / ideal)
    return sum(vals) / len(vals)


def oracle_spearman(x, y):
    def ranks(v):
        return [1 + sum(1 for o in v if o < t) + (sum(1 for o in v if o == t) - 1) / 2.0
                for t in v]

    rx, ry = ranks(list(x)), ranks(list(y))
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return math.nan if den == 0 else num / den


@pytest.mark.parametrize("seed", range(100))
def test_metrics_match_quadratic_oracles(seed):
    rng = np.random.default_rng(seed)
    n_q, n_c, dim = 4, 12, 6
    qv = rng.normal(size=(n_q, dim))
    qv /= np.linalg.norm(qv, axis=-1, keepdims=True)
    cv = rng.normal(size=(n_c, dim))
    cv /= np.linalg.norm(cv, axis=-1, keepdims=True)
    qids = [f"q{i}" for i in range(n_q)]
    cids = [f"d{i:02d}" for i in range(n_c)]
    k = int(rng.integers(1, n_c + 2))

    run = exact_search(qv, qids, cv, cids, k=max(k, 10))
    want = oracle_search(qv.tolist(), qids, cv.tolist(), cids, max(k, 10))
    for qid in qids:
        assert [d for d, _ in run.rankings[qid]] == [d for d, _ in want[qid]]
        got_scores = np.array([s for _, s in run.rankings[qid]])
        want_scores = np.array([s for _, s in want[qid]])
        assert np.abs(got_scores - want_scores).max() <= 1e-12

    judgments = {qid: set(rng.choice(cids, size=rng.integers(1, 4), replace=False))
                 for qid in qids}
    run.judgments = judgments
    assert abs(recall_at_k(run, k) - oracle_recall(run.rankings, judgments, k)) <= 1e-12
    assert abs(ndcg_at_10(run) - oracle_ndcg10(run.rankings, judgments)) <= 1e-12

    x = rng.normal(size=8)
    y = np.round(rng.normal(size=8), 1)   # rounded to force occasional ties
    assert abs(spearman(x, y) - oracle_spearman(x, y)) <= 1e-12


def _per_query_metrics(run, k):
    """recall@k and nDCG@10 as per-query loops: the reference for the metric kernel's bits."""
    recall, ndcg = [], []
    for qid, ranked in run.rankings.items():
        rel = run.judgments.get(qid)
        if not rel:
            continue
        recall.append(len(rel & {doc for doc, _ in ranked[:k]}) / len(rel))
        dcg = ideal = 0.0
        for rank, (doc, _) in enumerate(ranked[:10], start=1):
            if doc in rel:
                dcg += 1.0 / math.log2(rank + 1)
        for rank in range(1, min(len(rel), 10) + 1):
            ideal += 1.0 / math.log2(rank + 1)
        ndcg.append(dcg / ideal)
    return float(np.mean(recall)), float(np.mean(ndcg))


@pytest.mark.parametrize("seed", range(20))
def test_metric_kernel_bitwise_equals_per_query_loops(seed):
    # duplicate ids in a ranking, several relevant ids, unjudged queries, and
    # query counts past numpy's pairwise-summation blocks
    rng = np.random.default_rng(seed)
    n_docs, depth = int(rng.integers(3, 30)), int(rng.integers(1, 25))
    docs = [f"d{i}" for i in range(n_docs)]
    rankings = {f"q{i}": [(docs[j], float(-r)) for r, j in enumerate(rng.integers(0, n_docs, depth))]
                for i in range(int(rng.integers(1, 400)))}
    judgments = {qid: set(rng.choice(docs, size=rng.integers(0, 13))) for qid in rankings}
    judgments["q0"].add("d0")
    run = RetrievalRun(rankings=rankings, judgments=judgments)
    k = int(rng.integers(1, depth + 4))
    assert (recall_at_k(run, k), ndcg_at_10(run)) == _per_query_metrics(run, k)


class TestCentroidAnalysis:
    def test_identical_sets_zero_distance(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]] * 2)
        tags = ["aa", "aa", "bb", "bb"]
        report = centroid_analysis(pts, tags)
        assert report.mean_centroid_distance == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_clusters_distance_sqrt2(self):
        pts = np.array([[1.0, 0.0, 0.0]] * 2 + [[0.0, 1.0, 0.0]] * 2)
        report = centroid_analysis(pts, ["aa", "aa", "bb", "bb"])
        assert report.mean_centroid_distance == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_single_language_rejected(self):
        with pytest.raises(ValueError, match="two languages"):
            centroid_analysis(np.eye(3), ["aa", "aa", "aa"])

    def test_too_few_per_language_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            centroid_analysis(np.eye(3), ["aa", "aa", "bb"])

    def test_pca_preserves_distances_for_planar_data(self):
        # points lying in a 2-d subspace of R^6: projection is an isometry
        rng = np.random.default_rng(5)
        basis = np.linalg.qr(rng.normal(size=(6, 2)))[0]
        coords = rng.normal(size=(10, 2))
        pts = coords @ basis.T
        report = centroid_analysis(pts, ["aa"] * 5 + ["bb"] * 5)
        orig = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        proj = np.linalg.norm(report.projection[:, None, :] - report.projection[None, :, :], axis=-1)
        np.testing.assert_allclose(proj, orig, atol=1e-9)

    def test_projection_deterministic(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(8, 5))
        tags = ["aa"] * 4 + ["bb"] * 4
        a = centroid_analysis(pts, tags).projection
        b = centroid_analysis(pts, tags).projection
        assert a.tobytes() == b.tobytes()


def test_metric_records_shape():
    recs = metric_records({"recall@1": 0.5, "ndcg@10": 0.7}, "dev")
    assert recs == [{"metric": "ndcg@10", "split": "dev", "value": 0.7},
                    {"metric": "recall@1", "split": "dev", "value": 0.5}]


def test_projection_table_plain_numeric():
    from embedkit.evaluation import projection_table
    pts = np.eye(4)
    report = centroid_analysis(pts, ["aa", "aa", "bb", "bb"])
    table = projection_table(report)
    lines = table.strip().splitlines()
    assert lines[0] == "x\ty\tlanguage"
    assert len(lines) == 5
    x, y, tag = lines[1].split("\t")
    float(x), float(y)
    assert tag == "aa"


@pytest.mark.parametrize("seed", range(10))
def test_rank_metrics_invariant_under_increasing_score_transform(seed):
    rng = np.random.default_rng(seed)
    cids = [f"d{i:02d}" for i in range(10)]
    scores = rng.uniform(-1, 1, 10)
    order = np.lexsort((cids, -scores))
    judgments = {"q": set(rng.choice(cids, 3, replace=False))}

    def run_from(s):
        return RetrievalRun(rankings={"q": [(cids[j], float(s[j])) for j in order]},
                            judgments=judgments)

    base = run_from(scores)
    transformed = run_from(np.exp(3.0 * scores))
    for k in (1, 3, 5):
        assert recall_at_k(base, k) == recall_at_k(transformed, k)
    assert ndcg_at_10(base) == ndcg_at_10(transformed)
