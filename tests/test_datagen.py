"""Dataset construction: SFT conversion, quality filtering, language sampling,
cross-lingual pair generation, and synthetic corpus determinism."""

import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from embedkit.data import (CommandTranslator, ConstantScorer, LanguageDistribution,
                           MockTranslator, OverlapScorer, Pair, RawRecord, ScoredPair,
                           TRANSLATION_LANGUAGE_WEIGHTS, Triplet, build_classification,
                           build_sts, build_triplets, default_translation_languages,
                           generate_clr_dataset, make_clr_pair, pair_from_sft,
                           example_to_record, quality_filter, read_dataset, read_text_dataset,
                           sample_target_language, synth_corpus, write_dataset,
                           write_text_dataset)


class TestPairFromSft:
    def test_query_joins_instruction_and_input(self):
        p = pair_from_sft(RawRecord("Summarize:", "long text", "short text"))
        assert p.query == "Summarize:\nlong text"
        assert p.positive == "short text"

    def test_empty_instruction_uses_input_alone(self):
        p = pair_from_sft(RawRecord("", "just input", "out"))
        assert p.query == "just input"

    def test_empty_output_rejected(self):
        with pytest.raises(ValueError, match="output"):
            pair_from_sft(RawRecord("i", "x", ""))

    def test_source_carried_over(self):
        assert pair_from_sft(RawRecord("a", "b", "c", source="web")).source == "web"


class _FixedScorer:
    def __init__(self, table):
        self.table = table

    def score(self, query, passage):
        v = self.table[query]
        if v is None:
            raise RuntimeError("scorer backend unavailable")
        return v


class TestQualityFilter:
    def test_boundary_inclusive_at_threshold(self):
        pairs = [Pair("a", "x", source="s"), Pair("b", "y", source="s"), Pair("c", "z", source="t")]
        scorer = _FixedScorer({"a": 0.39, "b": 0.40, "c": 0.41})
        report = quality_filter(pairs, scorer, threshold=0.4)
        assert [p.query for p in report.kept] == ["b", "c"]
        assert report.dropped_by_source == {"s": 1}

    def test_constant_scorer_keeps_everything(self):
        pairs = [Pair(f"q{i}", "p") for i in range(5)]
        report = quality_filter(pairs, ConstantScorer(1.0))
        assert len(report.kept) == 5 and report.total_dropped == 0

    def test_scorer_failure_drops_and_counts(self):
        pairs = [Pair("a", "x", source="s"), Pair("b", "y", source="s")]
        report = quality_filter(pairs, _FixedScorer({"a": None, "b": 0.9}))
        assert [p.query for p in report.kept] == ["b"]
        assert report.failed_by_source == {"s": 1}

    def test_order_preserved(self):
        pairs = [Pair(f"q{i}", "p q r") for i in range(20)]
        report = quality_filter(pairs, OverlapScorer(), threshold=0.0)
        assert [p.query for p in report.kept] == [f"q{i}" for i in range(20)]

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            quality_filter([], ConstantScorer(), threshold=1.5)


class TestLanguageDistribution:
    def test_non_unit_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            LanguageDistribution(("a", "b"), (0.6, 0.6))

    def test_duplicate_codes_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            LanguageDistribution(("a", "a"), (0.5, 0.5))

    def test_from_weights_normalizes(self):
        d = LanguageDistribution.from_weights({"a": 3, "b": 1})
        assert d.proportions == (0.75, 0.25)

    def test_builtin_table_normalized(self):
        d = default_translation_languages()
        assert len(d.codes) == 26
        assert sum(d.proportions) == pytest.approx(1.0, abs=1e-12)

    def test_single_language_always_sampled(self):
        d = LanguageDistribution(("only",), (1.0,))
        rng = np.random.default_rng(0)
        assert all(sample_target_language(d, rng) == "only" for _ in range(50))

    def test_empirical_frequencies_match_proportions(self):
        # 5-sigma statistical band around each proportion at n = 1e5 draws
        d = LanguageDistribution.from_weights({"a": 5, "b": 3, "c": 2})
        rng = np.random.default_rng(7)
        n = 100_000
        draws = [sample_target_language(d, rng) for _ in range(n)]
        for code, p in zip(d.codes, d.proportions):
            freq = draws.count(code) / n
            band = 5 * np.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= band, f"{code}: {freq} vs {p} +- {band}"

    def test_builtin_english_frequency(self):
        # printed weight 25 over a table totalling 106
        d = default_translation_languages()
        p_en = dict(zip(d.codes, d.proportions))["en"]
        assert p_en == pytest.approx(25 / sum(TRANSLATION_LANGUAGE_WEIGHTS.values()), abs=1e-12)
        rng = np.random.default_rng(11)
        n = 1_000_000
        hits = sum(sample_target_language(d, rng) == "en" for _ in range(n))
        assert abs(hits / n - p_en) <= 0.002

    def test_from_file(self, tmp_path):
        f = tmp_path / "dist.yaml"
        f.write_text("en: 2\nzh: 2\n")
        d = LanguageDistribution.from_file(f)
        assert d.proportions == (0.5, 0.5)


class TestMockTranslator:
    def test_prefixes_language_tag(self):
        t = MockTranslator(["en", "de"])
        assert t.translate("what is X", "de") == "[de] what is X"

    def test_synthetic_words_substituted_reversibly(self):
        t = MockTranslator(["en", "de"])
        out = t.translate("t5 real t12", "de")
        assert out == "[de] t1005 real t1012"
        back = t.translate(out.split(" ", 1)[1], "en")
        assert back == "[en] t5 real t12"

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            MockTranslator(["en"]).translate("x", "xx")

    def test_command_translator_identity_via_cat(self):
        # target language lands in argv ($0 here); the script just echoes stdin
        out = CommandTranslator(["sh", "-c", "cat"]).translate("hello world", "de")
        assert out == "hello world"

    def test_command_translator_failure_raises(self):
        with pytest.raises(RuntimeError, match="failed"):
            CommandTranslator(["sh", "-c", "exit 3"]).translate("x", "de")


class TestMakeClrPair:
    def test_query_translated_passage_bytes_untouched(self):
        t = MockTranslator(["aa", "bb"])
        src = Pair("t1 t2", "t3 t4 payload", query_lang="aa", passage_lang="aa")
        out = make_clr_pair(src, t, "bb")
        assert out.query == "[bb] t1001 t1002"
        assert out.positive == src.positive       # byte-identical
        assert out.task == "clr" and out.query_lang == "bb"

    def test_same_language_target_unchanged_except_tag(self):
        t = MockTranslator(["aa"])
        src = Pair("t1", "t2", query_lang="aa", passage_lang="aa")
        out = make_clr_pair(src, t, "aa")
        assert out.query == "t1" and out.task == "clr"

    def test_triplet_negatives_preserved(self):
        t = MockTranslator(["aa", "bb"])
        src = Triplet("t1", "t2", ["t3", "t4"], query_lang="aa", passage_lang="aa")
        out = make_clr_pair(src, t, "bb")
        assert out.negatives == ["t3", "t4"]

    def test_missing_passage_lang_rejected(self):
        with pytest.raises(ValueError, match="language tag"):
            make_clr_pair(Pair("q", "p"), MockTranslator(["aa"]), "aa")

    def test_batch_conservation_with_failures(self):
        class Flaky:
            def __init__(self):
                self.n = 0

            def translate(self, text, target):
                self.n += 1
                if self.n % 3 == 0:
                    raise RuntimeError("backend down")
                return f"[{target}] {text}"

        pairs = [Pair(f"q{i}", "p", query_lang="aa", passage_lang="aa") for i in range(9)]
        dist = LanguageDistribution(("bb",), (1.0,))
        out, failures = generate_clr_dataset(pairs, Flaky(), dist, seed=0)
        assert len(out) + failures == 9
        assert failures == 3


class TestSynthCorpus:
    def test_pairs_share_cluster_identity(self):
        c = synth_corpus(4, 6, seed=0)
        for p in c.pairs:
            assert p.cluster is not None
            q_words = {w for w in p.query.split()}
            p_words = {w for w in p.positive.split()}
            assert q_words and p_words

    def test_two_languages_share_clusters(self):
        c = synth_corpus(3, 4, languages=("aa", "bb"), seed=1)
        by_lang = {lg: {s["cluster"] for s in c.sentences if s["lang"] == lg}
                   for lg in ("aa", "bb")}
        assert by_lang["aa"] == by_lang["bb"] == set(range(3))
        # surface forms differ between languages
        aa = next(s["text"] for s in c.sentences if s["lang"] == "aa" and s["cluster"] == 0)
        bb = next(s["text"] for s in c.sentences if s["lang"] == "bb" and s["cluster"] == 0)
        assert aa != bb

    def test_too_few_clusters_rejected(self):
        with pytest.raises(ValueError):
            synth_corpus(1, 4)

    def test_same_seed_same_bytes(self, tmp_path):
        for run in ("a", "b"):
            c = synth_corpus(4, 6, languages=("aa", "bb"), seed=9)
            write_dataset(tmp_path / f"{run}.jsonl", "pair", c.pairs, languages=c.languages)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_triplet_negatives_come_from_other_clusters(self):
        c = synth_corpus(4, 6, seed=2)
        cluster_texts = {}
        for s in c.sentences:
            cluster_texts.setdefault(s["cluster"], set()).add(s["text"])
        for t in build_triplets(c, pool_size=8, seed=3):
            own = cluster_texts[t.cluster]
            assert all(n not in own for n in t.negatives)

    def test_classification_records_use_label_words(self):
        c = synth_corpus(4, 4, seed=3)
        recs = build_classification(c, negatives=2)
        for r in recs:
            assert r.positive == f"lab{r.cluster}"
            assert r.positive not in r.negatives

    def test_sts_labels_follow_cluster_relations(self):
        c = synth_corpus(4, 4, seed=4)
        for r in build_sts(c, 50, seed=5):
            assert r.similarity in (0.0, 1.0, 2.0)


class TestDatasetFiles:
    def test_roundtrip(self, tmp_path):
        examples = [Pair("q", "p", cluster=1, uid="u1"),
                    Triplet("q", "p", ["n1", "n2"], uid="u2"),
                    ScoredPair("a", "b", 2.0, uid="u3")]
        path = tmp_path / "d.jsonl"
        write_dataset(path, "mixed", examples, languages=("aa",))
        header, back = read_dataset(path)
        assert header["task"] == "mixed"
        assert header["count"] == 3
        assert back == examples

    def test_record_equals_asdict_record(self):
        # the shallow field dict serializes exactly as dataclasses.asdict's deep copy
        examples = [Pair("q", "p", query_lang="aa", cluster=1, uid="u1", source="s"),
                    Triplet("q", "p", ["n1", "n2"], task="clr", cluster=None, uid="u2"),
                    ScoredPair("a", "b", 2.5, lang="bb", uid="u3")]
        for kind, e in zip(("pair", "triplet", "scored_pair"), examples):
            rec = example_to_record(e)
            want = {"record": "example", "kind": kind, **asdict(e)}
            assert rec == want
            assert json.dumps(rec) == json.dumps(want)

    def test_header_vocab_covers_all_text(self, tmp_path):
        examples = [Triplet("alpha beta", "gamma", ["delta epsilon"])]
        path = tmp_path / "d.jsonl"
        write_dataset(path, "retrieval", examples)
        header, _ = read_dataset(path)
        assert set(header["vocab"]) == {"alpha", "beta", "gamma", "delta", "epsilon"}

    def test_empty_text_dataset_rejected_naming_it(self, tmp_path):
        path = tmp_path / "lm.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match=f"dataset {re.escape(str(path))} is empty"):
            read_text_dataset(path)

    def test_text_record_without_text_names_its_line(self, tmp_path):
        path = tmp_path / "lm.jsonl"
        write_text_dataset(path, ["a b", "c"])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"record":"example","kind":"text"}\n')
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:4:"):
            read_text_dataset(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record":"example","kind":"pair","query":"q","positive":"p"}\n')
        with pytest.raises(ValueError, match="header"):
            read_dataset(path)
