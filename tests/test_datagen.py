"""Dataset construction: SFT conversion, quality filtering, language sampling,
cross-lingual pair generation, and synthetic corpus determinism."""

import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from embedkit.data import (CommandTranslator, LanguageDistribution,
                           MockTranslator, OverlapScorer, RawRecord, ScoredPair,
                           TRANSLATION_LANGUAGE_WEIGHTS, Triplet, build_classification,
                           build_sts, build_triplets, default_translation_languages,
                           generate_clr_dataset, make_clr_pair, pair_from_sft,
                           example_to_record, quality_filter, read_dataset, read_header,
                           read_text_dataset, sample_target_language, synth_corpus,
                           write_dataset, write_text_dataset)


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


class _ConstantScorer:
    def __init__(self, value: float = 1.0):
        self.value = value

    def score(self, query, passage):
        return self.value


class TestQualityFilter:
    def test_boundary_inclusive_at_threshold(self):
        pairs = [Triplet("a", "x", source="s"), Triplet("b", "y", source="s"), Triplet("c", "z", source="t")]
        scorer = _FixedScorer({"a": 0.39, "b": 0.40, "c": 0.41})
        report = quality_filter(pairs, scorer, threshold=0.4)
        assert [p.query for p in report.kept] == ["b", "c"]
        assert report.dropped_by_source == {"s": 1}

    def test_constant_scorer_keeps_everything(self):
        pairs = [Triplet(f"q{i}", "p") for i in range(5)]
        report = quality_filter(pairs, _ConstantScorer(1.0))
        assert len(report.kept) == 5 and report.total_dropped == 0

    def test_scorer_failure_drops_and_counts(self):
        pairs = [Triplet("a", "x", source="s"), Triplet("b", "y", source="s")]
        report = quality_filter(pairs, _FixedScorer({"a": None, "b": 0.9}))
        assert [p.query for p in report.kept] == ["b"]
        assert report.failed_by_source == {"s": 1}

    def test_order_preserved(self):
        pairs = [Triplet(f"q{i}", "p q r") for i in range(20)]
        report = quality_filter(pairs, OverlapScorer(), threshold=0.0)
        assert [p.query for p in report.kept] == [f"q{i}" for i in range(20)]

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            quality_filter([], _ConstantScorer(), threshold=1.5)


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

    def test_nan_proportions_rejected(self):
        # NaN proportions summed to NaN, which passed the sum check
        with pytest.raises(ValueError, match="non-negative"):
            LanguageDistribution(("a", "b"), (float("nan"), float("nan")))

    def test_from_file(self, tmp_path):
        f = tmp_path / "dist.yaml"
        f.write_text("en: 2\nzh: 2\n")
        d = LanguageDistribution.from_file(f)
        assert d.proportions == (0.5, 0.5)

    @pytest.mark.parametrize("text,code", [("aa: .nan\nbb: 1\n", "aa"), ("aa: .inf\nbb: 1\n", "aa"),
                                           ("aa: 1\nbb: -.inf\n", "bb")],
                             ids=["nan", "inf", "minus-inf"])
    def test_non_finite_weight_refused_naming_its_code(self, tmp_path, text, code):
        # a NaN or infinite weight made every proportion NaN (or 0), so every draw was the last code
        f = tmp_path / "dist.yaml"
        f.write_text(text)
        with pytest.raises(ValueError, match=f"{re.escape(str(f))}: language '{code}' has weight "
                                             r".*, not a finite number"):
            LanguageDistribution.from_file(f)


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

    def test_command_translator_that_cannot_start_refused_when_made(self):
        with pytest.raises(FileNotFoundError, match="'no-such-translator' not found"):
            CommandTranslator(["no-such-translator", "--to"])
        with pytest.raises(ValueError, match="empty translator command"):
            CommandTranslator([])

    def test_command_translator_failure_raises(self):
        with pytest.raises(RuntimeError, match="failed"):
            CommandTranslator(["sh", "-c", "exit 3"]).translate("x", "de")


class TestMakeClrPair:
    def test_query_translated_passage_bytes_untouched(self):
        t = MockTranslator(["aa", "bb"])
        src = Triplet("t1 t2", "t3 t4 payload", query_lang="aa", passage_lang="aa")
        out = make_clr_pair(src, t, "bb")
        assert out.query == "[bb] t1001 t1002"
        assert out.positive == src.positive       # byte-identical
        assert out.query_lang == "bb"

    def test_same_language_target_unchanged_except_tag(self):
        t = MockTranslator(["aa"])
        src = Triplet("t1", "t2", query_lang="aa", passage_lang="aa")
        out = make_clr_pair(src, t, "aa")
        assert out.query == "t1"

    def test_triplet_negatives_preserved(self):
        t = MockTranslator(["aa", "bb"])
        src = Triplet("t1", "t2", ["t3", "t4"], query_lang="aa", passage_lang="aa")
        out = make_clr_pair(src, t, "bb")
        assert out.negatives == ["t3", "t4"]

    def test_missing_passage_lang_rejected(self):
        with pytest.raises(ValueError, match="language tag"):
            make_clr_pair(Triplet("q", "p"), MockTranslator(["aa"]), "aa")

    def test_batch_conservation_with_failures(self):
        class Flaky:
            def __init__(self):
                self.n = 0

            def translate(self, text, target):
                self.n += 1
                if self.n % 3 == 0:
                    raise RuntimeError("backend down")
                return f"[{target}] {text}"

        pairs = [Triplet(f"q{i}", "p", query_lang="aa", passage_lang="aa") for i in range(9)]
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

    @pytest.mark.parametrize("clusters,words", [(333, 1003), (400, 1204)])
    def test_corpus_past_one_language_block_refused(self, clusters, words):
        # its words reached into the next language's block: 400 clusters shared 202 words
        # between "aa" and "bb", and the mock translator mapped cluster 350 onto itself
        with pytest.raises(ValueError, match=f"make {words} words, more than the 1000 of one "
                                             "language block"):
            synth_corpus(clusters, 2, languages=("aa", "bb"))

    def test_largest_corpus_keeps_languages_apart_and_translates_into_them(self):
        # 332 clusters of 3 words and 4 shared words fill the block exactly
        c = synth_corpus(332, 2, languages=("aa", "bb"), seed=5)
        words = {lg: {w for s in c.sentences if s["lang"] == lg for w in s["text"].split()}
                 for lg in ("aa", "bb")}
        assert max(int(w[1:]) for w in words["aa"]) < 1000
        assert not words["aa"] & words["bb"]
        t = MockTranslator(c.languages)
        aa = [s["text"] for s in c.sentences if s["lang"] == "aa"]
        bb = [s["text"] for s in c.sentences if s["lang"] == "bb"]
        assert [t.translate(text, "bb") for text in aa] == [f"[bb] {text}" for text in bb]
        assert all(OverlapScorer().score(a, b) == 1.0 for a, b in zip(aa, bb))

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
        examples = [Triplet("q", "p", cluster=1, uid="u1"),
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
        examples = [Triplet("q", "p", query_lang="aa", cluster=1, uid="u1", source="s"),
                    Triplet("q", "p", ["n1", "n2"], cluster=None, uid="u2"),
                    ScoredPair("a", "b", 2.5, lang="bb", uid="u3")]
        for kind, e in zip(("triplet", "triplet", "scored_pair"), examples):
            rec = example_to_record(e)
            want = {"record": "example", "kind": kind, **asdict(e)}
            assert rec == want
            assert json.dumps(rec) == json.dumps(want)

    def test_record_of_the_format_before_triplets_refused_at_its_line(self, tmp_path):
        # before pairs became triplets, a record had kind "pair" and a "task"; make_toy_data.py
        # writes such data anew
        path = tmp_path / "old.jsonl"
        for record, what in [
                ('{"record":"example","kind":"pair","query":"a","positive":"b"}',
                 "unknown example kind 'pair'"),
                ('{"record":"example","kind":"triplet","query":"a","positive":"b","task":"clr"}',
                 "'task'")]:
            path.write_text('{"record":"header","task":"pair","languages":[],"vocab":["a","b"]}\n'
                            '{"record":"example","kind":"triplet","query":"a","positive":"b"}\n'
                            + record + "\n")
            with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: invalid record: .*{what}"):
                read_dataset(path, Triplet)

    def test_pair_written_as_triplet_without_negatives(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset(path, "pair", [Triplet("q", "p")])
        record = json.loads(path.read_text().splitlines()[1])
        assert record["kind"] == "triplet" and record["negatives"] == [] and "task" not in record

    @pytest.mark.parametrize("kind", [Triplet, ScoredPair])
    def test_record_of_the_other_kind_refused_at_its_line(self, tmp_path, kind):
        path = tmp_path / "d.jsonl"
        write_dataset(path, "mixed", [Triplet("q", "p"), Triplet("q", "p", ["n"]),
                                      ScoredPair("a", "b", 1.0)])
        found, line = ("scored_pair", 4) if kind is Triplet else ("triplet", 2)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:{line}: .*a {found} record"):
            read_dataset(path, kind)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", '"2"', "true", "null"],
                             ids=["nan", "inf", "minus-inf", "string", "bool", "null"])
    def test_similarity_not_a_finite_real_refused_at_its_line(self, tmp_path, value):
        # CoSENT dropped a NaN label's comparisons and read "2" as 2.0
        path = tmp_path / "sts.jsonl"
        write_dataset(path, "sts", [ScoredPair("a", "b", 1.0), ScoredPair("a", "b", 2)])
        lines = path.read_text().splitlines()
        assert '"similarity":2,' in lines[2]
        lines[2] = lines[2].replace('"similarity":2,', f'"similarity":{value},')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: .*similarity must be a "
                                             "finite real number"):
            read_dataset(path, ScoredPair)

    def test_text_with_a_unicode_line_separator_reads_back(self, tmp_path):
        # records are split at their newline bytes only: U+2028 and U+0085, which the JSON
        # writer leaves unescaped, split a record when the file was read as text lines
        examples = [Triplet("a\u2028b", "c\x85d", uid="u0"), Triplet("e", "f", uid="u1")]
        path = tmp_path / "d.jsonl"
        write_dataset(path, "pair", examples)
        assert read_dataset(path, Triplet)[1] == examples
        write_text_dataset(path, ["a\u2029b", "c"])
        assert read_text_dataset(path)[1] == ["a\u2029b", "c"]

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

    @pytest.mark.parametrize("read", [read_header, read_dataset], ids=["header", "dataset"])
    def test_blank_first_line_refused_at_line_1(self, tmp_path, read):
        # a header line cut to nothing was reported as an empty file
        path = tmp_path / "d.jsonl"
        write_dataset(path, "pair", [Triplet("a", "b")])
        path.write_text("\n" + path.read_text().split("\n", 1)[1])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: invalid header"):
            read(path)

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
