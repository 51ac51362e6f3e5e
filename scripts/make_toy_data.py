#!/usr/bin/env python3
"""Generate the synthetic desk-scale datasets and a ready-to-run manifest.

Writes token-level text, SFT pairs (quality-filtered), weakly-supervised
pairs, and the four supervised task files (retrieval / clr /
classification / sts) plus a held-out retrieval split, then a
manifest.yaml wired to them.
"""

import argparse
from pathlib import Path

from embedkit.data import (LanguageDistribution, MockTranslator, OverlapScorer,
                           build_classification, build_sft_records, build_sts,
                           build_triplets, generate_clr_dataset, pair_from_sft,
                           quality_filter, synth_corpus, write_dataset, write_text_dataset)
from embedkit.pipeline import default_toy_manifest


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/toy-data")
    ap.add_argument("--clusters", type=int, default=16)
    ap.add_argument("--per-cluster", type=int, default=8)
    ap.add_argument("--languages", default="aa,bb")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out)
    langs = tuple(args.languages.split(","))
    try:
        corpus = synth_corpus(args.clusters, args.per_cluster, languages=langs, seed=args.seed)
    except ValueError as exc:
        ap.error(str(exc))
    held = [p for p in corpus.pairs if p.uid.endswith("-p0")]
    train = [p for p in corpus.pairs if not p.uid.endswith("-p0")]
    train_corpus = corpus.__class__(languages=corpus.languages, n_clusters=corpus.n_clusters,
                                    sentences=corpus.sentences, pairs=train,
                                    label_words=corpus.label_words)

    write_text_dataset(out / "lm.jsonl", [s["text"] for s in corpus.sentences])
    sft_pairs = [pair_from_sft(r) for r in build_sft_records(corpus)]
    report = quality_filter(sft_pairs, OverlapScorer(), threshold=0.2)
    write_dataset(out / "sft.jsonl", "pair", report.kept)
    write_dataset(out / "pairs.jsonl", "pair", train, languages=langs)
    write_dataset(out / "retrieval.jsonl", "retrieval",
                  build_triplets(train_corpus, lang=langs[0], pool_size=16, seed=args.seed + 1),
                  languages=langs[:1])
    dist = LanguageDistribution.from_weights({lg: 1 for lg in langs})
    clr, failures = generate_clr_dataset(
        build_triplets(train_corpus, lang=langs[0], pool_size=16, seed=args.seed + 2),
        MockTranslator(langs), dist, seed=args.seed + 3)
    write_dataset(out / "clr.jsonl", "clr", clr, languages=langs)
    write_dataset(out / "cls.jsonl", "classification",
                  build_classification(corpus, lang=langs[0]), languages=langs[:1])
    write_dataset(out / "sts.jsonl", "sts",
                  build_sts(corpus, 200, lang=langs[0], seed=args.seed + 4), languages=langs[:1])
    write_dataset(out / "heldout.jsonl", "pair", held, languages=langs)

    data = {"lm-pretrain": "lm.jsonl", "pair-sft": "sft.jsonl",
            "weak-contrastive": "pairs.jsonl",
            "supervised": {"retrieval": "retrieval.jsonl", "clr": "clr.jsonl",
                           "classification": "cls.jsonl", "sts": "sts.jsonl"}}
    manifest = default_toy_manifest(data, output_dir="run", seed=args.seed)
    manifest.to_yaml(out / "manifest.yaml")
    print(f"wrote datasets + manifest under {out}/ "
          f"(sft kept {len(report.kept)}, dropped {report.total_dropped}; "
          f"clr failures {failures})")


if __name__ == "__main__":
    main()
