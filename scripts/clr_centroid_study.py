#!/usr/bin/env python3
"""Cross-lingual alignment study: train on translated-query pairs and measure
how far the per-language embedding centroids move together.

Writes projection tables (before/after) for plotting and prints the
centroid distances.
"""

import argparse
from pathlib import Path

from embedkit.data import (LanguageDistribution, MockTranslator, build_triplets,
                           generate_clr_dataset, synth_corpus, write_dataset,
                           write_text_dataset)
from embedkit.encoder import EncoderConfig
from embedkit.evaluation import centroid_analysis, projection_table
from embedkit.pipeline import RunManifest, StageConfig, Trainer, embed_texts, load_encoder


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/clr-study")
    ap.add_argument("--clusters", type=int, default=16)
    ap.add_argument("--pretrain-steps", type=int, default=400)
    ap.add_argument("--finetune-steps", type=int, default=300)
    ap.add_argument("--seed", type=int, default=9)
    args = ap.parse_args()

    out = Path(args.out)
    langs = ("aa", "bb")
    try:
        corpus = synth_corpus(args.clusters, 8, languages=langs, seed=args.seed)
    except ValueError as exc:
        ap.error(str(exc))
    write_text_dataset(out / "lm.jsonl", [s["text"] for s in corpus.sentences])
    dist = LanguageDistribution.from_weights({lg: 1 for lg in langs})
    clr, _ = generate_clr_dataset(build_triplets(corpus, pool_size=16, seed=args.seed + 1),
                                  MockTranslator(langs), dist, seed=args.seed + 2)
    write_dataset(out / "clr.jsonl", "clr", clr, languages=langs)

    cfg = EncoderConfig()
    base = RunManifest(
        encoder=cfg,
        stages=[StageConfig(kind="lm-pretrain", steps=args.pretrain_steps,
                            batch_size=16, lr=2e-3)],
        data={"lm-pretrain": str(out / "lm.jsonl")},
        output_dir=str(out / "base"), seed=args.seed)
    base_ckpt = Trainer(base).run()

    texts = [s["text"] for s in corpus.sentences]
    tags = [s["lang"] for s in corpus.sentences]

    def snapshot(ckpt, name):
        enc, tok, _ = load_encoder(ckpt)
        report = centroid_analysis(embed_texts(enc, tok, texts), tags)
        (out / f"projection-{name}.tsv").write_text(projection_table(report))
        print(f"{name}: mean centroid distance {report.mean_centroid_distance:.4f}")
        return report.mean_centroid_distance

    pre = snapshot(base_ckpt, "before")
    finetune = RunManifest(
        encoder=cfg,
        stages=[StageConfig(kind="supervised", steps=args.finetune_steps, lr=1e-3,
                            triplet_batch_size=4, negatives_per_query=4)],
        data={"supervised": {"clr": str(out / "clr.jsonl")}},
        output_dir=str(out / "finetune"), seed=args.seed)
    post = snapshot(Trainer(finetune).run(init_from=str(base_ckpt)), "after")
    print(f"contraction: {(1 - post / pre) * 100:.1f}%")


if __name__ == "__main__":
    main()
