"""Command-line entry point.

Subcommands: train, gen-clr, eval, mask-demo, grad-check.  Machine-readable
output is line-delimited JSON on stdout; summaries go to stderr.  Exit codes:
0 success, 2 usage, 3 invalid config/data, 4 missing file, 5 runtime failure.

Environment override: EMBEDKIT_THREADS (BLAS/OpenMP thread count, read
before numpy loads).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_MISSING = 4
EXIT_RUNTIME = 5


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _apply_thread_env():
    threads = os.environ.get("EMBEDKIT_THREADS")
    if threads:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="embedkit",
                                     description="desk-scale embedding trainer")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="run a training manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the manifest seed")
    p.add_argument("--output-dir", default=None)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")

    p = sub.add_parser("gen-clr", help="generate cross-lingual retrieval pairs")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--distribution", default=None,
                   help="YAML language->weight file (builtin table when omitted)")
    p.add_argument("--backend", choices=("mock", "command"), default="mock")
    p.add_argument("--command", default=None, help="translator command for --backend command")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="score a checkpoint against a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", default="1,5,10,20")
    p.add_argument("--split", default="eval")

    p = sub.add_parser("mask-demo", help="emit mask entries and the rank trajectory")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--schedule", choices=("linear", "accelerating", "decelerating"),
                   default="linear")
    p.add_argument("--samples", type=int, default=9)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--dump-mask", action="store_true",
                   help="also emit the full matrix at each sampled step")

    p = sub.add_parser("grad-check", help="finite-difference audit of the loss gradients")
    p.add_argument("--cases", type=int, default=10)
    p.add_argument("--step", type=float, default=1e-6)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--encoder-tolerance", type=float, default=1e-3,
                   help="looser bound for the deep full-encoder composition")
    return parser


def cmd_train(args) -> int:
    from .pipeline import RunManifest, Trainer

    manifest = RunManifest.from_yaml(args.manifest)
    if args.seed is not None:
        manifest.seed = args.seed
    if args.output_dir:
        manifest.output_dir = args.output_dir
    ckpt = Trainer(manifest).run(resume_from=args.resume)
    print(_dumps({"record": "final_checkpoint", "path": str(ckpt)}))
    print(f"training complete: {ckpt}", file=sys.stderr)
    return EXIT_OK


def cmd_gen_clr(args) -> int:
    import shlex

    from .data import (CommandTranslator, LanguageDistribution, MockTranslator,
                       default_translation_languages, generate_clr_dataset, read_dataset,
                       write_dataset)

    dist = (LanguageDistribution.from_file(args.distribution)
            if args.distribution else default_translation_languages())
    if args.backend == "command":
        if not args.command:
            raise ValueError("--backend command requires --command")
        translator = CommandTranslator(shlex.split(args.command))
    else:
        translator = MockTranslator(dist.codes)
    header, examples = read_dataset(args.input)
    out, failures = generate_clr_dataset(examples, translator, dist, seed=args.seed)
    write_dataset(args.output, "clr", out,
                  languages=sorted(set(header.get("languages", [])) | set(dist.codes)),
                  extra={"seed": args.seed, "translation_failures": failures})
    print(_dumps({"record": "gen_clr", "input": args.input, "output": args.output,
                  "written": len(out), "failures": failures}))
    print(f"wrote {len(out)} cross-lingual records to {args.output} "
          f"({failures} translation failures)", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    from .evaluation import metric_records
    from .pipeline import evaluate_checkpoint

    ks = tuple(int(k) for k in args.k.split(","))
    metrics = evaluate_checkpoint(args.checkpoint, args.data, ks=ks)
    for rec in metric_records(metrics, args.split):
        print(_dumps(rec))
    summary = ", ".join(f"{k}={v:.4f}" for k, v in sorted(metrics.items()))
    print(f"eval[{args.split}]: {summary}", file=sys.stderr)
    return EXIT_OK


def cmd_mask_demo(args) -> int:
    from .masks import ScheduleState, build_soft_mask, mask_numerical_rank, schedule_alpha

    n = args.n
    if args.samples < 2:
        raise ValueError("--samples must be at least 2")
    tau = args.samples - 1
    for t in range(args.samples):
        state = ScheduleState(kind=args.schedule, t=t, tau_steps=tau)
        mask = build_soft_mask(state, n, args.l)
        rank = mask_numerical_rank(mask, args.eps)
        print(_dumps({"record": "rank", "schedule": args.schedule, "t_frac": t / tau,
                      "alpha": schedule_alpha(state), "n": n, "l": mask.l, "rank": rank}))
        if args.dump_mask:
            for i, row in enumerate(mask.entries):
                print(_dumps({"record": "mask_row", "t_frac": t / tau, "row": i,
                              "values": [float(v) for v in row]}))
    return EXIT_OK


def cmd_grad_check(args) -> int:
    import numpy as np

    from . import autograd as ag
    from .autograd import Tensor, grad_check
    from .encoder import Encoder, EncoderConfig
    from .losses import ContrastiveBatch, StsBatch, cosent, info_nce, next_token_ce
    from .masks import bidirectional_mask

    failures = 0

    def report(name, seed, err, tol=None):
        nonlocal failures
        tol = args.tolerance if tol is None else tol
        ok = bool(err < tol)
        failures += 0 if ok else 1
        print(_dumps({"record": "grad_check", "target": name, "seed": seed,
                      "max_rel_err": err, "tolerance": tol, "ok": ok}))

    for seed in range(args.cases):
        rng = np.random.default_rng(seed)
        pos = rng.normal(size=(4, 8))
        pos /= np.linalg.norm(pos, axis=-1, keepdims=True)
        neg = rng.normal(size=(4, 3, 8))
        neg /= np.linalg.norm(neg, axis=-1, keepdims=True)
        raw = rng.normal(size=(4, 8))
        err = grad_check(lambda t: info_nce(ContrastiveBatch(
            ag.l2_normalize(t), Tensor(pos), Tensor(neg), temperature=0.5)), raw, h=args.step)
        report("info_nce", seed, err)

        cos = rng.uniform(-0.9, 0.9, 6)
        labels = rng.integers(0, 3, 6).astype(float)
        err = grad_check(lambda t: cosent(StsBatch(t, labels, tau=0.05)), cos, h=args.step)
        report("cosent", seed, err)

        logits = rng.normal(size=(4, 8))
        targets = rng.integers(0, 8, 4)
        err = grad_check(lambda t: next_token_ce(t, targets), logits, h=args.step)
        report("next_token_ce", seed, err)

    cfg = EncoderConfig(layers=2, hidden_dim=16, heads=4, kv_heads=2, ffn_dim=32,
                        vocab_size=24, max_len=8, mrl_dims=(8, 16))
    for seed in range(args.cases):
        enc = Encoder(cfg, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        q_ids = rng.integers(2, 24, size=(2, 4))
        p_ids = rng.integers(2, 24, size=(2, 4))
        mask = bidirectional_mask(4)
        name = sorted(enc.params)[seed % len(enc.params)]
        base = enc.params[name].data.copy()

        def f(t, name=name, enc=enc):
            enc.params[name] = t
            return info_nce(ContrastiveBatch(enc.embed_batch(q_ids, mask),
                                             enc.embed_batch(p_ids, mask), temperature=0.5))

        err = grad_check(f, base, h=1e-5, max_coords=16, seed=seed)
        report(f"encoder[{name}]", seed, err, tol=args.encoder_tolerance)
        enc.params[name] = Tensor(base, requires_grad=True)

    print(f"grad-check: {failures} failure(s)", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_RUNTIME


def main(argv=None) -> int:
    _apply_thread_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "gen-clr": cmd_gen_clr,
        "eval": cmd_eval,
        "mask-demo": cmd_mask_demo,
        "grad-check": cmd_grad_check,
    }
    try:
        return handlers[args.subcommand](args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (ValueError, KeyError, TypeError) as exc:
        if os.environ.get("EMBEDKIT_DEBUG"):
            raise
        print(f"error: invalid configuration or data: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, RuntimeError, OSError) as exc:
        if os.environ.get("EMBEDKIT_DEBUG"):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
