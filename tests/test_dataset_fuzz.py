"""The exit-code contract under malformed input: one header or record field of a
retrieval or STS file swapped for a value of another JSON type, bytes that are not
UTF-8 put into one of its lines, or one of its lines cut short, run through
``embedkit eval`` and ``embedkit gen-clr``; and one manifest value swapped for a value
of another type, run through ``embedkit train``."""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from embedkit.checkpoint import save_checkpoint
from embedkit.cli import main as cli_main
from embedkit.data import (ScoredPair, Triplet, build_sts, build_triplets, synth_corpus,
                           write_dataset, write_text_dataset)
from embedkit.encoder import Encoder, EncoderConfig
from embedkit.pipeline import RunManifest, StageConfig

ENC = EncoderConfig(layers=1, hidden_dim=16, heads=4, kv_heads=2, ffn_dim=32, vocab_size=300,
                    max_len=16, mrl_dims=(8, 16))

# JSON values of every type, empty ones and a non-finite number; json.dumps writes inf as Infinity
VALUES = (5, 2.5, True, None, [1, 2], {"x": 1}, "s", "", [], float("inf"))

# exit codes the CLI documents: ok, invalid configuration or data, missing file, runtime error
EXITS = {0, 3, 4, 5}

# swaps of a retrieval record's field that both commands refuse at the record's path:line
REFUSED = [("cluster", "s"), ("cluster", [1, 2]), ("cluster", {"x": 1}), ("cluster", float("inf")),
           ("cluster", True)]

# byte sequences that are not UTF-8 wherever they stand in an ASCII file: a byte no UTF-8
# text holds, a lone continuation byte, and lead bytes cut short
NOT_UTF8 = (b"\xff", b"\x80", b"\xc3", b"\xe2\x82")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    arrays = {f"model.{k}": v for k, v in Encoder(ENC, seed=0).export_arrays().items()}
    save_checkpoint(tmp / "m.ckpt", ENC.to_dict(), arrays, {"vocab": ["a", "b", "c"]})
    write_dataset(tmp / "retrieval.jsonl", "retrieval",
                  [Triplet("a b", "b", ["c"], query_lang="aa", passage_lang="aa", uid="u0"),
                   Triplet("b c", "c", ["a"], query_lang="aa", passage_lang="aa", uid="u1")],
                  languages=("aa",))
    write_dataset(tmp / "sts.jsonl", "sts",
                  [ScoredPair("a b", "b", 1.0, lang="aa", uid="s0"),
                   ScoredPair("b c", "a", 0.0, lang="aa", uid="s1")], languages=("aa",))
    return tmp


def _run(args: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(args)
    return code, err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_field_of_another_type_keeps_the_exit_code_contract(files, data):
    name = data.draw(st.sampled_from(["retrieval", "sts"]))
    lines = (files / f"{name}.jsonl").read_text().splitlines()
    n = data.draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[n])
    record[data.draw(st.sampled_from(sorted(record)))] = data.draw(st.sampled_from(VALUES))
    lines[n] = json.dumps(record)
    path = files / "mutated.jsonl"
    path.write_text("\n".join(lines) + "\n")
    for args in (["eval", "--checkpoint", str(files / "m.ckpt"), "--data", str(path)],
                 ["gen-clr", "--input", str(path), "--output", str(files / "clr.jsonl")]):
        code, err = _run(args)
        assert code in EXITS, (args[0], record, code, err)
        assert code != 3 or str(path) in err, (args[0], record, err)


@pytest.mark.parametrize("field,value", REFUSED, ids=[f"{f}={v!r}" for f, v in REFUSED])
def test_a_refused_field_exits_3_at_its_line(files, field, value):
    lines = (files / "retrieval.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record[field] = value
    lines[2] = json.dumps(record)
    path = files / "refused.jsonl"
    path.write_text("\n".join(lines) + "\n")
    for args in (["eval", "--checkpoint", str(files / "m.ckpt"), "--data", str(path)],
                 ["gen-clr", "--input", str(path), "--output", str(files / "clr.jsonl")]):
        code, err = _run(args)
        assert code == 3 and f"{path}:3: invalid record: {field} must be" in err, (args[0], err)


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bytes_that_are_not_utf8_exit_3_at_their_line(files, data):
    name = data.draw(st.sampled_from(["retrieval", "sts"]))
    lines = (files / f"{name}.jsonl").read_bytes().splitlines()
    n = data.draw(st.integers(0, len(lines) - 1))
    at = data.draw(st.integers(0, len(lines[n])))
    lines[n] = lines[n][:at] + data.draw(st.sampled_from(NOT_UTF8)) + lines[n][at:]
    path = files / "not-utf8.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    commands = [["eval", "--checkpoint", str(files / "m.ckpt"), "--data", str(path)]]
    if name == "retrieval":         # gen-clr refuses an STS file at its first record
        commands.append(["gen-clr", "--input", str(path), "--output", str(files / "clr.jsonl")])
    for args in commands:
        code, err = _run(args)
        assert code == 3 and f"{path}:{n + 1}: " in err and "'utf-8' codec" in err, (args[0], err)


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_cut_line_exits_3_at_its_line_or_reads(files, data):
    name = data.draw(st.sampled_from(["retrieval", "sts"]))
    lines = (files / f"{name}.jsonl").read_bytes().splitlines()
    n = data.draw(st.integers(0, len(lines) - 1))
    lines[n] = lines[n][:data.draw(st.integers(0, len(lines[n]) - 1))]
    path = files / "cut.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    commands = [["eval", "--checkpoint", str(files / "m.ckpt"), "--data", str(path)]]
    if name == "retrieval":         # gen-clr refuses an STS file at its first record
        commands.append(["gen-clr", "--input", str(path), "--output", str(files / "clr.jsonl")])
    for args in commands:
        code, err = _run(args)
        assert code in EXITS, (args[0], lines[n], code, err)
        # a record line cut to nothing is skipped; what is left may be refused as a whole
        where = f"{path}:{n + 1}: " if lines[n] else str(path)
        assert code != 3 or where in err, (args[0], lines[n], err)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    """The YAML document of a four-stage manifest of 1-2 steps each on a tiny encoder,
    setting every option each stage reads, with its data paths absolute."""
    tmp = tmp_path_factory.mktemp("manifest-fuzz")
    corpus = synth_corpus(4, 4, languages=("aa", "bb"), seed=0)
    write_text_dataset(tmp / "lm.jsonl", [s["text"] for s in corpus.sentences])
    write_dataset(tmp / "pairs.jsonl", "pair", corpus.pairs, languages=corpus.languages)
    write_dataset(tmp / "retrieval.jsonl", "retrieval",
                  build_triplets(corpus, lang="aa", pool_size=4), languages=("aa",))
    write_dataset(tmp / "sts.jsonl", "sts", build_sts(corpus, 16, lang="aa"), languages=("aa",))
    m = RunManifest(
        encoder=ENC,
        stages=[StageConfig(kind="lm-pretrain", steps=2, batch_size=4, window_len=8),
                StageConfig(kind="pair-sft", steps=1, batch_size=4, window_len=8),
                StageConfig(kind="weak-contrastive", steps=2, batch_size=4, mask_policy="soft"),
                StageConfig(kind="supervised", steps=2, triplet_batch_size=2, sts_batch_size=4,
                            negatives_per_query=2, mrl=True, dhnm=True, checkpoint_every=1)],
        data={"lm-pretrain": str(tmp / "lm.jsonl"), "pair-sft": str(tmp / "pairs.jsonl"),
              "weak-contrastive": str(tmp / "pairs.jsonl"),
              "supervised": {"retrieval": str(tmp / "retrieval.jsonl"),
                             "sts": str(tmp / "sts.jsonl")}},
        output_dir="run", seed=0)
    m.to_yaml(tmp / "base.yaml")
    with open(tmp / "base.yaml") as fh:
        doc = yaml.safe_load(fh)
    doc["output_dir"] = "run"       # relative to each example's own directory
    return tmp, doc


def _leaves(doc, at=()):
    """The key path of every value in ``doc`` that is not itself a mapping or a list of stages."""
    items = enumerate(doc) if isinstance(doc, list) else doc.items()
    for k, v in items:
        if isinstance(v, dict) or (k == "stages" and isinstance(v, list)):
            yield from _leaves(v, at + (k,))
        else:
            yield at + (k,)


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_manifest_value_of_another_type_keeps_the_exit_code_contract(manifest, data):
    tmp, base = manifest
    doc = copy.deepcopy(base)
    at = data.draw(st.sampled_from(sorted(_leaves(doc), key=repr)))
    parent = doc
    for k in at[:-1]:
        parent = parent[k]
    parent[at[-1]] = data.draw(st.sampled_from(VALUES))
    yml = Path(tempfile.mkdtemp(dir=tmp)) / "m.yaml"
    with open(yml, "w") as fh:
        yaml.safe_dump(doc, fh)
    code, err = _run(["train", "--manifest", str(yml)])
    assert code in EXITS, (at, parent[at[-1]], code, err)
    assert code != 3 or str(yml) in err or re.search(r"\.jsonl:\d+: ", err), (at, err)
