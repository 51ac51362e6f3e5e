"""The exit-code contract under malformed datasets: one header or record field of a
retrieval or STS file swapped for a value of another JSON type, or bytes that are not
UTF-8 put into one of its lines, run through ``embedkit eval`` and ``embedkit gen-clr``."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from embedkit.checkpoint import save_checkpoint
from embedkit.cli import main as cli_main
from embedkit.data import ScoredPair, Triplet, write_dataset
from embedkit.encoder import Encoder, EncoderConfig

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
