"""Training-state benchmarks: mining bookkeeping and checkpoint I/O.

The mining state is synthetic, shaped as the toy supervised stage's: each
query has 7 slots and a 17-row pool (24 negatives), and three quarters of
the slots hold a first score.  ``arrays`` and ``from_arrays`` run at 1,001
slots (143 queries) and at 100,002 slots (14,286 queries); the other
benchmarks use the 1,001-slot state.  One triplet step caches the
28 scores of 4 queries' slots (``triplet_batch_size`` 4, 7 negatives), drawn
from a cycle of 8 uniform score sets, and then swaps the flagged ones; the
pools of those 4 queries drain within the first rounds, so later rounds
mostly log exhausted replacements, as most of the toy stage's replace
decisions are.

The checkpoint is toy-size: the default encoder's ``model.*`` weights, its
AdamW moments as ``opt.*`` and the 1,001-slot state as ``mining.*``, written
and read in a temporary directory (``save_checkpoint`` fsyncs each write).
"""

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest

from embedkit.checkpoint import load_checkpoint, load_weights, save_checkpoint
from embedkit.encoder import Encoder, EncoderConfig
from embedkit.mining import MiningState
from embedkit.optim import AdamW

SLOTS, POOL = 7, 17


def _state(queries: int) -> tuple[MiningState, list]:
    """A state of ``queries`` queries and the (id, negatives, slot count) it was registered from."""
    rng = np.random.default_rng(queries)
    ms, registered = MiningState(), []
    for i in range(queries):
        negatives = [f"negative {i} {j}" for j in range(SLOTS + POOL)]
        rows = rng.permutation(SLOTS + POOL)
        ms.register_query(f"retrieval:{i}", rows[:SLOTS], rows[SLOTS:], negatives)
        ms.s0[-1] = [float(s) if s < 0.5 else None for s in rng.uniform(-1.0, 1.0, SLOTS)]
        ms.cursor[-1] = int(rng.integers(0, POOL + 1))
        registered.append((f"retrieval:{i}", negatives, SLOTS))
    return ms, registered


def test_mining_cache_and_replace_triplet_step(benchmark):
    ms, registered = _state(143)
    rng = np.random.default_rng(0)
    keys = [(query_id, slot) for query_id, _, _ in registered[:4] for slot in range(SLOTS)]
    rounds = itertools.cycle([[(*key, float(s)) for key, s in zip(keys, rng.uniform(0.0, 1.0, 28))]
                              for _ in range(8)])
    steps = itertools.count()

    def step():
        records = ms.cache_scores(next(steps), next(rounds))
        ms.replace_flagged()
        return records

    assert len(benchmark(step)) == 28


@pytest.mark.parametrize("queries", [143, 14_286])
def test_mining_arrays(benchmark, queries):
    ms, _ = _state(queries)
    arrays = benchmark(ms.arrays)
    assert len(arrays["mining.slots"]) == queries * SLOTS


@pytest.mark.parametrize("queries", [143, 14_286])
def test_mining_from_arrays(benchmark, queries):
    ms, registered = _state(queries)
    arrays = ms.arrays()
    back = benchmark(MiningState.from_arrays, "absolute", registered, arrays)
    assert back.slots == ms.slots and back.cursor == ms.cursor


def _toy_checkpoint() -> tuple[dict, dict[str, np.ndarray], dict]:
    cfg = EncoderConfig()
    encoder = Encoder(cfg, seed=0)
    optimizer = AdamW(encoder.params, 1e-3, 0.001)
    rng = np.random.default_rng(1)
    for p in encoder.params.values():
        p.grad = rng.normal(size=p.shape)
    optimizer.step()
    arrays = {f"model.{k}": v for k, v in encoder.export_arrays().items()}
    arrays.update(optimizer.export_state())
    arrays.update(_state(143)[0].arrays())
    return cfg.to_dict(), arrays, {"stage_index": 3, "stage_step": 20, "opt_step_count": 1}


def _saved_toy_checkpoint(benchmark, read):
    config, arrays, extra = _toy_checkpoint()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stage3-step20.ckpt"
        save_checkpoint(path, config, arrays, extra)
        _, got, _ = benchmark(read, path)
    assert got.keys() <= arrays.keys() and "model.embed" in got
    return got


def test_save_checkpoint(benchmark):
    config, arrays, extra = _toy_checkpoint()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stage3-step20.ckpt"
        benchmark(save_checkpoint, path, config, arrays, extra)
        assert load_checkpoint(path)[1].keys() == arrays.keys()


def test_load_weights(benchmark):
    got = _saved_toy_checkpoint(benchmark, load_weights)
    assert not any(k.startswith(("opt.", "mining.")) for k in got)


def test_load_checkpoint(benchmark):
    assert any(k.startswith("mining.") for k in _saved_toy_checkpoint(benchmark, load_checkpoint))
