"""Search layer benchmarks: ``top_k`` and ``exact_search`` over unit vectors of
the default width, 64, at top 20 (the deepest cut ``embedkit eval`` asks for).

1024 queries against 1024 documents is the mining-eval benchmark's held-out
set; 4096 x 4096 holds 128 MiB of scores.
"""

import numpy as np
import pytest

from embedkit.evaluation import exact_search, top_k

DIM, K = 64, 20


def _unit(rng, n):
    x = rng.normal(size=(n, DIM))
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


@pytest.mark.parametrize("n", [1024, 4096])
def test_top_k(benchmark, n):
    rng = np.random.default_rng(0)
    rows, _ = benchmark(top_k, _unit(rng, n), _unit(rng, n), [f"d{i}" for i in range(n)], K)
    assert rows.shape == (n, K)


@pytest.mark.parametrize("n", [1024, 4096])
def test_exact_search(benchmark, n):
    rng = np.random.default_rng(0)
    run = benchmark(exact_search, _unit(rng, n), [f"q{i}" for i in range(n)], _unit(rng, n),
                    [f"d{i}" for i in range(n)], K)
    assert len(run.rankings) == n
