"""The malloc policy set at import: warm steady-state steps on glibc, a quiet no-op elsewhere."""

import os
import platform
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import embedkit

SRC = Path(__file__).resolve().parent.parent / "src"
GLIBC = platform.libc_ver()[0] == "glibc"


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(not GLIBC, reason="the malloc policy is set on glibc only")
def test_lm_steps_fault_in_no_fresh_pages_once_warm():
    out = _run("""
        import resource
        import numpy as np
        import embedkit
        from embedkit import autograd as ag
        from embedkit.encoder import Encoder, EncoderConfig
        from embedkit.losses import next_token_ce
        from embedkit.optim import AdamW

        cfg = EncoderConfig()
        encoder = Encoder(cfg, seed=0)
        optimizer = AdamW(encoder.params, 1e-3, 0.001)
        windows = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(32, 17))

        def step():
            states = encoder.forward_batch(windows[:, :-1], 0.0)
            ag.backward(next_token_ce(states, encoder.params["embed"], windows[:, 1:]))
            optimizer.step()
            optimizer.zero_grads()

        for _ in range(20):
            step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            step()
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
    """)
    # without the policy each step faults in ~1800 fresh pages (~7 MB)
    assert float(out) < 50


@pytest.mark.skipif(not GLIBC, reason="the malloc policy is set on glibc only")
def test_glibc_accepts_every_threshold():
    assert embedkit._keep_heap_warm() is True


def test_a_refused_threshold_is_reported(monkeypatch):
    refuse = types.SimpleNamespace(mallopt=lambda param, value: 0)
    monkeypatch.setattr(embedkit.ctypes, "CDLL", lambda name: refuse)
    assert embedkit._keep_heap_warm() is False


@pytest.mark.parametrize("libc", ["raise OSError(name)", "return types.SimpleNamespace()"],
                         ids=["no-libc", "no-mallopt"])
def test_without_glibc_import_works_and_the_policy_is_a_quiet_no_op(libc):
    out = _run(f"""
        import ctypes, types

        def cdll(name, *args, **kwargs):
            {libc}

        ctypes.CDLL = cdll
        import embedkit
        from embedkit.encoder import Encoder, EncoderConfig
        Encoder(EncoderConfig())
        print(embedkit._keep_heap_warm())
    """)
    assert out.strip() == "False"
