"""Every benchmark function in ``benchmarks/`` runs once, untimed, with a
pass-through stand-in for pytest-benchmark's ``benchmark`` fixture, so that
an API change that breaks a benchmark fails here, without pytest-benchmark."""

import importlib.util
import inspect
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _benchmark_functions():
    for path in sorted(BENCHMARKS.glob("test_*.py")):
        spec = importlib.util.spec_from_file_location(f"benchmarks_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name, fn in vars(module).items():
            if name.startswith("test_") and inspect.isfunction(fn):
                yield pytest.param(fn, id=f"{path.stem}::{name}")


def _first_params(fn) -> dict:
    """Keyword arguments from the first value set of each ``parametrize`` mark on ``fn``."""
    kwargs = {}
    for mark in getattr(fn, "pytestmark", []):
        if mark.name == "parametrize":
            names, values = [n.strip() for n in mark.args[0].split(",")], mark.args[1]
            kwargs.update(zip(names, values[0] if len(names) > 1 else (values[0],)))
    return kwargs


@pytest.mark.parametrize("fn", list(_benchmark_functions()))
def test_benchmark_runs_once(fn):
    timed = []

    def benchmark(f, *args, **kwargs):
        timed.append(f)
        return f(*args, **kwargs)

    fn(benchmark=benchmark, **_first_params(fn))
    assert len(timed) == 1
