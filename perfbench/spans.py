"""In-memory span tracer that wraps embedkit's public functions from outside.

A traced run calls ``Tracer.install``: every public function and every public
method of a class defined in the traced embedkit modules is replaced, in each
module namespace that binds it, by a wrapper that records a span (id, parent,
name, start, end).  Autograd ops also wrap the backward closure they leave on
their output, so tape time in ``backward`` is charged to the op that recorded
it (span name ``autograd.<op>.backward``).  Nothing inside ``src/`` is edited;
``uninstall`` restores every original binding.

Self time of a span is its duration minus the time its child spans cover.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

# Modules whose public API is wrapped.  The tokenizer is left out: its only
# hot caller, ``pipeline.batch_ids``, already has a span of its own.
TRACED_MODULES = ("autograd", "masks", "encoder", "losses", "mining", "data",
                  "evaluation", "optim", "checkpoint", "pipeline")
# Plain helpers called inside nearly every op; a span each would only add cost.
SKIPPED = {"autograd.as_tensor"}
# Classes whose methods are not wrapped: tensor dunders are the ops themselves.
SKIPPED_CLASSES = {"Tensor"}

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # span i: parents[i], name_ids[i], starts[i], ends[i] (ns)
        self.parents = array("q")
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: list[int] = [-1]
        self._child_ns: list[int] = [0]
        self.calls: dict[int, int] = {}
        self.self_ns: dict[int, int] = {}
        self.counters: dict[str, float] = {}
        self.nodes_per_backward: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[nid] = 0
            self.self_ns[nid] = 0
        return nid

    def call(self, nid: int, fn, args, kwargs):
        """Run ``fn`` inside a span named ``names[nid]``."""
        sid = len(self.starts)
        self.parents.append(self._stack[-1])
        self.name_ids.append(nid)
        self.ends.append(0)
        self._stack.append(sid)
        self._child_ns.append(0)
        t0 = _now()
        self.starts.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _now()
            self._stack.pop()
            child = self._child_ns.pop()
            self._child_ns[-1] += t1 - t0
            self.ends[sid] = t1
            self.calls[nid] += 1
            self.self_ns[nid] += t1 - t0 - child

    def count(self, key: str, value: float = 1):
        self.counters[key] = self.counters.get(key, 0) + value

    def reset_totals(self):
        """Zero per-name totals and counters (spans themselves are kept)."""
        for nid in self.calls:
            self.calls[nid] = 0
            self.self_ns[nid] = 0
        self.counters = {}
        self.nodes_per_backward = []

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, self time in ms) for a span name since the last reset."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_ns[nid] / 1e6

    def spans_named(self, name: str, first: int = 0) -> list[int]:
        nid = self._name_ids.get(name)
        return [i for i in range(first, len(self.starts)) if self.name_ids[i] == nid]

    def write_tsv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.parents[i]}\t{names[self.name_ids[i]]}\t"
                         f"{self.starts[i]}\t{self.ends[i]}\n")

    # -- installing wrappers ---------------------------------------------

    def install(self, hooks: dict):
        """Wrap the public API of every traced embedkit module.

        ``hooks`` maps a span name to ``fn(tracer, args, kwargs, result)``,
        called after the wrapped call returns, to count work at the boundary.
        """
        modules = {short: sys.modules[f"embedkit.{short}"] for short in TRACED_MODULES
                   if f"embedkit.{short}" in sys.modules}
        replaced: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    if name not in SKIPPED:
                        replaced[id(obj)] = self._wrap(name, obj, hooks.get(name),
                                                       op=short == "autograd")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and attr not in SKIPPED_CLASSES:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{short}.{attr}.{meth}"
                        self._restore.append((obj, meth, fn))
                        setattr(obj, meth, self._wrap(name, fn, hooks.get(name), op=False))
        # rebind every module-level alias (``from .x import f``) of a wrapped function
        for mod in _embedkit_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _wrap(self, name: str, fn, hook, op: bool):
        nid = self.name_id(name)
        bwd_nid = self.name_id(f"{name}.backward") if op else None
        tracer = self

        def wrapper(*args, **kwargs):
            out = tracer.call(nid, fn, args, kwargs)
            if bwd_nid is not None:
                backward_fn = getattr(out, "_backward", None)
                if backward_fn is not None:
                    out._backward = lambda g, _f=backward_fn: tracer.call(bwd_nid, _f, (g,), {})
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


class Clock:
    """Timestamps taken as a few embedkit calls return, for the untraced run.

    Where the tracer records a span around every public call, the clock only
    appends ``(label, time)`` when one of a few chosen calls returns (about a
    microsecond each), plus the marks the benchmark sets itself.  Consecutive
    timestamps cut a timed region into short segments; the program is
    deterministic, so every repetition of a region cuts it into the same
    labelled sequence and segments can be compared position by position
    across repetitions.
    """

    def __init__(self):
        self.labels: list[str] = []
        self.times = array("q")
        self._restore: list[tuple[object, str, object]] = []

    def mark(self, label: str) -> int:
        self.labels.append(label)
        self.times.append(_now())
        return len(self.labels) - 1

    def region(self, first: int, last: int) -> tuple[tuple, list]:
        """Labels and durations (ns) of the segments between marks ``first`` and ``last``."""
        t = self.times
        return (tuple(self.labels[first + 1:last + 1]),
                [t[i] - t[i - 1] for i in range(first + 1, last + 1)])

    def clear(self):
        self.labels = []
        self.times = array("q")

    def install(self, points: dict, ops: tuple = ()):
        """Stamp on return of each point ``module.func`` or ``module.Class.meth``.

        ``points`` maps the point to None (the label is the point's name) or to
        ``fn(args) -> label``.  For the autograd ops in ``ops``, the backward
        closure left on the op's output also stamps (``<op>.backward``) when
        ``autograd.backward`` runs it.
        """
        for name, label in points.items():
            parts = name.split(".")
            mod = sys.modules[f"embedkit.{parts[0]}"]
            if len(parts) == 3:
                cls = getattr(mod, parts[1])
                fn = vars(cls)[parts[2]]
                self._restore.append((cls, parts[2], fn))
                setattr(cls, parts[2], self._wrap(name, fn, label, name in ops))
                continue
            fn = getattr(mod, parts[1])
            wrapper = self._wrap(name, fn, label, name in ops)
            for m in _embedkit_modules():
                for attr, obj in list(vars(m).items()):
                    if obj is fn:
                        self._restore.append((m, attr, obj))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _wrap(self, name: str, fn, label, op: bool):
        clock = self
        bwd_name = f"{name}.backward"

        def backward(g, backward_fn):
            backward_fn(g)
            clock.labels.append(bwd_name)
            clock.times.append(_now())

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            clock.labels.append(name if label is None else label(args))
            clock.times.append(_now())
            if op and getattr(out, "_backward", None) is not None:
                out._backward = lambda g, _f=out._backward: backward(g, _f)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def _embedkit_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if n == "embedkit" or n.startswith("embedkit.")]

