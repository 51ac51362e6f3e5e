"""AdamW with decoupled weight decay and bias-corrected moments."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamW:
    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float):
        self.lr = lr
        self.weight_decay = weight_decay
        self.params = params
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in sorted(params.items())}
        self.v = {k: np.zeros_like(p.data) for k, p in sorted(params.items())}
        # two scratch buffers per parameter: step computes in place, allocating nothing
        self._scratch = {k: (np.empty_like(p.data), np.empty_like(p.data)) for k, p in params.items()}

    def step(self, lr: float | None = None):
        """One update; None gradients count as zero, non-finite gradients abort."""
        lr = self.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(g).all():
                raise ArithmeticError(f"non-finite gradient in parameter {name!r}")
            m, v, (a, b) = self.m[name], self.v[name], self._scratch[name]
            # the operations, and their order, of the out-of-place
            #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            #   p -= lr * ((m/bc1) / (sqrt(v/bc2) + eps) + wd*p)
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=a)
            m += a
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=a)
            a *= g
            v += a
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            a += EPS
            np.divide(m, bc1, out=b)
            b /= a
            np.multiply(p.data, self.weight_decay, out=a)
            a += b
            a *= lr
            p.data -= a

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None

    def export_state(self) -> dict[str, np.ndarray]:
        arrays = {}
        for name in sorted(self.m):
            arrays[f"opt.m.{name}"] = self.m[name].copy()
            arrays[f"opt.v.{name}"] = self.v[name].copy()
        return arrays

    def load_state(self, arrays: dict[str, np.ndarray], step_count: int):
        for name in self.m:
            self.m[name] = np.array(arrays[f"opt.m.{name}"], dtype=np.float64)
            self.v[name] = np.array(arrays[f"opt.v.{name}"], dtype=np.float64)
        self.step_count = step_count


def warmup_lr(base_lr: float, step: int, total_steps: int, warmup_frac: float) -> float:
    """Linear warmup over warmup_frac of the budget, then constant."""
    warm = max(1, int(round(warmup_frac * total_steps)))
    if step < warm:
        return base_lr * (step + 1) / warm
    return base_lr
