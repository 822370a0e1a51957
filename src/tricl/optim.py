"""Adam with decoupled weight decay.

Weight decay is applied directly to the parameter values (not folded into
the gradient), betas 0.9/0.999, epsilon 1e-8. Moment arrays are created
lazily on the first step that touches a parameter; step() zeroes gradients
so a stale tape cannot be stepped twice.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor


class AdamW:
    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-5,
        weight_decay: float = 1e-5,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        self.params = list(params)
        for p in self.params:
            if not p.requires_grad:
                raise ContractError(f"parameter {p.name or '<unnamed>'} does not require grad")
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self._m: dict[Tensor, np.ndarray] = {}
        self._v: dict[Tensor, np.ndarray] = {}

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                raise ContractError(f"parameter {p.name or '<unnamed>'} has no gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p in self.params:
            g = p.grad
            m = self._m.get(p)
            if m is None:
                m = np.zeros_like(p.values)
                v = np.zeros_like(p.values)
            else:
                v = self._v[p]
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            self._m[p] = m
            self._v[p] = v
            if self.weight_decay:
                p.values -= self.lr * self.weight_decay * p.values
            p.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)
            p.grad = None

    def has_state(self, p: Tensor) -> bool:
        return p in self._m
