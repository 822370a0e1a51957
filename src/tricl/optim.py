"""Adam with decoupled weight decay over a parameter store.

Each step gathers the gradients into one flat buffer and applies a single
elementwise update to the moments and to the store's values (a model's whole
store, or a contiguous run of one). Weight decay is applied directly to the
values, not folded into the gradient; betas 0.9/0.999, epsilon 1e-8. The
moments are created on the first step; step() zeroes gradients so a stale
tape cannot be stepped twice.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .store import ParameterStore


class AdamW:
    def __init__(
        self,
        store: ParameterStore,
        lr: float = 1e-5,
        weight_decay: float = 1e-5,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        self.store = store
        for name, p in store.tensors.items():
            if not p.requires_grad:
                raise ContractError(f"parameter {name} does not require grad")
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._grad = np.empty_like(store.buffer)
        self._tmp = np.empty_like(store.buffer)

    def step(self) -> None:
        params = self.store.tensors
        for name, p in params.items():
            if p.grad is None:
                raise ContractError(f"parameter {name} has no gradient")
        g = np.concatenate([np.ravel(p.grad) for p in params.values()], out=self._grad)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        if self.m is None:
            self.m = np.zeros_like(g)
            self.v = np.zeros_like(g)
        m, v, values, tmp = self.m, self.v, self.store.buffer, self._tmp
        # in place, in the operation order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
        # values -= lr*wd*values, values -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=tmp)
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - self.beta2
        v *= self.beta2
        v += tmp
        if self.weight_decay:
            values -= np.multiply(values, self.lr * self.weight_decay, out=tmp)
        denom = np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
        denom += self.epsilon
        update = np.divide(m, bc1, out=g)  # the gradient is spent
        update *= self.lr
        update /= denom
        values -= update
        for p in params.values():
            p.grad = None
