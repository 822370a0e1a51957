"""Building blocks for the miniature encoders: conv, residual, attention.

A layer's trainable tensors are its attributes: ``store.trainable`` finds
them (and those of nested layers) in the order they are assigned in
``__init__``, and that order is the checkpoint layout. Each carries an
explicit dotted name, which is its checkpoint key. ``Conv2d`` is one
``tensor.conv2d`` tape op over the whole (C, N, H, W) batch.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ShapeError
from .tensor import (
    Tensor,
    add,
    concat,
    conv2d,
    div,
    matmul,
    mean,
    mul,
    narrow,
    relu,
    reshape,
    scalar_scale,
    sigmoid,
    softmax_rows,
    sqrt,
    sub,
    transpose,
    tsum,
)


_DRAW_INIT = True


@contextmanager
def no_init():
    """Inside the block, `uniform_init` draws nothing and returns zeros: for
    building a model whose every value is about to be overwritten, such as
    one loaded from a checkpoint."""
    global _DRAW_INIT
    prev = _DRAW_INIT
    _DRAW_INIT = False
    try:
        yield
    finally:
        _DRAW_INIT = prev


def uniform_init(rng: np.random.Generator, shape, fan_in: int, name: str) -> Tensor:
    if not _DRAW_INIT:
        return Tensor(np.zeros(shape), requires_grad=True, name=name)
    bound = np.sqrt(6.0 / max(1, fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True, name=name)


def zeros_init(shape, name: str) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True, name=name)


class Linear:
    def __init__(self, rng, d_in: int, d_out: int, name: str):
        self.w = uniform_init(rng, (d_in, d_out), d_in, f"{name}.w")
        self.b = zeros_init((1, d_out), f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.w), self.b)


class Conv2d:
    """3x3/1x1 convolution over a (C, N, H, W) batch of images: one ``tensor.conv2d``
    tape op, a single patch-matrix GEMM for the whole batch."""

    def __init__(self, rng, c_in: int, c_out: int, kernel: int, stride: int, pad: int, name: str):
        self.kernel, self.stride, self.pad = kernel, stride, pad
        fan_in = c_in * kernel * kernel
        self.w = uniform_init(rng, (c_out, fan_in), fan_in, f"{name}.w")
        self.b = zeros_init((c_out, 1), f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.w, self.b, self.kernel, self.stride, self.pad)


class ChannelAttention:
    """Squeeze-excite gate: per-sample channel means -> bottleneck -> sigmoid scale."""

    def __init__(self, rng, channels: int, name: str):
        hidden = max(1, channels // 4)
        self.fc1 = Linear(rng, channels, hidden, f"{name}.fc1")
        self.fc2 = Linear(rng, hidden, channels, f"{name}.fc2")
        self.channels = channels

    def __call__(self, x: Tensor) -> Tensor:
        pooled = transpose(mean(x, axis=(2, 3)))  # (N, C)
        gates = sigmoid(self.fc2(relu(self.fc1(pooled))))
        return mul(x, reshape(transpose(gates), (self.channels, x.shape[1], 1, 1)))


class ResBlock:
    def __init__(self, rng, c_in: int, c_out: int, stride: int, name: str, attention: bool = False):
        self.conv1 = Conv2d(rng, c_in, c_out, 3, stride, 1, f"{name}.conv1")
        self.conv2 = Conv2d(rng, c_out, c_out, 3, 1, 1, f"{name}.conv2")
        self.skip = None
        if c_in != c_out or stride != 1:
            self.skip = Conv2d(rng, c_in, c_out, 1, stride, 0, f"{name}.skip")
        self.attn = ChannelAttention(rng, c_out, f"{name}.se") if attention else None

    def __call__(self, x: Tensor) -> Tensor:
        h = self.conv2(relu(self.conv1(x)))
        s = self.skip(x) if self.skip is not None else x
        out = add(h, s)
        if self.attn is not None:
            out = self.attn(out)
        return relu(out)


class ConvStack:
    """Stem conv plus one stride-2 residual block per configured channel width."""

    def __init__(self, rng, channels: tuple[int, ...], name: str, attention: bool = False):
        self.stem = Conv2d(rng, 1, channels[0], 3, 1, 1, f"{name}.stem")
        self.blocks = [
            ResBlock(rng, channels[i], channels[i + 1], 2, f"{name}.block{i + 1}", attention)
            for i in range(len(channels) - 1)
        ]
        self.out_channels = channels[-1]

    def __call__(self, x: Tensor) -> Tensor:
        h = relu(self.stem(x))
        for block in self.blocks:
            h = block(h)
        return h


class AttentionPool:
    """A learned query token attends over each sample's spatial positions with
    Q/K/V maps: (C, N, H, W) -> (N, C)."""

    def __init__(self, rng, channels: int, heads: int, name: str):
        if channels % heads != 0:
            raise ShapeError(f"attention-pool channels {channels} not divisible by {heads} heads")
        self.channels, self.heads = channels, heads
        self.query = uniform_init(rng, (1, channels), channels, f"{name}.query")
        self.wq = uniform_init(rng, (channels, channels), channels, f"{name}.wq")
        self.wk = uniform_init(rng, (channels, channels), channels, f"{name}.wk")
        self.wv = uniform_init(rng, (channels, channels), channels, f"{name}.wv")

    def __call__(self, x: Tensor) -> Tensor:
        c, n, h, w = x.shape
        positions = transpose(reshape(x, (c, n * h * w)))  # (N*H*W, C), sample-major
        q = matmul(self.query, self.wq)
        k = matmul(positions, self.wk)
        v = matmul(positions, self.wv)
        dh = self.channels // self.heads
        outs = []
        for i in range(self.heads):
            qs = narrow(q, 1, i * dh, (i + 1) * dh)
            ks = narrow(k, 1, i * dh, (i + 1) * dh)
            vs = reshape(narrow(v, 1, i * dh, (i + 1) * dh), (n, h * w, dh))
            scores = reshape(matmul(qs, transpose(ks)), (n, h * w))  # row i: sample i's positions
            attn = softmax_rows(scalar_scale(scores, 1.0 / np.sqrt(dh)))
            outs.append(tsum(mul(reshape(attn, (n, h * w, 1)), vs), axis=1))
        return concat(outs, axis=1) if len(outs) > 1 else outs[0]


class LayerNorm:
    def __init__(self, dim: int, name: str):
        self.gain = Tensor(np.ones((1, dim)), requires_grad=True, name=f"{name}.g")
        self.bias = zeros_init((1, dim), f"{name}.b")
        self._eps = Tensor(1e-5)

    def __call__(self, x: Tensor) -> Tensor:
        mu = mean(x, axis=1, keepdims=True)
        centered = sub(x, mu)
        var = mean(mul(centered, centered), axis=1, keepdims=True)
        normed = div(centered, sqrt(add(var, self._eps)))
        return add(mul(normed, self.gain), self.bias)


class MultiHeadSelfAttention:
    def __init__(self, rng, width: int, heads: int, name: str):
        self.width, self.heads = width, heads
        self.wq = Linear(rng, width, width, f"{name}.q")
        self.wk = Linear(rng, width, width, f"{name}.k")
        self.wv = Linear(rng, width, width, f"{name}.v")
        self.wo = Linear(rng, width, width, f"{name}.o")

    def __call__(self, x: Tensor, mask: Tensor) -> Tensor:
        q, k, v = self.wq(x), self.wk(x), self.wv(x)
        dh = self.width // self.heads
        outs = []
        for i in range(self.heads):
            qs = narrow(q, 1, i * dh, (i + 1) * dh)
            ks = narrow(k, 1, i * dh, (i + 1) * dh)
            vs = narrow(v, 1, i * dh, (i + 1) * dh)
            scores = add(scalar_scale(matmul(qs, transpose(ks)), 1.0 / np.sqrt(dh)), mask)
            outs.append(matmul(softmax_rows(scores), vs))
        merged = concat(outs, axis=1) if len(outs) > 1 else outs[0]
        return self.wo(merged)


MLP_RATIO = 2  # a transformer block's MLP hidden width, in multiples of its width


class TransformerBlock:
    """Pre-norm causal block: x + attn(ln(x)), then x + mlp(ln(x))."""

    def __init__(self, rng, width: int, heads: int, name: str):
        self.ln1 = LayerNorm(width, f"{name}.ln1")
        self.attn = MultiHeadSelfAttention(rng, width, heads, f"{name}.attn")
        self.ln2 = LayerNorm(width, f"{name}.ln2")
        self.fc1 = Linear(rng, width, MLP_RATIO * width, f"{name}.fc1")
        self.fc2 = Linear(rng, MLP_RATIO * width, width, f"{name}.fc2")

    def __call__(self, x: Tensor, mask: Tensor) -> Tensor:
        x = add(x, self.attn(self.ln1(x), mask))
        return add(x, self.fc2(relu(self.fc1(self.ln2(x)))))


def causal_mask(lengths) -> Tensor:
    """Block-causal mask over sequences packed one after another: a token
    attends to itself and the earlier tokens of its own sequence."""
    seq = np.repeat(np.arange(len(lengths)), lengths)
    visible = (seq[:, None] == seq[None, :]) & np.tri(len(seq), dtype=bool)
    return Tensor(np.where(visible, 0.0, -1e9))
