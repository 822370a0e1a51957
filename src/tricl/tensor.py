"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A dynamic tape: every operation builds a new ``Tensor`` node holding the
forward values plus a closure that maps the node's output gradient to
gradients for its parents (``None`` for a parent that needs none).
``backward`` walks the tape in reverse topological order and accumulates
into ``.grad`` of the leaves only: interior gradients live in a per-call
table and are freed once consumed. Repeated backward calls accumulate;
only the optimizer resets gradients.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ShapeError

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A node of the computation tape.

    values: float64 ndarray, row-major. grad: same-shape ndarray or None;
    ``backward`` fills it on leaves only. Leaves created with
    requires_grad=True are trainable parameters.
    """

    __slots__ = ("values", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # operator sugar; constants are wrapped on the fly
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(values: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(values)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def custom_op(values, parents, backward_fn) -> Tensor:
    """Record an op defined outside this module.

    ``backward_fn(g)`` returns one gradient (or ``None``) per parent.
    """
    return _make(np.asarray(values, dtype=np.float64), tuple(parents), backward_fn)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/dx into .grad of every reachable requires_grad leaf.

    Interior nodes' ``.grad`` is never written: their gradients live in the
    walk's flow table and are dropped once passed on to their parents.
    """
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    # iterative topological sort; graphs can be deeper than the recursion limit
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    # per-call flow table so repeated backward() calls accumulate correctly
    flow: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    for node in reversed(topo):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            cur = flow.get(id(parent))
            flow[id(parent)] = pg if cur is None else cur + pg


# ---------------------------------------------------------------------------
# elementwise / binary ops
# ---------------------------------------------------------------------------


def _binary_values(op_name: str, a: Tensor, b: Tensor, fn):
    try:
        return fn(a.values, b.values)
    except ValueError as exc:
        raise ShapeError(f"{op_name}: incompatible shapes {a.shape} vs {b.shape}") from exc


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _binary_values("add", a, b, np.add)

    def bw(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _binary_values("sub", a, b, np.subtract)

    def bw(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _binary_values("mul", a, b, np.multiply)

    def bw(g):
        ga = _unbroadcast(g * b.values, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.values, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = _binary_values("div", a, b, np.divide)

    def bw(g):
        ga = _unbroadcast(g / b.values, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * a.values / (b.values * b.values), b.shape) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return _make(-a.values, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} vs {b.shape}")
    out = a.values @ b.values

    def bw(g):
        ga = g @ b.values.T if a.requires_grad else None
        gb = a.values.T @ g if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), bw)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.values)
    return _make(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.values), (a,), lambda g: (g / a.values,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.values)
    return _make(out, (a,), lambda g: (g * 0.5 / out,))


def absval(a: Tensor) -> Tensor:
    return _make(np.abs(a.values), (a,), lambda g: (g * np.sign(a.values),))


def sin(a: Tensor) -> Tensor:
    return _make(np.sin(a.values), (a,), lambda g: (g * np.cos(a.values),))


def cos(a: Tensor) -> Tensor:
    return _make(np.cos(a.values), (a,), lambda g: (-g * np.sin(a.values),))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.values, 0.0)
    return _make(out, (a,), lambda g: (g * (a.values > 0.0),))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = _stable_sigmoid(a.values)
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a: Tensor) -> Tensor:
    out = np.logaddexp(0.0, a.values)
    return _make(out, (a,), lambda g: (g * _stable_sigmoid(a.values),))


def abs_pow(base: Tensor, exponent: Tensor) -> Tensor:
    """|base| ** exponent with a scalar exponent > 1; 0 ** e defined as 0.

    d/d(base) = e * |b|^(e-1) * sign(b)        (0 at b == 0)
    d/d(exponent) = |b|^e * log|b|             (0 at b == 0, the continuous limit)
    """
    if exponent.size != 1:
        raise ShapeError(f"abs_pow: exponent must be scalar, got shape {exponent.shape}")
    b = base.values
    e = float(exponent.values.reshape(-1)[0])
    ab = np.abs(b)
    out = np.power(ab, e)

    def bw(g):
        nonzero = ab > 0.0
        gb = np.zeros_like(b)
        gb[nonzero] = g[nonzero] * e * np.power(ab[nonzero], e - 1.0) * np.sign(b[nonzero])
        ge_terms = np.zeros_like(b)
        ge_terms[nonzero] = g[nonzero] * out[nonzero] * np.log(ab[nonzero])
        ge = np.array(ge_terms.sum()).reshape(exponent.shape)
        return gb, ge

    return _make(out, (base, exponent), bw)


# ---------------------------------------------------------------------------
# reductions / shape ops
# ---------------------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(a % len(shape) for a in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.values.sum(axis=axis, keepdims=keepdims)
    return _make(np.asarray(out), (a,), lambda g: (_expand_reduced(g, a.shape, axis, keepdims).copy(),))


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.values.mean(axis=axis, keepdims=keepdims)
    count = a.size if axis is None else _axis_count(a.shape, axis)

    def bw(g):
        return (_expand_reduced(g, a.shape, axis, keepdims) / count,)

    return _make(np.asarray(out), (a,), bw)


def _axis_count(shape, axis) -> int:
    axes = axis if isinstance(axis, tuple) else (axis,)
    n = 1
    for ax in axes:
        n *= shape[ax % len(shape)]
    return n


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    try:
        out = np.concatenate([t.values for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in tensors]}") from exc
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(out, tuple(tensors), bw)


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    nd = a.values.ndim
    axis = axis % nd
    if not (0 <= start < stop <= a.shape[axis]):
        raise ShapeError(f"slice: range [{start}:{stop}] invalid for axis {axis} of shape {a.shape}")
    key = tuple(slice(start, stop) if i == axis else slice(None) for i in range(nd))
    out = a.values[key]

    def bw(g):
        full = np.zeros_like(a.values)
        full[key] = g
        return (full,)

    return _make(out, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    return _make(a.values.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes=None) -> Tensor:
    out = np.transpose(a.values, axes)
    if axes is None:
        inv = None
    else:
        inv = np.argsort(axes)
    return _make(out, (a,), lambda g: (np.transpose(g, inv),))


def take_rows(a: Tensor, indices) -> Tensor:
    """Row gather from a 2-D table (embedding lookup); scatter-add backward."""
    idx = np.asarray(indices, dtype=np.int64)
    if a.values.ndim != 2:
        raise ShapeError(f"take_rows: expected 2-D table, got shape {a.shape}")
    out = a.values[idx]

    def bw(g):
        full = np.zeros_like(a.values)
        np.add.at(full, idx, g)
        return (full,)

    return _make(out, (a,), bw)


def im2col(a: Tensor, kh: int, kw: int, stride: int = 1, pad: int = 0) -> Tensor:
    """(C, H, W) -> (C*kh*kw, OH*OW) patch matrix for convolution-as-matmul."""
    if a.values.ndim != 3:
        raise ShapeError(f"im2col: expected (C, H, W), got shape {a.shape}")
    c, h, w = a.shape
    ph, pw = h + 2 * pad, w + 2 * pad
    if ph < kh or pw < kw:
        raise ShapeError(f"im2col: kernel ({kh}, {kw}) larger than padded input ({ph}, {pw})")
    padded = np.pad(a.values, ((0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # (C, OH, OW, kh, kw)
    oh, ow = win.shape[1], win.shape[2]
    out = win.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, oh * ow)  # reshape of a transposed view copies

    def bw(g):
        gwin = g.reshape(c, kh, kw, oh, ow)
        gpad = np.zeros((c, ph, pw))
        for i in range(kh):
            for j in range(kw):
                gpad[:, i : i + oh * stride : stride, j : j + ow * stride : stride] += gwin[:, i, j]
        return (gpad[:, pad : pad + h, pad : pad + w],)

    return _make(out, (a,), bw)


# ---------------------------------------------------------------------------
# row-wise ops on 2-D matrices
# ---------------------------------------------------------------------------


def _require_2d(op_name: str, a: Tensor) -> None:
    if a.values.ndim != 2:
        raise ShapeError(f"{op_name}: expected a 2-D matrix, got shape {a.shape}")


def softmax_rows(a: Tensor) -> Tensor:
    _require_2d("softmax_rows", a)
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), bw)


def log_softmax_rows(a: Tensor) -> Tensor:
    _require_2d("log_softmax_rows", a)
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse

    def bw(g):
        soft = np.exp(out)
        return (g - soft * g.sum(axis=1, keepdims=True),)

    return _make(out, (a,), bw)


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Rows scaled to unit norm; all-zero rows pass through unchanged."""
    _require_2d("l2_normalize_rows", a)
    norms = np.sqrt((a.values * a.values).sum(axis=1, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)
    out = a.values / safe

    def bw(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        grad = (g - out * dot) / safe
        return (np.where(norms > 0.0, grad, 0.0),)

    return _make(out, (a,), bw)


def scalar_scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _make(a.values * factor, (a,), lambda g: (g * factor,))


def cross_entropy_identity(logits: Tensor) -> Tensor:
    """Mean row-wise cross entropy of a square logits matrix against identity targets.

    Reductions use math.fsum so the result is bit-identical under any
    simultaneous permutation of rows and columns.
    """
    _require_2d("cross_entropy_identity", logits)
    b, b2 = logits.shape
    if b != b2:
        raise ShapeError(f"cross_entropy_identity: logits must be square, got {logits.shape}")
    if b < 2:
        raise ContractError("cross_entropy_identity: batch must contain at least 2 samples")
    vals = logits.values
    row_max = vals.max(axis=1)
    shifted = vals - row_max[:, None]
    exps = np.exp(shifted)
    ces = [math.log(math.fsum(exps[i])) - shifted[i, i] for i in range(b)]
    out = np.asarray(math.fsum(ces) / b)

    def bw(g):
        soft = exps / exps.sum(axis=1, keepdims=True)
        grad = (soft - np.eye(b)) * (float(g) / b)
        return (grad,)

    return _make(out, (logits,), bw)
