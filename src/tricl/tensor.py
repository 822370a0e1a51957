"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A dynamic tape: every operation builds a new ``Tensor`` node holding the
forward values plus a closure that maps the node's output gradient to
gradients for its parents (``None`` for a parent that needs none).
``backward`` walks the tape in reverse topological order and accumulates
into ``.grad`` of the leaves only: interior gradients live in a per-call
table and are freed once consumed. A leaf's existing ``.grad`` (for a
parameter, a view of its optimizer's buffer) is added to in place, a leaf
without one gets a copy; only the optimizer resets gradients.

A tape lives as long as its loss. A node holds its parents and nothing
holds a node's children, so the graph is freed when the last reference to
its loss goes, not by ``backward``: a second ``backward`` on the same loss
accumulates again.

``cross_entropy`` is the one softmax cross-entropy op: contrastive training
applies it to each similarity matrix against identity targets, classifier
tuning to head logits against class indices.

``conv2d`` is the one convolution op, a single tape node per layer: one
read-only strided patch-matrix view (``np.ndarray`` over the padded buffer,
which checks the view against it) and one GEMM forward; dW, db and a tap-by-tap
scatter of dX backward, each summed in a fixed order.

Two threads. ``beside`` runs one function on a single worker thread that
this module owns while another runs on the caller's thread, and joins both.
``branch`` marks an encoder's output as the root of an independent
subgraph: ``backward`` walks the loss head down to the branch nodes, then
walks each branch's subgraph from the gradient its node received, the
branches marked ``on_worker`` on the worker thread beside the rest. Every
node's gradient is summed in the order of a plain walk of the same graph,
so the result is bitwise that walk's. Grad mode is per thread; a worker
task runs in its caller's mode. Two callers use ``beside``: the contrastive
step (``trainer.batch_loss`` and its branch walk) and ``optim.AdamW.step``
for a large store. Neither calls it from the worker, but a call there runs
both functions on the worker in turn: with one worker, a task that waited
on a second one would wait forever.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ShapeError


class _ThreadState(threading.local):
    grad_enabled = True
    on_worker = False


_THREAD = _ThreadState()


@contextmanager
def no_grad():
    """Disable tape recording inside the block on this thread (inference fast path)."""
    prev = _THREAD.grad_enabled
    _THREAD.grad_enabled = False
    try:
        yield
    finally:
        _THREAD.grad_enabled = prev


# The worker thread is created on first use. A forked child inherits the
# executor but not its thread, so the child drops it and starts its own.
_WORKER: ThreadPoolExecutor | None = None


def _drop_worker() -> None:
    global _WORKER
    _WORKER = None


os.register_at_fork(after_in_child=_drop_worker)


def beside(on_worker, here):
    """Run ``on_worker()`` on the worker thread while ``here()`` runs on this
    one; return ``(on_worker(), here())``.

    The worker task is always joined before this returns. An exception from
    ``here`` propagates in preference to one from the worker, which it names
    in a note; otherwise the worker's exception propagates with its own
    type. Called on the worker thread itself, both run there, one after the
    other.
    """
    global _WORKER
    if _THREAD.on_worker:
        return on_worker(), here()
    if _WORKER is None:
        _WORKER = ThreadPoolExecutor(1, thread_name_prefix="tricl-worker")
    grad_enabled = _THREAD.grad_enabled

    def task():
        _THREAD.on_worker = True
        _THREAD.grad_enabled = grad_enabled
        return on_worker()

    future = _WORKER.submit(task)
    try:
        mine = here()
    except BaseException as exc:
        lost = future.exception()  # joins the worker
        if lost is not None:
            exc.add_note(f"the worker task also raised {lost!r}")
        raise
    return future.result(), mine


class Tensor:
    """A node of the computation tape.

    values: float64 ndarray, row-major. grad: same-shape ndarray or None;
    ``backward`` fills it on leaves only. Leaves created with
    requires_grad=True are trainable parameters; an optimizer points their
    ``grad`` at its buffer, and rebinding it detaches them from that buffer.
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

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def records(parents) -> bool:
    """Whether an op on `parents` goes on the tape: grad mode is on and some
    parent requires grad. An op that keeps intermediates only for its
    backward asks this before computing them."""
    return _THREAD.grad_enabled and any(p.requires_grad for p in parents)


def _make(values: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(values)
    if records(parents):
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


class Branch(Tensor):
    """Identity node on the output of an independent subgraph; see ``branch``."""

    __slots__ = ("on_worker",)


def branch(a: Tensor, on_worker: bool = False) -> Tensor:
    """Mark `a` as the root of a subgraph that ``backward`` walks on its own,
    on the worker thread when `on_worker`. Returns `a` itself when no tape
    is recorded."""
    if not records((a,)):
        return a
    out = Branch(a.values)
    out.requires_grad = True
    out._parents = (a,)
    out._backward = lambda g: (g,)
    out.on_worker = on_worker
    return out


def _sort(root: Tensor, owner: dict[int, int], walk: int) -> tuple[list[Tensor], list[Branch]]:
    """Post-order of the requires_grad nodes reachable from `root`; each is
    claimed for `walk` in `owner`, and one claimed by another walk is a
    ContractError. Walk 0, the loss head, stops at branch nodes and returns
    them; a branch node inside a branch is an identity node of that branch.
    """
    topo: list[Tensor] = []
    branches: list[Branch] = []
    # iterative; graphs can be deeper than the recursion limit
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        claimed = owner.get(id(node))
        if claimed == walk:
            continue
        if claimed is not None:
            raise ContractError(f"two branches, or a branch and the loss head, reach the same node {node!r}")
        owner[id(node)] = walk
        stack.append((node, True))
        if walk == 0 and node is not root and isinstance(node, Branch):
            branches.append(node)
            continue
        for p in node._parents:
            if p.requires_grad and owner.get(id(p)) != walk:
                stack.append((p, False))
    return topo, branches


def _walk(topo: list[Tensor], flow: dict[int, np.ndarray]) -> None:
    """Pass gradients down `topo` in reverse; a gradient for a node outside
    `topo` stays in `flow`."""
    for node in reversed(topo):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.grad is None:
                node.grad = g.copy()
            else:
                node.grad += g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            cur = flow.get(id(parent))
            flow[id(parent)] = pg if cur is None else cur + pg


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/dx into .grad of every reachable requires_grad leaf.

    Interior nodes' ``.grad`` is never written: their gradients live in the
    walk's flow table and are dropped once passed on to their parents. The
    head is walked first, then the branches (see ``branch``); both threads
    are joined before this returns. Two branches, or a branch and the head,
    that reach the same requires_grad node raise ContractError before any
    gradient is written.
    """
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    owner: dict[int, int] = {}
    head, branches = _sort(loss, owner, 0)
    topos = [_sort(b._parents[0], owner, walk)[0] for walk, b in enumerate(branches, 1)]
    # per-call flow table so repeated backward() calls accumulate correctly
    flow: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    _walk(head, flow)

    def walk_branches(on_worker: bool) -> None:
        # each branch node passed its gradient on to its input, the last node of its topo
        for b, topo in zip(branches, topos):
            root = id(topo[-1])
            if b.on_worker == on_worker and root in flow:
                _walk(topo, {root: flow[root]})

    if any(b.on_worker for b in branches):
        beside(lambda: walk_branches(True), lambda: walk_branches(False))
    else:
        walk_branches(False)


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


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.values)
    return _make(out, (a,), lambda g: (g * 0.5 / out,))


def absval(a: Tensor) -> Tensor:
    return _make(np.abs(a.values), (a,), lambda g: (g * np.sign(a.values),))


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


def transpose(a: Tensor) -> Tensor:
    return _make(a.values.T, (a,), lambda g: (g.T,))


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


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _patches(padded: np.ndarray, kernel: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Read-only (C, k, k, N, OH, OW) view of padded[c, n, stride*y + i, stride*x + j]
    over a (C, N, H, W) array, made contiguous first if it is not."""
    padded = np.ascontiguousarray(padded)
    s_c, s_n, s_h, s_w = padded.strides
    view = np.ndarray((padded.shape[0], kernel, kernel, padded.shape[1], oh, ow), np.float64, padded, 0,
                      (s_c, s_h, s_w, s_n, s_h * stride, s_w * stride))
    view.flags.writeable = False
    return view


def conv2d(x: Tensor, w: Tensor, b: Tensor, kernel: int, stride: int = 1, pad: int = 0) -> Tensor:
    """Square-kernel convolution of a (C, N, H, W) batch as one tape op.

    `w` is (C_out, C*kernel*kernel) with columns ordered (c, i, j) and `b`
    is (C_out, 1); the output is (C_out, N, OH, OW). The forward copies the
    input once into a zeroed padded buffer (not at all when pad is 0), reads
    the (C*k*k, N*OH*OW) patch matrix through one strided view and runs one
    GEMM. The backward gives dW = (cols @ gᵀ)ᵀ, db = row sums of g and dX from
    one GEMM against W's columns reordered to (i, j, c), so that each tap's
    gradient plane is contiguous, scattered onto the padded grid tap by tap.
    Under no_grad nothing is kept for the backward.
    """
    if x.values.ndim != 4:
        raise ShapeError(f"conv2d: expected (C, N, H, W), got shape {x.shape}")
    c, n, h, wd = x.shape
    if w.values.ndim != 2 or w.shape[1] != c * kernel * kernel or b.shape != (w.shape[0], 1):
        raise ShapeError(f"conv2d: weight {w.shape} and bias {b.shape} do not fit {c} channels at kernel {kernel}")
    ph, pw = h + 2 * pad, wd + 2 * pad
    if ph < kernel or pw < kernel:
        raise ShapeError(f"conv2d: kernel ({kernel}, {kernel}) larger than padded input ({ph}, {pw})")
    c_out = w.shape[0]
    oh, ow = (ph - kernel) // stride + 1, (pw - kernel) // stride + 1
    if pad:
        padded = np.zeros((c, n, ph, pw))
        padded[:, :, pad : pad + h, pad : pad + wd] = x.values
    else:
        padded = x.values
    cols = _patches(padded, kernel, stride, oh, ow).reshape(c * kernel * kernel, n * oh * ow)  # copies
    out = w.values @ cols
    out += b.values
    out = out.reshape(c_out, n, oh, ow)
    if not records((x, w, b)):
        return Tensor(out)

    def bw(g):
        g = g.reshape(c_out, n * oh * ow)
        dw = (cols @ g.T).T if w.requires_grad else None  # faster than g @ cols.T, same bits
        db = g.sum(axis=1, keepdims=True) if b.requires_grad else None
        dx = None
        if x.requires_grad:
            w_taps = w.values.reshape(c_out, c, kernel, kernel).transpose(0, 2, 3, 1).reshape(c_out, -1)
            planes = (w_taps.T @ g).reshape(kernel, kernel, c, n, oh, ow)
            gpad = np.zeros((c, n, ph, pw))
            for i in range(kernel):
                for j in range(kernel):
                    gpad[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += planes[i, j]
            dx = gpad[:, :, pad : pad + h, pad : pad + wd]
        return dx, dw, db

    return _make(out, (x, w, b), bw)


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


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Rows scaled to unit norm; a zero-norm row is a contract violation."""
    _require_2d("l2_normalize_rows", a)
    norms = np.sqrt((a.values * a.values).sum(axis=1, keepdims=True))
    if not norms.all():
        raise ContractError(f"zero-norm row {int(np.argmin(norms))} of {len(norms)}: no direction to normalize")
    out = a.values / norms

    def bw(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return ((g - out * dot) / norms,)

    return _make(out, (a,), bw)


def scalar_scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _make(a.values * factor, (a,), lambda g: (g * factor,))


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean row-wise cross entropy of (N, K) logits against integer class targets.

    Reductions use math.fsum, so the result is bit-identical under any
    permutation of the rows that permutes the targets alike.
    """
    _require_2d("cross_entropy", logits)
    n = logits.shape[0]
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n,):
        raise ShapeError(f"cross_entropy: {targets.size} targets for {n} rows")
    rows = np.arange(n)
    shifted = logits.values - logits.values.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    ces = [math.log(math.fsum(e)) - s for e, s in zip(exps, shifted[rows, targets])]
    out = np.asarray(math.fsum(ces) / n)

    def bw(g):
        grad = exps / exps.sum(axis=1, keepdims=True)
        grad[rows, targets] -= 1.0
        return (grad * (float(g) / n),)

    return _make(out, (logits,), bw)
