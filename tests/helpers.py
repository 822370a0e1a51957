"""Shared test utilities: finite-difference oracles, reference implementations
that optimized code must match, and small run configs."""

from collections import Counter

import numpy as np

from tricl.bpe import _FIRST_MERGE_ID, _merge
from tricl.config import RunConfig
from tricl.optim import AdamW
from tricl.tensor import Tensor, add, backward, custom_op, matmul, reshape


def finite_difference(f, x0: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar function over a flat array."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    flat = x0.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        up = flat.copy()
        dn = flat.copy()
        up[i] += h
        dn[i] -= h
        gflat[i] = (f(up.reshape(x0.shape)) - f(dn.reshape(x0.shape))) / (2 * h)
    return grad


# an analytic gradient this small is zero up to float64 rounding; no FD step
# used here resolves a true gradient anywhere near it
ZERO_GRAD = 1e-12


def check_grad(build, params: list[Tensor], h: float = 1e-4, rtol: float = 1e-4,
               atol: float = 1e-6, probe_per_param: int | None = None, rng=None):
    """Compare analytic gradients of build() (a scalar Tensor) to central FD.

    `probe_per_param` limits FD probes to a random subset of entries per
    parameter, which keeps end-to-end checks fast. An entry whose analytic
    gradient is zero (below ZERO_GRAD) passes when the FD reading is within
    `atol` of it; elsewhere gradients below `atol` count as zero so FD
    rounding noise cannot dominate the relative error. Probes are written
    into each parameter's values in place, so a parameter that views a
    model's store stays a view. An existing gradient is zeroed in place, so a
    parameter that views an optimizer's buffer stays a view. Returns the
    worst relative error.
    """
    loss = build()
    for p in params:
        if p.grad is not None:
            p.grad[...] = 0.0
    backward(loss)
    base_values = [p.values.copy() for p in params]
    worst = 0.0
    for p, base in zip(params, base_values):
        assert p.grad is not None, f"no grad for {p.name}"
        flat = base.ravel()
        idx = range(flat.size)
        if probe_per_param is not None and flat.size > probe_per_param:
            rng = rng or np.random.default_rng(0)
            idx = rng.choice(flat.size, size=probe_per_param, replace=False)
        for i in idx:
            up = flat.copy()
            up[i] += h
            p.values[...] = up.reshape(base.shape)
            f_up = float(build().values)
            dn = flat.copy()
            dn[i] -= h
            p.values[...] = dn.reshape(base.shape)
            f_dn = float(build().values)
            p.values[...] = base
            fd = (f_up - f_dn) / (2 * h)
            an = float(p.grad.ravel()[i])
            if abs(an) < ZERO_GRAD:
                assert abs(fd - an) <= atol, f"{p.name}[{i}]: analytic {an} vs fd {fd} (abs {abs(fd - an):.2e})"
                continue
            denom = max(abs(fd), abs(an), atol)
            rel = abs(an - fd) / denom
            worst = max(worst, rel)
            assert rel <= rtol, f"{p.name}[{i}]: analytic {an} vs fd {fd} (rel {rel:.2e})"
    return worst


def plain_backward(loss: Tensor) -> None:
    """One-thread walk of the whole tape, branch nodes as identity nodes:
    ``tensor.backward`` must give the same gradients bitwise."""
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if p.requires_grad and id(p) not in visited)
    flow = {id(loss): np.ones_like(loss.values)}
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
            if pg is not None and parent.requires_grad:
                cur = flow.get(id(parent))
                flow[id(parent)] = pg if cur is None else cur + pg


def capture_optimizers(monkeypatch) -> list[AdamW]:
    """Every AdamW built while the patch holds, in order of construction."""
    built = []
    init = AdamW.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(AdamW, "__init__", capture)
    return built


def fbsp_kernel(x, params):
    """Closed-form Fbsp wavelet psi(x) = sqrt(f_b) * |sinc(f_b*x/m)|**m * exp(2*pi*i*f_c*x)
    at the current parameter values; scalar in -> complex scalar, array in -> complex array."""
    m = float(params.m.values)
    f_b = float(params.f_b.values)
    f_c = float(params.f_c.values)
    xs = np.asarray(x, dtype=np.float64)
    out = np.sqrt(f_b) * np.abs(np.sinc(f_b * xs / m)) ** m * np.exp(2j * np.pi * f_c * xs)
    if np.isscalar(x) or xs.ndim == 0:
        return complex(out)
    return out


def tiny_run_config(seed: int = 0, modalities: str = "tri", epochs: int = 1, lr: float = 1e-3,
                    batch_size: int = 4) -> RunConfig:
    """Desk-scale config: 0.05 s segments, 4 wavelet scales, small encoders."""
    return RunConfig.from_dict(
        {
            "preprocess": {
                "segment_seconds": 0.05,
                "overlap_seconds": 0.0,
                "frame_length_ms": 10.0,
                "frame_shift_ms": 5.0,
                "n_scales": 4,
                "fmin_hz": 500.0,
                "fmax_hz": 4000.0,
                "wavelet_hop": 160,
                "spec_input": "stft",
            },
            "encoder": {
                "d": 8,
                "conv_channels": (4, 6),
                "transformer_layers": 1,
                "transformer_heads": 2,
                "transformer_width": 16,
                "seed": seed,
            },
            "train": {
                "batch_size": batch_size,
                "epochs": epochs,
                "lr": lr,
                "seed": seed,
                "modalities": modalities,
                "vocab_size": 280,
                "max_tokens": 64,
            },
        }
    )


def im2col_conv(x: Tensor, w: Tensor, b: Tensor, kernel: int, stride: int, pad: int) -> Tensor:
    """Convolution as the four-op composition im2col -> matmul -> add -> reshape,
    with im2col's padded copy and nine-pass strided col2im; the reference
    ``tensor.conv2d`` must equal bitwise, forward and backward."""
    c, n, h, wd = x.shape
    padded = np.pad(x.values, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (C, N, OH, OW, kh, kw)
    oh, ow = win.shape[2], win.shape[3]

    def col2im(g):
        gwin = g.reshape(c, kernel, kernel, n, oh, ow)
        gpad = np.zeros(padded.shape)
        for i in range(kernel):
            for j in range(kernel):
                gpad[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += gwin[:, i, j]
        return (gpad[:, :, pad : pad + h, pad : pad + wd],)

    cols = custom_op(win.transpose(0, 4, 5, 1, 2, 3).reshape(c * kernel * kernel, n * oh * ow), (x,), col2im)
    return reshape(add(matmul(w, cols), b), (w.shape[0], n, oh, ow))


def train_bpe_reference(corpus: list[str], vocab_size: int) -> list[tuple[int, int]]:
    """Merge table of the plain BPE loop that counts byte pairs over every
    copy of every sentence; ``bpe.train_bpe`` must learn the same table."""
    sequences = [list(s.encode("utf-8")) for s in corpus]
    merges: list[tuple[int, int]] = []
    for _ in range(vocab_size - _FIRST_MERGE_ID):
        counts = Counter(pair for ids in sequences for pair in zip(ids, ids[1:]))
        if not counts:
            break
        pair = min(counts, key=lambda p: (-counts[p], p))
        if counts[pair] < 2:
            break
        merges.append(pair)
        sequences = [_merge(ids, pair, _FIRST_MERGE_ID + len(merges) - 1) for ids in sequences]
    return merges
