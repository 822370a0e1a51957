"""Differentiable complex frequency B-spline (Fbsp) wavelet spectrograms.

The kernel is psi(x) = sqrt(f_b) * |sinc(f_b*x/m)|**m * exp(2*pi*i*f_c*x)
with the normalized sinc convention sin(pi*u)/(pi*u). The |.|**m envelope
coincides with the textbook sinc**m at the default integer order m=2 and
stays real-valued and differentiable for the learnable real-valued order.

The transform W(a, tau) = a**-0.5 * sum_n f(n) * conj(psi((n/fs - tau)/a)) / fs
(fs = dsp.TARGET_RATE)
is evaluated at tau = 0, hop, 2*hop, ... by folding. ``build_kernels`` lays
each scale's scaled conjugate kernel, real and imaginary part, into rows of
``hop`` taps once per batch. ``transform_with_kernels`` cuts the zero-padded
segment into rows of ``hop`` samples, multiplies them with every folded
kernel row in one matrix product, and reads each frame as a sum down a
diagonal of that product. The kernel gradient is the transposed product.
The transform is a single tape op whose parent is the vector of half kernels,
so gradients flow to m, f_b and f_c through the kernel samples only. Kernels
are truncated where the envelope drops below `truncation` of its peak and
smoothly tapered to zero at the edge, which keeps finite-difference checks on
the order and bandwidth parameters stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import TARGET_RATE
from .errors import ConfigError, EmptyInputError, KernelSupportError
from .tensor import (
    Tensor,
    abs_pow,
    concat,
    cos,
    custom_op,
    div,
    mul,
    reshape,
    scalar_scale,
    sin,
    sqrt,
)

M_FLOOR = 1.01
BAND_FLOOR = 1e-4
# summed half widths over all scales that build_kernels accepts: 3.6x the
# paper default (64 scales from 20 Hz, f_b = 0.5: 1.12 M taps). Widths grow
# as 1/f_b, so f_b at BAND_FLOOR would ask for gigabytes of kernels.
MAX_KERNEL_TAPS = 4_000_000
# elements per block of the segment-by-kernel product (8 MB)
_BLOCK_ELEMS = 1_000_000


@dataclass
class WaveletParams:
    """Learnable Fbsp parameters: order m, bandwidth f_b, center frequency f_c."""

    m: Tensor
    f_b: Tensor
    f_c: Tensor

    @classmethod
    def create(cls, m: float = 2.0, f_b: float = 0.5, f_c: float = 1.0) -> "WaveletParams":
        return cls(
            m=Tensor(float(m), requires_grad=True, name="wavelet.m"),
            f_b=Tensor(float(f_b), requires_grad=True, name="wavelet.f_b"),
            f_c=Tensor(float(f_c), requires_grad=True, name="wavelet.f_c"),
        )

    def clamp(self) -> None:
        """Keep the parameterization valid after an optimizer step."""
        np.maximum(self.m.values, M_FLOOR, out=self.m.values)
        np.maximum(self.f_b.values, BAND_FLOOR, out=self.f_b.values)
        np.maximum(self.f_c.values, BAND_FLOOR, out=self.f_c.values)


def support_half_width(params: WaveletParams, scale: float, truncation: float) -> int:
    """Samples until the envelope falls below `truncation` of its peak."""
    m = float(params.m.values)
    f_b = float(params.f_b.values)
    # |sinc(u)|**m <= (1/(pi*u))**m == truncation at u = truncation**(-1/m)/pi
    x_max = m * truncation ** (-1.0 / m) / (np.pi * f_b)
    return max(1, int(np.ceil(x_max * scale * TARGET_RATE)))


@dataclass
class ScaleKernel:
    """Where one scale's kernel sits in the half-kernel vector and the folded rows.

    With P the widest half width, P - half_width = shift * hop + lead: the
    kernel starts `lead` taps into its first folded row and is read against
    segment rows from `shift` on.
    """

    half_width: int
    factor: float  # 1 / (fs * sqrt(a)) for scale a
    offset: int  # first tap of the re half (and, H further on, the im half) in `halves`
    start: int  # first folded row of the re part; the im part follows `rows` later
    rows: int
    shift: int
    lead: int


@dataclass
class WaveletKernels:
    """Every scale's conjugate kernel for one hop, shared by a batch of segments."""

    scales: list[ScaleKernel]
    hop: int
    max_half: int
    halves: Tensor | None  # re half kernels of all scales, then im, then psi(0); None under no_grad
    folded: np.ndarray  # (2 * sum(rows), hop) scaled conjugate kernels, re and im per scale

    def __iter__(self):
        return iter(self.scales)

    def __len__(self) -> int:
        return len(self.scales)


def build_kernels(
    params: WaveletParams,
    scale_grid,
    hop: int,
    truncation: float = 1e-4,
) -> WaveletKernels:
    """Sampled conjugate kernels per scale, folded into rows of `hop` taps."""
    if hop < 1:
        raise ConfigError(f"hop must be >= 1, got {hop}")
    scales = np.asarray(list(scale_grid), dtype=np.float64)
    if scales.size == 0:
        raise ConfigError("scale grid is empty")
    if np.any(scales <= 0) or np.any(np.diff(scales) <= 0):
        raise ConfigError("scale grid must be positive and strictly ascending")

    half_widths = [support_half_width(params, a, truncation) for a in scales]
    taps = sum(half_widths)
    if taps > MAX_KERNEL_TAPS:
        raise KernelSupportError(
            f"wavelet m={float(params.m.values):.6g}, f_b={float(params.f_b.values):.6g} needs {taps} kernel taps "
            f"over {len(scales)} scales, more than the {MAX_KERNEL_TAPS} allowed"
        )
    halves = _half_kernels(params, half_widths, scales)
    return _fold(halves, half_widths, scales, hop)


def _half_kernels(params: WaveletParams, half_widths, scales) -> Tensor:
    """psi at the positive-offset taps of every scale, re then im, then psi(0).

    One elementwise graph over all scales; its intermediates are freed on
    return, before the kernels are folded.
    """
    x_half = np.concatenate(
        [np.arange(1, h + 1, dtype=np.float64) / (TARGET_RATE * a) for h, a in zip(half_widths, scales)]
    )
    u = scalar_scale(div(mul(params.f_b, Tensor(x_half)), params.m), np.pi)
    tapers = []
    for h in half_widths:
        k = np.arange(1, h + 1, dtype=np.float64)
        tapers.append(np.minimum(1.0, (h + 1 - k) / (max(1, h // 16) + 1)))
    body = mul(abs_pow(div(sin(u), u), params.m), Tensor(np.concatenate(tapers)))
    root_fb = sqrt(params.f_b)
    env = mul(root_fb, body)
    phase = scalar_scale(mul(params.f_c, Tensor(x_half)), 2.0 * np.pi)
    return concat([mul(env, cos(phase)), mul(env, sin(phase)), reshape(root_fb, (1,))])  # psi(0) = sqrt(f_b)


def _fold(halves: Tensor, half_widths, scales, hop: int) -> WaveletKernels:
    max_half = max(half_widths)
    total = (halves.size - 1) // 2  # H taps per part
    layout = []
    offset = start = 0
    for half, a in zip(half_widths, scales):
        shift, lead = divmod(max_half - half, hop)
        rows = -(-(lead + 2 * half + 1) // hop)
        layout.append(ScaleKernel(half, 1.0 / (TARGET_RATE * np.sqrt(a)), offset, start, rows, shift, lead))
        offset += half
        start += 2 * rows

    vals = halves.values
    folded = np.zeros((start, hop))
    for k in layout:
        h = k.half_width
        re_h = vals[k.offset : k.offset + h]
        im_h = vals[total + k.offset : total + k.offset + h]
        re = folded[k.start : k.start + k.rows].reshape(-1)[k.lead : k.lead + 2 * h + 1]
        im = folded[k.start + k.rows : k.start + 2 * k.rows].reshape(-1)[k.lead : k.lead + 2 * h + 1]
        re[:h] = re_h[::-1]  # envelope and cosine are even
        re[h] = vals[-1]  # psi(0)
        re[h + 1 :] = re_h
        im[:h] = im_h[::-1]  # conj flips the odd sine
        im[h + 1 :] = -im_h
        re *= k.factor
        im *= k.factor
    return WaveletKernels(layout, hop, max_half, halves if halves.requires_grad else None, folded)


def _diagonals(product: np.ndarray, row: int, col: int, width: int, frames: int) -> np.ndarray:
    """View (frames, width) of product[f + row + q, col + q]; frame f sums its row."""
    base = product[row:, col:]
    step_row, step_col = product.strides
    return np.lib.stride_tricks.as_strided(base, (frames, width), (step_row, step_row + step_col))


def _blocks(kernels: WaveletKernels, frames: int):
    """Consecutive scale groups whose product block stays under _BLOCK_ELEMS.

    Yields (first segment row, last segment row + 1, first folded row,
    last folded row + 1, [(column, scale kernel), ...]) per group.
    """

    def span(group):
        lo = min(k.shift for _, k in group)
        hi = max(k.shift + k.rows for _, k in group) + frames - 1
        return lo, hi, group[0][1].start, group[-1][1].start + 2 * group[-1][1].rows

    group: list[tuple[int, ScaleKernel]] = []
    for j, k in enumerate(kernels):
        lo, hi, k0, k1 = span(group + [(j, k)])
        if group and (hi - lo) * (k1 - k0) > _BLOCK_ELEMS:
            yield (*span(group), group)
            group = []
        group.append((j, k))
    yield (*span(group), group)


def transform_with_kernels(samples: np.ndarray, kernels: WaveletKernels, hop: int) -> Tensor:
    """Wavelet magnitude grid (frames x scales) as one tape op per segment."""
    if hop != kernels.hop:
        raise ConfigError(f"hop {hop} differs from the hop {kernels.hop} the kernels were folded for")
    samples = np.asarray(samples, dtype=np.float64)
    n = len(samples)
    if n == 0:
        raise EmptyInputError("cannot transform an empty segment: it has no samples")
    frames = (n - 1) // hop + 1  # tau = 0, hop, 2*hop, ...
    pad = kernels.max_half
    n_rows = max(max(k.shift + k.rows for k in kernels) + frames - 1, -(-(pad + n) // hop))
    x = np.zeros(n_rows * hop)
    x[pad : pad + n] = samples
    x = x.reshape(n_rows, hop)
    blocks = list(_blocks(kernels, frames))

    re = np.empty((frames, len(kernels)))
    im = np.empty((frames, len(kernels)))
    for lo, hi, k0, k1, group in blocks:
        product = x[lo:hi] @ kernels.folded[k0:k1].T
        for j, k in group:
            re[:, j] = _diagonals(product, k.shift - lo, k.start - k0, k.rows, frames).sum(axis=1)
            im[:, j] = _diagonals(product, k.shift - lo, k.start - k0 + k.rows, k.rows, frames).sum(axis=1)
    mag = np.hypot(re, im)

    def bw(g):
        center = kernels.halves.size - 1  # psi(0); the im halves start at center // 2
        # complex modulus, with a zero subgradient at the origin
        scale = np.where(mag > 0.0, g / np.where(mag > 0.0, mag, 1.0), 0.0)
        g_re, g_im = scale * re, scale * im
        grad = np.zeros(kernels.halves.shape)
        for lo, hi, k0, k1, group in blocks:
            d_product = np.zeros((hi - lo, k1 - k0))
            for j, k in group:
                _diagonals(d_product, k.shift - lo, k.start - k0, k.rows, frames)[...] = g_re[:, j, None]
                _diagonals(d_product, k.shift - lo, k.start - k0 + k.rows, k.rows, frames)[...] = g_im[:, j, None]
            d_folded = d_product.T @ x[lo:hi]
            for _, k in group:
                h = k.half_width
                taps = slice(k.lead, k.lead + 2 * h + 1)
                d_re = d_folded[k.start - k0 : k.start - k0 + k.rows].reshape(-1)[taps] * k.factor
                d_im = d_folded[k.start - k0 + k.rows : k.start - k0 + 2 * k.rows].reshape(-1)[taps] * k.factor
                im_offset = center // 2 + k.offset
                grad[k.offset : k.offset + h] += d_re[h + 1 :] + d_re[:h][::-1]
                grad[im_offset : im_offset + h] += d_im[:h][::-1] - d_im[h + 1 :]
                grad[center] += d_re[h]
        return (grad,)

    return custom_op(mag, () if kernels.halves is None else (kernels.halves,), bw)


def default_scale_grid(n_scales: int = 64, fmin_hz: float = 20.0, fmax_hz: float = 7800.0) -> np.ndarray:
    """Ascending scales (seconds) for log-spaced pseudo-frequencies at f_c = 1."""
    if n_scales < 1 or fmin_hz <= 0 or fmax_hz <= fmin_hz:
        raise ConfigError(f"bad scale grid spec: n={n_scales}, range=({fmin_hz}, {fmax_hz})")
    freqs = np.geomspace(fmin_hz, fmax_hz, n_scales)
    return np.sort(1.0 / freqs)
