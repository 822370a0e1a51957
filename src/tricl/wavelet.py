"""Differentiable complex frequency B-spline (Fbsp) wavelet spectrograms.

The kernel is psi(x) = sqrt(f_b) * |sinc(f_b*x/m)|**m * exp(2*pi*i*f_c*x)
with the normalized sinc convention sin(pi*u)/(pi*u). The |.|**m envelope
coincides with the textbook sinc**m at the default integer order m=2 and
stays real-valued and differentiable for the learnable real-valued order.

The transform W(a, tau) = a**-0.5 * sum_n f(n) * conj(psi((n/fs - tau)/a)) / fs
(fs = dsp.TARGET_RATE)
is evaluated at tau = 0, hop, 2*hop, ... by folding. Once per batch,
``build_kernels`` samples psi at every scale's taps in one tape op on m, f_b
and f_c, whose backward is closed form, and lays each scale's scaled
conjugate kernel, real and imaginary part, into rows of ``hop`` taps.
``transform_with_kernels`` takes a batch of N equal-length segments, cuts
each zero-padded segment into rows of ``hop`` samples, multiplies the
rows of all N segments with the folded kernel rows in one matrix product per
half of a block of scales, and reads each frame as a sum down a diagonal of
that product. The kernel gradient is one transposed product per half block
over the whole batch.

Both stages work in two halves of the scales: the kernel build computes the
taps of whole scales in two runs cut nearest half the taps (the fold stays
whole), and the transform cuts each block of scales where it best evens the
two halves' folded rows, so each half has its own products, forward and
backward. From SPLIT_AT kernel taps on, the halves run on two threads
(``tensor.beside``), which uses the core that encoder tuning, inference and
evaluation otherwise leave idle; below it they run in turn on one. Each
scale's taps, folded rows, product columns and grid column belong to one
half and the psi(0) gradient is summed in scale order after both, so the
thread count changes no bit. The contrastive step builds the kernels and runs
the audio encoder on the worker, where ``beside`` runs both halves inline, so
its thread placement does not change. The cut is made on one thread too:
BLAS may round a product cut in two differently from the whole product when
a half is small (seen at hops 7 and 100 below 1e-13 relative), so only the
cut, never the thread count, decides the bits.

The transform is a single tape op whose parent is the vector of half kernels,
so gradients flow to m, f_b and f_c through the kernel samples only. Kernels
are truncated where the envelope drops below `truncation` of its peak: the
half width h is that distance rounded up to a whole tap (``ceil``), and the
last max(1, h//16) taps are tapered linearly, the outermost one to weight
1/(max(1, h//16) + 1), not to zero. Since h steps as m and f_b move, the
kernels and the loss are piecewise in m and f_b: they jump where a width
steps, and a finite difference across a step differs from the closed-form
gradient, which holds the widths fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import TARGET_RATE
from .errors import ConfigError, EmptyInputError, KernelSupportError, ShapeError
from .tensor import Tensor, beside, custom_op, records

M_FLOOR = 1.01
BAND_FLOOR = 1e-4
# summed half widths over all scales that build_kernels accepts: 3.6x the
# paper default (64 scales from 20 Hz, f_b = 0.5: 1.12 M taps). Widths grow
# as 1/f_b, so f_b at BAND_FLOOR would ask for gigabytes of kernels.
MAX_KERNEL_TAPS = 4_000_000
# elements per block of the batch's segment-by-kernel product (8 MB)
_BLOCK_ELEMS = 1_000_000
# kernel taps (summed half widths) from which the kernel build and the
# transform run the two halves of their work on two threads (tensor.beside);
# below it they run them in turn on one, with the same bits. The measured
# crossover on 2 cores lies between 12k taps (loses) and 25k taps (gains).
SPLIT_AT = 20_000


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


def _in_halves(taps: int, first, second) -> tuple:
    """``(first(), second())``: on two threads (``tensor.beside``, `first` on
    the worker) from SPLIT_AT kernel taps on, else in turn on this one."""
    if taps >= SPLIT_AT:
        return beside(first, second)
    return first(), second()


def _half_kernels(params: WaveletParams, half_widths, scales) -> Tensor:
    """psi at the positive-offset taps of every scale, re then im, then psi(0).

    One tape op whose parents are m, f_b and f_c. With u = pi * f_b * x / m,
    the tapered envelope env = sqrt(f_b) * |sinc u|**m * taper and the phase
    phi = 2 * pi * f_c * x, the halves are env * cos(phi) and env * sin(phi).
    The backward sums closed-form per-tap derivatives of log env
    (d log|sinc u| / d log u = u * cot(u) - 1) and of phi (2 * pi * x); a tap
    with sinc u = 0 contributes no gradient. Under no_grad none of the
    backward's per-tap factors are computed.

    Every per-tap step is elementwise, so the taps are computed in two runs of
    whole scales, cut at the scale boundary nearest half the taps, by
    ``_in_halves``.
    """
    m, f_b, f_c = params.m, params.f_b, params.f_c
    order = float(m.values)
    offsets = np.cumsum([0, *half_widths])
    total = int(offsets[-1])
    x = np.empty(total)
    env = np.empty(total)
    halves = np.empty(2 * total + 1)
    re, im = halves[:total], halves[total:-1]
    root_fb = np.sqrt(f_b.values)
    halves[-1] = root_fb  # psi(0) = sqrt(f_b)
    record = records((m, f_b, f_c))
    if record:
        d_m = np.empty(total)  # d log env / d m
        d_fb = np.empty(total)  # d log env / d f_b

    def fill(first: int, last: int) -> None:
        taps = slice(offsets[first], offsets[last])
        for h, a, o in zip(half_widths[first:last], scales[first:last], offsets[first:last]):
            x[o : o + h] = np.arange(1, h + 1, dtype=np.float64) / (TARGET_RATE * a)
        u = f_b.values * x[taps]
        u /= m.values
        u *= np.pi
        e = np.sin(u, out=env[taps])
        e /= u
        np.abs(e, out=e)  # |sinc u|
        if record:
            with np.errstate(divide="ignore", invalid="ignore"):  # taps with sinc u = 0 are zeroed below
                dlog = u / np.tan(u) - 1.0
                np.subtract(np.log(e), dlog, out=d_m[taps])
                np.divide(0.5 + order * dlog, f_b.values, out=d_fb[taps])
            zero = e == 0.0
            d_m[taps][zero] = 0.0
            d_fb[taps][zero] = 0.0
        np.power(e, order, out=e)
        for h, o in zip(half_widths[first:last], offsets[first:last]):
            k = np.arange(1, h + 1, dtype=np.float64)
            env[o : o + h] *= np.minimum(1.0, (h + 1 - k) / (max(1, h // 16) + 1))
        e *= root_fb
        phase = np.multiply(f_c.values, x[taps], out=u)
        phase *= 2.0 * np.pi
        np.cos(phase, out=re[taps])
        re[taps] *= e
        np.sin(phase, out=im[taps])
        im[taps] *= e

    cut = int(np.argmin(np.abs(2 * offsets - total)))  # the scale boundary nearest half the taps
    _in_halves(total, lambda: fill(0, cut), lambda: fill(cut, len(half_widths)))
    if not record:
        return Tensor(halves)

    def bw(g):
        g_re, g_im = g[:total], g[total:-1]
        g_log_env = g_re * re + g_im * im  # d loss / d log env per tap
        return (
            np.array(np.sum(g_log_env * d_m)),
            np.array(np.sum(g_log_env * d_fb) + 0.5 * g[-1] / root_fb),
            np.array(np.sum((g_im * re - g_re * im) * x) * (2.0 * np.pi)),
        )

    return custom_op(halves, (m, f_b, f_c), bw)


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
    """View (N, frames, width) of product[i, f + row + q, col + q]; frame f of
    segment i sums its row. `product` is C-contiguous; a view that would reach
    past its end raises ValueError."""
    step_seg, step_row, step_col = product.strides
    return np.ndarray((len(product), frames, width), np.float64, product, row * step_row + col * step_col,
                      (step_seg, step_row, step_row + step_col))


def _blocks(kernels: WaveletKernels, frames: int, batch: int):
    """Consecutive scale groups whose product block over the batch stays
    under _BLOCK_ELEMS; a single scale may exceed it.

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
        if group and batch * (hi - lo) * (k1 - k0) > _BLOCK_ELEMS:
            yield (*span(group), group)
            group = []
        group.append((j, k))
    yield (*span(group), group)


def _sides(blocks) -> tuple[list, list]:
    """The blocks' scales cut into two sides. Each block is cut at the scale
    boundary that best evens the two sides' folded rows so far: a lone block
    where it best halves its rows, a block of one scale whole to the lighter
    side. Both parts of a block keep its segment rows."""
    sides: tuple[list, list] = ([], [])
    rows = [0, 0]
    for lo, hi, k0, k1, group in blocks:
        bounds = [k0, *(k.start for _, k in group[1:]), k1]
        cut = min(range(len(bounds)), key=lambda c: abs(rows[0] - rows[1] + 2 * bounds[c] - k0 - k1))
        for side, part, a, b in ((0, group[:cut], k0, bounds[cut]), (1, group[cut:], bounds[cut], k1)):
            if part:
                sides[side].append((lo, hi, a, b, part))
                rows[side] += b - a
    return sides


def transform_with_kernels(samples, kernels: WaveletKernels, hop: int) -> Tensor:
    """Wavelet magnitude grids (N x frames x scales) of N equal-length
    segments, as one tape op. `samples` is an (N, n) array or a sequence of
    N 1-D arrays; each segment is copied once, straight into its padded rows.

    The scales are cut into two sides (``_sides``), each with its own
    products, forward and backward, run by ``_in_halves``. Each scale's
    product columns, grid column and taps belong to one side, and the psi(0)
    gradient is summed after both in scale order, so the thread count changes
    no bit."""
    if hop != kernels.hop:
        raise ConfigError(f"hop {hop} differs from the hop {kernels.hop} the kernels were folded for")
    shapes = {np.shape(segment) for segment in samples}
    if len(shapes) != 1 or len(next(iter(shapes))) != 1:
        raise ShapeError(f"segments in one batch need one dimension and equal lengths, got shapes {sorted(shapes)}")
    batch, (n,) = len(samples), shapes.pop()
    if n == 0:
        raise EmptyInputError("cannot transform an empty segment: it has no samples")
    frames = (n - 1) // hop + 1  # tau = 0, hop, 2*hop, ...
    pad = kernels.max_half
    n_rows = max(max(k.shift + k.rows for k in kernels) + frames - 1, -(-(pad + n) // hop))
    x = np.zeros((batch, n_rows * hop))
    for row, segment in zip(x, samples):
        row[pad : pad + n] = segment
    x = x.reshape(batch, n_rows, hop)
    first, second = _sides(_blocks(kernels, frames, batch))
    n_taps = sum(k.half_width for k in kernels)

    re = np.empty((batch, frames, len(kernels)))
    im = np.empty((batch, frames, len(kernels)))

    def forward(side) -> None:
        for lo, hi, k0, k1, group in side:
            product = (x[:, lo:hi].reshape(-1, hop) @ kernels.folded[k0:k1].T).reshape(batch, hi - lo, k1 - k0)
            for j, k in group:
                re[:, :, j] = _diagonals(product, k.shift - lo, k.start - k0, k.rows, frames).sum(axis=2)
                im[:, :, j] = _diagonals(product, k.shift - lo, k.start - k0 + k.rows, k.rows, frames).sum(axis=2)

    _in_halves(n_taps, lambda: forward(first), lambda: forward(second))
    mag = np.hypot(re, im)

    def bw(g):
        center = kernels.halves.size - 1  # psi(0); the im halves start at center // 2
        # complex modulus, with a zero subgradient at the origin
        scale = np.where(mag > 0.0, g / np.where(mag > 0.0, mag, 1.0), 0.0)
        g_re, g_im = scale * re, scale * im
        grad = np.zeros(kernels.halves.shape)

        def gather(side) -> list:
            """Each scale's re and im tap gradients into `grad`; returns its (scale, psi(0) term) pairs."""
            centers = []
            for lo, hi, k0, k1, group in side:
                d_product = np.zeros((batch, hi - lo, k1 - k0))
                for j, k in group:
                    _diagonals(d_product, k.shift - lo, k.start - k0, k.rows, frames)[...] = g_re[:, :, j, None]
                    _diagonals(d_product, k.shift - lo, k.start - k0 + k.rows, k.rows, frames)[...] = g_im[:, :, j, None]
                d_folded = d_product.reshape(-1, k1 - k0).T @ x[:, lo:hi].reshape(-1, hop)
                for j, k in group:
                    h = k.half_width
                    taps = slice(k.lead, k.lead + 2 * h + 1)
                    d_re = d_folded[k.start - k0 : k.start - k0 + k.rows].reshape(-1)[taps] * k.factor
                    d_im = d_folded[k.start - k0 + k.rows : k.start - k0 + 2 * k.rows].reshape(-1)[taps] * k.factor
                    im_offset = center // 2 + k.offset
                    grad[k.offset : k.offset + h] += d_re[h + 1 :] + d_re[:h][::-1]
                    grad[im_offset : im_offset + h] += d_im[:h][::-1] - d_im[h + 1 :]
                    centers.append((j, d_re[h]))
            return centers

        first_centers, second_centers = _in_halves(n_taps, lambda: gather(first), lambda: gather(second))
        for _, term in sorted(first_centers + second_centers):  # in scale order
            grad[center] += term
        return (grad,)

    return custom_op(mag, () if kernels.halves is None else (kernels.halves,), bw)


def default_scale_grid(n_scales: int = 64, fmin_hz: float = 20.0, fmax_hz: float = 7800.0) -> np.ndarray:
    """Ascending scales (seconds) for log-spaced pseudo-frequencies at f_c = 1."""
    if n_scales < 1 or fmin_hz <= 0 or fmax_hz <= fmin_hz:
        raise ConfigError(f"bad scale grid spec: n={n_scales}, range=({fmin_hz}, {fmax_hz})")
    freqs = np.geomspace(fmin_hz, fmax_hz, n_scales)
    return np.sort(1.0 / freqs)
