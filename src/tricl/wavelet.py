"""Differentiable complex frequency B-spline (Fbsp) wavelet spectrograms.

The kernel is psi(x) = sqrt(f_b) * |sinc(f_b*x/m)|**m * exp(2*pi*i*f_c*x)
with the normalized sinc convention sin(pi*u)/(pi*u). The |.|**m envelope
coincides with the textbook sinc**m at the default integer order m=2 and
stays real-valued and differentiable for the learnable real-valued order.

The transform W(a, tau) = a**-0.5 * sum_n f(n) * conj(psi((n/fs - tau)/a)) / fs
(fs = dsp.TARGET_RATE) is evaluated at tau = 0, hop, 2*hop, ... by folding,
in two tape ops that each own one layout:

* ``build_kernels`` maps m, f_b and f_c to the folded rows
  (``WaveletKernels.folded``), once per ``AudioEncoder.encode`` call: it
  samples psi at every scale's taps and lays each scale's scaled conjugate
  kernel, re and im, into rows of ``hop`` taps. Its backward maps the rows'
  gradient back onto the taps and sums closed-form derivatives over them.
  Only it knows the taps.
* ``transform_with_kernels`` maps the folded rows to the grids of N
  equal-length segments: it cuts each zero-padded segment into rows of
  ``hop`` samples, multiplies all N segments' rows with the kernel rows in
  one matrix product per block of scales (``_blocks``), and reads each frame as
  a sum down a diagonal of that product. Its backward, the rows' gradient, is
  one transposed product per block. Only it knows the segment rows.

Both ops run wholly on the thread that calls them.

A build that records no tape (under ``no_grad``, or with m, f_b and f_c
outside the trained store) is memoised: ``build_kernels`` keeps the last
such build, with its rows read-only, and returns it while the exact bits of
m, f_b and f_c, the scale grid's bytes, the hop and the truncation stay the
same. So inference and evaluation build once per wavelet state, and a frozen
wavelet once per run. The memo holds one build (1.6 MB of rows at the
experiment preset, 36.8 MB at the paper default); a build that records a tape
never reads it and empties it, so training keeps no tape-free build alive.

Kernels are truncated where the envelope drops below `truncation` of its
peak: the half width h is that distance rounded up to a whole tap
(``ceil``), and the last max(1, h//16) taps are tapered linearly, the
outermost one to weight 1/(max(1, h//16) + 1), not to zero. Since h steps as
m and f_b move, the kernels and the loss are piecewise in m and f_b: they
jump where a width steps, and a finite difference across a step differs from
the closed-form gradient, which holds the widths fixed.

The build samples psi on a tap grid: each scale's taps k = 1..h fill rows of
``_TAP_ROW`` (64), the last row padded, and ``_TAP_BLOCK_ROWS`` rows are
evaluated at a time, so no temporary exceeds 2 MB at any grid size. A
tap's u = pi * f_b * x / m and phi = 2 * pi * f_c * x grow as k, so with
k = 64 * q + r + 1 the sines and cosines come by angle addition,
exp(i(a + b)) = exp(ia) * exp(ib), from libm values at the row's k = 64 * q
and the column's r + 1 alone: about 4 * (T/64 + 64 * scales) libm calls for
T taps, not 3 * T. x and u keep the bits of the per-tap formula, and so do
tan(u) and the gradient factors built on it; |sinc u|**m is
exp(m * log|sinc u|). Against one libm sin and cos per tap
(``tests/helpers.psi_taps_reference``) the taps move by about 1e-15 of the
kernel peak at the preset and paper-default wavelets, and by up to 7e-15 as
2 * f_c * m / f_b grows to 24 (f_c = 3) or 28 (f_b near
``MAX_KERNEL_TAPS``), because phi then spans more turns where the envelope
is large and both forms round phi to the same relative precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import TARGET_RATE
from .errors import ConfigError, EmptyInputError, KernelSupportError, ShapeError
from .tensor import Tensor, custom_op, records

M_FLOOR = 1.01
BAND_FLOOR = 1e-4
# summed half widths over all scales that build_kernels accepts: 3.6x the
# paper default (64 scales from 20 Hz, f_b = 0.5: 1.12 M taps). Widths grow
# as 1/f_b, so f_b at BAND_FLOOR would ask for gigabytes of kernels.
MAX_KERNEL_TAPS = 4_000_000
# elements per block of the batch's segment-by-kernel product (8 MB)
_BLOCK_ELEMS = 1_000_000
# taps per row of the tap grid, and rows per block of it that _psi_taps
# evaluates at once (1 MB per real temporary, 2 MB per complex one)
_TAP_ROW = 64
_TAP_BLOCK_ROWS = 2048
# the last tape-free build as (key, kernels), or (): replaced whole, never
# changed in place, so either thread reads a key with its own kernels
_memo: tuple = ()


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
    """Where one scale's kernel sits in the build's taps and in the folded rows.

    With P the widest half width, P - half_width = shift * hop + lead: the
    kernel starts `lead` taps into its first folded row and is read against
    segment rows from `shift` on.
    """

    half_width: int
    factor: float  # 1 / (fs * sqrt(a)) for scale a
    offset: int  # first of its positive-offset taps in the tap grid (build_kernels only)
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
    folded: Tensor  # (2 * sum(rows), hop) scaled conjugate kernels, re and im per scale; taped unless no_grad

    def __iter__(self):
        return iter(self.scales)

    def __len__(self) -> int:
        return len(self.scales)


def build_kernels(params: WaveletParams, scale_grid, hop: int, truncation: float = 1e-4) -> WaveletKernels:
    """Sampled conjugate kernels per scale, folded into rows of `hop` taps.
    A tape-free build is the memoised one while its key holds (module
    docstring)."""
    global _memo
    if hop < 1:
        raise ConfigError(f"hop must be >= 1, got {hop}")
    scales = np.asarray(list(scale_grid), dtype=np.float64)
    if scales.size == 0:
        raise ConfigError("scale grid is empty")
    if np.any(scales <= 0) or np.any(np.diff(scales) <= 0):
        raise ConfigError("scale grid must be positive and strictly ascending")
    record = records((params.m, params.f_b, params.f_c))
    key = (*(p.values.tobytes() for p in (params.m, params.f_b, params.f_c)), scales.tobytes(), hop,
           np.float64(truncation).tobytes())
    memo = _memo  # read once: a key with its own kernels
    if record:
        _memo = ()
    elif memo and memo[0] == key:
        return memo[1]

    half_widths = [support_half_width(params, a, truncation) for a in scales]
    taps = sum(half_widths)
    if taps > MAX_KERNEL_TAPS:
        raise KernelSupportError(
            f"wavelet m={float(params.m.values):.6g}, f_b={float(params.f_b.values):.6g} needs {taps} kernel taps "
            f"over {len(scales)} scales, more than the {MAX_KERNEL_TAPS} allowed"
        )
    max_half = max(half_widths)
    layout = []
    offset = start = 0
    for half, a in zip(half_widths, scales):
        shift, lead = divmod(max_half - half, hop)
        rows = -(-(lead + 2 * half + 1) // hop)
        layout.append(ScaleKernel(half, 1.0 / (TARGET_RATE * np.sqrt(a)), offset, start, rows, shift, lead))
        offset += -(-half // _TAP_ROW) * _TAP_ROW
        start += 2 * rows
    kernels = WaveletKernels(layout, hop, max_half, _folded_kernels(params, layout, scales, (start, hop)))
    if not record:
        kernels.folded.values.flags.writeable = False
        _memo = (key, kernels)
    return kernels


def _psi_taps(params: WaveletParams, layout: list[ScaleKernel], scales, record: bool) -> tuple:
    """psi times each scale's `factor` at its positive offsets
    x = k / (fs * a), k = 1..h, on the tap grid (module docstring): flat
    ``(re, im)``, and when `record` also x, d log env / d m and
    d log env / d f_b, with scale k's taps from ``k.offset`` on; re and im
    are 0 on the rest of its last row. With u = pi * f_b * x / m, the
    tapered envelope env = sqrt(f_b) * |sinc u|**m * taper and the phase
    phi = 2 * pi * f_c * x, re = env * cos(phi) * factor and
    im = env * sin(phi) * factor."""
    m, f_b, f_c = params.m.values, params.f_b.values, params.f_c.values
    halves = np.array([k.half_width for k in layout])
    rows = -(-halves // _TAP_ROW)
    scale = np.repeat(np.arange(len(layout)), rows)  # each row's scale
    n = len(scale)
    first = (np.arange(n) - np.repeat(np.cumsum(rows) - rows, rows)) * float(_TAP_ROW)  # a row's k are first + cols
    cols = np.arange(1, _TAP_ROW + 1, dtype=np.float64)
    fs_a = TARGET_RATE * np.asarray(scales, dtype=np.float64)

    def turns(x):  # exp(i u) and exp(i phi) at x, u and phi computed as for the taps below
        return [np.exp(1j * a) for a in (f_b * x / m * np.pi, f_c * x * (2.0 * np.pi))]

    # a tap's u and phi are its row's first plus its column's: cos and sin run on these tables alone
    (u_row, phi_row), (u_col, phi_col) = turns(first / fs_a[scale]), turns(cols / fs_a[:, None])
    phi_row *= np.sqrt(f_b) * np.array([k.factor for k in layout])[scale]
    # the taper min(1, (h + 1 - k) / (w + 1)), w = max(1, h // 16), and 0 past h, on the rows it reaches
    ramp = np.maximum(1, halves // 16)
    tail = np.flatnonzero(first + _TAP_ROW > (halves - ramp)[scale])
    taper = ((halves + 1.0)[scale[tail], None] - (first[tail, None] + cols)) / (ramp + 1.0)[scale[tail], None]
    np.clip(taper, 0.0, 1.0, out=taper)
    out = [np.empty((n, _TAP_ROW)) for _ in range(5 if record else 2)]
    for lo in range(0, n, _TAP_BLOCK_ROWS):  # bounds the temporaries
        rs = slice(lo, lo + _TAP_BLOCK_ROWS)
        s = scale[rs]
        x = np.add(first[rs, None], cols, out=out[2][rs] if record else None)
        x /= fs_a[s, None]
        u = f_b * x
        u /= m
        u *= np.pi
        turn = u_col[s]
        turn *= u_row[rs, None]
        env = np.abs(turn.imag)
        env /= u  # |sinc u|
        with np.errstate(divide="ignore"):  # log 0 = -inf, and exp(m * -inf) = 0
            log_env = np.log(env)
        if record:
            with np.errstate(divide="ignore", invalid="ignore"):  # taps with sinc u = 0 are zeroed below
                dlog = np.tan(u)
                np.divide(u, dlog, out=dlog)
                dlog -= 1.0
                np.subtract(log_env, dlog, out=out[3][rs])
                np.divide(0.5 + m * dlog, f_b, out=out[4][rs])
            zero = env == 0.0
            out[3][rs][zero] = 0.0
            out[4][rs][zero] = 0.0
        log_env *= m
        np.exp(log_env, out=env)  # |sinc u|**m
        t0, t1 = np.searchsorted(tail, (lo, lo + _TAP_BLOCK_ROWS))
        env[tail[t0:t1] - lo] *= taper[t0:t1]
        turn = phi_col[s]
        turn *= phi_row[rs, None]
        np.multiply(turn.real, env, out=out[0][rs])
        np.multiply(turn.imag, env, out=out[1][rs])
    return tuple(a.reshape(-1) for a in out)


def _folded_kernels(params: WaveletParams, layout: list[ScaleKernel], scales, shape) -> Tensor:
    """The folded kernel rows, as one tape op whose parents are m, f_b and f_c.

    A scale's re kernel is its mirrored re taps (``_psi_taps``, already
    scaled by `factor`), psi(0) = sqrt(f_b) times `factor`, and its re taps;
    its im kernel is its mirrored im taps, 0 and its negated im taps (conj
    flips the odd sine). The backward maps the rows' gradient back onto the
    taps (mirrored halves added, the psi(0) terms summed in scale order),
    then sums closed-form per-tap derivatives of log env
    (d log|sinc u| / d log u = u * cot(u) - 1) and of phi (2 * pi * x); a tap
    with sinc u = 0 contributes no gradient. Under no_grad none of the
    backward's per-tap factors are computed.
    """
    m, f_b, f_c = params.m, params.f_b, params.f_c
    record = records((m, f_b, f_c))
    re, im, *saved = _psi_taps(params, layout, scales, record)
    root_fb = np.sqrt(f_b.values)  # psi(0)
    hop = shape[1]
    centers = [k.start * hop + k.lead + k.half_width for k in layout]  # psi(0) in the flat re rows
    folded = np.zeros(shape)
    flat = folded.reshape(-1)
    for k, c in zip(layout, centers):
        h, o, c_im = k.half_width, k.offset, c + k.rows * hop
        flat[c + 1 : c + h + 1] = re[o : o + h]
        flat[c - h : c] = re[o : o + h][::-1]  # envelope and cosine are even
        np.negative(im[o : o + h], out=flat[c_im + 1 : c_im + h + 1])
        flat[c_im - h : c_im] = im[o : o + h][::-1]
    flat[centers] = root_fb * np.array([k.factor for k in layout])
    if not record:
        return Tensor(folded)
    x, d_m, d_fb = saved

    def bw(g):
        g = g.reshape(-1)
        g_re, g_im = np.zeros(len(x)), np.zeros(len(x))
        g_center = 0.0  # psi(0)'s, summed in scale order
        for k, c in zip(layout, centers):
            h, o, c_im = k.half_width, k.offset, c + k.rows * hop
            np.add(g[c + 1 : c + h + 1], g[c - h : c][::-1], out=g_re[o : o + h])
            np.subtract(g[c_im - h : c_im][::-1], g[c_im + 1 : c_im + h + 1], out=g_im[o : o + h])
            g_center += g[c] * k.factor
        g_log_env = g_re * re + g_im * im  # d loss / d log env per tap
        return (
            np.array(np.sum(g_log_env * d_m)),
            np.array(np.sum(g_log_env * d_fb) + 0.5 * g_center / root_fb),
            np.array(np.sum((g_im * re - g_re * im) * x) * (2.0 * np.pi)),
        )

    return custom_op(folded, (m, f_b, f_c), bw)


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


def transform_with_kernels(samples, kernels: WaveletKernels, hop: int) -> Tensor:
    """Wavelet magnitude grids (N x frames x scales) of N equal-length
    segments, as one tape op whose parent is ``kernels.folded``. `samples`
    is an (N, n) array or a sequence of N 1-D arrays; each segment is copied
    once, straight into its padded rows. The scales run in the blocks of
    ``_blocks``: one product per block forward, one per block backward."""
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
    folded = kernels.folded.values
    blocks = list(_blocks(kernels, frames, batch))

    re = np.empty((batch, frames, len(kernels)))
    im = np.empty((batch, frames, len(kernels)))
    for lo, hi, k0, k1, group in blocks:
        product = (x[:, lo:hi].reshape(-1, hop) @ folded[k0:k1].T).reshape(batch, hi - lo, k1 - k0)
        for j, k in group:
            re[:, :, j] = _diagonals(product, k.shift - lo, k.start - k0, k.rows, frames).sum(axis=2)
            im[:, :, j] = _diagonals(product, k.shift - lo, k.start - k0 + k.rows, k.rows, frames).sum(axis=2)
    mag = np.hypot(re, im)

    def bw(g):
        # complex modulus, with a zero subgradient at the origin
        scale = np.where(mag > 0.0, g / np.where(mag > 0.0, mag, 1.0), 0.0)
        g_re, g_im = scale * re, scale * im
        d_folded = np.empty(folded.shape)  # the blocks' rows tile it
        for lo, hi, k0, k1, group in blocks:
            d_product = np.zeros((batch, hi - lo, k1 - k0))
            for j, k in group:
                _diagonals(d_product, k.shift - lo, k.start - k0, k.rows, frames)[...] = g_re[:, :, j, None]
                _diagonals(d_product, k.shift - lo, k.start - k0 + k.rows, k.rows, frames)[...] = g_im[:, :, j, None]
            np.matmul(d_product.reshape(-1, k1 - k0).T, x[:, lo:hi].reshape(-1, hop), out=d_folded[k0:k1])
        return (d_folded,)

    return custom_op(mag, (kernels.folded,), bw)


def default_scale_grid(n_scales: int = 64, fmin_hz: float = 20.0, fmax_hz: float = 7800.0) -> np.ndarray:
    """Ascending scales (seconds) for log-spaced pseudo-frequencies at f_c = 1."""
    if n_scales < 1 or fmin_hz <= 0 or fmax_hz <= fmin_hz:
        raise ConfigError(f"bad scale grid spec: n={n_scales}, range=({fmin_hz}, {fmax_hz})")
    freqs = np.geomspace(fmin_hz, fmax_hz, n_scales)
    return np.sort(1.0 / freqs)
