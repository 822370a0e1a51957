"""Differentiable complex frequency B-spline (Fbsp) wavelet spectrograms.

The kernel is psi(x) = sqrt(f_b) * |sinc(f_b*x/m)|**m * exp(2*pi*i*f_c*x)
with the normalized sinc convention sin(pi*u)/(pi*u). The |.|**m envelope
coincides with the textbook sinc**m at the default integer order m=2 and
stays real-valued and differentiable for the learnable real-valued order.

The transform W(a, tau) = a**-0.5 * sum_n f(n) * conj(psi((n/fs - tau)/a)) / fs
is evaluated as a patch-matrix/kernel-vector product per scale, so gradients
flow to m, f_b and f_c through the kernel vectors only. Kernels are truncated
where the envelope drops below `truncation` of its peak and smoothly tapered
to zero at the edge, which keeps finite-difference checks on the order and
bandwidth parameters stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyInputError
from .tensor import (
    Tensor,
    abs_pow,
    complex_abs,
    concat,
    cos,
    div,
    flip,
    matmul,
    mul,
    neg,
    reshape,
    scalar_scale,
    sin,
    sqrt,
)

M_FLOOR = 1.01
BAND_FLOOR = 1e-4
# rows per matmul block so patch-matrix copies stay below ~32 MB
_BLOCK_ELEMS = 4_000_000


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
        self.m.values = np.maximum(self.m.values, M_FLOOR)
        self.f_b.values = np.maximum(self.f_b.values, BAND_FLOOR)
        self.f_c.values = np.maximum(self.f_c.values, BAND_FLOOR)

    def tensors(self) -> dict[str, Tensor]:
        return {"wavelet.m": self.m, "wavelet.f_b": self.f_b, "wavelet.f_c": self.f_c}


def fbsp_kernel(x, params: WaveletParams):
    """Evaluate psi(x); scalar in -> complex scalar, array in -> complex array."""
    m = float(params.m.values)
    f_b = float(params.f_b.values)
    f_c = float(params.f_c.values)
    xs = np.asarray(x, dtype=np.float64)
    env = np.sqrt(f_b) * np.abs(np.sinc(f_b * xs / m)) ** m
    out = env * np.exp(2j * np.pi * f_c * xs)
    if np.isscalar(x) or xs.ndim == 0:
        return complex(out)
    return out


def support_half_width(params: WaveletParams, scale: float, sample_rate_hz: int, truncation: float) -> int:
    """Samples until the envelope falls below `truncation` of its peak."""
    m = float(params.m.values)
    f_b = float(params.f_b.values)
    # |sinc(u)|**m <= (1/(pi*u))**m == truncation at u = truncation**(-1/m)/pi
    x_max = m * truncation ** (-1.0 / m) / (np.pi * f_b)
    return max(1, int(np.ceil(x_max * scale * sample_rate_hz)))


@dataclass
class ScaleKernel:
    kre: Tensor  # (width, 1) real part of conj(psi) sampled over the support
    kim: Tensor  # (width, 1) imaginary part
    half_width: int
    scale: float


def build_kernels(
    params: WaveletParams,
    scale_grid,
    sample_rate_hz: int = 16000,
    truncation: float | None = 1e-4,
    max_half_width: int | None = None,
) -> list[ScaleKernel]:
    """Sampled conjugate kernels per scale, shared by every segment of a batch."""
    scales = np.asarray(list(scale_grid), dtype=np.float64)
    if scales.size == 0:
        raise ConfigError("scale grid is empty")
    if np.any(scales <= 0) or np.any(np.diff(scales) <= 0):
        raise ConfigError("scale grid must be positive and strictly ascending")

    kernels = []
    for a in scales:
        if truncation is None:
            half = max_half_width
            if half is None:
                raise ConfigError("untruncated kernels need an explicit max_half_width")
        else:
            half = support_half_width(params, a, sample_rate_hz, truncation)
            if max_half_width is not None:
                half = min(half, max_half_width)
        x_half = np.arange(1, half + 1, dtype=np.float64) / (sample_rate_hz * a)

        u = scalar_scale(div(mul(params.f_b, Tensor(x_half)), params.m), np.pi)
        sinc = div(sin(u), u)
        body = abs_pow(sinc, params.m)
        if truncation is not None:
            ramp = max(1, half // 16)
            k = np.arange(1, half + 1, dtype=np.float64)
            taper = np.minimum(1.0, (half + 1 - k) / (ramp + 1))
            body = mul(body, Tensor(taper))
        root_fb = sqrt(params.f_b)
        env = mul(root_fb, body)
        phase = scalar_scale(mul(params.f_c, Tensor(x_half)), 2.0 * np.pi)
        kre_h = mul(env, cos(phase))
        kim_h = mul(env, sin(phase))

        center_re = reshape(root_fb, (1,))  # psi(0) = sqrt(f_b)
        center_im = Tensor(np.zeros(1))
        kre = concat([flip(kre_h), center_re, kre_h])  # envelope and cosine are even
        kim = neg(concat([neg(flip(kim_h)), center_im, kim_h]))  # conj flips the odd sine

        width = 2 * half + 1
        kernels.append(
            ScaleKernel(
                kre=reshape(kre, (width, 1)),
                kim=reshape(kim, (width, 1)),
                half_width=half,
                scale=float(a),
            )
        )
    return kernels


def _blocked_matmul(view: np.ndarray, kernel: Tensor) -> Tensor:
    """Patch-matrix product in row blocks to bound the strided-copy footprint."""
    rows, width = view.shape
    block = max(1, _BLOCK_ELEMS // max(1, width))
    if rows <= block:
        return matmul(Tensor(view), kernel)
    parts = [matmul(Tensor(view[s : s + block]), kernel) for s in range(0, rows, block)]
    return concat(parts, axis=0)


def transform_with_kernels(
    samples: np.ndarray,
    kernels: list[ScaleKernel],
    hop: int,
    sample_rate_hz: int = 16000,
) -> Tensor:
    """Wavelet magnitude grid (frames x scales) as a tape tensor."""
    if hop < 1:
        raise ConfigError(f"hop must be >= 1, got {hop}")
    samples = np.asarray(samples, dtype=np.float64)
    n = len(samples)
    if n == 0:
        raise EmptyInputError("cannot transform an empty segment: it has no samples")
    max_half = max(k.half_width for k in kernels)
    padded = np.pad(samples, max_half)

    cols = []
    for k in kernels:
        width = 2 * k.half_width + 1
        lo = max_half - k.half_width
        windows = np.lib.stride_tricks.sliding_window_view(padded[lo : lo + n + 2 * k.half_width], width)
        view = windows[::hop]  # frame positions tau = 0, hop, 2*hop, ...
        factor = 1.0 / (sample_rate_hz * np.sqrt(k.scale))
        re = scalar_scale(_blocked_matmul(view, k.kre), factor)
        im = scalar_scale(_blocked_matmul(view, k.kim), factor)
        cols.append(complex_abs(re, im))
    return concat(cols, axis=1)


def default_scale_grid(n_scales: int = 64, fmin_hz: float = 20.0, fmax_hz: float = 7800.0) -> np.ndarray:
    """Ascending scales (seconds) for log-spaced pseudo-frequencies at f_c = 1."""
    if n_scales < 1 or fmin_hz <= 0 or fmax_hz <= fmin_hz:
        raise ConfigError(f"bad scale grid spec: n={n_scales}, range=({fmin_hz}, {fmax_hz})")
    freqs = np.geomspace(fmin_hz, fmax_hz, n_scales)
    return np.sort(1.0 / freqs)
