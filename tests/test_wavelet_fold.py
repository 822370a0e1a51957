"""Folded wavelet transform against a direct per-scale reference: hops from
1 to 1600, kernel gradients by finite differences, and the memory and
accuracy of one paper-default 30-s encode."""

import tracemalloc

import numpy as np
import pytest

from helpers import check_grad, fbsp_kernel, tiny_run_config
from tricl.config import EncoderConfig, PreprocessConfig
from tricl.dsp import TARGET_RATE, AudioSegment
from tricl.encoders import AudioEncoder
from tricl.errors import ConfigError, KernelSupportError
from tricl.store import trainable
from tricl.tensor import Tensor, mul, no_grad, tsum
from tricl.wavelet import (
    BAND_FLOOR,
    WaveletParams,
    build_kernels,
    default_scale_grid,
    support_half_width,
    transform_with_kernels,
)


def conj_kernel(params, scale, truncation, fs=16000):
    """Tapered, scaled conjugate kernel over offsets -h..h, straight from fbsp_kernel."""
    h = support_half_width(params, scale, truncation)
    j = np.arange(-h, h + 1)
    taper = np.minimum(1.0, (h + 1 - np.abs(j)) / (max(1, h // 16) + 1))
    return np.conj(fbsp_kernel(j / (fs * scale), params)) * taper / (fs * np.sqrt(scale)), h


def direct_transform(samples, params, scales, hop, truncation, fs=16000):
    """Per scale: the strided patch matrix times the conjugate kernel."""
    cols = []
    for a in scales:
        kernel, h = conj_kernel(params, a, truncation, fs)
        patches = np.lib.stride_tricks.sliding_window_view(np.pad(samples, h), 2 * h + 1)[::hop]
        cols.append(np.abs(patches @ kernel))
    return np.stack(cols, axis=1)


# (hop, samples, fmin, fmax, scales, truncation); kernel widths in taps are noted
CASES = [
    (1, 300, 2000.0, 4000.0, 3, 1e-2),  # 59-117, all wider than the hop
    (7, 1000, 1000.0, 4000.0, 4, 1e-3),  # 147-579; 1000 is not a multiple of 7
    (100, 2050, 400.0, 4000.0, 5, 5e-2),  # 33-303: narrower and wider than the hop
    (1600, 3000, 200.0, 4000.0, 6, 1e-4),  # 365-7243: narrower and wider
    (1600, 1000, 200.0, 4000.0, 6, 1e-4),  # segment shorter than the hop
    (1600, 6400, 2000.0, 7800.0, 4, 1e-4),  # 187-727: all narrower than the hop
]


@pytest.mark.parametrize("hop, n, fmin, fmax, n_scales, truncation", CASES)
def test_fold_matches_direct_reference(hop, n, fmin, fmax, n_scales, truncation):
    rng = np.random.default_rng(hop + n)
    samples = rng.standard_normal(n)
    params = WaveletParams.create(2.5, 0.7, 1.2)
    scales = default_scale_grid(n_scales, fmin, fmax)
    kernels = build_kernels(params, scales, hop, truncation=truncation)
    grid = transform_with_kernels(samples, kernels, hop).values
    ref = direct_transform(samples, params, scales, hop, truncation)
    assert grid.shape == ref.shape == ((n - 1) // hop + 1, n_scales)
    assert np.abs(grid - ref).max() <= 1e-12 * np.abs(ref).max()


def test_gradients_match_finite_differences_hop_wider_than_kernels():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal(1300) * 0.5
    scales = default_scale_grid(3, 600.0, 3000.0)
    hop = 400
    params = WaveletParams.create()
    kernels = build_kernels(params, scales, hop, truncation=5e-2)
    assert max(2 * k.half_width + 1 for k in kernels) < hop
    weights = Tensor(rng.standard_normal((4, 3)))

    def build():
        return tsum(mul(transform_with_kernels(samples, build_kernels(params, scales, hop, truncation=5e-2), hop), weights))

    worst = check_grad(build, list(trainable(params).values()), h=1e-4, rtol=1e-3)
    assert worst <= 1e-3


def test_hop_mismatch_rejected():
    kernels = build_kernels(WaveletParams.create(), default_scale_grid(3, 600.0, 3000.0), 100)
    with pytest.raises(ConfigError, match="hop"):
        transform_with_kernels(np.ones(500), kernels, 50)


def test_no_grad_build_keeps_no_half_kernels():
    params = WaveletParams.create()
    scales = default_scale_grid(4, 500.0, 4000.0)
    samples = np.random.default_rng(5).standard_normal(900)
    with no_grad():
        kernels = build_kernels(params, scales, 160)
        fast = transform_with_kernels(samples, kernels, 160).values
    assert kernels.halves is None
    taped = build_kernels(params, scales, 160)
    assert taped.halves is not None  # the transform's backward reads them
    np.testing.assert_array_equal(taped.folded, kernels.folded)
    np.testing.assert_array_equal(transform_with_kernels(samples, taped, 160).values, fast)


def test_paper_default_encode_memory_and_frames():
    pre = PreprocessConfig()  # 64 scales over 20-7800 Hz, hop 800, 30-s segments
    encoder = AudioEncoder(EncoderConfig(), pre, np.random.default_rng(0))
    samples = np.random.default_rng(1).standard_normal(int(pre.segment_seconds * TARGET_RATE))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with no_grad():
            kernels = encoder.build_kernels()
            encoder.encode([AudioSegment(samples)], kernels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * 2**20

    with no_grad():
        grid = transform_with_kernels(samples, kernels, pre.wavelet_hop).values
    hop = pre.wavelet_hop
    for f in (0, 317, grid.shape[0] - 1):
        direct = []
        for a in encoder.scale_grid:
            kernel, h = conj_kernel(encoder.wavelet, a, pre.wavelet_truncation)
            window = np.pad(samples, h)[f * hop : f * hop + 2 * h + 1]
            direct.append(abs(window @ kernel))
        assert np.abs(grid[f] - direct).max() <= 1e-12 * max(direct)


def test_band_floor_kernels_refused_before_allocation():
    """f_b clamped to its floor asks for 38 M taps on the tiny grid (gigabytes
    of kernels); the build names the parameters and allocates nothing."""
    config = tiny_run_config()
    encoder = AudioEncoder(config.encoder, config.preprocess, np.random.default_rng(0))
    encoder.wavelet.f_b.values[...] = 0.0
    encoder.wavelet.clamp()
    assert float(encoder.wavelet.f_b.values) == BAND_FLOOR
    tracemalloc.start()
    try:
        with pytest.raises(KernelSupportError, match=r"m=2, f_b=0\.0001 needs 38197189 kernel taps over 4 scales"):
            encoder.build_kernels()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
