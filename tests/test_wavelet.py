"""Wavelet frontend: kernel identities, brute-force transform oracle,
finite-difference gradients through the tape."""

import numpy as np
import pytest

from helpers import check_grad
from tricl.errors import ConfigError
from tricl.tensor import Tensor, backward, mul, tsum
from tricl.wavelet import (
    WaveletParams,
    build_kernels,
    default_scale_grid,
    fbsp_kernel,
    support_half_width,
    transform_with_kernels,
)


def brute_force_transform(samples, m, f_b, f_c, scales, hop, fs=16000):
    """Untruncated direct Riemann sum with the integer-order kernel."""
    n = len(samples)
    taus = np.arange(0, n, hop) / fs
    t = np.arange(n) / fs
    out = np.zeros((len(taus), len(scales)))
    for si, a in enumerate(scales):
        for ti, tau in enumerate(taus):
            x = (t - tau) / a
            psi = np.sqrt(f_b) * np.sinc(f_b * x / m) ** m * np.exp(2j * np.pi * f_c * x)
            out[ti, si] = np.abs(np.sum(samples * np.conj(psi)) / (fs * np.sqrt(a)))
    return out


def test_kernel_at_zero_is_sqrt_fb():
    params = WaveletParams.create()  # defaults m=2, f_b=0.5, f_c=1
    assert fbsp_kernel(0.0, params) == complex(np.sqrt(0.5))


def test_kernel_modulus_even():
    params = WaveletParams.create(2.7, 0.8, 1.3)
    xs = np.linspace(0.1, 30.0, 50)
    np.testing.assert_allclose(np.abs(fbsp_kernel(xs, params)), np.abs(fbsp_kernel(-xs, params)), rtol=1e-12)


def test_kernel_matches_closed_form():
    params = WaveletParams.create()
    for x in (0.25, 1.5, -3.2):
        expect = np.sqrt(0.5) * np.sinc(0.5 * x / 2.0) ** 2 * np.exp(2j * np.pi * x)
        assert abs(fbsp_kernel(x, params) - expect) < 1e-12


class TestTransformOracle:
    def test_short_signal_matches_brute_force(self):
        rng = np.random.default_rng(42)
        samples = rng.standard_normal(256) * 0.3
        params = WaveletParams.create()
        scales = default_scale_grid(6, 300.0, 4000.0)
        grid = transform_with_kernels(samples, build_kernels(params, scales, hop=32), hop=32).values
        oracle = brute_force_transform(samples, 2.0, 0.5, 1.0, scales, 32)
        rel = np.abs(grid - oracle).max() / np.abs(oracle).max()
        assert rel <= 1e-3

    def test_truncation_within_tolerance_on_longer_signal(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(4096) * 0.3
        params = WaveletParams.create()
        scales = [1.0 / 4000, 1.0 / 2000]
        assert support_half_width(params, scales[1], 16000, 1e-4) < 2048  # truncation active
        grid = transform_with_kernels(samples, build_kernels(params, scales, hop=256), hop=256).values
        oracle = brute_force_transform(samples, 2.0, 0.5, 1.0, scales, 256)
        rel = np.abs(grid - oracle).max() / np.abs(oracle).max()
        assert rel <= 1e-3

    def test_tone_peaks_at_matching_pseudo_frequency(self):
        t = np.arange(4096) / 16000
        tone = np.sin(2 * np.pi * 1000 * t)
        scales = default_scale_grid(16, 200.0, 4000.0)
        grid = transform_with_kernels(tone, build_kernels(WaveletParams.create(), scales, hop=512), hop=512).values
        pseudo = 1.0 / np.asarray(scales)
        peak = pseudo[grid.mean(axis=0).argmax()]
        assert 800.0 <= peak <= 1250.0


def test_zero_signal_zero_grid_zero_grads():
    params = WaveletParams.create()
    grid = transform_with_kernels(np.zeros(512), build_kernels(params, default_scale_grid(4, 500, 4000), hop=128), hop=128)
    assert np.abs(grid.values).max() == 0.0
    backward(tsum(grid))
    for t in params.tensors().values():
        assert float(t.grad) == 0.0


def test_empty_scale_grid_rejected():
    with pytest.raises(ConfigError):
        build_kernels(WaveletParams.create(), [], hop=1)


def test_descending_scales_rejected():
    with pytest.raises(ConfigError):
        build_kernels(WaveletParams.create(), [0.01, 0.005], hop=1)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(400) * 0.5
    scales = default_scale_grid(3, 600.0, 3000.0)
    weights = Tensor(rng.standard_normal((np.ceil(400 / 100).astype(int), 3)))
    params = WaveletParams.create()

    def build():
        return tsum(mul(transform_with_kernels(samples, build_kernels(params, scales, hop=100), hop=100), weights))

    worst = check_grad(build, list(params.tensors().values()), h=1e-4, rtol=1e-3)
    assert worst <= 1e-3


def test_clamp_restores_valid_ranges():
    params = WaveletParams.create()
    params.m.values = np.asarray(0.5)
    params.f_b.values = np.asarray(-1.0)
    params.clamp()
    assert float(params.m.values) >= 1.01
    assert float(params.f_b.values) > 0.0


def test_default_grid_spans_requested_band():
    grid = default_scale_grid(64, 20.0, 7800.0)
    assert len(grid) == 64
    assert np.all(np.diff(grid) > 0)
    np.testing.assert_allclose(1.0 / grid[0], 7800.0)
    np.testing.assert_allclose(1.0 / grid[-1], 20.0)
