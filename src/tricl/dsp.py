"""Audio-to-time-frequency preprocessing: framing, STFT, Mel banks, resampling.

All grids are frames x bins with time on axis 0. STFT grids hold window
magnitudes (Hann window); Mel grids project the power spectrum through
triangular filters. Inputs are mono float64 in [-1, 1] at 16 kHz.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.io.wavfile
import scipy.signal

from .errors import ConfigError, DataError, EmptyInputError, UnsupportedRateError

TARGET_RATE = 16000


@dataclass
class AudioSegment:
    """Mono window of 16 kHz samples, the unit of training and inference."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)


@dataclass
class Spectrogram:
    grid: np.ndarray  # frames x bins
    kind: str  # stft | mel

    @property
    def n_bins(self) -> int:
        return self.grid.shape[1]


def frame_signal(segment: AudioSegment, frame_length_ms: float, frame_shift_ms: float) -> np.ndarray:
    """Split into full frames (n_frames, frame_len); the tail is discarded."""
    frame_len = int(round(frame_length_ms * TARGET_RATE / 1000.0))
    frame_shift = int(round(frame_shift_ms * TARGET_RATE / 1000.0))
    if frame_shift <= 0 or frame_len <= 0:
        raise ConfigError(f"frame length/shift must be positive, got {frame_len}/{frame_shift} samples")
    n = len(segment.samples)
    if n < frame_len:
        raise EmptyInputError(f"segment of {n} samples shorter than one {frame_len}-sample frame")
    windows = np.lib.stride_tricks.sliding_window_view(segment.samples, frame_len)
    return windows[::frame_shift].copy()


def _fft_size_for(frame_len: int, fft_size: int | None) -> int:
    if fft_size is not None:
        if fft_size < frame_len:
            raise ConfigError(f"fft_size {fft_size} smaller than frame length {frame_len}")
        return fft_size
    n = 1
    while n < frame_len:
        n *= 2
    return n


def stft_spectrogram(
    segment: AudioSegment,
    frame_length_ms: float = 100.0,
    frame_shift_ms: float = 50.0,
    fft_size: int | None = None,
    log_magnitude: bool = False,
) -> Spectrogram:
    """Magnitude spectrogram: framing, Hann windowing, FFT, frames stacked on axis 0."""
    frames = frame_signal(segment, frame_length_ms, frame_shift_ms)
    frame_len = frames.shape[1]
    nfft = _fft_size_for(frame_len, fft_size)
    window = np.hanning(frame_len)
    grid = np.abs(scipy.fft.rfft(frames * window, n=nfft, axis=1))
    if log_magnitude:
        grid = np.log1p(grid)
    return Spectrogram(grid, "stft")


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(n_mels: int, fft_size: int) -> np.ndarray:
    """Triangular filters (n_mels, fft_size//2 + 1) on the mel scale up to Nyquist.

    Built once per (n_mels, fft_size) and shared: the array is read-only.
    """
    n_bins = fft_size // 2 + 1
    if n_mels < 1:
        raise ConfigError("n_mels must be >= 1")
    if n_mels > n_bins:
        raise ConfigError(f"n_mels={n_mels} exceeds {n_bins} FFT bins")
    edges_hz = _mel_to_hz(np.linspace(0.0, _hz_to_mel(TARGET_RATE / 2.0), n_mels + 2))
    bin_hz = np.fft.rfftfreq(fft_size, d=1.0 / TARGET_RATE)
    fb = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lo, mid, hi = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        up = (bin_hz - lo) / max(mid - lo, 1e-12)
        down = (hi - bin_hz) / max(hi - mid, 1e-12)
        fb[i] = np.maximum(0.0, np.minimum(up, down))
        if fb[i].sum() <= 0.0:
            # very narrow filter between bin centers: anchor it at the nearest bin
            fb[i, int(np.argmin(np.abs(bin_hz - mid)))] = 1.0
    fb.flags.writeable = False
    return fb


def mel_spectrogram(
    segment: AudioSegment,
    n_mels: int = 300,
    frame_length_ms: float = 100.0,
    frame_shift_ms: float = 50.0,
    fft_size: int | None = None,
    log_magnitude: bool = False,
) -> Spectrogram:
    stft = stft_spectrogram(segment, frame_length_ms, frame_shift_ms, fft_size)
    nfft = 2 * (stft.n_bins - 1)
    fb = mel_filterbank(n_mels, nfft)
    grid = (stft.grid**2) @ fb.T
    if log_magnitude:
        grid = np.log1p(grid)
    return Spectrogram(grid, "mel")


def resample_to_16k(samples: np.ndarray, src_rate_hz: int) -> np.ndarray:
    """Downsample to 16 kHz via Fourier resampling (ideal low-pass + decimation)."""
    if src_rate_hz < TARGET_RATE:
        raise UnsupportedRateError(f"source rate {src_rate_hz} Hz below 16000 Hz; only downsampling is supported")
    samples = np.asarray(samples, dtype=np.float64)
    if src_rate_hz == TARGET_RATE:
        return samples.copy()
    num = int(round(len(samples) * TARGET_RATE / src_rate_hz))
    return scipy.signal.resample(samples, num)


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read 16-bit PCM mono WAV -> (float64 samples in [-1, 1], rate)."""
    try:
        rate, data = scipy.io.wavfile.read(path)
    except (OSError, ValueError) as exc:
        raise DataError(f"unreadable WAV {path}: {exc}") from exc
    if data.ndim != 1:
        raise DataError(f"{path}: {data.shape[1]}-channel WAV; mix down to mono first")
    if data.dtype != np.int16:
        raise DataError(f"{path}: expected 16-bit PCM, got dtype {data.dtype}")
    return data.astype(np.float64) / 32768.0, int(rate)


def write_wav(path, samples: np.ndarray, rate: int = TARGET_RATE) -> None:
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    quantized = np.clip(np.round(clipped * 32768.0), -32768, 32767)
    scipy.io.wavfile.write(path, rate, quantized.astype(np.int16))
