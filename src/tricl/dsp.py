"""Audio-to-time-frequency preprocessing: framing, STFT, Mel banks,
resampling and 16-bit WAV I/O, on numpy and the standard library alone.

All grids are frames x bins with time on axis 0. STFT grids hold window
magnitudes (Hann window); Mel grids project the power spectrum through
triangular filters. Inputs are mono float64 in [-1, 1] at 16 kHz.

Each routine matches its scipy counterpart bit for bit, and the tests
compare them (scipy is a test-only dependency): the STFT's ``np.fft.rfft``
equals ``scipy.fft.rfft``, ``resample_to_16k`` is the real-input branch of
``scipy.signal.resample``, and ``write_wav``'s stdlib ``wave`` writer makes
the bytes of ``scipy.io.wavfile.write``. ``read_wav`` walks the RIFF chunks
itself, because ``wave`` (Python 3.11) rejects the WAVE_FORMAT_EXTENSIBLE
header that many recorders write.
"""

from __future__ import annotations

import functools
import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


def frame_samples(ms: float) -> int:
    """A frame length or shift of `ms` milliseconds in samples at TARGET_RATE."""
    return int(round(ms * TARGET_RATE / 1000.0))


def frame_signal(segment: AudioSegment, frame_length_ms: float, frame_shift_ms: float) -> np.ndarray:
    """Split into full frames (n_frames, frame_len); the tail is discarded."""
    frame_len = frame_samples(frame_length_ms)
    frame_shift = frame_samples(frame_shift_ms)
    if frame_shift <= 0 or frame_len <= 0:
        raise ConfigError(f"frame length/shift must be positive, got {frame_len}/{frame_shift} samples")
    n = len(segment.samples)
    if n < frame_len:
        raise EmptyInputError(f"segment of {n} samples shorter than one {frame_len}-sample frame")
    windows = np.lib.stride_tricks.sliding_window_view(segment.samples, frame_len)
    return windows[::frame_shift].copy()


def fft_size_for(frame_len: int, fft_size: int | None) -> int:
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
    nfft = fft_size_for(frame_len, fft_size)
    window = np.hanning(frame_len)
    grid = np.abs(np.fft.rfft(frames * window, n=nfft, axis=1))
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
    """Downsample to 16 kHz via Fourier resampling (ideal low-pass + decimation).

    The real-input branch of ``scipy.signal.resample``: keep the spectrum up
    to the new Nyquist bin, fold an unpaired Nyquist bin's pair into it, and
    scale by the length ratio.
    """
    if src_rate_hz < TARGET_RATE:
        raise UnsupportedRateError(f"source rate {src_rate_hz} Hz below 16000 Hz; only downsampling is supported")
    samples = np.asarray(samples, dtype=np.float64)
    if src_rate_hz == TARGET_RATE:
        return samples.copy()
    n = len(samples)
    num = int(round(n * TARGET_RATE / src_rate_hz))
    if num == 0:
        raise EmptyInputError(f"{n} samples at {src_rate_hz} Hz resample to no samples at {TARGET_RATE} Hz")
    spectrum = np.fft.rfft(samples)[: num // 2 + 1]
    if num % 2 == 0 and num != n:
        spectrum[num // 2] *= 2
    return np.fft.irfft(spectrum / (n / num), n=num)


_PCM, _EXTENSIBLE = 1, 0xFFFE
# the sub-format GUID of a WAVE_FORMAT_EXTENSIBLE header holding plain PCM
_PCM_GUID = struct.pack("<I", _PCM) + bytes.fromhex("0000 1000 8000 00aa 0038 9b71")


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read 16-bit PCM mono WAV -> (float64 samples in [-1, 1], rate).

    The fmt chunk may be plain PCM (format tag 1) or WAVE_FORMAT_EXTENSIBLE
    (0xFFFE) with the PCM sub-format; chunks other than fmt and data are
    skipped. A data chunk cut short yields the whole samples present. Any
    other layout, depth, format or channel count is a ``DataError``.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"unreadable WAV {path}: {exc}") from exc
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise DataError(f"unreadable WAV {path}: not a RIFF WAVE file")
    fmt, pos = None, 12
    try:
        while True:
            chunk, size = struct.unpack_from("<4sI", raw, pos)
            pos += 8
            if chunk == b"data":
                break
            if chunk == b"fmt ":
                if size < 16:
                    raise DataError(f"unreadable WAV {path}: {size}-byte fmt chunk")
                fmt = list(struct.unpack_from("<HHIIHH", raw, pos))
                if fmt[0] == _EXTENSIBLE and size >= 40 and raw[pos + 24 : pos + 40] == _PCM_GUID:
                    fmt[0] = _PCM
            pos += size + size % 2  # chunks are padded to even length
    except struct.error:
        raise DataError(f"unreadable WAV {path}: truncated before its data chunk") from None
    if fmt is None:
        raise DataError(f"unreadable WAV {path}: no fmt chunk before the data chunk")
    tag, channels, rate, _, block_align, bits = fmt
    if channels != 1:
        raise DataError(f"{path}: {channels}-channel WAV; mix down to mono first")
    if tag != _PCM or block_align != 2 or bits <= 8:
        raise DataError(f"{path}: expected 16-bit PCM, got format tag {tag:#x}, {bits} bits in {block_align} bytes")
    data = np.frombuffer(raw, dtype="<i2", count=min(size, len(raw) - pos) // 2, offset=pos)
    return data.astype(np.float64) / 32768.0, int(rate)


def write_wav(path, samples: np.ndarray, rate: int = TARGET_RATE) -> None:
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    quantized = np.clip(np.round(clipped * 32768.0), -32768, 32767)
    with open(path, "wb") as f, wave.open(f, "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(rate)
        out.writeframes(quantized.astype(np.int16))
