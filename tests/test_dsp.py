import struct
import warnings
import wave

import numpy as np
import pytest
import scipy.fft
import scipy.io.wavfile
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from tricl.dsp import (
    AudioSegment,
    frame_signal,
    mel_filterbank,
    mel_spectrogram,
    read_wav,
    resample_to_16k,
    stft_spectrogram,
    write_wav,
)
from tricl.errors import ConfigError, DataError, EmptyInputError, UnsupportedRateError


def seg(samples):
    return AudioSegment(np.asarray(samples, dtype=np.float64))


def test_frame_count_paper_configuration():
    # 1 s at 16 kHz with 100 ms / 50 ms frames -> 19 frames
    frames = frame_signal(seg(np.zeros(16000)), 100.0, 50.0)
    assert frames.shape == (19, 1600)


def test_single_frame_boundary():
    frames = frame_signal(seg(np.zeros(1600)), 100.0, 50.0)
    assert frames.shape[0] == 1


def test_too_short_raises():
    with pytest.raises(EmptyInputError):
        frame_signal(seg(np.zeros(1599)), 100.0, 50.0)


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=400))
@settings(max_examples=80, deadline=None)
def test_frame_count_formula_holds(n, length, shift):
    if n < length:
        return
    windows = np.lib.stride_tricks.sliding_window_view(np.zeros(n), length)[::shift]
    # at 16 kHz a frame of `length` / 16 ms is `length` samples
    frames = frame_signal(seg(np.zeros(n)), length / 16.0, shift / 16.0)
    assert windows.shape[0] == frames.shape[0] == (n - length) // shift + 1


def test_stft_pure_tone_peak_bin():
    t = np.arange(16000) / 16000
    spec = stft_spectrogram(seg(np.sin(2 * np.pi * 1000 * t)))
    bin_frequencies = np.fft.rfftfreq(2 * (spec.n_bins - 1), d=1.0 / 16000)
    peak_hz = bin_frequencies[spec.grid.sum(axis=0).argmax()]
    bin_width = bin_frequencies[1] - bin_frequencies[0]
    assert abs(peak_hz - 1000.0) <= bin_width


def test_stft_dc_concentrates_in_bin_zero():
    spec = stft_spectrogram(seg(np.full(8000, 0.5)))
    assert (spec.grid.argmax(axis=1) == 0).all()


def test_stft_zero_signal_zero_grid():
    spec = stft_spectrogram(seg(np.zeros(8000)))
    assert np.abs(spec.grid).max() == 0.0


def test_stft_grid_finite_nonnegative():
    rng = np.random.default_rng(0)
    spec = stft_spectrogram(seg(rng.uniform(-1, 1, 16000)))
    assert np.isfinite(spec.grid).all() and (spec.grid >= 0).all()


def test_mel_default_bank_count():
    rng = np.random.default_rng(1)
    spec = mel_spectrogram(seg(rng.uniform(-1, 1, 8000)), n_mels=300)
    assert spec.n_bins == 300
    assert np.isfinite(spec.grid).all() and (spec.grid >= 0).all()


def test_mel_zero_signal():
    assert np.abs(mel_spectrogram(seg(np.zeros(8000)), 40).grid).max() == 0.0


def test_mel_filters_positive_and_contiguous():
    fb = mel_filterbank(300, 2048)
    assert fb.shape == (300, 1025)
    assert (fb.sum(axis=1) > 0).all()
    for row in fb:
        nz = np.flatnonzero(row)
        assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))


def test_mel_filterbank_built_once_and_read_only():
    fb = mel_filterbank(64, 2048)
    assert mel_filterbank(64, 2048) is fb
    assert not fb.flags.writeable
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0


@pytest.mark.parametrize("log_magnitude", [False, True])
def test_mel_grids_equal_fresh_filterbank(log_magnitude):
    fresh = mel_filterbank.__wrapped__(64, 2048)  # built anew, past the cache
    segment = seg(np.random.default_rng(4).uniform(-1, 1, 8000))
    expect = (stft_spectrogram(segment).grid ** 2) @ fresh.T
    if log_magnitude:
        expect = np.log1p(expect)
    for _ in range(2):  # the first call may build the cached bank, the second reads it
        assert np.array_equal(mel_spectrogram(segment, 64, log_magnitude=log_magnitude).grid, expect)


def test_mel_too_many_filters():
    with pytest.raises(ConfigError):
        mel_filterbank(2000, 2048)


def test_resample_2to1_length():
    n = 1000
    out = resample_to_16k(np.zeros(2 * n), 32000)
    assert abs(len(out) - n) <= 1


def test_resample_accepts_dataset_rates():
    for rate in (52734, 32000):
        out = resample_to_16k(np.ones(rate), rate)  # one second in, one second out
        assert abs(len(out) - 16000) <= 1


def test_resample_preserves_dc():
    out = resample_to_16k(np.full(32000, 0.25), 32000)
    np.testing.assert_allclose(out, 0.25, atol=1e-3)


def test_resample_rejects_upsampling():
    with pytest.raises(UnsupportedRateError):
        resample_to_16k(np.zeros(100), 8000)


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    samples = rng.uniform(-0.9, 0.9, 4000)
    path = tmp_path / "t.wav"
    write_wav(path, samples, 16000)
    back, rate = read_wav(path)
    assert rate == 16000
    np.testing.assert_allclose(back, samples, atol=1.0 / 32767)


def test_wav_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    scipy.io.wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(DataError, match="mono"):
        read_wav(path)


# scipy below is the reference the numpy-only routines must match bit for bit


@pytest.mark.parametrize(
    "frame_ms, shift_ms, fft_size",
    [(100.0, 50.0, None), (20.0, 10.0, None), (10.0, 5.0, None), (25.0, 10.0, 400), (31.3125, 12.5, None)],
    ids=["1600-in-2048", "320-in-512", "160-in-256", "400-in-400", "501-in-512"],
)
def test_stft_and_mel_grids_bitwise_equal_scipy_fft(frame_ms, shift_ms, fft_size):
    segment = seg(np.random.default_rng(5).uniform(-1, 1, 8000))
    frames = frame_signal(segment, frame_ms, shift_ms)
    nfft = fft_size or 1 << (frames.shape[1] - 1).bit_length()
    expect = np.abs(scipy.fft.rfft(frames * np.hanning(frames.shape[1]), n=nfft, axis=1))
    assert np.array_equal(stft_spectrogram(segment, frame_ms, shift_ms, fft_size).grid, expect)
    mel = mel_spectrogram(segment, 40, frame_ms, shift_ms, fft_size).grid
    assert np.array_equal(mel, (expect**2) @ mel_filterbank(40, nfft).T)


@pytest.mark.parametrize("rate", [22050, 24000, 32000, 44100, 48000, 52734, 96000])
@pytest.mark.parametrize("seconds", [0.5, 0.75])
@pytest.mark.parametrize("extra", [0, 1], ids=["n", "n+1"])
def test_resample_bitwise_equals_scipy_signal(rate, seconds, extra):
    n = int(rate * seconds) + extra  # odd and even input and output lengths
    samples = np.random.default_rng(rate + n).uniform(-1, 1, n)
    expect = scipy.signal.resample(samples, int(round(n * 16000 / rate)))
    assert np.array_equal(resample_to_16k(samples, rate), expect)


@pytest.mark.parametrize("n, rate", [(1, 48000), (0, 44100)])
def test_resample_to_no_samples_is_empty_input_error(n, rate):
    # raised ZeroDivisionError inside the Fourier resampler
    with pytest.raises(EmptyInputError, match=f"{n} samples at {rate} Hz resample to no samples"):
        resample_to_16k(np.zeros(n), rate)


@pytest.mark.parametrize("n", [0, 1, 1001])
@pytest.mark.parametrize("rate", [16000, 44100])
def test_write_wav_bytes_equal_scipy_wavfile(tmp_path, n, rate):
    samples = np.random.default_rng(n).uniform(-1.2, 1.2, n)  # beyond full scale too: clipped
    write_wav(tmp_path / "ours.wav", samples, rate)
    quantized = np.clip(np.round(np.clip(samples, -1.0, 1.0) * 32768.0), -32768, 32767).astype(np.int16)
    scipy.io.wavfile.write(tmp_path / "scipy.wav", rate, quantized)
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


_PCM_GUID_TAIL = bytes.fromhex("0000 1000 8000 00aa 0038 9b71")


def _fmt(rate=16000, tag=1, channels=1, bits=16, subformat=None):
    block = channels * bits // 8
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    if subformat is not None:  # WAVE_FORMAT_EXTENSIBLE: cbSize, valid bits, channel mask, sub-format GUID
        body += struct.pack("<HHII", 22, bits, 0x4, subformat) + _PCM_GUID_TAIL
    return body


def _riff(fmt: bytes, data: bytes, before_data: bytes = b"") -> bytes:
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + before_data + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_extensible_header_reads_as_its_pcm_twin(tmp_path):
    pcm = np.random.default_rng(6).integers(-32768, 32768, 777).astype("<i2")
    twin = tmp_path / "pcm.wav"
    write_wav(twin, pcm / 32768.0, 48000)
    ext = tmp_path / "extensible.wav"
    # an odd-sized chunk between fmt and data, padded to even length, is skipped
    ext.write_bytes(_riff(_fmt(48000, tag=0xFFFE, subformat=1), pcm.tobytes(), b"LIST\x03\x00\x00\x00abc\x00"))
    samples, rate = read_wav(ext)
    twin_samples, twin_rate = read_wav(twin)
    assert rate == twin_rate == 48000 and np.array_equal(samples, twin_samples)
    assert np.array_equal(samples * 32768.0, scipy.io.wavfile.read(ext)[1])


@pytest.mark.parametrize("kind", ["24-bit", "8-bit", "float32", "extensible-float"])
def test_mono_wav_other_than_16_bit_pcm_is_data_error(tmp_path, kind):
    path = tmp_path / f"{kind}.wav"
    if kind == "float32":
        scipy.io.wavfile.write(path, 16000, np.zeros(10, dtype=np.float32))
    elif kind == "extensible-float":
        path.write_bytes(_riff(_fmt(tag=0xFFFE, bits=32, subformat=3), bytes(40)))
    else:
        with wave.open(str(path), "wb") as out:
            out.setnchannels(1)
            out.setsampwidth({"24-bit": 3, "8-bit": 1}[kind])
            out.setframerate(16000)
            out.writeframes(bytes(30))
    with pytest.raises(DataError, match="expected 16-bit PCM"):
        read_wav(path)


@pytest.mark.parametrize("cut", [0, 11, 30, 40])
def test_truncated_wav_is_data_error(tmp_path, cut):
    # 30 bytes end inside the fmt chunk: this raised struct.error
    path = tmp_path / "cut.wav"
    write_wav(path, np.zeros(100))
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(DataError, match="unreadable WAV"):
        read_wav(path)


def test_wav_cut_inside_data_reads_the_whole_samples_present(tmp_path):
    path = tmp_path / "cut.wav"
    write_wav(path, np.linspace(-0.5, 0.5, 100))
    path.write_bytes(path.read_bytes()[: 44 + 2 * 37 + 1])
    samples, _ = read_wav(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.io.wavfile.WavFileWarning)  # "reached EOF prematurely"
        assert np.array_equal(samples * 32768.0, scipy.io.wavfile.read(path)[1])
    assert len(samples) == 37


def test_wav_without_fmt_before_data_is_data_error(tmp_path):
    path = tmp_path / "nofmt.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 14) + b"WAVEdata" + struct.pack("<I", 2) + bytes(2))
    with pytest.raises(DataError, match="no fmt chunk"):
        read_wav(path)
