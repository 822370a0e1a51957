import numpy as np
import pytest
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
    import scipy.io.wavfile

    path = tmp_path / "stereo.wav"
    scipy.io.wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(DataError, match="mono"):
        read_wav(path)
