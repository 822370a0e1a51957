"""Encoder contracts: batched (N, d) output, row independence, determinism,
gradient flow, pooling."""

import numpy as np
import pytest

from helpers import ZERO_GRAD, check_grad, tiny_run_config
from tricl.bpe import tokenize, train_bpe
from tricl.dsp import AudioSegment, stft_spectrogram
from tricl.encoders import AudioEncoder, SpecEncoder, TextEncoder
from tricl.errors import ContractError, ShapeError
from tricl.store import trainable
from tricl.tensor import Tensor, mul, tsum

CFG = tiny_run_config()
TOKENIZER = train_bpe(["The sound belongs to Alpha.", "The sound belongs to Bravo."], 280)
MAX_LEN = 32


def make_segment(seed=0, n=800):
    rng = np.random.default_rng(seed)
    return AudioSegment(rng.uniform(-0.5, 0.5, n))


def make_audio_encoder(seed=0):
    return AudioEncoder(CFG.encoder, CFG.preprocess, np.random.default_rng(seed))


def make_spec_encoder(seed=0):
    return SpecEncoder(CFG.encoder, "stft", np.random.default_rng(seed))


def make_text_encoder(seed=0):
    return TextEncoder(CFG.encoder, TOKENIZER.vocab_size, MAX_LEN, np.random.default_rng(seed))


def spec_of(segment):
    p = CFG.preprocess
    return stft_spectrogram(segment, p.frame_length_ms, p.frame_shift_ms, p.fft_size)


SENTENCES = ["The sound belongs to Alpha.", "Bravo", "The sound belongs to Bravo, far away.", "The sound"]


def test_shared_embedding_dimension():
    segments = [make_segment(i) for i in range(3)]
    d = CFG.encoder.d
    enc = make_audio_encoder()
    audio = enc.encode(segments)
    spec = make_spec_encoder().encode([spec_of(s) for s in segments])
    text = make_text_encoder().encode([tokenize(s, TOKENIZER, MAX_LEN) for s in SENTENCES[:3]])
    assert audio.shape == spec.shape == text.shape == (3, d)
    for e in (audio, spec, text):
        assert np.isfinite(e.values).all()


class TestBatchRowsMatchSingleEncodes:
    """Row i of encode([x0..x3]) equals encode([xi]): samples never mix."""

    def check(self, encode, inputs):
        batched = encode(inputs).values
        for i, x in enumerate(inputs):
            np.testing.assert_allclose(batched[i], encode([x]).values[0], rtol=0, atol=1e-12)

    def test_audio(self):
        self.check(make_audio_encoder(1).encode, [make_segment(i) for i in range(4)])

    def test_spec(self):
        enc = make_spec_encoder(1)
        self.check(enc.encode, [spec_of(make_segment(i)) for i in range(4)])

    def test_text_sequences_of_different_lengths(self):
        seqs = [tokenize(s, TOKENIZER, MAX_LEN) for s in SENTENCES]
        assert len({len(s) for s in seqs}) == 4
        self.check(make_text_encoder(1).encode, seqs)


def test_empty_batch_rejected():
    with pytest.raises(ContractError, match="empty batch"):
        enc = make_audio_encoder()
        enc.encode([])
    with pytest.raises(ContractError, match="empty batch"):
        make_spec_encoder().encode([])
    with pytest.raises(ContractError, match="empty batch"):
        make_text_encoder().encode([])


def test_unequal_audio_lengths_rejected():
    with pytest.raises(ShapeError, match="equal lengths"):
        enc = make_audio_encoder()
        enc.encode([make_segment(0, n=800), make_segment(1, n=640)])


def test_unequal_spectrogram_shapes_rejected():
    with pytest.raises(ShapeError, match="equal shapes"):
        make_spec_encoder().encode([spec_of(make_segment(0, n=800)), spec_of(make_segment(1, n=640))])


def test_deterministic_forward():
    segments = [make_segment(3), make_segment(4)]
    enc1, enc2 = make_audio_encoder(1), make_audio_encoder(1)
    v1 = enc1.encode(segments).values
    v2 = enc2.encode(segments).values
    assert np.array_equal(v1, v2)
    assert np.array_equal(v1, enc1.encode(segments).values)


def test_spec_encoder_rejects_wrong_kind():
    enc = make_spec_encoder()
    spec = spec_of(make_segment())
    spec.kind = "mel"
    with pytest.raises(ContractError):
        enc.encode([spec_of(make_segment(1)), spec])


def test_attention_weights_sum_to_one():
    # when every position of a sample holds the same vector c_n, any weights
    # that sum to one pool it to c_n @ wv, whatever the scores
    enc = make_spec_encoder()
    pool = enc.pool
    rng = np.random.default_rng(5)
    c, n, h, w = pool.channels, 3, 4, 5
    constants = rng.standard_normal((n, c))
    x = np.broadcast_to(constants.T[:, :, None, None], (c, n, h, w)).copy()
    pooled = pool(Tensor(x)).values
    np.testing.assert_allclose(pooled, constants @ pool.wv.values, rtol=0, atol=1e-12)


def test_frame_permutation_changes_spec_embedding():
    enc = make_spec_encoder()
    spec = spec_of(make_segment(6))
    base = enc.encode([spec]).values[0].copy()
    permuted = spec.grid.copy()
    permuted[[0, 3]] = permuted[[3, 0]]
    spec2 = spec_of(make_segment(6))
    spec2.grid = permuted
    assert not np.allclose(enc.encode([spec2]).values[0], base)


def test_text_appending_token_changes_embedding():
    enc = make_text_encoder()
    short = tokenize("The sound belongs to Alpha", TOKENIZER, MAX_LEN)
    longer = tokenize("The sound belongs to Alpha.", TOKENIZER, MAX_LEN)
    assert len(longer) > len(short)
    a, b = enc.encode([short, longer]).values
    assert not np.allclose(a, b)


def test_text_identical_sequences_identical_embedding():
    enc = make_text_encoder()
    seq = tokenize("The sound belongs to Bravo.", TOKENIZER, MAX_LEN)
    rows = enc.encode([seq, seq]).values
    assert np.array_equal(rows, enc.encode([seq, seq]).values)
    # packed at different offsets, the two copies differ by summation order only
    np.testing.assert_allclose(rows[0], rows[1], rtol=0, atol=1e-12)


def test_text_without_blocks_sees_only_the_token_count():
    # why encoder.transformer_layers must be >= 1: the [EOS] row is read out, and with
    # no block it never attends to the tokens before it
    enc = make_text_encoder()
    alpha, bravo = (tokenize(f"The sound belongs to {name}.", TOKENIZER, MAX_LEN) for name in ("Alpha", "Bravo"))
    assert len(alpha) == len(bravo) and alpha != bravo
    assert not np.allclose(*enc.encode([alpha, bravo]).values)
    enc.blocks = []
    assert np.array_equal(*enc.encode([alpha, bravo]).values)


def test_text_rejects_overlong_sequence():
    enc = TextEncoder(CFG.encoder, TOKENIZER.vocab_size, 4, np.random.default_rng(0))
    with pytest.raises(ContractError):
        enc.encode([tokenize("The", TOKENIZER, MAX_LEN), tokenize("The sound belongs to Alpha.", TOKENIZER, MAX_LEN)])


class TestGradientFlow:
    """FD oracles through each encoder at N = 3, each row read out differently."""

    readout = Tensor(np.random.default_rng(8).standard_normal((3, CFG.encoder.d)))

    def test_audio_encoder_end_to_end(self):
        enc = make_audio_encoder(2)
        segments = [make_segment(7 + i, n=400) for i in range(3)]

        def build():
            return tsum(mul(enc.encode(segments), self.readout))

        # h below the relu-kink scale: zero-init biases leave pre-activations near 0
        params = list(trainable(enc).values())
        worst = check_grad(build, params, h=1e-6, rtol=1e-3, probe_per_param=3, rng=np.random.default_rng(0))
        assert worst <= 1e-3

    def test_spec_encoder_end_to_end(self):
        enc = make_spec_encoder(3)
        specs = [spec_of(make_segment(9 + i, n=400)) for i in range(3)]

        def build():
            return tsum(mul(enc.encode(specs), self.readout))

        check_grad(build, list(trainable(enc).values()), h=1e-6, rtol=1e-3, probe_per_param=3,
                   rng=np.random.default_rng(1))

    def test_text_encoder_end_to_end(self):
        enc = make_text_encoder(4)
        seqs = [tokenize(s, TOKENIZER, MAX_LEN) for s in SENTENCES[:3]]

        def build():
            return tsum(mul(enc.encode(seqs), self.readout))

        check_grad(build, list(trainable(enc).values()), h=1e-6, rtol=1e-3, probe_per_param=3,
                   rng=np.random.default_rng(2))

    def test_text_key_bias_zero_gradients(self):
        # softmax is shift-invariant, so every attention key bias has a zero
        # gradient, which FD rounding at h = 1e-6 reads as up to ~2e-9
        enc = make_text_encoder(4)
        seqs = [tokenize(s, TOKENIZER, MAX_LEN) for s in SENTENCES[:3]]

        def build():
            return tsum(mul(enc.encode(seqs), self.readout))

        key_biases = [block.attn.wk.b for block in enc.blocks]
        check_grad(build, key_biases, h=1e-6, rtol=1e-3)  # every entry probed
        assert all(np.abs(b.grad).max() < ZERO_GRAD for b in key_biases)
