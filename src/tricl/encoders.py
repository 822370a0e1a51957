"""Three miniature encoders projecting audio, spectrogram, and token inputs
into one shared d-dimensional embedding space.

Each encoder takes a batch of N inputs (equal-length segments, equal-shape
spectrograms, token sequences of any length) and returns an (N, d) tensor.
`AudioEncoder.encode` is the one audio path: it builds its own wavelet
kernels, and the memo in `wavelet.build_kernels` alone decides reuse.
`AudioEncoder.embed` is its tape-free, chunked read-out both model types use.

Audio: learnable Fbsp wavelet frontend -> residual conv stack with channel
attention -> per-sample pooling -> linear projection. Spectrogram: residual
conv stack -> attention pooling over each sample's positions. Text: sequences
packed into one row block -> token + learned positional embeddings ->
block-causal transformer -> activation at each [EOS] row -> linear projection.
"""

from __future__ import annotations

import numpy as np

from .bpe import EOS_ID, SOS_ID
from .config import EncoderConfig, PreprocessConfig
from .dsp import AudioSegment, Spectrogram
from .errors import ContractError, ShapeError
from .layers import (
    AttentionPool,
    ConvStack,
    LayerNorm,
    Linear,
    TransformerBlock,
    causal_mask,
    uniform_init,
)
from .tensor import Tensor, add, concat, matmul, mean, no_grad, reshape, take_rows, transpose
from .wavelet import WaveletParams, build_kernels, default_scale_grid, transform_with_kernels


class AudioEncoder:
    def __init__(self, config: EncoderConfig, preprocess: PreprocessConfig, rng: np.random.Generator):
        self.config = config
        self.preprocess = preprocess
        self.wavelet = WaveletParams.create()
        self.scale_grid = default_scale_grid(preprocess.n_scales, preprocess.fmin_hz, preprocess.fmax_hz)
        self.conv = ConvStack(rng, config.conv_channels, "audio.conv", attention=True)
        self.proj = Linear(rng, self.conv.out_channels, config.d, "audio.proj")

    def encode(self, segments: list[AudioSegment]) -> Tensor:
        """(N, d) embeddings of N equal-length segments. Builds the wavelet
        kernels once per call: on the tape when the wavelet trains, else the
        memoised build (``wavelet.build_kernels``)."""
        if not segments:
            raise ContractError("cannot encode an empty batch")
        hop = self.preprocess.wavelet_hop
        kernels = build_kernels(self.wavelet, self.scale_grid, hop, truncation=self.preprocess.wavelet_truncation)
        grid = transform_with_kernels([segment.samples for segment in segments], kernels, hop)  # (N, frames, scales)
        h = self.conv(reshape(grid, (1, *grid.shape)))
        return self.proj(transpose(mean(h, axis=(2, 3))))

    def embed(self, segments: list[AudioSegment], chunk: int) -> Tensor:
        """Embeddings with no tape: `encode` on chunks of `chunk` segments,
        which bounds memory on a large fold. Every chunk's build is the
        memoised one, so the kernels are built once while the wavelet holds."""
        with no_grad():
            return concat([self.encode(segments[i : i + chunk]) for i in range(0, len(segments), chunk)])


class SpecEncoder:
    def __init__(self, config: EncoderConfig, expected_kind: str, rng: np.random.Generator):
        self.config = config
        self.expected_kind = expected_kind
        self.conv = ConvStack(rng, config.conv_channels, "spec.conv", attention=False)
        self.pool = AttentionPool(rng, self.conv.out_channels, config.attn_pool_heads, "spec.pool")
        self.proj = Linear(rng, self.conv.out_channels, config.d, "spec.proj")

    def encode(self, specs: list[Spectrogram]) -> Tensor:
        if not specs:
            raise ContractError("cannot encode an empty batch")
        kinds = {spec.kind for spec in specs}
        if kinds != {self.expected_kind}:
            raise ContractError(f"spectrogram encoder configured for {self.expected_kind!r}, got {sorted(kinds)}")
        if any(spec.grid.size == 0 for spec in specs):
            raise ContractError("empty spectrogram grid")
        shapes = {spec.grid.shape for spec in specs}
        if len(shapes) > 1:
            raise ShapeError(f"spectrograms in one batch need equal shapes, got {sorted(shapes)}")
        grids = np.stack([spec.grid for spec in specs])
        h = self.conv(Tensor(grids[None]))  # (1, N, F, B)
        return self.proj(self.pool(h))


class TextEncoder:
    def __init__(self, config: EncoderConfig, vocab_size: int, max_len: int, rng: np.random.Generator):
        self.config = config
        self.vocab_size = vocab_size
        self.max_len = max_len
        w = config.transformer_width
        self.tok_emb = uniform_init(rng, (vocab_size, w), w, "text.tok_emb")
        self.pos_emb = uniform_init(rng, (max_len, w), w, "text.pos_emb")
        self.blocks = [
            TransformerBlock(rng, w, config.transformer_heads, f"text.block{i}")
            for i in range(config.transformer_layers)
        ]
        self.ln_final = LayerNorm(w, "text.ln_final")
        self.proj = uniform_init(rng, (w, config.d), w, "text.proj")

    def encode(self, sequences: list[list[int]]) -> Tensor:
        if not sequences:
            raise ContractError("cannot encode an empty batch")
        for ids in sequences:
            if len(ids) < 2 or ids[0] != SOS_ID or ids[-1] != EOS_ID:
                raise ContractError("token sequence must start with [SOS] and end with [EOS]")
            if len(ids) > self.max_len:
                raise ContractError(f"sequence of {len(ids)} tokens exceeds max length {self.max_len}")
            if any(not 0 <= i < self.vocab_size for i in ids):
                raise ContractError("token id outside the encoder vocabulary")
        lengths = [len(ids) for ids in sequences]
        ids = [i for seq in sequences for i in seq]
        positions = [p for n in lengths for p in range(n)]
        x = add(take_rows(self.tok_emb, ids), take_rows(self.pos_emb, positions))
        mask = causal_mask(lengths)  # packed without padding: each sequence attends only to itself
        for block in self.blocks:
            x = block(x, mask)
        eos = self.ln_final(take_rows(x, np.cumsum(lengths) - 1))  # layer norm is row-wise
        return matmul(eos, self.proj)
