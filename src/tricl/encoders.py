"""Three miniature encoders projecting audio, spectrogram, and token inputs
into one shared d-dimensional embedding space.

Audio: learnable Fbsp wavelet frontend -> residual conv stack with channel
attention -> global pooling -> linear projection. Spectrogram: residual conv
stack -> attention pooling over spatial positions. Text: token + learned
positional embeddings -> causal transformer -> final-layer activation at the
[EOS] position -> linear projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bpe import EOS_ID, TokenSequence
from .config import EncoderConfig, PreprocessConfig
from .dsp import TARGET_RATE, AudioSegment, Spectrogram
from .errors import ContractError
from .layers import (
    AttentionPool,
    ConvStack,
    LayerNorm,
    Linear,
    TransformerBlock,
    causal_mask,
    uniform_init,
)
from .tensor import Tensor, add, matmul, mean, narrow, reshape, take_rows
from .wavelet import WaveletKernels, WaveletParams, build_kernels, default_scale_grid, transform_with_kernels


@dataclass
class Embedding:
    vector: Tensor  # shape (d,)
    modality: str  # audio | spec | text

    @property
    def norm(self) -> float:
        return float(np.sqrt((self.vector.values**2).sum()))


class AudioEncoder:
    def __init__(self, config: EncoderConfig, preprocess: PreprocessConfig, rng: np.random.Generator):
        self.config = config
        self.preprocess = preprocess
        self.wavelet = WaveletParams.create()
        self.scale_grid = default_scale_grid(preprocess.n_scales, preprocess.fmin_hz, preprocess.fmax_hz)
        self.conv = ConvStack(rng, config.conv_channels, "audio.conv", attention=True)
        self.proj = Linear(rng, self.conv.out_channels, config.d, "audio.proj")

    def build_kernels(self) -> WaveletKernels:
        return build_kernels(
            self.wavelet,
            self.scale_grid,
            self.preprocess.wavelet_hop,
            TARGET_RATE,
            truncation=self.preprocess.wavelet_truncation,
        )

    def encode(self, segment: AudioSegment, kernels: WaveletKernels | None = None) -> Embedding:
        if segment.sample_rate_hz != TARGET_RATE:
            raise ContractError(f"audio encoder expects {TARGET_RATE} Hz, got {segment.sample_rate_hz}")
        if kernels is None:
            kernels = self.build_kernels()
        grid = transform_with_kernels(segment.samples, kernels, self.preprocess.wavelet_hop)
        t, s = grid.shape
        h = self.conv(reshape(grid, (1, t, s)))
        pooled = reshape(mean(h, axis=(1, 2)), (1, self.conv.out_channels))
        return Embedding(reshape(self.proj(pooled), (self.config.d,)), "audio")

    def params(self) -> dict[str, Tensor]:
        out = dict(self.wavelet.tensors())
        out.update(self.conv.params())
        out.update(self.proj.params())
        return out


class SpecEncoder:
    def __init__(self, config: EncoderConfig, expected_kind: str, rng: np.random.Generator):
        self.config = config
        self.expected_kind = expected_kind
        self.conv = ConvStack(rng, config.conv_channels, "spec.conv", attention=False)
        self.pool = AttentionPool(rng, self.conv.out_channels, config.attn_pool_heads, "spec.pool")
        self.proj = Linear(rng, self.conv.out_channels, config.d, "spec.proj")

    def encode(self, spec: Spectrogram) -> Embedding:
        if spec.kind != self.expected_kind:
            raise ContractError(f"spectrogram encoder configured for {self.expected_kind!r}, got {spec.kind!r}")
        if spec.grid.size == 0:
            raise ContractError("empty spectrogram grid")
        f, b = spec.grid.shape
        h = self.conv(reshape(Tensor(spec.grid), (1, f, b)))
        pooled = self.pool(h)
        return Embedding(reshape(self.proj(pooled), (self.config.d,)), "spec")

    def params(self) -> dict[str, Tensor]:
        out = dict(self.conv.params())
        out.update(self.pool.params())
        out.update(self.proj.params())
        return out


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

    def encode(self, tokens: TokenSequence) -> Embedding:
        ids = tokens.ids
        if ids[-1] != EOS_ID:
            raise ContractError("token sequence does not end with [EOS]")
        if len(ids) > self.max_len:
            raise ContractError(f"sequence of {len(ids)} tokens exceeds max length {self.max_len}")
        if any(i >= self.vocab_size for i in ids):
            raise ContractError("token id outside the encoder vocabulary")
        n = len(ids)
        x = add(take_rows(self.tok_emb, ids), take_rows(self.pos_emb, list(range(n))))
        mask = causal_mask(n)
        for block in self.blocks:
            x = block(x, mask)
        eos = self.ln_final(narrow(x, 0, n - 1, n))  # layer norm is row-wise
        return Embedding(reshape(matmul(eos, self.proj), (self.config.d,)), "text")

    def params(self) -> dict[str, Tensor]:
        out = {self.tok_emb.name: self.tok_emb, self.pos_emb.name: self.pos_emb}
        for block in self.blocks:
            out.update(block.params())
        out.update(self.ln_final.params())
        out[self.proj.name] = self.proj
        return out
