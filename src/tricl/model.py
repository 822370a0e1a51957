"""The tri-modal model: three encoders, learnable logit scales, tokenizer,
and the templates it was trained with. A model is self-contained: given raw
audio it can run prompt-style inference without further assets.
"""

from __future__ import annotations

import numpy as np

from .bpe import BpeTokenizer, tokenize
from .config import RunConfig
from .encoders import AudioEncoder, SpecEncoder, TextEncoder
from .errors import ConfigError
from .tensor import Tensor


MAX_EXP_SCALE = 100.0


class ScaleCoefficients:
    """Learnable per-pair logit scales; the multiplier is e**scale, capped at 100."""

    def __init__(self):
        self.scale_at = Tensor(0.0, requires_grad=True, name="scale.at")
        self.scale_ts = Tensor(0.0, requires_grad=True, name="scale.ts")
        self.scale_as = Tensor(0.0, requires_grad=True, name="scale.as")

    def clamp(self) -> None:
        cap = np.log(MAX_EXP_SCALE)
        for t in (self.scale_at, self.scale_ts, self.scale_as):
            t.values = np.minimum(t.values, cap)

    def tensors(self, modalities: str = "tri") -> dict[str, Tensor]:
        if modalities == "audio_text":
            return {"scale.at": self.scale_at}
        return {"scale.at": self.scale_at, "scale.ts": self.scale_ts, "scale.as": self.scale_as}

    def multipliers(self, modalities: str = "tri") -> dict[str, float]:
        return {name: float(np.exp(t.values)) for name, t in self.tensors(modalities).items()}


class TriModalModel:
    def __init__(
        self,
        config: RunConfig,
        tokenizer: BpeTokenizer,
        train_template_text: str,
        test_template_text: str,
        class_labels: list[str],
        train_source_ids: tuple[str, ...] = (),
    ):
        self.config = config
        self.tokenizer = tokenizer
        self.train_template_text = train_template_text
        self.test_template_text = test_template_text
        self.class_labels = list(class_labels)
        self.train_source_ids = tuple(train_source_ids)

        seed = config.encoder.seed
        self.audio_encoder = AudioEncoder(config.encoder, config.preprocess, np.random.default_rng([seed, 0]))
        if config.train.modalities == "tri":
            self.spec_encoder = SpecEncoder(config.encoder, config.preprocess.spec_input, np.random.default_rng([seed, 1]))
        else:
            self.spec_encoder = None
        table = max(config.train.vocab_size, tokenizer.vocab_size)
        self.text_encoder = TextEncoder(config.encoder, table, config.train.max_tokens, np.random.default_rng([seed, 2]))
        self.scales = ScaleCoefficients()

    @property
    def modalities(self) -> str:
        return self.config.train.modalities

    def parameters(self) -> dict[str, Tensor]:
        out = dict(self.audio_encoder.params())
        if self.spec_encoder is not None:
            out.update(self.spec_encoder.params())
        out.update(self.text_encoder.params())
        out.update(self.scales.tensors(self.modalities))
        return out

    def clamp(self) -> None:
        self.audio_encoder.wavelet.clamp()
        self.scales.clamp()

    def encode_text(self, sentences: list[str]) -> Tensor:
        max_len = self.config.train.max_tokens
        return self.text_encoder.encode([tokenize(s, self.tokenizer, max_len) for s in sentences])

    def load_values(self, arrays: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params)
        if missing or extra:
            raise ConfigError(f"checkpoint/model parameter mismatch: missing={sorted(missing)}, extra={sorted(extra)}")
        for name, tensor in params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != tensor.values.shape:
                raise ConfigError(f"checkpoint parameter {name} has shape {arr.shape}, expected {tensor.values.shape}")
            tensor.values = arr.copy()
