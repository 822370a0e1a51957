"""The tri-modal model: three encoders, learnable logit scales, tokenizer,
and the templates it was trained with. A model is self-contained: given raw
audio it can run prompt-style inference without further assets. Its read-out
scores audio embeddings against sentence embeddings by cosine, so the
sentences act as the weights of a linear classifier.
"""

from __future__ import annotations

import numpy as np

from .bpe import BpeTokenizer, tokenize
from .config import RunConfig
from .dsp import AudioSegment
from .encoders import AudioEncoder, SpecEncoder, TextEncoder
from .errors import ContractError
from .store import ParameterStore, trainable
from .templates import candidate_queue, parse_template
from .tensor import Tensor, l2_normalize_rows, matmul, no_grad, transpose


MAX_EXP_SCALE = 100.0


def cosine_matrix(x: Tensor, y: Tensor) -> Tensor:
    """Entry (i, j) is the cosine of rows x_i and y_j; a zero-norm row raises ContractError."""
    return matmul(l2_normalize_rows(x), transpose(l2_normalize_rows(y)))


class ScaleCoefficients:
    """Learnable per-pair logit scales; the multiplier is e**scale, capped at 100."""

    def __init__(self, modalities: str):
        """audio_text trains the audio-text scale only; the other two are None."""
        self.scale_at = Tensor(0.0, requires_grad=True, name="scale.at")
        tri = modalities == "tri"
        self.scale_ts = Tensor(0.0, requires_grad=True, name="scale.ts") if tri else None
        self.scale_as = Tensor(0.0, requires_grad=True, name="scale.as") if tri else None

    def clamp(self) -> None:
        cap = np.log(MAX_EXP_SCALE)
        for t in trainable(self).values():
            np.minimum(t.values, cap, out=t.values)

    def multipliers(self) -> dict[str, float]:
        return {name: float(np.exp(t.values)) for name, t in trainable(self).items()}


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
        self.scales = ScaleCoefficients(config.train.modalities)
        self.store = ParameterStore(trainable(self.audio_encoder, self.spec_encoder, self.text_encoder, self.scales))
        self._token_ids: dict[str, list[int]] = {}  # sentence -> ids, filled by encode_text

    def clamp(self) -> None:
        self.audio_encoder.wavelet.clamp()
        self.scales.clamp()

    def encode_text(self, sentences: list[str]) -> Tensor:
        """Text embeddings; each distinct sentence is tokenized once per model."""
        ids = self._token_ids
        for s in sentences:
            if s not in ids:
                ids[s] = tokenize(s, self.tokenizer, self.config.train.max_tokens)
        return self.text_encoder.encode([ids[s] for s in sentences])

    def similarities(self, segments: list[AudioSegment], candidates: list[str]) -> np.ndarray:
        """Cosine of each segment's audio embedding (rows) with each candidate
        sentence's text embedding (columns)."""
        if not candidates:
            raise ContractError("prompt inference needs at least one candidate sentence")
        audio = self.audio_encoder.embed(segments, self.config.train.batch_size)
        with no_grad():
            return cosine_matrix(audio, self.encode_text(candidates)).values

    def predict_labels(self, segments: list[AudioSegment]) -> list[str]:
        """The class label whose test-template sentence is most similar to each segment."""
        candidates = candidate_queue(parse_template(self.test_template_text), self.class_labels)
        sims = self.similarities(segments, candidates)
        return [self.class_labels[int(i)] for i in np.argmax(sims, axis=1)]
