"""Dataclass configuration for preprocessing, encoders, and training runs.

JSON config files use the same three sections: ``preprocess``, ``encoder``,
``train``. Missing keys fall back to the defaults below; a value of the wrong
JSON type, non-finite (``json`` reads NaN and Infinity) or out of range is a
ConfigError naming its ``section.key``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .bpe import _FIRST_MERGE_ID
from .dsp import TARGET_RATE, fft_size_for, frame_samples
from .errors import ConfigError


@dataclass
class PreprocessConfig:
    frame_length_ms: float = 100.0
    frame_shift_ms: float = 50.0
    fft_size: int | None = None  # next power of two of the frame length
    n_mels: int = 300
    spec_input: str = "stft"  # spectrogram-encoder input: stft | mel
    log_magnitude: bool = False
    segment_seconds: float = 30.0
    overlap_seconds: float = 15.0
    n_scales: int = 64
    fmin_hz: float = 20.0
    fmax_hz: float = 7800.0
    wavelet_hop: int = 800
    wavelet_truncation: float = 1e-4

    def __post_init__(self):
        if self.spec_input not in ("stft", "mel"):
            raise ConfigError(f"spec_input must be 'stft' or 'mel', got {self.spec_input!r}")
        if self.segment_seconds <= 0:
            raise ConfigError(f"preprocess.segment_seconds must be > 0, got {self.segment_seconds}")
        if self.overlap_seconds >= self.segment_seconds:
            raise ConfigError("overlap_seconds must be smaller than segment_seconds")
        if self.overlap_seconds < 0:
            raise ConfigError(f"preprocess.overlap_seconds must be >= 0, got {self.overlap_seconds}")
        if self.fmin_hz <= 0:
            raise ConfigError(f"preprocess.fmin_hz must be > 0, got {self.fmin_hz}")
        for key in ("frame_length_ms", "frame_shift_ms"):
            if frame_samples(getattr(self, key)) < 1:
                raise ConfigError(f"preprocess.{key} must round to at least one sample at {TARGET_RATE} Hz, "
                                  f"got {getattr(self, key)} ms")
        frame_len = frame_samples(self.frame_length_ms)
        segment_len = int(round(self.segment_seconds * TARGET_RATE))  # as data.segment_audio cuts it
        if frame_len > segment_len:  # else every spectrogram fails at ingest
            raise ConfigError(f"preprocess.frame_length_ms must fit one segment: its {frame_len} samples exceed "
                              f"the {segment_len} of preprocess.segment_seconds {self.segment_seconds}")
        if self.fft_size is not None and self.fft_size < frame_len:
            raise ConfigError(f"preprocess.fft_size must be >= the frame length of {frame_len} samples, got {self.fft_size}")
        n_bins = fft_size_for(frame_len, self.fft_size) // 2 + 1
        if self.spec_input == "mel" and not 1 <= self.n_mels <= n_bins:  # n_mels is unread for stft
            raise ConfigError(f"preprocess.n_mels must lie in [1, {n_bins}], the FFT bin count, got {self.n_mels}")
        if self.fmax_hz > TARGET_RATE / 2:  # every segment is resampled to TARGET_RATE
            raise ConfigError(f"preprocess.fmax_hz must be <= the Nyquist limit {TARGET_RATE / 2:g} Hz, got {self.fmax_hz}")
        if self.fmin_hz >= self.fmax_hz:
            raise ConfigError(f"preprocess.fmin_hz must be < preprocess.fmax_hz, got {self.fmin_hz} and {self.fmax_hz}")
        if self.n_scales < 1:
            raise ConfigError(f"preprocess.n_scales must be >= 1, got {self.n_scales}")
        if not (isinstance(self.wavelet_hop, int) and self.wavelet_hop >= 1):
            raise ConfigError(f"wavelet_hop must be an integer >= 1, got {self.wavelet_hop!r}")
        if not 0.0 < self.wavelet_truncation < 1.0:
            raise ConfigError(f"wavelet_truncation must lie in (0, 1), got {self.wavelet_truncation}")


@dataclass
class EncoderConfig:
    d: int = 64
    conv_channels: tuple[int, ...] = (8, 16, 32)
    transformer_layers: int = 2
    transformer_heads: int = 2
    transformer_width: int = 64
    attn_pool_heads: int = 1
    seed: int = 0

    def __post_init__(self):
        self.conv_channels = tuple(int(c) for c in self.conv_channels)
        if not self.conv_channels:
            raise ConfigError("encoder.conv_channels must list at least one width")
        if min(self.d, self.transformer_heads, self.attn_pool_heads, *self.conv_channels) < 1:
            raise ConfigError("encoder.d, conv_channels, transformer_heads and attn_pool_heads must be >= 1")
        if self.conv_channels[-1] % self.attn_pool_heads != 0:  # the pool splits the last width into heads
            raise ConfigError(f"encoder.attn_pool_heads {self.attn_pool_heads} must divide the last "
                              f"encoder.conv_channels width {self.conv_channels[-1]}")
        if self.seed < 0:
            raise ConfigError(f"encoder.seed must be >= 0, got {self.seed}")
        if self.transformer_width < 1:
            raise ConfigError(f"encoder.transformer_width must be >= 1, got {self.transformer_width}")
        # with no block the text encoder's [EOS] row sees only its own token and position,
        # so every sentence of one token count would embed the same
        if self.transformer_layers < 1:
            raise ConfigError(f"encoder.transformer_layers must be >= 1, got {self.transformer_layers}")
        if self.transformer_width % self.transformer_heads != 0:
            raise ConfigError("transformer_width must divide evenly into heads")


@dataclass
class TrainConfig:
    batch_size: int = 8
    epochs: int = 100
    lr: float = 1e-5
    weight_decay: float = 1e-5
    seed: int = 0
    modalities: str = "tri"  # tri | audio_text
    vocab_size: int = 512
    max_tokens: int = 77

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("contrastive training needs batch_size >= 2")
        if self.modalities not in ("tri", "audio_text"):
            raise ConfigError(f"modalities must be 'tri' or 'audio_text', got {self.modalities!r}")
        for key in ("epochs", "lr", "weight_decay", "seed"):  # 0 epochs builds an untrained model
            if getattr(self, key) < 0:
                raise ConfigError(f"train.{key} must be >= 0, got {getattr(self, key)}")
        if self.vocab_size <= _FIRST_MERGE_ID:
            raise ConfigError(f"train.vocab_size must exceed {_FIRST_MERGE_ID} (bytes + specials), got {self.vocab_size}")
        if self.max_tokens < 2:  # [SOS] and [EOS]
            raise ConfigError(f"train.max_tokens must be >= 2, got {self.max_tokens}")


@dataclass
class RunConfig:
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        out = cls()
        json_types = {"int": (int,), "int | None": (int, type(None)), "float": (int, float), "str": (str,),
                      "bool": (bool,), "tuple[int, ...]": (list, tuple)}
        for section_name, section_cls in (("preprocess", PreprocessConfig), ("encoder", EncoderConfig), ("train", TrainConfig)):
            section = data.get(section_name, {})
            if not isinstance(section, dict):
                raise ConfigError(f"config section {section_name} must be an object, got {type(section).__name__}")
            annotations = {f.name: f.type for f in fields(section_cls)}
            unknown = set(section) - set(annotations)
            if unknown:
                raise ConfigError(f"unknown {section_name} config keys: {sorted(unknown)}")
            for key, value in section.items():  # exact types: a bool is no int; an int may stand for a float
                kind = annotations[key]
                if type(value) not in json_types[kind] or isinstance(value, (list, tuple)) and {type(c) for c in value} - {int}:
                    raise ConfigError(f"{section_name}.{key} is {value!r}, expected {kind}")
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{section_name}.{key} is {value!r}, expected a finite number")
            setattr(out, section_name, section_cls(**section))
        extra = set(data) - {"preprocess", "encoder", "train"}
        if extra:
            raise ConfigError(f"unknown config sections: {sorted(extra)}")
        return out

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
