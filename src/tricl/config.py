"""Dataclass configuration for preprocessing, encoders, and training runs.

JSON config files use the same three sections: ``preprocess``, ``encoder``,
``train``. Missing keys fall back to the defaults below.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

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
        if self.overlap_seconds >= self.segment_seconds:
            raise ConfigError("overlap_seconds must be smaller than segment_seconds")
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
        if self.d < 1 or any(c < 1 for c in self.conv_channels):
            raise ConfigError("embedding dim and conv channels must be >= 1")
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


@dataclass
class RunConfig:
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        out = cls()
        for section_name, section_cls in (("preprocess", PreprocessConfig), ("encoder", EncoderConfig), ("train", TrainConfig)):
            section = data.get(section_name, {})
            known = {f.name for f in fields(section_cls)}
            unknown = set(section) - known
            if unknown:
                raise ConfigError(f"unknown {section_name} config keys: {sorted(unknown)}")
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
