"""Run-config presets for the desk-scale synthetic experiments, shared by
every arm in `experiments.ARMS`. Short segments, a 12-scale wavelet grid,
and log-mel spectrogram-encoder input keep a full contrastive run in the
tens of seconds on one core; the library defaults (30 s segments, 64
scales, raw STFT) stay paper-faithful.
"""

from __future__ import annotations

from .config import RunConfig
from .templates import AUX_TEMPLATE_TEXT, LABEL_TEMPLATE_TEXT  # noqa: F401  (re-exported)


def experiment_run_config(
    seed: int = 0,
    epochs: int = 40,
    modalities: str = "tri",
    batch_size: int = 8,
) -> RunConfig:
    return RunConfig.from_dict(
        {
            "preprocess": {
                "segment_seconds": 2.0,
                "overlap_seconds": 1.0,
                "frame_length_ms": 100.0,
                "frame_shift_ms": 50.0,
                "n_scales": 12,
                "fmin_hz": 200.0,
                "fmax_hz": 4000.0,
                "wavelet_hop": 1600,
                "spec_input": "mel",
                "n_mels": 64,
                "log_magnitude": True,
            },
            "encoder": {"d": 64, "seed": seed},
            "train": {
                "batch_size": batch_size,
                "epochs": epochs,
                "lr": 1e-3,
                "seed": seed,
                "modalities": modalities,
                "vocab_size": 300,
            },
        }
    )
