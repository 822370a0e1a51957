"""Synthetic labeled + annotated recordings standing in for real ship noise.

Each class has a harmonic signature (fundamental + per-harmonic amplitudes);
auxiliary tags modulate the waveform through audible effects (attenuation,
low-pass, spectral tilt, added noise). A class may key its fundamental on an
auxiliary value, which makes two classes spectrally overlapping unless the
auxiliary tag is resolved - the engineered confusability used to probe
whether auxiliary text actually helps.

Determinism: the tonal part of a waveform depends only on (seed, class,
auxiliary values), so ``synth_generate`` renders each tone once; per-sample
randomness enters through the additive noise and the auxiliary value /
missing-annotation draws.

The low-pass is numpy alone: a blocked form of the one-pole filter
``scipy.signal.lfilter([1 - a], [1, -a], x)``, equal to it within 1e-15 and
giving the same 16-bit WAV bytes.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dsp import TARGET_RATE, write_wav
from .errors import ConfigError

_AUX_STREAM, _PHASE_STREAM, _NOISE_STREAM = 1, 2, 3
_LOWPASS_BLOCK = 64

# audible signatures of the canonical annotation vocabulary
DEFAULT_EFFECTS: dict[str, dict[str, float]] = {
    "close": {},
    "far": {"gain": 0.35, "lowpass": 0.9},
    "shallow": {},
    "deep": {"tilt": 1.0},
    "calm": {},
    "breeze": {"noise": 0.02},
    "windy": {"noise": 0.06},
}


# effect key -> (accepts the value, what it accepts); a low-pass at 1 or above diverges
_EFFECT_RANGES = {
    "gain": (lambda x: 0.0 <= x < math.inf, "finite and >= 0"),
    "lowpass": (lambda x: 0.0 <= x < 1.0, "in [0, 1)"),
    "tilt": (math.isfinite, "finite"),
    "noise": (lambda x: 0.0 <= x < math.inf, "finite and >= 0"),
}


@dataclass
class ClassSpec:
    name: str
    f0_hz: float | dict[str, float]
    harmonics: tuple[float, ...] = (1.0, 0.5, 0.25)
    f0_field: str | None = None  # aux field conditioning the fundamental

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:  # it names the WAVs and is the vessel type
            raise ConfigError(f"class name must be a nonempty string, got {self.name!r}")
        if not isinstance(self.harmonics, (list, tuple)) or not self.harmonics:
            raise ConfigError(f"class {self.name}: harmonics must be a nonempty list of amplitudes")
        self.harmonics = tuple(float(h) for h in self.harmonics)
        if isinstance(self.f0_hz, dict):
            if not self.f0_field:
                raise ConfigError(f"class {self.name}: per-value f0_hz needs f0_field")
            self.f0_hz = {k: float(v) for k, v in self.f0_hz.items()}
        else:
            self.f0_hz = float(self.f0_hz)
        f0s = self.f0_hz.values() if isinstance(self.f0_hz, dict) else [self.f0_hz]
        if not all(map(math.isfinite, f0s)):  # a NaN would reach the 16-bit WAVs
            raise ConfigError(f"class {self.name}: f0_hz must be finite, got {self.f0_hz}")
        if not all(map(math.isfinite, self.harmonics)):
            raise ConfigError(f"class {self.name}: harmonics must be finite, got {list(self.harmonics)}")

    def signature(self):
        f0 = self.f0_hz if isinstance(self.f0_hz, float) else tuple(sorted(self.f0_hz.items()))
        return (f0, self.harmonics)


@dataclass
class AuxFieldSpec:
    values: tuple[str, ...]
    missing_rate: float = 0.0
    effects: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.values, str) or not self.values or not all(isinstance(v, str) for v in self.values):
            raise ConfigError("aux field needs a nonempty list of string values")
        self.values = tuple(self.values)
        self.effects = {v: {k: float(x) for k, x in e.items()} for v, e in self.effects.items()}
        for value, effect in self.effects.items():
            if value not in self.values:
                raise ConfigError(f"effect {value!r}: not one of the field's values {list(self.values)}")
            for key, x in effect.items():
                if key not in _EFFECT_RANGES:
                    raise ConfigError(f"effect {value!r}: unknown key {key!r} (known: {', '.join(_EFFECT_RANGES)})")
                ok, allowed = _EFFECT_RANGES[key]
                if not ok(x):
                    raise ConfigError(f"effect {value!r}: {key} must be {allowed}, got {x}")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ConfigError(f"missing_rate must be in [0, 1), got {self.missing_rate}")

    def effect_for(self, value: str) -> dict[str, float]:
        if value in self.effects:
            return self.effects[value]
        return DEFAULT_EFFECTS.get(value, {})


@dataclass
class SynthSpec:
    classes: list[ClassSpec]
    aux_fields: dict[str, AuxFieldSpec] = field(default_factory=dict)
    samples_per_class: int = 20
    duration_seconds: float = 2.0
    noise_level: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if not self.classes:
            raise ConfigError("need at least one class")
        self.samples_per_class, self.seed = operator.index(self.samples_per_class), operator.index(self.seed)
        self.duration_seconds, self.noise_level = float(self.duration_seconds), float(self.noise_level)
        if self.samples_per_class < 1:
            raise ConfigError(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        if not (math.isfinite(self.duration_seconds) and round(self.duration_seconds * TARGET_RATE) >= 1):
            raise ConfigError(f"duration_seconds must be finite and hold at least one sample at {TARGET_RATE} Hz, "
                              f"got {self.duration_seconds}")
        if not 0.0 <= self.noise_level < math.inf:
            raise ConfigError(f"noise_level must be finite and >= 0, got {self.noise_level}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):  # a repeated name overwrites the other class's WAVs
            raise ConfigError(f"class names must be distinct, got {names}")
        signatures = [c.signature() for c in self.classes]
        if len(set(signatures)) != len(signatures):
            raise ConfigError("class signatures must be pairwise distinct")
        for c in self.classes:
            if c.f0_field is not None and c.f0_field not in self.aux_fields:
                raise ConfigError(f"class {c.name}: f0_field {c.f0_field!r} is not a configured aux field")

    @classmethod
    def from_dict(cls, data) -> "SynthSpec":
        """Build a spec from parsed JSON; any malformed part is a ConfigError."""
        if not isinstance(data, dict):
            raise ConfigError(f"synth spec must be a JSON object, got {type(data).__name__}")
        try:
            classes = [ClassSpec(**c) for c in data.get("classes", [])]
            aux = {name: AuxFieldSpec(**spec) for name, spec in data.get("aux_fields", {}).items()}
            kwargs = {k: data[k] for k in ("samples_per_class", "duration_seconds", "noise_level", "seed") if k in data}
            return cls(classes=classes, aux_fields=aux, **kwargs)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed synth spec: {exc}") from exc

    @classmethod
    def load(cls, path) -> "SynthSpec":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"synth spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def _lowpass(sig: np.ndarray, a: float) -> np.ndarray:
    """One-pole low-pass y[n] = (1 - a) x[n] + a y[n - 1] from rest, for a in [0, 1).

    Blocks of L samples get their zero-state response from one matmul with
    the L x L impulse-response matrix; a scalar loop then carries the last
    output of each block into the next one, where it decays as a**(k + 1).
    """
    n, L = len(sig), _LOWPASS_BLOCK
    x = np.zeros(-(-n // L) * L)
    x[:n] = sig
    x = x.reshape(-1, L)
    k = np.arange(L)
    lag = k[:, None] - k[None, :]
    response = np.where(lag >= 0, (1.0 - a) * a ** np.maximum(lag, 0), 0.0)
    y = x @ response.T
    decay = a ** (k + 1)
    carry, c, block_decay = [], 0.0, float(decay[-1])
    for last in y[:, -1].tolist():  # Python floats: the same IEEE arithmetic, 4x faster than numpy scalars
        carry.append(c)
        c = last + block_decay * c
    y += np.outer(carry, decay)
    return y.ravel()[:n]


def _render_tone(spec: SynthSpec, class_idx: int, aux_values: dict[str, str]) -> np.ndarray:
    """Deterministic tonal waveform for one (class, auxiliary-values) pair."""
    cls = spec.classes[class_idx]
    n = int(round(spec.duration_seconds * TARGET_RATE))
    t = np.arange(n) / TARGET_RATE

    if isinstance(cls.f0_hz, dict):
        value = aux_values.get(cls.f0_field)
        if value not in cls.f0_hz:
            raise ConfigError(f"class {cls.name}: no f0 for {cls.f0_field}={value!r}")
        f0 = cls.f0_hz[value]
    else:
        f0 = cls.f0_hz
    amps = np.array(cls.harmonics, dtype=np.float64)
    gain = 1.0
    lowpass = None
    for fname in sorted(aux_values):
        effect = spec.aux_fields[fname].effect_for(aux_values[fname])
        if "tilt" in effect:
            amps = amps * (np.arange(1, len(amps) + 1) ** -effect["tilt"])
        if "gain" in effect:
            gain *= effect["gain"]
        if "lowpass" in effect:
            lowpass = effect["lowpass"]

    phase_key = [spec.seed, _PHASE_STREAM, class_idx]
    for fname in sorted(aux_values):
        fspec = spec.aux_fields[fname]
        phase_key.append(fspec.values.index(aux_values[fname]))
    rng = np.random.default_rng(phase_key)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(amps))

    sig = np.zeros(n)
    for h, (amp, ph) in enumerate(zip(amps, phases), start=1):
        sig += amp * np.sin(2.0 * np.pi * f0 * h * t + ph)
    peak = np.abs(sig).max()
    if peak > 0:
        sig *= 0.5 / peak
    if lowpass is not None:
        sig = _lowpass(sig, lowpass)
    return sig * gain


def _aux_noise(spec: SynthSpec, aux_values: dict[str, str]) -> float:
    extra = 0.0
    for fname, value in aux_values.items():
        extra += spec.aux_fields[fname].effect_for(value).get("noise", 0.0)
    return extra


def synth_generate(spec: SynthSpec, out_dir) -> Path:
    """Write WAVs + manifest.jsonl under out_dir; returns the manifest path."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

    rows = []
    tones: dict[tuple, np.ndarray] = {}  # read only: noise goes into a new array
    for ci, cls in enumerate(spec.classes):
        for si in range(spec.samples_per_class):
            sample_rng = np.random.default_rng([spec.seed, _AUX_STREAM, ci, si])
            aux_values: dict[str, str] = {}
            missing: set[str] = set()
            for fname in sorted(spec.aux_fields):
                fspec = spec.aux_fields[fname]
                aux_values[fname] = fspec.values[int(sample_rng.integers(len(fspec.values)))]
                if sample_rng.random() < fspec.missing_rate:
                    missing.add(fname)

            key = (ci, tuple(sorted(aux_values.items())))
            if key not in tones:
                tones[key] = _render_tone(spec, ci, aux_values)
            sig = tones[key]
            sigma = spec.noise_level + _aux_noise(spec, aux_values)
            if sigma > 0:
                noise_rng = np.random.default_rng([spec.seed, _NOISE_STREAM, ci, si])
                sig = sig + sigma * noise_rng.standard_normal(len(sig))

            name = f"{cls.name}_{si:03d}"
            wav_name = f"{name}.wav"
            try:
                write_wav(out_dir / wav_name, sig, TARGET_RATE)
            except OSError as exc:
                raise ConfigError(f"cannot write {out_dir / wav_name}: {exc}") from exc

            row = {
                "audio": wav_name,
                "source_id": name,
                "vessel_type": cls.name,
                "sample_rate_hz": TARGET_RATE,
            }
            for fname, value in aux_values.items():
                if fname not in missing:
                    row[fname] = value
            rows.append(json.dumps(row, sort_keys=True))

    manifest_path = out_dir / "manifest.jsonl"
    manifest_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return manifest_path


# ---------------------------------------------------------------------------
# presets used by the experiment scripts
# ---------------------------------------------------------------------------


def three_class_spec(seed: int = 0, samples_per_class: int = 24, duration_seconds: float = 2.0) -> SynthSpec:
    """Three separable classes with audible distance effects."""
    return SynthSpec(
        classes=[
            ClassSpec("Alpha", 220.0, (1.0, 0.5, 0.25, 0.12)),
            ClassSpec("Bravo", 420.0, (0.4, 1.0, 0.3, 0.1)),
            ClassSpec("Charlie", 760.0, (1.0, 0.2, 0.6, 0.05)),
        ],
        aux_fields={"distance": AuxFieldSpec(("close", "far"))},
        samples_per_class=samples_per_class,
        duration_seconds=duration_seconds,
        noise_level=0.02,
        seed=seed,
    )


def confusable_pair_spec(seed: int = 0, samples_per_class: int = 24, duration_seconds: float = 2.0) -> SynthSpec:
    """Two classes whose fundamentals swap with distance.

    Either class emits 300 Hz or 510 Hz depending on how far it is, so the
    (fundamental, distance-cue) pair determines the class while neither cue
    alone does. Distance stays audible through attenuation and low-pass.
    """
    return SynthSpec(
        classes=[
            ClassSpec("Alpha", {"close": 300.0, "far": 510.0}, (1.0, 0.5, 0.25), f0_field="distance"),
            ClassSpec("Bravo", {"close": 510.0, "far": 300.0}, (1.0, 0.5, 0.25), f0_field="distance"),
        ],
        aux_fields={"distance": AuxFieldSpec(("close", "far"))},
        samples_per_class=samples_per_class,
        duration_seconds=duration_seconds,
        noise_level=0.02,
        seed=seed,
    )


def transfer_target_spec(seed: int = 0, samples_per_class: int = 24, duration_seconds: float = 2.0) -> SynthSpec:
    """Label-only task with classes disjoint from the pretraining presets."""
    return SynthSpec(
        classes=[
            ClassSpec("Delta", 330.0, (1.0, 0.4, 0.35, 0.1)),
            ClassSpec("Echo", 560.0, (0.5, 1.0, 0.2, 0.15)),
            ClassSpec("Foxtrot", 950.0, (1.0, 0.3, 0.5)),
        ],
        samples_per_class=samples_per_class,
        duration_seconds=duration_seconds,
        noise_level=0.02,
        seed=seed,
    )


def wind_annotated_spec(seed: int = 0, missing_rate: float = 0.15, samples_per_class: int = 20,
                        duration_seconds: float = 2.0) -> SynthSpec:
    """Three classes with an (optionally incomplete) wind annotation."""
    return SynthSpec(
        classes=[
            ClassSpec("Alpha", 220.0, (1.0, 0.5, 0.25, 0.12)),
            ClassSpec("Bravo", 420.0, (0.4, 1.0, 0.3, 0.1)),
            ClassSpec("Charlie", 760.0, (1.0, 0.2, 0.6, 0.05)),
        ],
        aux_fields={
            "distance": AuxFieldSpec(("close", "far")),
            "wind": AuxFieldSpec(("calm", "windy"), missing_rate=missing_rate),
        },
        samples_per_class=samples_per_class,
        duration_seconds=duration_seconds,
        noise_level=0.02,
        seed=seed,
    )
