"""Synthetic generator: determinism, annotation gaps, learnability."""

import json

import numpy as np
import pytest
import scipy.signal

import tricl.synth
from helpers import tiny_run_config
from tricl.cli import main
from tricl.data import ingest, make_folds
from tricl.dsp import read_wav, stft_spectrogram
from tricl.errors import ConfigError
from tricl.experiments import PRESETS
from tricl.synth import (
    AuxFieldSpec,
    ClassSpec,
    SynthSpec,
    confusable_pair_spec,
    synth_generate,
    three_class_spec,
    wind_annotated_spec,
)
from tricl.templates import AUX_TEMPLATE_TEXT, parse_template


def small_spec(**kw):
    defaults = dict(samples_per_class=4, duration_seconds=0.2, seed=0)
    defaults.update(kw)
    return three_class_spec(**{k: v for k, v in defaults.items() if k in ("seed", "samples_per_class", "duration_seconds")})


def _recording_renders(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Patch _render_tone to keep each tone it returns beside a copy made at return."""
    renders, render = [], tricl.synth._render_tone

    def recorded(*args):
        tone = render(*args)
        renders.append((tone, tone.copy()))
        return tone

    monkeypatch.setattr(tricl.synth, "_render_tone", recorded)
    return renders


def test_counts_match_spec(tmp_path):
    spec = SynthSpec(
        classes=[ClassSpec("A", 300.0), ClassSpec("B", 500.0), ClassSpec("C", 800.0)],
        samples_per_class=20,
        duration_seconds=0.1,
    )
    manifest_path = synth_generate(spec, tmp_path)
    rows = [json.loads(l) for l in manifest_path.read_text().splitlines()]
    assert len(rows) == 60
    assert len(list(tmp_path.glob("*.wav"))) == 60


def test_missing_rate_roughly_15_percent_and_deterministic(tmp_path):
    spec = wind_annotated_spec(seed=5, missing_rate=0.15, samples_per_class=20, duration_seconds=0.1)
    rows1 = [json.loads(l) for l in synth_generate(spec, tmp_path / "a").read_text().splitlines()]
    rows2 = [json.loads(l) for l in synth_generate(spec, tmp_path / "b").read_text().splitlines()]
    missing1 = sum(1 for r in rows1 if "wind" not in r)
    missing2 = sum(1 for r in rows2 if "wind" not in r)
    assert missing1 == missing2  # deterministic under seed
    assert 3 <= missing1 <= 15  # ~= 9 of 60


def test_noise_zero_same_tags_identical_waveforms(tmp_path, monkeypatch):
    renders = _recording_renders(monkeypatch)
    spec = SynthSpec(
        classes=[ClassSpec("A", 300.0), ClassSpec("B", 460.0)],
        samples_per_class=6,
        duration_seconds=0.1,
        noise_level=0.0,
        seed=1,
    )
    manifest_path = synth_generate(spec, tmp_path)
    rows = [json.loads(l) for l in manifest_path.read_text().splitlines()]
    a_rows = [r for r in rows if r["vessel_type"] == "A"]
    w0, _ = read_wav(tmp_path / a_rows[0]["audio"])
    w1, _ = read_wav(tmp_path / a_rows[1]["audio"])
    assert np.array_equal(w0, w1)
    assert (tmp_path / a_rows[0]["audio"]).read_bytes() == (tmp_path / a_rows[1]["audio"]).read_bytes()
    assert len(renders) == 2  # one tone per class, written as it is for each of its 6 samples
    for tone, at_return in renders:
        assert np.array_equal(tone, at_return)


def test_byte_identical_regeneration(tmp_path):
    spec = small_spec()
    p1 = synth_generate(spec, tmp_path / "x")
    p2 = synth_generate(spec, tmp_path / "y")
    assert p1.read_text() == p2.read_text()
    for wav in sorted((tmp_path / "x").glob("*.wav")):
        assert wav.read_bytes() == (tmp_path / "y" / wav.name).read_bytes()


def test_duplicate_signatures_rejected():
    with pytest.raises(ConfigError, match="distinct"):
        SynthSpec(classes=[ClassSpec("A", 300.0), ClassSpec("B", 300.0)])


def test_f0_field_must_exist():
    with pytest.raises(ConfigError):
        SynthSpec(classes=[ClassSpec("A", {"close": 1.0, "far": 2.0}, f0_field="distance")])


def test_spec_json_round_trip(tmp_path):
    spec = confusable_pair_spec(seed=3)
    data = {
        "seed": 3,
        "samples_per_class": spec.samples_per_class,
        "duration_seconds": spec.duration_seconds,
        "noise_level": spec.noise_level,
        "classes": [
            {"name": c.name, "f0_hz": c.f0_hz, "harmonics": list(c.harmonics), "f0_field": c.f0_field}
            for c in spec.classes
        ],
        "aux_fields": {
            name: {"values": list(f.values), "missing_rate": f.missing_rate, "effects": f.effects}
            for name, f in spec.aux_fields.items()
        },
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    loaded = SynthSpec.load(path)
    assert [c.signature() for c in loaded.classes] == [c.signature() for c in spec.classes]


def test_linear_probe_separates_classes(tmp_path):
    # nearest-class-mean on time-averaged STFT features; generator sanity check
    spec = three_class_spec(seed=2, samples_per_class=8, duration_seconds=0.5)
    manifest_path = synth_generate(spec, tmp_path)
    cfg = tiny_run_config()
    cfg.preprocess.segment_seconds = 0.5
    cfg.preprocess.overlap_seconds = 0.25
    dataset, manifest = ingest(manifest_path, parse_template(AUX_TEMPLATE_TEXT), cfg.preprocess)
    folds = make_folds(manifest, 4, 0)
    train, test = dataset.split_by_fold(folds, 0)

    def features(ds):
        feats, labels = [], []
        for s in ds.samples:
            spec_grid = stft_spectrogram(s.segment, 10.0, 5.0).grid
            f = (spec_grid**2).mean(axis=0)
            feats.append(f / np.linalg.norm(f))  # distance attenuation must not dominate
            labels.append(s.vessel_type)
        return np.array(feats), labels

    ftr, ltr = features(train)
    fte, lte = features(test)
    classes = sorted(set(ltr))
    means = {c: ftr[[i for i, l in enumerate(ltr) if l == c]].mean(axis=0) for c in classes}
    hits = 0
    for f, l in zip(fte, lte):
        pred = min(classes, key=lambda c: np.linalg.norm(f - means[c]))
        hits += pred == l
    assert hits / len(lte) >= 0.9


L = tricl.synth._LOWPASS_BLOCK


@pytest.mark.parametrize("n", [1, L - 1, L, L + 1, 32000])
@pytest.mark.parametrize("a", [0.0, 0.5, 0.9, 0.999])
def test_lowpass_matches_scipy_lfilter(a, n):
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    y = tricl.synth._lowpass(x, a)
    assert y.shape == x.shape
    np.testing.assert_allclose(y, scipy.signal.lfilter([1.0 - a], [1.0, -a], x), rtol=0, atol=1e-15)


def test_presets_write_the_wav_bytes_of_the_scipy_filter(tmp_path, monkeypatch):
    for name, preset in PRESETS.items():
        synth_generate(preset(), tmp_path / "numpy" / name)
    monkeypatch.setattr(tricl.synth, "_lowpass", lambda x, a: scipy.signal.lfilter([1.0 - a], [1.0, -a], x))
    for name, preset in PRESETS.items():
        synth_generate(preset(), tmp_path / "scipy" / name)
    written = sorted(p.relative_to(tmp_path / "scipy") for p in (tmp_path / "scipy").rglob("*") if p.is_file())
    assert len(written) == 5 + 3 * 24 * 2 + 2 * 24 + 2 * 3 * 20  # manifests and WAVs
    for rel in written:
        assert (tmp_path / "numpy" / rel).read_bytes() == (tmp_path / "scipy" / rel).read_bytes(), rel


def test_each_tone_is_rendered_once(tmp_path, monkeypatch):
    renders = _recording_renders(monkeypatch)
    synth_generate(three_class_spec(samples_per_class=24, duration_seconds=0.1), tmp_path)
    assert len(renders) == 6  # 3 classes x 2 distances, for 72 recordings


@pytest.mark.parametrize(
    "effect, message",
    [
        ({"lowpas": 0.9}, "effect 'far': unknown key 'lowpas'"),
        ({"lowpass": 1.5}, "effect 'far': lowpass must be in [0, 1), got 1.5"),
        ({"lowpass": 1.0}, "effect 'far': lowpass must be in [0, 1), got 1.0"),
        ({"lowpass": -0.1}, "effect 'far': lowpass must be in [0, 1), got -0.1"),
        ({"gain": -0.35}, "effect 'far': gain must be finite and >= 0, got -0.35"),
        ({"noise": -0.02}, "effect 'far': noise must be finite and >= 0, got -0.02"),
        ({"tilt": float("nan")}, "effect 'far': tilt must be finite, got nan"),
        ({"tilt": float("inf")}, "effect 'far': tilt must be finite, got inf"),
        ({"gain": float("inf")}, "effect 'far': gain must be finite and >= 0, got inf"),
    ],
)
def test_malformed_effect_is_config_error(tmp_path, capsys, effect, message):
    with pytest.raises(ConfigError) as raised:
        AuxFieldSpec(("close", "far"), effects={"far": effect})
    assert message in str(raised.value)
    spec = {"classes": [{"name": "A", "f0_hz": 300.0}],
            "aux_fields": {"distance": {"values": ["close", "far"], "effects": {"far": effect}}}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))  # Python's json writes NaN and Infinity, and reads them back
    assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.wav"))


def test_effect_for_an_unknown_value_is_config_error(tmp_path, capsys):
    message = "effect 'farr': not one of the field's values ['close', 'far']"
    with pytest.raises(ConfigError) as raised:
        AuxFieldSpec(("close", "far"), effects={"farr": {"gain": 0.1}})
    assert message in str(raised.value)
    spec = {"classes": [{"name": "A", "f0_hz": 300.0}],
            "aux_fields": {"distance": {"values": ["close", "far"], "effects": {"farr": {"gain": 0.1}}}}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.wav"))


def test_well_formed_effects_are_accepted():
    effects = {"far": {"gain": 0.0, "lowpass": 0.0}, "deep": {"tilt": -2.0, "noise": 0.0}, "close": {}}
    assert AuxFieldSpec(("close", "far", "deep"), effects=effects).effects == effects
