"""CLI surface: subcommands, exit codes, artifact round trips."""

import json

import numpy as np
import pytest

from tricl.cli import main
from tricl.dsp import write_wav
from tricl.synth import SynthSpec


SPEC = {
    "seed": 0,
    "samples_per_class": 5,
    "duration_seconds": 0.35,
    "noise_level": 0.02,
    "classes": [
        {"name": "Alpha", "f0_hz": 400.0, "harmonics": [1.0, 0.4]},
        {"name": "Bravo", "f0_hz": 1100.0, "harmonics": [1.0, 0.4]},
    ],
    "aux_fields": {"distance": {"values": ["close", "far"], "missing_rate": 0.2}},
}

CONFIG = {
    "preprocess": {
        "segment_seconds": 0.35,
        "overlap_seconds": 0.0,
        "frame_length_ms": 20.0,
        "frame_shift_ms": 10.0,
        "n_scales": 4,
        "fmin_hz": 300.0,
        "fmax_hz": 3000.0,
        "wavelet_hop": 800,
    },
    "encoder": {
        "d": 8,
        "conv_channels": [4, 6],
        "transformer_layers": 1,
        "transformer_heads": 2,
        "transformer_width": 16,
        "seed": 0,
    },
    "train": {"batch_size": 4, "epochs": 1, "lr": 1e-3, "seed": 0, "vocab_size": 280, "max_tokens": 64},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    config_path = root / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    data_dir = root / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data_dir)]) == 0
    return root


def test_synth_writes_wavs_and_manifest(workspace):
    data = workspace / "data"
    assert (data / "manifest.jsonl").exists()
    assert len(list(data.glob("*.wav"))) == 10


def test_synth_missing_spec_is_config_error(tmp_path):
    assert main(["synth", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1


def test_usage_error_exit_code():
    assert main(["train"]) == 1  # missing required arguments


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 1


def test_train_eval_infer_round_trip(workspace, capsys):
    ckpt = workspace / "model.ckpt"
    manifest = workspace / "data" / "manifest.jsonl"
    config = workspace / "config.json"
    assert main([
        "train", "--manifest", str(manifest), "--config", str(config),
        "--out", str(ckpt), "--holdout-fold", "0",
    ]) == 0
    assert ckpt.exists() and (workspace / "model.ckpt.log").exists()
    capsys.readouterr()

    assert main([
        "eval", "--ckpt", str(ckpt), "--manifest", str(manifest),
        "--fold", "0", "--report", str(workspace / "report.txt"),
    ]) == 0
    report = capsys.readouterr().out
    assert "mean accuracy" in report
    assert json.loads(report.split("JSON: ", 1)[1])

    labels_path = workspace / "labels.json"
    labels_path.write_text(json.dumps(["Alpha", "Bravo"]))
    wav = sorted((workspace / "data").glob("*.wav"))[0]
    assert main(["infer", "--ckpt", str(ckpt), "--wav", str(wav), "--labels", str(labels_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["prediction"] in ("Alpha", "Bravo")
    assert len(out["similarities"]) == 2


def _rewrite_meta(src, dst, edit):
    with np.load(src) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["__meta__"] = np.array(json.dumps(edit(json.loads(str(arrays["__meta__"])))))
    with open(dst, "wb") as f:
        np.savez(f, **arrays)


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda meta: {k: v for k, v in meta.items() if k != "config"}, "config"),
        (lambda meta: {**meta, "class_labels": "Alpha"}, "class_labels"),
        (lambda meta: [meta], "metadata"),
    ],
    ids=["missing-config", "ill-typed-labels", "list-meta"],
)
def test_malformed_checkpoint_metadata_is_data_error(workspace, tmp_path, capsys, edit, field):
    from tricl.checkpoint import load_checkpoint
    from tricl.errors import DataError

    bad = tmp_path / "bad.ckpt"
    _rewrite_meta(workspace / "model.ckpt", bad, edit)
    with pytest.raises(DataError, match=field):
        load_checkpoint(bad)
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps(["Alpha", "Bravo"]))
    wav = sorted((workspace / "data").glob("*.wav"))[0]
    assert main(["infer", "--ckpt", str(bad), "--wav", str(wav), "--labels", str(labels_path)]) == 2
    assert field in capsys.readouterr().err


def test_infer_empty_wav_is_data_error(workspace, tmp_path, capsys):
    wav = tmp_path / "empty.wav"
    write_wav(wav, np.zeros(0))
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps(["Alpha", "Bravo"]))
    ckpt = workspace / "model.ckpt"
    assert main(["infer", "--ckpt", str(ckpt), "--wav", str(wav), "--labels", str(labels_path)]) == 2
    assert "empty" in capsys.readouterr().err


def test_holdout_fold_matches_eval_fold_for_any_train_seed(workspace, tmp_path, capsys):
    # `train --holdout-fold` must hold out the fold `eval --fold` scores,
    # whatever seed the training run uses
    config = tmp_path / "seed3.json"
    config.write_text(json.dumps({**CONFIG, "train": {**CONFIG["train"], "seed": 3}}))
    ckpt = tmp_path / "seed3.ckpt"
    manifest = workspace / "data" / "manifest.jsonl"
    assert main(["train", "--manifest", str(manifest), "--config", str(config),
                 "--out", str(ckpt), "--holdout-fold", "0"]) == 0
    assert main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest), "--fold", "0"]) == 0


def test_eval_full_folds_leaks_protocol_error(workspace, capsys):
    # the checkpoint trained on folds 1-3; folds 1-3 therefore leak
    ckpt = workspace / "model.ckpt"
    manifest = workspace / "data" / "manifest.jsonl"
    assert main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest), "--folds", "4"]) == 3


def test_tune_encoder_produces_classifier(workspace, capsys):
    ckpt = workspace / "model.ckpt"
    out = workspace / "clf.ckpt"
    manifest = workspace / "data" / "manifest.jsonl"
    config = workspace / "config.json"
    assert main([
        "tune", "encoder", "--ckpt", str(ckpt), "--manifest", str(manifest),
        "--config", str(config), "--out", str(out), "--holdout-fold", "0",
    ]) == 0
    from tricl.checkpoint import load_checkpoint
    from tricl.tuning import ClassifierModel

    assert isinstance(load_checkpoint(out), ClassifierModel)


def test_tune_encoder_rejects_template(workspace, tmp_path, capsys):
    # the encoder strategy trains on the checkpoint's template; a --template it would ignore is a usage error
    ckpt = workspace / "model.ckpt"
    manifest = workspace / "data" / "manifest.jsonl"
    missing = tmp_path / "nonexistent.txt"
    for strategy in ("encoder", "uart"):
        assert main([
            "tune", strategy, "--ckpt", str(ckpt), "--manifest", str(manifest),
            "--out", str(tmp_path / f"{strategy}.ckpt"), "--template", str(missing),
        ]) == 1
        assert not (tmp_path / f"{strategy}.ckpt").exists()


@pytest.mark.parametrize(
    "key, value",
    [("wavelet_hop", 0), ("wavelet_hop", -800), ("wavelet_hop", 1.5),
     ("wavelet_truncation", 0), ("wavelet_truncation", -1e-4), ("wavelet_truncation", 1.0)],
)
def test_bad_wavelet_settings_rejected_at_config_load(workspace, tmp_path, capsys, key, value):
    from tricl.config import RunConfig
    from tricl.errors import ConfigError

    bad = {**CONFIG, "preprocess": {**CONFIG["preprocess"], key: value}}
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(bad)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(bad))
    ckpt = tmp_path / "bad.ckpt"
    manifest = workspace / "data" / "manifest.jsonl"
    assert main(["train", "--manifest", str(manifest), "--config", str(config), "--out", str(ckpt)]) == 1
    assert key in capsys.readouterr().err
    assert not ckpt.exists()


def test_tune_uart_round_trip(workspace, capsys):
    ckpt = workspace / "model.ckpt"
    out = workspace / "tuned.ckpt"
    manifest = workspace / "data" / "manifest.jsonl"
    assert main([
        "tune", "uart", "--ckpt", str(ckpt), "--manifest", str(manifest),
        "--out", str(out), "--holdout-fold", "0",
    ]) == 0
    assert out.exists()


def test_infer_rejects_bad_labels_file(workspace, tmp_path, capsys):
    ckpt = workspace / "model.ckpt"
    bad = tmp_path / "labels.json"
    bad.write_text("{\"not\": \"a list\"}")
    wav = sorted((workspace / "data").glob("*.wav"))[0]
    assert main(["infer", "--ckpt", str(ckpt), "--wav", str(wav), "--labels", str(bad)]) == 1


def test_data_error_exit_code(workspace, tmp_path):
    manifest = tmp_path / "broken.jsonl"
    manifest.write_text(json.dumps({"audio": "missing.wav", "source_id": "x",
                                    "vessel_type": "Tug", "sample_rate_hz": 16000}))
    ckpt = workspace / "model.ckpt"
    assert main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest)]) == 2


def test_determinism_of_log_and_report(workspace, tmp_path, capsys):
    manifest = workspace / "data" / "manifest.jsonl"
    config = workspace / "config.json"
    outputs = []
    for name in ("a", "b"):
        ckpt = tmp_path / f"{name}.ckpt"
        log = tmp_path / f"{name}.log"
        report = tmp_path / f"{name}.report"
        assert main(["train", "--manifest", str(manifest), "--config", str(config),
                     "--out", str(ckpt), "--holdout-fold", "0", "--log", str(log)]) == 0
        assert main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--fold", "0", "--report", str(report)]) == 0
        capsys.readouterr()
        outputs.append((log.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]
