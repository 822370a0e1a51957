"""CLI surface: subcommands, exit codes, artifact round trips."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from tricl.cli import main
from tricl.dsp import write_wav

DATA = Path(__file__).parent / "data"

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
        "n_mels": 64,  # at most the 257 bins of a 20-ms frame, so a tuning config may switch to mel
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
    # the checkpoint that most tests read, so that each of them passes alone
    assert main([
        "train", "--manifest", str(data_dir / "manifest.jsonl"), "--config", str(config_path),
        "--out", str(root / "model.ckpt"), "--holdout-fold", "0",
    ]) == 0
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


def test_train_eval_infer_round_trip(workspace, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    manifest = workspace / "data" / "manifest.jsonl"
    config = workspace / "config.json"
    assert main([
        "train", "--manifest", str(manifest), "--config", str(config),
        "--out", str(ckpt), "--holdout-fold", "0",
    ]) == 0
    assert ckpt.exists() and (tmp_path / "model.ckpt.log").exists()
    capsys.readouterr()

    assert main([
        "eval", "--ckpt", str(ckpt), "--manifest", str(manifest),
        "--fold", "0", "--report", str(tmp_path / "report.txt"),
    ]) == 0
    report = capsys.readouterr().out
    assert "mean accuracy" in report
    assert json.loads(report.split("JSON: ", 1)[1])

    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps(["Alpha", "Bravo"]))
    wav = sorted((workspace / "data").glob("*.wav"))[0]
    assert main(["infer", "--ckpt", str(ckpt), "--wav", str(wav), "--labels", str(labels_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["prediction"] in ("Alpha", "Bravo")
    assert len(out["similarities"]) == 2


def _rewrite(src, dst, edit):
    """Copy a checkpoint, passing its (metadata, arrays) through `edit`."""
    with np.load(src) as z:
        arrays = {k: z[k] for k in z.files if k != "__meta__"}
        meta = json.loads(str(z["__meta__"]))
    meta, arrays = edit(meta, arrays)
    with open(dst, "wb") as f:
        np.savez(f, __meta__=np.array(json.dumps(meta)), **arrays)


def _rewrite_meta(src, dst, edit):
    _rewrite(src, dst, lambda meta, arrays: (edit(meta), arrays))


def _as_version_1(meta, arrays):
    """The version 1 layout: one npz member per parameter, no index."""
    flat, offset, members = arrays["params"], 0, {}
    for name, shape in meta.pop("params"):
        size = int(np.prod(shape))
        members["param::" + name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return {**meta, "version": 1}, members


def _edit_index(edit):
    def rewrite(meta, arrays):
        edit(meta["params"])
        return meta, arrays

    return rewrite


def _transpose_entry(name):
    def edit(index):
        entry = next(e for e in index if e[0] == name)
        entry[1] = entry[1][::-1]

    return edit


@pytest.mark.parametrize(
    "edit, error, message, code",
    [
        (_as_version_1, "ConfigError", "unsupported checkpoint version 1", 1),
        (_edit_index(lambda index: index.pop()), "DataError", "index covers", 2),
        (_edit_index(lambda index: index[0].__setitem__(0, "wavelet.q")), "ConfigError", "wavelet.q", 1),
        (_edit_index(_transpose_entry("audio.proj.w")), "ConfigError",
         r"audio\.proj\.w has shape \(8, 6\), expected \(6, 8\)", 1),
    ],
    ids=["version-1", "index-short-of-array", "unknown-name", "shape-disagrees"],
)
def test_malformed_checkpoint_params_exit_code(workspace, tmp_path, capsys, edit, error, message, code):
    import tricl.errors
    from tricl.checkpoint import load_checkpoint

    bad = tmp_path / "bad.ckpt"
    _rewrite(workspace / "model.ckpt", bad, edit)
    with pytest.raises(getattr(tricl.errors, error), match=message):
        load_checkpoint(bad)
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps(["Alpha", "Bravo"]))
    wav = sorted((workspace / "data").glob("*.wav"))[0]
    assert main(["infer", "--ckpt", str(bad), "--wav", str(wav), "--labels", str(labels_path)]) == code
    assert re.search(message, capsys.readouterr().err)


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


def test_ill_typed_stored_config_is_data_error(workspace, tmp_path, capsys):
    # the stored config used to reach RunConfig.from_dict unguarded: exit 1, no checkpoint named
    bad = tmp_path / "bad.ckpt"
    _rewrite_meta(DATA / "classifier_v2.ckpt", bad, lambda meta: {
        **meta, "config": {**meta["config"], "train": {**meta["config"]["train"], "batch_size": "8"}}})
    assert main(["eval", "--ckpt", str(bad), "--manifest", str(workspace / "data" / "manifest.jsonl")]) == 2
    assert f"{bad}: malformed config: train.batch_size is '8', expected int" in capsys.readouterr().err


def _set_param(name, value):
    """An edit that writes `value` into every entry of parameter `name`."""
    def rewrite(meta, arrays):
        flat, offset = arrays["params"].copy(), 0
        for entry, shape in meta["params"]:
            size = int(np.prod(shape))
            if entry == name:
                flat[offset : offset + size] = value
            offset += size
        return meta, {**arrays, "params": flat}

    return rewrite


@pytest.mark.parametrize("name, value", [("wavelet.f_c", np.nan), ("wavelet.f_b", np.inf), ("wavelet.m", np.nan)])
def test_non_finite_checkpoint_parameter_is_data_error(workspace, tmp_path, capsys, name, value):
    # f_c = NaN and f_b = inf used to print NaN similarities and exit 0; m = NaN a ValueError traceback
    bad = tmp_path / "bad.ckpt"
    _rewrite(workspace / "model.ckpt", bad, _set_param(name, value))
    assert _infer(bad, workspace, tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{bad}: parameter {name} holds a non-finite value" in captured.err


def _infer_wav(ckpt, wav, tmp_path):
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps(["Alpha", "Bravo"]))
    return main(["infer", "--ckpt", str(ckpt), "--wav", str(wav), "--labels", str(labels_path)])


def _infer(ckpt, workspace, tmp_path):
    return _infer_wav(ckpt, sorted((workspace / "data").glob("*.wav"))[0], tmp_path)


def test_malformed_tokenizer_line_is_data_error(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    _rewrite_meta(workspace / "model.ckpt", bad,
                  lambda meta: {**meta, "tokenizer": meta["tokenizer"].replace("\n", "\nx y\n", 1)})
    assert _infer(bad, workspace, tmp_path) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "line 2 is not a merge of two token ids: 'x y'" in err


def test_truncated_tokenizer_is_data_error(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    _rewrite_meta(DATA / "trimodal_v2.ckpt", bad,
                  lambda meta: {**meta, "tokenizer": "\n".join(meta["tokenizer"].splitlines()[:-5]) + "\n"})
    assert _infer(bad, workspace, tmp_path) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "the header counts 21 merges, 16 merge lines follow it" in err


def test_unrecognized_tokenizer_header_is_config_error(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    _rewrite_meta(workspace / "model.ckpt", bad, lambda meta: {**meta, "tokenizer": "bpe\n" + meta["tokenizer"]})
    assert _infer(bad, workspace, tmp_path) == 1
    assert "tokenizer serialization header" in capsys.readouterr().err


def test_infer_empty_wav_is_data_error(workspace, tmp_path, capsys):
    wav = tmp_path / "empty.wav"
    write_wav(wav, np.zeros(0))
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps(["Alpha", "Bravo"]))
    ckpt = workspace / "model.ckpt"
    assert main(["infer", "--ckpt", str(ckpt), "--wav", str(wav), "--labels", str(labels_path)]) == 2
    assert "empty" in capsys.readouterr().err


def test_infer_wav_too_short_to_resample_is_data_error(workspace, tmp_path, capsys):
    # one sample at 48 kHz resamples to none: this was a ZeroDivisionError traceback, exit 1
    wav = tmp_path / "one.wav"
    write_wav(wav, np.zeros(1), 48000)
    assert _infer_wav(workspace / "model.ckpt", wav, tmp_path) == 2
    assert "1 samples at 48000 Hz resample to no samples" in capsys.readouterr().err


def test_eval_recording_too_short_to_resample_names_its_file(tmp_path, capsys):
    # resample_to_16k's error used to reach the CLI without the recording's path
    wav = tmp_path / "one.wav"
    write_wav(wav, np.zeros(1), 48000)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"audio": "one.wav", "source_id": "one", "vessel_type": "Alpha",
                                    "sample_rate_hz": 48000}) + "\n")
    assert main(["eval", "--ckpt", str(DATA / "trimodal_v2.ckpt"), "--manifest", str(manifest)]) == 2
    assert f"{wav}: 1 samples at 48000 Hz resample to no samples" in capsys.readouterr().err


def test_infer_truncated_wav_is_data_error(workspace, tmp_path, capsys):
    # the first 30 bytes end inside the fmt chunk: this was a struct.error traceback, exit 1
    wav = tmp_path / "cut.wav"
    wav.write_bytes(sorted((workspace / "data").glob("*.wav"))[0].read_bytes()[:30])
    assert _infer_wav(workspace / "model.ckpt", wav, tmp_path) == 2
    assert f"unreadable WAV {wav}" in capsys.readouterr().err


@pytest.mark.parametrize("keep", [0.0, 0.5, 0.999], ids=["empty", "half", "last-bytes-cut"])
def test_truncated_checkpoint_is_data_error(workspace, tmp_path, capsys, keep):
    # an empty file raised EOFError and a truncated one zipfile.BadZipFile: tracebacks, exit 1
    raw = (DATA / "trimodal_v2.ckpt").read_bytes()
    bad = tmp_path / "cut.ckpt"
    bad.write_bytes(raw[: int(len(raw) * keep)])
    assert _infer(bad, workspace, tmp_path) == 2
    assert f"unreadable checkpoint {bad}" in capsys.readouterr().err
    assert main(["eval", "--ckpt", str(bad), "--manifest", str(workspace / "data" / "manifest.jsonl")]) == 2


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--holdout-fold", "7"], "fold 7 is out of range for 4 folds"),
        (["train", "--holdout-fold", "-1"], "fold -1 is out of range for 4 folds"),
        (["train", "--holdout-fold", "0", "--folds", "0"], "at least 2 folds"),
        (["train", "--holdout-fold", "0", "--folds", "1"], "at least 2 folds"),
        (["eval", "--folds", "0"], "at least 2 folds"),
        (["eval", "--fold", "9", "--folds", "4"], "fold 9 is out of range for 4 folds"),
    ],
    ids=["holdout-above", "holdout-negative", "train-zero-folds", "train-one-fold", "eval-zero-folds", "eval-fold-above"],
)
def test_fold_out_of_range_is_config_error(workspace, tmp_path, capsys, argv, message):
    # a held-out fold outside 0..k-1 would hold out nothing; fewer than 2 folds cannot split
    manifest = workspace / "data" / "manifest.jsonl"
    ckpt = tmp_path / "model.ckpt"
    if argv[0] == "train":
        argv = argv + ["--manifest", str(manifest), "--config", str(workspace / "config.json"), "--out", str(ckpt)]
    else:
        argv = argv + ["--manifest", str(manifest), "--ckpt", str(workspace / "model.ckpt")]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not ckpt.exists()


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


def test_tune_encoder_freeze_encoder_trains_head_only(workspace, tmp_path):
    from tricl.checkpoint import load_checkpoint
    from tricl.store import trainable
    from tricl.tuning import ClassifierModel

    ckpt = workspace / "model.ckpt"
    out = tmp_path / "frozen.ckpt"
    assert main([
        "tune", "encoder", "--ckpt", str(ckpt), "--manifest", str(workspace / "data" / "manifest.jsonl"),
        "--config", str(workspace / "config.json"), "--out", str(out), "--holdout-fold", "0", "--freeze-encoder",
    ]) == 0
    source = load_checkpoint(ckpt)
    tuned = load_checkpoint(out)
    n_encoder = len(trainable(tuned.audio_encoder))
    encoder, heads = tuned.store.split(n_encoder)
    source_encoder = source.store.split(len(trainable(source.audio_encoder)))[0]
    assert encoder.index() == source_encoder.index()
    assert encoder.buffer.tobytes() == source_encoder.buffer.tobytes()
    untrained = ClassifierModel(tuned.config, tuned.task_classes).store.split(n_encoder)[1]
    assert heads.index() == untrained.index()
    assert not np.array_equal(heads.buffer, untrained.buffer)


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


@pytest.mark.parametrize(
    "strategy, section, key, value, stored",
    [("uart", "preprocess", "spec_input", "mel", "stft"), ("encoder", "preprocess", "n_scales", 9, 4)],
)
def test_tune_config_contradicting_checkpoint_is_config_error(workspace, tmp_path, capsys,
                                                              strategy, section, key, value, stored):
    config = tmp_path / "tune.json"
    config.write_text(json.dumps({**CONFIG, section: {**CONFIG[section], key: value}}))
    out = tmp_path / "tuned.ckpt"
    assert main([
        "tune", strategy, "--ckpt", str(workspace / "model.ckpt"), "--manifest", str(workspace / "data" / "manifest.jsonl"),
        "--config", str(config), "--out", str(out), "--holdout-fold", "0",
    ]) == 1
    err = capsys.readouterr().err
    assert f"{section}.{key}={value!r}" in err and repr(stored) in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("modalities", "audio_text"), ("max_tokens", 40), ("vocab_size", 300)])
def test_tune_uart_config_with_other_model_shape_is_config_error(workspace, tmp_path, capsys, key, value):
    """The tuned model keeps the checkpoint's encoders and text side, so a
    train key that would shape another model is refused; a classifier has no
    text side, so `tune encoder` takes the same config."""
    from tricl.checkpoint import load_checkpoint

    config = tmp_path / "tune.json"
    config.write_text(json.dumps({**CONFIG, "train": {**CONFIG["train"], key: value}}))
    stored = getattr(load_checkpoint(workspace / "model.ckpt").config.train, key)
    assert stored != value
    common = ["--ckpt", str(workspace / "model.ckpt"), "--manifest", str(workspace / "data" / "manifest.jsonl"),
              "--config", str(config), "--holdout-fold", "0"]
    out = tmp_path / "tuned.ckpt"
    capsys.readouterr()
    assert main(["tune", "uart", *common, "--out", str(out)]) == 1
    assert f"error: tuning config sets train.{key}={value!r}, the checkpoint has {stored!r}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["tune", "encoder", *common, "--out", str(out)]) == 0
    assert out.exists()


def test_tune_encoder_seed_may_differ_from_checkpoint(workspace, tmp_path):
    # the encoder seed only seeds the new head
    config = tmp_path / "tune.json"
    config.write_text(json.dumps({**CONFIG, "encoder": {**CONFIG["encoder"], "seed": 5}}))
    assert main([
        "tune", "encoder", "--ckpt", str(workspace / "model.ckpt"), "--manifest", str(workspace / "data" / "manifest.jsonl"),
        "--config", str(config), "--out", str(tmp_path / "clf.ckpt"), "--holdout-fold", "0",
    ]) == 0


@pytest.mark.parametrize(
    "text, where",
    [
        ("[1,2]", "config must be a JSON object"),
        ('{"train": 5}', "config section train"),
        ('{"train": {"batch_size": "8"}}', "train.batch_size"),
        ('{"encoder": {"d": "64"}}', "encoder.d"),
        ('{"preprocess": {"segment_seconds": "2"}}', "preprocess.segment_seconds"),
        ('{"encoder": {"conv_channels": "ab"}}', "encoder.conv_channels"),
        ('{"encoder": {"transformer_heads": 0}}', "transformer_heads and attn_pool_heads must be >= 1"),
        ('{"train": {"epochs": "3"}}', "train.epochs"),
        ('{"preprocess": {"log_magnitude": 1}}', "preprocess.log_magnitude"),
        ('{"encoder": {"conv_channels": [4, true]}}', "encoder.conv_channels"),
        ('{"train": {"lr": NaN}}', "train.lr"),
        ('{"preprocess": {"fmin_hz": NaN}}', "preprocess.fmin_hz"),
        ('{"train": {"weight_decay": Infinity}}', "train.weight_decay"),
        ('{"preprocess": {"fmax_hz": -Infinity}}', "preprocess.fmax_hz"),
        ('{"train": {"lr": -1}}', "train.lr"),
        ('{"train": {"weight_decay": -1e-5}}', "train.weight_decay"),
        ('{"train": {"epochs": -1}}', "train.epochs"),
        ('{"preprocess": {"segment_seconds": -0.1, "overlap_seconds": -0.2}}', "preprocess.segment_seconds"),
        ('{"preprocess": {"segment_seconds": 0, "overlap_seconds": -1}}', "preprocess.segment_seconds"),
        ('{"preprocess": {"overlap_seconds": -1}}', "preprocess.overlap_seconds"),
        ('{"preprocess": {"fmax_hz": 8000.5}}', "preprocess.fmax_hz"),
        ('{"encoder": {"transformer_width": 0}}', "encoder.transformer_width"),
        ('{"encoder": {"transformer_width": -4}}', "encoder.transformer_width"),
        ('{"encoder": {"transformer_layers": -1}}', "encoder.transformer_layers"),
        ('{"encoder": {"transformer_layers": 0}}', "encoder.transformer_layers"),
        ('{"preprocess": {"n_scales": 0}}', "preprocess.n_scales"),
        ('{"preprocess": {"fmin_hz": 0}}', "preprocess.fmin_hz"),
        ('{"preprocess": {"fmin_hz": -20.0}}', "preprocess.fmin_hz"),
        ('{"preprocess": {"fmin_hz": 5000, "fmax_hz": 4000}}', "preprocess.fmin_hz"),
        ('{"preprocess": {"fmin_hz": 4000, "fmax_hz": 4000}}', "preprocess.fmin_hz"),
        ('{"preprocess": {"frame_length_ms": 0}}', "preprocess.frame_length_ms"),
        ('{"preprocess": {"frame_length_ms": -10.0}}', "preprocess.frame_length_ms"),
        ('{"preprocess": {"frame_shift_ms": 0}}', "preprocess.frame_shift_ms"),
        ('{"preprocess": {"frame_shift_ms": -5.0}}', "preprocess.frame_shift_ms"),
        ('{"encoder": {"conv_channels": []}}', "encoder.conv_channels"),
        ('{"encoder": {"conv_channels": [4, 6], "attn_pool_heads": 4}}', "encoder.attn_pool_heads"),
        ('{"encoder": {"seed": -1}}', "encoder.seed"),
        ('{"train": {"seed": -1}}', "train.seed"),
        ('{"train": {"max_tokens": 1}}', "train.max_tokens"),
        ('{"train": {"vocab_size": 259}}', "train.vocab_size"),
        ('{"preprocess": {"frame_length_ms": 0.01}}', "preprocess.frame_length_ms"),
        ('{"preprocess": {"frame_shift_ms": 0.01}}', "preprocess.frame_shift_ms"),
        ('{"preprocess": {"fft_size": 64, "frame_length_ms": 20.0}}', "preprocess.fft_size"),
        ('{"preprocess": {"spec_input": "mel", "n_mels": 0}}', "preprocess.n_mels"),
        ('{"preprocess": {"spec_input": "mel", "n_mels": 400, "frame_length_ms": 20.0}}', "preprocess.n_mels"),
    ],
)
def test_malformed_config_value_is_config_error(text, where):
    from tricl.config import RunConfig
    from tricl.errors import ConfigError

    with pytest.raises(ConfigError, match=re.escape(where)):
        RunConfig.from_json(text)


def test_config_accepts_the_limits():
    from tricl.config import RunConfig

    config = RunConfig.from_json('{"preprocess": {"fmax_hz": 8000, "overlap_seconds": 0}, '
                                 '"encoder": {"transformer_layers": 1, "transformer_width": 2}}')
    assert (config.preprocess.fmax_hz, config.encoder.transformer_layers, config.encoder.transformer_width) == (8000, 1, 2)
    config = RunConfig.from_json('{"train": {"max_tokens": 2, "vocab_size": 260}, "preprocess": {"frame_length_ms": '
                                 '20.0, "frame_shift_ms": 0.04, "fft_size": 320, "spec_input": "mel", "n_mels": 161}}')
    assert (config.train.max_tokens, config.train.vocab_size, config.preprocess.fft_size, config.preprocess.n_mels) == \
        (2, 260, 320, 161)
    assert RunConfig.from_json('{"preprocess": {"n_mels": 5000}}').preprocess.n_mels == 5000  # unread without mel


def test_config_accepts_an_int_for_a_float():
    from tricl.config import RunConfig

    config = RunConfig.from_json('{"train": {"lr": 1, "weight_decay": 0, "epochs": 0}, '
                                 '"preprocess": {"segment_seconds": 2, "overlap_seconds": 1}}')
    assert (config.train.lr, config.train.weight_decay, config.train.epochs, config.preprocess.segment_seconds) == (1, 0, 0, 2)


def test_train_with_ill_typed_config_exits_1(workspace, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**CONFIG, "train": {**CONFIG["train"], "batch_size": "8"}}))
    ckpt = tmp_path / "bad.ckpt"
    manifest = workspace / "data" / "manifest.jsonl"
    assert main(["train", "--manifest", str(manifest), "--config", str(config), "--out", str(ckpt)]) == 1
    assert "train.batch_size" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_with_non_finite_config_exits_1(workspace, tmp_path, capsys):
    config = tmp_path / "nan.json"
    config.write_text(json.dumps({**CONFIG, "train": {**CONFIG["train"], "lr": float("nan")}}))
    assert "NaN" in config.read_text()
    ckpt = tmp_path / "nan.ckpt"
    manifest = workspace / "data" / "manifest.jsonl"
    assert main(["train", "--manifest", str(manifest), "--config", str(config), "--out", str(ckpt)]) == 1
    assert "train.lr" in capsys.readouterr().err
    assert not ckpt.exists()


def _with_class(**changes):
    return {**SPEC, "classes": [{**SPEC["classes"][0], **changes}, SPEC["classes"][1]]}


@pytest.mark.parametrize(
    "spec, where",
    [
        pytest.param(_with_class(harmonics=["x"]), "", id="harmonic-not-a-number"),
        pytest.param(_with_class(f0_hz="loud"), "", id="f0-not-a-number"),
        pytest.param(_with_class(colour="red"), "", id="unknown-class-key"),
        pytest.param(_with_class(harmonics={"close": [1.0], "far": [0.5]}, f0_field="distance"), "",
                     id="per-value-harmonics"),
        pytest.param([SPEC], "", id="spec-not-an-object"),
        pytest.param({**SPEC, "aux_fields": []}, "", id="aux-fields-not-an-object"),
        pytest.param({**SPEC, "aux_fields": {"distance": {"values": "close"}}}, "", id="aux-values-not-a-list"),
        pytest.param({**SPEC, "samples_per_class": "many"}, "", id="count-not-an-integer"),
        # json writes NaN and Infinity and reads them back
        pytest.param({**SPEC, "duration_seconds": float("nan")}, "duration_seconds", id="duration-nan"),
        pytest.param({**SPEC, "duration_seconds": float("inf")}, "duration_seconds", id="duration-infinite"),
        pytest.param({**SPEC, "duration_seconds": 1e-5}, "duration_seconds", id="duration-under-one-sample"),
        pytest.param({**SPEC, "seed": -1}, "seed", id="seed-negative"),
        pytest.param({**SPEC, "noise_level": float("nan")}, "noise_level", id="noise-nan"),
        pytest.param(_with_class(f0_hz=float("nan")), "f0_hz", id="f0-nan"),
        pytest.param(_with_class(harmonics=[1.0, float("nan")]), "harmonics", id="harmonic-nan"),
        pytest.param(_with_class(name="Bravo"), "class names must be distinct", id="class-names-repeated"),
        pytest.param(_with_class(name=""), "class name", id="class-name-empty"),
    ],
)
def test_malformed_synth_spec_is_config_error(tmp_path, capsys, spec, where):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert not (tmp_path / "out").exists()


def test_main_builds_its_parser_once(tmp_path, capsys):
    from tricl import cli

    cli._build_parser.cache_clear()
    for _ in range(2):
        assert main(["synth", "--spec", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")]) == 1
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_infer_without_template_does_not_inherit_the_last_one(workspace, tmp_path, capsys):
    # the parser outlives a call, so a second call's defaults must not be the first call's options
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(["Alpha", "Bravo"]))
    template = tmp_path / "template.txt"
    template.write_text("A ship of the {label} kind\n")
    wav = sorted((workspace / "data").glob("*.wav"))[0]
    argv = ["infer", "--ckpt", str(workspace / "model.ckpt"), "--wav", str(wav), "--labels", str(labels)]
    outputs = []
    for extra in ([], ["--template", str(template)], []):
        capsys.readouterr()
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] != outputs[0] and outputs[2] == outputs[0]


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


def test_train_on_one_segment_is_data_error_and_writes_no_checkpoint(workspace, tmp_path, capsys):
    # one segment forms no contrastive pair; training used to save an untrained checkpoint
    data = workspace / "data"
    row = json.loads((data / "manifest.jsonl").read_text().splitlines()[0])
    manifest = tmp_path / "one.jsonl"
    manifest.write_text(json.dumps({**row, "audio": str(data / row["audio"])}) + "\n")
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--manifest", str(manifest), "--config", str(workspace / "config.json"),
                 "--out", str(ckpt)]) == 2
    assert "all 1 batches of the epoch were skipped" in capsys.readouterr().err
    assert not ckpt.exists() and not (tmp_path / "model.ckpt.log").exists()


def _manifest_with(workspace, tmp_path, **fields):
    """The workspace manifest with `fields` set on every row."""
    data = workspace / "data"
    rows = [json.loads(line) for line in (data / "manifest.jsonl").read_text().splitlines() if line.strip()]
    path = tmp_path / "manifest.jsonl"
    path.write_text("".join(json.dumps({**row, "audio": str(data / row["audio"]), **fields}) + "\n" for row in rows))
    return path


def test_backslash_annotation_value_trains(workspace, tmp_path):
    # a value used to be a regex replacement template: "\\d" raised re.error
    manifest = _manifest_with(workspace, tmp_path, location="C:\\data\\x")
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--manifest", str(manifest), "--config", str(workspace / "config.json"),
                 "--out", str(ckpt)]) == 0


@pytest.mark.parametrize("slot", ["{distnace}", "{}", "{Label}"])
def test_unknown_template_slot_is_config_error(workspace, tmp_path, capsys, slot):
    # an unknown slot used to parse, and its clause was dropped from every sentence
    template = tmp_path / "template.txt"
    template.write_text(f"The sound belongs to {{label}},\nwhich is in {slot} distance\n")
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--manifest", str(workspace / "data" / "manifest.jsonl"), "--config",
                 str(workspace / "config.json"), "--template", str(template), "--out", str(ckpt)]) == 1
    assert f"unknown slot {slot}" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("rate", ["16k", 16000.5])
def test_non_integer_sample_rate_is_data_error(workspace, tmp_path, capsys, rate):
    manifest = _manifest_with(workspace, tmp_path, sample_rate_hz=rate)
    assert main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--manifest", str(manifest), "--fold", "0"]) == 2
    assert "row 1: sample_rate_hz must be an integer" in capsys.readouterr().err


def test_eval_shipsear_map_names_every_unmapped_label(workspace, capsys, monkeypatch):
    import tricl.cli

    monkeypatch.setattr(tricl.cli, "evaluate", lambda *args: pytest.fail("a fold was scored"))
    assert main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--manifest",
                 str(workspace / "data" / "manifest.jsonl"), "--fold", "0", "--class-map", "shipsear"]) == 1
    assert "the shipsear class map has no entry for 'Alpha', 'Bravo'" in capsys.readouterr().err


def test_tune_encoder_has_no_log_option(workspace, tmp_path, capsys):
    # encoder tuning writes no training log; a --log it would ignore is a usage error
    out, log = tmp_path / "clf.ckpt", tmp_path / "clf.log"
    assert main(["tune", "encoder", "--ckpt", str(workspace / "model.ckpt"), "--manifest",
                 str(workspace / "data" / "manifest.jsonl"), "--out", str(out), "--log", str(log)]) == 1
    assert f"unrecognized arguments: --log {log}" in capsys.readouterr().err
    assert not out.exists() and not log.exists()


def test_eval_has_no_seed_option(workspace, capsys):
    # folds are always assigned with seed 0, the assignment training holds out from
    assert main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--manifest",
                 str(workspace / "data" / "manifest.jsonl"), "--fold", "0", "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


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
