"""Tuning strategies and baselines on a tiny separable task."""

import numpy as np
import pytest

from helpers import capture_optimizers, tiny_run_config
from tricl.bpe import train_bpe
from tricl.checkpoint import load_checkpoint, save_checkpoint
from tricl.data import Dataset, TrainSample
from tricl.dsp import AudioSegment
from tricl.encoders import AudioEncoder
from tricl.errors import ConfigError, NonFiniteLossError
from tricl.experiments import split_off_fold
from tricl.layers import Linear
from tricl.model import TriModalModel
from tricl.optim import AdamW
from tricl.presets import experiment_run_config
from tricl.store import trainable
from tricl.synth import synth_generate, wind_annotated_spec
from tricl.templates import AUX_TEMPLATE_TEXT, LABEL_TEMPLATE_TEXT, AnnotationRecord
from tricl.trainer import train, train_epoch
from tricl.tuning import (
    ClassifierModel,
    _classifier_batch_loss,
    _multilabel_batch_loss,
    binary_ce_logits,
    encoder_tune,
    multilabel_baseline,
    multitask_baseline,
    train_classifier,
    uart_tune,
)
from tricl.tensor import Tensor, add, backward, cross_entropy, no_grad


def build_dataset(per_label=4, with_aux=True, missing_wind_on=((0, 1))):
    cfg = tiny_run_config()
    samples = []
    idx = 0
    for label, freq in (("Alpha", 400.0), ("Bravo", 1200.0)):
        for k in range(per_label):
            rng = np.random.default_rng(idx)
            t = np.arange(800) / 16000
            distance = "close" if k % 2 == 0 else "far"
            gain = 1.0 if distance == "close" else 0.5
            wave = gain * 0.4 * np.sin(2 * np.pi * freq * t) + 0.02 * rng.standard_normal(800)
            record = AnnotationRecord(
                label,
                distance=distance if with_aux else None,
                wind=None if (not with_aux or k in missing_wind_on) else "calm",
            )
            sid = f"{label}-{k}"
            samples.append(
                TrainSample(
                    segment=AudioSegment(wave),
                    sentence=f"The sound belongs to {label}.",
                    source_id=sid,
                    record=record,
                )
            )
            idx += 1
    return Dataset(samples, cfg.preprocess)


def fresh_model(dataset, config):
    tokenizer = train_bpe([s.sentence for s in dataset.samples], config.train.vocab_size)
    return TriModalModel(config, tokenizer, "tmpl", "The sound belongs to {label}", dataset.vessel_types())


def test_softmax_ce_matches_closed_form():
    logits = Tensor(np.zeros((3, 4)))
    val = float(cross_entropy(logits, [0, 1, 2]).values)
    assert val == pytest.approx(np.log(4.0), abs=1e-12)


def test_binary_ce_stable_at_extreme_logits():
    logits = Tensor(np.array([[80.0, -80.0]]))
    val = float(binary_ce_logits(logits, np.array([[1.0, 0.0]])).values)
    assert np.isfinite(val) and val < 1e-30


class TestUartTune:
    def test_zero_epochs_keeps_weights_bit_identical(self):
        dataset = build_dataset()
        config = tiny_run_config(epochs=0)
        model = fresh_model(dataset, config)
        before = {k: v.values.copy() for k, v in model.store.tensors.items()}
        uart_tune(model, dataset, config)
        after = model.store.tensors
        assert all(np.array_equal(before[k], after[k].values) for k in before)

    def test_template_change_keeps_model_shapes(self):
        dataset = build_dataset()
        config = tiny_run_config(epochs=1)
        model = fresh_model(dataset, config)
        shapes = {k: v.values.shape for k, v in model.store.tensors.items()}
        for s in dataset.samples:  # new auxiliary clause in every sentence
            s.sentence = s.sentence[:-1] + ", and the channel depth is shallow."
        uart_tune(model, dataset, config)
        assert {k: v.values.shape for k, v in model.store.tensors.items()} == shapes

    def test_dim_mismatch_rejected(self):
        dataset = build_dataset()
        model = fresh_model(dataset, tiny_run_config())
        other = tiny_run_config()
        other.encoder.d = 16
        with pytest.raises(ConfigError, match=r"encoder\.d=16"):
            uart_tune(model, dataset, other)

    def test_tuning_on_same_data_does_not_hurt(self):
        dataset = build_dataset()
        config = tiny_run_config(epochs=8, lr=1e-3)
        model = fresh_model(dataset, config)
        from tricl.trainer import continue_training

        lines = continue_training(dataset, model, config)
        first = [float(l.split()[1].split("=")[1]) for l in lines[:3]]
        tune_cfg = tiny_run_config(epochs=3, lr=1e-3)
        lines2 = uart_tune(model, dataset, tune_cfg)
        tuned = [float(l.split()[1].split("=")[1]) for l in lines2]
        assert np.mean(tuned) <= np.mean(first) + 1e-9


class TestEncoderTune:
    def test_head_width_matches_classes(self):
        dataset = build_dataset()
        model, _ = encoder_tune(None, dataset, tiny_run_config(epochs=1))
        assert model.heads["category"].w.shape == (tiny_run_config().encoder.d, 2)

    def test_single_class_rejected(self):
        dataset = build_dataset()
        one = dataset.select([i for i, s in enumerate(dataset.samples) if s.vessel_type == "Alpha"])
        with pytest.raises(ConfigError):
            encoder_tune(None, one, tiny_run_config())

    def test_frozen_encoder_bit_identical(self):
        dataset = build_dataset()
        config = tiny_run_config(epochs=2, lr=1e-3)
        pre = fresh_model(dataset, config)
        before = {k: v.values.copy() for k, v in trainable(pre.audio_encoder).items()}
        model, trace = encoder_tune(pre, dataset, config, freeze_encoder=True)
        for k, v in trainable(model.audio_encoder).items():
            assert np.array_equal(v.values, before[k])
            assert v.grad is None and v.requires_grad  # off the tape for the run, restored after
        # reference: the whole encoder on the tape, only the heads stepped
        reference = ClassifierModel(config, model.task_classes)
        encoder, heads = reference.store.split(len(before))
        encoder.load_values(before)
        optimizer = AdamW(heads, lr=config.train.lr, weight_decay=config.train.weight_decay)
        rng = np.random.default_rng(config.train.seed)
        assert trace == [train_epoch(dataset, reference, optimizer, config, rng, _classifier_batch_loss).mean_loss
                         for _ in range(config.train.epochs)]
        assert np.array_equal(reference.store.buffer, model.store.buffer)
        assert all(t.grad is not None for t in encoder.tensors.values())

    def test_pretrained_weights_are_transplanted(self):
        dataset = build_dataset()
        config = tiny_run_config(epochs=0)
        pre = fresh_model(dataset, config)
        model, _ = encoder_tune(pre, dataset, config)
        for k, v in trainable(model.audio_encoder).items():
            assert np.array_equal(v.values, trainable(pre.audio_encoder)[k].values)

    def test_classifier_pretrained_encoder_is_copied_bitwise(self):
        dataset = build_dataset()
        pre, _ = multitask_baseline(dataset, ["category", "distance"], tiny_run_config(epochs=1, lr=1e-3))
        model, _ = encoder_tune(pre, dataset, tiny_run_config(epochs=0))
        assert list(trainable(model.audio_encoder)) == list(trainable(pre.audio_encoder))
        assert encoder_slice(model).tobytes() == encoder_slice(pre).tobytes()
        assert list(model.heads) == ["category"]

    def test_nan_parameter_raises_before_backward(self, monkeypatch):
        dataset = build_dataset()
        config = tiny_run_config(epochs=1)
        model = ClassifierModel(config, {"category": dataset.vessel_types()})
        head = model.heads["category"].w
        head.values[...] = np.nan
        optimizers = capture_optimizers(monkeypatch)
        with pytest.raises(NonFiniteLossError, match=r"non-finite loss nan in batch 0"):
            train_classifier(model, dataset, config)
        (optimizer,) = optimizers
        assert not optimizer.grad.any()

    def test_training_reduces_loss(self):
        dataset = build_dataset()
        model, trace = encoder_tune(None, dataset, tiny_run_config(epochs=8, lr=3e-3))
        assert trace[-1] < trace[0]
        assert set(model.predict_labels([s.segment for s in dataset.samples])) <= {"Alpha", "Bravo"}


class TestBaselines:
    def test_multilabel_loss_is_one_fused_head(self):
        # the heads side by side in sorted task order are the old fused head over
        # categories + sorted "field=value" entries; Bravo-1 lacks wind (a zero row)
        dataset = build_dataset()
        model = ClassifierModel(tiny_run_config(),
                                {"category": ["Alpha", "Bravo"], "distance": ["close", "far"], "wind": ["calm"]})
        heads = [model.heads[task] for task in ("category", "distance", "wind")]
        for h in heads:
            h.b.values[...] = np.random.default_rng(1).standard_normal(h.b.shape)
        indices = [2, 3, 5, 6]
        batch = [dataset.samples[i] for i in indices]
        assert [s.record.wind for s in batch] == ["calm", "calm", None, "calm"]
        loss = _multilabel_batch_loss(dataset, indices, model)
        backward(loss)
        grads = {k: v.grad.copy() for k, v in model.store.tensors.items()}
        for p in model.store.tensors.values():
            p.grad = None

        dictionary = ["Alpha", "Bravo", "distance=close", "distance=far", "wind=calm"]
        fused = Linear(np.random.default_rng(0), tiny_run_config().encoder.d, len(dictionary), "fused")
        fused.w.values[...] = np.hstack([h.w.values for h in heads])
        fused.b.values[...] = np.hstack([h.b.values for h in heads])
        targets = np.array([[e in (s.vessel_type, f"distance={s.record.distance}", f"wind={s.record.wind}")
                             for e in dictionary] for s in batch])
        assert targets.sum(axis=1).tolist() == [3, 3, 2, 3]
        reference = binary_ce_logits(fused(model.audio_encoder.encode([s.segment for s in batch])), targets)
        backward(reference)
        assert float(loss.values) == pytest.approx(float(reference.values), rel=0, abs=1e-12)
        widths = np.cumsum([0] + [h.w.shape[1] for h in heads])
        for task, lo, hi in zip(("category", "distance", "wind"), widths, widths[1:]):
            np.testing.assert_allclose(grads[f"head.{task}.w"], fused.w.grad[:, lo:hi], rtol=0, atol=1e-12)
            np.testing.assert_allclose(grads[f"head.{task}.b"], fused.b.grad[:, lo:hi], rtol=0, atol=1e-12)
        for name, t in trainable(model.audio_encoder).items():
            np.testing.assert_allclose(grads[name], t.grad, rtol=0, atol=1e-12)

    def test_multilabel_prediction_never_auxiliary(self):
        dataset = build_dataset()
        model, _ = multilabel_baseline(dataset, tiny_run_config(epochs=1))
        preds = model.predict_labels([s.segment for s in dataset.samples])
        assert set(preds) <= {"Alpha", "Bravo"}

    def test_multitask_head_shapes(self):
        dataset = build_dataset()
        model, _ = multitask_baseline(dataset, ["category", "distance"], tiny_run_config(epochs=1))
        d = tiny_run_config().encoder.d
        assert model.heads["category"].w.shape == (d, 2)
        assert model.heads["distance"].w.shape == (d, 2)

    def test_multitask_requires_category(self):
        dataset = build_dataset()
        with pytest.raises(ConfigError):
            multitask_baseline(dataset, ["distance"], tiny_run_config())

    def test_single_task_equals_plain_classifier_trace(self):
        dataset = build_dataset()
        config = tiny_run_config(epochs=3, lr=1e-3)
        _, trace_multi = multitask_baseline(dataset, ["category"], config)
        _, trace_plain = encoder_tune(None, dataset, tiny_run_config(epochs=3, lr=1e-3))
        assert trace_multi == trace_plain

    def test_multitask_loss_matches_per_task_encodes(self, monkeypatch):
        # one encode per batch, rows gathered per task, equals encoding each
        # task's annotated samples separately (distance drops row 0, wind row 1)
        dataset = build_dataset()
        model = ClassifierModel(tiny_run_config(),
                                {"category": ["Alpha", "Bravo"], "distance": ["close", "far"], "wind": ["calm", "gusty"]})
        batch = dataset.samples[:4]
        batch[0].record = AnnotationRecord("Alpha", distance=None, wind="gusty")
        reference = None
        for task in sorted(model.heads):
            annotated = [s for s in batch if (s.vessel_type if task == "category" else getattr(s.record, task))]
            targets = [model.task_classes[task].index(s.vessel_type if task == "category" else getattr(s.record, task))
                       for s in annotated]
            term = cross_entropy(model.head_logits(model.audio_encoder.encode([s.segment for s in annotated]), task), targets)
            reference = term if reference is None else add(reference, term)
        backward(reference)
        expect_grads = {k: v.grad.copy() for k, v in model.store.tensors.items()}
        for p in model.store.tensors.values():
            p.grad = None

        calls = []
        encode = AudioEncoder.encode
        monkeypatch.setattr(AudioEncoder, "encode", lambda self, batch: calls.append(1) or encode(self, batch))
        loss = _classifier_batch_loss(dataset, [0, 1, 2, 3], model)
        assert len(calls) == 1
        assert float(loss.values) == pytest.approx(float(reference.values), rel=0, abs=1e-12)
        backward(loss)
        for k, v in model.store.tensors.items():
            np.testing.assert_allclose(v.grad, expect_grads[k], rtol=1e-12, atol=1e-12)

    def test_predict_labels_encodes_in_chunks_of_batch_size(self, monkeypatch):
        dataset = build_dataset(per_label=6)
        config = tiny_run_config()
        model = ClassifierModel(config, {"category": ["Alpha", "Bravo"]})
        segments = [s.segment for s in dataset.samples]
        assert len(segments) == 3 * config.train.batch_size
        with no_grad():
            whole = model.heads["category"](model.audio_encoder.encode(segments)).values
        sizes = []
        encode = AudioEncoder.encode
        monkeypatch.setattr(AudioEncoder, "encode", lambda self, batch: sizes.append(len(batch)) or encode(self, batch))
        preds = model.predict_labels(segments)
        assert sizes == [config.train.batch_size] * 3
        assert preds == [["Alpha", "Bravo"][i] for i in np.argmax(whole, axis=1)]

    def test_auxiliary_task_does_not_change_inference_path(self):
        dataset = build_dataset()
        m1, _ = multitask_baseline(dataset, ["category", "distance"], tiny_run_config(epochs=1))
        preds = m1.predict_labels([dataset.samples[0].segment])
        assert preds[0] in ("Alpha", "Bravo")


class TestCheckpointRoundTrip:
    def test_trimodal_bit_exact(self, tmp_path):
        dataset = build_dataset()
        config = tiny_run_config(epochs=1, lr=1e-3)
        model = fresh_model(dataset, config)
        from tricl.trainer import continue_training

        continue_training(dataset, model, config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        assert isinstance(again, TriModalModel)
        for k, v in model.store.tensors.items():
            assert np.array_equal(v.values, again.store.tensors[k].values)
        assert again.tokenizer.merges == model.tokenizer.merges
        assert again.class_labels == model.class_labels
        assert again.train_source_ids == model.train_source_ids
        assert again.test_template_text == model.test_template_text

    def test_classifier_bit_exact(self, tmp_path):
        dataset = build_dataset()
        model, _ = encoder_tune(None, dataset, tiny_run_config(epochs=1, lr=1e-3))
        path = tmp_path / "clf.ckpt"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        assert isinstance(again, ClassifierModel)
        for k, v in model.store.tensors.items():
            assert np.array_equal(v.values, again.store.tensors[k].values)
        assert again.task_classes == model.task_classes

    def test_audio_text_bit_exact(self, tmp_path):
        dataset = build_dataset()
        config = tiny_run_config(modalities="audio_text", epochs=1, lr=1e-3)
        model = fresh_model(dataset, config)
        from tricl.trainer import continue_training

        continue_training(dataset, model, config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        assert again.spec_encoder is None
        assert list(again.store.tensors) == list(model.store.tensors)
        for k, v in model.store.tensors.items():
            assert np.array_equal(v.values, again.store.tensors[k].values)
        assert np.array_equal(again.store.buffer, model.store.buffer)

    def test_classifier_malformed_array_rejected(self):
        dataset = build_dataset()
        model = ClassifierModel(tiny_run_config(), {"category": dataset.vessel_types()})
        arrays = {k: v.values.copy() for k, v in model.store.tensors.items()}
        arrays["head.category.w"] = np.zeros((3, 3))
        with pytest.raises(ConfigError, match=r"head\.category\.w has shape \(3, 3\), expected \(8, 2\)"):
            model.store.load_values(arrays)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a zip")
        from tricl.errors import DataError

        with pytest.raises(DataError):
            load_checkpoint(path)


def views_its_store(model) -> bool:
    return all(np.shares_memory(t.values, model.store.buffer) for t in model.store.tensors.values())


def encoder_slice(model) -> np.ndarray:
    return model.store.split(len(trainable(model.audio_encoder)))[0].buffer


class TestParameterStore:
    def test_parameters_stay_views_through_clamp_step_load_and_copy(self, tmp_path):
        from tricl.model import MAX_EXP_SCALE
        from tricl.optim import AdamW
        from tricl.trainer import batch_loss
        from tricl.wavelet import BAND_FLOOR, M_FLOOR

        dataset = build_dataset()
        config = tiny_run_config(epochs=0, lr=1e-3)
        model = fresh_model(dataset, config)
        assert views_its_store(model)
        wavelet = model.audio_encoder.wavelet
        wavelet.m.values[...] = 0.5
        wavelet.f_b.values[...] = -1.0
        wavelet.f_c.values[...] = 0.0
        model.scales.scale_at.values[...] = 10.0
        model.clamp()
        assert float(wavelet.m.values) == M_FLOOR
        assert float(wavelet.f_b.values) == float(wavelet.f_c.values) == BAND_FLOOR
        assert float(model.scales.scale_at.values) == np.log(MAX_EXP_SCALE)
        assert views_its_store(model)
        # back to the initial values: build_kernels refuses kernels at the band floor
        for t, value in ((wavelet.m, 2.0), (wavelet.f_b, 0.5), (wavelet.f_c, 1.0), (model.scales.scale_at, 0.0)):
            t.values[...] = value

        before = model.store.buffer.copy()
        optimizer = AdamW(model.store, lr=1e-3)
        backward(batch_loss(dataset, [0, 1, 4, 5], model))
        optimizer.step()
        assert views_its_store(model)
        assert not np.array_equal(model.store.buffer, before)

        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        assert views_its_store(again)
        assert np.array_equal(again.store.buffer, model.store.buffer)

        classifier, _ = encoder_tune(again, dataset, config)
        assert views_its_store(classifier)
        assert np.array_equal(encoder_slice(classifier), encoder_slice(model))

    def test_frozen_encoder_run_leaves_encoder_slice_unchanged(self):
        dataset = build_dataset()
        config = tiny_run_config(epochs=2, lr=1e-3)
        pre = fresh_model(dataset, config)
        untuned, _ = encoder_tune(pre, dataset, tiny_run_config(epochs=0))
        model, _ = encoder_tune(pre, dataset, config, freeze_encoder=True)
        encoder = encoder_slice(model)
        assert np.array_equal(encoder, encoder_slice(pre))
        assert not np.array_equal(model.store.buffer[encoder.size :], untuned.store.buffer[encoder.size :])
        assert views_its_store(model)


class TestGradientBuffer:
    def test_multitask_run_survives_missing_annotations(self, tmp_path):
        # at batch size 2 with half the wind annotations missing, some batches never reach the wind head
        manifest = synth_generate(wind_annotated_spec(seed=0, missing_rate=0.5, samples_per_class=3), tmp_path)
        config = experiment_run_config(epochs=3, batch_size=2)
        dataset, _, _ = split_off_fold(manifest, AUX_TEMPLATE_TEXT, config, None, 4)
        _, trace = multitask_baseline(dataset, ["category", "wind"], config)
        assert len(trace) == 3 and all(np.isfinite(trace))

    @pytest.mark.parametrize("run", ["train", "uart_tune", "encoder_tune", "encoder_tune_frozen"])
    def test_stepped_parameters_keep_gradient_views_of_a_zeroed_buffer(self, monkeypatch, run):
        dataset = build_dataset()
        config = tiny_run_config(epochs=2, lr=1e-3)
        pre = fresh_model(dataset, config) if run != "train" else None
        optimizers = capture_optimizers(monkeypatch)
        steps = []
        step = AdamW.step

        def checked_step(self):
            step(self)
            assert not self.grad.any()
            assert all(np.shares_memory(p.grad, self.grad) for p in self.store.tensors.values())
            steps.append(self)

        monkeypatch.setattr(AdamW, "step", checked_step)
        if run == "train":
            train(dataset, config, LABEL_TEMPLATE_TEXT)
        elif run == "uart_tune":
            uart_tune(pre, dataset, config)
        else:
            encoder_tune(pre, dataset, config, freeze_encoder=run == "encoder_tune_frozen")
        (optimizer,) = optimizers
        assert len(steps) == 2 * 2 and all(s is optimizer for s in steps)  # 8 samples in batches of 4, 2 epochs
