"""Contrastive-loss identities, anomaly filtering, logits, and epoch behavior."""

import math
import re
import weakref

import numpy as np
import pytest

import tricl.model
from helpers import check_grad, tiny_run_config
from tricl.bpe import train_bpe
from tricl.checkpoint import load_checkpoint, save_checkpoint
from tricl.config import RunConfig
from tricl.data import Dataset, TrainSample
from tricl.dsp import AudioSegment
from tricl.errors import ContractError, DataError, DegenerateBatchError, NonFiniteLossError
from tricl.model import TriModalModel
from tricl.optim import AdamW
from tricl.templates import AnnotationRecord
from tricl.tensor import Tensor, backward, concat, tsum
from tricl.trainer import (
    anomaly_filter,
    batch_loss,
    compute_logits,
    contrastive_loss,
    cosine_matrix,
    fit,
    train,
    train_epoch,
)
from tricl.tuning import ClassifierModel, _classifier_batch_loss


def rows(*values):
    return Tensor(np.asarray(values, dtype=np.float64))


class TestAnomalyFilter:
    def test_clean_batch_unchanged(self):
        batch = {"audio": rows([1.0, 0.0], [0.0, 1.0]), "text": rows([1.0, 1.0], [2.0, 0.0])}
        filtered, kept = anomaly_filter(batch)
        assert kept == [0, 1]
        for name, matrix in batch.items():
            assert np.array_equal(filtered[name].values, matrix.values)

    def test_zero_norm_in_one_modality_drops_sample_everywhere(self):
        batch = {
            "audio": rows([1.0], [1.0], [1.0], [1.0]),
            "text": rows([1.0], [0.0], [1.0], [1.0]),
            "spec": rows([1.0], [1.0], [1.0], [1.0]),
        }
        filtered, kept = anomaly_filter(batch)
        assert kept == [0, 2, 3]
        assert all(v.shape == (3, 1) for v in filtered.values())

    def test_all_zero_batch_degenerates(self):
        batch = {"audio": rows([0.0], [0.0]), "text": rows([1.0], [1.0])}
        with pytest.raises(DegenerateBatchError):
            anomaly_filter(batch)

    def test_removal_is_all_or_none(self):
        rng = np.random.default_rng(0)
        batch = {"audio": Tensor(rng.standard_normal((6, 4))), "text": Tensor(rng.standard_normal((6, 4)))}
        batch["audio"].values[2] = 0.0
        batch["text"].values[4] = 0.0
        filtered, kept = anomaly_filter(batch)
        assert kept == [0, 1, 3, 5]
        for name in ("audio", "text"):
            assert np.array_equal(filtered[name].values, batch[name].values[kept])

    def test_gradient_reaches_kept_rows_only(self):
        x = Tensor(np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0]]), requires_grad=True)
        filtered, kept = anomaly_filter({"audio": x, "text": rows([1.0], [1.0], [1.0])})
        backward(tsum(filtered["audio"]))
        assert kept == [0, 2]
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])


class TestCosine:
    """Entries of the cosine matrix that inference and the logits share."""

    def test_identical_vectors(self):
        assert float(cosine_matrix(rows([2.0, 1.0]), rows([2.0, 1.0])).values[0, 0]) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert float(cosine_matrix(rows([1.0, 0.0]), rows([0.0, 1.0])).values[0, 0]) == 0.0

    def test_45_degrees(self):
        sims = cosine_matrix(rows([1.0, 1.0]), rows([1.0, 0.0], [0.0, 2.0], [-3.0, 0.0])).values
        np.testing.assert_allclose(sims, [[0.70710678, 0.70710678, -0.70710678]], atol=1e-8)

    def test_zero_norm_rejected(self):
        with pytest.raises(ContractError):
            cosine_matrix(rows([0.0, 0.0]), rows([1.0, 0.0]))
        with pytest.raises(ContractError):
            cosine_matrix(rows([1.0, 0.0]), rows([1.0, 0.0], [0.0, 0.0]))


class TestLogits:
    def test_zero_scale_gives_raw_cosines(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((3, 5))
        ys = rng.standard_normal((3, 5))
        logits = compute_logits(Tensor(xs), Tensor(ys), Tensor(0.0))
        for i in range(3):
            for j in range(3):
                cosine = xs[i] @ ys[j] / (np.linalg.norm(xs[i]) * np.linalg.norm(ys[j]))
                assert logits.values[i, j] == pytest.approx(cosine, abs=1e-12)

    def test_orthonormal_matched_batch_is_scaled_identity(self):
        logits = compute_logits(Tensor(np.eye(4)), Tensor(np.eye(4)), Tensor(0.7, requires_grad=True))
        np.testing.assert_allclose(logits.values, np.exp(0.7) * np.eye(4), atol=1e-12)

    def test_bounded_by_exp_scale(self):
        rng = np.random.default_rng(2)
        s = 1.3
        logits = compute_logits(Tensor(rng.standard_normal((5, 6))), Tensor(rng.standard_normal((5, 6))), Tensor(s))
        assert np.abs(logits.values).max() <= math.exp(s) + 1e-12

    def test_size_mismatch_rejected(self):
        with pytest.raises(ContractError):
            compute_logits(rows([1.0, 0.0]), rows([1.0, 0.0], [0.0, 1.0]), Tensor(0.0))


class TestLossIdentities:
    def test_zero_logits_is_log_b(self):
        for b in (2, 4, 8):
            zero = Tensor(np.zeros((b, b)))
            loss = contrastive_loss(zero, zero, zero)
            assert abs(float(loss.values) - math.log(b)) < 1e-9

    def test_scaled_identity_loss_closed_form(self):
        s = 0.0
        logits = Tensor(s * np.eye(2))
        # CE of 2x2 zero logits: ln 2
        assert float(contrastive_loss(logits).values) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_identity_logits_decrease_monotonically_to_zero(self):
        prev = None
        for s in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0):
            logits = Tensor(s * np.eye(4))
            val = float(contrastive_loss(logits).values)
            if prev is not None:
                assert val < prev
            prev = val
        assert prev < 1e-6

    def test_two_term_mode(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.standard_normal((4, 4)))
        tri = contrastive_loss(logits, logits, logits)
        duo = contrastive_loss(logits)
        assert float(tri.values) == pytest.approx(float(duo.values), abs=1e-12)

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(4)
        at, ts, sa = (rng.standard_normal((5, 5)) for _ in range(3))
        base = float(contrastive_loss(Tensor(at), Tensor(ts), Tensor(sa)).values)
        for seed in range(8):
            perm = np.random.default_rng(seed).permutation(5)
            swapped = [m[np.ix_(perm, perm)] for m in (at, ts, sa)]
            val = float(contrastive_loss(*(Tensor(m) for m in swapped)).values)
            assert val == base

    def test_loss_near_log_b_at_random_init(self):
        rng = np.random.default_rng(5)
        for b in (4, 8, 16):
            xs, ys, zs = (Tensor(rng.standard_normal((b, 16))) for _ in range(3))
            at = compute_logits(xs, ys, Tensor(0.0))
            ts = compute_logits(ys, zs, Tensor(0.0))
            a_s = compute_logits(xs, zs, Tensor(0.0))
            val = float(contrastive_loss(at, ts, a_s).values)
            assert 0.5 * math.log(b) <= val <= 1.5 * math.log(b)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ContractError):
            contrastive_loss(Tensor(np.zeros((1, 1))))

    def test_loss_gradients_match_fd(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        y = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        scale = Tensor(0.2, requires_grad=True)

        def build():
            return contrastive_loss(compute_logits(x, y, scale))

        check_grad(build, [x, y, scale], rtol=1e-4)


def make_dataset(n_sources=8, seed=0, n=800):
    cfg = tiny_run_config()
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_sources):
        label = "Alpha" if i % 2 == 0 else "Bravo"
        tone = 500.0 if label == "Alpha" else 1500.0
        t = np.arange(n) / 16000
        wave = 0.4 * np.sin(2 * np.pi * tone * t + rng.uniform(0, 6.28)) + 0.02 * rng.standard_normal(n)
        segment = AudioSegment(wave)
        samples.append(
            TrainSample(
                segment=segment,
                sentence=f"The sound belongs to {label}.",
                source_id=f"src{i}",
                record=AnnotationRecord(label),
            )
        )
    return Dataset(samples, cfg.preprocess)


def make_model(config: RunConfig, dataset) -> TriModalModel:
    tokenizer = train_bpe([s.sentence for s in dataset.samples], config.train.vocab_size)
    return TriModalModel(config, tokenizer, "tmpl", "The sound belongs to {label}",
                         dataset.vessel_types())


def count_steps(monkeypatch) -> list[int]:
    calls = []
    step = AdamW.step
    monkeypatch.setattr(AdamW, "step", lambda self: calls.append(1) or step(self))
    return calls


class TestTrainEpoch:
    def test_loss_decreases_over_epochs(self):
        config = tiny_run_config(epochs=10, lr=3e-3)
        dataset = make_dataset()
        model = make_model(config, dataset)
        optimizer = AdamW(model.store, lr=config.train.lr, weight_decay=config.train.weight_decay)
        rng = np.random.default_rng(0)
        losses = [train_epoch(dataset, model, optimizer, config, rng, batch_loss).mean_loss for _ in range(10)]
        assert losses[-1] < losses[0]

    def test_identical_seed_identical_trace(self):
        def trace():
            config = tiny_run_config(epochs=3, lr=1e-3)
            dataset = make_dataset()
            model = make_model(config, dataset)
            optimizer = AdamW(model.store, lr=config.train.lr)
            rng = np.random.default_rng(config.train.seed)
            return [train_epoch(dataset, model, optimizer, config, rng, batch_loss).mean_loss for _ in range(3)]

        assert trace() == trace()

    def test_zero_signal_sample_skipped_not_fatal(self):
        # an all-zero segment embeds to zero in every conv path at init (zero biases)
        config = tiny_run_config(epochs=1, batch_size=4)
        dataset = make_dataset(n_sources=4)
        dataset.samples[1].segment = AudioSegment(np.zeros(800))
        model = make_model(config, dataset)
        loss = batch_loss(dataset, [0, 1, 2, 3], model)
        assert np.isfinite(float(loss.values))

    def test_trailing_singleton_batch_skipped_and_counted(self, monkeypatch, caplog):
        config = tiny_run_config(epochs=1, batch_size=4)
        dataset = make_dataset(n_sources=5)  # batches of 4 and 1
        model = make_model(config, dataset)
        steps = count_steps(monkeypatch)
        with caplog.at_level("WARNING"):
            metrics = train_epoch(dataset, model, AdamW(model.store, lr=config.train.lr), config,
                                  np.random.default_rng(0), batch_loss)
        assert metrics.skipped_batches == 1
        assert len(steps) == 1
        assert np.isfinite(metrics.mean_loss)
        assert caplog.text == ""  # skipped before encoding, not by the anomaly filter

    def test_epoch_with_every_batch_skipped_is_data_error(self, monkeypatch):
        # a one-sample dataset forms no contrastive pair; its epoch used to report mean_loss=nan
        config = tiny_run_config(epochs=1, batch_size=4)
        dataset = make_dataset(n_sources=1)
        model = make_model(config, dataset)
        steps = count_steps(monkeypatch)
        with pytest.raises(DataError, match=r"all 1 batches of the epoch were skipped"):
            train_epoch(dataset, model, AdamW(model.store, lr=config.train.lr), config,
                        np.random.default_rng(0), batch_loss)
        assert steps == []

    def test_degenerate_batch_skipped_and_counted(self, monkeypatch, caplog):
        # three all-zero segments leave one row of the first batch after anomaly_filter
        config = tiny_run_config(epochs=1, batch_size=4)
        dataset = make_dataset(n_sources=8)
        for i in np.random.default_rng(0).permutation(8)[1:4]:
            dataset.samples[i].segment = AudioSegment(np.zeros(800))
        model = make_model(config, dataset)
        steps = count_steps(monkeypatch)
        with caplog.at_level("WARNING"):
            metrics = train_epoch(dataset, model, AdamW(model.store, lr=config.train.lr), config,
                                  np.random.default_rng(0), batch_loss)
        assert metrics.skipped_batches == 1
        assert len(steps) == 1
        assert "skipping degenerate batch: only 1 of 4 samples survived" in caplog.text

    def test_learnable_scales_move(self):
        config = tiny_run_config(epochs=6, lr=3e-3)
        dataset = make_dataset()
        model = make_model(config, dataset)
        optimizer = AdamW(model.store, lr=config.train.lr)
        rng = np.random.default_rng(0)
        for _ in range(6):
            train_epoch(dataset, model, optimizer, config, rng, batch_loss)
        multipliers = model.scales.multipliers()
        assert any(abs(v - 1.0) > 1e-4 for v in multipliers.values())
        assert all(v <= 100.0 for v in multipliers.values())

    def test_nan_parameter_raises_before_backward(self):
        config = tiny_run_config(epochs=1, batch_size=4)
        dataset = make_dataset(n_sources=4)
        model = make_model(config, dataset)
        model.scales.scale_at.values[...] = np.nan
        optimizer = AdamW(model.store, lr=config.train.lr)
        with pytest.raises(NonFiniteLossError, match=r"non-finite loss nan in batch 0"):
            train_epoch(dataset, model, optimizer, config, np.random.default_rng(0), batch_loss)
        assert not optimizer.grad.any()

    def test_audio_text_mode_has_no_spec_encoder(self):
        config = tiny_run_config(modalities="audio_text")
        dataset = make_dataset(n_sources=4)
        model = make_model(config, dataset)
        assert model.spec_encoder is None
        names = set(model.store.tensors)
        assert "scale.ts" not in names and "scale.as" not in names
        loss = batch_loss(dataset, [0, 1, 2, 3], model)
        backward(loss)
        assert model.scales.scale_at.grad is not None


    @pytest.mark.parametrize("loss_name", ["trainer.batch_loss", "tuning._classifier_batch_loss"])
    def test_one_tape_alive_per_step(self, loss_name):
        # the previous batch's graph is freed before the next batch's loss is built
        config = tiny_run_config(epochs=1, batch_size=4)
        dataset = make_dataset()  # two batches
        if loss_name == "trainer.batch_loss":
            model, loss_fn = make_model(config, dataset), batch_loss
        else:
            model, loss_fn = ClassifierModel(config, {"category": dataset.vessel_types()}), _classifier_batch_loss
        losses = []

        def tracked(dataset, indices, model):
            assert all(ref() is None for ref in losses), "an earlier batch's tape is still alive"
            loss = loss_fn(dataset, indices, model)
            losses.append(weakref.ref(loss.values))
            return loss

        train_epoch(dataset, model, AdamW(model.store, lr=config.train.lr), config, np.random.default_rng(0), tracked)
        assert len(losses) == 2 and losses[-1]() is None


class TestFit:
    def test_parameter_outside_the_store_is_off_the_tape_and_restored(self):
        config = tiny_run_config(epochs=2, lr=1e-3)
        dataset = make_dataset()
        model = make_model(config, dataset)
        left_out, trained = model.store.split(1)
        (param,) = left_out.tensors.values()
        before = param.values.copy()
        seen = []

        def loss_fn(dataset, indices, model):
            seen.append(param.requires_grad)
            return batch_loss(dataset, indices, model)

        metrics = list(fit(dataset, model, config, loss_fn, trained))
        assert len(metrics) == 2 and seen == [False] * 4  # 8 samples in batches of 4, 2 epochs
        assert param.requires_grad and param.grad is None
        assert np.array_equal(param.values, before)
        assert model.train_source_ids == tuple(sorted(dataset.source_ids()))

    def test_clamp_that_writes_outside_the_store_raises(self, monkeypatch):
        config = tiny_run_config(epochs=1, lr=1e-3)
        dataset = make_dataset()
        model = make_model(config, dataset)
        left_out, trained = model.store.split(1)
        (name, param), = left_out.tensors.items()
        monkeypatch.setattr(model, "clamp", lambda: param.values.__iadd__(1.0))
        with pytest.raises(ContractError, match=re.escape(f"changed during the run: ['{name}']")):
            list(fit(dataset, model, config, batch_loss, trained))
        assert param.requires_grad
        assert model.train_source_ids == ()


class TestBatchLoss:
    def test_matches_single_sample_encodes(self):
        config = tiny_run_config()
        dataset = make_dataset(n_sources=4)
        model = make_model(config, dataset)
        indices = [2, 0, 3, 1]
        samples = [dataset.samples[i] for i in indices]
        audio = concat([model.audio_encoder.encode([s.segment]) for s in samples])
        text = concat([model.encode_text([s.sentence]) for s in samples])
        spec = concat([model.spec_encoder.encode([dataset.spectrogram(s)]) for s in samples])
        reference = contrastive_loss(
            compute_logits(audio, text, model.scales.scale_at),
            compute_logits(text, spec, model.scales.scale_ts),
            compute_logits(audio, spec, model.scales.scale_as),
        )
        loss = batch_loss(dataset, indices, model)
        assert float(loss.values) == pytest.approx(float(reference.values), rel=0, abs=1e-12)

    def test_each_distinct_sentence_encoded_once(self, monkeypatch):
        config = tiny_run_config()
        dataset = make_dataset(n_sources=6)
        model = make_model(config, dataset)
        calls = []
        encode_text = model.encode_text
        monkeypatch.setattr(model, "encode_text", lambda sentences: calls.append(list(sentences)) or encode_text(sentences))
        batch_loss(dataset, [0, 1, 2, 3, 4, 5], model)
        assert calls == [["The sound belongs to Alpha.", "The sound belongs to Bravo."]]


def test_each_distinct_sentence_tokenized_once_per_model(monkeypatch, tmp_path):
    calls = []
    real = tricl.model.tokenize
    monkeypatch.setattr(tricl.model, "tokenize", lambda s, *args: calls.append(s) or real(s, *args))
    dataset = make_dataset(n_sources=6)
    sentences = sorted({s.sentence for s in dataset.samples})
    model, _ = train(dataset, tiny_run_config(epochs=2), "tmpl")
    assert sorted(calls) == sentences  # four batches over two epochs, one call per sentence
    model.encode_text(sentences)
    assert sorted(calls) == sentences
    save_checkpoint(model, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    calls.clear()
    loaded.encode_text(sentences)  # a loaded model starts cold
    assert sorted(calls) == sentences
