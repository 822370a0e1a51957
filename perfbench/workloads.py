"""The benchmark's three workloads and the sizes they run at.

Every workload is a closed loop with one caller. A *round* is one complete,
deterministic unit of the workload (a whole training run, or a batch of
``tricl infer`` requests); the runner repeats rounds until the time is up,
so every round of one seed must produce the same loss trace.

* ``contrastive_train``: ``experiments.train_on_fold`` + ``held_out_accuracy``
  on ``three_class_spec`` with the auxiliary template, tri-modal, batch 8
  (the ``scripts/run_end_to_end.py`` path, cut to a few epochs per round).
* ``prompt_infer``: in-process ``tricl.cli.main(["infer", ...])`` calls on
  WAVs of 2-30 s against the fixture checkpoint, each checked against
  ``inference.prompt_infer`` on the same file.
* ``encoder_tune``: ``tuning.encoder_tune`` from the fixture checkpoint onto
  ``transfer_target_spec``, batch 4, fold-0 training split, then
  ``inference.evaluate`` on fold 0.

The fixture checkpoint is the 40-epoch ``run_end_to_end.py`` model. It is
trained once per checkout, as the benchmark's build step, and cached.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tricl.checkpoint
import tricl.cli
import tricl.data
import tricl.dsp
import tricl.experiments
import tricl.inference
import tricl.synth
import tricl.tuning
from tricl.config import RunConfig
from tricl.presets import AUX_TEMPLATE_TEXT, LABEL_TEMPLATE_TEXT, experiment_run_config
from tricl.synth import AuxFieldSpec, three_class_spec, transfer_target_spec
from tricl.templates import candidate_queue, parse_template

_TINY_CONFIG = {
    "preprocess": {
        "segment_seconds": 0.35,
        "overlap_seconds": 0.0,
        "frame_length_ms": 20.0,
        "frame_shift_ms": 10.0,
        "n_scales": 4,
        "fmin_hz": 300.0,
        "fmax_hz": 3000.0,
        "wavelet_hop": 800,
        "spec_input": "mel",
        "n_mels": 16,
        "log_magnitude": True,
    },
    "encoder": {"d": 8, "conv_channels": [4, 6], "transformer_layers": 1, "transformer_heads": 2, "transformer_width": 16},
    "train": {"lr": 1e-3, "vocab_size": 280, "max_tokens": 64},
}


@dataclass(frozen=True)
class Sizes:
    """Everything that sets how much work a round does."""

    tiny: bool
    samples_per_class: int  # recordings per class in the training sets
    duration_s: float  # length of each training recording
    fixture_epochs: int
    train_epochs: int  # contrastive epochs per round
    tune_epochs: int  # encoder-tuning epochs per round
    request_s: tuple[float, float]  # prompt_infer WAV length range
    requests_per_round: int
    min_ops: int  # closed-loop ops a measured phase needs (p90 with 10 beyond)

    def config(self, seed: int, epochs: int, batch_size: int) -> RunConfig:
        if not self.tiny:
            return experiment_run_config(seed=seed, epochs=epochs, batch_size=batch_size)
        data = json.loads(json.dumps(_TINY_CONFIG))
        data["encoder"]["seed"] = seed
        data["train"].update({"seed": seed, "epochs": epochs, "batch_size": batch_size})
        return RunConfig.from_dict(data)

    @property
    def segment_s(self) -> float:
        return self.config(0, 1, 8).preprocess.segment_seconds


FULL = Sizes(False, 24, 2.0, 40, 2, 2, (2.0, 30.0), 12, 101)
TINY = Sizes(True, 5, 0.35, 1, 1, 1, (0.4, 1.0), 6, 3)

MODEL_SEED = 0  # model init and batch order; the workload seed picks the data


def build_fixture(sizes: Sizes, out_path: Path, work: Path) -> None:
    """Train the tri-modal checkpoint every non-training workload starts from."""
    manifest = tricl.synth.synth_generate(
        three_class_spec(seed=0, samples_per_class=sizes.samples_per_class, duration_seconds=sizes.duration_s), work
    )
    config = sizes.config(MODEL_SEED, sizes.fixture_epochs, 8)
    model, _, _, _ = tricl.experiments.train_on_fold(manifest, AUX_TEMPLATE_TEXT, config)
    tricl.checkpoint.save_checkpoint(model, out_path)


@dataclass
class RoundResult:
    loss_trace: list[float]  # per-epoch mean losses; empty for prompt_infer
    accuracy: float
    predictions: int
    prompt_ce: list[float]  # prompt_infer: cross entropy of each request
    digest: str  # hash of the round's outputs
    errors: list[str]
    failed: int = 0  # operations that failed (non-zero CLI exit)


def _trace_digest(trace: list[float]) -> str:
    return hashlib.sha256(" ".join(float(x).hex() for x in trace).encode()).hexdigest()


def _trace_errors(trace: list[float]) -> list[str]:
    if not trace:
        return ["no epoch produced a loss"]
    return [f"epoch {i + 1} loss is not finite: {x!r}" for i, x in enumerate(trace) if not math.isfinite(x)]


class ContrastiveTrain:
    name = "contrastive_train"

    def __init__(self, sizes: Sizes, seed: int, fixture: Path):
        self.sizes, self.seed = sizes, seed
        self.config = sizes.config(MODEL_SEED, sizes.train_epochs, 8)

    def setup(self, work: Path):
        spec = three_class_spec(
            seed=self.seed, samples_per_class=self.sizes.samples_per_class, duration_seconds=self.sizes.duration_s
        )
        return tricl.synth.synth_generate(spec, work / "data")

    def round(self, manifest, index: int, clock) -> RoundResult:
        first = len(clock.epoch_losses)
        model, dataset, folds, _ = tricl.experiments.train_on_fold(manifest, AUX_TEMPLATE_TEXT, self.config)
        accuracy = tricl.experiments.held_out_accuracy(model, dataset, folds)
        trace = clock.epoch_losses[first:]
        n_test = len(dataset.split_by_fold(folds, 0)[1].samples)
        return RoundResult(trace, accuracy, n_test, [], _trace_digest(trace), _trace_errors(trace))


class EncoderTune:
    name = "encoder_tune"

    def __init__(self, sizes: Sizes, seed: int, fixture: Path):
        self.sizes, self.seed, self.fixture = sizes, seed, fixture
        self.config = sizes.config(MODEL_SEED, sizes.tune_epochs, 4)

    def setup(self, work: Path):
        pretrained = tricl.checkpoint.load_checkpoint(self.fixture)
        spec = transfer_target_spec(
            seed=self.seed, samples_per_class=self.sizes.samples_per_class, duration_seconds=self.sizes.duration_s
        )
        manifest_path = tricl.synth.synth_generate(spec, work / "target")
        dataset, manifest = tricl.data.ingest(manifest_path, parse_template(LABEL_TEMPLATE_TEXT), self.config.preprocess)
        folds = tricl.data.make_folds(manifest, k=4, seed=0)
        train_ds, _ = dataset.split_by_fold(folds, 0)
        return pretrained, dataset, folds, train_ds

    def round(self, state, index: int, clock) -> RoundResult:
        pretrained, dataset, folds, train_ds = state
        classifier, trace = tricl.tuning.encoder_tune(pretrained, train_ds, self.config)
        result = tricl.inference.evaluate(classifier, dataset, folds, 0)
        return RoundResult(trace, result.accuracy, result.n_segments, [], _trace_digest(trace), _trace_errors(trace))


@dataclass
class InferState:
    ckpt: Path
    labels_path: Path
    wav_path: Path
    model: object
    labels: list[str]
    candidates: list[str]
    recordings: list[tuple[str, np.ndarray]]  # (true label, samples)


class PromptInfer:
    name = "prompt_infer"

    def __init__(self, sizes: Sizes, seed: int, fixture: Path):
        self.sizes, self.seed, self.fixture = sizes, seed, fixture

    def setup(self, work: Path) -> InferState:
        model = tricl.checkpoint.load_checkpoint(self.fixture)
        ckpt = work / "model.ckpt"
        tricl.checkpoint.save_checkpoint(model, ckpt)
        labels = list(model.class_labels)
        labels_path = work / "labels.json"
        labels_path.write_text(json.dumps(labels), encoding="utf-8")
        # one close and one far recording per class, so every seed has the
        # same mix; requests are seeded crops of them
        recordings = []
        for i, distance in enumerate(("close", "far")):
            spec = three_class_spec(seed=2 * self.seed + i, samples_per_class=1,
                                    duration_seconds=self.sizes.request_s[1] + 2.0)
            spec.aux_fields = {"distance": AuxFieldSpec((distance,))}
            manifest = tricl.data.load_manifest(tricl.synth.synth_generate(spec, work / f"recordings-{distance}"))
            recordings += [(r.vessel_type, tricl.dsp.read_wav(r.audio_path)[0]) for r in manifest.records]
        candidates = candidate_queue(parse_template(model.test_template_text), labels)
        return InferState(ckpt, labels_path, work / "request.wav", model, labels, candidates, recordings)

    def _requests(self, state: InferState, index: int) -> list[tuple[str, np.ndarray]]:
        """One round: each recording equally often and each of ``n`` equal
        slices of the length range once, in a seeded order, cut at seeded
        offsets. Stratifying keeps the length mix, and so the latency tail,
        the same for every seed."""
        rng = np.random.default_rng([self.seed, index])
        n = self.sizes.requests_per_round
        lo, hi = self.sizes.request_s
        strata = rng.permutation(n)
        out = []
        for j in range(n):
            label, samples = state.recordings[j % len(state.recordings)]
            length = int(round((lo + (hi - lo) * (strata[j] + rng.random()) / n) * tricl.dsp.TARGET_RATE))
            start = int(rng.integers(len(samples) - length + 1))
            out.append((label, samples[start : start + length]))
        return out

    def round(self, state: InferState, index: int, clock) -> RoundResult:
        argv = ["infer", "--ckpt", str(state.ckpt), "--wav", str(state.wav_path), "--labels", str(state.labels_path)]
        scale = float(np.exp(state.model.scales.scale_at.values))
        errors, ces, outputs = [], [], []
        hits = failed = 0
        with clock.harness():
            requests = self._requests(state, index)
        for j, (label, samples) in enumerate(requests):
            with clock.harness():
                tricl.dsp.write_wav(state.wav_path, samples)
            out = io.StringIO()
            clock.begin()
            with contextlib.redirect_stdout(out):
                code = tricl.cli.main(argv)
            clock.end(samples=1, audio_s=len(samples) / tricl.dsp.TARGET_RATE)
            with clock.harness():
                if code != 0:
                    failed += 1
                    errors.append(f"request {index}.{j}: tricl infer exited with {code}")
                    continue
                line = out.getvalue().strip().splitlines()[-1]
                outputs.append(line)
                prediction = json.loads(line)["prediction"]
                segment = tricl.dsp.AudioSegment(tricl.dsp.read_wav(state.wav_path)[0])
                with clock.paused():
                    best, sims = tricl.inference.prompt_infer(segment, state.candidates, state.model)
                if prediction != state.labels[best]:
                    errors.append(f"request {index}.{j}: CLI predicted {prediction}, prompt_infer {state.labels[best]}")
                logits = scale * sims
                top = logits.max()
                truth = state.labels.index(label)
                ces.append(float(top + np.log(np.exp(logits - top).sum()) - logits[truth]))
                hits += prediction == label
        digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
        n = self.sizes.requests_per_round
        return RoundResult([], hits / n, n, ces, digest, errors, failed)


WORKLOADS = {w.name: w for w in (ContrastiveTrain, PromptInfer, EncoderTune)}
