"""The one read-out: `predict_labels` on both model types over the tape-free,
chunked `AudioEncoder.embed`, pinned on the format-v2 checkpoints."""

from pathlib import Path

import numpy as np

from tricl import wavelet
from tricl.checkpoint import load_checkpoint
from tricl.data import Dataset, FoldAssignment, TrainSample
from tricl.dsp import AudioSegment
from tricl.encoders import AudioEncoder
from tricl.inference import evaluate
from tricl.templates import AnnotationRecord, candidate_queue, parse_template

DATA = Path(__file__).resolve().parent / "data"
LABELS = ["Alpha", "Bravo"]

# Both checkpoints have train.batch_size 4, so ten segments span three chunks.
TRIMODAL_SIMS = [
    [0.09206899301974225, 0.0096182961673208],
    [0.08426746867288767, 0.012095654851115911],
    [0.0545865497251578, 0.07842094341450559],
    [0.08413847080711533, 0.015553493253034933],
    [0.0919574713254372, 0.012733887603665442],
    [0.08958431575337578, 0.024348762934352983],
    [0.08804104046218061, 0.0486339681499207],
    [0.06041584082842446, 0.09115414559622316],
    [0.08742707292670254, 0.0482122226298974],
    [0.09173196374955775, 0.022827934380075316],
]
TRIMODAL_PREDICTIONS = ["Alpha", "Alpha", "Bravo", "Alpha", "Alpha", "Alpha", "Alpha", "Bravo", "Alpha", "Alpha"]
CLASSIFIER_LOGITS = [
    [-0.0022089081177278968, 4.194504878594972e-05],
    [-0.0024713217459163294, -0.0005671354516412722],
    [-0.004239475897589123, -0.0017404152368120042],
    [-0.0024675083836796924, -0.0005590147743809626],
    [-0.002236634671251841, -3.0006419939301605e-05],
    [-0.0020788555977147567, 0.0008592288075479721],
    [-0.002380035034377247, 0.0016582515786956178],
    [-0.0030072286305066675, 0.0035865825120442213],
    [-0.002370866587924461, 0.0015859313322152593],
    [-0.002168836639273977, 0.0006244479265480071],
]


def probe_segments():
    t = np.arange(800) / 16000
    return [
        AudioSegment(0.4 * np.sin(2 * np.pi * (300.0 + 100.0 * i) * t) + 0.02 * np.random.default_rng(i).standard_normal(800))
        for i in range(10)
    ]


def probe_fold(model):
    """The probe batch as fold 0, truth alternating Alpha, Bravo; no source was trained on."""
    samples = [
        TrainSample(seg, "", f"probe-{i}", AnnotationRecord(LABELS[i % 2]))
        for i, seg in enumerate(probe_segments())
    ]
    return Dataset(samples, model.config.preprocess), FoldAssignment({s.source_id: 0 for s in samples}, 2)


def test_trimodal_read_out_pinned():
    model = load_checkpoint(DATA / "trimodal_v2.ckpt")
    candidates = candidate_queue(parse_template(model.test_template_text), model.class_labels)
    np.testing.assert_allclose(model.similarities(probe_segments(), candidates), TRIMODAL_SIMS, rtol=1e-10, atol=0)
    assert model.predict_labels(probe_segments()) == TRIMODAL_PREDICTIONS
    result = evaluate(model, *probe_fold(model), 0)
    assert (result.accuracy, result.confusion.tolist()) == (0.5, [[4, 1], [4, 1]])


def test_classifier_read_out_pinned():
    model = load_checkpoint(DATA / "classifier_v2.ckpt")
    embeddings = model.audio_encoder.embed(probe_segments(), model.config.train.batch_size)
    logits = model.head_logits(embeddings, "category").values
    np.testing.assert_allclose(logits, CLASSIFIER_LOGITS, rtol=1e-10, atol=0)
    assert model.predict_labels(probe_segments()) == ["Bravo"] * 10
    result = evaluate(model, *probe_fold(model), 0)
    assert (result.accuracy, result.confusion.tolist()) == (0.5, [[0, 5], [0, 5]])


def test_embed_builds_kernels_once_and_records_no_tape(monkeypatch):
    """Each chunk's encode asks for its kernels; from a cold memo only the first folds them."""
    encoder = load_checkpoint(DATA / "classifier_v2.ckpt").audio_encoder
    folds, sizes = [], []
    fold, encode = wavelet._folded_kernels, AudioEncoder.encode
    monkeypatch.setattr(wavelet, "_memo", ())
    monkeypatch.setattr(wavelet, "_folded_kernels", lambda *args: folds.append(1) or fold(*args))
    monkeypatch.setattr(AudioEncoder, "encode", lambda self, batch: sizes.append(len(batch)) or encode(self, batch))
    out = encoder.embed(probe_segments(), 4)
    assert len(folds) == 1 and sizes == [4, 4, 2]
    assert out.shape == (10, encoder.config.d) and not out.requires_grad and not out._parents

