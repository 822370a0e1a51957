"""Parameter discovery: the `trainable` walk, the pinned store layout of every
model variant, and format-v2 checkpoints written before the walk existed."""

import gc
import hashlib
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from tricl.bpe import BpeTokenizer
from tricl.checkpoint import load_checkpoint, save_checkpoint
from tricl.dsp import AudioSegment
from tricl.errors import ConfigError, ContractError
from tricl.inference import prompt_infer
from tricl.model import TriModalModel
from tricl.presets import experiment_run_config
from tricl.store import trainable
from tricl.tensor import Tensor, no_grad
from tricl.tuning import ClassifierModel

DATA = Path(__file__).resolve().parent / "data"


def param(name: str) -> Tensor:
    return Tensor(0.0, requires_grad=True, name=name)


class Part:
    def __init__(self, **attrs):
        for key, value in attrs.items():
            setattr(self, key, value)


class TestTrainable:
    def test_assignment_order_through_lists_dicts_and_objects(self):
        inner = Part(b=param("b"), a=param("a"))
        outer = Part(
            first=param("first"),
            layers=[Part(w=param("l0.w")), (param("l1.w"), param("l1.b"))],
            heads={"z": Part(w=param("z.w")), "y": Part(w=param("y.w"))},
            inner=inner,
        )
        assert list(trainable(outer)) == ["first", "l0.w", "l1.w", "l1.b", "z.w", "y.w", "b", "a"]

    def test_parts_in_argument_order_and_none_skipped(self):
        one, two = Part(w=param("one.w")), Part(w=param("two.w"), skip=None)
        assert list(trainable(two, None, one)) == ["two.w", "one.w"]
        assert trainable(None) == {}

    def test_constants_and_plain_values_skipped(self):
        part = Part(eps=Tensor(1e-5, name="eps"), grid=np.ones(3), width=4, label="x", w=param("w"))
        found = trainable(part)
        assert list(found) == ["w"] and found["w"] is part.w

    def test_one_tensor_reached_twice_is_kept_once(self):
        shared = param("shared")
        assert list(trainable(Part(a=shared), Part(b=shared))) == ["shared"]

    def test_walk_leaves_no_reference_cycle(self):
        # a cycle would keep every found tensor, and the store buffer its
        # values view, alive until the next garbage collection
        part = Part(w=param("w"))
        values = weakref.ref(part.w.values)
        gc.disable()
        try:
            found = trainable(part)
            del part, found
            assert values() is None
        finally:
            gc.enable()

    def test_two_tensors_with_one_name_raise(self):
        with pytest.raises(ContractError, match="'dup'"):
            trainable(Part(a=param("dup")), Part(b=param("dup")))


# SHA-256 of json.dumps(model.store.index()) at the preset config, captured
# from the hand-listed layout; a change here moves every checkpoint
LAYOUT_SHA256 = {
    "tri": "93b391c991a5a22e44f66d52107d26286f77d6de8057be910d9cf35a9889dc22",
    "audio_text": "089ef92e6075c05460888b06088b7c7910f2a3b877cb362bbad6b94eb96e0af2",
    "category": "a95d4e97300b13b2ebc711dbc5769eb1352117c2a2c40ff8cc8a692c17beac0c",
    "multitask": "060177595c436315acc4ec056e1b6ec8197acb2ae9adceebbb54696bf78866c7",
}
TASK_CLASSES = {
    "category": {"category": ["A", "B", "C"]},
    "multitask": {"category": ["A", "B", "C"], "distance": ["close", "far"], "wind": ["calm", "windy"]},
}


def preset_model(variant: str):
    if variant in TASK_CLASSES:
        return ClassifierModel(experiment_run_config(), TASK_CLASSES[variant])
    config = experiment_run_config(modalities=variant)
    return TriModalModel(config, BpeTokenizer(), "x {label}", "y {label}", ["A", "B"])


@pytest.mark.parametrize("variant", list(LAYOUT_SHA256))
def test_store_layout_pinned(variant):
    index = preset_model(variant).store.index()
    assert hashlib.sha256(json.dumps(index).encode()).hexdigest() == LAYOUT_SHA256[variant]


def test_audio_text_stores_one_scale():
    model = preset_model("audio_text")
    assert [name for name in model.store.tensors if name.startswith("scale.")] == ["scale.at"]
    assert model.scales.scale_ts is None and model.scales.scale_as is None
    assert list(model.scales.multipliers()) == ["scale.at"]


# tests/data/*_v2.ckpt: tiny tri-modal and multitask models trained two
# epochs and saved by the hand-listed layout, with the outputs they gave then.
# Reductions may round differently with array alignment from one process to
# the next, so outputs match to 1e-10; the stored parameters match bitwise.
PROBE = AudioSegment(0.4 * np.sin(2 * np.pi * 700.0 * np.arange(800) / 16000))
TRIMODAL_SIMS = [float.fromhex("0x1.766d67c51f174p-4"), float.fromhex("0x1.b4115ddf8c380p-7")]
CLASSIFIER_LOGITS = [float.fromhex("-0x1.200d24eb570b9p-9"), float.fromhex("0x1.b6050e7ab40c0p-15")]


def resaved_matches(path: Path, model, tmp_path) -> bool:
    """Same params bitwise, same meta but for the classifier `kind` no longer written."""
    copy = tmp_path / path.name
    save_checkpoint(model, copy)
    with np.load(path) as old, np.load(copy) as new:
        same_params = np.array_equal(old["params"], new["params"])
        old_meta = json.loads(str(old["__meta__"]))
        old_meta.pop("kind", None)
        return same_params and old_meta == json.loads(str(new["__meta__"]))


def test_earlier_trimodal_checkpoint_predicts_identically(tmp_path):
    path = DATA / "trimodal_v2.ckpt"
    model = load_checkpoint(path)
    best, sims = prompt_infer(PROBE, ["The sound belongs to Alpha.", "The sound belongs to Bravo."], model)
    assert best == 0
    np.testing.assert_allclose(sims, TRIMODAL_SIMS, rtol=1e-10, atol=0)
    assert resaved_matches(path, model, tmp_path)


def test_earlier_classifier_checkpoint_predicts_identically(tmp_path):
    path = DATA / "classifier_v2.ckpt"
    model = load_checkpoint(path)
    with no_grad():
        embeddings = model.audio_encoder.encode([PROBE])
        logits = model.head_logits(embeddings, "category").values
    np.testing.assert_allclose(logits.ravel(), CLASSIFIER_LOGITS, rtol=1e-10, atol=0)
    assert model.predict_labels([PROBE]) == ["Bravo"]
    assert resaved_matches(path, model, tmp_path)


def test_fused_multilabel_checkpoint_is_config_error(tmp_path):
    # the fused multi-label head is gone; a checkpoint of one names its tasks
    with np.load(DATA / "classifier_v2.ckpt") as z:
        meta, params = json.loads(str(z["__meta__"])), z["params"]
    meta["kind"] = "multilabel"
    meta["task_classes"] = {"multilabel": ["Alpha", "Bravo", "distance=close", "distance=far"], "n_categories": [2]}
    path = tmp_path / "multilabel.ckpt"
    with open(path, "wb") as f:
        np.savez(f, params=params, __meta__=np.array(json.dumps(meta)))
    with pytest.raises(ConfigError, match=r"got \['multilabel', 'n_categories'\]"):
        load_checkpoint(path)


class NoDraws:
    """Stands in for a numpy Generator: any random init drawn from it fails."""

    def uniform(self, *args, **kwargs):
        raise AssertionError("drew a random initialisation")


@pytest.mark.parametrize("name", ["trimodal_v2.ckpt", "classifier_v2.ckpt"])
def test_load_draws_no_random_init(name, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda *args: NoDraws())
    model = load_checkpoint(DATA / name)
    with np.load(DATA / name) as z:
        assert np.array_equal(model.store.buffer, z["params"])
    with pytest.raises(AssertionError, match="random initialisation"):
        preset_model("category")  # a model built outside load_checkpoint still draws its init
