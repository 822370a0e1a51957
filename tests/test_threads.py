"""The two-thread contrastive step: `tensor.beside`, branch nodes and the
split backward walk, and their use in `trainer.batch_loss`, whose worker
task also builds the wavelet kernels."""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from helpers import plain_backward, tiny_run_config
from test_trainer import make_dataset, make_model
from tricl.dsp import AudioSegment
from tricl.encoders import AudioEncoder, SpecEncoder, TextEncoder
from tricl.errors import ContractError, KernelSupportError
from tricl import encoders, tensor
from tricl.optim import AdamW
from tricl.tensor import Tensor, add, backward, beside, branch, mul, no_grad, tsum
from tricl.trainer import batch_loss, train_epoch
from tricl.wavelet import BAND_FLOOR


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def record_threads(monkeypatch, owner, attr: str = "encode") -> list[str]:
    """Names of the threads that run `owner.<attr>`, a method or a module's function."""
    names = []
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *args, **kwargs: names.append(threading.current_thread().name)
                        or original(*args, **kwargs))
    return names


class TestBeside:
    def test_returns_both_results(self):
        assert beside(lambda: threading.current_thread().name, lambda: "here")[0].startswith("tricl-worker")
        assert beside(lambda: 1, lambda: 2) == (1, 2)

    def test_worker_error_keeps_its_type(self):
        def fail():
            raise KeyError("worker")

        with pytest.raises(KeyError, match="worker"):
            beside(fail, lambda: None)

    def test_caller_error_wins_and_worker_is_joined(self):
        done = []

        def slow_fail():
            time.sleep(0.05)
            done.append(1)
            raise KeyError("worker")

        def fail():
            raise ValueError("caller")

        with pytest.raises(ValueError, match="caller") as raised:
            beside(slow_fail, fail)
        assert done == [1]
        assert raised.value.__notes__ == ["the worker task also raised KeyError('worker')"]

    def test_nested_call_on_the_worker_runs_inline(self):
        inner = beside(lambda: beside(lambda: 1, lambda: 2), lambda: 3)
        assert inner == ((1, 2), 3)

    def test_worker_runs_in_the_callers_grad_mode(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            there, here = beside(lambda: mul(x, x), lambda: mul(x, x))
        assert not there.requires_grad and not here.requires_grad
        there, here = beside(lambda: mul(x, x), lambda: mul(x, x))
        assert there.requires_grad and here.requires_grad


class TestBranchWalk:
    def test_branch_is_identity_and_untaped_without_grad(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = branch(mul(x, x), on_worker=True)
        backward(tsum(y))
        np.testing.assert_array_equal(x.grad, 2 * x.values)
        plain = Tensor(np.arange(3.0))
        assert branch(plain) is plain

    def test_branches_sharing_a_leaf_raise_before_any_gradient(self):
        w = Tensor(np.ones(3), requires_grad=True)
        x, y = Tensor(np.arange(3.0)), Tensor(np.ones(3))
        loss = tsum(add(branch(mul(x, w), on_worker=True), branch(mul(y, w))))
        with pytest.raises(ContractError, match="same node"):
            backward(loss)
        assert w.grad is None

    def test_branch_sharing_a_leaf_with_the_head_raises(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError, match="same node"):
            backward(tsum(mul(branch(mul(w, w), on_worker=True), w)))
        assert w.grad is None


@pytest.fixture
def short_switch_interval():
    """Hand the interpreter lock between threads as often as it allows."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.mark.parametrize("modalities", ["tri", "audio_text"])
def test_branched_step_gradients_equal_a_plain_walk_bitwise(modalities, short_switch_interval):
    config = tiny_run_config(modalities=modalities)
    dataset = make_dataset(n_sources=6)
    model = make_model(config, dataset)
    optimizer = AdamW(model.store, lr=config.train.lr)
    for indices in ([0, 1, 2, 3], [5, 2, 4, 0, 1]):
        loss = batch_loss(dataset, indices, model)
        backward(loss)
        branched = optimizer.grad.copy()
        optimizer.grad[...] = 0.0
        plain_backward(loss)
        assert branched.any()
        assert bits(optimizer.grad) == bits(branched)
        optimizer.step()  # the second batch sees moved weights


@pytest.mark.parametrize("modalities, worker, caller", [
    ("tri", ["kernels", "audio", "text"], ["spec"]),
    ("audio_text", ["kernels", "audio"], ["text"]),
])
def test_encoders_run_on_their_threads(monkeypatch, modalities, worker, caller):
    config = tiny_run_config(modalities=modalities)
    dataset = make_dataset(n_sources=4)
    model = make_model(config, dataset)
    classes = {"audio": AudioEncoder, "spec": SpecEncoder, "text": TextEncoder}
    threads = {name: record_threads(monkeypatch, cls) for name, cls in classes.items()}
    threads["kernels"] = record_threads(monkeypatch, encoders, "build_kernels")  # the binding encode calls
    batch_loss(dataset, [0, 1, 2, 3], model)
    for name in worker:
        assert threads[name] and threads[name][0].startswith("tricl-worker")
    for name in caller:
        assert threads[name] == [threading.current_thread().name]


def record_submissions(monkeypatch) -> list[str]:
    """Names of the threads that submit a task to the worker."""
    beside(lambda: None, lambda: None)  # the worker exists
    submitted = []
    submit = tensor._WORKER.submit
    monkeypatch.setattr(tensor._WORKER, "submit",
                        lambda fn: submitted.append(threading.current_thread().name) or submit(fn))
    return submitted


def test_frontend_on_the_caller_submits_nothing(monkeypatch):
    """The wavelet frontend runs wholly on the thread that calls it: a taped
    encode with its backward, and a tape-free embed, start no worker task."""
    submitted = record_submissions(monkeypatch)
    config = tiny_run_config()
    encoder = AudioEncoder(config.encoder, config.preprocess, np.random.default_rng(0))
    segments = [AudioSegment(s) for s in np.random.default_rng(1).standard_normal((3, 800))]
    backward(tsum(encoder.encode(segments)))
    assert encoder.wavelet.m.grad is not None
    encoder.embed(segments, chunk=2)
    assert submitted == []


def test_contrastive_step_submits_nothing_from_the_worker(monkeypatch):
    """Inside the contrastive step the frontend runs on the worker and starts
    no task of its own: the only submissions are the step's own two."""
    submitted = record_submissions(monkeypatch)
    config = tiny_run_config()
    dataset = make_dataset(n_sources=4)
    model = make_model(config, dataset)
    backward(batch_loss(dataset, [0, 1, 2, 3], model))
    main = threading.current_thread().name
    assert submitted == [main, main]  # the forward's encoders, then the backward's branch walk


def test_worker_error_reaches_train_epoch_with_its_type():
    config = tiny_run_config()
    dataset = make_dataset(n_sources=4)

    def text_too_long(model):
        model.text_encoder.max_len = 3  # every template sentence is longer

    def kernels_too_wide(model):
        model.audio_encoder.wavelet.f_b.values[...] = BAND_FLOOR  # kernel widths grow as 1 / f_b

    for break_model, error, message in [
        (text_too_long, ContractError, "exceeds max length 3"),
        (kernels_too_wide, KernelSupportError, r"f_b=0\.0001 needs \d+ kernel taps"),
    ]:
        model = make_model(config, dataset)
        break_model(model)
        optimizer = AdamW(model.store, lr=config.train.lr)
        with pytest.raises(error, match=message) as raised:
            train_epoch(dataset, model, optimizer, config, np.random.default_rng(0), batch_loss)
        assert type(raised.value) is error
        assert not optimizer.grad.any()


def test_caller_error_is_not_masked_by_a_worker_error(monkeypatch):
    config = tiny_run_config()
    dataset = make_dataset(n_sources=4)
    model = make_model(config, dataset)
    model.text_encoder.max_len = 3  # fails on the worker
    model.spec_encoder.expected_kind = "mel"  # fails on the caller
    text_threads = record_threads(monkeypatch, TextEncoder)
    with pytest.raises(ContractError, match="spectrogram encoder configured for 'mel'") as raised:
        train_epoch(dataset, model, AdamW(model.store, lr=config.train.lr), config,
                    np.random.default_rng(0), batch_loss)
    assert text_threads and "exceeds max length 3" in raised.value.__notes__[0]  # the worker failed too
    spec_threads = record_threads(monkeypatch, SpecEncoder)
    model.text_encoder.max_len = config.train.max_tokens
    with pytest.raises(ContractError, match="spectrogram encoder configured for 'mel'"):
        batch_loss(dataset, [0, 1, 2, 3], model)
    assert spec_threads == [threading.current_thread().name]


def test_at_most_one_thread_is_added_across_epochs():
    config = tiny_run_config(epochs=3)
    dataset = make_dataset(n_sources=8)
    model = make_model(config, dataset)
    before = threading.active_count()
    optimizer = AdamW(model.store, lr=config.train.lr)
    rng = np.random.default_rng(0)
    for _ in range(3):
        train_epoch(dataset, model, optimizer, config, rng, batch_loss)
        assert threading.active_count() <= before + 1


def _child_step(dataset, model, conn):
    loss = batch_loss(dataset, [0, 1, 2, 3], model)
    backward(loss)
    conn.send(float(loss.values))


def test_forked_child_trains_after_a_parent_step():
    config = tiny_run_config()
    dataset = make_dataset(n_sources=4)
    model = make_model(config, dataset)
    optimizer = AdamW(model.store, lr=config.train.lr)
    backward(batch_loss(dataset, [0, 1, 2, 3], model))  # the parent's worker now exists
    optimizer.step()
    expected = float(batch_loss(dataset, [0, 1, 2, 3], model).values)
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_step, args=(dataset, model, send))
    child.start()
    try:
        assert receive.poll(60), "the forked child did not finish its step within 60 s"
        assert receive.recv() == expected
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
