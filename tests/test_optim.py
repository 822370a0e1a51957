import numpy as np
import pytest

from tricl.errors import ContractError
from tricl.optim import AdamW
from tricl.store import ParameterStore
from tricl.tensor import Tensor


def test_first_step_moves_by_lr():
    # bias-corrected Adam with unit gradient: step of ~lr; decay term <= 1e-9
    p = Tensor(1.0, requires_grad=True, name="p")
    p.grad = np.asarray(1.0)
    opt = AdamW(ParameterStore({"p": p}), lr=1e-5, weight_decay=1e-5)
    opt.step()
    delta = 1.0 - float(p.values)
    assert abs(delta - 1e-5) < 2e-10
    assert opt.step_count == 1


def test_hand_evaluated_two_steps():
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    p = Tensor(0.5, requires_grad=True, name="p")
    opt = AdamW(ParameterStore({"p": p}), lr=lr, weight_decay=0.0, beta1=b1, beta2=b2, epsilon=eps)
    expect = 0.5
    m = v = 0.0
    for t, g in ((1, 0.3), (2, -0.2)):
        p.grad = np.asarray(g)
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        expect -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert abs(float(p.values) - expect) < 1e-15


def test_zero_grad_zero_decay_is_fixed_point():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True, name="p")
    opt = AdamW(ParameterStore({"p": p}), lr=1e-3, weight_decay=0.0)
    before = p.values.copy()
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.values, before)


def test_second_moment_grows_under_constant_grad():
    p = Tensor(0.0, requires_grad=True, name="p")
    opt = AdamW(ParameterStore({"p": p}), lr=1e-4, weight_decay=0.0)
    p.grad = np.asarray(1.0)
    opt.step()
    v1 = opt.v.copy()
    p.grad = np.asarray(1.0)
    opt.step()
    assert float(opt.v[0]) > float(v1[0])


def test_missing_grad_names_parameter():
    p = Tensor(1.0, requires_grad=True, name="wavelet.m")
    opt = AdamW(ParameterStore({"wavelet.m": p}))
    with pytest.raises(ContractError, match="wavelet.m"):
        opt.step()


def test_moments_exist_only_after_step():
    p = Tensor(1.0, requires_grad=True, name="p")
    q = Tensor(1.0, requires_grad=True, name="q")
    opt = AdamW(ParameterStore({"p": p, "q": q}), lr=1e-3)
    assert opt.m is None and opt.v is None
    p.grad = np.asarray(0.1)
    q.grad = np.asarray(0.1)
    opt.step()
    assert opt.m.shape == opt.v.shape == (2,)  # one moment entry each for p and q
    assert p.grad is None and q.grad is None  # step zeroes gradients


def test_decoupled_decay_shrinks_params_without_grad_signal():
    p = Tensor(100.0, requires_grad=True, name="p")
    opt = AdamW(ParameterStore({"p": p}), lr=1e-2, weight_decay=1e-1)
    p.grad = np.asarray(0.0)
    opt.step()
    # pure decay: p *= (1 - lr*wd)
    assert abs(float(p.values) - 100.0 * (1 - 1e-3)) < 1e-12


def test_flat_step_matches_per_tensor_reference():
    # the per-tensor update, written out, for tensors of several shapes
    lr, wd, b1, b2, eps = 1e-2, 1e-1, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(0)
    shapes = [(), (3,), (2, 4), (1, 5)]
    tensors = {f"t{i}": Tensor(rng.standard_normal(s), requires_grad=True) for i, s in enumerate(shapes)}
    ref = {k: t.values.copy() for k, t in tensors.items()}
    m = {k: np.zeros_like(x) for k, x in ref.items()}
    v = {k: np.zeros_like(x) for k, x in ref.items()}
    opt = AdamW(ParameterStore(tensors), lr=lr, weight_decay=wd, beta1=b1, beta2=b2, epsilon=eps)
    for t in (1, 2, 3):
        grads = {k: np.asarray(rng.standard_normal(x.shape)) for k, x in ref.items()}
        for k, p in tensors.items():
            p.grad = grads[k].copy()
        opt.step()
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
            ref[k] -= lr * wd * ref[k]
            ref[k] -= lr * (m[k] / (1.0 - b1**t)) / (np.sqrt(v[k] / (1.0 - b2**t)) + eps)
            assert np.array_equal(tensors[k].values, ref[k])


def test_store_run_updates_only_its_slice():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    store = ParameterStore({"a": a, "b": b})
    opt = AdamW(store.split(1)[1], lr=1e-2)
    b.grad = np.ones(2)
    opt.step()
    np.testing.assert_array_equal(store.buffer[:3], np.ones(3))
    assert np.all(store.buffer[3:] < 1.0)
    assert np.shares_memory(b.values, store.buffer)
