import numpy as np
import pytest

from tricl.errors import ContractError
from tricl.optim import AdamW
from tricl.tensor import Tensor


def test_first_step_moves_by_lr():
    # bias-corrected Adam with unit gradient: step of ~lr; decay term <= 1e-9
    p = Tensor(1.0, requires_grad=True, name="p")
    p.grad = np.asarray(1.0)
    opt = AdamW([p], lr=1e-5, weight_decay=1e-5)
    opt.step()
    delta = 1.0 - float(p.values)
    assert abs(delta - 1e-5) < 2e-10
    assert opt.step_count == 1


def test_hand_evaluated_two_steps():
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    p = Tensor(0.5, requires_grad=True, name="p")
    opt = AdamW([p], lr=lr, weight_decay=0.0, beta1=b1, beta2=b2, epsilon=eps)
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
    opt = AdamW([p], lr=1e-3, weight_decay=0.0)
    before = p.values.copy()
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.values, before)


def test_second_moment_grows_under_constant_grad():
    p = Tensor(0.0, requires_grad=True, name="p")
    opt = AdamW([p], lr=1e-4, weight_decay=0.0)
    p.grad = np.asarray(1.0)
    opt.step()
    v1 = opt._v[p].copy()
    p.grad = np.asarray(1.0)
    opt.step()
    assert float(opt._v[p]) > float(v1)


def test_missing_grad_names_parameter():
    p = Tensor(1.0, requires_grad=True, name="wavelet.m")
    opt = AdamW([p])
    with pytest.raises(ContractError, match="wavelet.m"):
        opt.step()


def test_moments_exist_only_after_step():
    p = Tensor(1.0, requires_grad=True, name="p")
    q = Tensor(1.0, requires_grad=True, name="q")
    opt = AdamW([p, q], lr=1e-3)
    assert not opt.has_state(p) and not opt.has_state(q)
    p.grad = np.asarray(0.1)
    q.grad = np.asarray(0.1)
    opt.step()
    assert opt.has_state(p) and opt.has_state(q)
    assert p.grad is None and q.grad is None  # step zeroes gradients


def test_decoupled_decay_shrinks_params_without_grad_signal():
    p = Tensor(100.0, requires_grad=True, name="p")
    opt = AdamW([p], lr=1e-2, weight_decay=1e-1)
    p.grad = np.asarray(0.0)
    opt.step()
    # pure decay: p *= (1 - lr*wd)
    assert abs(float(p.values) - 100.0 * (1 - 1e-3)) < 1e-12
