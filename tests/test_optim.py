import numpy as np

import tricl.optim
from tricl.optim import BETA1, BETA2, EPSILON, AdamW
from tricl.store import ParameterStore
from tricl.tensor import Tensor, backward, mul, tsum


def test_first_step_moves_by_lr():
    # bias-corrected Adam with unit gradient: step of ~lr; decay term <= 1e-9
    p = Tensor(1.0, requires_grad=True, name="p")
    opt = AdamW(ParameterStore({"p": p}), lr=1e-5, weight_decay=1e-5)
    p.grad[...] = 1.0
    opt.step()
    delta = 1.0 - float(p.values)
    assert abs(delta - 1e-5) < 2e-10
    assert opt.step_count == 1


def test_hand_evaluated_two_steps():
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    assert (BETA1, BETA2, EPSILON) == (b1, b2, eps)
    p = Tensor(0.5, requires_grad=True, name="p")
    opt = AdamW(ParameterStore({"p": p}), lr=lr, weight_decay=0.0)
    expect = 0.5
    m = v = 0.0
    for t, g in ((1, 0.3), (2, -0.2)):
        p.grad[...] = g
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        expect -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert abs(float(p.values) - expect) < 1e-15


def test_zero_grad_zero_decay_is_fixed_point():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True, name="p")
    opt = AdamW(ParameterStore({"p": p}), lr=1e-3, weight_decay=0.0)
    before = p.values.copy()
    p.grad[...] = 0.0
    opt.step()
    np.testing.assert_array_equal(p.values, before)


def test_second_moment_grows_under_constant_grad():
    p = Tensor(0.0, requires_grad=True, name="p")
    opt = AdamW(ParameterStore({"p": p}), lr=1e-4, weight_decay=0.0)
    p.grad[...] = 1.0
    opt.step()
    v1 = opt.v.copy()
    p.grad[...] = 1.0
    opt.step()
    assert float(opt.v[0]) > float(v1[0])


def test_gradients_view_one_buffer_that_step_zeroes():
    p = Tensor(1.0, requires_grad=True, name="p")
    q = Tensor(np.ones(2), requires_grad=True, name="q")
    opt = AdamW(ParameterStore({"p": p, "q": q}), lr=1e-3)
    assert opt.grad.shape == opt.m.shape == opt.v.shape == (3,)  # one entry per value of p and q
    assert not opt.m.any() and not opt.v.any()
    assert np.shares_memory(p.grad, opt.grad) and np.shares_memory(q.grad, opt.grad)
    p.grad[...] = 0.1
    q.grad[...] = 0.1
    opt.step()
    assert np.all(opt.m != 0.0)
    assert not opt.grad.any()  # step zeroes gradients
    assert np.shares_memory(p.grad, opt.grad) and np.shares_memory(q.grad, opt.grad)


def test_parameter_the_loss_misses_takes_the_zero_gradient_step():
    # step 1 with a zero gradient: m = v = 0, so the Adam term is 0 / (0 + eps) = 0 and only decay acts
    lr, wd = 1e-2, 1e-1
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True, name="p")
    q = Tensor(np.array([3.0, 4.0]), requires_grad=True, name="q")
    opt = AdamW(ParameterStore({"p": p, "q": q}), lr=lr, weight_decay=wd)
    backward(tsum(mul(p, p)))  # q is not on the tape
    p_before, q_before = p.values.copy(), q.values.copy()
    opt.step()
    assert np.array_equal(q.values, q_before - q_before * (lr * wd))
    assert np.all(np.abs(p.values - (p_before - p_before * (lr * wd))) > 0.5 * lr)  # p took a gradient step


def test_decoupled_decay_shrinks_params_without_grad_signal():
    p = Tensor(100.0, requires_grad=True, name="p")
    opt = AdamW(ParameterStore({"p": p}), lr=1e-2, weight_decay=1e-1)
    p.grad[...] = 0.0
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
    assert (BETA1, BETA2, EPSILON) == (b1, b2, eps)
    opt = AdamW(ParameterStore(tensors), lr=lr, weight_decay=wd)
    for t in (1, 2, 3):
        grads = {k: np.asarray(rng.standard_normal(x.shape)) for k, x in ref.items()}
        for k, p in tensors.items():
            p.grad[...] = grads[k]
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
    b.grad[...] = 1.0
    opt.step()
    np.testing.assert_array_equal(store.buffer[:3], np.ones(3))
    assert np.all(store.buffer[3:] < 1.0)
    assert np.shares_memory(b.values, store.buffer)


def test_split_update_equals_the_one_thread_update_bitwise(monkeypatch):
    # one odd-length store per path, weight decay on, two steps on the same gradients
    rng = np.random.default_rng(0)
    shapes = [(3, 5), (7,), (1, 3)]  # 25 values
    start = [rng.standard_normal(s) for s in shapes]
    grads = [[rng.standard_normal(s) for s in shapes] for _ in range(2)]
    submitted = []
    beside = tricl.optim.beside
    monkeypatch.setattr(tricl.optim, "beside", lambda *tasks: submitted.append(tasks) or beside(*tasks))
    opts = {}
    for split_at in (26, 25):  # above the size, then at it
        store = ParameterStore({f"t{i}": Tensor(x.copy(), requires_grad=True) for i, x in enumerate(start)})
        opts[split_at] = AdamW(store, lr=1e-2, weight_decay=1e-1)
    for step_grads in grads:
        for split_at, opt in opts.items():
            monkeypatch.setattr(tricl.optim, "SPLIT_AT", split_at)
            for p, g in zip(opt.store.tensors.values(), step_grads):
                p.grad[...] = g
            submitted.clear()
            opt.step()
            assert len(submitted) == (split_at <= opt.grad.size)  # below the gate no worker task is submitted
    one, split = opts[26], opts[25]
    assert one.grad.size == 25 and not np.array_equal(one.store.buffer, np.concatenate([x.ravel() for x in start]))
    for name in ("m", "v", "grad"):
        assert getattr(one, name).tobytes() == getattr(split, name).tobytes()
    assert one.store.buffer.tobytes() == split.store.buffer.tobytes()
    assert not split.grad.any()
