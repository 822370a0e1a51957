"""Engine tests: op semantics, gradient pruning, gradient correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_grad, im2col_conv
from tricl import layers
from tricl.dsp import TARGET_RATE, AudioSegment, mel_spectrogram
from tricl.errors import ContractError, ShapeError
from tricl.presets import experiment_run_config
from tricl.tensor import (
    Tensor,
    add,
    backward,
    concat,
    conv2d,
    cross_entropy,
    div,
    exp,
    l2_normalize_rows,
    matmul,
    mean,
    mul,
    narrow,
    no_grad,
    relu,
    scalar_scale,
    softmax_rows,
    sub,
    take_rows,
    transpose,
    tsum,
)


def test_matmul_of_ones():
    out = matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    np.testing.assert_array_equal(out.values, np.full((2, 2), 3.0))


def test_l2_normalize_345_triangle():
    out = l2_normalize_rows(Tensor([[3.0, 4.0]]))
    np.testing.assert_allclose(out.values, [[0.6, 0.8]])


def test_softmax_symmetry():
    out = softmax_rows(Tensor([[0.0, 0.0]]))
    np.testing.assert_allclose(out.values, [[0.5, 0.5]])


def test_required_ops_run_forward():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    row = Tensor([[1.0, 2.0]])
    cases = {
        "add": lambda: add(a, b),
        "mul": lambda: mul(a, b),
        "matmul": lambda: matmul(a, b),
        "exp": lambda: exp(a),
        "sum": lambda: tsum(a),
        "mean": lambda: mean(a, axis=0),
        "concat": lambda: concat([a, b], axis=0),
        "slice": lambda: narrow(a, 0, 0, 1),
        "relu": lambda: relu(a),
        "softmax_rows": lambda: softmax_rows(row),
        "l2_normalize_rows": lambda: l2_normalize_rows(row),
        "scalar_scale": lambda: scalar_scale(a, 2.0),
    }
    for name, op in cases.items():
        out = op()
        assert np.isfinite(out.values).all(), name


def test_shape_error_names_op_and_shapes():
    with pytest.raises(ShapeError) as err:
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "matmul" in str(err.value) and "(2, 3)" in str(err.value)
    with pytest.raises(ShapeError, match="add"):
        add(Tensor(np.ones(3)), Tensor(np.ones(4)))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        backward(mul(x, x))


def test_sum_gradient_is_ones():
    x = Tensor(np.zeros(4), requires_grad=True)
    backward(tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones(4))


def test_square_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(tsum(mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_repeated_backward_accumulates():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = tsum(mul(x, x))
    backward(loss)
    backward(loss)
    np.testing.assert_allclose(x.grad, [4.0, 8.0])


PRUNE_CASES = [
    ("add", add, (3, 4), (3, 4)),
    ("add_broadcast", add, (3, 4), (1, 4)),
    ("sub_broadcast", sub, (3, 4), (4,)),
    ("mul_broadcast", mul, (3, 4), (3, 1)),
    ("div", div, (3, 4), (3, 4)),
    ("matmul", matmul, (3, 4), (4, 2)),
]


@pytest.mark.parametrize("const_side", [0, 1], ids=["const_left", "const_right"])
@pytest.mark.parametrize("name,op,shape_a,shape_b", PRUNE_CASES, ids=[c[0] for c in PRUNE_CASES])
def test_binary_op_prunes_constant_operand(name, op, shape_a, shape_b, const_side):
    rng = np.random.default_rng(11)
    # positive values away from zero keep div's denominator safe
    operands = [Tensor(rng.uniform(0.5, 2.0, size=shape_a)), Tensor(rng.uniform(0.5, 2.0, size=shape_b))]
    trainable = operands[1 - const_side]
    trainable.requires_grad = True
    trainable.name = "trainable"
    const = operands[const_side]
    node = op(*operands)
    weight = Tensor(rng.standard_normal(node.shape))

    grads = node._backward(np.ones(node.shape))
    assert grads[const_side] is None, name
    assert grads[1 - const_side].shape == trainable.shape, name

    check_grad(lambda: tsum(mul(op(*operands), weight)), [trainable], rtol=1e-4)
    assert const.grad is None, name


def test_backward_keeps_grad_on_leaves_only():
    x = Tensor([0.5, -1.0, 2.0], requires_grad=True)
    w = Tensor([1.5, 0.25, -0.5], requires_grad=True)
    h = mul(x, w)
    y = exp(h)
    loss = tsum(y)
    backward(loss)
    for interior in (h, y, loss):
        assert interior.grad is None
    expect_x = np.exp(x.values * w.values) * w.values
    expect_w = np.exp(x.values * w.values) * x.values
    np.testing.assert_allclose(x.grad, expect_x)
    np.testing.assert_allclose(w.grad, expect_w)
    backward(loss)
    np.testing.assert_allclose(x.grad, 2 * expect_x)
    np.testing.assert_allclose(w.grad, 2 * expect_w)
    for interior in (h, y, loss):
        assert interior.grad is None


def test_shared_subexpression_grad():
    # y = (x + x) * x has dy/dx = 4x
    x = Tensor([3.0], requires_grad=True)
    backward(tsum(mul(add(x, x), x)))
    np.testing.assert_allclose(x.grad, [12.0])


def test_no_grad_suppresses_tape():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = mul(x, x)
    assert not y.requires_grad and y._backward is None


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((5, 7)) * 10)
    out = softmax_rows(x).values
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
    assert (out > 0).all()


def test_l2_rows_unit_norm_and_zero_rows_rejected():
    x = Tensor(np.array([[3.0, 4.0], [1e-8, 0.0]]))
    norms = np.linalg.norm(l2_normalize_rows(x).values, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)
    with pytest.raises(ContractError, match="zero-norm row 1 of 3"):
        l2_normalize_rows(Tensor(np.array([[3.0, 4.0], [0.0, 0.0], [1e-8, 0.0]])))


def test_take_rows_scatter_add():
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = take_rows(table, [0, 2, 0])
    backward(tsum(out))
    np.testing.assert_array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_conv2d_matches_naive_conv():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 2, 5, 6))  # (C, N, H, W)
    w = rng.standard_normal((3, 2 * 3 * 3))
    b = rng.standard_normal((3, 1))
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), 3, stride=2, pad=1).values
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    expect = np.zeros((3, 2, 3, 3))
    for co in range(3):
        for n in range(2):
            for i in range(3):
                for j in range(3):
                    patch = padded[:, n, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                    expect[co, n, i, j] = (w[co].reshape(2, 3, 3) * patch).sum() + b[co, 0]
    np.testing.assert_allclose(got, expect)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_of_a_non_contiguous_input_equals_its_contiguous_copy(stride):
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((3, 5, 7, 2)).transpose(3, 0, 2, 1)  # (C=2, N=3, H=7, W=5), not contiguous
    w0, b0 = rng.standard_normal((4, 2 * 3 * 3)), rng.standard_normal((4, 1))
    assert not x0.flags.c_contiguous
    results = []
    for values in (x0, np.ascontiguousarray(x0)):
        x, w, b = (Tensor(v, requires_grad=True) for v in (values, w0, b0))
        out = conv2d(x, w, b, 3, stride=stride, pad=0)
        backward(tsum(mul(out, Tensor(np.arange(out.size, dtype=np.float64).reshape(out.shape)))))
        results.append([a.tobytes() for a in (out.values, np.ascontiguousarray(x.grad), w.grad, b.grad)])
    assert results[0] == results[1]


def test_conv2d_patch_view_is_read_only():
    from tricl.tensor import _patches

    padded = np.arange(2 * 3 * 6 * 6, dtype=np.float64).reshape(2, 3, 6, 6)
    view = _patches(padded, 3, 2, 2, 2)
    assert view.shape == (2, 3, 3, 3, 2, 2) and not view.flags.writeable
    assert view[1, 2, 0, 1, 1, 0] == padded[1, 1, 2 + 2, 0]  # padded[c, n, stride*y + i, stride*x + j]
    with pytest.raises(ValueError, match="read-only"):
        view[0, 0, 0, 0, 0, 0] = 1.0


def test_conv2d_rejects_misfit_shapes():
    x = Tensor(np.zeros((2, 1, 4, 4)))
    with pytest.raises(ShapeError, match="conv2d"):
        conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 18))), Tensor(np.zeros((3, 1))), 3, 1, 1)
    with pytest.raises(ShapeError, match="conv2d"):
        conv2d(x, Tensor(np.zeros((3, 9))), Tensor(np.zeros((3, 1))), 3, 1, 1)
    with pytest.raises(ShapeError, match="conv2d"):
        conv2d(x, Tensor(np.zeros((3, 50))), Tensor(np.zeros((3, 1))), 5, 1, 0)


def preset_conv_calls(monkeypatch, batch: int = 8) -> list[tuple]:
    """(input shape, weight shape, kernel, stride, pad) of every conv the
    preset's spec and audio conv stacks run on a batch."""
    config = experiment_run_config()
    p = config.preprocess
    n = int(round(p.segment_seconds * TARGET_RATE))
    spec = mel_spectrogram(AudioSegment(np.zeros(n)), p.n_mels, p.frame_length_ms, p.frame_shift_ms, p.fft_size)
    audio = ((n - 1) // p.wavelet_hop + 1, p.n_scales)
    calls = []

    def record(x, w, b, kernel, stride, pad):
        calls.append((x.shape, w.shape, kernel, stride, pad))
        return conv2d(x, w, b, kernel, stride, pad)

    monkeypatch.setattr(layers, "conv2d", record)
    rng = np.random.default_rng(0)
    for grid, attention in ((spec.grid.shape, False), (audio, True)):
        stack = layers.ConvStack(rng, config.encoder.conv_channels, "stack", attention=attention)
        with no_grad():
            stack(Tensor(np.zeros((1, batch, *grid))))
    return calls


def test_conv2d_bitwise_equals_im2col_composition(monkeypatch):
    calls = preset_conv_calls(monkeypatch)
    assert len(calls) == 14  # stem plus two blocks of conv1, conv2 and skip, per stack
    rng = np.random.default_rng(5)
    for x_shape, w_shape, kernel, stride, pad in calls:
        x0, w0, b0 = rng.standard_normal(x_shape), rng.standard_normal(w_shape), rng.standard_normal((w_shape[0], 1))
        results = []
        for conv in (conv2d, im2col_conv):
            x, w, b = (Tensor(v, requires_grad=True) for v in (x0, w0, b0))
            out = conv(x, w, b, kernel, stride, pad)
            if not results:
                weights = Tensor(rng.standard_normal(out.shape))
            backward(tsum(mul(out, weights)))
            results.append((out.values, x.grad, w.grad, b.grad))
        for name, got, expect in zip(("out", "dx", "dw", "db"), *results):
            assert np.array_equal(got, expect), f"{name} differs at {x_shape}, kernel {kernel}, stride {stride}"


def test_conv2d_keeps_no_closure_under_no_grad():
    rng = np.random.default_rng(2)
    x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((2, 2, 5, 6), (3, 18), (3, 1)))
    with no_grad():
        out = conv2d(x, w, b, 3, 1, 1)
    assert out._backward is None and out._parents == () and not out.requires_grad


def test_cross_entropy_identity_zero_logits():
    for b in (2, 4, 8):
        out = cross_entropy(Tensor(np.zeros((b, b))), range(b))
        assert abs(float(out.values) - np.log(b)) < 1e-12


def test_cross_entropy_identity_permutation_bitwise():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((6, 6)) * 3
    base = float(cross_entropy(Tensor(logits), range(6)).values)
    for seed in range(10):
        perm = np.random.default_rng(seed).permutation(6)
        permuted = logits[np.ix_(perm, perm)]
        assert float(cross_entropy(Tensor(permuted), range(6)).values) == base


# (N, K) logits whose targets repeat class 1 and never name class 3
CLASS_TARGETS = [1, 0, 1, 2, 1]


def test_cross_entropy_row_permutation_bitwise():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((5, 4)) * 3
    base = cross_entropy(Tensor(logits), CLASS_TARGETS)
    backward_base = Tensor(logits, requires_grad=True)
    backward(cross_entropy(backward_base, CLASS_TARGETS))
    for seed in range(10):
        perm = np.random.default_rng(seed).permutation(5)
        permuted = Tensor(logits[perm], requires_grad=True)
        out = cross_entropy(permuted, np.asarray(CLASS_TARGETS)[perm])
        assert float(out.values) == float(base.values)
        backward(out)
        assert np.array_equal(permuted.grad, backward_base.grad[perm])


def test_cross_entropy_rejects_target_count_mismatch():
    for targets in ([0, 1], [0, 1, 2, 0], [[0, 1, 2]]):
        with pytest.raises(ShapeError, match="cross_entropy"):
            cross_entropy(Tensor(np.zeros((3, 4))), targets)


class TestGradientOracle:
    """Analytic gradients vs central finite differences on random graphs."""

    def test_elementwise_chain(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)

        def build():
            h = exp(mul(x, Tensor(np.full((3, 4), 0.3))))
            h = div(add(h, Tensor(np.ones((3, 4)))), x)
            return tsum(mul(h, h))

        assert check_grad(build, [x], rtol=1e-4) < 1e-4

    def test_matmul_softmax_slice_graph(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((5, 4)), requires_grad=True)

        def build():
            h = softmax_rows(matmul(a, b))
            h = narrow(h, 1, 1, 3)
            return mean(mul(h, h))

        check_grad(build, [a, b], rtol=1e-4)

    def test_normalize_concat_transpose_graph(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)

        def build():
            m = concat([a, b], axis=0)
            m = l2_normalize_rows(m)
            s = matmul(m, transpose(m))
            return cross_entropy(s, [0, 1, 3, 3])

        check_grad(build, [a, b], rtol=1e-4)

    def test_cross_entropy_class_targets(self):
        rng = np.random.default_rng(9)
        logits = Tensor(rng.standard_normal((5, 4)) * 2, requires_grad=True)
        assert check_grad(lambda: cross_entropy(logits, CLASS_TARGETS), [logits], rtol=1e-6) < 1e-6

    @pytest.mark.parametrize("kernel,stride,pad", [(3, 1, 1), (3, 2, 1), (1, 2, 0)])
    def test_conv2d_gradients(self, kernel, stride, pad):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 2, 5, 6)), requires_grad=True)  # (C, N, H, W)
        w = Tensor(rng.standard_normal((3, 2 * kernel * kernel)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
        weights = Tensor(rng.standard_normal(conv2d(x, w, b, kernel, stride, pad).shape))

        def build():
            return tsum(mul(conv2d(x, w, b, kernel, stride, pad), weights))

        check_grad(build, [x, w, b], rtol=1e-4)

    def test_randomized_small_graphs(self):
        # randomized compositions under 200 scalars, as the module contract asks
        for seed in range(6):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.uniform(0.2, 1.5, size=(4, 6)), requires_grad=True)
            w = Tensor(rng.standard_normal((6, 3)), requires_grad=True)

            def build():
                h = matmul(relu(x), w)
                h = softmax_rows(h)
                h = concat([h, mul(h, h)], axis=1)
                return mean(mul(h, Tensor(rng.standard_normal(h.shape))))

            # freeze the random weighting so FD and analytic see the same function
            weight = Tensor(np.random.default_rng(seed + 100).standard_normal((4, 6)))

            def build():  # noqa: F811
                h = matmul(relu(x), w)
                h = softmax_rows(h)
                return mean(mul(matmul(h, transpose(w)), weight))

            check_grad(build, [x, w], rtol=1e-4)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_determinism_bit_identical(n, seed):
    def run():
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((n, n)), requires_grad=True)
        loss = tsum(mul(softmax_rows(x), x))
        backward(loss)
        return loss.values.copy(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)
