"""Folded wavelet transform against a direct per-scale reference: hops from
1 to 1600, batches against single-segment calls, kernel gradients by finite
differences, the frontend on the worker against the caller's thread (bitwise),
the memo of tape-free builds, and the memory and accuracy of the
paper-default kernels and of one 30-s encode."""

import dataclasses
import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from helpers import check_grad, fbsp_kernel, psi_taps_reference, tiny_run_config
from tricl import encoders, wavelet
from tricl.cli import main
from tricl.config import EncoderConfig, PreprocessConfig
from tricl.data import Dataset, TrainSample
from tricl.dsp import TARGET_RATE, AudioSegment
from tricl.encoders import AudioEncoder
from tricl.errors import ConfigError, KernelSupportError, ShapeError
from tricl.presets import experiment_run_config
from tricl.store import trainable
from tricl.templates import AnnotationRecord
from tricl.tensor import Tensor, backward, beside, mean, mul, no_grad, reshape, transpose, tsum
from tricl.tuning import encoder_tune
from tricl.wavelet import (
    BAND_FLOOR,
    M_FLOOR,
    MAX_KERNEL_TAPS,
    WaveletParams,
    build_kernels,
    default_scale_grid,
    support_half_width,
    transform_with_kernels,
)


def conj_kernel(params, scale, truncation, fs=16000):
    """Tapered, scaled conjugate kernel over offsets -h..h, straight from fbsp_kernel."""
    h = support_half_width(params, scale, truncation)
    j = np.arange(-h, h + 1)
    taper = np.minimum(1.0, (h + 1 - np.abs(j)) / (max(1, h // 16) + 1))
    return np.conj(fbsp_kernel(j / (fs * scale), params)) * taper / (fs * np.sqrt(scale)), h


def direct_transform(samples, params, scales, hop, truncation, fs=16000):
    """Per scale: the strided patch matrix times the conjugate kernel."""
    cols = []
    for a in scales:
        kernel, h = conj_kernel(params, a, truncation, fs)
        patches = np.lib.stride_tricks.sliding_window_view(np.pad(samples, h), 2 * h + 1)[::hop]
        cols.append(np.abs(patches @ kernel))
    return np.stack(cols, axis=1)


# (hop, samples, fmin, fmax, scales, truncation); kernel widths in taps are noted
CASES = [
    (1, 300, 2000.0, 4000.0, 3, 1e-2),  # 59-117, all wider than the hop
    (7, 1000, 1000.0, 4000.0, 4, 1e-3),  # 147-579; 1000 is not a multiple of 7
    (100, 2050, 400.0, 4000.0, 5, 5e-2),  # 33-303: narrower and wider than the hop
    (1600, 3000, 200.0, 4000.0, 6, 1e-4),  # 365-7243: narrower and wider
    (1600, 1000, 200.0, 4000.0, 6, 1e-4),  # segment shorter than the hop
    (1600, 6400, 2000.0, 7800.0, 4, 1e-4),  # 187-727: all narrower than the hop
]


@pytest.mark.parametrize("hop, n, fmin, fmax, n_scales, truncation", CASES)
def test_fold_matches_direct_reference(hop, n, fmin, fmax, n_scales, truncation):
    rng = np.random.default_rng(hop + n)
    samples = rng.standard_normal(n)
    params = WaveletParams.create(2.5, 0.7, 1.2)
    scales = default_scale_grid(n_scales, fmin, fmax)
    kernels = build_kernels(params, scales, hop, truncation=truncation)
    grid = transform_with_kernels(samples[None], kernels, hop).values[0]
    ref = direct_transform(samples, params, scales, hop, truncation)
    assert grid.shape == ref.shape == ((n - 1) // hop + 1, n_scales)
    assert np.abs(grid - ref).max() <= 1e-12 * np.abs(ref).max()


PRESET = experiment_run_config().preprocess
PRESET_GRID = default_scale_grid(PRESET.n_scales, PRESET.fmin_hz, PRESET.fmax_hz)
PAPER = PreprocessConfig()
PAPER_GRID = default_scale_grid(PAPER.n_scales, PAPER.fmin_hz, PAPER.fmax_hz)
# (m, f_b, f_c), scales, truncation, taps over all scales
TAP_CASES = [
    *(((2.5, 0.7, 1.2), default_scale_grid(n_scales, fmin, fmax), truncation, None)
      for _, _, fmin, fmax, n_scales, truncation in CASES),
    ((2.0, 0.5, 1.0), PAPER_GRID, PAPER.wavelet_truncation, 1_124_727),
    ((M_FLOOR, 0.5, 1.0), PRESET_GRID, PRESET.wavelet_truncation, 1_894_586),
    ((2.0, 0.5, 3.0), PRESET_GRID, PRESET.wavelet_truncation, 41_103),
    ((2.7, 0.8, 3.4), PRESET_GRID, PRESET.wavelet_truncation, 10_515),
    ((2.0, 0.141, 1.0), PAPER_GRID, PAPER.wavelet_truncation, 3_988_309),
]
TAP_IDS = [*(f"case-hop{case[0]}-{case[1]}" for case in CASES), "paper-default", "m-floor", "f_c-3", "f_c-3.4",
           "paper-near-max-taps"]


@pytest.mark.parametrize("m_fb_fc, scales, truncation, taps", TAP_CASES, ids=TAP_IDS)
def test_taps_match_the_per_tap_libm_reference(m_fb_fc, scales, truncation, taps):
    """The tap grid's angle-added sines and cosines against one libm call per
    tap: re and im within 1e-14 of the kernel peak, d log env / d m and / d f_b
    within 1e-14 of their largest value, x bitwise. One scale per call keeps
    the 4 M-tap case small."""
    params = WaveletParams.create(*m_fb_fc)
    halves = [support_half_width(params, a, truncation) for a in scales]
    assert taps is None or sum(halves) == taps <= MAX_KERNEL_TAPS
    worst = np.zeros(5)
    largest = np.zeros(5)
    for h, a in zip(halves, scales):
        factor = 1.0 / (TARGET_RATE * np.sqrt(a))
        new = wavelet._psi_taps(params, [wavelet.ScaleKernel(h, factor, 0, 0, 0, 0, 0)], [a], True)
        assert len(new[0]) == -(-h // wavelet._TAP_ROW) * wavelet._TAP_ROW
        assert not new[0][h:].any() and not new[1][h:].any()  # the row's rest
        ref = psi_taps_reference(params, [h], [a], True)
        np.testing.assert_array_equal(new[2][:h], ref[2])
        for i, (got, want) in enumerate(zip(new, ref)):
            scale = factor if i < 2 else 1.0
            worst[i] = max(worst[i], np.abs(got[:h] - want * scale).max() / scale)
            largest[i] = max(largest[i], np.abs(want).max())
    peak = np.sqrt(float(params.f_b.values))
    assert worst[0] <= 1e-14 * peak and worst[1] <= 1e-14 * peak
    assert worst[3] <= 1e-14 * largest[3] and worst[4] <= 1e-14 * largest[4]


@pytest.mark.parametrize("block_elems", [wavelet._BLOCK_ELEMS, 3000], ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize("hop, n, fmin, fmax, n_scales, truncation", CASES)
def test_batch_rows_match_single_segment_calls(monkeypatch, block_elems, hop, n, fmin, fmax, n_scales, truncation):
    monkeypatch.setattr(wavelet, "_BLOCK_ELEMS", block_elems)
    segments = np.random.default_rng(hop + n + 1).standard_normal((3, n))
    kernels = build_kernels(WaveletParams.create(2.5, 0.7, 1.2), default_scale_grid(n_scales, fmin, fmax), hop,
                            truncation=truncation)
    grid = transform_with_kernels(segments, kernels, hop).values
    assert grid.shape == (3, (n - 1) // hop + 1, n_scales)
    for row, segment in zip(grid, segments):
        np.testing.assert_allclose(row, transform_with_kernels(segment[None], kernels, hop).values[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("block_elems", [wavelet._BLOCK_ELEMS, 3000], ids=["default-blocks", "small-blocks"])
def test_batch_kernel_gradient_is_the_sum_over_segments(monkeypatch, block_elems):
    monkeypatch.setattr(wavelet, "_BLOCK_ELEMS", block_elems)
    hop, n = 100, 2050
    rng = np.random.default_rng(6)
    segments = rng.standard_normal((3, n))
    weights = rng.standard_normal((3, (n - 1) // hop + 1, 5))
    kernels = build_kernels(WaveletParams.create(2.5, 0.7, 1.2), default_scale_grid(5, 400.0, 4000.0), hop,
                            truncation=5e-2)

    def folded_grad(batch, w):
        leaf = Tensor(kernels.folded.values, requires_grad=True)
        backward(tsum(mul(transform_with_kernels(batch, dataclasses.replace(kernels, folded=leaf), hop), Tensor(w))))
        return leaf.grad

    batched = folded_grad(segments, weights)
    summed = sum(folded_grad(segment[None], w[None]) for segment, w in zip(segments, weights))
    assert np.abs(batched - summed).max() <= 1e-12 * np.abs(summed).max()


@pytest.mark.parametrize("hop, n, fmin, fmax, n_scales, truncation", CASES)
def test_blocks_bound_the_batch_product(monkeypatch, hop, n, fmin, fmax, n_scales, truncation):
    kernels = build_kernels(WaveletParams.create(2.5, 0.7, 1.2), default_scale_grid(n_scales, fmin, fmax), hop,
                            truncation=truncation)
    frames = (n - 1) // hop + 1
    for block_elems in (wavelet._BLOCK_ELEMS, 20_000, 3000):
        monkeypatch.setattr(wavelet, "_BLOCK_ELEMS", block_elems)
        for batch in (1, 3, 8):
            columns, rows = [], []
            for lo, hi, k0, k1, group in wavelet._blocks(kernels, frames, batch):
                assert len(group) == 1 or batch * (hi - lo) * (k1 - k0) <= block_elems
                columns += [j for j, _ in group]
                rows += range(k0, k1)
            assert columns == list(range(n_scales))
            assert rows == list(range(len(kernels.folded.values)))  # the backward fills an uninitialised gradient


def frontend(hop, n, fmin, fmax, n_scales, truncation):
    """Every output of the frontend on a batch of 3, as bytes."""
    rng = np.random.default_rng(hop + n + 2)
    segments = rng.standard_normal((3, n))
    weights = Tensor(rng.standard_normal((3, (n - 1) // hop + 1, n_scales)))
    params = WaveletParams.create(2.5, 0.7, 1.2)
    kernels = build_kernels(params, default_scale_grid(n_scales, fmin, fmax), hop, truncation=truncation)
    grid = transform_with_kernels(segments, kernels, hop)
    backward(tsum(mul(grid, weights)))
    leaf = Tensor(kernels.folded.values, requires_grad=True)  # the transform backward's gradient alone
    backward(tsum(mul(transform_with_kernels(segments, dataclasses.replace(kernels, folded=leaf), hop), weights)))
    with no_grad():
        untaped = build_kernels(params, default_scale_grid(n_scales, fmin, fmax), hop, truncation=truncation)
    outputs = {
        "folded": kernels.folded.values,
        "no_grad folded": untaped.folded.values,
        "grid": grid.values,
        "m grad": params.m.grad,
        "f_b grad": params.f_b.grad,
        "f_c grad": params.f_c.grad,
        "folded grad": leaf.grad,
    }
    return {name: np.ascontiguousarray(a).tobytes() for name, a in outputs.items()}


@pytest.mark.parametrize("block_elems", [wavelet._BLOCK_ELEMS, 3000], ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize("hop, n, fmin, fmax, n_scales, truncation", CASES)
def test_frontend_bits_do_not_depend_on_the_thread(monkeypatch, block_elems, hop, n, fmin, fmax, n_scales, truncation):
    """The contrastive step runs the frontend on the worker, the other callers
    on their own thread: both give the same bits."""
    monkeypatch.setattr(wavelet, "_BLOCK_ELEMS", block_elems)
    case = (hop, n, fmin, fmax, n_scales, truncation)
    here = frontend(*case)
    there, _ = beside(lambda: frontend(*case), lambda: None)
    for name in here:
        assert there[name] == here[name], name


def test_overrunning_diagonal_view_raises():
    product = np.zeros((2, 5, 6))
    assert wavelet._diagonals(product, 1, 2, 3, 2).shape == (2, 2, 3)  # reaches product[1, 4, 4]
    with pytest.raises(ValueError):
        wavelet._diagonals(product, 1, 2, 3, 3)  # frame 2 would read past the buffer's end
    with pytest.raises(ValueError):
        wavelet._diagonals(product, 2, 3, 4, 1)


@pytest.mark.parametrize("m, f_b, f_c", [(2.0, 0.5, 1.0), (2.7, 0.8, 1.3)])
@pytest.mark.parametrize(
    "scales, truncation, hop",
    [
        (default_scale_grid(PRESET.n_scales, PRESET.fmin_hz, PRESET.fmax_hz), PRESET.wavelet_truncation,
         PRESET.wavelet_hop),
        (default_scale_grid(3, 600.0, 3000.0), 5e-2, 400),  # the kernels of the hop-400 check below
    ],
    ids=["preset-grid", "narrow-kernels"],
)
def test_half_kernel_gradients_match_finite_differences(m, f_b, f_c, scales, truncation, hop):
    """The kernel build's closed-form m, f_b and f_c gradients of the folded
    rows, with the layout (and so the tap counts) held where the starting
    parameters put it."""
    params = WaveletParams.create(m, f_b, f_c)
    kernels = build_kernels(params, scales, hop, truncation=truncation)
    shape = kernels.folded.shape
    weights = Tensor(np.random.default_rng(sum(k.half_width for k in kernels)).standard_normal(shape))

    def build():
        return tsum(mul(wavelet._folded_kernels(params, kernels.scales, scales, shape), weights))

    assert check_grad(build, list(trainable(params).values()), h=1e-5, rtol=1e-6) <= 1e-6


def test_gradients_match_finite_differences_hop_wider_than_kernels():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal(1300) * 0.5
    scales = default_scale_grid(3, 600.0, 3000.0)
    hop = 400
    params = WaveletParams.create()
    kernels = build_kernels(params, scales, hop, truncation=5e-2)
    assert max(2 * k.half_width + 1 for k in kernels) < hop
    weights = Tensor(rng.standard_normal((4, 3)))

    def build():
        return tsum(mul(transform_with_kernels(samples[None], build_kernels(params, scales, hop, truncation=5e-2), hop), weights))

    worst = check_grad(build, list(trainable(params).values()), h=1e-4, rtol=1e-3)
    assert worst <= 1e-3


def test_hop_mismatch_rejected():
    kernels = build_kernels(WaveletParams.create(), default_scale_grid(3, 600.0, 3000.0), 100)
    with pytest.raises(ConfigError, match="hop"):
        transform_with_kernels(np.ones(500)[None], kernels, 50)


def test_unbatched_or_ragged_samples_rejected():
    kernels = build_kernels(WaveletParams.create(), default_scale_grid(3, 600.0, 3000.0), 100)
    with pytest.raises(ShapeError, match="one dimension"):
        transform_with_kernels(np.ones(500), kernels, 100)
    with pytest.raises(ShapeError, match="equal lengths"):
        transform_with_kernels([np.ones(500), np.ones(400)], kernels, 100)


def test_no_grad_build_keeps_no_half_kernels():
    params = WaveletParams.create()
    scales = default_scale_grid(4, 500.0, 4000.0)
    samples = np.random.default_rng(5).standard_normal(900)
    with no_grad():
        kernels = build_kernels(params, scales, 160)
        fast = transform_with_kernels(samples[None], kernels, 160).values
    assert not kernels.folded.requires_grad
    taped = build_kernels(params, scales, 160)
    assert taped.folded.requires_grad  # the transform's backward reaches m, f_b and f_c through it
    np.testing.assert_array_equal(taped.folded.values, kernels.folded.values)
    np.testing.assert_array_equal(transform_with_kernels(samples[None], taped, 160).values, fast)


@pytest.fixture
def cold_memo(monkeypatch):
    """No tape-free build memoised when the test starts."""
    monkeypatch.setattr(wavelet, "_memo", ())


@pytest.fixture
def fold_calls(monkeypatch):
    """The number of calls to ``_folded_kernels``: builds that missed the memo."""
    calls = []
    fold = wavelet._folded_kernels
    monkeypatch.setattr(wavelet, "_folded_kernels", lambda *args: calls.append(1) or fold(*args))
    return calls


def without_memo(monkeypatch):
    """Every encoder build starts from an empty memo, so none is reused."""
    build = wavelet.build_kernels

    def fresh(*args, **kwargs):
        monkeypatch.setattr(wavelet, "_memo", ())
        return build(*args, **kwargs)

    monkeypatch.setattr(encoders, "build_kernels", fresh)


PRESET_CASE = (PRESET.wavelet_hop, 0, PRESET.fmin_hz, PRESET.fmax_hz, PRESET.n_scales, PRESET.wavelet_truncation)


@pytest.mark.parametrize("hop, n, fmin, fmax, n_scales, truncation", [*CASES, PRESET_CASE])
def test_memo_hit_equals_a_fresh_build_bitwise(cold_memo, fold_calls, monkeypatch, hop, n, fmin, fmax, n_scales,
                                               truncation):
    params = WaveletParams.create(2.5, 0.7, 1.2)
    with no_grad():
        first = build_kernels(params, default_scale_grid(n_scales, fmin, fmax), hop, truncation=truncation)
        hit = build_kernels(WaveletParams.create(2.5, 0.7, 1.2), default_scale_grid(n_scales, fmin, fmax), hop,
                            truncation=truncation)
    assert hit is first and len(fold_calls) == 1
    monkeypatch.setattr(wavelet, "_memo", ())
    with no_grad():
        fresh = build_kernels(params, default_scale_grid(n_scales, fmin, fmax), hop, truncation=truncation)
    taped = build_kernels(params, default_scale_grid(n_scales, fmin, fmax), hop, truncation=truncation)
    assert fresh is not hit and len(fold_calls) == 3
    assert hit.folded.values.tobytes() == fresh.folded.values.tobytes() == taped.folded.values.tobytes()
    assert (hit.scales, hit.hop, hit.max_half) == (fresh.scales, fresh.hop, fresh.max_half)


MEMO_KEY = dict(m=2.5, f_b=0.7, f_c=1.2, grid=(5, 400.0, 4000.0), hop=100, truncation=5e-2)


@pytest.mark.parametrize(
    "before, after",
    [({}, dict(m=2.5000000000000004)), ({}, dict(f_b=0.7000000000000001)), ({}, dict(f_c=1.2000000000000002)),
     ({}, dict(grid=(5, 400.0, 4000.000000000001))), ({}, dict(grid=(6, 400.0, 4000.0))), ({}, dict(hop=101)),
     ({}, dict(truncation=5.000000000000001e-2)), (dict(f_c=0.0), dict(f_c=-0.0)), (dict(f_c=-0.0), dict(f_c=0.0))],
    ids=["m", "f_b", "f_c", "grid-values", "grid-size", "hop", "truncation", "zero-to-minus-zero", "minus-zero-to-zero"],
)
def test_memo_misses_when_any_key_component_changes(cold_memo, fold_calls, before, after):
    def build(changes):
        m, f_b, f_c, grid, hop, truncation = {**MEMO_KEY, **changes}.values()
        with no_grad():
            return build_kernels(WaveletParams.create(m, f_b, f_c), default_scale_grid(*grid), hop, truncation=truncation)

    first = build(before)
    changed = build(after)
    assert changed is not first and len(fold_calls) == 2
    assert build(after) is changed and len(fold_calls) == 2
    assert build(before) is not first and len(fold_calls) == 3  # the memo holds the last build only


def test_memoised_rows_are_read_only(cold_memo):
    with no_grad():
        kernels = build_kernels(WaveletParams.create(), default_scale_grid(3, 600.0, 3000.0), 100)
    assert wavelet._memo[1] is kernels
    with pytest.raises(ValueError):
        kernels.folded.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        kernels.folded.values *= 2.0


def test_taped_build_bypasses_and_empties_the_memo(cold_memo, fold_calls):
    params, scales = WaveletParams.create(), default_scale_grid(3, 600.0, 3000.0)
    with no_grad():
        untaped = build_kernels(params, scales, 100)
    taped = build_kernels(params, scales, 100)
    assert taped is not untaped and taped.folded.requires_grad and len(fold_calls) == 2
    assert wavelet._memo == ()
    assert taped.folded.values.flags.writeable
    with no_grad():
        assert build_kernels(params, scales, 100) is not untaped
    assert len(fold_calls) == 3


def test_encode_builds_taped_per_call_and_tape_free_once(cold_memo, fold_calls, monkeypatch):
    """`encode` builds its own kernels: on the tape each call, which leaves
    the memo empty, and under no_grad the memoised build. Either way its rows
    are bitwise those of the kernels built by the caller and handed to the
    transform, the encode path before it built them itself."""
    config = tiny_run_config()
    pre = config.preprocess
    encoder = AudioEncoder(config.encoder, pre, np.random.default_rng(0))
    segments = [AudioSegment(s) for s in np.random.default_rng(1).standard_normal((3, 800))]

    def caller_built():
        kernels = build_kernels(encoder.wavelet, encoder.scale_grid, pre.wavelet_hop, truncation=pre.wavelet_truncation)
        grid = transform_with_kernels([s.samples for s in segments], kernels, pre.wavelet_hop)
        h = encoder.conv(reshape(grid, (1, *grid.shape)))
        return encoder.proj(transpose(mean(h, axis=(2, 3)))).values.tobytes()

    taped_reference = caller_built()
    with no_grad():
        untaped_reference = caller_built()
    monkeypatch.setattr(wavelet, "_memo", ())
    fold_calls.clear()

    taped = [encoder.encode(segments) for _ in range(2)]
    assert len(fold_calls) == 2 and wavelet._memo == ()
    assert all(e.requires_grad and e.values.tobytes() == taped_reference for e in taped)
    with no_grad():
        untaped = [encoder.encode(segments) for _ in range(2)]
    assert len(fold_calls) == 3
    assert all(not e.requires_grad and e.values.tobytes() == untaped_reference for e in untaped)


def test_memo_pairs_each_key_with_its_own_build_across_threads(cold_memo):
    """Four threads, more than the cores, each alternating two wavelets under
    no_grad with a short switch interval: a build returned for the wrong key
    would differ from that wavelet's reference rows."""
    scales = default_scale_grid(4, 500.0, 4000.0)
    wavelets = [(2.0 + 0.1 * i, 0.5, 1.0 + 0.05 * i) for i in range(8)]
    with no_grad():
        reference = {w: build_kernels(WaveletParams.create(*w), scales, 160).folded.values.tobytes() for w in wavelets}

    def hammer(mine):
        with no_grad():
            for _ in range(40):
                for w in mine:
                    if build_kernels(WaveletParams.create(*w), scales, 160).folded.values.tobytes() != reference[w]:
                        return w
        return None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(hammer, wavelets[2 * i : 2 * i + 2]) for i in range(4)]
            mismatched = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert mismatched == [None] * 4


SPEC = {
    "seed": 0, "samples_per_class": 4, "duration_seconds": 0.2,
    "classes": [{"name": "Alpha", "f0_hz": 400.0, "harmonics": [1.0, 0.4]},
                {"name": "Bravo", "f0_hz": 1100.0, "harmonics": [1.0, 0.4]}],
}


def test_eval_over_four_folds_builds_kernels_once(cold_memo, fold_calls, monkeypatch, tmp_path, capsys):
    """The checkpoint's sources are `Alpha-0`...; synth names its own `Alpha_000`..., so no fold leaks."""
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == 0
    argv = ["eval", "--ckpt", str(Path(__file__).parent / "data" / "trimodal_v2.ckpt"),
            "--manifest", str(tmp_path / "data" / "manifest.jsonl"), "--folds", "4"]
    capsys.readouterr()
    assert main(argv) == 0
    report = capsys.readouterr().out
    assert len(fold_calls) == 1
    without_memo(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out == report
    assert len(fold_calls) == 1 + 8  # one build per encoded chunk: two chunks of each fold's 8 segments


def tiny_dataset():
    t = np.arange(800) / TARGET_RATE
    samples = [
        TrainSample(AudioSegment(0.4 * np.sin(2 * np.pi * f * t) + 0.02 * np.random.default_rng(i).standard_normal(800)),
                    f"The sound belongs to {label}.", f"{label}-{i}", AnnotationRecord(label))
        for i, (label, f) in enumerate([("Alpha", 400.0), ("Bravo", 1200.0)] * 4)
    ]
    return Dataset(samples, tiny_run_config().preprocess)


def test_frozen_encoder_tune_builds_kernels_once(cold_memo, fold_calls, monkeypatch):
    dataset, config = tiny_dataset(), tiny_run_config(epochs=2, lr=1e-3)
    model, trace = encoder_tune(None, dataset, config, freeze_encoder=True)
    assert len(fold_calls) == 1 and len(trace) == 2
    without_memo(monkeypatch)
    again, again_trace = encoder_tune(None, dataset, config, freeze_encoder=True)
    assert len(fold_calls) == 1 + 2 * 2  # 8 samples in batches of 4, 2 epochs
    assert np.array(trace).tobytes() == np.array(again_trace).tobytes()
    assert model.store.buffer.tobytes() == again.store.buffer.tobytes()


def test_paper_default_kernel_memory(cold_memo, monkeypatch):
    """The no_grad build keeps nothing for a backward and reuses its arrays;
    the memo keeps its folded rows alone. A recording build keeps the folded
    rows and five per-tap arrays for its backward."""
    pre = PreprocessConfig()
    params = WaveletParams.create()
    scales = default_scale_grid(pre.n_scales, pre.fmin_hz, pre.fmax_hz)
    tracemalloc.start()
    try:
        with no_grad():
            untaped = build_kernels(params, scales, pre.wavelet_hop, truncation=pre.wavelet_truncation)
        no_grad_peak = tracemalloc.get_traced_memory()[1]
        assert wavelet._memo[1] is untaped and untaped.folded.values.nbytes == 5754 * 800 * 8  # 36.8 MB
        del untaped
        monkeypatch.setattr(wavelet, "_memo", ())  # the recording build below would drop it anyway
        before = tracemalloc.get_traced_memory()[0]
        kernels = build_kernels(params, scales, pre.wavelet_hop, truncation=pre.wavelet_truncation)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kernels.folded.requires_grad
    assert no_grad_peak <= 60 * 2**20
    assert kept <= 120 * 2**20


def test_paper_default_encode_memory_and_frames(cold_memo):
    pre = PreprocessConfig()  # 64 scales over 20-7800 Hz, hop 800, 30-s segments
    encoder = AudioEncoder(EncoderConfig(), pre, np.random.default_rng(0))
    samples = np.random.default_rng(1).standard_normal(int(pre.segment_seconds * TARGET_RATE))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with no_grad():
            encoder.encode([AudioSegment(samples)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * 2**20

    kernels = wavelet._memo[1]  # the build that encode made
    with no_grad():
        grid = transform_with_kernels(samples[None], kernels, pre.wavelet_hop).values[0]
    hop = pre.wavelet_hop
    for f in (0, 317, grid.shape[0] - 1):
        direct = []
        for a in encoder.scale_grid:
            kernel, h = conj_kernel(encoder.wavelet, a, pre.wavelet_truncation)
            window = np.pad(samples, h)[f * hop : f * hop + 2 * h + 1]
            direct.append(abs(window @ kernel))
        assert np.abs(grid[f] - direct).max() <= 1e-12 * max(direct)


def test_band_floor_kernels_refused_before_allocation():
    """f_b clamped to its floor asks for 38 M taps on the tiny grid (gigabytes
    of kernels); the build names the parameters and allocates nothing."""
    config = tiny_run_config()
    encoder = AudioEncoder(config.encoder, config.preprocess, np.random.default_rng(0))
    encoder.wavelet.f_b.values[...] = 0.0
    encoder.wavelet.clamp()
    assert float(encoder.wavelet.f_b.values) == BAND_FLOOR
    segment = AudioSegment(np.zeros(800))
    tracemalloc.start()
    try:
        with pytest.raises(KernelSupportError, match=r"m=2, f_b=0\.0001 needs 38197189 kernel taps over 4 scales"):
            encoder.encode([segment])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
