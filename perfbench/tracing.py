"""Op clock and span tracer for the tricl benchmark.

Everything here wraps the package's public functions and classes from the
outside; nothing under ``src/`` is edited. A wrapper replaces the name that
each *caller* binds: ``tricl.trainer`` does ``from .tensor import backward``,
so the wrapper goes on ``tricl.trainer.backward`` (and ``tricl.tuning.backward``),
not on ``tricl.tensor.backward``. Methods are wrapped on their class.

Two layers of instrumentation:

* ``OpClock`` hooks are always installed. They time the workload's closed-loop
  operation (one training step, or one ``tricl infer`` request), count skipped
  batches and per-epoch losses, and run the machine-speed probe between
  operations. The hooks cost a few microseconds per step.
* ``Tracer`` spans are installed only for ``--trace 1``. Each span records its
  name, start, end, parent span and the operation it belongs to; spans are
  kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

_now = time.perf_counter_ns

# A shared machine changes speed within seconds: on a 2-core VM the same work
# took 17 ms in one five-second window and 28 ms in another. The runner
# therefore interleaves a fixed probe with the ops and scales op times to the
# speed at which the probe takes REF_PROBE_MS. The probe is plain numpy and
# Python and never runs tricl, so it cannot absorb a change to the program.
REF_PROBE_MS = 6.0
PROBE_EVERY_NS = 500_000_000
_PROBE_RNG = np.random.default_rng(0)
_PROBE_A = _PROBE_RNG.standard_normal((200, 4000))
_PROBE_X = _PROBE_RNG.standard_normal((4000, 1))
_PROBE_B = _PROBE_RNG.standard_normal((64, 64))


def _probe_block() -> float:
    """About 1.2 ms of the kinds of work the workloads do: a tall matvec (the
    wavelet patch product), small matmuls with elementwise ops (the conv and
    transformer layers) and interpreted Python (the tape)."""
    total = 0.0
    y = _PROBE_A @ _PROBE_X
    for _ in range(40):
        c = np.maximum(_PROBE_B @ _PROBE_B, 0.0) * 0.5 + 1.0
        total += float(c[0, 0])
    for i in range(4000):
        total += i * 1e-9
    return total + float(y[0, 0])


def speed_probe() -> float:
    """Milliseconds of five probe blocks, from the median block."""
    times = []
    for _ in range(5):
        start = _now()
        _probe_block()
        times.append(_now() - start)
    times.sort()
    return 5 * times[2] / 1e6


class Patches:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass
class OpRecord:
    latency_ns: int
    end_ns: int
    samples: int
    audio_s: float


@dataclass
class OpClock:
    """Latency of each closed-loop operation plus the work it carried.

    Training steps are bracketed by the first wavelet-kernel build of the
    batch (the first thing both ``trainer.batch_loss`` and
    ``tuning.train_classifier`` do per batch) and the end of ``AdamW.step``.
    """

    segment_seconds: float = 0.0
    ops: list[OpRecord] = field(default_factory=list)
    skipped: int = 0
    epoch_losses: list[float] = field(default_factory=list)
    op_index: int | None = None  # index of the operation in progress
    training: bool = False
    harness_ns: int = 0  # benchmark-side work after the first op, kept out of throughput
    probes: list[tuple[int, float]] = field(default_factory=list)  # (midpoint ns, probe ms)
    probe_ops: bool = True  # probe between ops; off in traced runs, where it would land inside spans
    tracer: "Tracer | None" = None
    _start: int | None = None
    _samples: int = 0

    def begin(self) -> None:
        if self._start is None:
            self._start = _now()
            self.op_index = len(self.ops)

    def end(self, samples: int | None = None, audio_s: float | None = None) -> None:
        now = _now()
        samples = self._samples if samples is None else samples
        if audio_s is None:
            audio_s = samples * self.segment_seconds
        self.ops.append(OpRecord(now - self._start, now, samples, audio_s))
        self._start = None
        self._samples = 0
        self.op_index = None
        if self.probe_ops and now - self.probes[-1][0] >= PROBE_EVERY_NS:
            self.probe()

    def probe(self) -> None:
        with self.harness():
            start = _now()
            ms = speed_probe()
            self.probes.append(((start + _now()) // 2, ms))

    def speed_at(self, start_ns: int, end_ns: int) -> float:
        """Probe milliseconds around an interval: the mean of the last probe
        before it and the first after it."""
        before = [ms for t, ms in self.probes if t <= start_ns]
        after = [ms for t, ms in self.probes if t >= end_ns]
        near = before[-1:] + after[:1]
        return sum(near) / len(near)

    def normalized_ms(self, op: OpRecord) -> float:
        """Op latency scaled to the reference machine speed."""
        return op.latency_ns / 1e6 * REF_PROBE_MS / self.speed_at(op.end_ns - op.latency_ns, op.end_ns)

    @contextmanager
    def harness(self):
        start = _now()
        try:
            yield
        finally:
            if self.ops and start >= self.ops[0].end_ns:
                self.harness_ns += _now() - start

    @contextmanager
    def paused(self):
        """Keep the benchmark's own checks out of the trace."""
        if self.tracer is None:
            yield
            return
        was, self.tracer.paused = self.tracer.paused, True
        try:
            yield
        finally:
            self.tracer.paused = was

    def install(self, patches: Patches, tricl) -> None:
        clock = self

        def kernels(original):
            def wrapper(*args, **kwargs):
                if clock.training:
                    clock.begin()
                return original(*args, **kwargs)

            return wrapper

        def batch_loss(original):
            def wrapper(dataset, indices, model):
                clock._samples = len(indices)
                return original(dataset, indices, model)

            return wrapper

        def classifier_loss(original):
            def wrapper(model, batch, kernels):
                clock._samples = len(batch)
                loss = original(model, batch, kernels)
                if loss is None:
                    clock.skipped += 1
                return loss

            return wrapper

        def step(original):
            def wrapper(self, *args, **kwargs):
                out = original(self, *args, **kwargs)
                if clock._start is not None:
                    clock.end()
                return out

            return wrapper

        def train_epoch(original):
            def wrapper(*args, **kwargs):
                metrics = original(*args, **kwargs)
                clock.skipped += metrics.skipped_batches
                clock.epoch_losses.append(metrics.mean_loss)
                return metrics

            return wrapper

        def training(original):
            def wrapper(*args, **kwargs):
                clock.training = True
                try:
                    return original(*args, **kwargs)
                finally:
                    clock.training = False

            return wrapper

        patches.wrap(tricl.encoders, "build_kernels", kernels)
        patches.wrap(tricl.trainer, "batch_loss", batch_loss)
        patches.wrap(tricl.tuning, "_classifier_batch_loss", classifier_loss)
        patches.wrap(tricl.optim.AdamW, "step", step)
        patches.wrap(tricl.trainer, "train_epoch", train_epoch)
        patches.wrap(tricl.trainer, "continue_training", training)
        patches.wrap(tricl.tuning, "train_classifier", training)


# (owner, attribute, span name). Each row is one binding a caller uses.
def span_targets(tricl):
    t = tricl
    return [
        (t.trainer, "backward", "tensor.backward"),
        (t.tuning, "backward", "tensor.backward"),
        (t.optim.AdamW, "step", "optim.step"),
        (t.encoders, "build_kernels", "wavelet.build_kernels"),
        (t.encoders, "transform_with_kernels", "wavelet.transform"),
        (t.encoders.AudioEncoder, "encode", "encoders.audio"),
        (t.encoders.SpecEncoder, "encode", "encoders.spec"),
        (t.encoders.TextEncoder, "encode", "encoders.text"),
        (t.layers.ConvStack, "__call__", "layers.conv_stack"),
        (t.layers.TransformerBlock, "__call__", "layers.transformer"),
        (t.layers.AttentionPool, "__call__", "layers.attention_pool"),
        (t.trainer, "batch_loss", "trainer.batch_loss"),
        (t.trainer, "compute_logits", "trainer.loss"),
        (t.trainer, "contrastive_loss", "trainer.loss"),
        (t.trainer, "anomaly_filter", "trainer.anomaly_filter"),
        (t.tuning.ClassifierModel, "head_logits", "tuning.head_logits"),
        (t.cli, "prompt_infer", "inference.prompt_infer"),
        (t.experiments, "evaluate", "inference.evaluate"),
        (t.inference, "evaluate", "inference.evaluate"),
        (t.cli, "load_checkpoint", "checkpoint.load"),
        (t.checkpoint, "load_checkpoint", "checkpoint.load"),
        (t.checkpoint, "save_checkpoint", "checkpoint.save"),
        (t.cli, "main", "cli.main"),
        (t.experiments, "ingest", "data.ingest"),
        (t.data, "ingest", "data.ingest"),
        (t.data.Dataset, "spectrogram", "data.spectrogram"),
        (t.data, "read_wav", "dsp.read_wav"),
        (t.cli, "read_wav", "dsp.read_wav"),
        (t.data, "mel_spectrogram", "dsp.mel"),
        (t.synth, "synth_generate", "synth.generate"),
        (t.trainer, "train_bpe", "bpe.train"),
        (t.model, "tokenize", "bpe.tokenize"),
    ]


def tape_size(loss) -> int:
    """Nodes ``backward`` will visit: everything reachable that requires grad.

    A read-only walk over ``_parents``; the tape itself is not touched.
    """
    if not loss.requires_grad:
        return 0
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def patch_macs(samples, kernels, hop: int) -> int:
    """Multiply-adds of one wavelet transform: frames x sum(widths) x 2 (re, im)."""
    frames = (len(samples) - 1) // hop + 1 if len(samples) else 0
    return frames * sum(2 * k.half_width + 1 for k in kernels) * 2


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start_ns, end_ns, parent, op, phase]``; ``parent`` is
    the index of the enclosing span (or -1) and ``op`` the index of the
    operation it ran in (or -1 between operations), so all spans of one
    step or request share an ``op``.
    """

    def __init__(self, clock: OpClock):
        self.clock = clock
        self.spans: list[list] = []
        self.phase = "setup"
        self.paused = False
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._in_batch_loss = False

    def count(self, name: str, n: float = 1) -> None:
        """Counters only accumulate inside an operation, so they read per op."""
        if not self.paused and self.clock.op_index is not None:
            self.counts[name] = self.counts.get(name, 0) + n

    def spanning(self, name: str):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if tracer.paused:
                    return original(*args, **kwargs)
                op = tracer.clock.op_index
                parent = tracer._stack[-1] if tracer._stack else -1
                record = [name, _now(), 0, parent, -1 if op is None else op, tracer.phase]
                tracer.spans.append(record)
                tracer._stack.append(len(tracer.spans) - 1)
                try:
                    return original(*args, **kwargs)
                finally:
                    record[2] = _now()
                    tracer._stack.pop()
                    if record[4] == -1 and tracer.clock.op_index is not None:
                        record[4] = tracer.clock.op_index  # the op began inside this span

            return wrapper

        return make

    def install(self, patches: Patches, tricl) -> None:
        """Spans first, so the counters wrap them and a counter's own cost
        (the tape walk, above all) is not charged to a span."""
        tracer = self
        for owner, attr, name in span_targets(tricl):
            patches.wrap(owner, attr, self.spanning(name))

        def backward(original):
            def wrapper(loss):
                tracer.count("tensor.tape_nodes", tape_size(loss))
                return original(loss)

            return wrapper

        def transform(original):
            def wrapper(samples, kernels, hop, *args, **kwargs):
                tracer.count("wavelet.patch_macs", patch_macs(samples, kernels, hop))
                return original(samples, kernels, hop, *args, **kwargs)

            return wrapper

        def anomaly(original):
            def wrapper(modal_embeddings):
                batch = len(next(iter(modal_embeddings.values())))
                try:
                    filtered, kept = original(modal_embeddings)
                except tricl.errors.DegenerateBatchError:
                    tracer.count("trainer.anomaly_dropped", batch)
                    raise
                tracer.count("trainer.anomaly_dropped", batch - len(kept))
                return filtered, kept

            return wrapper

        def batch_loss(original):
            def wrapper(dataset, indices, model):
                tracer._in_batch_loss = True
                try:
                    loss = original(dataset, indices, model)
                finally:
                    tracer._in_batch_loss = False
                tracer.count("trainer.text_lookups", len(indices))
                return loss

            return wrapper

        def encode_text(original):
            def wrapper(self, sentence):
                if tracer._in_batch_loss:
                    tracer.count("trainer.text_encodes")
                return original(self, sentence)

            return wrapper

        def spectrogram(original):
            def wrapper(self, sample):
                tracer.count("data.spectrogram_lookups")
                if sample.spec is not None:
                    tracer.count("data.spectrogram_hits")
                return original(self, sample)

            return wrapper

        patches.wrap(tricl.trainer, "backward", backward)
        patches.wrap(tricl.tuning, "backward", backward)
        patches.wrap(tricl.encoders, "transform_with_kernels", transform)
        patches.wrap(tricl.trainer, "anomaly_filter", anomaly)
        patches.wrap(tricl.trainer, "batch_loss", batch_loss)
        patches.wrap(tricl.model.TriModalModel, "encode_text", encode_text)
        patches.wrap(tricl.data.Dataset, "spectrogram", spectrogram)

    def self_times(self) -> list[int]:
        """Span duration minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent, op, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self milliseconds (all phases)."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = out.setdefault(span[0], {"calls": 0, "measure_calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["measure_calls"] += span[5] == "measure"
            row["total_ms"] += (span[2] - span[1]) / 1e6
            row["self_ms"] += own / 1e6
        return out

    def time_under(self, ancestor: str, prefix: str) -> float:
        """Milliseconds spent in spans named ``prefix*`` that run inside an
        ``ancestor`` span, counting only the outermost such span."""
        inside = [False] * len(self.spans)
        total = 0
        for i, (name, start, end, parent, op, phase) in enumerate(self.spans):
            up = parent >= 0 and (inside[parent] or self.spans[parent][0] == ancestor)
            inside[i] = up
            if up and name.startswith(prefix) and not self.spans[parent][0].startswith(prefix):
                total += end - start
        return total / 1e6

    def write(self, path, extra: dict) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "phase")
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(extra, sort_keys=True) + "\n")
            for i, span in enumerate(self.spans):
                f.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")


SPANS = [
    "tensor.backward", "optim.step", "wavelet.build_kernels", "wavelet.transform",
    "encoders.audio", "encoders.spec", "encoders.text",
    "layers.conv_stack", "layers.transformer", "layers.attention_pool",
    "trainer.batch_loss", "trainer.loss", "trainer.anomaly_filter", "tuning.head_logits",
    "inference.prompt_infer", "inference.evaluate", "checkpoint.load", "checkpoint.save", "cli.main",
    "data.ingest", "data.spectrogram", "dsp.read_wav", "dsp.mel", "synth.generate", "bpe.train", "bpe.tokenize",
]

# Time per call of a span: (metric, span, scale from ms).
PER_CALL = [
    ("tensor.backward_ms", "tensor.backward", 1.0),
    ("optim.step_ms", "optim.step", 1.0),
    ("wavelet.build_kernels_ms", "wavelet.build_kernels", 1.0),
    ("wavelet.transform_ms", "wavelet.transform", 1.0),
    ("encoders.spec_ms", "encoders.spec", 1.0),
    ("encoders.text_ms", "encoders.text", 1.0),
    ("layers.conv_stack_ms", "layers.conv_stack", 1.0),
    ("layers.transformer_ms", "layers.transformer", 1.0),
    ("layers.attention_pool_ms", "layers.attention_pool", 1.0),
    ("tuning.head_logits_ms", "tuning.head_logits", 1.0),
    ("inference.prompt_infer_ms", "inference.prompt_infer", 1.0),
    ("inference.evaluate_s", "inference.evaluate", 1e-3),
    ("checkpoint.load_ms", "checkpoint.load", 1.0),
    ("checkpoint.save_ms", "checkpoint.save", 1.0),
    ("data.ingest_s", "data.ingest", 1e-3),
    ("data.spectrogram_ms", "data.spectrogram", 1.0),
    ("dsp.read_wav_ms", "dsp.read_wav", 1.0),
    ("dsp.mel_ms", "dsp.mel", 1.0),
    ("synth.generate_s", "synth.generate", 1e-3),
    ("bpe.train_s", "bpe.train", 1e-3),
    ("bpe.tokenize_us", "bpe.tokenize", 1e3),
]

_UNITS = {"_ms": "ms", "_s": "s", "_us": "us"}


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = [(name, _UNITS[name[name.rindex("_"):]], "lower") for name, _, _ in PER_CALL]
    specs += [
        ("encoders.audio_ms", "ms", "lower"),
        ("trainer.forward_ms", "ms", "lower"),
        ("trainer.loss_ms", "ms", "lower"),
        ("cli.infer_self_ms", "ms", "lower"),
        ("tensor.tape_nodes", "count", "lower"),
        ("wavelet.patch_macs", "count", "lower"),
        ("trainer.anomaly_dropped", "count", "lower"),
        ("trainer.text_cache_hit_ratio", "ratio", "higher"),
        ("data.spec_cache_hit_ratio", "ratio", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    for span in SPANS:
        specs += [(f"{span}.calls", "count", "lower"), (f"{span}.self_ms", "ms", "lower")]
    return specs


def layer_metrics(tracer: Tracer, n_ops: int, counts: dict, count_ops: int, overhead_pct: float) -> dict:
    """Per-layer metrics of a traced run.

    Times are per call, over the traced set-up and the traced rounds.
    ``.calls`` are calls per op in the traced rounds, including the work a
    round does between ops (ingest, tokenizer training, evaluation). Counters are
    per op over the first traced round, which is the same work on every run
    of one seed, so they repeat exactly.
    """
    table = tracer.table()

    def per_call(span: str, ms: float | None = None) -> float:
        row = table.get(span)
        if not row:
            return 0.0
        return (row["total_ms"] if ms is None else ms) / row["calls"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    units = {name: unit for name, unit, _ in layer_metric_specs()}
    values = {name: per_call(span) * scale for name, span, scale in PER_CALL}
    audio_wavelet = tracer.time_under("encoders.audio", "wavelet.")
    loss = tracer.time_under("trainer.batch_loss", "trainer.loss")
    batch = table.get("trainer.batch_loss", {"total_ms": 0.0})["total_ms"]
    values["encoders.audio_ms"] = per_call("encoders.audio", table.get("encoders.audio", {}).get("total_ms", 0.0) - audio_wavelet)
    values["trainer.forward_ms"] = per_call("trainer.batch_loss", batch - loss)
    values["trainer.loss_ms"] = per_call("trainer.batch_loss", loss)
    values["cli.infer_self_ms"] = per_call("cli.main", table.get("cli.main", {}).get("self_ms", 0.0))
    for name in ("tensor.tape_nodes", "wavelet.patch_macs", "trainer.anomaly_dropped"):
        values[name] = ratio(counts.get(name, 0), count_ops)
    lookups = counts.get("trainer.text_lookups", 0)
    values["trainer.text_cache_hit_ratio"] = ratio(lookups - counts.get("trainer.text_encodes", 0), lookups)
    values["data.spec_cache_hit_ratio"] = ratio(counts.get("data.spectrogram_hits", 0), counts.get("data.spectrogram_lookups", 0))
    values["trace.overhead_pct"] = overhead_pct
    for span in SPANS:
        values[f"{span}.calls"] = ratio(table.get(span, {}).get("measure_calls", 0), n_ops)
        values[f"{span}.self_ms"] = per_call(span, table.get(span, {}).get("self_ms", 0.0))
    return {name: (float(values[name]), units[name]) for name, _, _ in layer_metric_specs()}


def print_table(tracer: Tracer, n_ops: int, overhead_pct: float, out) -> None:
    table = tracer.table()
    print(f"per-layer spans over the traced set-up and {n_ops} traced ops", file=out)
    print(f"{'span':<24}{'calls':>8}{'calls/op':>10}{'total ms':>12}{'self ms':>12}{'ms/call':>10}", file=out)
    for span in SPANS:
        row = table.get(span)
        if row:
            print(
                f"{span:<24}{row['calls']:>8}{row['measure_calls'] / max(1, n_ops):>10.2f}"
                f"{row['total_ms']:>12.1f}{row['self_ms']:>12.1f}{row['total_ms'] / row['calls']:>10.3f}",
                file=out,
            )
    print(f"tracing overhead: {overhead_pct:+.2f}% mean op latency, traced vs untraced rounds", file=out)
