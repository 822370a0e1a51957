#!/usr/bin/env python3
"""tricl benchmark: contrastive training, prompt inference and encoder tuning,
timed end to end and, in a separate traced run, layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload contrastive_train --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; either way the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0 only
when every output check passed. The program is imported from ``src/`` next to
this directory; without it the benchmark exits with an error and prints no
result. BLAS is pinned to one thread. Scratch files, the cached fixture
checkpoint and the span dumps live under ``.bench_build/perfbench/``.

Why the long experiment drivers are not workloads: the 40-epoch
``scripts/run_end_to_end.py`` run (about 80 s) and the 25-30 min
``scripts/run_auxiliary_comparison.py`` run (9 trainings of 90 epochs) are
far too long to repeat the twenty-odd times per workload that a comparison
of two commits takes. Their wall time is about
``setup_s + epochs * 7 * op_ms.p50`` of ``contrastive_train`` (7 steps per
epoch), which this benchmark measures. See README.md for the workloads, the
metrics and which layer metric should move which end-to-end metric.
"""

import os

# Pin BLAS before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import inspect
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5  # setup_s is the median of these
MAX_PHASE_S = 120.0  # hard stop so a run always ends within three minutes


def load_package():
    package = SRC / "tricl"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: tricl sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import tricl

    if Path(tricl.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported tricl from {tricl.__file__}, expected {package}")
    import tricl.checkpoint  # noqa: F401  (loads every module the wrappers patch)
    import tricl.cli  # noqa: F401
    import tricl.experiments  # noqa: F401

    return tricl


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def fixture_path(workloads, sizes) -> Path:
    """The fixture is keyed on the package sources and on how it is trained,
    so a checkout never reuses a checkpoint trained by other code."""
    digest = hashlib.sha256(inspect.getsource(workloads.build_fixture).encode())
    digest.update(sizes.config(workloads.MODEL_SEED, sizes.fixture_epochs, 8).to_json().encode())
    for path in sorted((SRC / "tricl").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return BUILD / f"fixture-{'tiny' if sizes.tiny else 'full'}-{digest.hexdigest()[:16]}.ckpt"


def ensure_fixture(workloads, sizes) -> Path:
    path = fixture_path(workloads, sizes)
    if not path.exists():
        start = time.perf_counter()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--build-fixture", str(path)] + (["--tiny"] if sizes.tiny else [])
        subprocess.run(cmd, check=True, timeout=800)
        print(f"built fixture {path.name} in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return path


def build_fixture_main(out: Path, sizes) -> None:
    from workloads import build_fixture

    out.parent.mkdir(parents=True, exist_ok=True)
    work = out.parent / f"fixture-work-{os.getpid()}"
    tmp = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    try:
        build_fixture(sizes, tmp, work)
        os.replace(tmp, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        tmp.unlink(missing_ok=True)


def run_phase(workload, state, clock, seconds: float, min_ops: int, on_round=None, min_rounds: int = 1):
    """Repeat whole rounds until ``seconds`` are used, ``min_ops`` ops were
    measured after the warm-up op and ``min_rounds`` rounds ran; a round is
    not started when it is expected to overrun."""
    start = time.perf_counter()
    results = []
    clock.probe()
    while True:
        results.append(workload.round(state, len(results), clock))
        clock.probe()
        if on_round is not None:
            on_round(len(results) - 1)
        elapsed = time.perf_counter() - start
        enough = len(clock.ops) - 1 >= min_ops and len(results) >= min_rounds
        if (enough and elapsed * (len(results) + 1) / len(results) > seconds) or elapsed > MAX_PHASE_S:
            return results, time.perf_counter_ns()


def check_rounds(results) -> list[str]:
    errors = [e for r in results for e in r.errors]
    traces = {tuple(r.loss_trace) for r in results}
    if len(traces) > 1:
        errors.append(f"loss traces differ between repeats of one seed: {sorted(traces)}")
    return errors


def e2e_metrics(tracing, clock, results, setup_times, end_ns) -> tuple[dict, int, int]:
    """(metrics, attempted, failed). Times are scaled to the reference
    machine speed (see tracing.REF_PROBE_MS)."""
    import numpy as np

    ops = clock.ops[1:]  # the first op is the warm-up
    latency = np.array([clock.normalized_ms(op) for op in ops])
    start_ns = clock.ops[0].end_ns
    speed = statistics.fmean(ms for t, ms in clock.probes if start_ns <= t <= end_ns)
    window_s = (end_ns - start_ns - clock.harness_ns) / 1e9 * tracing.REF_PROBE_MS / speed
    raw = np.array([op.latency_ns / 1e6 for op in ops])
    print(f"unscaled op_ms.p50 {np.percentile(raw, 50):.3f} op_ms.p90 {np.percentile(raw, 90):.3f} "
          f"probe_ms mean {speed:.3f} over {len(clock.probes)} probes")
    failed = clock.skipped + sum(r.failed for r in results)
    attempted = len(clock.ops) + clock.skipped
    if results[0].loss_trace:
        loss_end = results[0].loss_trace[-1]
    else:
        loss_end = statistics.fmean(ce for r in results for ce in r.prompt_ce)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
        "op_ms.p50": (float(np.percentile(latency, 50)), "ms"),
        "op_ms.p90": (float(np.percentile(latency, 90)), "ms"),
        "samples_per_s": (sum(op.samples for op in ops) / window_s, "1/s"),
        "audio_s_per_s": (sum(op.audio_s for op in ops) / window_s, "s/s"),
        "loss_end": (loss_end, "nat"),
    }, attempted, failed


def report(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    payload = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(payload), flush=True)


def summarize(results, clock) -> None:
    r0 = results[0]
    kind = "loss_trace_sha256" if r0.loss_trace else "output_sha256"
    print(f"{kind} {r0.digest}")
    if r0.loss_trace:
        print("loss_trace " + " ".join(repr(x) for x in r0.loss_trace))
    accuracy = sum(r.accuracy * r.predictions for r in results) / sum(r.predictions for r in results)
    print(f"rounds {len(results)} ops {len(clock.ops)} accuracy {accuracy:.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="contrastive_train | prompt_infer | encoder_tune")
    ap.add_argument("--seed", type=int, default=1, help="workload seed: picks the generated inputs")
    ap.add_argument("--seconds", type=float, default=30.0, help="measured time per run (trace runs split it)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    ap.add_argument("--build-fixture", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    tricl = load_package()
    import tracing
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    if args.build_fixture is not None:
        build_fixture_main(args.build_fixture, sizes)
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    print("env " + json.dumps(environment(), sort_keys=True))
    fixture = ensure_fixture(workloads, sizes)
    workload = workloads.WORKLOADS[args.workload](sizes, args.seed, fixture)
    clock = tracing.OpClock(segment_seconds=sizes.segment_s)
    patches = tracing.Patches()
    run_dir = BUILD / f"run-{os.getpid()}-{time.time_ns()}"
    attempted = 0
    try:
        clock.install(patches, tricl)
        if args.trace == 0:
            setup_times, state = [], None
            for i in range(SETUP_REPEATS):
                before = tracing.speed_probe()
                start = time.perf_counter()
                state = workload.setup(run_dir / f"setup{i}")
                elapsed = time.perf_counter() - start
                speed = (before + tracing.speed_probe()) / 2
                setup_times.append(elapsed * tracing.REF_PROBE_MS / speed)
            results, end_ns = run_phase(workload, state, clock, args.seconds, sizes.min_ops)
            metrics, attempted, failed = e2e_metrics(tracing, clock, results, setup_times, end_ns)
        else:
            results, metrics, attempted, failed = traced_run(tricl, tracing, workload, clock, patches, run_dir, args)
        summarize(results, clock)
        errors = check_rounds(results)
    except Exception:
        traceback.print_exc()
        report(False, max(1, attempted, len(clock.ops)), max(1, attempted, len(clock.ops)), {})
        return 1
    finally:
        patches.restore()
        shutil.rmtree(run_dir, ignore_errors=True)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    report(not errors, attempted, failed, metrics)
    return 0 if not errors else 1


def traced_run(tricl, tracing, workload, clock, patches, run_dir, args):
    """Per-layer metrics from one traced set-up and rounds that alternate
    untraced and traced, so both halves see the same machine; the ratio of
    their mean op latencies is the tracing overhead."""
    clock.probe_ops = False
    tracer = tracing.Tracer(clock)
    clock.tracer = tracer
    tracer.install(patches, tricl)
    state = workload.setup(run_dir / "traced")
    tracer.phase = "measure"
    tracer.paused = True
    latencies = {False: [], True: []}  # normalized op ms of untraced and traced rounds
    first_traced = {}

    def alternate(index):
        ops = clock.ops[sum(map(len, latencies.values())):]
        traced = not tracer.paused
        latencies[traced].extend(clock.normalized_ms(op) for op in ops)
        if traced and not first_traced:
            first_traced.update(counts=dict(tracer.counts), ops=len(ops))
        tracer.paused = traced

    results, _ = run_phase(workload, state, clock, args.seconds, 1, alternate, min_rounds=2)
    tracer.paused = False
    plain, traced = latencies[False][1:], latencies[True]  # op 0 is the warm-up
    overhead = 100.0 * (statistics.fmean(traced) / statistics.fmean(plain) - 1.0)

    metrics = tracing.layer_metrics(tracer, len(traced), first_traced["counts"], first_traced["ops"], overhead)
    trace_file = BUILD / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(trace_file, {"workload": args.workload, "seed": args.seed, "env": environment(),
                              "overhead_pct": overhead})
    tracing.print_table(tracer, len(traced), overhead, sys.stderr)
    print(f"spans written to {trace_file}", file=sys.stderr)
    attempted = len(clock.ops) + clock.skipped
    failed = clock.skipped + sum(r.failed for r in results)
    return results, metrics, attempted, failed


if __name__ == "__main__":
    sys.exit(main())
