"""Smoke test of the benchmark at tiny sizes.

Runs every workload once untraced and once traced with ``--tiny`` and checks
that the result line carries every metric BENCHMARK.json names, each with its
unit, and that the benchmark refuses to run when the sources are missing.
Takes about half a minute:

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def _check(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0, result
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected, f"{workload} trace={trace}: metrics or units differ from BENCHMARK.json"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
        if not trace:
            assert m["value"] > 0, f"end-to-end metric {name} is {m['value']}"


def test_every_workload_emits_every_metric():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            _check(workload, trace)


def test_refuses_to_run_without_sources():
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        root = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", root)
        shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(SPEC["workloads"][0]["name"], 0, root)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    test_every_workload_emits_every_metric()
    test_refuses_to_run_without_sources()
    print("smoke test passed")
