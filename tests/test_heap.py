"""The allocator policy `import tricl` sets: a freed array's pages stay in
the process, so allocating the same size again faults none of them in."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import tricl.heap

ROOT = Path(__file__).resolve().parents[1]

# Free a 20 MB array, allocate and free it again five times, print the minor faults that took.
REALLOCATE = """
import resource
import numpy as np
import tricl
a = np.ones(20 * 2**20 // 8)
del a
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    a = np.ones(20 * 2**20 // 8)
    del a
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set through glibc's mallopt")
def test_reallocating_a_freed_array_faults_no_pages_in():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", REALLOCATE], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 8  # glibc's defaults: 5 x 5,120 pages at most, hundreds in practice


def test_policy_returns_quietly_without_mallopt(monkeypatch):
    monkeypatch.setattr(tricl.heap.ctypes, "CDLL", lambda name: object())  # a C library with no mallopt
    assert tricl.heap.keep_freed_arrays() is None
