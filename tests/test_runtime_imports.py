"""numpy is the only third-party module the program imports at run time.

WAV I/O, the STFT, resampling and every synth effect, the low-pass included,
run in an interpreter where ``import scipy`` fails. scipy is a test-only
dependency: other tests compare these routines against it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from tricl.dsp import write_wav

ROOT = Path(__file__).resolve().parents[1]
CKPT = ROOT / "tests" / "data" / "trimodal_v2.ckpt"
# the tricl CLI in an interpreter where `import scipy` raises ImportError
NO_SCIPY_CLI = "import sys; sys.modules['scipy'] = None; from tricl.cli import main; sys.exit(main(sys.argv[1:]))"
SPEC = {
    "seed": 0,
    "samples_per_class": 4,
    "duration_seconds": 0.3,
    "classes": [
        {"name": "Alpha", "f0_hz": 400.0, "harmonics": [1.0, 0.4]},
        {"name": "Bravo", "f0_hz": 1100.0, "harmonics": [1.0, 0.4]},
    ],
    "aux_fields": {"distance": {"values": ["close", "far"]}},  # the default effects, `far`'s low-pass included
}


def _python(*args) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_importing_the_program_loads_no_scipy():
    done = _python("-c", "import sys, tricl.cli, tricl.experiments, tricl.checkpoint, tricl.trainer, tricl.tuning; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_synth_infer_and_eval_run_without_scipy(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    data = tmp_path / "data"
    done = _python("-c", NO_SCIPY_CLI, "synth", "--spec", str(spec), "--out", str(data))
    assert done.returncode == 0, done.stderr
    assert len(list(data.glob("*.wav"))) == 8

    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(["Alpha", "Bravo"]))
    wav = tmp_path / "48k.wav"  # read and resampled to 16 kHz
    write_wav(wav, np.sin(np.arange(14400) * 0.05) * 0.5, 48000)
    done = _python("-c", NO_SCIPY_CLI, "infer", "--ckpt", str(CKPT), "--wav", str(wav), "--labels", str(labels))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["prediction"] in ("Alpha", "Bravo")

    done = _python("-c", NO_SCIPY_CLI, "eval", "--ckpt", str(CKPT), "--manifest", str(data / "manifest.jsonl"),
                   "--folds", "2", "--fold", "0")
    assert done.returncode == 0, done.stderr
    assert "mean accuracy" in done.stdout


def test_a_low_pass_tone_renders_without_scipy(tmp_path):
    done = _python("-c", "import json, sys; sys.modules['scipy'] = None; "
                         "from tricl.synth import SynthSpec, synth_generate; "
                         "synth_generate(SynthSpec.from_dict(json.loads(sys.argv[1])), sys.argv[2]); "
                         "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod))",
                   json.dumps(SPEC), str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    rows = [json.loads(line) for line in (tmp_path / "manifest.jsonl").read_text().splitlines()]
    assert any(row.get("distance") == "far" for row in rows)
