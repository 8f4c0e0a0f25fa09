"""The benchmark harness still runs against this source tree.

The harness wraps public functions of the package where their callers
look them up (``trainer.make_batch``, ``model.apply_dynamic_filter``,
``trainer.validation_loss``, ...). A rename or signature change there
breaks the benchmark without breaking any unit test, so this runs the
harness's own toy-size self-check (about 10 s) as a subprocess.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_passes():
    proc = subprocess.run([sys.executable, "benchmarks/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
