"""The benchmark under ``bench/`` reaches the library by name: its workloads
pass ``rng=`` to ``irreps.blocks_from_choi``, and its tracer wraps a fixed
list of functions (``irreps.verify_covariance`` among them, whose ``trials``
it reads).  These tests run the benchmark's own code in subprocesses, so a
renamed function or a dropped keyword fails here and not first in a
benchmark run."""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

TRACER_ROUND_TRIP = """
import run
run.prepare()
import numpy as np
from clonelab import cloner, haar, irreps
from tracing import Tracer

original = irreps.blocks_from_choi
tracer = Tracer()
tracer.install()
assert irreps.blocks_from_choi is not original
choi = cloner.choi_r1_of_cloner(2).choi
irreps.blocks_from_choi(choi, irreps.build_irrep_table(2), rng=haar.SeededRng(0))
irreps.verify_covariance(choi, 2, trials=1)
infos = {span[0]: span[6] for span in tracer.spans}
assert infos["irreps.verify_covariance"] == {"trials": 1}, infos
assert "irreps.blocks_from_choi" in infos, infos
tracer.remove()
assert irreps.blocks_from_choi is original
"""


def _run(args):
    proc = subprocess.run([sys.executable, *args], cwd=BENCH, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_bench_selftest_passes():
    out = _run(["selftest.py"])
    assert "FAIL" not in out


def test_bench_tracer_installs_and_removes():
    _run(["-c", TRACER_ROUND_TRIP])
