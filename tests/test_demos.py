"""Each demo script runs to completion in a fresh interpreter."""

import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_collected():
    assert len(DEMOS) == 5


def run_demo(demo, cwd):
    """The demo's standard output; it must exit 0 within 60 s."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stderr[-2000:]
    assert elapsed < 60.0
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_delta_net_demo_computes_the_exp_stretch(tmp_path):
    # the printed sinh(rho)/rho is that of the demo's own rho
    out = run_demo(ROOT / "demos" / "03_delta_nets.py", tmp_path)
    rho = float(re.search(r"net of B\(\., ([0-9.]+)\)", out).group(1))
    stretch = re.search(r"sinh\(rho\)/rho = ([0-9.]+)", out).group(1)
    assert stretch == f"{math.sinh(rho) / rho:.4f}"
