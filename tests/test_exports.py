import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hypack

MODULES = sorted(info.name for info in pkgutil.iter_modules(hypack.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"hypack.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_no_public_callable_takes_a_seed(name):
    # the package draws nothing at random, so no public entry point takes
    # a seed or a generator
    module = importlib.import_module(f"hypack.{name}")
    seeded = []
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
            if {"seed", "rng"} & set(inspect.signature(obj).parameters):
                seeded.append(attr)
    assert seeded == []


def test_benchmark_trace_hooks_resolve(tmp_path):
    # the benchmark's tracer wraps these names from outside the package
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, *_ in tracer.STAGES + tracer.KERNELS:
        tracer._resolve(module, attr)
    import hypack.cli

    t = tracer.Tracer()
    t.install()
    try:
        pack = hypack.cli.main(["pack", "--C", "1", "--R", "3", "--out", str(tmp_path / "p.json")])
        search = hypack.cli.main(
            ["search", "--eps", "0.5", "--k", "2", "--hausdorff", "--out", str(tmp_path / "s.json")]
        )
    finally:
        restored = t.uninstall()
    assert (pack, search, restored) == (0, 0, True)
    metrics = t.layer_metrics()
    from_run = {"cli.artifact_bytes", "process.cpu_s", "trace.overhead_s"}
    assert set(metrics) == {name for name, _, _ in tracer.PER_LAYER} - from_run
    assert metrics["packing.verify_packing.pairs"] > 0 and metrics["nets.net_size"] > 0
    assert metrics["nets.transport_net.calls"] > 0 and metrics["search.rungs"] >= 1


#: Run in a fresh interpreter: the scipy modules left by importing the CLI,
#: whether numpy.random is loaded after the import and after the runs, the
#: exit codes of one set-distance search, one Hausdorff search and one capped
#: pack (its centers subsampled), and the modules those runs import.
_IMPORT_PROBE = """
import json, sys
import hypack.cli
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
random = ["numpy.random" in sys.modules]
before = set(sys.modules)
out = sys.argv[1]
codes = [
    hypack.cli.main(["search", "--eps", "0.5", "--k", "2", "--out", out + "/d.json"]),
    hypack.cli.main(["search", "--eps", "0.5", "--k", "2", "--hausdorff", "--out", out + "/s.json"]),
    hypack.cli.main(["pack", "--C", "1", "--R", "8", "--cap", "100", "--out", out + "/p.json"]),
]
random.append("numpy.random" in sys.modules)
new = sorted(set(sys.modules) - before)
print(json.dumps({"scipy": scipy, "numpy.random": random, "codes": codes, "new": new}))
"""


def test_cli_imports_no_scipy_and_its_runs_import_nothing(tmp_path):
    # importing scipy.spatial took about 0.4 s of every CLI process's set-up,
    # numpy.random about 11 ms, and a module first imported inside main would
    # load inside the run
    src = str(Path(hypack.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe == {"scipy": [], "numpy.random": [False, False], "codes": [0, 0, 0], "new": []}
