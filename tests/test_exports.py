import ast
import importlib
import importlib.util
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


def test_package_imports_resolve():
    tree = ast.parse(Path(hypack.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    missing = [
        (module, attr)
        for module, attr in imported
        if not hasattr(importlib.import_module(module), attr) or not hasattr(hypack, attr)
    ]
    assert missing == []


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
#: the exit codes of one Hausdorff search and one capped pack (its centers
#: subsampled), and the modules those two runs import.
_IMPORT_PROBE = """
import json, sys
import hypack.cli
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
before = set(sys.modules)
out = sys.argv[1]
codes = [
    hypack.cli.main(["search", "--eps", "0.5", "--k", "2", "--hausdorff", "--out", out + "/s.json"]),
    hypack.cli.main(["pack", "--C", "1", "--R", "8", "--cap", "100", "--out", out + "/p.json"]),
]
print(json.dumps({"scipy": scipy, "codes": codes, "new": sorted(set(sys.modules) - before)}))
"""


def test_cli_imports_no_scipy_and_its_runs_import_nothing(tmp_path):
    # importing scipy.spatial took about 0.4 s of every CLI process's set-up,
    # and a module first imported inside main would load inside the run
    src = str(Path(hypack.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"scipy": [], "codes": [0, 0], "new": []}
