"""Checks of the benchmark's own machinery: trace accounting, wrapper
restoration, byte-identical traced artifacts, the correctness gate and the
metric registries.  Run with ``python3 -m pytest bench/tests`` from the
repository root."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hypack  # noqa: E402
import hypack.cli  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from hypack.geometry import polar_distance  # noqa: E402

SEARCH = ["search", "--map", "poincare", "--m", "2", "--r", "1", "--eps", "0.5", "--k", "3",
          "--seed", "7"]
PACK = ["pack", "--C", "1", "--R", "6", "--m", "2", "--cap", "500"]


def _hypack_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if key == "hypack" or key.startswith("hypack.")]


def _traced(argv, out):
    tr = tracing.Tracer()
    tr.install()
    try:
        rc = hypack.cli.main(argv + ["--out", str(out)])
    finally:
        restored = tr.uninstall()
    assert rc == 0
    return tr, restored


@pytest.fixture(scope="module", params=[SEARCH, PACK], ids=["search", "pack"])
def traced(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("traced") / "artifact.json"
    tr, restored = _traced(request.param, out)
    return request.param, tr, restored, out


def test_layer_self_times_add_up_to_root(traced):
    _, tr, _, _ = traced
    summary = tr.summary()
    assert summary[tracing.ROOT]["calls"] == 1
    by_layer: dict[str, float] = {}
    for name, row in summary.items():
        if name != tracing.ROOT:
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + row["self_s"]
    total = sum(by_layer.values()) + summary[tracing.ROOT]["self_s"]
    assert math.isclose(total, summary[tracing.ROOT]["busy_s"], rel_tol=1e-9, abs_tol=1e-12)
    assert all(row["self_s"] >= -1e-12 for row in summary.values())


def test_spans_nest(traced):
    _, tr, _, _ = traced
    spans = tr.spans
    assert spans[0][0] == tracing.ROOT and spans[0][3] is None
    assert all(parent is not None for _, _, _, parent, _ in spans[1:])
    last_child_end: dict[int, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans[1:], start=1):
        assert start <= end
        assert parent < i
        p_start, p_end = spans[parent][1], spans[parent][2]
        assert p_start <= start and end <= p_end, name
        # siblings run one after another
        assert start >= last_child_end.get(parent, p_start), name
        last_child_end[parent] = end


def test_wrappers_restored_and_cover_every_alias(tmp_path):
    before = [(mod, dict(vars(mod))) for mod in _hypack_modules()]
    batch = hypack.maps.LipschitzMapHandle.__dict__["batch"]
    original = hypack.packing.generate_centers
    tr = tracing.Tracer()
    tr.install()
    try:
        wrapped = hypack.packing.generate_centers
        assert wrapped is not original
        assert hypack.search.generate_centers is wrapped
        assert hypack.cli.generate_centers is wrapped
        assert hypack.exp_map is hypack.geometry.exp_map is hypack.nets.exp_map
        assert hypack.maps.LipschitzMapHandle.__dict__["batch"] is not batch
    finally:
        assert tr.uninstall()
    for mod, attrs in before:
        for key, value in attrs.items():
            assert vars(mod)[key] is value, f"{mod.__name__}.{key}"
    assert hypack.maps.LipschitzMapHandle.__dict__["batch"] is batch


def test_traced_artifact_is_byte_identical(traced, tmp_path):
    argv, tr, restored, out = traced
    assert restored
    plain = tmp_path / "plain.json"
    assert hypack.cli.main(argv + ["--out", str(plain)]) == 0
    assert plain.read_bytes() == out.read_bytes()


def test_layer_metrics_cover_the_registry(traced):
    _, tr, _, _ = traced
    added = {"cli.artifact_bytes", "process.cpu_s", "trace.overhead_s"}
    assert set(tr.layer_metrics()) | added == {name for name, _, _ in tracing.PER_LAYER}


def test_benchmark_json_matches_registries():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_workload_argv_comes_from_the_seed():
    for name in run.WORKLOADS:
        assert run.workload_argv(name, 5) == run.workload_argv(name, 5)
        assert run.workload_argv(name, 5) != run.workload_argv(name, 6)
    for seed in range(50):
        argv = run.workload_argv("pack-20k", seed)
        assert 11.3 <= float(argv[argv.index("--R") + 1]) <= 11.7


def test_gate_accepts_real_search_artifact_and_rejects_tampering(tmp_path):
    out = tmp_path / "s.json"
    assert hypack.cli.main(SEARCH + ["--out", str(out)]) == 0
    good = json.loads(out.read_text())
    assert run.check_artifact("setdist-m3", 0, good, polar_distance) == []
    assert run.check_artifact("setdist-m3", 1, good, polar_distance) == ["exit code 1"]

    def tampered(edit):
        bad = json.loads(out.read_text())
        edit(bad)
        return run.check_artifact("setdist-m3", 0, bad, polar_distance)

    assert tampered(lambda p: p["pass"].update(ii=False)) == ["pass.ii is not true"]
    assert len(tampered(lambda p: p.update(set_distance_max=1.0))) == 1
    problems = tampered(lambda p: p["centers_polar"].__setitem__(1, p["centers_polar"][0]))
    assert len(problems) == 1 and problems[0].startswith("independent (i)")
    problems = tampered(lambda p: p["params"].update(hausdorff=True))
    assert problems == ["pass.iii is not true", "hausdorff_max None > eps"]


def test_gate_on_pack_artifacts():
    payload = {
        "spec": {"C": 1.0},
        "family": {"n_centers": run.PACK_CENTERS, "centers_polar": [[10.5, 1.0, 0.0]] * run.PACK_CENTERS},
        "report": {"pass": True, "min_pairwise": 2.0},
    }
    assert run.check_artifact("pack-20k", 0, payload, polar_distance) == []
    payload["report"]["min_pairwise"] = 1.5
    assert len(run.check_artifact("pack-20k", 0, payload, polar_distance)) == 1
    payload["family"]["n_centers"] = 19_999
    payload["report"]["pass"] = False
    assert len(run.check_artifact("pack-20k", 0, payload, polar_distance)) == 3


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "pack-20k", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
