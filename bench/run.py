"""hypack benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload hausdorff-m2 --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all

Each timed run is one ``hypack.cli.main(argv)`` call in a fresh Python
process (bench/child.py), one at a time: a closed loop with one client.
BLAS pools are capped at min(2, cores) threads and the packing verifier runs
single-threaded.  The workload seed is turned into the CLI arguments here;
the program sees only those arguments.  Every artifact passes a correctness
gate, and every run of one workload and seed must produce the same bytes.

``--trace 0`` reports the end-to-end metrics: medians over the runs that
fit in ``--seconds``, with times scaled to a reference host speed measured
by calibrate() around every run (the raw medians are printed as well).  ``--trace 1`` alternates untraced and traced runs
and reports the per-layer metrics of bench/tracer.py; the traced artifact
must be byte-identical to the untraced one.  The last line of standard
output is one JSON object; the run record (machine, versions, load, hashes)
and the spans of the last traced run go to bench/out/.  WORKLOADS.md says
why each workload is here and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SRC = ROOT / "src"

WORKLOADS = ("hausdorff-m2", "setdist-m3", "pack-20k")
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_PROBES = 3  # import-only processes per run, on top of one per timed run
CAL_REF_S = 1.0  # reference duration of calibrate(): times are reported at this host speed
RUN_LIMIT_S = 170.0  # one invocation of this script must end well within 180 s
PACK_CENTERS = 20_000
THREADS = str(min(2, len(os.sched_getaffinity(0))))


def workload_argv(name: str, seed: int) -> list[str]:
    """CLI arguments of one workload; all randomness comes from `seed`."""
    rng = random.Random(seed)
    if name == "hausdorff-m2":
        return ["search", "--map", "poincare", "--m", "2", "--r", "1", "--eps", "0.5",
                "--k", "2", "--hausdorff", "--seed", str(rng.randrange(2**32))]
    if name == "setdist-m3":
        return ["search", "--map", "busemann", "--m", "3", "--r", "1", "--eps", "0.5",
                "--k", "8", "--seed", str(rng.randrange(2**32))]
    if name == "pack-20k":
        # the 20k cap binds for every R in this range (39.7k to 59.3k centers)
        R = round(rng.uniform(11.3, 11.7), 6)
        return ["pack", "--C", "1", "--R", repr(R), "--m", "2", "--cap", str(PACK_CENTERS)]
    raise ValueError(f"unknown workload {name!r}")


def check_artifact(name: str, rc: int, payload: dict, polar_distance) -> list[str]:
    """Correctness gate for one run; returns the problems found (empty = pass)."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if name == "pack-20k":
        report, family = payload["report"], payload["family"]
        C = payload["spec"]["C"]
        if report["pass"] is not True:
            problems.append("report.pass is not true")
        counts = (family["n_centers"], len(family["centers_polar"]))
        if counts != (PACK_CENTERS, PACK_CENTERS):
            problems.append(f"n_centers, serialized rows {counts}, expected {PACK_CENTERS}")
        if not report["min_pairwise"] >= 2.0 * C - 1e-9:
            problems.append(f"min_pairwise {report['min_pairwise']} < 2C")
        return problems

    params, passes = payload["params"], payload["pass"]
    eps, r, k = params["epsilon"], params["r"], params["k"]
    needed = ("i", "ii", "iii") if params["hausdorff"] else ("i", "ii")
    problems += [f"pass.{key} is not true" for key in needed if passes[key] is not True]
    if not payload["set_distance_max"] <= eps:
        problems.append(f"set_distance_max {payload['set_distance_max']} > eps")
    hmax = payload["hausdorff_max"]
    if params["hausdorff"] and not (hmax is not None and hmax <= eps + 1e-9):
        problems.append(f"hausdorff_max {hmax} > eps")
    rows = payload["centers_polar"]
    if len(rows) != k:
        problems.append(f"{len(rows)} centers, expected k={k}")
    # conclusion (i) again, from the serialized polar centers alone
    worst = math.inf
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            cos = sum(a * b for a, b in zip(rows[i][1:], rows[j][1:]))
            d = polar_distance(rows[i][0], rows[j][0], min(1.0, max(-1.0, cos)))
            worst = min(worst, d - 2.0 * r)
    if not worst >= 1.0 / eps - 1e-6:  # serialized-direction resolution
        problems.append(f"independent (i): ball separation {worst} < 1/eps")
    return problems


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _steal_ticks() -> int | None:
    """Machine-wide CPU time taken by the hypervisor, from /proc/stat."""
    try:
        return int(Path("/proc/stat").read_text().split("\n", 1)[0].split()[8])
    except (OSError, IndexError, ValueError):
        return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_sha256() -> str:
    """Hash of the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_record() -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {key: THREADS for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS")} | {"HYPACK_THREADS": "1"},
    }


class Runner:
    """Starts bench/child.py processes for one workload and seed, one at a time."""

    def __init__(self, name: str, seed: int, deadline: float):
        self.name = name
        self.argv = workload_argv(name, seed)
        self.deadline = deadline
        self.artifact = OUT / f"{name}-seed{seed}.json"
        self.spans_path = OUT / f"{name}-seed{seed}-spans.jsonl"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), HYPACK_THREADS="1",
                        OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
                        MKL_NUM_THREADS=THREADS)
        self.reference_sha: str | None = None
        from hypack.geometry import polar_distance

        self.polar_distance = polar_distance

    def _spawn(self, argv, trace=False) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"error": "run time limit reached"}
        spec = {"argv": argv, "trace": trace, "spans_path": str(self.spans_path),
                "spawn_t": time.clock_gettime(time.CLOCK_MONOTONIC)}
        try:
            done = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if done.returncode != 0 or not isinstance(result, dict):
            tail = done.stderr.strip().splitlines()[-1:] or ["no result"]
            return {"error": f"child exit {done.returncode}: {tail[0]}"}
        if not result["hypack_file"].startswith(str(SRC) + os.sep):
            result["error"] = f"imported hypack from {result['hypack_file']}, not {SRC}"
        return result

    def probe(self) -> dict:
        """An import-only process: set-up time."""
        return self._spawn(None)

    def run(self, trace: bool) -> dict:
        """One timed CLI call, gated, with its artifact hashed."""
        self.artifact.unlink(missing_ok=True)
        result = self._spawn(self.argv + ["--out", str(self.artifact)], trace)
        problems = [result["error"]] if "error" in result else []
        if not problems:
            if not result["restored"]:
                problems.append("tracer left a wrapped attribute behind")
            try:
                data = self.artifact.read_bytes()
                problems += check_artifact(self.name, result["rc"], json.loads(data),
                                           self.polar_distance)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"artifact unreadable: {exc!r}")
            else:
                result["sha256"] = hashlib.sha256(data).hexdigest()
                if self.reference_sha is None:
                    self.reference_sha = result["sha256"]
                elif result["sha256"] != self.reference_sha:
                    problems.append("artifact bytes differ from the first run's")
        result["problems"] = problems
        return result


def calibrate() -> float:
    """Seconds a fixed pure-Python and numpy loop takes: the host's current speed.

    On a shared machine the speed of a core drifts by tens of percent over
    minutes, and the program's wall and CPU time drift with it.  Every timed
    piece of work is bracketed by two calibrations and scaled by
    CAL_REF_S / (their mean), so end-to-end times read as at a fixed speed.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(6_000_000):
        acc += i * i % 7
    grid = np.linspace(0.0, 1.0, 256 * 4000).reshape(256, 4000)
    for _ in range(40):
        acc += float((np.sin(grid) ** 2).min())
    return time.perf_counter() - t0


def _median(values):
    return statistics.median(values) if values else None


def _at_ref_speed(run: dict, key: str) -> float:
    return run[key] * CAL_REF_S / run["cal_s"]


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              **run_record(), "loadavg_before": _loadavg()}
    steal_before = _steal_ticks()
    runner = Runner(name, seed, started + RUN_LIMIT_S)
    record["argv"] = runner.argv
    runner.probe()  # byte-compiles and warms the page cache; not counted
    cal = [calibrate()]
    probes = [runner.probe() for _ in range(SETUP_PROBES)]
    cal.append(calibrate())
    for p in probes:
        p["cal_s"] = (cal[-2] + cal[-1]) / 2
    plain: list[dict] = []
    traced: list[dict] = []
    t0 = time.monotonic()
    while True:
        t_round = time.monotonic()
        done = [runner.run(trace=False)] + ([runner.run(trace=True)] if trace else [])
        cal.append(calibrate())
        for r in done:
            r["cal_s"] = (cal[-2] + cal[-1]) / 2
        plain.append(done[0])
        traced += done[1:]
        now = time.monotonic()
        # start another round only if one more fits in the measuring time
        if now - t0 + (now - t_round) > seconds or plain[-1].get("error"):
            break

    runs = plain + traced
    ok_plain = [r for r in plain if not r["problems"]]
    setups = [p for p in probes if "error" not in p] + ok_plain
    metrics: dict[str, float | None] = {}
    if trace:
        pairs = [(p, t) for p, t in zip(plain, traced) if not p["problems"] and not t["problems"]]
        layers = [t["layers"] for _, t in pairs]
        # median_low keeps counts whole: it always returns a measured value
        for key in layers[0] if layers else ():
            metrics[key] = statistics.median_low([layer[key] for layer in layers])
        metrics["process.cpu_s"] = _median([p["cpu_s"] for p, _ in pairs])
        metrics["trace.overhead_s"] = _median([t["wall_s"] - p["wall_s"] for p, t in pairs])
    else:
        metrics = {
            "wall_s": _median([_at_ref_speed(r, "wall_s") for r in ok_plain]),
            "setup_s": _median([_at_ref_speed(r, "setup_s") for r in setups]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok_plain]),
        }
    failed = sum(1 for r in runs if r["problems"])
    steal_after = _steal_ticks()
    record.update(
        loadavg_after=_loadavg(),
        steal_ticks=None if steal_before is None or steal_after is None else steal_after - steal_before,
        artifact_sha256=runner.reference_sha,
        calibration_s=cal,
        measured={"wall_s": _median([r["wall_s"] for r in ok_plain]),
                  "setup_s": _median([r["setup_s"] for r in setups])},
        setup_probes=probes,
        runs=[{k: v for k, v in r.items() if k != "layers"} for r in runs],
        metrics=metrics,
        elapsed_s=time.monotonic() - started,
    )
    (OUT / f"{name}-seed{seed}-trace{int(trace)}-record.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    return {"record": record, "attempted": len(runs), "failed": failed,
            "samples": len(ok_plain), "setup_samples": len(setups)}


def report(name: str, seed: int, trace: bool, m: dict) -> dict:
    """Print the human-readable summary and return the result object."""
    record = m["record"]
    metrics = record["metrics"]
    print(f"{name} seed={seed} trace={int(trace)}: hypack {' '.join(record['argv'])}")
    registry = PER_LAYER if trace else END_TO_END
    complete = all(metrics.get(key) is not None for key, _, _ in registry)
    for key, unit, _ in registry:
        value = metrics.get(key)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<42} {shown:>12} {unit}")
    print(f"  {'samples':<42} {m['samples']:>12} timed runs, {m['setup_samples']} set-up samples")
    if not trace:
        measured = record["measured"]
        print(f"  as measured: wall_s {measured['wall_s']}, setup_s {measured['setup_s']}; "
              f"calibration loop median {statistics.median(record['calibration_s']):.4f} s "
              f"(reference {CAL_REF_S} s)")
    print(f"  {'fail_ratio':<42} {m['failed'] / m['attempted']:>12.6g} ratio "
          f"({m['failed']} of {m['attempted']} runs failed the gate)")
    for r in record["runs"]:
        for problem in r["problems"]:
            print(f"  FAIL: {problem}")
    print(f"  artifact sha256 {record['artifact_sha256']}")
    print(f"  loadavg before [{record['loadavg_before']}] after [{record['loadavg_after']}], "
          f"steal ticks {record['steal_ticks']}")
    return {
        "correct": m["failed"] == 0 and complete,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit, _ in registry if metrics.get(key) is not None},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hypack" / "cli.py").is_file():
        print(f"bench: no hypack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result = report(name, args.seed, bool(args.trace),
                        measure(name, args.seed, args.seconds, bool(args.trace)))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
