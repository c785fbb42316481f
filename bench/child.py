"""One hypack CLI call in a fresh process, timed from process start.

Usage: python3 child.py '<json spec>'

The spec carries ``spawn_t`` (the parent's CLOCK_MONOTONIC reading just
before it started this process), ``argv`` (the CLI arguments, or null for a
set-up probe that only imports), ``trace`` and ``spans_path``.  The last
line of standard output is one JSON object with the measurements.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    import hypack.cli

    # CLOCK_MONOTONIC is system-wide, so the parent's reading is comparable
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["spawn_t"]
    out = {"setup_s": setup_s, "hypack_file": os.path.realpath(hypack.cli.__file__)}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            rc = hypack.cli.main(spec["argv"])
        finally:
            wall_s = time.perf_counter() - t0
            restored = tracer.uninstall() if tracer else True
        out.update(rc=rc, wall_s=wall_s, cpu_s=_cpu_s() - cpu0, restored=restored)
        if tracer:
            tracer.write_spans(spec["spans_path"])
            out["layers"] = tracer.layer_metrics()
            artifact = spec["argv"][-1]
            out["layers"]["cli.artifact_bytes"] = os.path.getsize(artifact) if os.path.exists(artifact) else 0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
