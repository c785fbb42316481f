"""Layer spans for one hypack CLI call, installed from outside the package.

The tracer replaces the public stage functions of each hypack module with
timing wrappers, records one span per stage call (name, start, end, parent,
item count) in memory, and puts every original object back on uninstall.
``from ... import`` copies bindings, so every module attribute bound to a
wrapped function is replaced, not only the defining one; the map handle's
``batch`` is replaced on the class.

The scalar kernels ``geometry.exp_map`` and ``geometry.distance`` run up to
a million times per call, so they record only a call count and summed time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name, item count taken from (args, result))
STAGES = (
    ("packing", "generate_centers", "packing.generate_centers", lambda a, r: len(r)),
    ("packing", "verify_packing", "packing.verify_packing", lambda a, r: r.pairs_checked),
    ("nets", "build_reference_net", "nets.build_reference_net", lambda a, r: r.l),
    ("nets", "transport_net", "nets.transport_net", lambda a, r: len(r)),
    ("maps", "LipschitzMapHandle.batch", "maps.batch", lambda a, r: len(r)),
    ("search", "find_bunched_configuration", "search.find_bunched_configuration", None),
    ("search", "greedy_separated_subfamily", "search.greedy_separated_subfamily",
     lambda a, r: len(r.selected)),
    ("search", "theta_assignment", "search.theta_assignment", None),
    ("search", "certify_configuration", "search.certify_configuration", None),
    ("cli", "main", "cli.main", None),
)
KERNELS = (
    ("geometry", "exp_map", "geometry.exp_map"),
    ("geometry", "distance", "geometry.distance"),
)
ROOT = "cli.main"

# Per-layer metrics of a traced run: (name, unit, better).  The first three
# groups come from the spans; run.py adds process.cpu_s and trace.overhead_s
# from the paired untraced run, and child.py adds cli.artifact_bytes.
PER_LAYER = (
    ("geometry.exp_map.calls", "count", "lower"),
    ("geometry.exp_map.busy_s", "s", "lower"),
    ("geometry.distance.calls", "count", "lower"),
    ("geometry.distance.busy_s", "s", "lower"),
    ("packing.generate_centers.centers", "count", "lower"),
    ("packing.generate_centers.busy_s", "s", "lower"),
    ("packing.generate_centers.self_s", "s", "lower"),
    ("packing.verify_packing.pairs", "count", "lower"),
    ("packing.verify_packing.busy_s", "s", "lower"),
    ("packing.verify_packing.self_s", "s", "lower"),
    ("nets.build_reference_net.busy_s", "s", "lower"),
    ("nets.net_size", "count", "lower"),
    ("nets.transport_net.calls", "count", "lower"),
    ("nets.transport_net.points", "count", "lower"),
    ("nets.transport_net.busy_s", "s", "lower"),
    ("nets.transport_net.self_s", "s", "lower"),
    ("maps.batch.calls", "count", "lower"),
    ("maps.batch.points", "count", "lower"),
    ("maps.batch.busy_s", "s", "lower"),
    ("maps.batch.self_s", "s", "lower"),
    ("search.find_bunched_configuration.busy_s", "s", "lower"),
    ("search.find_bunched_configuration.self_s", "s", "lower"),
    ("search.rungs", "count", "lower"),
    ("search.family_total", "count", "lower"),
    ("search.final_rung_share", "ratio", "higher"),
    ("search.greedy_separated_subfamily.busy_s", "s", "lower"),
    ("search.selected_total", "count", "lower"),
    ("search.theta_assignment.busy_s", "s", "lower"),
    ("search.certify_configuration.busy_s", "s", "lower"),
    ("search.certify_configuration.self_s", "s", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _resolve(module, attr):
    """(owner, name, original object) for a dotted attribute of hypack.<module>."""
    owner = importlib.import_module(f"hypack.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


class Tracer:
    """Spans and kernel tallies for the calls made between install and uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, items]
        self.kernels: dict[str, list] = {name: [0, 0.0] for _, _, name in KERNELS}
        self.patched: list[tuple] = []  # (owner, attribute, original)
        self._stack: list[int] = []

    def _stage(self, fn, name, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return wrapper

    def _kernel(self, fn, name):
        tally, clock = self.kernels[name], time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[0] += 1
                tally[1] += clock() - t0

        return wrapper

    def install(self):
        """Wrap every binding of each stage and kernel in the loaded hypack modules."""
        if self.patched:
            raise RuntimeError("tracer already installed")
        targets = [(m, a, self._stage, (n, c)) for m, a, n, c in STAGES]
        targets += [(m, a, self._kernel, (n,)) for m, a, n in KERNELS]
        modules = [mod for key, mod in sys.modules.items()
                   if key == "hypack" or key.startswith("hypack.")]
        for module, attr, make, extra in targets:
            owner, name, original = _resolve(module, attr)
            wrapper = make(original, *extra)
            if isinstance(owner, type):
                self.patched.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        """Put every original object back, in reverse order of patching."""
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        restored = all(
            (owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)) is original
            for owner, name, original in self.patched
        )
        self.patched = []
        return restored

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, summed items, busy (inclusive) and self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, items), inner in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "items": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["items"] += items or 0
            row["busy_s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The span- and kernel-derived entries of PER_LAYER."""
        empty = {"calls": 0, "items": 0, "busy_s": 0.0, "self_s": 0.0}
        s = self.summary()

        def row(name):
            return s.get(name, empty)

        out = {}
        for kname, (calls, busy) in self.kernels.items():
            out[f"{kname}.calls"] = calls
            out[f"{kname}.busy_s"] = busy
        for name, items_key in (
            ("packing.generate_centers", "centers"),
            ("packing.verify_packing", "pairs"),
            ("nets.transport_net", "points"),
            ("maps.batch", "points"),
        ):
            r = row(name)
            out[f"{name}.{items_key}"] = r["items"]
            out[f"{name}.busy_s"] = r["busy_s"]
            out[f"{name}.self_s"] = r["self_s"]
        out["nets.transport_net.calls"] = row("nets.transport_net")["calls"]
        out["maps.batch.calls"] = row("maps.batch")["calls"]
        net = row("nets.build_reference_net")
        out["nets.build_reference_net.busy_s"] = net["busy_s"]
        out["nets.net_size"] = net["items"] // net["calls"] if net["calls"] else 0
        for name in ("search.find_bunched_configuration", "search.certify_configuration", ROOT):
            out[f"{name}.busy_s"] = row(name)["busy_s"]
            out[f"{name}.self_s"] = row(name)["self_s"]
        out["search.greedy_separated_subfamily.busy_s"] = row("search.greedy_separated_subfamily")["busy_s"]
        out["search.selected_total"] = row("search.greedy_separated_subfamily")["items"]
        out["search.theta_assignment.busy_s"] = row("search.theta_assignment")["busy_s"]
        # one rung = one family generated directly by the R-ladder search
        rungs = [items for name, _, _, parent, items in self.spans
                 if name == "packing.generate_centers" and parent is not None
                 and self.spans[parent][0] == "search.find_bunched_configuration"]
        out["search.rungs"] = len(rungs)
        out["search.family_total"] = sum(rungs)
        out["search.final_rung_share"] = rungs[-1] / sum(rungs) if rungs else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, items) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "items": items}) + "\n")
