"""Batch front door: packings, growth tables, net checks, compression searches.

One command per process; artifacts are JSON (schema field included) or CSV,
written atomically.  Exit codes: 0 pass, 1 verification failure, 2 invalid
configuration, 3 schedule exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from hypack.geometry import NumericRangeError, PolarBatch
from hypack.maps import busemann_map, ideal_point, poincare_inclusion
from hypack.nets import build_reference_net
from hypack.packing import PackingSpec, generate_centers, growth_table, growth_table_csv, verify_packing
from hypack.search import (
    ScheduleExhausted,
    SearchParams,
    certify_configuration,
    check_samples,
    find_bunched_configuration,
)

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_EXHAUSTED = 3

#: Most rows of one growth table; the R list is built before the first row.
GROWTH_ROWS_MAX = 100_000


def _atomic_write(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hypack-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _polar_rows(points: PolarBatch) -> list[list[float]]:
    return np.column_stack((points.r, points.dirs)).tolist()


def _load_config_defaults(parser_args):
    """Flags win over config-file values; the file only fills unset flags."""
    if parser_args.config is None:
        return parser_args
    with open(parser_args.config) as fh:
        file_values = json.load(fh)
    if not isinstance(file_values, dict):
        raise ValueError("--config: the file must hold one JSON object")
    for key, value in file_values.items():
        attr = key.replace("-", "_")
        if attr in ("command", "config") or not hasattr(parser_args, attr):
            raise ValueError(f"--config: unknown key {key!r} for {parser_args.command}")
        if getattr(parser_args, attr) is None:
            setattr(parser_args, attr, value)
    return parser_args


def cmd_pack(args) -> int:
    spec = PackingSpec.at_origin(args.C, args.R, args.m)
    fam = generate_centers(spec, cap=args.cap)
    report = verify_packing(fam, tol=args.tolerance)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "pack",
        "spec": {"C": args.C, "R": args.R, "m": args.m, "cap": args.cap},
        "family": {
            "n_centers": len(fam),
            "radius": fam.radius,
            "min_separation": fam.min_separation,
            "alpha": fam.alpha,
            "family_size_uncapped": fam.family_size_uncapped,
            "centers_polar": _polar_rows(fam.centers),
        },
        "report": {
            "min_pairwise": report.min_pairwise,
            "max_center_offset": report.max_center_offset,
            "separation_ok": report.separation_ok,
            "enclosure_ok": report.enclosure_ok,
            "pass": report.ok,
        },
    }
    _atomic_write(args.out, _dump_json(payload))
    return EXIT_PASS if report.ok else EXIT_VERIFY_FAIL


def cmd_growth(args) -> int:
    if args.R_from is None or args.R_to is None:
        raise ValueError("growth: --R-from and --R-to are required")
    if not (math.isfinite(args.R_from) and math.isfinite(args.R_to)):
        raise ValueError("growth: --R-from and --R-to must be finite")
    if not (math.isfinite(args.R_step) and args.R_step > 0.0):
        raise ValueError(f"growth: --R-step must be finite and > 0 (got {args.R_step})")
    span = (args.R_to - args.R_from) / args.R_step  # the table has floor(span) + 1 rows
    if span >= GROWTH_ROWS_MAX:
        raise ValueError(f"growth: about {span:.3g} rows exceed the limit of {GROWTH_ROWS_MAX}")
    R_values = []
    R = args.R_from
    while R <= args.R_to + 1e-12:
        R_values.append(R)
        if R + args.R_step == R:
            raise ValueError(f"growth: --R-step {args.R_step} does not advance R from {R}")
        R += args.R_step
    rows = growth_table(args.C, R_values)
    if args.format == "csv":
        _atomic_write(args.out, growth_table_csv(rows))
    else:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "growth",
            "C": args.C,
            "rows": [asdict(row) for row in rows],
        }
        _atomic_write(args.out, _dump_json(payload))
    return EXIT_PASS


def _map_handle(args):
    if args.map == "poincare":
        return poincare_inclusion(args.m)
    if args.map == "busemann":
        dirs = np.eye(args.m)
        return busemann_map([ideal_point(d) for d in dirs])
    raise ValueError(f"unknown map label {args.map!r}")


def cmd_search(args) -> int:
    check_samples(args.samples)
    F = _map_handle(args)
    params = SearchParams.derive(
        r=args.r, epsilon=args.eps, k=args.k, hausdorff=args.hausdorff, m=args.m,
        cap=args.cap, seed=args.seed, R_max=args.R_max,
    )
    net = build_reference_net(args.r, args.eps / (2.0 * F.L), args.m)
    try:
        cfg = find_bunched_configuration(F, params, net=net if args.hausdorff else None)
    except ScheduleExhausted as exc:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "search",
            "error": "schedule-exhausted",
            "message": str(exc),
            "diagnostics": exc.diagnostics,
            "params": _params_dict(params),
        }
        _atomic_write(args.out, _dump_json(payload))
        return EXIT_EXHAUSTED
    cert = certify_configuration(F, cfg, net=net, samples=args.samples, seed=args.seed)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "search",
        "params": _params_dict(params),
        "map": F.label,
        "R_used": cfg.R_used,
        "centers_polar": _polar_rows(cfg.centers),
        "fiber_anchor_polar": _polar_rows(PolarBatch.of([cfg.fiber_anchor]))[0],
        "pairwise_manifold_min": cfg.pairwise_manifold_min,
        "pairwise_image_max": cfg.pairwise_image_max,
        "hausdorff_max": cert.hausdorff_max,
        "set_distance_max": cert.set_distance_max,
        "separation_margin": cert.separation_min - cert.separation_required,
        "pass": cert.passes(),
        "family_count": cfg.family_count,
        "selected_count": cfg.selected_count,
    }
    _atomic_write(args.out, _dump_json(payload))
    return EXIT_PASS if cert.ok else EXIT_VERIFY_FAIL


def _params_dict(params: SearchParams) -> dict:
    return {
        "r": params.r,
        "epsilon": params.epsilon,
        "k": params.k,
        "C": params.C,
        "m": params.m,
        "cap": params.cap,
        "seed": params.seed,
        "hausdorff": params.hausdorff,
        "R_schedule": list(params.R_schedule),
    }


def cmd_demo_flat(args) -> int:
    from hypack.maps import flat_graph_example

    if args.K < 1:
        raise ValueError(f"demo-flat: --K must be >= 1 (got {args.K})")
    report = flat_graph_example(K=args.K)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "demo-flat",
        "rows": report.to_json_rows(),
    }
    _atomic_write(args.out, _dump_json(payload))
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypack",
        description="Hyperbolic ball packings, delta-nets, and Lipschitz compression search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", type=str, default=None, help="output path (stdout if omitted)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", type=str, default=None, help="JSON config file; flags win")

    p_pack = sub.add_parser("pack", help="generate and verify one packing")
    common(p_pack)
    p_pack.add_argument("--C", type=float, default=None)
    p_pack.add_argument("--R", type=float, default=None)
    p_pack.add_argument("--m", type=int, default=None)
    p_pack.add_argument("--cap", type=int, default=None)
    p_pack.add_argument("--tolerance", type=float, default=None)

    p_growth = sub.add_parser("growth", help="family growth table over an R range")
    common(p_growth)
    p_growth.add_argument("--C", type=float, default=None)
    p_growth.add_argument("--R-from", dest="R_from", type=float, default=None)
    p_growth.add_argument("--R-to", dest="R_to", type=float, default=None)
    p_growth.add_argument("--R-step", dest="R_step", type=float, default=None)

    p_search = sub.add_parser("search", help="find and certify a bunched configuration")
    common(p_search)
    p_search.add_argument("--map", type=str, default=None, choices=("poincare", "busemann"))
    p_search.add_argument("--m", type=int, default=None)
    p_search.add_argument("--r", type=float, default=None)
    p_search.add_argument("--eps", type=float, default=None)
    p_search.add_argument("--k", type=int, default=None)
    p_search.add_argument("--cap", type=int, default=None)
    p_search.add_argument("--R-max", dest="R_max", type=float, default=None)
    p_search.add_argument("--hausdorff", action="store_true", default=None)
    p_search.add_argument("--samples", type=int, default=None)

    p_demo = sub.add_parser("demo-flat", help="flat-graph counterexample report")
    common(p_demo)
    p_demo.add_argument("--K", type=int, default=None)

    return parser


_DEFAULTS = {
    "pack": {"C": 1.0, "R": 3.0, "m": 2, "cap": 100_000, "tolerance": 1e-9, "format": "json"},
    "growth": {"C": 1.0, "R_step": 1.0, "format": "csv"},
    "search": {
        "map": "poincare", "m": 2, "r": 1.0, "eps": 0.5, "k": 3, "hausdorff": False,
        "cap": 100_000, "samples": 512, "seed": 0, "format": "json",
    },
    "demo-flat": {"K": 8, "format": "json"},
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _load_config_defaults(args)
        for key, value in _DEFAULTS.get(args.command, {}).items():
            if getattr(args, key, None) is None:
                setattr(args, key, value)
        if args.command != "growth" and args.format == "csv":
            raise ValueError(f"{args.command}: only JSON output is defined")
        if args.command == "pack":
            return cmd_pack(args)
        if args.command == "growth":
            return cmd_growth(args)
        if args.command == "search":
            return cmd_search(args)
        if args.command == "demo-flat":
            return cmd_demo_flat(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, NumericRangeError, OSError) as exc:
        print(f"hypack: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
