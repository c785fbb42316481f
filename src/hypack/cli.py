"""Batch front door: the commands pack, growth, search and demo-flat.

One command per process; artifacts are JSON (schema field included) or CSV,
written atomically.  JSON artifacts are json.dumps(payload, sort_keys=True,
indent=2) plus a newline, with each 2-D float array formatted straight from
the array.  Exit codes: 0 pass,
1 verification failure, 2 invalid configuration, 3 schedule exhausted.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext loads locale for the first parser; load it at import time
import locale  # noqa: F401
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from hypack.geometry import NumericRangeError, PolarBatch, check_dimension
from hypack.maps import busemann_map, ideal_point, poincare_inclusion
from hypack.packing import generate_centers, growth_table, growth_table_csv, verify_packing
from hypack.search import (
    ScheduleExhausted,
    SearchParams,
    certify_configuration,
    check_samples,
    find_bunched_configuration,
)

SCHEMA_VERSION = 2

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


def _dump_json(payload) -> str:
    """The text of json.dumps(payload, sort_keys=True, indent=2) plus a newline.

    A non-empty 2-D float array is written in one bulk step: json.dumps puts
    a unique placeholder string in its place, which is then replaced by the
    array's rows at the indentation of its line.  Any other array is written
    as its .tolist(); other types json.dumps refuses raise TypeError.
    """
    tag = os.urandom(16).hex()
    arrays = []

    def default(o):
        if not isinstance(o, np.ndarray):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        if o.ndim == 2 and o.dtype.kind == "f" and o.size:
            arrays.append(o)
            return f"{tag}:{len(arrays) - 1}"
        return o.tolist()

    text = json.dumps(payload, sort_keys=True, indent=2, default=default)

    def rows(match):
        line = text[text.rfind("\n", 0, match.start()) + 1 : match.start()]
        newline = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        return _write_float_rows(arrays[int(match.group(1))], newline)

    return re.sub(f'"{tag}:(\\d+)"', rows, text) + "\n"


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


#: Rows _write_float_rows formats per step; bounds the Python floats and
#: reprs alive at once.
_FLOAT_ROWS_CHUNK = 4096


def _write_float_rows(rows: np.ndarray, newline: str) -> str:
    """The text of rows.tolist() for a non-empty 2-D float array, for a line
    that starts with `newline`: _FLOAT_ROWS_CHUNK rows at a time, every value
    through one map over the chunk's flat list, placed by a per-row template."""
    fmt = float.__repr__ if np.isfinite(rows).all() else _json_float
    row_break, value_break = newline + "  ", newline + "    "
    row = "[" + value_break + ("," + value_break).join(["%s"] * rows.shape[1]) + row_break + "]"
    between = "," + row_break
    pieces = ["[" + row_break]
    for lo in range(0, rows.shape[0], _FLOAT_ROWS_CHUNK):
        part = rows[lo : lo + _FLOAT_ROWS_CHUNK]
        if lo:
            pieces.append(between)
        pieces.append(between.join([row] * part.shape[0]) % tuple(map(fmt, part.ravel().tolist())))
    pieces.append(newline + "]")
    return "".join(pieces)


def _polar_rows(points: PolarBatch) -> np.ndarray:
    """The (N, m+1) array of rows (r, direction...)."""
    return np.column_stack((points.r, points.dirs))


def _config_tokens(args) -> list[str]:
    """The --config file's JSON object as option tokens, parsed like flags.

    Each key names a flag of the command (`R_from` or `R-from`); a value is
    given as the flag's text, a boolean only switches a flag on or off.
    """
    with open(args.config) as fh:
        file_values = json.load(fh)
    if not isinstance(file_values, dict):
        raise ValueError("--config: the file must hold one JSON object")
    tokens = []
    for key, value in file_values.items():
        attr = key.replace("-", "_")
        if attr in ("command", "config") or not hasattr(args, attr):
            raise ValueError(f"--config: unknown key {key!r} for {args.command}")
        flag = "--" + attr.replace("_", "-")
        switch = isinstance(getattr(args, attr), bool)  # a store_true flag
        if switch != isinstance(value, bool) or isinstance(value, (type(None), list, dict)):
            wanted = "true or false" if switch else "a number or a string"
            raise ValueError(f"--config: {key!r} takes {wanted} (got {value!r})")
        if not switch:
            tokens.append(f"{flag}={value}")
        elif value:
            tokens.append(flag)
    return tokens


def cmd_pack(args) -> int:
    fam = generate_centers(args.C, args.R, args.m, cap=args.cap)
    report = verify_packing(fam)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "pack",
        "spec": {"C": args.C, "R": args.R, "m": args.m, "cap": args.cap},
        "family": {
            "n_centers": len(fam),
            "radius": fam.C,
            "min_separation": 2.0 * fam.C,
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
    check_dimension(args.m)
    if args.map == "poincare":
        return poincare_inclusion(args.m)
    if args.map == "busemann":
        dirs = np.eye(args.m)
        return busemann_map([ideal_point(d) for d in dirs])
    raise ValueError(f"unknown map label {args.map!r}")


def cmd_search(args) -> int:
    check_samples(args.samples)
    F = _map_handle(args)
    params = SearchParams(
        r=args.r, epsilon=args.eps, k=args.k, hausdorff=args.hausdorff, cap=args.cap,
        R_max=args.R_max,
    )
    try:
        cfg = find_bunched_configuration(F, params)
    except ScheduleExhausted as exc:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "search",
            "error": "schedule-exhausted",
            "message": str(exc),
            "diagnostics": exc.diagnostics,
            "params": _params_dict(params, F.m, args),
        }
        _atomic_write(args.out, _dump_json(payload))
        return EXIT_EXHAUSTED
    cert = certify_configuration(F, cfg, samples=args.samples, seed=args.seed)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "search",
        "params": _params_dict(params, F.m, args),
        "map": F.label,
        "ladder": cfg.ladder,
        "R_used": cfg.R_used,
        "indices": list(cfg.indices),
        "alpha": cfg.alpha,
        "center_radius": cfg.center_radius,
        "centers_polar": _polar_rows(cfg.centers),
        "fiber_anchor_polar": _polar_rows(PolarBatch.of([cfg.fiber_anchor]))[0].tolist(),
        "pairwise_manifold_min": cfg.pairwise_manifold_min,
        "pairwise_image_max": cfg.pairwise_image_max,
        "hausdorff_max": cert.hausdorff_max,
        "set_distance_max": cert.set_distance_max,
        "separation_margin": cert.separation_min - 1.0 / params.epsilon,
        "pass": cert.passes(),
        "family_count": cfg.family_count,
        "selected_count": cfg.selected_count,
    }
    if cert.net is not None:
        payload["net_l"] = cert.net.l
        payload["net_delta"] = cert.net.delta
    _atomic_write(args.out, _dump_json(payload))
    return EXIT_PASS if cert.ok else EXIT_VERIFY_FAIL


def _params_dict(params: SearchParams, m: int, args) -> dict:
    return {
        "r": params.r,
        "epsilon": params.epsilon,
        "k": params.k,
        "C": params.C,
        "m": m,
        "cap": params.cap,
        "seed": args.seed,
        "samples": args.samples,
        "hausdorff": params.hausdorff,
        "R_schedule": list(params.R_schedule),
    }


def cmd_demo_flat(args) -> int:
    from hypack.maps import flat_graph_example

    if args.K < 1:
        raise ValueError(f"demo-flat: --K must be >= 1 (got {args.K})")
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "demo-flat",
        "rows": [asdict(row) for row in flat_graph_example(K=args.K)],
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
        p.add_argument("--out", help="output path (stdout if omitted)")
        p.add_argument("--config", help="JSON config file; flags win")

    p_pack = sub.add_parser("pack", help="generate and verify one packing")
    common(p_pack)
    p_pack.add_argument("--C", type=float, default=1.0)
    p_pack.add_argument("--R", type=float, default=3.0)
    p_pack.add_argument("--m", type=int, default=2)
    p_pack.add_argument("--cap", type=int, default=100_000)

    p_growth = sub.add_parser("growth", help="family growth table over an R range")
    common(p_growth)
    p_growth.add_argument("--format", choices=("json", "csv"), default="csv")
    p_growth.add_argument("--C", type=float, default=1.0)
    p_growth.add_argument("--R-from", type=float)
    p_growth.add_argument("--R-to", type=float)
    p_growth.add_argument("--R-step", type=float, default=1.0)

    p_search = sub.add_parser("search", help="find and certify a bunched configuration")
    common(p_search)
    p_search.add_argument("--map", default="poincare", choices=("poincare", "busemann"))
    p_search.add_argument("--m", type=int, default=2)
    p_search.add_argument("--r", type=float, default=1.0)
    p_search.add_argument("--eps", type=float, default=0.5)
    p_search.add_argument("--k", type=int, default=3)
    p_search.add_argument("--cap", type=int, default=100_000)
    p_search.add_argument("--R-max", type=float)
    p_search.add_argument("--hausdorff", action="store_true")
    p_search.add_argument("--samples", type=int, default=512)
    p_search.add_argument("--seed", type=int, default=0, help="certificate sampling seed")

    p_demo = sub.add_parser("demo-flat", help="flat-graph counterexample report")
    common(p_demo)
    p_demo.add_argument("--K", type=int, default=8)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # config values come first, so explicit flags (parsed later) win
            args = parser.parse_args([args.command, *_config_tokens(args), *argv[1:]])
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
