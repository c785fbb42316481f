"""Batch front door: the commands pack, growth, search and demo-flat.

One command per process; artifacts are JSON (schema field included) or CSV,
written atomically with the mode a new open(path, "w") would give.  JSON
artifacts are json.dumps(payload, sort_keys=True, indent=2) plus a newline,
written as a stream of pieces, so no artifact's text exists as one string:
the encoder's tokens go out _JSON_TOKENS at a time, dataclass rows become
dicts one at a time, and each 2-D float array is formatted straight from
the array, _PIECE_VALUES varying values per piece, with
floattext.repr_texts from _REPR_TEXTS_MIN values on; a column whose values
are bit-identical in every row is formatted once.  The growth CSV is
written in pieces of rows too.  Exit codes: 0 pass, 1 verification
failure, 2 invalid configuration, 3 schedule exhausted.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
# argparse's gettext loads locale for the first parser; load it at import time
import locale  # noqa: F401
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from hypack.geometry import NumericRangeError, PolarBatch, check_dimension
from hypack.maps import busemann_map, ideal_point, poincare_inclusion
from hypack.packing import generate_centers, growth_table, growth_table_csv, verify_packing
from hypack.search import (
    ScheduleExhausted,
    SearchParams,
    certify_configuration,
    find_bunched_configuration,
)

SCHEMA_VERSION = 2

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_EXHAUSTED = 3

#: Most rows of one growth table; they are counted before any R value or row is built.
GROWTH_ROWS_MAX = 100_000


def _atomic_write(path: str | None, pieces):
    """Write the text pieces to `path` atomically, or to stdout without a path."""
    if path is None:
        sys.stdout.writelines(pieces)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hypack-")
    # mkstemp creates the file 0600; give it the mode a new open(path, "w") would
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: Tokens of json.JSONEncoder.iterencode that _dump_json joins per piece.
_JSON_TOKENS = 4096


def _dump_json(payload):
    """Yield the text of json.dumps(payload, sort_keys=True, indent=2) plus a
    newline, in pieces of _JSON_TOKENS encoder tokens.

    A non-empty 2-D float array is written straight from the array: the
    encoder puts a unique placeholder string in its place; each piece is
    split on the placeholders, and each is replaced by the pieces of its
    array's rows at the indentation of its line.  Any other array is
    written as its .tolist(); other types json.dumps refuses raise TypeError.
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

    tokens = json.JSONEncoder(sort_keys=True, indent=2, default=default).iterencode(payload)
    marker = f'"{tag}:'
    line = ""  # the text written since the last newline
    while text := "".join(itertools.islice(tokens, _JSON_TOKENS)):
        text, *rest = text.split(marker)
        for piece in rest:
            yield text
            line = _last_line(line, text)
            index, text = piece.split('"', 1)
            newline = "\n" + " " * (len(line) - len(line.lstrip(" ")))
            yield from _write_float_rows(arrays[int(index)], newline)
            line = newline[1:] + "]"
        yield text
        line = _last_line(line, text)
    yield "\n"


class _AsDicts(list):
    """A list of dataclass instances that iterates as their asdict()s, each
    made when the JSON encoder reaches it."""

    def __iter__(self):
        return map(dataclasses.asdict, super().__iter__())


def _last_line(line: str, text: str) -> str:
    """The text since the last newline, after `line` is followed by `text`."""
    cut = text.rfind("\n")
    return line + text if cut < 0 else text[cut + 1 :]


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


#: Varying values _write_float_rows formats per piece, on either path; it
#: bounds the values, texts and piece text alive at once, and counts values,
#: not rows, so a piece of a wide array holds about as much text as one of
#: a narrow array.  Measured on the writer alone: a 20k-center pack (40,000
#: values) wrote fastest in pieces of 4,096 values (1,024: +33 %, 2,048:
#: +9 %, 8,192 and 16,384: +2 to 3 %); 20,000 rows of 14 columns peak at
#: 0.23x their text under tracemalloc (8,192 values: 0.46x).
_PIECE_VALUES = 4096

#: Fewest varying values that _write_float_rows formats with
#: floattext.repr_texts.  A CLI process writes one artifact, so the kernel's
#: cost there includes importing floattext (about 1.3 ms, compiled) and its
#: first call (0.3 ms); fresh processes wrote 3,072 values in the same time
#: on either path.  Below this, one float.__repr__ per value is faster, and
#: floattext is not imported.
_REPR_TEXTS_MIN = 3000


def _write_float_rows(rows: np.ndarray, newline: str):
    """Yield the text of rows.tolist() for a non-empty 2-D float array, for a
    line that starts with `newline`, in one piece per _PIECE_VALUES varying
    values (at least one row).

    The row template is cut at each column whose values differ between rows;
    a column bit-identical in every row keeps its text in the cuts.  A piece
    formats its rows' varying values, with float.__repr__ one value at a
    time or, from _REPR_TEXTS_MIN varying values in the array on, with
    floattext.repr_texts, and puts them between the cuts, which cycle
    through each row.
    """
    bits = rows.view(f"u{rows.itemsize}")  # -0.0 and 0.0 differ; a NaN matches its own bits
    vary = (bits != bits[0]).any(axis=0)
    vary[0] |= not vary.any()  # a row needs one cut: with no varying column, column 0 varies
    fmt = float.__repr__ if np.isfinite(rows).all(axis=0)[vary].all() else _json_float
    row_break, value_break = newline + "  ", newline + "    "
    # a NUL marks each varying value's place; no float text or indentation holds one
    cells = ["\0" if v else _json_float(x) for v, x in zip(vary.tolist(), rows[0].tolist())]
    cuts = ("[" + value_break + ("," + value_break).join(cells) + row_break + "]").split("\0")
    between = "," + row_break
    q = len(cuts) - 1  # varying values per row
    if rows.shape[0] * q < _REPR_TEXTS_MIN:

        def texts(values):
            return map(fmt, values.tolist())

    else:
        from hypack.floattext import repr_texts

        texts = functools.partial(repr_texts, fallback=fmt)
    step = min(max(_PIECE_VALUES // q, 1), rows.shape[0])  # rows per piece
    out = [None] * (2 * q * step + 1)
    out[0::2] = [cuts[q] + between + cuts[0], *cuts[1:q]] * step + [cuts[q]]
    for lo in range(0, rows.shape[0], step):
        part = rows[lo : lo + step]
        if part.shape[0] < step:
            out = out[: 2 * q * part.shape[0]] + [cuts[q]]
        out[0] = ("[" + row_break if lo == 0 else between) + cuts[0]
        out[1::2] = texts(part[:, vary].ravel())
        yield "".join(out)
    yield newline + "]"


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
    R_from, step, limit = args.R_from, args.R_step, args.R_to + 1e-12
    # rows R_i = R_from + i step while R_i <= limit, each from i; counted before any is built
    span = (limit - R_from) / step  # inf if the difference overflows
    count = GROWTH_ROWS_MAX + 1 if span > GROWTH_ROWS_MAX else max(math.floor(span) + 1, 0)
    while count > 0 and not R_from + (count - 1) * step <= limit:  # R_i does not fall as i grows
        count -= 1
    while count <= GROWTH_ROWS_MAX and R_from + count * step <= limit:
        count += 1
    if count > GROWTH_ROWS_MAX:
        raise ValueError(f"growth: at least {count} rows exceed the limit of {GROWTH_ROWS_MAX}")
    R = R_from + np.arange(count + 1) * step
    stuck = np.flatnonzero(R[1:] <= R[:-1])
    if len(stuck):
        raise ValueError(f"growth: --R-step {step} does not advance R from {float(R[stuck[0]])}")
    rows = growth_table(args.C, R[:count].tolist())
    if args.format == "csv":
        _atomic_write(args.out, growth_table_csv(rows))
    else:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "growth",
            "C": args.C,
            "rows": _AsDicts(rows),
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
    if args.seed is not None:
        print("hypack: --seed has no effect on search (nothing in it is random)", file=sys.stderr)
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
            "params": _params_dict(params, F.m),
        }
        _atomic_write(args.out, _dump_json(payload))
        return EXIT_EXHAUSTED
    cert = certify_configuration(F, cfg)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "search",
        "params": _params_dict(params, F.m),
        "map": F.label,
        "ladder": cfg.ladder,
        "R_used": cfg.R_used,
        "indices": list(cfg.indices),
        "alpha": cfg.alpha,
        "center_radius": cfg.center_radius,
        "centers_polar": _polar_rows(cfg.centers),
        "fiber_anchor_polar": _polar_rows(cfg.fiber_anchor)[0].tolist(),
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


def _params_dict(params: SearchParams, m: int) -> dict:
    return {
        "r": params.r,
        "epsilon": params.epsilon,
        "k": params.k,
        "C": params.C,
        "m": m,
        "cap": params.cap,
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
        "rows": _AsDicts(flat_graph_example(K=args.K)),
    }
    _atomic_write(args.out, _dump_json(payload))
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    # argparse makes a help formatter per argument, and each would ask the
    # terminal for its width; ask once, and give the width argparse would use
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="hypack",
        description="Hyperbolic ball packings, delta-nets, and Lipschitz compression search.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help, formatter_class=formatter)
        p.add_argument("--out", help="output path (stdout if omitted)")
        p.add_argument("--config", help="JSON config file; flags win")
        return p

    p_pack = command("pack", "generate and verify one packing")
    p_pack.add_argument("--C", type=float, default=1.0)
    p_pack.add_argument("--R", type=float, default=3.0)
    p_pack.add_argument("--m", type=int, default=2)
    p_pack.add_argument("--cap", type=int, default=100_000)

    p_growth = command("growth", "family growth table over an R range")
    p_growth.add_argument("--format", choices=("json", "csv"), default="csv")
    p_growth.add_argument("--C", type=float, default=1.0)
    p_growth.add_argument("--R-from", type=float)
    p_growth.add_argument("--R-to", type=float)
    p_growth.add_argument("--R-step", type=float, default=1.0)

    p_search = command("search", "find and certify a bunched configuration")
    p_search.add_argument("--map", default="poincare", choices=("poincare", "busemann"))
    p_search.add_argument("--m", type=int, default=2)
    p_search.add_argument("--r", type=float, default=1.0)
    p_search.add_argument("--eps", type=float, default=0.5)
    p_search.add_argument("--k", type=int, default=3)
    p_search.add_argument("--cap", type=int, default=100_000)
    p_search.add_argument("--R-max", type=float)
    p_search.add_argument("--hausdorff", action="store_true")
    # accepted, with a note on stderr, so that existing command lines still run
    p_search.add_argument("--seed", type=int, help="no effect: the search draws nothing at random")

    p_demo = command("demo-flat", "flat-graph counterexample report")
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
