import argparse
import dataclasses
import json
import math
import os
import shlex
import stat
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import PINWHEEL_R_MAX, pinwheel_map, time_limit
from hypack.cli import _dump_json, _write_float_rows, build_parser, main
import hypack.cli
import hypack.geometry
import hypack.nets
import hypack.search
from hypack.geometry import M_MAX
from hypack.maps import FLAT_GRAPH_K_MAX
from hypack.nets import build_reference_net
from hypack.packing import CAP_MAX, GrowthRow


def run(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, out


def refused_quickly(argv, seconds=10.0, peak_bytes=50e6):
    """Exit code of main(argv), asserting it ends within `seconds` and a
    traced allocation peak below `peak_bytes`."""
    tracemalloc.start()
    try:
        with time_limit(seconds):
            rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_bytes
    return rc


class TestPack:
    def test_canonical_pass(self, tmp_path):
        rc, out = run(tmp_path, "pack.json", ["pack", "--C", "1", "--R", "3", "--m", "2"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 2
        assert payload["family"]["n_centers"] == 9
        assert payload["report"]["pass"] is True

    def test_invalid_parameters_exit_2(self, tmp_path, capsys):
        rc = main(["pack", "--C", "1", "--R", "2"])
        assert rc == 2
        assert "R > 2C" in capsys.readouterr().err

    def test_cap_respected(self, tmp_path):
        rc, out = run(tmp_path, "pack.json", ["pack", "--C", "1", "--R", "12", "--cap", "1000"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["family"]["n_centers"] == 1000
        assert payload["report"]["pass"] is True

    def test_cap_over_limit_exit_2(self, capsys):
        # all 1.76e9 centers at R = 22 would be generated (about 14 GB of index and
        # tangent arrays); refused before any is allocated
        assert refused_quickly(["pack", "--C", "1", "--R", "22", "--cap", "2000000000"]) == 2
        assert f"cap must lie in [2, {CAP_MAX:,}]" in capsys.readouterr().err

    def test_csv_format_rejected(self, capsys):
        with time_limit(10.0), pytest.raises(SystemExit) as exc:
            main(["pack", "--C", "1", "--R", "3", "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["1", "0"])
    def test_dimension_below_2_exit_2(self, capsys, m):
        with time_limit(10.0):
            rc = main(["pack", "--C", "1", "--R", "3", "--m", m])
        assert rc == 2
        assert "m must be >= 2" in capsys.readouterr().err

    def test_default_cap_beyond_enumeration_cap(self, tmp_path):
        # 48,539 centers (1.2e9 pairs), certified by the two extreme index lags
        with time_limit(60.0):
            rc, out = run(tmp_path, "pack.json", ["pack", "--C", "1", "--R", "11.5"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["family"]["n_centers"] == len(payload["family"]["centers_polar"]) == 48_539
        assert payload["report"]["pass"] is True

    def test_huge_family_terminates(self, tmp_path, capsys):
        # about 1.4e25 directions: the count passes 2**53 by far, and the
        # packing angle is far below the rounding of the lag angles
        with time_limit(20.0):
            rc, out = run(tmp_path, "pack.json", ["pack", "--C", "1", "--R", "60", "--cap", "100"])
        assert rc == 2 and not out.exists()
        assert "too small for double precision" in capsys.readouterr().err


class TestGrowth:
    def test_csv_table(self, tmp_path):
        rc, out = run(
            tmp_path, "growth.csv", ["growth", "--C", "1", "--R-from", "3", "--R-to", "12"]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "R,alpha,family_size,lower_bound,ratio"
        assert len(lines) == 11
        sizes = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_empty_range(self, tmp_path):
        rc, out = run(
            tmp_path, "growth.csv", ["growth", "--C", "1", "--R-from", "5", "--R-to", "4"]
        )
        assert rc == 0
        assert out.read_text() == "R,alpha,family_size,lower_bound,ratio\n"

    def test_huge_counts_terminate(self, tmp_path):
        with time_limit(20.0):
            rc, _ = run(tmp_path, "growth.csv", ["growth", "--C", "1", "--R-from", "50", "--R-to", "60"])
        assert rc in (0, 2)

    @pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
    def test_bad_step_exit_2(self, tmp_path, capsys, step):
        with time_limit(10.0):
            rc = main(["growth", "--C", "1", "--R-from", "3", "--R-to", "5", f"--R-step={step}"])
        assert rc == 2
        assert "--R-step" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bounds",
        [
            ["--R-from", "3", "--R-to", "1e9"],
            ["--R-from", "3", "--R-to", "40", "--R-step", "1e-9"],
            ["--R-from=-1e308", "--R-to", "1e308"],
        ],
    )
    def test_row_budget_exit_2(self, capsys, bounds):
        with time_limit(10.0):
            rc = main(["growth", "--C", "1", *bounds])
        assert rc == 2
        assert "rows exceed" in capsys.readouterr().err

    @pytest.fixture
    def built(self, monkeypatch):
        """The R lists the command hands to growth_table, which builds no row here."""
        built = []
        monkeypatch.setattr(hypack.cli, "growth_table", lambda C, R: built.append(R) or [])
        return built

    @pytest.mark.parametrize(
        "bounds", [["--R-from", "0", "--R-to", "1"], ["--C", "0.1", "--R-from", "1", "--R-to", "2"]]
    )
    def test_rows_are_counted_before_any_is_built(self, tmp_path, capsys, built, bounds):
        # R_i <= R_to + 1e-12 holds for i = 0 .. 100,000: one row over the
        # limit, where the span (R_to - R_from) / R_step reads 99,999.99999999999
        with time_limit(10.0):
            rc, out = run(tmp_path, "growth.csv", ["growth", *bounds, "--R-step", "1e-5"])
        assert rc == 2 and not out.exists() and built == []
        assert "at least 100001 rows exceed the limit of 100000" in capsys.readouterr().err

    def test_R_values_are_taken_from_the_index(self, tmp_path, built):
        # R_i = R_from + i R_step: adding the step row after row would end at
        # 11.999999999983466
        argv = ["growth", "--R-from", "3", "--R-to", "12", "--R-step", "0.0001"]
        assert run(tmp_path, "growth.csv", argv)[0] == 0
        [R] = built
        assert len(R) == 90_001 and R[-1] == 12.0
        assert R == [3.0 + i * 0.0001 for i in range(90_001)]

    def test_R_values_of_a_built_table(self, tmp_path):
        rc, out = run(
            tmp_path,
            "growth.json",
            ["growth", "--C", "2", "--R-from", "4.5", "--R-to", "9", "--R-step", "0.3", "--format", "json"],
        )
        assert rc == 0
        R = [row["R"] for row in json.loads(out.read_text())["rows"]]
        assert R == [4.5 + i * 0.3 for i in range(16)] and R[-1] == 9.0

    def test_json_format(self, tmp_path):
        rc, out = run(
            tmp_path,
            "growth.json",
            ["growth", "--C", "1", "--R-from", "3", "--R-to", "5", "--format", "json"],
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 2 and len(payload["rows"]) == 3


class TestSearch:
    def test_poincare_set_distance(self, tmp_path):
        rc, out = run(
            tmp_path,
            "search.json",
            ["search", "--map", "poincare", "--m", "2", "--r", "1", "--eps", "0.5", "--k", "3"],
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["pass"]["i"] is True and payload["pass"]["ii"] is True
        assert payload["pass"]["iii"] is None
        assert payload["ladder"] == "plain" and "net_l" not in payload and "net_delta" not in payload
        assert payload["pairwise_manifold_min"] >= 16.0 - 1e-9
        assert payload["pairwise_image_max"] < 0.25 + 1e-9
        assert len(payload["centers_polar"]) == 3

    def test_hausdorff_flag(self, tmp_path):
        rc, out = run(
            tmp_path,
            "search.json",
            [
                "search", "--map", "poincare", "--m", "2",
                "--r", "1", "--eps", "0.5", "--k", "2", "--hausdorff",
            ],
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["pass"]["iii"] is True
        assert payload["hausdorff_max"] <= 0.5
        # schema 2: the ladder, the packing data of (i) and the net of (iii)
        assert payload["ladder"] == "plain" and not {"samples", "seed"} & set(payload["params"])
        assert payload["indices"] == sorted(payload["indices"]) and len(payload["indices"]) == 2
        assert payload["center_radius"] == payload["R_used"] - payload["params"]["C"]
        assert payload["alpha"] > 0.0
        assert payload["net_l"] == build_reference_net(1.0, 0.5, 2).l and payload["net_delta"] == 0.5

    @pytest.mark.parametrize(
        "argv", [["--map", "busemann", "--m", "3"], ["--map", "poincare", "--m", "4"]]
    )
    def test_higher_dimensional_hausdorff_search(self, tmp_path, argv):
        # the plain ladder transports the net to the two chosen centers only
        with time_limit(10.0):
            rc, out = run(tmp_path, "search.json", ["search", *argv, "--hausdorff", "--k", "2"])
        payload = json.loads(out.read_text())
        assert rc == 0 and payload["pass"] == {"i": True, "ii": True, "iii": True}
        assert payload["ladder"] == "plain" and payload["hausdorff_max"] <= 0.5

    def test_many_balls_hausdorff_search_is_fast(self, tmp_path):
        # (iii) of 40 balls on the l = 2,103 net: matched net points make it
        # O(k^2 l n) work, a full Hausdorff estimate of each pair O(k^2 l^2)
        with time_limit(5.0):
            rc, out = run(tmp_path, "search.json",
                          ["search", "--map", "busemann", "--m", "3", "--hausdorff", "--k", "40"])
        payload = json.loads(out.read_text())
        assert rc == 0 and payload["pass"] == {"i": True, "ii": True, "iii": True}
        assert payload["net_l"] == 2103 and payload["hausdorff_max"] <= 0.5

    def test_both_ladders_exhausted_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hypack.cli, "_map_handle", lambda args: pinwheel_map())
        rc, out = run(
            tmp_path,
            "exhausted.json",
            ["search", "--m", "3", "--hausdorff", "--k", "8", "--R-max", str(PINWHEEL_R_MAX)],
        )
        assert rc == 3
        payload = json.loads(out.read_text())
        assert payload["error"] == "schedule-exhausted" and "ladder" not in payload
        assert [d["ladder"] for d in payload["diagnostics"]] == ["plain", "augmented"]
        assert "rejected_hausdorff" in payload["diagnostics"][0]

    def test_small_R_max_exhausts_with_exit_3(self, tmp_path):
        rc, out = run(
            tmp_path,
            "exhausted.json",
            [
                "search", "--map", "busemann", "--m", "2",
                "--r", "1", "--eps", "0.5", "--k", "2", "--R-max", "16.5",
            ],
        )
        assert rc == 3
        payload = json.loads(out.read_text())
        assert payload["error"] == "schedule-exhausted"
        assert payload["diagnostics"]

    @pytest.mark.parametrize("m", ["5", "6"])
    def test_net_grid_over_limit_exit_2(self, capsys, m):
        # the Hausdorff nets' size bounds are 14,329 and 118,236 lattice points;
        # refused from the bound, before allocating
        assert refused_quickly(["search", "--m", m, "--hausdorff"]) == 2
        assert "lattice points, more than the limit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--map", "busemann", "--m", "5"], ["--map", "poincare", "--m", "13"]])
    def test_set_distance_search_needs_no_net(self, tmp_path, argv):
        # no net is built for (i) and (ii), so no net size limits the dimension
        with time_limit(30.0):
            rc, out = run(tmp_path, "search.json", ["search", *argv, "--k", "3"])
        payload = json.loads(out.read_text())
        assert rc == 0 and payload["pass"] == {"i": True, "ii": True, "iii": None}

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--R-max", "nan", "R_max must not be NaN"), ("--r", "nan", "r must be finite and > 0")],
    )
    def test_nan_value_exit_2(self, capsys, flag, value, message):
        with time_limit(10.0):
            rc = main(["search", flag, value])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_cap_over_limit_exit_2(self, capsys):
        # the ladder would reach a rung of 27.8 million centers at R = 32; refused
        # before the reference net is built
        assert refused_quickly(["search", "--cap", "100000000"]) == 2
        assert f"cap must lie in [2, {CAP_MAX:,}]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "r, message",
        [
            # the first rung's centers lie at radius R - C = 4006
            ("1000", "exceeds the representable range"),
            # the Hausdorff search builds its net first; sinh(r) overflows past
            # r = 710, and the net's grid limit refuses it
            ("1000 --hausdorff", "lattice points, more than the limit"),
            # the first default rung 2C + 2 rounds to 2C, also for the smaller Hausdorff C
            ("1e300", "r=1e+300 and epsilon=0.5 give C=4e+300: the first rung R = 2C + 2 rounds to 2C"),
            ("1e16 --hausdorff", "r=1e+16 and epsilon=0.5 give C=1e+16: the first rung R = 2C + 2 rounds"),
        ],
    )
    def test_huge_r_exit_2(self, capsys, r, message):
        # a value of r may carry a trailing flag
        assert refused_quickly(["search", "--r", *r.split()]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, radius",
        [
            # set-distance C = 404: the first rung's centers lie at radius 406
            (["--r", "100"], "406"),
            # a one-point net passes; C = 4/eps = 400 puts the centers at 402
            (["--r", "0.01", "--eps", "0.01", "--hausdorff"], "402"),
            # the default r = 1: epsilon alone makes C = 2(2 r eps + 1)/eps huge
            (["--eps", "1e-8", "--k", "2"], "2e+08"),
        ],
    )
    def test_unrepresentable_first_rung_exit_2(self, capsys, argv, radius):
        assert refused_quickly(["search", *argv], seconds=2.0) == 2
        err = capsys.readouterr().err
        # the cause is C, named with both inputs, never r alone
        given = dict(zip(argv[::2], argv[1::2]))
        r, eps = float(given.get("--r", 1.0)), float(given.get("--eps", 0.5))
        C = 4.0 / eps if "--hausdorff" in argv else 2.0 * (2.0 * r * eps + 1.0) / eps
        assert (
            f"r={r} and epsilon={eps} give C={C:.4g}: the first rung puts its centers"
            f" at radius {radius}, which exceeds the representable range" in err
        )
        assert "too large" not in err

    def test_set_distance_bound_finite_at_r_60_m_13(self, tmp_path):
        # at r = 60 and m = 13, sinh(r)^12 overflows a double; the center
        # bound of (ii) stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = run(tmp_path, "s.json", ["search", "--r", "60", "--m", "13", "--k", "2"])
        payload = json.loads(out.read_text())
        assert rc == 0 and payload["pass"]["ii"] is True
        assert math.isfinite(payload["set_distance_max"])
        assert payload["set_distance_max"] == payload["pairwise_image_max"]

    def test_hausdorff_net_grid_refused_before_any_rung(self, capsys, monkeypatch):
        # build_reference_net refuses from the size bound before it allocates
        # (tests/test_nets.py); no net and no rung is made
        def never(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(hypack.nets, "NetTemplate", never)
        monkeypatch.setattr(hypack.search, "generate_centers", never)
        for argv in (["--m", "5"], ["--map", "busemann", "--m", "4"]):  # bounds 10^4.2, 10^4.9
            assert refused_quickly(["search", *argv, "--hausdorff"], seconds=2.0) == 2
            assert "lattice points, more than the limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--k", "2"], 0),
            (["--k", "2", "--hausdorff"], 0),
            (["--map", "busemann", "--k", "2", "--R-max", "16.5"], 3),
        ],
    )
    def test_net_builds_per_search(self, tmp_path, monkeypatch, argv, code):
        # one net for the augmented map of a Hausdorff search, one for the
        # certifier's (iii); none for a set-distance search
        calls = []

        def counting(*args):
            calls.append(args)
            return build_reference_net(*args)

        monkeypatch.setattr(hypack.search, "build_reference_net", counting)
        rc, _ = run(tmp_path, "search.json", ["search", "--m", "2", *argv])
        assert rc == code
        assert len(calls) == 2 * ("--hausdorff" in argv)

    def test_unknown_map_exit_2(self, tmp_path):
        rc = main(["search", "--map", "poincare", "--eps", "2.0"])
        assert rc == 2


class TestDemoFlat:
    def test_default_rows(self, tmp_path):
        rc, out = run(tmp_path, "demo.json", ["demo-flat", "--K", "8"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 8
        for row in payload["rows"]:
            assert row["extrinsic"] == 2.0 / (row["k"] + 1.0)
        ratios = [row["intrinsic_lo"] / row["extrinsic"] for row in payload["rows"]]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_json_rows_schema(self, tmp_path):
        rc, out = run(tmp_path, "demo.json", ["demo-flat", "--K", "1"])
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert [set(row) for row in rows] == [{"k", "extrinsic", "intrinsic_lo", "intrinsic_hi"}]

    def test_K_below_1_exit_2(self, tmp_path, capsys):
        for K in ("0", "-3"):
            with time_limit(10.0):
                rc, out = run(tmp_path, "demo0.json", ["demo-flat", "--K", K])
            assert rc == 2 and not out.exists()
            assert "--K must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("K", [FLAT_GRAPH_K_MAX + 1, 100_000])
    def test_K_over_limit_exit_2(self, capsys, K):
        assert refused_quickly(["demo-flat", "--K", str(K)]) == 2
        assert f"K must lie in [0, {FLAT_GRAPH_K_MAX}]" in capsys.readouterr().err


class TestDimension:
    """m is refused outside [2, M_MAX] before any array grows with it."""

    @pytest.mark.parametrize("m", [0, 1, M_MAX + 1, 10**6])
    @pytest.mark.parametrize(
        "argv",
        [["pack", "--C", "1", "--R", "3"], ["search"], ["search", "--map", "busemann"]],
        ids=["pack", "poincare", "busemann"],
    )
    def test_outside_limits_exit_2(self, argv, m, capsys):
        # m = 10**6 used to reach a 7.28 TiB np.eye allocation
        assert refused_quickly(argv + ["--m", str(m)], seconds=2.0) == 2
        assert f"m must be >= 2 and <= {M_MAX} (got {m})" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["pack", "--C", "1", "--R", "3"], ["search", "--map", "busemann", "--k", "2", "--R-max", "16.5"]],
        ids=["pack", "busemann"],
    )
    def test_largest_dimension_accepted(self, tmp_path, argv):
        with time_limit(30.0):
            rc, out = run(tmp_path, "m.json", argv + ["--m", str(M_MAX)])
        payload = json.loads(out.read_text())
        if argv[0] == "pack":
            assert rc == 0 and len(payload["family"]["centers_polar"][0]) == M_MAX + 1
        else:
            assert rc == 3 and payload["params"]["m"] == M_MAX


class TestHelp:
    @pytest.mark.parametrize("columns", ["60", "100", None], ids=["60", "100", "unset"])
    @pytest.mark.parametrize("command", [None, "search", "pack"])
    def test_help_as_argparse_formats_it(self, monkeypatch, capsys, columns, command):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        with time_limit(10.0), pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        # the same parsers with argparse's own formatter, which asks the terminal each time
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for p in [parser, *sub.choices.values()]:
            p.formatter_class = argparse.HelpFormatter
        expected = (sub.choices[command] if command else parser).format_help()
        assert capsys.readouterr().out == expected


class TestTolerance:
    """The packing check's slack is the fixed DEFAULT_TOL, so no command takes --tolerance."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["search"],
            ["growth", "--R-from", "3", "--R-to", "4"],
            ["demo-flat"],
            ["pack", "--C", "1", "--R", "3"],
        ],
    )
    def test_no_command_takes_tolerance(self, argv, capsys):
        with time_limit(10.0), pytest.raises(SystemExit) as exc:
            main(argv + ["--tolerance", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


class TestFormat:
    """Only growth has two output formats, so only it takes --format."""

    @pytest.mark.parametrize(
        "argv", [["pack", "--C", "1", "--R", "3"], ["search"], ["demo-flat", "--K", "1"]]
    )
    def test_only_growth_takes_format(self, argv, capsys):
        with time_limit(10.0), pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


class TestSeed:
    """Nothing in any command is random.  Only search still takes --seed,
    without effect, so that existing search command lines keep running."""

    OTHERS = (
        ["pack", "--C", "1", "--R", "3"],
        ["growth", "--R-from", "3", "--R-to", "4"],
        ["demo-flat", "--K", "1"],
    )

    @pytest.mark.parametrize("argv", OTHERS)
    def test_seed_flag_refused(self, argv, capsys):
        with time_limit(10.0), pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", OTHERS)
    def test_seed_config_key_refused(self, tmp_path, argv, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 3}))
        with time_limit(10.0):
            rc, out = run(tmp_path, "out.json", argv + ["--config", str(cfg)])
        assert rc == 2 and not out.exists()
        assert f"unknown key 'seed' for {argv[0]}" in capsys.readouterr().err

    def test_search_reads_seed_from_config(self, tmp_path, capsys):
        argv = ["search", "--r", "1", "--eps", "0.5", "--k", "3"]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 7}))
        note = "hypack: --seed has no effect on search (nothing in it is random)\n"
        artifacts, notes = [], []
        for name, extra in [("config", ["--config", str(cfg)]), ("flag", ["--seed", "7"]), ("none", [])]:
            rc, out = run(tmp_path, name + ".json", argv + extra)
            assert rc == 0
            artifacts.append(out.read_bytes())
            notes.append(capsys.readouterr().err)
        assert artifacts[0] == artifacts[1] == artifacts[2]
        assert notes == [note, note, ""]
        assert "seed" not in json.loads(artifacts[0])["params"]


class TestDeterminism:
    def test_pack_byte_identical(self, tmp_path):
        _, a = run(tmp_path, "a.json", ["pack", "--C", "1", "--R", "6", "--m", "2"])
        _, b = run(tmp_path, "b.json", ["pack", "--C", "1", "--R", "6", "--m", "2"])
        assert a.read_bytes() == b.read_bytes()

    def test_search_byte_identical(self, tmp_path):
        argv = [
            "search", "--map", "poincare", "--m", "2",
            "--r", "1", "--eps", "0.5", "--k", "3",
        ]
        _, a = run(tmp_path, "a.json", argv)
        _, b = run(tmp_path, "b.json", argv)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv", [["search", "--hausdorff", "--k", "2"], ["pack", "--R", "8"]], ids=["search", "pack"]
    )
    def test_block_budget_leaves_artifacts_unchanged(self, tmp_path, monkeypatch, argv):
        # every blocked loop gives each row the bits of an unblocked one
        _, default = run(tmp_path, "default.json", argv)
        monkeypatch.setattr(hypack.geometry, "_BLOCK_ELEMENTS", 64)
        _, small = run(tmp_path, "small.json", argv)
        assert small.read_bytes() == default.read_bytes()


def test_readme_examples_run(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("hypack ")]
    assert len(lines) == 5
    monkeypatch.chdir(tmp_path)
    for line in lines:
        with time_limit(30.0):
            assert main(shlex.split(line)[1:]) == 0, line


class TestConfigFile:
    def test_config_file_fills_flags(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"C": 1.0, "R": 3.0, "m": 2}))
        rc, out = run(tmp_path, "pack.json", ["pack", "--config", str(cfg)])
        assert rc == 0
        assert json.loads(out.read_text())["family"]["n_centers"] == 9

    def test_config_file_sets_hausdorff(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"hausdorff": True}))
        rc, out = run(
            tmp_path,
            "search.json",
            [
                "search", "--config", str(cfg), "--map", "busemann", "--m", "2",
                "--r", "1", "--eps", "0.5", "--k", "2", "--R-max", "16.5",
            ],
        )
        assert rc in (0, 3)
        assert json.loads(out.read_text())["params"]["hausdorff"] is True

    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"C": 1.0, "R": 3.0, "m": 2}))
        rc, out = run(tmp_path, "pack.json", ["pack", "--config", str(cfg), "--R", "4.0"])
        assert rc == 0
        assert json.loads(out.read_text())["spec"]["R"] == 4.0

    @pytest.mark.parametrize(
        "argv, values, message",
        [
            (["search"], {"k": 3.7}, "argument --k: invalid int value: '3.7'"),
            (["search"], {"m": 2.5}, "argument --m: invalid int value: '2.5'"),
            (["search"], {"seed": 1000.0}, "argument --seed: invalid int value"),
            (["demo-flat"], {"K": 2.0}, "argument --K: invalid int value: '2.0'"),
            (["search"], {"hausdorff": "yes"}, "'hausdorff' takes true or false"),
            (["search"], {"hausdorff": 1}, "'hausdorff' takes true or false"),
            (["pack"], {"C": None}, "'C' takes a number or a string"),
            (["search"], {"k": True}, "'k' takes a number or a string"),
            (["search"], {"k": [3]}, "'k' takes a number or a string"),
            (["search"], {"eps": {"value": 0.5}}, "'eps' takes a number or a string"),
            (["pack"], {"format": "json"}, "unknown key 'format' for pack"),
        ],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, argv, values, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        with time_limit(10.0):
            try:
                rc, out = run(tmp_path, "out.json", argv + ["--config", str(cfg)])
            except SystemExit as exc:  # argparse refuses a value it cannot convert
                rc, out = exc.code, tmp_path / "out.json"
        assert rc == 2 and not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, values, flags",
        [
            (["search"], {"k": "3"}, ["--k", "3"]),
            (["search"], {"eps": "0.5"}, ["--eps", "0.5"]),
            # an integer for a float option is written as the float, like the flag
            (["search"], {"r": 1}, ["--r", "1"]),
            (["search"], {"hausdorff": False}, []),
            (["growth", "--R-from", "3", "--R-to", "5"], {"R_step": "0.5"}, ["--R-step", "0.5"]),
            (["growth", "--R-from", "3"], {"R-to": 5}, ["--R-to", "5"]),
        ],
    )
    def test_values_parse_like_flags(self, tmp_path, argv, values, flags):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        rc_a, a = run(tmp_path, "a.out", argv + ["--config", str(cfg)])
        rc_b, b = run(tmp_path, "b.out", argv + flags)
        assert rc_a == rc_b == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"R": 3.0, "eps": 0.5}', "unknown key 'eps' for pack"),
            ('{"R-typo": 3.0}', "unknown key 'R-typo' for pack"),
            ('{"command": "search"}', "unknown key 'command' for pack"),
            ("[1, 2]", "one JSON object"),
        ],
    )
    def test_bad_config_exit_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        with time_limit(10.0):
            rc = main(["pack", "--config", str(cfg)])
        assert rc == 2
        assert message in capsys.readouterr().err


def _as_lists(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, dict):
        return {key: _as_lists(value) for key, value in o.items()}
    if isinstance(o, (list, tuple)):
        return [_as_lists(item) for item in o]
    return o


def _joined(payload) -> str:
    return "".join(_dump_json(payload))


def _dumped(payload) -> str:
    return json.dumps(_as_lists(payload), sort_keys=True, indent=2) + "\n"


def _special_rows(n, pattern, special, where):
    """n rows of 3 columns: `pattern` "one" varies only column 1, "all" varies
    every column, "none" none, "dirs" puts a unit direction in columns 1 and
    2, as a packing center row does; `special` is put in column 0 of every
    row ("constant") or of the middle row ("varying")."""
    rows = np.tile([2.5, -1.0, 0.1], (n, 1))
    ramp = np.arange(n) / 7.0
    if pattern in ("one", "all"):
        rows[:, 1] += ramp
    if pattern == "all":
        rows[:, 0] += ramp
        rows[:, 2] -= ramp
    if pattern == "dirs":
        rows[:, 1], rows[:, 2] = np.cos(ramp), np.sin(ramp)
    if where == "constant":
        rows[:, 0] = special
    elif special is not None:
        rows[n // 2, 0] = special
    return rows


def _varying_columns(rows) -> int:
    """The varying values per row _write_float_rows formats: the columns
    whose bits differ between rows, at least one."""
    bits = rows.view(np.uint64)
    return max(int((bits != bits[0]).any(axis=0).sum()), 1)


#: Payloads whose artifact text must equal json.dumps(sort_keys=True, indent=2).
_PAYLOADS = [
    {"floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-05, 3.0, -2.0, 0.1]},
    {"scalars": [True, False, None, 0, -7, 2**70, np.float64(0.1)], "b": True, "n": None},
    {"text": ["\u00e9\u2202\u20ac\U0001f600", "a\x00b\x1f\n\t\"\\/", ""], "\u00e9 key\n": 1},
    {"empty": [], "nothing": {}, "rows": np.zeros((0, 3)), "deep": [[[]], {"a": {}}]},
    {"one": np.array([[1.5]]), "wide": np.array([[1.0, -0.0, math.nan, math.inf, -math.inf]])},
    {"tall": np.random.default_rng(5).standard_normal((7, 3)) * 1e17, "cols": np.zeros((3, 0))},
    {"tuple": (1, (2.5, ()), [np.array([[0.5, 2.0]])]), "ints": np.arange(6).reshape(2, 3)},
    {"vector": np.array([1.0, 2.0]), "single": np.float32([[0.1]])},
    [np.ones((2, 2)), {"z": 1, "a": [{"y": (), "b": 1e-300}]}],
    [],
    {},
    "top",
    -0.0,
    {1: "int key", 2: [np.zeros((1, 1))]},
    {"many": [np.full((1, 2), i + 0.5) for i in range(12)], "deep": {"x": [[np.eye(2)]]}, "s": '"0:1"'},
]


class TestArtifactWriter:
    """Artifacts have the bytes of json.dumps(sort_keys=True, indent=2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["pack", "--C", "1", "--R", "6"],
            ["growth", "--C", "1", "--R-from", "3", "--R-to", "12", "--format", "json"],
            ["search", "--m", "2", "--k", "3"],
            ["search", "--m", "2", "--k", "2", "--hausdorff"],
            ["search", "--map", "busemann", "--k", "2", "--R-max", "16.5"],
            ["demo-flat", "--K", "8"],
        ],
        ids=["pack", "growth", "search", "hausdorff", "exhausted", "demo-flat"],
    )
    def test_artifact_round_trip(self, tmp_path, argv):
        with time_limit(60.0):
            rc, out = run(tmp_path, "artifact.json", argv)
        assert rc == (3 if "--R-max" in argv else 0)
        text = out.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("payload", _PAYLOADS)
    def test_writer_matches_json_dumps(self, payload):
        assert _joined(payload) == _dumped(payload)

    @pytest.mark.parametrize("tokens", [1, 2, 5])
    def test_writer_in_pieces_of_few_tokens(self, monkeypatch, tokens):
        # a placeholder and the start of its line fall in different pieces
        monkeypatch.setattr(hypack.cli, "_JSON_TOKENS", tokens)
        for payload in _PAYLOADS:
            assert _joined(payload) == _dumped(payload)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_writer_rows_in_chunks(self, monkeypatch, chunk):
        rows = np.random.default_rng(chunk).standard_normal((7, 3))
        rows[5, 1] = math.nan
        monkeypatch.setattr(hypack.cli, "_PIECE_VALUES", 3 * chunk)  # `chunk` rows of 3 varying values
        for payload in ({"rows": rows}, {"rows": rows[np.isfinite(rows).all(axis=1)]}):
            assert _joined(payload) == _dumped(payload)

    @pytest.mark.parametrize(
        "rows",
        [
            np.full((5, 3), -0.0),
            np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]),
            np.column_stack((np.full(4, math.nan), np.arange(4.0), np.full(4, math.nan))),
            np.column_stack((np.full(4, math.inf), np.arange(4.0), np.full(4, -math.inf))),
            np.vstack((np.full((5, 3), 10.5), [[10.5, 10.5, 10.500000000000002]])),
            np.array([[0.1, -0.0, math.nan, math.inf]]),
            np.tile([0.1, 1e-300, -2.5], (6, 1)),
            np.column_stack((np.full(5, 0.1), np.linspace(0.0, 1.0, 5))).astype(np.float32),
        ],
        ids=["minus-zero", "mixed-zeros", "nan", "inf", "last-row", "one-row", "all-constant", "float32"],
    )
    def test_writer_constant_columns(self, rows):
        assert _joined({"rows": rows}) == _dumped({"rows": rows})

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_writer_column_constant_within_one_chunk(self, monkeypatch, chunk):
        # column 0 repeats within a chunk of 2 rows, column 1 is constant
        rows = np.array([[1.0, 7.5], [1.0, 7.5], [2.0, 7.5], [2.0, 7.5], [3.0, 7.5]])
        monkeypatch.setattr(hypack.cli, "_PIECE_VALUES", chunk)
        assert _joined({"rows": rows}) == _dumped({"rows": rows})

    @pytest.mark.parametrize(
        "extra", [-1, 0, 1, "2x+1", "min-1", "min"], ids=["chunk-1", "chunk", "chunk+1", "2chunk+1", "min-1", "min"]
    )
    @pytest.mark.parametrize("pattern", ["one", "all", "none", "dirs"])
    @pytest.mark.parametrize(
        "special, where",
        [(None, None), (math.nan, "varying"), (math.inf, "varying"), (-math.inf, "varying"), (-0.0, "varying"),
         (math.nan, "constant"), (math.inf, "constant"), (-math.inf, "constant"), (-0.0, "constant")],
        ids=["finite", "nan", "inf", "-inf", "-0", "const-nan", "const-inf", "const--inf", "const--0"],
    )
    def test_writer_rows_around_the_chunk(self, extra, pattern, special, where):
        # at the real piece size: one row short of, at, past and two past a
        # piece; and one row short of and at the fewest varying values that
        # floattext.repr_texts formats, on either side of its threshold
        q = _varying_columns(_special_rows(5, pattern, special, where))
        chunk = hypack.cli._PIECE_VALUES // q
        least = -(-hypack.cli._REPR_TEXTS_MIN // q)  # rows
        sizes = {"2x+1": 2 * chunk + 1, "min-1": least - 1, "min": least}
        n = sizes[extra] if isinstance(extra, str) else chunk + extra
        rows = _special_rows(n, pattern, special, where)
        payload = {"rows": rows, "deep": [{"rows": rows}]}
        assert _joined(payload) == _dumped(payload)

    def test_writer_memory_is_bounded(self):
        # one chunk of floats, reprs and text at a time, not all the rows'
        rows = np.random.default_rng(1).standard_normal((20_000, 14))
        size = 0
        tracemalloc.start()
        try:
            for piece in _write_float_rows(rows, "\n  "):
                size += len(piece)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == len(json.dumps(rows.tolist(), indent=2).replace("\n", "\n  "))
        assert peak < 0.5 * size

    def test_large_pack_memory_is_bounded(self, tmp_path):
        # 200,000 centers, a 17.5 MB artifact: streamed, the rows' text is
        # never held whole (holding it as one string, the call peaked at 68 MB)
        tracemalloc.start()
        try:
            with time_limit(60.0):
                rc, out = run(tmp_path, "pack.json", ["pack", "--C", "1", "--R", "13", "--cap", "200000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert json.loads(out.read_text())["family"]["n_centers"] == 200_000
        assert peak < 40e6

    def test_growth_json_memory_is_bounded(self, tmp_path, monkeypatch):
        # 90,001 rows, a 15 MB artifact, streamed: as a list of dicts dumped to
        # one string, the call peaked at 121 MB; streamed, at 3.7 MB, most of
        # it the list of R values.  growth_table takes 6 s for these R values
        # (40 s under tracemalloc), so the rows are made up here.
        rows = [
            GrowthRow(R=3.0 + i * 1e-4, alpha=1.0 / (i + 1), family_size=float(i + 2), lower_bound=0.5 * i,
                      ratio=None if i == 0 else 1.0 + 1.0 / i)
            for i in range(90_001)
        ]
        monkeypatch.setattr(hypack.cli, "growth_table", lambda C, R: rows)
        argv = ["growth", "--R-from", "3", "--R-to", "12", "--R-step", "0.0001", "--format", "json"]
        tracemalloc.start()
        try:
            with time_limit(120.0):
                rc, out = run(tmp_path, "growth.json", argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 6e6
        payload = {"schema": 2, "command": "growth", "C": 1.0, "rows": [dataclasses.asdict(row) for row in rows]}
        assert out.read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_failed_write_leaves_the_old_artifact(self, tmp_path, monkeypatch):
        out = tmp_path / "pack.json"
        out.write_text("previous artifact\n")
        real = hypack.cli._write_float_rows

        def fails_after_the_first_chunk(rows, newline):
            pieces = real(rows, newline)
            yield next(pieces)
            raise RuntimeError("formatter failed")

        monkeypatch.setattr(hypack.cli, "_write_float_rows", fails_after_the_first_chunk)
        with time_limit(30.0), pytest.raises(RuntimeError, match="formatter failed"):
            main(["pack", "--C", "1", "--R", "11.5", "--cap", "20000", "--out", str(out)])
        assert out.read_text() == "previous artifact\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pack.json"]

    @pytest.mark.parametrize(
        "argv",
        [["pack", "--C", "1", "--R", "11.5", "--cap", "5000"], ["search", "--m", "2", "--k", "3"],
         ["growth", "--C", "1", "--R-from", "3", "--R-to", "12"]],
        ids=["pack", "search", "growth-csv"],
    )
    def test_stdout_has_the_artifact_bytes(self, tmp_path, capsys, argv):
        with time_limit(30.0):
            rc, out = run(tmp_path, "artifact", argv)
            assert main(argv) == rc == 0
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_artifact_mode_follows_the_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            rc, out = run(tmp_path, "pack.json", ["pack", "--C", "1", "--R", "6"])
        finally:
            os.umask(old)
        assert rc == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("payload", [{"a": object()}, [np.int64(3)], [np.bool_(True)]])
    def test_writer_refuses_what_json_refuses(self, payload):
        with pytest.raises(TypeError):
            json.dumps(payload, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            _joined(payload)


def _numeric_cases():
    """(command, option, value): every numeric option of search and pack at
    0, -1, nan, inf and 1e300, and at each of its limits plus and minus one."""
    limits = {
        ("search", "--m"): [1, 3, M_MAX - 1, M_MAX + 1],
        ("search", "--r"): [1],
        # 0.006 is near the smallest eps whose first rung is representable
        ("search", "--eps"): [1, 2, 0.006],
        ("search", "--k"): [1, 3],
        ("search", "--cap"): [1, 3, CAP_MAX - 1, CAP_MAX + 1],
        ("search", "--R-max"): [],
        ("search", "--seed"): [1],
        ("pack", "--C"): [1],
        ("pack", "--R"): [1, 3],  # the limit is 2C = 2
        ("pack", "--m"): [1, 3, M_MAX - 1, M_MAX + 1],
        ("pack", "--cap"): [1, 3, CAP_MAX - 1, CAP_MAX + 1],
    }
    return [
        (command, option, value)
        for (command, option), extra in limits.items()
        for value in dict.fromkeys(["0", "-1", "nan", "inf", "1e300", *map(str, extra)])
    ]


class TestNumericSweep:
    """Every numeric option of search and pack, at its edge values, exits 0, 2
    or 3 in-process within a time limit and a traced memory cap."""

    @pytest.mark.parametrize("command, option, value", _numeric_cases())
    def test_exit_code(self, tmp_path, capsys, command, option, value):
        tracemalloc.start()
        try:
            with time_limit(60.0):
                try:
                    rc = main([command, f"{option}={value}", "--out", str(tmp_path / "o.json")])
                except SystemExit as exc:  # argparse refuses what its type cannot parse
                    rc = exc.code
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc in (0, 2, 3)
        assert peak < 256e6
