import json
import math
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import PINWHEEL_R_MAX, pinwheel_map, time_limit
from hypack.cli import _dump_json, _write_float_rows, main
import hypack.cli
import hypack.search
from hypack.geometry import M_MAX
from hypack.maps import FLAT_GRAPH_K_MAX
from hypack.nets import build_reference_net
from hypack.packing import CAP_MAX
from hypack.search import SAMPLES_MAX


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
        assert payload["ladder"] == "plain" and payload["params"]["samples"] == 512
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

    def test_negative_samples_exit_2(self, capsys):
        with time_limit(60.0):
            rc = main(["search", "--map", "poincare", "--m", "2", "--k", "2", "--samples", "-3"])
        assert rc == 2
        assert "samples must be >= 0" in capsys.readouterr().err

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

    def test_samples_over_limit_exit_2(self, capsys):
        # 1e8 samples per ball would allocate GBs; refused before the search runs
        rc = refused_quickly(["search", "--samples", "100000000"])
        assert rc == 2
        assert f"<= {SAMPLES_MAX:,}" in capsys.readouterr().err

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
            ("1e300", "r is too large (r=1e+300, epsilon=0.5)"),
            ("1e16 --hausdorff", "r is too large (r=1e+16, epsilon=0.5)"),
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
        ],
    )
    def test_unrepresentable_first_rung_exit_2(self, capsys, argv, radius):
        assert refused_quickly(["search", *argv], seconds=2.0) == 2
        err = capsys.readouterr().err
        assert f"r is too large (r={float(argv[1])}, epsilon=" in err
        assert f"centers at radius {radius}, which exceeds the representable range" in err

    def test_hausdorff_net_grid_refused_before_any_rung(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("called")

        monkeypatch.setattr(hypack.search, "build_reference_net", never)
        monkeypatch.setattr(hypack.search, "generate_centers", never)
        assert refused_quickly(["search", "--m", "5", "--hausdorff"], seconds=2.0) == 2
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
        rc, _ = run(tmp_path, "search.json", ["search", "--m", "2", "--samples", "16", *argv])
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
    """Only the search draws random samples, so only it takes a seed."""

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

    def test_search_reads_seed_from_config(self, tmp_path):
        argv = ["search", "--r", "1", "--eps", "0.5", "--k", "3", "--samples", "16"]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 7}))
        _, a = run(tmp_path, "a.json", argv + ["--config", str(cfg)])
        _, b = run(tmp_path, "b.json", argv + ["--seed", "7"])
        assert json.loads(a.read_text())["params"]["seed"] == 7
        assert a.read_bytes() == b.read_bytes()


class TestDeterminism:
    def test_pack_byte_identical(self, tmp_path):
        _, a = run(tmp_path, "a.json", ["pack", "--C", "1", "--R", "6", "--m", "2"])
        _, b = run(tmp_path, "b.json", ["pack", "--C", "1", "--R", "6", "--m", "2"])
        assert a.read_bytes() == b.read_bytes()

    def test_search_byte_identical(self, tmp_path):
        argv = [
            "search", "--map", "poincare", "--m", "2",
            "--r", "1", "--eps", "0.5", "--k", "3", "--seed", "7",
        ]
        _, a = run(tmp_path, "a.json", argv)
        _, b = run(tmp_path, "b.json", argv)
        assert a.read_bytes() == b.read_bytes()


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
            (["search"], {"samples": 1000.0}, "argument --samples: invalid int value"),
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
            (["search", "--samples", "16"], {"k": "3"}, ["--k", "3"]),
            (["search", "--samples", "16"], {"eps": "0.5"}, ["--eps", "0.5"]),
            # an integer for a float option is written as the float, like the flag
            (["search", "--samples", "16"], {"r": 1}, ["--r", "1"]),
            (["search", "--samples", "16"], {"hausdorff": False}, []),
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

    @pytest.mark.parametrize(
        "payload",
        [
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
        ],
    )
    def test_writer_matches_json_dumps(self, payload):
        assert _dump_json(payload) == json.dumps(_as_lists(payload), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_writer_rows_in_chunks(self, monkeypatch, chunk):
        rows = np.random.default_rng(chunk).standard_normal((7, 3))
        rows[5, 1] = math.nan
        monkeypatch.setattr(hypack.cli, "_FLOAT_ROWS_CHUNK", chunk)
        for payload in ({"rows": rows}, {"rows": rows[np.isfinite(rows).all(axis=1)]}):
            assert _dump_json(payload) == json.dumps(_as_lists(payload), sort_keys=True, indent=2) + "\n"

    def test_writer_memory_is_bounded(self):
        # rows, then their text, then the joined text: about twice the text,
        # not the whole list of floats and their reprs at once
        rows = np.random.default_rng(1).standard_normal((20_000, 14))
        tracemalloc.start()
        try:
            text = _write_float_rows(rows, "\n  ")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(text)

    @pytest.mark.parametrize("payload", [{"a": object()}, [np.int64(3)], [np.bool_(True)]])
    def test_writer_refuses_what_json_refuses(self, payload):
        with pytest.raises(TypeError):
            json.dumps(payload, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            _dump_json(payload)


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
        ("search", "--samples"): [1, SAMPLES_MAX - 1, SAMPLES_MAX + 1],
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
