import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import time_limit
from hypack.cli import _dump_json, main
from hypack.maps import FLAT_GRAPH_K_MAX
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
        assert payload["schema"] == 1
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

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tolerance_exit_2(self, capsys, tol):
        with time_limit(10.0):
            rc = main(["pack", "--C", "1", "--R", "3", "--tolerance", tol])
        assert rc == 2
        assert "tolerance must be finite and >= 0" in capsys.readouterr().err

    def test_default_cap_beyond_enumeration_cap(self, tmp_path):
        # 48,539 centers: more than the O(n^2) sweep's cap, certified by the two lags
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
        assert payload["schema"] == 1 and len(payload["rows"]) == 3


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
        # the grids would span 9e7 and 6e9 lattice points (GBs); refused before allocating
        assert refused_quickly(["search", "--m", m]) == 2
        assert "lattice points, more than the limit" in capsys.readouterr().err

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
            # sinh(r) overflows past r = 710; the net's grid limit refuses it
            ("1000", "lattice points, more than the limit"),
            # the first default rung 2C + 2 rounds to 2C
            ("1e300", "need R > 2C"),
        ],
    )
    def test_huge_r_exit_2(self, capsys, r, message):
        assert refused_quickly(["search", "--r", r]) == 2
        assert message in capsys.readouterr().err

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


class TestTolerance:
    @pytest.mark.parametrize(
        "argv",
        [
            ["search"],
            ["growth", "--R-from", "3", "--R-to", "4"],
            ["demo-flat"],
        ],
    )
    def test_only_pack_takes_tolerance(self, argv, capsys):
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
        ],
    )
    def test_writer_matches_json_dumps(self, payload):
        assert _dump_json(payload) == json.dumps(_as_lists(payload), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("payload", [{"a": object()}, [np.int64(3)], [np.bool_(True)]])
    def test_writer_refuses_what_json_refuses(self, payload):
        with pytest.raises(TypeError):
            json.dumps(payload, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            _dump_json(payload)

    def test_writer_takes_string_keys_only(self):
        # json.dumps would write the key as "1"; no artifact has a non-string key
        with pytest.raises(TypeError):
            _dump_json({1: "int key"})
