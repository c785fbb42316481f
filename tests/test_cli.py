import json
import tracemalloc

import pytest

from conftest import time_limit
from hypack.cli import main
from hypack.maps import FLAT_GRAPH_K_MAX
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

    def test_csv_format_rejected(self, tmp_path):
        rc = main(["pack", "--C", "1", "--R", "3", "--format", "csv"])
        assert rc == 2

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

    def test_huge_family_terminates(self, tmp_path):
        # about 1.4e25 directions: the count passes 2**53 by far
        with time_limit(20.0):
            rc, _ = run(tmp_path, "pack.json", ["pack", "--C", "1", "--R", "60", "--cap", "100"])
        assert rc in (0, 2)


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
