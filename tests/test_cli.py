"""Command-line interface tests.

Most tests drive main() in process and parse the captured output; one
smoke test goes through the installed console script.
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from coulomb1d.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    """Split CLI CSV output into (metadata dict, list of row dicts)."""
    meta, names, rows = {}, None, []
    for line in text.strip().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            meta[key] = val
        elif names is None:
            names = line.split(",")
        else:
            rows.append(dict(zip(names, line.split(","))))
    return meta, rows


class TestSpectrumCommand:
    def test_low_levels_table(self, capsys):
        code, out, _ = run_cli(["spectrum", "--n-max", "2"], capsys)
        assert code == 0
        meta, rows = parse_csv(out)
        assert meta["schema"] == "spectrum"
        assert meta["schema_version"] == "1"
        assert [r["n"] for r in rows] == ["0", "1", "2"]
        assert [r["parity"] for r in rows] == ["even", "odd", "even"]
        assert [r["nodes"] for r in rows] == ["0", "1", "2"]
        exact = [float(r["exact_energy"]) for r in rows]
        np.testing.assert_allclose(exact, [-2.0, -0.5, -2.0 / 9.0], rtol=1e-15)

    def test_exact_and_wkb_columns_agree(self, capsys):
        _, out, _ = run_cli(["spectrum", "--n-max", "5"], capsys)
        _, rows = parse_csv(out)
        for r in rows:
            e, w = float(r["exact_energy"]), float(r["wkb_energy"])
            assert abs(w - e) <= 1e-10 * abs(e)

    def test_single_level_json(self, capsys):
        code, out, _ = run_cli(["spectrum", "--n-max", "0", "--format", "json"],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["n_max"] == 0
        assert len(doc["rows"]) == 1
        row = doc["rows"][0]
        assert row["n"] == 0
        assert row["exact_energy"] == -2.0
        assert row["nodes"] == 0


class TestWavefunctionCommand:
    def test_ground_state_peaks_at_origin(self, capsys):
        code, out, _ = run_cli(["wavefunction", "--n", "0"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2001
        psi = np.array([float(r["psi"]) for r in rows])
        mid = len(rows) // 2
        assert float(rows[mid]["x"]) == 0.0
        assert abs(psi[mid] - 0.5642) < 5e-4
        # everywhere positive; the origin sits in a sharp dip between
        # the two humps, so neighbors lie above the cusp value
        assert np.all(psi > 0)
        assert psi[mid - 1] > psi[mid] and psi[mid + 1] > psi[mid]

    def test_first_excited_closed_form(self, capsys):
        # step 0.25 is exact in binary, so the sample grid mirrors exactly
        _, out, _ = run_cli(["wavefunction", "--n", "1", "--x-min", "-2",
                             "--x-max", "2", "--points", "17"], capsys)
        _, rows = parse_csv(out)
        by_x = {float(r["x"]): float(r["psi"]) for r in rows}
        assert math.isclose(by_x[1.0], 2.0 * math.exp(-1.0), rel_tol=1e-12)
        for x, psi in by_x.items():
            assert by_x[-x] == -psi

    def test_normalized_scaling(self, capsys):
        # psi_1 integrates to 2, so the unit-norm value at x=1 is
        # 2 e^{-1} / sqrt(2)
        _, out, _ = run_cli(["wavefunction", "--n", "1", "--x-min", "0.0",
                             "--x-max", "1.0", "--points", "2",
                             "--normalized"], capsys)
        meta, rows = parse_csv(out)
        assert meta["normalized"] == "true"
        assert math.isclose(float(rows[1]["psi"]),
                            2.0 * math.exp(-1.0) / math.sqrt(2.0),
                            rel_tol=1e-8)

    def test_metadata_echoes_window(self, capsys):
        _, out, _ = run_cli(["wavefunction", "--n", "2", "--x-min", "-3",
                             "--x-max", "3", "--points", "7"], capsys)
        meta, rows = parse_csv(out)
        assert meta["n"] == "2"
        assert float(meta["x_min"]) == -3.0
        assert float(meta["x_max"]) == 3.0
        assert meta["points"] == "7"
        assert float(meta["energy"]) == -2.0 / 9.0
        assert len(rows) == 7

    def test_bad_window_is_a_flag_error(self, capsys):
        code, _, err = run_cli(["wavefunction", "--n", "0", "--x-min", "2",
                                "--x-max", "1"], capsys)
        assert code == 2
        assert "error:" in err
        code, _, _ = run_cli(["wavefunction", "--n", "0", "--points", "1"],
                             capsys)
        assert code == 2

    def test_negative_level_rejected(self, capsys):
        code, _, _ = run_cli(["wavefunction", "--n", "-1"], capsys)
        assert code == 2


class TestWkbCommand:
    def test_action_at_ground_energy(self, capsys):
        code, out, _ = run_cli(["wkb", "--energy", "-2"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["energy"]) == -2.0
        assert math.isclose(float(row["action"]), math.pi, rel_tol=1e-10)
        assert float(row["turning_point_lower"]) == -0.5
        assert float(row["turning_point_upper"]) == 0.5

    def test_action_below_ground(self, capsys):
        _, out, _ = run_cli(["wkb", "--energy", "-8"], capsys)
        _, rows = parse_csv(out)
        assert math.isclose(float(rows[0]["action"]), math.pi / 2.0,
                            rel_tol=1e-10)

    def test_quantized_level(self, capsys):
        _, out, _ = run_cli(["wkb", "--n", "3"], capsys)
        meta, rows = parse_csv(out)
        assert meta["n"] == "3"
        assert meta["maslov_offset"] == "1"
        assert math.isclose(float(rows[0]["energy"]), -0.125, rel_tol=1e-10)
        assert math.isclose(float(rows[0]["action"]), 4.0 * math.pi,
                            rel_tol=1e-10)

    def test_scattering_energy_rejected(self, capsys):
        code, _, err = run_cli(["wkb", "--energy", "2"], capsys)
        assert code == 2
        assert "error:" in err

    def test_selector_is_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["wkb"])
        assert info.value.code == 2
        capsys.readouterr()


class TestScanCommand:
    def test_half_line_levels(self, capsys):
        code, out, _ = run_cli(["scan", "--family", "half-line"], capsys)
        assert code == 0
        meta, rows = parse_csv(out)
        assert meta["points"] == "12000"
        assert [r["k"] for r in rows] == ["1", "2", "3"]
        for r, target in zip(rows, (-0.5, -0.125, -1.0 / 18.0)):
            e = float(r["energy"])
            assert abs(e - target) < 0.005 * abs(target)
            assert math.isclose(float(r["relative_error"]),
                                abs(e - target) / abs(target), rel_tol=1e-12)

    def test_soft_core_monotone_column(self, capsys):
        code, out, _ = run_cli(["scan", "--family", "soft-core",
                                "--a", "1e-2,1e-3"], capsys)
        assert code == 0
        meta, rows = parse_csv(out)
        assert meta["points"] == "300000"
        e0 = [float(r["e0"]) for r in rows]
        assert e0[0] > e0[1]
        for r in rows:
            assert math.isclose(float(r["ratio"]),
                                float(r["e0"]) / float(r["loudon_estimate"]),
                                rel_tol=1e-15)

    def test_soft_core_row_independent_of_other_radii(self, capsys):
        _, short, _ = run_cli(["scan", "--family", "soft-core",
                               "--a", "1e-2,1e-3"], capsys)
        _, long, _ = run_cli(["scan", "--family", "soft-core",
                              "--a", "1e-2,1e-3,1e-4"], capsys)
        short_meta, short_rows = parse_csv(short)
        long_meta, long_rows = parse_csv(long)
        assert short_rows == long_rows[:2]
        assert [r["points"] for r in long_rows] == ["30000", "300000", "3000000"]
        assert long_meta["points"] == "3000000"

    def test_soft_core_explicit_points_shared(self, capsys):
        code, out, _ = run_cli(["scan", "--family", "soft-core", "--a",
                                "1e-1,5e-2", "--points", "6000"], capsys)
        assert code == 0
        meta, rows = parse_csv(out)
        assert meta["points"] == "6000"
        assert [r["points"] for r in rows] == ["6000", "6000"]

    def test_soft_core_non_positive_radius(self, capsys):
        code, _, err = run_cli(["scan", "--family", "soft-core", "--a", "0"], capsys)
        assert code == 2
        assert "error:" in err

    def test_soft_core_radius_range_checked_before_any_solve(self, capsys,
                                                             monkeypatch):
        solved = []
        monkeypatch.setattr("coulomb1d.cli.soft_core_ground_scan",
                            lambda radii, g: solved.append(radii))
        code, _, err = run_cli(["scan", "--family", "soft-core", "--a", "1e-2,0.7"],
                               capsys)
        assert code == 2
        assert "0.7" in err
        assert solved == []

    def test_care_interleaving_verdict(self, capsys):
        code, out, _ = run_cli(["scan", "--family", "care", "--a", "1e-3",
                                "--b", "5e-3", "--half-width", "30",
                                "--points", "300000", "--k-max", "4"], capsys)
        assert code == 0
        meta, rows = parse_csv(out)
        assert meta["interleaved"] == "true"
        assert [r["parity"] for r in rows] == ["even", "odd", "even", "odd"]

    def test_unresolved_grid_refusal(self, capsys):
        code, _, err = run_cli(["scan", "--family", "soft-core", "--a", "1e-4",
                                "--points", "1000"], capsys)
        assert code == 4
        assert "3000000" in err

    def test_soft_core_requires_radii(self, capsys):
        code, _, _ = run_cli(["scan", "--family", "soft-core"], capsys)
        assert code == 2


class TestSolveCommand:
    def test_half_line_levels(self, capsys):
        code, out, _ = run_cli(["solve", "--family", "half-line",
                                "--half-width", "60", "--points", "12000",
                                "--k-max", "2"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["k"] for r in rows] == ["0", "1"]
        assert [r["parity"] for r in rows] == ["None", "None"]
        for r, target in zip(rows, (-0.5, -0.125)):
            assert abs(float(r["energy"]) - target) < 0.005 * abs(target)

    def test_plain_grid_on_regular_potential(self, capsys):
        code, out, _ = run_cli(["solve", "--family", "soft-core", "--a", "0.5",
                                "--half-width", "20", "--points", "4000",
                                "--k-max", "1", "--no-stagger"], capsys)
        assert code == 0
        meta, rows = parse_csv(out)
        assert meta["staggered"] == "false"
        assert float(rows[0]["energy"]) < 0

    def test_singular_family_needs_stagger(self, capsys):
        code, _, err = run_cli(["solve", "--family", "pure-coulomb",
                                "--half-width", "10", "--points", "1000",
                                "--k-max", "1", "--no-stagger"], capsys)
        assert code == 2
        assert "staggered" in err


class TestOutputPlumbing:
    def test_csv_json_round_trip_is_bit_identical(self, capsys):
        argv = ["spectrum", "--n-max", "3"]
        _, csv_out, _ = run_cli(argv, capsys)
        _, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
        _, csv_rows = parse_csv(csv_out)
        json_rows = json.loads(json_out)["rows"]
        assert len(csv_rows) == len(json_rows)
        for cr, jr in zip(csv_rows, json_rows):
            for key in ("exact_energy", "wkb_energy"):
                assert float(cr[key]) == jr[key]

    def test_repeat_invocations_are_byte_identical(self, capsys):
        _, first, _ = run_cli(["spectrum", "--n-max", "4"], capsys)
        _, second, _ = run_cli(["spectrum", "--n-max", "4"], capsys)
        assert first == second
        assert "timestamp" not in first

    def test_timestamp_only_behind_flag(self, capsys):
        _, out, _ = run_cli(["wkb", "--energy", "-2", "--timestamp"], capsys)
        meta, _ = parse_csv(out)
        assert "timestamp" in meta

    def test_tolerance_echoed_in_metadata(self, capsys):
        _, out, _ = run_cli(["wkb", "--energy", "-2", "--tolerance", "1e-11"],
                            capsys)
        meta, _ = parse_csv(out)
        assert float(meta["tolerance"]) == 1e-11

    def test_out_flag_writes_file(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(["spectrum", "--n-max", "1", "--out", str(path)],
                               capsys)
        assert code == 0
        assert out == ""
        _, direct, _ = run_cli(["spectrum", "--n-max", "1"], capsys)
        assert path.read_text() == direct

    def test_impossible_tolerance_exits_three(self, capsys):
        code, _, err = run_cli(["wavefunction", "--n", "2", "--x-min", "0.5",
                                "--x-max", "1.5", "--points", "3",
                                "--tolerance", "1e-40"], capsys)
        assert code == 3
        assert "converge" in err

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--bogus"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_console_script(self):
        exe = shutil.which("coulomb1d")
        cmd = [exe] if exe else [sys.executable, "-m", "coulomb1d"]
        proc = subprocess.run(cmd + ["spectrum", "--n-max", "1"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        _, rows = parse_csv(proc.stdout)
        assert [r["n"] for r in rows] == ["0", "1"]
