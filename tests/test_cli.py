"""Command-line interface tests.

Most tests drive main() in process and parse the captured output; one
smoke test goes through the installed console script.
"""

import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coulomb1d import normalize, wavefunction
from coulomb1d.cli import main
from test_spectrum import EPS, exact_norm_integral, integral_error

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


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

    def test_negative_n_max_rejected(self, capsys):
        # an empty table with exit 0 before
        code, out, err = run_cli(["spectrum", "--n-max", "-1"], capsys)
        assert code == 2
        assert out == "" and "n-max" in err


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

    @pytest.mark.parametrize("n", ["342", "343"])
    def test_level_past_the_float_range_exits_two(self, n, capsys):
        code, out, err = run_cli(["wavefunction", "--n", n], capsys)
        assert code == 2
        assert out == "" and "leaves the float range" in err
        assert "Traceback" not in err

    def test_level_past_the_float_range_of_n_exits_two(self, capsys):
        # a 401-digit n raised OverflowError, exit 1 with a traceback
        code, out, err = run_cli(["wavefunction", "--n", "1" + "0" * 400], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: quantum number must be a non-negative integer")

    def test_normalized_n40_is_the_closed_form_norm(self, capsys):
        # the quadrature norm printed here was 7.5e-10 off
        _, out, _ = run_cli(["wavefunction", "--n", "40", "--normalized"], capsys)
        _, rows = parse_csv(out)
        xs = np.array([float(r["x"]) for r in rows])
        norm = normalize(40).norm
        assert np.array_equal([float(r["psi"]) for r in rows],
                              wavefunction(40, xs) * norm)
        assert integral_error(norm, exact_norm_integral(40)) <= 4 * EPS

    def test_exponent_form_window(self, capsys):
        code, out, _ = run_cli(["wavefunction", "--n", "0", "--x-min", "-1e1",
                                "--x-max", "1e1"], capsys)
        assert code == 0
        meta, rows = parse_csv(out)
        assert float(meta["x_min"]) == -10.0 and len(rows) == 2001


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

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-2.5e+0", "-.5e1"])
    def test_negative_exponent_form_is_a_value(self, value, capsys):
        # argparse's own negative-number pattern has no exponent form
        code, out, _ = run_cli(["wkb", "--energy", value], capsys)
        assert code == 0
        assert run_cli(["wkb", f"--energy={value}"], capsys)[1] == out
        assert float(parse_csv(out)[1][0]["energy"]) == float(value)

    def test_scattering_energy_rejected(self, capsys):
        code, _, err = run_cli(["wkb", "--energy", "2"], capsys)
        assert code == 2
        assert "error:" in err

    def test_deep_energy_has_a_finite_action(self, capsys):
        # the integrand at E itself overflowed to action = inf here
        code, out, _ = run_cli(["wkb", "--energy=-1e303"], capsys)
        assert code == 0
        action = float(parse_csv(out)[1][0]["action"])
        assert math.isclose(action, math.pi * math.sqrt(2e-303), rel_tol=4 * EPS)

    @pytest.mark.parametrize("energy", ["-1e-310", "-5e-324"])
    def test_subnormal_energy_exits_two(self, energy, capsys):
        code, out, err = run_cli(["wkb", f"--energy={energy}"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: turning point 1/|E|")

    def test_selector_is_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["wkb"])
        assert info.value.code == 2
        capsys.readouterr()


class TestExactStateBytes:
    """The whole stdout of the exact-state commands, pinned byte for byte
    in tests/golden: the WKB energies, actions and turning points to all
    17 digits, and the maslov_offset metadata line."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, name", [
        (["wkb", "--n", "3"], "wkb_n_3"),
        (["wkb", "--energy", "-2"], "wkb_energy_-2"),
        (["spectrum", "--n-max", "10"], "spectrum_n_max_10")],
        ids=["wkb-n", "wkb-energy", "spectrum"])
    def test_stdout(self, argv, name, fmt, capsys):
        argv = argv + (["--format", "json"] if fmt == "json" else [])
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / f"{name}.{fmt}").read_bytes()


class TestScanCommand:
    def test_care_needs_b(self, capsys):
        code, out, err = run_cli(["scan", "--family", "care", "--a", "1e-3"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: care scan requires --a and --b\n"

    def test_half_line_digits_do_not_follow_blas_threads(self):
        # numpy's @ on long vectors summed in as many parts as BLAS has
        # threads, which moved the energies' last digits
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        outputs = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "coulomb1d", "scan", "--family", "half-line"],
                capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_unknown_family_exits_two(self, capsys):
        # argparse's choices refuse it before any family is dispatched
        with pytest.raises(SystemExit) as info:
            main(["scan", "--family", "bogus"])
        assert info.value.code == 2
        assert "--family" in capsys.readouterr().err

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
        assert meta["points"] == "10432"
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
        assert [r["points"] for r in long_rows] == ["10248", "10432", "10616"]
        assert long_meta["points"] == "10616"

    def test_soft_core_graded_energies_within_their_estimate(self, capsys):
        # converged E0 from a graded prototype extrapolated far past the scan
        refs = {1e-2: -10.6134364, 1e-3: -29.7449778, 1e-4: -64.3522272}
        code, out, _ = run_cli(["scan", "--family", "soft-core",
                                "--a", "1e-2,1e-3,1e-4"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r["a"]) for r in rows] == list(refs)
        for r in rows:
            e0, err = float(r["e0"]), float(r["e0_error"])
            assert abs(e0 - refs[float(r["a"])]) <= err <= 1e-5 * abs(e0)

    def test_soft_core_graded_json(self, capsys):
        code, out, _ = run_cli(["scan", "--family", "soft-core", "--a",
                                "1e-2,1e-3", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["points"] == 10432
        assert [list(r) for r in doc["rows"]] == [
            ["a", "e0", "e0_error", "loudon_estimate", "ratio", "points"]] * 2
        for r in doc["rows"]:
            assert 0.0 < r["e0_error"] < 1e-5 * abs(r["e0"])
            assert r["ratio"] == r["e0"] / r["loudon_estimate"]

    @pytest.mark.parametrize("a", ["2e-8", "1e-8"])
    def test_soft_core_under_the_rounding_floor_exits_three(self, a, capsys):
        # these radii once printed E0 = +143.7 and +599.7 with exit 0
        code, out, err = run_cli(["scan", "--family", "soft-core", "--a", a], capsys)
        assert code == 3
        assert out == ""
        assert "the level carries no digits" in err

    def test_soft_core_smallest_guarded_radius_converges(self, capsys):
        # exact E0 from the Whittaker condition W'_{kappa,1/2}(2a/kappa) = 0,
        # E = -1/(2 kappa^2), with mpmath at 30 digits
        code, out, _ = run_cli(["scan", "--family", "soft-core", "--a", "1e-7"], capsys)
        assert code == 0
        (row,) = parse_csv(out)[1]
        e0, err = float(row["e0"]), float(row["e0_error"])
        assert abs(e0 - -276.685993088164) <= err <= 1e-3

    def test_soft_core_points_start_each_graded_grid(self, capsys):
        # --points is the coarsest of the three graded grids, the column
        # the finest; converged E0 as in the estimate test above
        code, out, _ = run_cli(["scan", "--family", "soft-core", "--a", "1e-2",
                                "--points", "5124"], capsys)
        assert code == 0
        meta, (row,) = parse_csv(out)
        assert meta["points"] == row["points"] == "20496"
        assert abs(float(row["e0"]) - -10.6134364) <= float(row["e0_error"])

    def test_soft_core_non_positive_radius(self, capsys):
        code, _, err = run_cli(["scan", "--family", "soft-core", "--a", "0"], capsys)
        assert code == 2
        assert "error:" in err

    def test_care_interleaving_verdict(self, capsys):
        code, out, _ = run_cli(["scan", "--family", "care", "--a", "1e-3",
                                "--b", "5e-3", "--half-width", "30",
                                "--points", "300000", "--k-max", "4"], capsys)
        assert code == 0
        meta, rows = parse_csv(out)
        assert meta["interleaved"] == "true"
        assert [r["parity"] for r in rows] == ["even", "odd", "even", "odd"]

    def test_unresolved_grid_refusal(self, capsys):
        code, _, err = run_cli(["scan", "--family", "care", "--a", "1e-4",
                                "--b", "5e-4", "--points", "1000"], capsys)
        assert code == 2
        assert "5400000" in err

    @pytest.mark.parametrize("flags, flag", [
        (["--b", "7"], "--b"), (["--k-max", "3"], "--k-max")])
    def test_soft_core_refuses_unread_flags(self, flags, flag, capsys):
        code, out, err = run_cli(["scan", "--family", "soft-core", "--a", "1e-2",
                                  *flags], capsys)
        assert (code, out) == (2, "")
        assert f"{flag} is not read by scan --family soft-core" in err

    @pytest.mark.parametrize("flags, flag", [
        (["--a", "0.5", "--points", "800"], "--a"), (["--b", "0.5"], "--b")])
    def test_half_line_refuses_unread_flags(self, flags, flag, capsys):
        code, out, err = run_cli(["scan", "--family", "half-line", *flags], capsys)
        assert (code, out) == (2, "")
        assert f"{flag} is not read by scan --family half-line" in err

    def test_soft_core_requires_radii(self, capsys):
        code, _, _ = run_cli(["scan", "--family", "soft-core"], capsys)
        assert code == 2

    @pytest.mark.parametrize("family, flags, message", [
        ("half-line", ["--half-width", "0", "--points", "0", "--k-max", "0"],
         "half_width must be positive, got 0.0"),
        ("half-line", ["--points", "0"], "need at least 8 mesh points, got 0"),
        ("half-line", ["--k-max", "0"], "k_max must lie in [1, N/4]"),
        ("care", ["--a", "1e-3", "--b", "5e-3", "--half-width", "0"],
         "half_width must be positive, got 0.0"),
        ("care", ["--a", "1e-3", "--b", "5e-3", "--points", "0"],
         "need at least 8 mesh points, got 0"),
        ("care", ["--a", "1e-3", "--b", "5e-3", "--k-max", "0"],
         "k_max must lie in [1, N/4]"),
        ("soft-core", ["--a", "1e-2", "--half-width", "0"],
         "half_width must be positive, got 0.0"),
        ("soft-core", ["--a", "1e-2", "--half-width", "-5"],
         "half_width must be positive, got -5.0"),
        ("soft-core", ["--a", "1e-2", "--points", "0"],
         "need at least 8 mesh points, got 0"),
    ])
    def test_zero_and_negative_flags_are_not_defaults(self, family, flags, message,
                                                      capsys):
        code, out, err = run_cli(["scan", "--family", family, *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("family, flags", [
        ("soft-core", ["--a", "1e-2"]),
        ("care", ["--a", "1e-3", "--b", "5e-3"]),
        ("half-line", []),
    ])
    def test_infinite_half_width_is_a_flag_error(self, family, flags, capsys):
        code, out, err = run_cli(["scan", "--family", family, *flags,
                                  "--half-width", "inf"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: half_width must be positive and finite, got inf\n"

    @pytest.mark.parametrize("family, flags, half_width, core", [
        ("soft-core", ["--a", "5e-324"], 30.0, 5e-324),
        ("soft-core", ["--a", "1e-2", "--half-width", "1e308"], 1e308, 1e-2),
        ("care", ["--a", "1e-3", "--b", "5e-3", "--half-width", "1e308"], 1e308, 1e-3),
    ])
    def test_count_past_the_float_range_is_a_flag_error(self, family, flags,
                                                        half_width, core, capsys):
        # a traceback and exit 1 before, from an OverflowError
        code, out, err = run_cli(["scan", "--family", family, *flags], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: a grid of half-width {half_width:g} that resolves "
                       f"core radius {core:g} needs more points than the float "
                       "range holds\n")

    def test_explicit_points_past_the_float_range_is_a_flag_error(self, capsys):
        # a graded map whose s(L) overflows, with the count given: a
        # RuntimeWarning and "non-finite evaluation point" before
        code, out, err = run_cli(["scan", "--family", "soft-core", "--a", "5e-324",
                                  "--points", "100"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: a grid of half-width 30 that resolves core radius "
                       "4.94066e-324 needs more points than the float range holds\n")


class TestSolveCommand:
    def test_repulsive_core_records_its_parameters(self, capsys):
        code, out, _ = run_cli(["solve", "--family", "repulsive-core", "--a", "1e-2",
                                "--b", "0.1", "--half-width", "20", "--points",
                                "4000", "--k-max", "2"], capsys)
        assert code == 0
        meta, rows = parse_csv(out)
        assert (float(meta["a"]), float(meta["b"])) == (1e-2, 0.1)
        assert [r["parity"] for r in rows] == ["even", "odd"]

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

    def test_one_mesh_layout(self, capsys):
        argv = ["solve", "--family", "soft-core", "--a", "0.5",
                "--half-width", "20", "--points", "4000", "--k-max", "1"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        meta, rows = parse_csv(out)
        assert "staggered" not in meta
        assert rows[0]["parity"] == "even"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--no-stagger"])
        assert exc.value.code == 2
        assert "--no-stagger" in capsys.readouterr().err


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

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        path = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(["spectrum", "--n-max", "1", "--out", str(path)],
                                 capsys)
        assert code == 2
        assert out == "" and "error:" in err and str(path) in err
        assert not path.exists()

    def test_impossible_tolerance_exits_three(self, capsys):
        code, _, err = run_cli(["wavefunction", "--n", "2", "--x-min", "0.5",
                                "--x-max", "1.5", "--points", "3",
                                "--tolerance", "1e-40"], capsys)
        assert code == 3
        assert "converge" in err

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
    def test_tolerance_outside_its_domain_exits_two(self, value, capsys):
        with pytest.raises(SystemExit) as info:
            main(["wkb", "--n", "3", "--tolerance", value])
        assert info.value.code == 2
        assert f"must be positive and finite, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["scan", "--family", "half-line", "--points", "800"],
        ["solve", "--family", "half-line", "--half-width", "60",
         "--points", "800", "--k-max", "1"]])
    def test_grid_commands_take_no_tolerance(self, argv, capsys):
        # nothing in a grid solve reads it, so it must not enter the metadata
        with pytest.raises(SystemExit) as info:
            main(argv + ["--tolerance", "1e-6"])
        assert info.value.code == 2
        assert "--tolerance" in capsys.readouterr().err
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert "tolerance" not in parse_csv(out)[0]

    @pytest.mark.parametrize("value", ["0", "-1e-3", "nan", "inf"])
    def test_tolerance_must_be_positive_and_finite(self, value, capsys):
        with pytest.raises(SystemExit) as info:
            main(["wkb", "--n", "3", f"--tolerance={value}"])
        assert info.value.code == 2
        assert "positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n-max", "1"], ["wkb", "--n", "3"],
        ["wavefunction", "--n", "2", "--x-min", "0.5", "--x-max", "1.5",
         "--points", "3"],
        ["wavefunction", "--n", "1", "--x-min", "0.5", "--x-max", "1.5",
         "--points", "3"]])
    def test_recorded_tolerance_is_the_one_used(self, argv, capsys):
        # an unreachable tolerance reaches the computation, which refuses it
        code, _, err = run_cli(argv + ["--tolerance", "1e-40"], capsys)
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
        # the fallback imports the package from the source tree
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(cmd + ["spectrum", "--n-max", "1"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        _, rows = parse_csv(proc.stdout)
        assert [r["n"] for r in rows] == ["0", "1"]


def readme_examples():
    """The ``coulomb1d ...`` lines of README's "Command line" code block,
    continuation lines joined, as argv lists."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("coulomb1d ")]


class TestReadmeExamples:
    def test_every_example_runs(self, tmp_path, monkeypatch, capsys):
        examples = readme_examples()
        # every subcommand is shown
        assert {argv[0] for argv in examples} == {
            "spectrum", "wavefunction", "wkb", "scan", "solve"}
        monkeypatch.chdir(tmp_path)
        for argv in examples:
            code, _, err = run_cli(argv, capsys)
            assert code == 0, (argv, err)
        assert (tmp_path / "psi0.csv").is_file()
