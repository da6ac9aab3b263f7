"""CLI contract: outputs, determinism, exit codes, external formats."""

import csv
import io
import json
import subprocess
import sys
import tracemalloc

import pytest

import hierspec.closedform as cf
from hierspec.bounds import REPORT_COLUMNS, bound_report
from hierspec.cli import (EXIT_CERTIFICATION, EXIT_DOMAIN, EXIT_OK,
                          format_table, main)
from hierspec.hierops import VolumeGrid
from hierspec.lattice import LatticeParams
from hierspec.schrodinger import powerlaw_potential

RUN = [sys.executable, "-m", "hierspec.cli"]


def run_cli(args, tmp_path=None):
    # a hanging command fails its test instead of stalling the suite;
    # 120 s leaves room for selftest
    return subprocess.run(RUN + args, capture_output=True, text=True,
                          timeout=120)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))


class TestSpectrumCommand:
    def test_closed_form_rows(self):
        out = run_cli(["spectrum", "--nu", "2", "--p", "0.5", "--depth", "3",
                       "--method", "closed"])
        assert out.returncode == 0
        rows = parse_csv(out.stdout)
        assert rows[0] == ["eigenvalue", "multiplicity"]
        values = [(float(a), int(b)) for a, b in rows[1:]]
        assert values == [(1.0, 4), (0.5, 2), (0.25, 1),
                          (pytest.approx(1 / 12), 1)]

    def test_dense_agrees_with_closed(self):
        closed = run_cli(["spectrum", "--nu", "2", "--p", "0.5", "--depth", "3",
                          "--method", "closed"]).stdout
        dense = run_cli(["spectrum", "--nu", "2", "--p", "0.5", "--depth", "3",
                         "--method", "dense"]).stdout
        for (a1, m1), (a2, m2) in zip(parse_csv(closed)[1:],
                                      parse_csv(dense)[1:]):
            assert float(a1) == pytest.approx(float(a2), abs=1e-10)
            assert m1 == m2


class TestHeatCommand:
    def test_trivial_value(self):
        out = run_cli(["heat", "--nu", "2", "--p", "0.5", "--t", "0", "--r", "0"])
        assert out.returncode == 0
        assert parse_csv(out.stdout)[1] == ["0", "0", "1"]

    def test_profile_columns(self):
        out = run_cli(["heat", "--nu", "4", "--p", "0.5", "--profile",
                       "--t", "100:10000:5"])
        rows = parse_csv(out.stdout)
        assert rows[0] == ["t", "log_phase", "profile"]
        assert len(rows) == 6
        phases = [float(r[1]) for r in rows[1:]]
        assert all(0.0 <= ph < 1.0 for ph in phases)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            out = run_cli(["walk", "--nu", "2", "--p", "0.5", "--horizon", "9",
                           "--seed", "5", "--output", str(path)])
            assert out.returncode == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_round_trip_exact(self, tmp_path):
        path = tmp_path / "r.json"
        assert run_cli(["resolvent", "--nu", "2", "--p", "0.5", "--r", "1",
                        "--lam", "0.1:10:7", "--format", "json",
                        "--output", str(path)]).returncode == 0
        payload = json.loads(path.read_text())
        from hierspec import resolvent
        from hierspec.lattice import LatticeParams
        for lam, r, value in payload["rows"]:
            exact = resolvent(LatticeParams(2, 0.5), lam, int(r)).real
            assert value == exact  # shortest round-trip repr is lossless

    def test_heat_grid_rerun_identical(self):
        runs = [run_cli(["heat", "--nu", "2", "--p", "0.5", "--t", "1:100:6"])
                for _ in range(2)]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout

    def test_csv_line_endings(self, tmp_path):
        path = tmp_path / "s.csv"
        run_cli(["spectrum", "--nu", "2", "--p", "0.5", "--depth", "2",
                 "--output", str(path)])
        raw = path.read_bytes()
        assert raw.count(b"\r\n") == raw.count(b"\n")


class TestExitCodes:
    def test_unknown_flag(self):
        assert run_cli(["heat", "--nu", "2", "--p", "0.5", "--t", "1",
                        "--bogus"]).returncode == 1

    def test_domain_violation_reports_precondition(self):
        out = run_cli(["ids", "--nu", "2", "--p", "0.5", "--lam", "-1"])
        assert out.returncode == 1
        assert "lam" in out.stderr

    def test_bad_parameter_range(self):
        assert run_cli(["heat", "--nu", "1", "--p", "0.5", "--t", "1"]).returncode == 1
        assert run_cli(["heat", "--nu", "2", "--p", "1.5", "--t", "1"]).returncode == 1

    def test_negative_walk_start_rejected(self):
        out = run_cli(["walk", "--nu", "2", "--p", "0.5", "--horizon", "2",
                       "--x0", "-3"])
        assert out.returncode == 1
        assert "nonnegative" in out.stderr

    def test_tolerance_override_clamped(self):
        ok = run_cli(["heat", "--nu", "2", "--p", "0.5", "--t", "1",
                      "--tol", "1e-12"])
        assert ok.returncode == 0
        assert "tol=" in ok.stdout
        loose = run_cli(["heat", "--nu", "2", "--p", "0.5", "--t", "1",
                         "--tol", "1e-6"])
        assert loose.returncode == 1
        assert "1e-10" in loose.stderr

    def test_selftest_passes(self):
        out = run_cli(["selftest"])
        assert out.returncode == 0
        assert "PASS" in out.stdout

    @pytest.mark.parametrize("option", ["--format", "--output"])
    def test_selftest_takes_no_table_options(self, tmp_path, option):
        path = tmp_path / "out.csv"
        out = run_cli(["selftest", option,
                       "csv" if option == "--format" else str(path)])
        assert out.returncode == 1
        assert "unrecognized arguments" in out.stderr
        assert not path.exists()

    @pytest.mark.parametrize("args", [
        ["heat", "--t", "1:2:x"],
        ["heat", "--t", "a,b"],
        ["schrodinger", "--depth", "4", "--delta", "1@0", "--gammas", "a"],
        ["schrodinger", "--depth", "4", "--delta", "0.7"],
        ["schrodinger", "--depth", "4", "--delta", "a@0"],
        ["schrodinger", "--depth", "4", "--powerlaw", "1,2"],
        ["schrodinger", "--depth", "4", "--potential", "no-such-file.json"],
        ["annihilated", "--mode", "p1", "--r", "1"],
        ["annihilated", "--mode", "resolvent", "--r", "1"],
        ["zeta", "--mode", "theta"],
        ["walk", "--horizon", "nan"],
        ["walk", "--horizon", "inf"],
        ["schrodinger", "--depth", "4", "--delta", "nan@0"],
        ["schrodinger", "--depth", "4", "--powerlaw", "inf,2,2"],
        ["ids", "--lam", "nan"],
        ["annihilated", "--mode", "p1", "--r", "1", "--t", "nan,2"],
        ["bounds", "--depth", "4", "--radius", "2", "--thetas", "0.8",
         "--sigma", "nan"],
        ["heat", "--t", "nan"],
        ["heat", "--t", "1:inf:3"],
        ["resolvent", "--lam", "inf"],
        ["zeta", "--mode", "zeta", "--z-re", "nan"],
        ["walk", "--horizon", "1e9"],
    ])
    def test_malformed_input_is_a_domain_error(self, args):
        out = run_cli([args[0], "--nu", "2", "--p", "0.5"] + args[1:])
        assert out.returncode == 1
        assert "error:" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("args", [
        ["walk", "--horizon", "nan"],
        ["heat", "--t", "nan"],
        ["heat"],
    ])
    def test_usage_error_is_one_line(self, args):
        # argparse faults and domain faults print the same shape
        out = run_cli([args[0], "--nu", "2", "--p", "0.5"] + args[1:])
        assert out.returncode == 1
        assert out.stderr.startswith("error:")
        assert out.stderr.count("\n") == 1 and out.stderr.endswith("\n")

    def test_help_exits_zero(self):
        out = run_cli(["walk", "--help"])
        assert out.returncode == 0
        assert out.stdout.startswith("usage: hierspec walk")


class TestSchrodingerCommand:
    def test_potential_file(self, tmp_path):
        pot = tmp_path / "v.json"
        pot.write_text('{"sites": [[0, "5.0"]], "origin": 0}')
        out = run_cli(["schrodinger", "--nu", "2", "--p", "0.5", "--depth", "8",
                       "--potential", str(pot), "--gammas", "1.0"])
        assert out.returncode == 0
        rows = dict((r[0], float(r[1])) for r in parse_csv(out.stdout)[1:])
        assert rows["N0"] == 1.0
        assert rows["S_1"] == pytest.approx(rows["lambda_0"])

    def test_delta_shortcut(self):
        out = run_cli(["schrodinger", "--nu", "4", "--p", "0.5", "--depth", "4",
                       "--delta", "0.5@0"])
        rows = dict((r[0], float(r[1])) for r in parse_csv(out.stdout)[1:])
        assert rows["N0"] == 0.0  # below the 2/3 coupling threshold

    def test_requires_one_potential_source(self):
        out = run_cli(["schrodinger", "--nu", "2", "--p", "0.5", "--depth", "4"])
        assert out.returncode == 1

    @pytest.mark.parametrize("sites", ['[[1.5, 2.0]]', '[[1, "NaN"]]'])
    def test_potential_file_needs_integer_sites_and_finite_values(
            self, tmp_path, sites):
        pot = tmp_path / "v.json"
        pot.write_text('{"sites": %s, "origin": 0}' % sites)
        out = run_cli(["schrodinger", "--nu", "2", "--p", "0.5", "--depth",
                       "4", "--potential", str(pot)])
        assert out.returncode == 1
        assert out.stderr.startswith("error:")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("args", [
        ["schrodinger", "--depth", "4", "--powerlaw", "1,2,5"],
        ["bounds", "--depth", "4", "--radius", "5"],
    ])
    def test_radius_beyond_depth_refused(self, args):
        out = run_cli([args[0], "--nu", "2", "--p", "0.5"] + args[1:])
        assert out.returncode == 1
        assert "radius" in out.stderr
        assert "Traceback" not in out.stderr


class TestBoundsCommand:
    def test_report_columns_and_flags(self, tmp_path):
        path = tmp_path / "b.csv"
        out = run_cli(["bounds", "--nu", "2", "--p", "0.25", "--depth", "6",
                       "--thetas", "0.2,0.8", "--radius", "4", "--sigma", "0",
                       "--theorems", "clr,bargmann,bargmann-refined",
                       "--output", str(path)])
        assert out.returncode == 0
        rows = parse_csv(path.read_text())
        assert rows[0] == ["theorem", "a", "sigma", "gamma", "theta", "beta",
                           "functional", "actual", "fitted_constant", "flags"]
        by_theorem = {}
        for row in rows[1:]:
            by_theorem.setdefault(row[0], []).append(row)
        assert set(by_theorem) == {"clr", "bargmann", "bargmann-refined"}
        for row in by_theorem["clr"]:
            assert "divergent" in row[9]
        for row in by_theorem["bargmann"]:
            assert float(row[6]) >= 1.0

    def test_large_gamma_weights_stay_finite(self):
        # gamma = 40 makes each Gamma(1-gamma, x) of the tail weights
        # overflow on its own; the weights themselves are finite
        out = run_cli(["bounds", "--nu", "4", "--p", "0.5", "--depth", "3",
                       "--gamma", "40", "--sigma", "1", "--thetas", "1,2",
                       "--radius", "2", "--theorems",
                       "lt-weighted,lt-general-weighted"])
        assert out.returncode == 0, out.stderr
        rows = parse_csv(out.stdout)[1:]
        assert len(rows) == 4
        assert all(0.0 < float(row[6]) < float("inf") for row in rows)

    def test_weights_where_atoms_underflow(self, capsys):
        # at p = 1e-9 the free walk's atoms p**s T reach 0.0 in double
        assert main(["bounds", "--nu", "2", "--p", "1e-9", "--depth", "3",
                     "--radius", "2", "--thetas", "0.8", "--sigma", "1",
                     "--gamma", "1.5", "--theorems", "lt-weighted"]) == 0
        (row,) = parse_csv(capsys.readouterr().out)[1:]
        assert 0.0 < float(row[6]) < float("inf")


    @pytest.mark.parametrize("theorems", ["lt-general,lt-general-weighted",
                                          "clr"])
    def test_negative_sigma_exits_one(self, theorems):
        out = run_cli(["bounds", "--nu", "2", "--p", "0.25", "--depth", "4",
                       "--thetas", "0.8", "--radius", "2", "--sigma", "-1",
                       "--theorems", theorems])
        assert out.returncode == 1
        assert "sigma must be nonnegative" in out.stderr

    def test_csv_bytes_pinned(self):
        # RFC-4180 quoting of a cell holding a comma, empty cells for
        # None and 17 significant digits; no digit depends on the BLAS
        out = subprocess.run(RUN + [
            "bounds", "--nu", "2", "--p", "0.25", "--depth", "5",
            "--radius", "2", "--thetas", "0.8", "--theorems", "clr"],
            capture_output=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.endswith(
            b'clr,1,0,,0.80000000000000004,3,,1,,"divergent: divergent '
            b'integral: gamma=0.0, s_h=1 (p*nu=0.5)"\r\n')

    def test_json_rows_match_the_table_writer(self):
        out = run_cli(["bounds", "--nu", "2", "--p", "0.25", "--depth", "4",
                       "--thetas", "0.2,0.8", "--radius", "3", "--sigma", "1",
                       "--gamma", "0.8", "--format", "json"])
        assert out.returncode == 0, out.stderr
        params = LatticeParams(2, 0.25)
        thetas = [0.2, 0.8]
        rows = bound_report(
            VolumeGrid(params, 4),
            [powerlaw_potential(params, 0, th, 3.0, 3) for th in thetas],
            thetas, [3.0] * 2, sigma=1.0, gamma=0.8)
        table = [[row[c] for c in REPORT_COLUMNS] for row in rows]
        text = format_table(REPORT_COLUMNS, table, {}, "json")
        assert json.loads(text)["rows"] == json.loads(out.stdout)["rows"]

    def test_json_missing_cells_are_null(self):
        # the divergent clr row has no functional, fitted constant or gamma
        out = run_cli(["bounds", "--nu", "2", "--p", "0.25", "--depth", "4",
                       "--thetas", "0.2", "--radius", "3", "--theorems", "clr",
                       "--format", "json"])
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        (row,) = [dict(zip(payload["columns"], r)) for r in payload["rows"]]
        assert "divergent" in row["flags"]
        assert row["functional"] is None
        assert row["fitted_constant"] is None
        assert row["gamma"] is None

class TestImports:
    def test_mpmath_not_loaded(self):
        code = ("import sys, hierspec, hierspec.cli; "
                "print('mpmath' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_scipy_optimize_not_loaded(self):
        # the secular equation's roots come from closedform's own solver
        code = ("import sys, hierspec, hierspec.cli\n"
                "from hierspec.hierops import VolumeGrid\n"
                "from hierspec.lattice import LatticeParams\n"
                "from hierspec.schrodinger import secular_eigenvalue\n"
                "grid = VolumeGrid(LatticeParams(4, 0.5), 5)\n"
                "assert secular_eigenvalue(grid, 3, 1.0) > 0.0\n"
                "print('scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestInProcessMain:
    @pytest.mark.parametrize("argv, name", [
        (["heat", "--t", "0:5:40"], "heat_kernel"),
        (["heat", "--profile", "--t", "1:1e4:40"], "heat_profile"),
        (["resolvent", "--lam", "0.1:10:40"], "resolvent"),
        (["zeta", "--mode", "theta", "--t", "0:5:40"], "theta"),
    ])
    def test_grid_is_one_library_call(self, monkeypatch, capsys, argv, name):
        import hierspec.closedform as cf
        calls = []
        original = getattr(cf, name)

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(cf, name, counted)
        assert main([argv[0], "--nu", "2", "--p", "0.5"] + argv[1:]) == 0
        assert len(parse_csv(capsys.readouterr().out)) == 41
        assert len(calls) == 1 and len(calls[0]) == 40

    def test_main_returns_exit_codes(self, capsys):
        assert main(["heat", "--nu", "2", "--p", "0.5", "--t", "0"]) == 0
        capsys.readouterr()
        assert main(["ids", "--nu", "2", "--p", "0.5", "--lam", "0"]) == 1
        capsys.readouterr()

    def test_reruns_on_the_cached_parser_are_identical(self, capsys):
        # one parser serves every call of a process: interleaved commands
        # print what a fresh process prints
        tail = ["annihilated", "--nu", "2", "--p", "0.25", "--mode", "tail",
                "--r", "2", "--t", "0,0.5,3"]
        heat = ["heat", "--nu", "4", "--p", "0.5", "--r", "1", "--t", "1:9:5"]
        outs = []
        for argv in (tail, heat, tail, heat):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        for argv, first, again in ((tail, *outs[::2]), (heat, *outs[1::2])):
            fresh = subprocess.run(RUN + argv, capture_output=True,
                                   timeout=120).stdout
            assert first == again and first.encode() == fresh

    @pytest.mark.parametrize("argv", [
        ["ids", "--nu", "2", "--p", "0.99", "--lam", "1e-5"],
        ["zeta", "--nu", "2", "--p", "0.5", "--mode", "zeta", "--z-re",
         "-1100"],
        ["zeta", "--nu", "2", "--p", "0.5", "--mode", "zeta", "--z-re",
         "-1e300"],
        ["zeta", "--nu", "2", "--p", "0.5", "--mode", "zeta",
         "--z-re=-1e300"],
        ["heat", "--nu", "2", "--p", "0.5", "--t", f"0:1:{cf._MAX_ROWS + 1}"],
        ["zeta", "--nu", "2", "--p", "0.5", "--count", str(cf._MAX_ROWS + 1)],
        ["resolvent", "--nu", "2", "--p", "0.5", "--lam", "1e-300"],
        ["annihilated", "--nu", "2", "--p", "0.25", "--mode", "tail", "--r",
         "500", "--t", "1"],
        ["walk", "--nu", "2", "--p", "0.5", "--horizon", "1e8"],
        ["spectrum", "--nu", "2", "--p", "0.5", "--depth", "40"],
    ])
    def test_extreme_finite_inputs(self, capsys, argv):
        # a table, or one line naming the fault; never a traceback
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_CERTIFICATION)
        assert err.count("\n") <= 1 and "Traceback" not in err

    @pytest.mark.parametrize("z_re", ["-1e300", "-1E+300", "-2.5e-3",
                                      "-.5e1", "-1100"])
    def test_negative_exponent_form_is_a_value(self, capsys, z_re):
        # argparse's own negative-number pattern has no exponent
        argv = ["zeta", "--nu", "2", "--p", "0.5", "--mode", "zeta"]
        assert main(argv + ["--z-re", z_re]) == EXIT_OK
        spaced = capsys.readouterr()
        assert main(argv + [f"--z-re={z_re}"]) == EXIT_OK
        assert spaced.out == capsys.readouterr().out and not spaced.err
        row = parse_csv(spaced.out)[-1]
        assert float(row[0]) == float(z_re)
        assert complex(float(row[2]), float(row[3])) == cf.zeta_spectral(
            LatticeParams(2, 0.5), float(z_re))

    @pytest.mark.parametrize("r", ["465", "500"])
    def test_killed_tail_past_the_measure_floor(self, capsys, r):
        code = main(["annihilated", "--nu", "2", "--p", "0.25", "--mode",
                     "tail", "--r", r, "--t", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_DOMAIN
        assert err == (f"error: r = {r}: p**(r+1) is below the measure's "
                       "float floor 1e-280\n")

    @pytest.mark.parametrize("argv", [
        ["heat", "--t", f"0:1:{cf._MAX_ROWS + 1}"],
        ["ids", "--lam", f"1e-3:1:{cf._MAX_ROWS + 1}"],
        ["zeta", "--mode", "poles", "--count", str(cf._MAX_ROWS + 1)],
    ])
    def test_row_cap_refused_before_allocating(self, capsys, argv):
        tracemalloc.start()
        try:
            code = main([argv[0], "--nu", "2", "--p", "0.5"] + argv[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("error:")
        assert peak < 2**20

    def test_usage_error_after_a_success_exits_one(self, capsys):
        heat = ["heat", "--nu", "2", "--p", "0.5", "--t", "1"]
        assert main(heat) == 0
        capsys.readouterr()
        for argv in (heat + ["--bogus"], heat[:3], ["bogus"]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
        assert main(heat) == 0
