import contextlib
import gc
import io
import json
import math
import re

import pytest

from epszeta import (ElasticaParams, Modulus, epsilon, epsilon_any, epsilon_by_quadrature,
                     flexural_point, inflexural_point,
                     sample_curve, uniform_grid, zeta_any)
from epszeta import cli, quadrature
from epszeta.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_epsilon_large_real_text(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "epsilon", "--x", "0.5",
                           "--k", "2", "--modulus", "real")
        assert code == 0
        assert out.strip() == "0.367975"

    def test_zeta_imaginary_text(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "zeta", "--x", "0.5",
                           "--k", "2", "--modulus", "imaginary")
        assert code == 0
        assert out.strip() == "-0.616203"

    def test_zeta_large_real_complex_text(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "zeta", "--x", "0.5",
                           "--k", "2", "--modulus", "real")
        assert code == 0
        assert out.strip() == "0.663361 - 0.419309i"

    def test_upper_branch_conjugates(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "zeta", "--x", "0.5",
                           "--k", "2", "--branch", "upper")
        assert code == 0
        assert out.strip() == "0.663361 + 0.419309i"

    # one input per regime, plus the upper branch of large-real zeta
    RECORDS = [("epsilon", "0.5", "real", "lower"), ("zeta", "0.5", "real", "lower"),
               ("epsilon", "2", "real", "lower"), ("zeta", "2", "real", "lower"),
               ("zeta", "2", "real", "upper"), ("epsilon", "2", "imaginary", "lower"),
               ("zeta", "2", "imaginary", "lower")]

    @pytest.mark.parametrize("fn, k, modulus, branch", RECORDS)
    def test_json_round_trip(self, capsys, fn, k, modulus, branch):
        code, out, _ = run(capsys, "eval", "--fn", fn, "--x", "0.5", "--k", k,
                           "--modulus", modulus, "--branch", branch, "--format", "json")
        assert code == 0
        record = json.loads(out)
        m = getattr(Modulus, modulus)(float(k))
        expect = (complex(epsilon_any(0.5, m)) if fn == "epsilon"
                  else zeta_any(0.5, m, branch=branch))
        assert record == {"fn": fn, "x": 0.5, "k": m.k, "regime": m.regime.value,
                          "re": expect.real, "im": expect.imag}

    @pytest.mark.parametrize("fn, k, modulus, branch", RECORDS)
    def test_csv_round_trip(self, capsys, fn, k, modulus, branch):
        argv = ("eval", "--fn", fn, "--x", "0.5", "--k", k, "--modulus", modulus,
                "--branch", branch)
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "fn,x,k,regime,re,im"
        _, out, _ = run(capsys, *argv, "--format", "json")
        record = json.loads(out)
        # the csv carries the json record: the same keys, and values that parse back
        assert header.split(",") == list(record)
        for value, field in zip(record.values(), row.split(",")):
            assert (field if isinstance(value, str) else float(field)) == value
        if (fn, k, modulus) == ("epsilon", "0.5", "real"):
            # the standard dispatcher gives the public epsilon bit for bit
            assert float(row.split(",")[4]) == epsilon(0.5, 0.5)

    def test_negative_modulus_sign_stripped(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "epsilon", "--x", "0.5", "--k", "-0.5")
        assert code == 0
        assert out.strip() == "0.490203"

    def test_sliver_modulus_is_evaluated(self, capsys):
        # k in (1, 1 + 1e-12) is an ordinary large-real modulus
        code, out, _ = run(capsys, "eval", "--fn", "epsilon", "--x", "0.5",
                           "--k", "1.0000000000001", "--format", "json")
        assert code == 0
        assert json.loads(out)["re"] == epsilon_any(0.5, Modulus.real(1.0000000000001))

    def test_non_finite_result_exits_3(self, capsys):
        code, out, err = run(capsys, "eval", "--fn", "epsilon", "--x", "0.5",
                             "--k", "1e200")
        assert code == 3
        assert out == ""
        assert "domain error" in err and "large_real" in err

    def test_huge_real_modulus_zeta_exits_3(self, capsys):
        code, out, err = run(capsys, "eval", "--fn", "zeta", "--x", "0.5", "--k", "1e200")
        assert code == 3
        assert out == ""
        assert "domain error" in err and "k=1e+200" in err

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--fn", "gamma", "--x", "0.5", "--k", "0.5"])
        assert info.value.code == 2


class TestTables:
    def test_exit_zero_and_all_cells(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        for cell in ("0.490203", "0.462117", "0.367975",
                     "0.510020", "0.541445", "0.689051",
                     "0.054948", "0.663361 - 0.419309i",
                     "-0.050738", "-0.187029", "-0.616203"):
            assert cell in out
        assert out.count("Table") == 4

    def test_gap_over_threshold_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_TABLE_TOL", 0.0)
        code, out, _ = run(capsys, "tables")
        assert code == 4
        assert re.search(r"^FAIL: largest Present/Quadrature gap \S+ exceeds 0$", out,
                         re.MULTILINE)


class TestElastica:
    def test_csv_file_output(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "elastica", "--kind", "inflexural", "--k", "2",
                           "--omega", "1", "--u-min", "0", "--u-max", "1",
                           "--samples", "5", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "u,x,y"
        assert len(lines) == 6
        assert lines[1] == "0,0,-4"

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "curve.csv"
        with pytest.raises(SystemExit) as info:
            main(["elastica", "--kind", "inflexural", "--k", "2", "--u-min", "0",
                  "--u-max", "1", "--samples", "5", "--out", str(path)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"epszeta elastica: error: cannot write --out {path}: No such file or directory")
        assert not path.parent.exists()

    def test_stdout_output(self, capsys):
        code, out, _ = run(capsys, "elastica", "--kind", "flexural", "--k", "0.5",
                           "--omega", "1", "--u-min", "0", "--u-max", "2",
                           "--samples", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "u,x,y"
        assert len(lines) == 4

    def test_empty_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["elastica", "--kind", "inflexural", "--k", "2", "--omega", "1",
                  "--u-min", "0", "--u-max", "0", "--samples", "2"])
        assert info.value.code == 2

    def test_single_sample_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["elastica", "--kind", "inflexural", "--k", "2", "--omega", "1",
                  "--u-min", "0", "--u-max", "1", "--samples", "1"])
        assert info.value.code == 2

    def test_infinite_bound_is_domain_error(self, capsys):
        # the error names the bounds, not the nan grid point they would give
        code, _, err = run(capsys, "elastica", "--kind", "flexural", "--k", "0.5",
                           "--u-min=-inf", "--u-max", "0", "--samples", "3")
        assert code == 3
        assert "uniform_grid requires finite u_min < u_max, got u_min=-inf, u_max=0.0" in err

    def test_flexural_large_k_is_domain_error(self, capsys):
        code, _, err = run(capsys, "elastica", "--kind", "flexural", "--k", "2",
                           "--omega", "1", "--u-min", "0", "--u-max", "1",
                           "--samples", "3")
        assert code == 3
        assert "domain error" in err

    def test_inflexural_huge_k_is_domain_error(self, capsys):
        code, out, err = run(capsys, "elastica", "--kind", "inflexural", "--k", "1e200",
                             "--u-min", "0", "--u-max", "1", "--samples", "3")
        assert code == 3
        assert out == ""
        assert "domain error" in err

    # the first point past the float range: flexural y = -2k cn(u + K)/omega
    # is about 0 at u = 0, inflexural y = -2k/omega there
    @pytest.mark.parametrize("kind, k, u", [("flexural", "0.5", "0.5"),
                                            ("inflexural", "2", "0.0")])
    def test_non_finite_point_is_domain_error(self, capsys, kind, k, u):
        # a subnormal omega: the export wrote inf,inf rows and exited 0
        code, out, err = run(capsys, "elastica", "--kind", kind, "--k", k,
                             "--omega", "1e-310", "--u-min", "0", "--u-max", "1",
                             "--samples", "3")
        assert code == 3
        assert out == ""
        assert err == (f"domain error: {kind}_point(u={u}) has no finite value "
                       f"for k={float(k)!r}, omega=1e-310\n")

    # a point past the reduction bound: the descent fails, and the error
    # names the curve's arc parameter u as the non-finite point above does
    @pytest.mark.parametrize("kind, k, regime", [("flexural", "0.5", "standard"),
                                                 ("inflexural", "2", "large_real")])
    def test_failed_descent_names_u(self, capsys, kind, k, regime):
        code, out, err = run(capsys, "elastica", "--kind", kind, "--k", k,
                             "--u-min", "0", "--u-max", "1e16", "--samples", "2")
        assert code == 3
        assert out == ""
        assert err.startswith(f"domain error: {kind}_point(u=1e+16) fails for the "
                              f"{regime} modulus k={float(k)!r}: ")


class TestExportInOnePass:
    # the benchmark's export shape: 600 samples on [0, 12]
    EXPORT = ("elastica", "--kind", "inflexural", "--k", "1.7", "--u-min", "0",
              "--u-max", "12", "--samples", "600")

    @pytest.mark.parametrize("kind, k", [("flexural", 0.6), ("inflexural", 1.7)])
    @pytest.mark.parametrize("omega, u_min", [(1.0, 0.0), (2.5, 0.0), (1.3, -4.5)])
    def test_bytes_are_the_grid_and_the_sampled_curve(self, capsys, kind, k, omega, u_min):
        code, out, err = run(capsys, "elastica", "--kind", kind, "--k", repr(k),
                             "--omega", repr(omega), f"--u-min={u_min!r}", "--u-max", "12",
                             "--samples", "600")
        assert (code, err) == (0, "")
        us = uniform_grid(u_min, 12.0, 600)
        points = sample_curve(kind, ElasticaParams(k=k, omega=omega), u_min, 12.0, 600)
        assert out == "u,x,y\n" + "".join("%.17g,%.17g,%.17g\n" % (u, x, y)
                                          for u, (x, y) in zip(us, points))

    # a negative u range, and omega = 1e300, where x and y are tiny and
    # subnormal ones appear in the text
    @pytest.mark.parametrize("kind, k", [("flexural", 0.95), ("inflexural", 4.9)])
    @pytest.mark.parametrize("omega, u_min, u_max", [("1", "-40", "-3"),
                                                     ("1e300", "-7", "7")])
    def test_bytes_are_the_row_by_row_text(self, capsys, kind, k, omega, u_min, u_max):
        # one `%` over the whole text gives the bytes of a `.17g` format of
        # each number, row by row, of the points drawn one at a time
        code, out, err = run(capsys, "elastica", "--kind", kind, "--k", repr(k),
                             "--omega", omega, f"--u-min={u_min}", "--u-max", u_max,
                             "--samples", "301")
        assert (code, err) == (0, "")
        params = ElasticaParams(k=k, omega=float(omega))
        point = flexural_point if kind == "flexural" else inflexural_point
        rows = []
        for u in uniform_grid(float(u_min), float(u_max), 301):
            x, y = point(u, params)
            rows.append(f"{u:.17g},{x:.17g},{y:.17g}\n")
        assert out == "u,x,y\n" + "".join(rows)

    def test_error_exits_leave_the_next_export_unchanged(self, capsys, tmp_path):
        # one parser serves every call of the process
        code, first, _ = run(capsys, *self.EXPORT)
        assert code == 0
        with pytest.raises(SystemExit) as info:
            main(["eval", "--fn", "gamma", "--x", "0.5", "--k", "0.5"])
        assert info.value.code == 2
        assert run(capsys, "eval", "--fn", "epsilon", "--x", "0.5", "--k", "1e200")[0] == 3
        with pytest.raises(SystemExit) as info:
            main([*self.EXPORT, "--out", str(tmp_path / "missing" / "curve.csv")])
        assert info.value.code == 2
        capsys.readouterr()
        code, last, err = run(capsys, *self.EXPORT)
        assert (code, err) == (0, "")
        assert last == first

    def test_export_leaves_no_reference_cycles(self):
        # a parser built per call left some 400 objects per export that only the
        # cyclic collector frees, and made the export's peak memory wander
        with contextlib.redirect_stdout(io.StringIO()):
            main(list(self.EXPORT))
        gc.collect()
        gc.disable()
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(list(self.EXPORT))
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert code == 0 and len(out.getvalue().splitlines()) == 601
        assert unreachable == 0


class TestCheck:
    def test_pass_and_determinism(self, capsys):
        code, first, _ = run(capsys, "check", "--trials", "10", "--tol", "1e-9",
                             "--seed", "7")
        assert code == 0
        assert "PASS" in first
        code, second, _ = run(capsys, "check", "--trials", "10", "--tol", "1e-9",
                              "--seed", "7")
        assert code == 0
        assert first == second

    def test_different_seed_changes_report(self, capsys):
        _, first, _ = run(capsys, "check", "--trials", "10", "--seed", "1")
        _, second, _ = run(capsys, "check", "--trials", "10", "--seed", "2")
        assert first != second

    def test_worst_gap_names_k_and_x(self, capsys):
        code, first, _ = run(capsys, "check", "--trials", "10", "--seed", "5")
        assert code == 0
        _, second, _ = run(capsys, "check", "--trials", "10", "--seed", "5")
        assert first == second
        make = {"standard": Modulus.real, "large_real": Modulus.real,
                "pure_imaginary": Modulus.imaginary}
        pattern = r"^  (\w+) +max \|transform - quadrature\| = (\S+) at k=(\S+), x=(\S+)$"
        lines = re.findall(pattern, first, re.MULTILINE)
        assert [line[0] for line in lines] == list(make)
        for name, gap, k, x in lines:
            # the named input reproduces the reported gap (oracle tol 1e-11 at --tol 1e-9)
            m, x = make[name](float(k)), float(x)
            assert f"{abs(epsilon_any(x, m) - epsilon_by_quadrature(x, m, 1e-11)):.3e}" == gap

    def test_zero_trials_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--trials", "0"])
        assert info.value.code == 2

    @pytest.mark.parametrize("tol", ["0", "nan", "-1e-9"])
    def test_non_positive_tolerance_exits_2(self, capsys, tol):
        with pytest.raises(SystemExit) as info:
            main(["check", "--trials", "1", f"--tol={tol}"])
        assert info.value.code == 2
        assert "--tol must be positive" in capsys.readouterr().err

    def test_unreachable_tolerance_exits_4(self, capsys):
        code, out, _ = run(capsys, "check", "--trials", "5", "--tol", "1e-18",
                           "--seed", "3")
        assert code == 4
        assert "FAIL" in out

    def test_oracle_convergence_error_exits_4(self, capsys, monkeypatch):
        # eight trapezoidal intervals are too few for the half period of the
        # standard draw k = 0.81, x = 1.55: below H, but past H/2, so the
        # oracle builds J there too; the draws before it converge
        monkeypatch.setattr(quadrature, "_MAX_NODES", 8)
        code, _, err = run(capsys, "check", "--trials", "5")
        assert code == 4
        assert err.startswith("convergence error: epsilon_by_quadrature(x=")
        assert ("fails for the standard modulus k=0.8099796663725433: no convergence on "
                in err.splitlines()[0])
