"""End-to-end CLI behavior: subcommands, formats, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

import qgwave
import qgwave.cli
import qgwave.eigen
from qgwave.cli import main
from qgwave.flows import MIN_CRITICAL_BETA0, Example31Params

from _oracles import CLOSE_ZERO_PAIR, inflection_wave_on_mesh


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if "--json" in argv and captured.out:
        json.loads(captured.out, parse_constant=_reject_constant)
    return code, captured.out, captured.err


class TestEigen:
    def test_singular_couette_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eigen", "--profile", "couette", "--d", "1", "--beta", "1.8352",
            "--c", "-1", "--tol", "1e-6", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["lambda1"]) < 5e-3
        assert doc["singular"] is True
        assert doc["est_error"] <= 1e-6
        assert doc["meta"] == {"tool": "qgwave", "version": "0.1.0"}

    def test_c_min_keyword(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eigen", "--profile", "couette", "--d", "1", "--beta", "2",
            "--c", "min", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["c"] == -1.0 and doc["singular"] is True
        assert doc["lambda1"] == pytest.approx(-0.25, abs=1e-5)

    def test_domain_error_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "eigen", "--profile", "couette", "--d", "1", "--beta", "1",
            "--c", "0.5", "--json",
        )
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"

    def test_profile_echo_keeps_every_digit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eigen", "--profile", "linear:0.123456789,1", "--d", "1", "--beta", "1",
            "--c", "min", "--json",
        )
        assert code == 0
        assert json.loads(out)["profile"] == "linear:0.123456789,1"


class TestCriticalBeta:
    def test_parabola_table_entry_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical-beta", "--profile", "parabola:8,0", "--d", "2"
        )
        assert code == 0
        value = float(out.split("=")[1].split("(")[0])
        assert value == pytest.approx(7.7176, abs=2e-2)

    def test_json_reports_achieved_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical-beta", "--profile", "couette", "--d", "1", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["residual_lambda1"]) < 1e-3  # lambda1 at the returned root

    def test_unknown_profile_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "critical-beta", "--profile", "weird", "--d", "1")
        assert code == 2
        assert "profile" in err

    def test_nonmonotone_profile_exits_1(self, capsys):
        code, _, _ = run_cli(
            capsys, "critical-beta", "--profile", "kolmogorov", "--d", "3.14159"
        )
        assert code == 1
        # the vertex y = 0.25 lies inside the band; the monotone guard runs
        # ahead of the pencil, which would return a number here.  The quintic's
        # u0' has two zeros 2.5e-4 apart, so it is not monotone either.
        for profile in "parabola:0.5,0", CLOSE_ZERO_PAIR:
            code, _, err = run_cli(capsys, "critical-beta", "--profile", profile, "--d", "1")
            assert code == 1
            assert err.count("\n") == 1 and err.endswith("\n")
            assert json.loads(err) == {
                "error": "DomainError",
                "message": "critical_beta needs a monotone profile on the band",
            }


class TestCurve:
    def test_csv_shape_and_markers(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curve", "--profile", "couette", "--d", "1",
            "--beta-min", "1", "--beta-max", "3", "--n", "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "beta,lambda1,L_crit"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[2] == ""  # beta = 1 < transitional: infinite L_crit
        last = lines[3].split(",")
        assert float(last[1]) < 0 and float(last[2]) > 0

    def test_deterministic_bytes(self, capsys):
        argv = (
            "curve", "--profile", "couette", "--d", "1",
            "--beta-min", "2", "--beta-max", "4", "--n", "3",
        )
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_failed_points_leave_empty_csv_fields(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curve", "--profile", "kolmogorov", "--d", "3.141592653589793",
            "--beta-min", "1", "--beta-max", "2", "--n", "2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        for row in lines[1:]:
            beta, lam, lc = row.split(",")
            assert beta and lam == "" and lc == ""

    def test_json_round_trip(self, capsys, tmp_path):
        path = tmp_path / "curve.json"
        code, _, _ = run_cli(
            capsys,
            "curve", "--profile", "couette", "--d", "1",
            "--beta-min", "2", "--beta-max", "3", "--n", "2",
            "--json", "-o", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        emitted = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert emitted == path.read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ("eigen", "--profile", "couette", "--d", "1", "--beta", "2", "--c", "min"),
        ("critical-beta", "--profile", "couette", "--d", "1", "--json"),
        (
            "curve", "--profile", "couette", "--d", "1",
            "--beta-min", "2", "--beta-max", "3", "--n", "2",
        ),
        ("planet", "--case", "saturn-polar"),
    ],
    ids=["eigen-text", "critical-beta-json", "curve-csv", "planet-text"],
)
def test_output_file_matches_stdout(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    path = tmp_path / "out"
    code, out_o, _ = run_cli(capsys, *argv, "-o", str(path))
    assert code == 0 and out_o == ""
    assert path.read_bytes() == out.encode("ascii")


class TestExamplePipeline:
    def test_example_then_classify(self, capsys, tmp_path):
        path = tmp_path / "ex32.json"
        code, _, _ = run_cli(
            capsys,
            "example", "--name", "ex32", "--beta-mode", "beta0",
            "--nx", "128", "--ny", "65", "-o", str(path),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "classify", "--field", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["category_extremum"] and doc["category_critical"]
        assert doc["theorem_consistent"]
        assert doc["beta"] == pytest.approx(MIN_CRITICAL_BETA0, rel=1e-12)

    def test_example_outside_range(self, capsys, tmp_path):
        path = tmp_path / "ex32b.json"
        run_cli(
            capsys,
            "example", "--name", "ex32", "--beta-mode", "2beta0",
            "--nx", "128", "--ny", "65", "-o", str(path),
        )
        code, out, _ = run_cli(capsys, "classify", "--field", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["categories"] == ["outside"]
        assert doc["c_beta_plus"] < doc["c"] < doc["u_min"]

    def test_verify_on_example(self, capsys, tmp_path):
        path = tmp_path / "ex33.json"
        run_cli(
            capsys,
            "example", "--name", "ex33", "--eps", "0.1",
            "--nx", "128", "--ny", "129", "-o", str(path),
        )
        code, out, _ = run_cli(capsys, "verify", "--field", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["residual_inf"] < 1e-2
        assert doc["boundary_v_inf"] < 1e-14

    def test_grs_example(self, capsys, tmp_path):
        path = tmp_path / "grs.json"
        code, _, _ = run_cli(
            capsys,
            "example", "--name", "grs", "--nx", "64", "--ny", "65",
            "--Lx", "4.0", "--d", "2.0", "--clip-radius", "1.5", "-o", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["beta"] == 0.0 and doc["c"] == 0.0

    def test_ex32_needs_a_beta(self, capsys):
        code, out, err = run_cli(capsys, "example", "--name", "ex32", "--nx", "16", "--ny", "11")
        assert (code, out) == (2, "")
        assert err == "qgwave: ex32 needs --beta-mode beta0|2beta0 or an explicit --beta\n"

    def test_ex32_explicit_beta(self, capsys, tmp_path):
        path = tmp_path / "ex32.json"
        argv = ("--name", "ex32", "--beta", "3.5", "--nx", "16", "--ny", "11", "-o", str(path))
        assert run_cli(capsys, "example", *argv) == (0, "", "")
        assert qgwave.read_field(path).beta == 3.5

    def test_ex31_defaults_are_the_records(self, capsys, tmp_path):
        path = tmp_path / "ex31.json"
        argv = ("--name", "ex31", "--nx", "16", "--ny", "11", "-o", str(path))
        assert run_cli(capsys, "example", *argv) == (0, "", "")
        wf = qgwave.read_field(path)
        p = Example31Params()
        assert (wf.beta, wf.c) == (p.beta, p.c) == (1.0, 0.0)
        u, v = inflection_wave_on_mesh(p, wf.grid)
        assert np.array_equal(wf.u, u) and np.array_equal(wf.v, v)

    def test_grs_channel_from_flags(self, capsys, tmp_path):
        path = tmp_path / "grs.json"
        argv = ("--name", "grs", "--Lx", "6", "--d", "3", "--nx", "16", "--ny", "11")
        assert run_cli(capsys, "example", *argv, "-o", str(path)) == (0, "", "")
        assert qgwave.read_field(path).grid.geometry == (6.0, -3.0, 3.0)

    @pytest.mark.parametrize("content", [None, b"\xff{"], ids=["missing", "undecodable"])
    def test_classify_missing_file_exits_2(self, capsys, tmp_path, content):
        path = tmp_path / "nope.json"
        if content is not None:
            path.write_bytes(content)
        code, _, _ = run_cli(capsys, "classify", "--field", str(path))
        assert code == 2

    def test_classify_reports_rigidity(self, capsys, tmp_path):
        path = tmp_path / "ex32.json"
        run_cli(
            capsys,
            "example", "--name", "ex32", "--beta-mode", "beta0",
            "--nx", "128", "--ny", "65", "-o", str(path),
        )
        code, out, _ = run_cli(capsys, "classify", "--field", str(path), "--json")
        assert code == 0
        theorems = json.loads(out)["rigidity"]["applicable_theorems"]
        assert [t["conclusion"] for t in theorems] == ["not applicable"] * 4
        code, out, _ = run_cli(capsys, "classify", "--field", str(path))
        assert code == 0
        assert out.splitlines() == [
            "genuine = True (max|v| = 1)",
            "categories: inflection, critical, extremum",
            "theorem_consistent = True",
            "rigidity: none",
        ]

    def test_classify_text_names_the_theorems_concluding_shear(self, capsys, tmp_path):
        # convex parabola shear on the f-plane: lap u = 2 is sign definite
        grid = qgwave.Grid2D(64, 33, qgwave.ChannelGeometry(2 * math.pi, -1.0, 1.0))
        u = np.repeat((grid.y**2)[:, None], grid.nx, axis=1)
        path = tmp_path / "shear.json"
        qgwave.write_field(qgwave.WaveField(grid, u, np.zeros(grid.shape), -5.0, 0.0), path)
        code, out, _ = run_cli(capsys, "classify", "--field", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == [
            "genuine = False (max|v| = 0)", "categories: none", "theorem_consistent = True"
        ]
        assert lines[3:] == ["rigidity: rayleigh_stable_f_plane, sign_definite_laplacian_f_plane"]


class TestRootAndInf:
    def test_root_c(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "root-c", "--profile", "couette", "--d", "1", "--beta", "10",
            "--L", "4", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["c_L"] < -1.0
        assert abs(doc["residual"]) < 1e-4

    def test_root_c_no_root_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "root-c", "--profile", "couette", "--d", "1", "--beta", "1",
            "--L", "10",
        )
        assert code == 1
        detail = json.loads(err)
        assert detail["error"] == "NoRootError"
        assert detail["lambda_end"] > detail["target"]

    def test_inf_c(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "inf-c", "--profile", "couette", "--d", "1", "--beta", "0", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["inf_lambda1"] == pytest.approx(math.pi**2 / 4.0, abs=1e-5)
        assert doc["est_error"] <= doc["tol"] / 4.0

    @pytest.fixture
    def solves(self, monkeypatch):
        """Every principal_eigenvalue call, whichever module makes it."""
        calls = []
        solve = qgwave.eigen.principal_eigenvalue

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return solve(*args, **kwargs)

        monkeypatch.setattr(qgwave.eigen, "principal_eigenvalue", counted)
        monkeypatch.setattr(qgwave.cli, "principal_eigenvalue", counted)
        return calls

    def test_inf_c_prints_the_finders_solve(self, capsys, solves):
        # beta >= max u0'': the finder's one solve at u0_min is also the one printed
        code, out, _ = run_cli(capsys, "inf-c", "--profile", "couette", "--d", "1", "--beta", "5")
        assert code == 0
        assert solves == [(5.0, -1.0)]

    def test_root_c_prints_the_finders_last_solve(self, capsys, monkeypatch, solves):
        finder_calls = []
        finder = qgwave.cli.wave_speed_root

        def recorded(*args, **kwargs):
            res = finder(*args, **kwargs)
            finder_calls.append(len(solves))
            return res

        monkeypatch.setattr(qgwave.cli, "wave_speed_root", recorded)
        code, out, _ = run_cli(
            capsys,
            "root-c", "--profile", "couette", "--d", "1", "--beta", "10", "--L", "4",
        )
        assert code == 0
        assert finder_calls == [len(solves)]
        assert f"c_L = {solves[-1][1]:.17g} " in out


class TestPlanet:
    def test_raw_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys, "planet", "--name", "saturn", "--theta0", "68.5", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["beta"] == pytest.approx(46.0, abs=1.0)

    def test_jupiter_case(self, capsys):
        code, out, _ = run_cli(capsys, "planet", "--case", "jupiter-band", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["beta_crit_scaling"] == pytest.approx(1004.0, abs=5.0)

    def test_saturn_case(self, capsys):
        code, out, _ = run_cli(capsys, "planet", "--case", "saturn-polar", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rigidity_hypothesis_satisfied"] is True

    def test_missing_arguments_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "planet", "--name", "jupiter")
        assert code == 2

    @pytest.mark.parametrize("extra", [("--name", "jupiter"), ("--theta0", "38")])
    def test_case_with_raw_parameters_exit_2(self, capsys, extra):
        code, out, err = run_cli(capsys, "planet", "--case", "jupiter-band", *extra)
        assert (code, out) == (2, "")
        assert err == "qgwave: planet takes --case, or --name and --theta0, not both\n"


class TestUsage:
    def test_bad_flag_raises_system_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eigen", "--nope"])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "qgwave" in capsys.readouterr().out

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(qgwave.cli._SUBCOMMANDS) + "}" in out

    @pytest.mark.parametrize("subcommand", list(qgwave.cli._SUBCOMMANDS))
    def test_subcommand_help_shows_its_arguments(self, capsys, subcommand):
        # only the named subcommand's arguments are built; its help must list them
        with pytest.raises(SystemExit) as err:
            main([subcommand, "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert out.split()[:3] == ["usage:", "qgwave", subcommand]
        assert "--output" in out

    def test_handler_key_error_propagates(self, monkeypatch):
        def broken(config):
            raise KeyError("beta")

        help_text, add_arguments, _ = qgwave.cli._SUBCOMMANDS["eigen"]
        monkeypatch.setitem(qgwave.cli._SUBCOMMANDS, "eigen", (help_text, add_arguments, broken))
        with pytest.raises(KeyError):
            main(["eigen", "--profile", "couette", "--d", "1", "--beta", "1", "--c", "-2"])

    def test_bad_wave_speed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eigen", "--profile", "couette", "--d", "1", "--beta", "1", "--c", "abc"])
        assert err.value.code == 2
        assert "argument --c: expected 'min' or a number, got 'abc'" in capsys.readouterr().err

    def test_nan_wave_speed_stays_a_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "eigen", "--profile", "couette", "--d", "1", "--beta", "1", "--c", "nan"
        )
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("spec", ["poly:nan", "linear:inf,0"])
    def test_non_finite_profile_parameters_exit_2(self, capsys, spec):
        code, out, err = run_cli(
            capsys, "eigen", "--profile", spec, "--d", "1", "--beta", "1", "--c", "min"
        )
        assert (code, out) == (2, "")
        assert err == f"qgwave: profile '{spec}': parameters must be finite\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("root-c", "--profile", "couette", "--d", "1", "--beta", "10", "--L", "inf"),
            (
                "curve", "--profile", "couette", "--d", "1",
                "--beta-min", "1", "--beta-max", "inf", "--n", "3",
            ),
            (
                "curve", "--profile", "couette", "--d", "1",
                "--beta-min=-inf", "--beta-max", "1", "--n", "3",
            ),
        ],
        ids=["root-c-L", "curve-beta-max", "curve-beta-min"],
    )
    def test_non_finite_inputs_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--json")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("scale", ["inf", "nan"])
    def test_eps_scale_must_be_positive_and_finite(self, capsys, tmp_path, scale):
        path = tmp_path / "ex33.json"
        run_cli(capsys, "example", "--name", "ex33", "--nx", "16", "--ny", "17", "-o", str(path))
        code, out, err = run_cli(
            capsys, "classify", "--field", str(path), "--eps-scale", scale, "--json"
        )
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "DomainError"

    def test_tol_must_be_positive(self, capsys):
        for tol in ("0", "-1", "nan", "inf"):
            code, out, err = run_cli(
                capsys,
                "eigen", "--profile", "couette", "--d", "1", "--beta", "1",
                "--c", "-2", "--tol", tol,
            )
            assert (code, out) == (2, ""), tol
            assert err.startswith("qgwave: --tol must be "), tol

    @pytest.mark.parametrize(
        "argv",
        [
            ("example", "--name", "ex31", "--nx", "16", "--ny", "17"),
            ("planet", "--name", "jupiter", "--theta0", "38"),
        ],
        ids=["example", "planet"],
    )
    def test_unwritable_output_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out"
        code, out, err = run_cli(capsys, *argv, "-o", str(path))
        assert (code, out) == (2, "")
        assert err == f"qgwave: cannot write {path}: No such file or directory\n"
        assert not path.parent.exists()
