"""Command-line interface: subcommands, report schema, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from purespin import cli
from purespin.cli import main


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("an algebra was built for a refused --n")


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSubcommands:
    def test_clifford(self, capsys):
        code, report = run_cli(capsys, ["clifford", "--n", "2", "--samples", "5", "--seed", "3"])
        assert code == 0 and report["passed"]
        assert report["schema"] == "purespin-report/1"

    def test_clifford_fails_a_wrong_factorization(self, capsys, monkeypatch):
        # every product of non-isotropic vectors is in the Clifford group: the lift of a
        # factorization with one vector perturbed must fail by the map it induces on W
        factor = cli.factor_into_reflections

        def perturbed(a, space):
            vectors = factor(a, space)
            vectors[0] = vectors[0] + 0.05
            return vectors

        monkeypatch.setattr(cli, "factor_into_reflections", perturbed)
        code, report = run_cli(capsys, ["clifford", "--n", "2", "--samples", "5", "--seed", "3"])
        entry = report["checks"][1]
        assert code == 1 and entry["name"] == "pin-lift-membership" and not entry["passed"]
        assert float(entry["max_induced_error"]) > 1e-3

    def test_spinor(self, capsys):
        code, report = run_cli(capsys, ["spinor", "--n", "2", "--samples", "5", "--seed", "3"])
        assert code == 0 and report["passed"]

    def test_dirac_image(self, capsys, tmp_path):
        payload = {
            "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "dirac_basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                            [0, 0, 0], [0, 0, 0], [0, 0, 0]],
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        code, report = run_cli(capsys, ["dirac", "image", "--input", str(path)])
        assert code == 0
        assert report["checks"][0]["strong"] is True

    def test_dirac_strong_check(self, capsys, tmp_path):
        payload = {
            "matrix": [[1, 0], [0, 0]],
            "dirac_basis": [[1, 0], [0, 1], [0, 0], [0, 0]],  # tangent space, meets kernel
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        code, report = run_cli(capsys, ["dirac", "strong-check", "--input", str(path)])
        assert report["checks"][0]["strong"] is False

    def test_conjugacy_volume_central_record(self, capsys):
        code, report = run_cli(capsys, [
            "conjugacy-volume", "--group", "su2", "--class-trace", "0.0",
            "--samples", "2", "--seed", "11"])
        assert code == 0 and report["passed"]
        for check in report["checks"]:
            assert check["ghjw_rank"] == "0"  # the zero-trace class has vanishing 2-form
            assert abs(float(check["density"])) > 1e-6

    def test_integrability(self, capsys):
        code, report = run_cli(capsys, ["integrability", "--group", "su2",
                                        "--points", "2", "--seed", "5"])
        assert code == 0 and report["passed"]

    @pytest.mark.parametrize("group", ["su3", "coadjoint-semidirect"])
    def test_integrability_larger_models(self, capsys, group):
        code, report = run_cli(capsys, ["integrability", "--group", group, "--points", "2"])
        assert code == 0 and report["passed"]
        for check in report["checks"]:
            assert float(check["phi_residual"]) < 1e-4 < float(check["psi_residual"])

    def test_qham_spaces(self, capsys):
        for space in ("class", "double", "fused-double", "exp"):
            code, report = run_cli(capsys, [
                "qham", "verify", "--space", space, "--group", "su2",
                "--samples", "2", "--seed", "9"])
            assert code == 0 and report["passed"], space

    @pytest.mark.parametrize("space", ["class", "double", "fused-double", "exp"])
    def test_qham_equivalence_decides_every_space(self, capsys, monkeypatch, space):
        # a disagreeing equivalence check fails the entry, over G × G too
        monkeypatch.setattr("purespin.cli.strong_dirac_equivalence",
                            lambda p: {"axioms": True, "dirac": False, "agree": False})
        code, report = run_cli(capsys, [
            "qham", "verify", "--space", space, "--group", "su2", "--samples", "1", "--seed", "9"])
        assert code == 1 and not report["passed"]
        check = report["checks"][0]
        assert check["equivalence_agrees"] is False and check["passed"] is False

    def test_qham_su3_fused_double(self, capsys):
        code, report = run_cli(capsys, [
            "qham", "verify", "--space", "fused-double", "--group", "su3",
            "--samples", "2", "--seed", "7"])
        assert code == 0 and report["passed"]
        assert len(report["checks"]) == 2
        for check in report["checks"]:
            assert abs(abs(float(check["volume_density"])) - 1.0) < 1e-8

    def test_unknown_group_fails(self, capsys):
        with pytest.raises(SystemExit):
            main(["integrability", "--group", "nope", "--points", "1"])

    def test_non_liftable_group_flagged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["integrability", "--group", "so3", "--points", "1"])
        assert exc.value.code == "error: group 'so3' has no global lift"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("group", ["su3", "so3", "coadjoint-semidirect"])
    def test_class_trace_is_refused_off_su2(self, capsys, group):
        # it was parsed and then ignored: the run drew a random class
        with pytest.raises(SystemExit) as exc:
            main(["conjugacy-volume", "--group", group, "--class-trace", "0.5",
                  "--samples", "1"])
        message = str(exc.value.code)
        assert message.startswith("error: --class-trace") and "\n" not in message
        assert capsys.readouterr().out == ""


class TestVerifyAll:
    def test_all_criteria_pass(self, verify_all_run):
        code, report = verify_all_run
        assert code == 0 and report["passed"]
        assert len(report["checks"]) == 12
        assert all(c["passed"] for c in report["checks"])


class TestSampleCounts:
    @pytest.mark.parametrize("argv", [
        ["conjugacy-volume", "--samples", "0"],
        ["qham", "verify", "--space", "class", "--samples", "0"],
        ["integrability", "--points", "0"],
        ["clifford", "--n", "1", "--samples", "0"],
        ["spinor", "--n", "1", "--samples", "-1"],
    ])
    def test_empty_run_is_an_error(self, capsys, argv):
        # a run over no samples would report "passed" with nothing checked
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value.code)
        assert message.startswith("error: --") and "\n" not in message
        assert capsys.readouterr().out == ""


class TestInputErrors:
    @pytest.mark.parametrize("payload", [
        {"dirac_basis": [[1, 0], [0, 1], [0, 0], [0, 0]]},
        {"matrix": [[1, 0], [0, 1]]},
        [[1, 0], [0, 1]],
    ])
    def test_dirac_input_without_keys(self, capsys, tmp_path, payload):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as exc:
            main(["dirac", "image", "--input", str(path)])
        assert exc.value.code == 'error: input JSON needs "matrix" and "dirac_basis"'
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("op, payload, field", [
        # an infinite entry once gave a passing report with "strong": false
        ("strong-check", {"matrix": [[math.inf, 0]], "dirac_basis": [[1, 0], [0, 1], [0, 0], [0, 0]]},
         "matrix"),
        # a NaN once failed inside the SVD
        ("image", {"matrix": [[1, 0], [0, 1]], "dirac_basis": [[math.nan, 0], [0, 1], [0, 0], [0, 0]]},
         "dirac_basis"),
        # a 1-D matrix once failed to unpack its shape
        ("image", {"matrix": [1, 0], "dirac_basis": [[1, 0], [0, 1], [0, 0], [0, 0]]}, "matrix"),
        ("image", {"matrix": [[1, 0], [0]], "dirac_basis": [[1, 0], [0, 1], [0, 0], [0, 0]]}, "matrix"),
        # preimage reads a basis of the target's doubled space: (2, 1) here, not the source's (4, 2)
        ("preimage", {"matrix": [[1, 0]], "dirac_basis": [[1, 0], [0, 1], [0, 0], [0, 0]]},
         "dirac_basis"),
    ], ids=["infinite-matrix", "nan-basis", "1d-matrix", "ragged-matrix", "preimage-basis-shape"])
    def test_dirac_input_is_finite_and_shaped(self, capsys, tmp_path, op, payload, field):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))  # json writes Infinity and NaN, and reads them back
        with pytest.raises(SystemExit) as exc:
            main(["dirac", op, "--input", str(path)])
        message = str(exc.value.code)
        assert message.startswith(f'error: "{field}" must ') and "\n" not in message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["dirac", "image", "--input", "{missing}/in.json"],
        ["spinor", "--n", "1", "--samples", "1", "--out", "{missing}/x.json"],
    ])
    def test_missing_path_is_a_one_line_error(self, capsys, tmp_path, argv):
        argv = [a.format(missing=tmp_path / "missing") for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value.code)
        assert message.startswith("error: ") and "No such file" in message
        assert "\n" not in message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_spinor_dimension_must_be_positive(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["spinor", "--n", n, "--samples", "1"])
        assert exc.value.code == "error: --n must be at least 1"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_clifford_dimension_must_be_positive(self, capsys, n):
        # it said "n must be >= 1", without the flag
        with pytest.raises(SystemExit) as exc:
            main(["clifford", "--n", n, "--samples", "1"])
        assert exc.value.code == "error: --n must be at least 1"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("n", ["5", "8", "1000000"])
    def test_clifford_dimension_is_capped(self, capsys, monkeypatch, n):
        # at n = 8 the table of ρ(e_I) alone has 4·10⁹ entries; nothing is built first
        monkeypatch.setattr(cli, "make_split_space", _refuse_to_build)
        monkeypatch.setattr(cli, "CliffordAlgebra", _refuse_to_build)
        with pytest.raises(SystemExit) as exc:
            main(["clifford", "--n", n, "--samples", "1"])
        assert exc.value.code == f"error: --n must be at most {cli.CLIFFORD_MAX_N}"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["clifford", "--n", "1", "--samples", "1"],
        ["spinor", "--n", "1", "--samples", "1"],
        ["conjugacy-volume", "--samples", "1"],
        ["integrability", "--points", "1"],
        ["qham", "verify", "--samples", "1"],
        ["verify-all"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_names_its_flag(self, capsys, argv):
        # it was numpy's "expected non-negative integer", naming no flag
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert exc.value.code == "error: --seed must be at least 0"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("trace", ["nan", "inf", "-inf"])
    def test_non_finite_class_trace_is_refused(self, capsys, trace):
        # NaN passed the range test and the run died with "SVD did not converge"
        with pytest.raises(SystemExit) as exc:
            main(["conjugacy-volume", "--group", "su2", f"--class-trace={trace}",
                  "--samples", "1"])
        assert exc.value.code == "error: SU(2) traces lie in [-2, 2]"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("trace", ["-inf", "-nan"])
    def test_non_finite_class_trace_after_a_space_is_refused(self, capsys, trace):
        # "-inf" after a space was taken for a flag: exit 2 with the usage text
        with pytest.raises(SystemExit) as exc:
            main(["conjugacy-volume", "--group", "su2", "--class-trace", trace, "--samples", "1"])
        assert exc.value.code == "error: SU(2) traces lie in [-2, 2]"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("trace", ["-1e-3", "-1.5E+0"])
    def test_negative_class_trace_after_a_space_runs(self, capsys, trace):
        # argparse reads only -<digits> and -<digits>.<digits> as numbers
        code = main(["conjugacy-volume", "--group", "su2", "--class-trace", trace,
                     "--samples", "1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["passed"]
        assert float(report["config"]["class_trace"]) == float(trace)


    @pytest.mark.parametrize("value", ["x", "-1e3"])
    def test_argument_type_error_is_one_line(self, capsys, value):
        # it was argparse's usage block followed by "invalid int value"
        with pytest.raises(SystemExit) as exc:
            main(["conjugacy-volume", "--samples", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: argument --samples: invalid int value: '{value}'\n"


class TestRemovedFlags:
    @pytest.mark.parametrize("argv", [
        ["verify-all", "--group", "su2"],
        ["qham", "verify", "--report", "json"],
    ])
    def test_flag_is_rejected(self, capsys, argv):
        # both were parsed and then ignored
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["qham", "verify", "--space", "class", "--samples", "3", "--seed", "4"],
        ["qham", "verify", "--space", "exp", "--group", "su3", "--samples", "2"],
    ], ids=["class-su2", "exp-su3"])
    def test_reports_byte_identical(self, capsys, argv):
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_scalars_are_strings(self, capsys):
        _, report = run_cli(capsys, ["spinor", "--n", "2", "--samples", "2", "--seed", "1"])
        check = report["checks"][0]
        assert isinstance(check["max_distance"], str)

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code = main(["spinor", "--n", "1", "--samples", "1", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["command"] == "spinor"


def _run_fresh(script: str) -> str:
    """Standard output of ``script`` run in a fresh interpreter with src/ on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestMemory:
    def test_integrability_does_not_import_scipy_sparse(self):
        # importing scipy.sparse grows resident memory by about 11 MB; the
        # integrability check, criterion 6 and the logarithm of every model
        # must not need it
        script = (
            "import sys, numpy as np\n"
            "import purespin.cli\n"
            "from purespin.geometry import PinLift, cartan_dirac_integrability\n"
            "from purespin.groups import MODEL_BUILDERS, su3_model\n"
            "from purespin.suites import run_criterion\n"
            "m = su3_model()\n"
            "cartan_dirac_integrability(m, m.random_element(np.random.default_rng(1)), PinLift(m))\n"
            "run_criterion(6)\n"
            "for build in MODEL_BUILDERS.values():\n"
            "    model = build()\n"
            "    model.log(model.random_element(np.random.default_rng(2)))\n"
            "print(sorted(k for k in sys.modules if k.startswith('scipy.sparse')))\n"
        )
        assert _run_fresh(script) == "[]"

    def test_runtime_does_not_import_scipy(self):
        # scipy is a test-only oracle: importing scipy.linalg alone took about
        # half of the CLI's start-up and 29 MB of resident memory
        script = (
            "import sys, numpy as np\n"
            "import purespin.cli\n"
            "from purespin.geometry import PinLift, cartan_dirac_integrability, conjugacy_volume_top, class_point\n"
            "from purespin.groups import MODEL_BUILDERS, so3_model\n"
            "from purespin.suites import run_criterion\n"
            "rng = np.random.default_rng(1)\n"
            "for build in MODEL_BUILDERS.values():\n"
            "    model = build()\n"
            "    model.log(model.random_element(rng))\n"
            "    if model.liftable:\n"
            "        cartan_dirac_integrability(model, model.random_element(rng), PinLift(model))\n"
            "run_criterion(7)\n"
            "run_criterion(11)\n"
            "so3 = so3_model()\n"
            "conjugacy_volume_top(class_point(so3, so3.random_element(rng)), PinLift(so3))\n"
            "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))\n"
        )
        assert _run_fresh(script) == "[]"
