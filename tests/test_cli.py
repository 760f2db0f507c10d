"""CLI contract: records, formats, determinism, exit codes.

tests/cli_golden.json pins the exit code and full stdout of each of its
argv lists.  Regenerate it from cli.main only for an intended change of
output, and review the diff field by field:

    PYTHONPATH=src python tests/test_cli.py

It prints the argv of each entry whose exit code or stdout it rewrote,
one line each, and nothing when no entry changed.
"""

import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bohrad import FunctionalReport, cli, radii, reproduce_all_tables, reproduce_table
from bohrad.cli import main
from bohrad.errors import NoRootError
from bohrad.functionals import DEFAULT_A_GRID
from bohrad.radii import VERIFY_A_GRID

EXPECTED_BLOCH = math.sqrt(6.0 / (6.0 + math.pi**2))

# argv, exit code and full stdout of every README example, one verify per
# family, csv and text output and each error exit; a refactor must leave
# each one unchanged
GOLDEN_PATH = Path(__file__).resolve().parent / "cli_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRadiusCommand:
    def test_bohr_radius_json(self, capsys):
        code, out, _ = run_cli(capsys, "radius", "--phi", "monomial", "--p", "1",
                               "--m", "0", "--gamma", "0")
        record = json.loads(out)
        assert code == 0
        assert record["command"] == "radius"
        assert record["radius"] == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert abs(record["residual"]) <= 1e-10

    def test_rogosinski_kind(self, capsys):
        code, out, _ = run_cli(capsys, "radius", "--phi", "odd_only", "--p", "0.5",
                               "--m", "1", "--N", "1", "--mu-const", "1",
                               "--kind", "rogosinski")
        record = json.loads(out)
        assert code == 0
        assert record["radius"] == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-6)

    def test_out_path(self, capsys, tmp_path):
        target = tmp_path / "radius.json"
        code, out, _ = run_cli(capsys, "radius", "--phi", "monomial", "--gamma", "0",
                               "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["radius"] == pytest.approx(1 / 3, abs=1e-6)

    @pytest.mark.parametrize("where", ["missing/radius.json", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_out_path_exits_2_with_one_line(self, capsys, tmp_path, where):
        target = tmp_path / where
        code, out, err = run_cli(capsys, "radius", "--phi", "monomial", "--gamma", "0",
                                 "--out", str(target))
        assert (code, out) == (2, "")
        assert re.fullmatch(rf"error: cannot write {re.escape(str(target))}: [^\n]+\n", err)


class TestTablesCommand:
    def test_table_one_csv(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--id", "1", "--format", "csv",
                               "--allow-errata")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0
        assert len(rows) == 4
        first = rows[0]
        assert float(first["p"]) == 0.5 and int(first["m"]) == 1
        assert float(first["R_computed"]) == pytest.approx(0.090368, abs=1e-5)

    def test_erratum_gate(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--id", "3")
        assert code == 4
        record = json.loads(out)
        assert any(r["erratum"] for r in record["rows"])
        assert any("erratum" in f for f in record["flags"])
        code, _, _ = run_cli(capsys, "tables", "--id", "3", "--allow-errata")
        assert code == 0

    def test_clean_table_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "tables", "--id", "4")
        assert code == 0

    def test_csv_and_json_encode_identical_values(self, capsys):
        _, json_out, _ = run_cli(capsys, "tables", "--id", "2", "--allow-errata")
        _, csv_out, _ = run_cli(capsys, "tables", "--id", "2", "--format", "csv",
                                "--allow-errata")
        json_rows = json.loads(json_out)["rows"]
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        for jr, cr in zip(json_rows, csv_rows):
            assert float(cr["R_computed"]) == jr["R_computed"]
            assert float(cr["delta"]) == jr["delta"]


    @pytest.mark.parametrize("command", [("tables", "--allow-errata"), ("tables", "--id", "1")])
    def test_scan_step_reaches_the_solver(self, capsys, command):
        # a step of 0.01 passes over table 1's root 0.00496 and finds none
        with pytest.raises(NoRootError):
            reproduce_all_tables(scan_step=0.01)
        code, out, err = run_cli(capsys, *command, "--scan-step", "0.01")
        assert (code, out) == (3, "") and err.startswith("error: no sign change")

    def test_scan_step_rows_match_the_library(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--id", "2", "--scan-step", "0.004")
        rows = reproduce_table(2, scan_step=0.004)
        assert code == 0
        assert [r["R_computed"] for r in json.loads(out)["rows"]] == \
            [float(f"{row.computed:.9g}") for row in rows]


class TestVerifyCommand:
    def test_bohr_family_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "bohr", "--gamma", "0")
        record = json.loads(out)
        assert code == 0
        summary = record["summary"]
        assert summary["failures"] == 0
        assert summary["witness_a"] is not None

    def test_beta_family_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "beta-square",
                               "--gamma", "0", "--beta", "0.25")
        assert code == 0
        assert json.loads(out)["summary"]["passed"]

    def test_energy_family_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "energy",
                               "--gamma", "0")
        assert code == 0
        assert json.loads(out)["summary"]["passed"]

    def test_rogosinski_family_needs_positive_order(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--family", "rogosinski",
                             "--mu-const", "1")
        assert code == 2

    def test_excessive_beta_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "beta-square",
                               "--gamma", "0", "--beta", "0.5")
        assert code == 2
        assert err.strip().startswith("error:")

    def test_options_at_their_defaults_apply_to_every_family(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "energy", "--gamma", "0",
                               "--phi", "monomial", "--p", "1", "--m", "0", "--N", "1",
                               "--mu-const", "0", "--degree", "2")
        assert code == 0 and json.loads(out)["summary"]["passed"]

    FAMILY_RUNS = [
        ("--family", "bohr", "--gamma", "0"),
        ("--family", "bohr", "--gamma", "0.5"),
        ("--family", "refined", "--m", "1", "--mu-const", "1", "--gamma", "0"),
        ("--family", "rogosinski", "--p", "1", "--m", "1", "--mu-const", "1"),
        ("--family", "area-poly", "--gamma", "0.3"),
        ("--family", "beta-square", "--gamma", "0"),
        ("--family", "energy", "--gamma", "0.85"),
    ]

    def test_the_grid_ascends_to_the_default_grid(self):
        assert len(VERIFY_A_GRID) == len(set(VERIFY_A_GRID)) == 23
        assert list(VERIFY_A_GRID) == sorted(VERIFY_A_GRID)
        assert VERIFY_A_GRID[:17] == tuple(k / 20 for k in range(1, 18))
        assert VERIFY_A_GRID[17:] == DEFAULT_A_GRID

    @pytest.mark.parametrize("argv", FAMILY_RUNS)
    def test_every_family_checks_the_whole_grid(self, capsys, argv):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert json.loads(out)["summary"]["checked"] == len(VERIFY_A_GRID) == 23

    @pytest.mark.parametrize("argv", FAMILY_RUNS)
    def test_the_witness_comes_from_the_default_grid(self, capsys, argv):
        code, out, _ = run_cli(capsys, "verify", *argv)
        summary = json.loads(out)["summary"]
        assert code == 0 and summary["r_above"] > summary["radius"]
        assert summary["witness_a"] in DEFAULT_A_GRID

    def test_the_grid_goes_through_the_extremal_functional(self, capsys, monkeypatch):
        # a functional that fails at every a off DEFAULT_A_GRID, by a, must fail
        # at the 17 values below 0.9, and stderr names the worst, a = 0.85
        real = radii.problem_functional

        def failing_off_grid(problem, r):
            evaluate = real(problem, r)

            def report(a):
                rep = evaluate(a)
                return rep if a in DEFAULT_A_GRID else FunctionalReport.compare(1.0 + a, 1.0)
            return report
        monkeypatch.setattr(radii, "problem_functional", failing_off_grid)
        code, out, err = run_cli(capsys, "verify", "--family", "bohr", "--gamma", "0")
        summary = json.loads(out)["summary"]
        assert code == 4
        assert (summary["checked"], summary["failures"]) == (23, 17)
        assert summary["witness_a"] is not None
        assert err == ("error: guarantee fails at 17 of 23 parameters; "
                       "worst a = 0.85, margin -0.85\n")

    def test_missing_witness_is_reported(self, capsys, monkeypatch):
        # a functional that never fails leaves the probe above the radius
        # without a witness
        monkeypatch.setattr(radii, "problem_functional",
                            lambda problem, r: lambda a: FunctionalReport.compare(0.0, 1.0))
        code, out, err = run_cli(capsys, "verify", "--family", "bohr", "--gamma", "0")
        summary = json.loads(out)["summary"]
        assert code == 4
        assert (summary["failures"], summary["witness_a"]) == (0, None)
        assert err == ("error: no violation found above the radius, "
                       f"at r = {summary['r_above']:.9g}\n")

    def test_determinism(self, capsys):
        code, first, _ = run_cli(capsys, "verify", "--family", "bohr", "--gamma", "0.5")
        _, second, _ = run_cli(capsys, "verify", "--family", "bohr", "--gamma", "0.5")
        assert code == 0 and first == second


class TestBlochCommand:
    def test_gamma_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "bloch", "--gamma", "0", "--nu", "0.5",
                               "--variant", "majorant-gamma")
        record = json.loads(out)
        assert code == 0
        assert record["radius"] == pytest.approx(EXPECTED_BLOCH, abs=1e-6)
        assert "sign-changes:1" in record["flags"]

    def test_disk_majorant(self, capsys):
        code, out, _ = run_cli(capsys, "bloch", "--nu", "0.5")
        assert code == 0
        assert json.loads(out)["radius"] == pytest.approx(EXPECTED_BLOCH, abs=1e-6)

    def test_closed_form_variant_takes_gamma_on_the_default_domain(self, capsys):
        code, out, _ = run_cli(capsys, "bloch", "--variant", "majorant-gamma",
                               "--gamma", "0.5", "--nu", "0.5")
        assert code == 0 and json.loads(out)["params"]["gamma"] == 0.5

    def test_missing_gamma(self, capsys):
        code, _, _ = run_cli(capsys, "bloch", "--nu", "0.5",
                             "--variant", "majorant-gamma")
        assert code == 2


class TestBoundsAndCalibrate:
    def test_bounds_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--p", "1.5")
        record = json.loads(out)
        assert code == 0
        assert 0 < record["lower"] <= record["upper"] < 1

    def test_bounds_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "--p", "2.5")
        assert code == 2

    def test_calibrate_degree_one(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--degree", "1")
        record = json.loads(out)
        assert code == 0
        assert record["coefficients"][0] == pytest.approx(8 / 9, rel=1e-9)
        assert record["residual"] == 0.0

    def test_calibrate_infeasible(self, capsys):
        code, _, _ = run_cli(capsys, "calibrate", "--degree", "2", "--c", "50")
        assert code == 3

    def test_calibrate_tail_count_mismatch(self, capsys):
        code, _, _ = run_cli(capsys, "calibrate", "--degree", "3", "--c", "0.1")
        assert code == 2


class TestExitCodes:
    def test_unknown_phi(self, capsys):
        code, _, err = run_cli(capsys, "radius", "--phi", "cubic", "--gamma", "0")
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "'monomial'" in err  # the line lists the valid choices

    # DomainSpec decides the domain options of a refined radius, with its own message
    def test_conflicting_domain_flags(self, capsys):
        code, out, err = run_cli(capsys, "radius", "--phi", "monomial", "--gamma", "0",
                                 "--lambda-h", "1")
        assert (code, out, err) == (2, "", "error: provide exactly one of lambda_h / gamma\n")

    def test_missing_domain_flag(self, capsys):
        code, out, err = run_cli(capsys, "radius", "--phi", "monomial")
        assert (code, out, err) == (2, "", "error: provide exactly one of lambda_h / gamma\n")

    # the solvers check --scan-step, in (0, 1): a step of 1 or more has no grid point
    @pytest.mark.parametrize("step", ["nan", "0", "-0.001", "1", "1.5"])
    @pytest.mark.parametrize("argv", [
        ("radius", "--phi", "monomial", "--gamma", "0"),
        ("radius", "--phi", "odd_only", "--m", "1", "--mu-const", "1", "--kind", "rogosinski"),
        ("tables",), ("verify",), ("bloch", "--nu", "0.5"),
        ("bloch", "--nu", "0.5", "--gamma", "0.3", "--variant", "majorant-gamma")])
    def test_a_scan_step_outside_zero_one_exits_two(self, capsys, argv, step):
        code, out, err = run_cli(capsys, *argv, "--scan-step", step)
        assert (code, out) == (2, "")
        assert err == f"error: scan_step must lie in (0, 1), got {float(step)}\n"

    def test_no_root_is_exit_three(self, capsys):
        # mu = 0 leaves the rogosinski equation positive on all of (0,1)
        code, _, _ = run_cli(capsys, "radius", "--phi", "monomial", "--m", "1",
                             "--kind", "rogosinski")
        assert code == 3

    @pytest.mark.parametrize("m", [200, 400, 538, 600, 5000])
    def test_underflowing_weight_gives_one_third(self, capsys, m):
        # r^m underflows at the first scan points; the radius is 1/3 for every m
        got, out, _ = run_cli(capsys, "radius", "--phi", "monomial", "--p", "1",
                              "--m", str(m), "--gamma", "0")
        assert got == 0
        assert json.loads(out)["radius"] == 0.333333333

    def test_tolerance_validation(self, capsys):
        code, _, _ = run_cli(capsys, "radius", "--phi", "monomial", "--gamma", "0",
                             "--tol", "0.1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("radius", "--phi", "monomial", "--gamma", "0", "--scan-step", "nan"),
        # the rogosinski equation lives on the disk; a domain was ignored before
        ("radius", "--phi", "monomial", "--m", "1", "--mu-const", "1", "--kind", "rogosinski",
         "--gamma", "1.5"),
        ("radius", "--phi", "monomial", "--m", "1", "--mu-const", "1", "--kind", "rogosinski",
         "--lambda-h", "2"),
        ("verify", "--family", "rogosinski", "--m", "1", "--mu-const", "1", "--gamma", "0"),
        # the disk variants of bloch ignored --gamma before
        ("bloch", "--nu", "0.5", "--gamma", "0.5"),
        ("bloch", "--nu", "0.5", "--gamma", "0.5", "--variant", "refined"),
        # options a command never read were accepted and ignored before
        ("calibrate", "--tol", "1e-10"),
        ("calibrate", "--scan-step", "0.01"),
        ("calibrate", "--seed", "1"),
        # a degree without its degree - 1 tail coefficients was accepted before
        ("calibrate", "--degree", "3"),
        ("calibrate", "--degree", "0"),
        ("bounds", "--p", "1.5", "--tol", "1e-10"),
        ("bounds", "--p", "1.5", "--scan-step", "0.01"),
        ("bounds", "--p", "1.5", "--seed", "1"),
        ("radius", "--phi", "monomial", "--gamma", "0", "--seed", "1"),
        ("tables", "--seed", "1"),
        ("bloch", "--nu", "0.5", "--seed", "1"),
        ("verify", "--family", "beta-square", "--gamma", "0", "--beta", "inf"),
        ("tables", "--scan-step", "0"),
    ])
    def test_out_of_range_inputs_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    # verify checks one fixed grid; the tables are the tables command
    @pytest.mark.parametrize("argv", [("--samples", "3"), ("--seed", "1"), ("--allow-errata",),
                                      ("--family", "tables")])
    def test_verify_has_no_draw_or_tables_options(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: (unrecognized arguments|argument --family: invalid choice)"
                            r"[^\n]*\n", err)

    # a domain given by lambda_h has no extremal family, lambda_h = 1 included: the disk is
    # --gamma 0, so verify has no --lambda-h
    @pytest.mark.parametrize("lambda_h", ["1", "2"])
    @pytest.mark.parametrize("family", cli.VERIFY_FAMILIES)
    def test_verify_has_no_lambda_h(self, capsys, family, lambda_h):
        code, out, err = run_cli(capsys, "verify", "--family", family, "--lambda-h", lambda_h)
        assert (code, out) == (2, "")
        assert err == f"error: unrecognized arguments: --lambda-h {lambda_h}\n"

    def test_malformed_float_exits_two(self, capsys):
        code = main(["radius", "--phi", "monomial", "--p", "banana", "--gamma", "0"])
        capsys.readouterr()
        assert code == 2


class TestReadOptions:
    """Each run accepts and echoes exactly the options cli.READS lists for it."""

    @pytest.mark.parametrize("argv, option, where", [
        # refined radius equations read no N and no mu
        (("radius", "--phi", "monomial", "--gamma", "0", "--N", "5", "--mu-const", "3"),
         "--N", "--kind refined"),
        (("radius", "--phi", "monomial", "--gamma", "0", "--mu-const", "3"),
         "--mu-const", "--kind refined"),
        (("verify", "--family", "energy", "--phi", "odd_only", "--p", "0.3", "--mu-const", "5",
          "--N", "4"), "--phi", "--family energy"),
        (("verify", "--family", "bohr", "--mu-const", "0.7"), "--mu-const", "--family bohr"),
        (("verify", "--family", "bohr", "--gamma", "0", "--N", "2"), "--N", "--family bohr"),
        (("verify", "--family", "refined", "--N", "2"), "--N", "--family refined"),
        (("verify", "--family", "rogosinski", "--m", "1", "--beta", "0.1"), "--beta",
         "--family rogosinski"),
        (("verify", "--family", "beta-square", "--gamma", "0", "--degree", "3"), "--degree",
         "--family beta-square"),
        (("verify", "--family", "area-poly", "--p", "0.5"), "--p", "--family area-poly"),
        (("verify", "--family", "energy", "--m", "1"), "--m", "--family energy"),
        (("verify", "--family", "energy", "--beta", "nan"), "--beta", "--family energy"),
        (("verify", "--family", "energy", "--degree", "3"), "--degree", "--family energy"),
        (("verify", "--family", "area-poly", "--beta", "0.1"), "--beta", "--family area-poly"),
        (("verify", "--family", "beta-square", "--mu-const", "1"), "--mu-const",
         "--family beta-square"),
        (("verify", "--family", "refined", "--beta", "0.1"), "--beta", "--family refined"),
        # the closed-form families never solve
        (("verify", "--family", "energy", "--gamma", "0", "--scan-step", "0.5"), "--scan-step",
         "--family energy"),
        (("verify", "--family", "area-poly", "--gamma", "0", "--tol", "1e-4"), "--tol",
         "--family area-poly"),
        # the closed form takes its gamma on no --domain
        (("bloch", "--domain", "gamma", "--gamma", "0", "--nu", "0.5", "--variant",
          "majorant-gamma"), "--domain", "--variant majorant-gamma"),
    ])
    def test_an_option_the_run_does_not_read_exits_2(self, capsys, argv, option, where):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {option} does not apply to {where}\n"

    # a valid run of each command and selector value in cli.READS
    RUNS = {("radius", "refined"): ("radius", "--phi", "monomial", "--gamma", "0"),
            ("radius", "rogosinski"): ("radius", "--phi", "odd_only", "--p", "0.5", "--m", "1",
                                       "--mu-const", "1", "--kind", "rogosinski"),
            ("tables", None): ("tables", "--id", "4"),
            ("verify", "bohr"): ("verify", "--family", "bohr"),
            ("verify", "refined"): ("verify", "--family", "refined", "--mu-const", "1"),
            ("verify", "rogosinski"): ("verify", "--family", "rogosinski", "--m", "1",
                                       "--mu-const", "1"),
            ("verify", "area-poly"): ("verify", "--family", "area-poly"),
            ("verify", "beta-square"): ("verify", "--family", "beta-square"),
            ("verify", "energy"): ("verify", "--family", "energy"),
            ("calibrate", None): ("calibrate", "--degree", "1"),
            ("bloch", "majorant"): ("bloch", "--nu", "0.5"),
            ("bloch", "majorant-gamma"): ("bloch", "--variant", "majorant-gamma",
                                          "--gamma", "0.5", "--nu", "0.5"),
            ("bloch", "refined"): ("bloch", "--variant", "refined", "--nu", "0.5"),
            ("bounds", None): ("bounds", "--p", "1.5")}

    def test_every_table_entry_has_a_run(self):
        assert set(self.RUNS) == {(command, choice) for command, (_, reads) in cli.READS.items()
                                  for choice in reads}

    @pytest.mark.parametrize("key", RUNS, ids=[f"{c} {v}" for c, v in RUNS])
    def test_params_echo_exactly_the_options_read(self, capsys, key):
        command, choice = key
        selector, reads = cli.READS[command]
        code, out, _ = run_cli(capsys, *self.RUNS[key])
        assert code == 0
        params = json.loads(out)["params"]
        assert set(params) == set(reads[choice]) | ({selector} - {None})
        if selector:
            assert params[selector] == choice

    # an off-default value of every option, for argv built from the table
    OFF_DEFAULT = {"phi": ("odd_only",), "p": ("0.5",), "m": ("1",), "N": ("2",),
                   "mu_const": ("1",), "gamma": ("0.5",), "lambda_h": ("1",), "beta": ("0.1",),
                   "degree": ("3",), "allow_errata": (),
                   "tol": ("1e-10",), "scan_step": ("0.01",), "domain": ("gamma",)}

    def unread_in_reverse(self):
        """(argv giving each unread option of a run, in reverse parser order; the first)."""
        cases = []
        for (command, choice), run in self.RUNS.items():
            options = cli.build_parser()._subparsers._group_actions[0].choices[command]._actions
            unread = [a for a in options if a.dest in self.OFF_DEFAULT
                      and a.dest not in cli.READS[command][1][choice]
                      and a.dest != cli.READS[command][0]]
            if unread:
                argv = list(run)
                for action in reversed(unread):
                    argv += [action.option_strings[0], *self.OFF_DEFAULT[action.dest]]
                cases.append((argv, unread[0].option_strings[0]))
        return cases

    def test_the_first_unread_option_in_parser_order_is_reported(self, capsys):
        cases = self.unread_in_reverse()
        assert len(cases) == 9  # every selector value that leaves an option unread
        for argv, first in cases:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert re.fullmatch(rf"error: {first} does not apply to --\S+ \S+\n", err), argv

    @pytest.mark.parametrize("hash_seed", ["0", "4242"])
    def test_the_reported_option_does_not_depend_on_the_hash_seed(self, capsys, hash_seed):
        argvs = [argv for argv, _ in self.unread_in_reverse()]
        expected = [list(run_cli(capsys, *argv)) for argv in argvs]
        proc = run_python("-c", TestParserCache.MAIN_IN_ONE_PROCESS, json.dumps(argvs),
                          hash_seed=hash_seed)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected


class TestTextFormat:
    def test_text_output_is_line_oriented(self, capsys):
        code, out, _ = run_cli(capsys, "radius", "--phi", "monomial", "--gamma", "0",
                               "--format", "text")
        assert code == 0
        assert out.startswith("command: radius")
        assert any(line.startswith("radius:") for line in out.splitlines())


def run_python(*args, hash_seed=None):
    """Run python with src/ importable (no install needed) and a fixed help width."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=env)


def test_console_script_smoke():
    proc = run_python("-m", "bohrad.cli", "radius", "--phi", "monomial", "--gamma", "0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["radius"] == pytest.approx(1 / 3, abs=1e-6)


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_stdout(capsys, case):
    assert run_cli(capsys, *case["argv"])[:2] == (case["exit"], case["stdout"])


def test_readme_examples_are_golden():
    # an edited README example must be pinned again, not drift from its output
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = [shlex.split(line, comments=True)[1:]
                for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                for line in block.splitlines() if line.startswith("bohrad ")]
    assert examples
    assert [argv for argv in examples if argv not in [c["argv"] for c in GOLDEN]] == []


def test_readme_read_options_table_matches_reads():
    # each row: `command --selector value` (or `value` ...) | the flags its run reads
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = re.search(r"^\| run \| reads \|\n\|---\|---\|\n((?:\|.*\n)+)", readme, re.M)
    listed = []
    for row in table.group(1).splitlines():
        run, flags = (re.findall(r"`([^`]*)`", cell) for cell in row.strip("|").split("|"))
        command, *chosen = run[0].split()
        choices = [chosen[1], *run[1:]] if chosen else [None]
        listed += [((command, choice), flags[0].split()) for choice in choices]
    expected = {(command, choice): [flag for dest, flag, _ in cli._reads(command, choice)[0]
                                    if dest != selector]
                for command, (selector, reads) in cli.READS.items() for choice in reads}
    assert len(listed) == len(expected)
    assert dict(listed) == expected


def private_library_imports(source):
    """module.name of each _-prefixed name that source imports from a bohrad module."""
    return [f"{'.' * node.level}{node.module or ''}.{alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("bohrad"))
            for alias in node.names if alias.name.startswith("_")]


def test_the_cli_imports_no_private_library_name():
    # the CLI parses and renders; what it needs of the library is public
    assert private_library_imports(Path(cli.__file__).read_text()) == []


@pytest.mark.parametrize("source, found", [
    ("from .functionals import MuFunction, _first_violation", [".functionals._first_violation"]),
    ("from bohrad.series import _check_param as check", ["bohrad.series._check_param"]),
    ("from .radii import verify\nfrom json import _default_decoder", []),
])
def test_the_import_guard_sees_a_private_name(source, found):
    assert private_library_imports(source) == found


class TestParserCache:
    # main() -> [exit, stdout, stderr] for each argv in sys.argv[1], all in this process
    MAIN_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from bohrad.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""

    def main_in_one_process(self, *argvs):
        proc = run_python("-c", self.MAIN_IN_ONE_PROCESS, json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_import_does_not_build_the_parser(self):
        proc = run_python("-c", """
import argparse
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
import bohrad.cli
print(len(built))
bohrad.cli.build_parser()
print(len(built) > 0)
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "True"]

    def test_requests_in_one_process_print_what_fresh_processes_print(self):
        golden = GOLDEN[0]
        argvs = [["radius", "--phi", "monomial", "--p", "abc"], ["--help"],
                 ["tables"], golden["argv"]]
        shared = self.main_in_one_process(*argvs)
        assert shared == [self.main_in_one_process(argv)[0] for argv in argvs]
        assert [code for code, _, _ in shared] == [2, 0, 4, golden["exit"]]
        assert shared[0][2].startswith("error: argument --p")
        assert shared[1][1].startswith("usage: bohrad")
        assert shared[3][1] == golden["stdout"]


def golden_cases():
    """Each pinned argv with the exit code and stdout that cli.main gives it now."""
    cases = []
    for case in GOLDEN:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(case["argv"]))
        cases.append({"argv": case["argv"], "exit": code, "stdout": out.getvalue()})
    return cases


if __name__ == "__main__":
    cases = golden_cases()
    for old, new in zip(GOLDEN, cases):  # name each rewritten entry, so a diff can be checked
        if old != new:
            print(shlex.join(new["argv"]))
    GOLDEN_PATH.write_text(json.dumps(cases, indent=1) + "\n")
