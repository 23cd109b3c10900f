import csv
import importlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import flatpoly
from flatpoly import analysis, cli, mahler, poly, singer
from flatpoly.analysis import flatness
from flatpoly.cli import Command, UsageError, main, parse
from flatpoly.errors import BUDGETS
from flatpoly.poly import (
    _grid_blocks,
    _perfect_defect_abs,
    build_polynomial,
    defect_poly,
    eval_support_grid,
)


def run_to_file(tmp_path, argv, name="report"):
    path = tmp_path / f"{name}.out"
    code = main(argv + ["--output", str(path), "--no-timestamp"])
    if not path.exists():
        return code, None
    with open(path, encoding="utf-8", newline="") as fh:  # keep CRLF visible
        return code, fh.read()


# Together these set every option of every subcommand away from its default.
ROUND_TRIP_ARGVS = [
    ["singer", "--p", "2"],
    ["flat", "--primes", "2,3,5", "--alpha", "1"],
    ["mahler", "--primes", "2,3"],
    ["beta", "--primes", "2,3,5"],
    ["riesz", "--primes", "2,3", "--stages", "2"],
    ["rankone", "--primes", "2,3", "--scales", "1,8"],
    ["realline", "--primes", "2", "--alpha", "1", "--kernel-s", "2"],
    ["singer", "--p", "5", "--m", "2", "--format", "json", "-o", "r.json", "--no-timestamp"],
    ["flat", "--primes", "2,3", "--m", "2", "--alpha", "0.5", "--grid-multiplier", "32",
     "--format", "csv", "--output", "r.csv", "--no-timestamp"],
    ["mahler", "--primes", "3", "--m", "2", "--format", "csv", "-o", "r.csv", "--no-timestamp"],
    ["beta", "--primes", "3", "--m", "2", "--format", "csv", "-o", "r.csv", "--no-timestamp"],
    ["riesz", "--primes", "2,3", "--scales", "1,8"],
    ["riesz", "--primes", "2,3", "--m", "2", "--rule", "margin:3", "--stages", "1",
     "--format", "json", "-o", "r.json", "--no-timestamp"],
    ["rankone", "--primes", "2,3", "--m", "2", "--rule", "margin:3", "--stages", "1",
     "--format", "json", "-o", "r.json", "--no-timestamp"],
    ["realline", "--primes", "2", "--m", "2", "--alpha", "0.5", "--grid-multiplier", "8",
     "--kernel-s", "0.5", "--truncation", "8", "--format", "csv", "-o", "r.csv",
     "--no-timestamp"],
]

# Canonical command strings, pinned: every JSON report records one, so they must not drift.
PINNED_COMMANDS = [
    ("realline --primes 2 --m 1 --alpha 1.0 --grid-multiplier 16 --kernel-s 2.0 "
     "--truncation 16 --format json --no-timestamp",
     "realline --primes 2 --m 1 --alpha 1.0 --grid-multiplier 16 --kernel-s 2.0 "
     "--truncation 16 --format json --no-timestamp"),
    ("realline --primes 2,3,5 --alpha 0.5 --kernel-s 3",
     "realline --primes 2,3,5 --m 1 --alpha 0.5 --grid-multiplier 16 --kernel-s 3.0 "
     "--truncation 32 --format json"),
    ("singer --p 5 --m 2 --no-timestamp", "singer --p 5 --m 2 --format json --no-timestamp"),
    ("flat --primes 2,3 --alpha 0.5 --format csv -o r.csv",
     "flat --primes 2,3 --m 1 --alpha 0.5 --grid-multiplier 16 --format csv --output r.csv"),
    ("riesz --primes 2,3,5 --stages 2", "riesz --primes 2,3,5 --m 1 --rule margin --stages 2 "
     "--format json"),
    ("riesz --primes 2,3 --rule explicit --scales 1,8",
     "riesz --primes 2,3 --m 1 --rule explicit --scales 1,8 --format json"),
    ("rankone --primes 2,3 --scales 1,8", "rankone --primes 2,3 --m 1 --scales 1,8 --format json"),
    ("rankone --primes 2,3,5,7,2", "rankone --primes 2,3,5,7,2 --m 1 --rule margin:2 --format json"),
    ("beta --primes 13,61", "beta --primes 13,61 --m 1 --format json"),
]


# Reports that fail on a budget priced from q alone.  flat at p = 5003: the 8q grid fits, the
# 2^29-point Mahler grid does not; with p = 31 first, the 16q grid of p = 5003 fails before
# p = 31 is built.  mahler: the Jensen degree q - 1 at p = 47 (q = 2257) and p = 2003.
# realline at s = 2e8: the circle grid resolves the kernel, 2^29 points, where a grid of
# 4096 would pass and periodized_kernel would loop 2e8 times.  At s = 1e8 the grid, 2^28
# points, fits, and periodized_kernel's 1e8 passes over it, 2^28 * 1e8 nodes, do not.  At
# truncation 1e8 the truncated kernel's 2e8 + 1 terms at each of 4096 points do not fit
# (an hour's work: 4.0 s at truncation 1e5).  flat at p = 3989: q = 15916111 is prime, and
# the 16q grid's one row holding the 3990 terms is a q-point Bluestein FFT.  singer at
# p = 21529: the q-byte difference mask of construction, 0.46 GB.
PRICED = [
    ("flat --primes 5003 --alpha 1 --grid-multiplier 8",
     "536870912 points exceed the grid budget 268435456"),
    ("flat --primes 31,5003 --alpha 1",
     "400560208 points exceed the grid budget 268435456"),
    ("mahler --primes 47", "2256 roots exceed the jensen budget 1892"),
    ("mahler --primes 2003", "4014012 roots exceed the jensen budget 1892"),
    ("realline --primes 2 --alpha 1 --kernel-s 2e8",
     "536870912 points exceed the grid budget 268435456"),
    ("realline --primes 2 --alpha 1 --kernel-s 1e8",
     "26843545600000000 evaluations exceed the kernel budget 268435456"),
    ("realline --primes 2 --alpha 1 --kernel-s 3 --truncation 100000000",
     "819200004096 evaluations exceed the kernel budget 268435456"),
    ("flat --primes 3989 --alpha 1", "15916111 points exceed the row budget 4194304"),
    ("singer --p 21529", "463519371 bytes exceed the construction budget 67108864"),
]


class TestParse:
    def test_singer(self):
        cmd = parse(["singer", "--p", "2"])
        assert cmd == Command(subcommand="singer", p=2, m=1)

    def test_flat(self):
        cmd = parse(["flat", "--primes", "2,3,5", "--alpha", "1"])
        assert cmd.primes == (2, 3, 5)
        assert cmd.alpha == 1.0
        assert cmd.grid_multiplier == 16

    def test_alpha_out_of_range(self):
        with pytest.raises(UsageError, match=r"^--alpha: alpha must lie in \(0, 2\], got 3.0$"):
            parse(["flat", "--primes", "2", "--alpha", "3"])

    def test_non_prime(self):
        with pytest.raises(UsageError):
            parse(["flat", "--primes", "2,9", "--alpha", "1"])
        with pytest.raises(UsageError):
            parse(["singer", "--p", "10"])

    def test_empty_primes_exits_2(self, capsys):
        assert main(["flat", "--primes", "", "--alpha", "1"]) == 2
        assert "comma-separated integer list" in capsys.readouterr().err

    def test_empty_scales_exits_2(self, capsys):
        assert main(["riesz", "--primes", "2,3", "--scales", ""]) == 2
        assert "comma-separated integer list" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["singer", "--p", "2", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_csv_only_for_tables(self):
        with pytest.raises(UsageError):
            parse(["riesz", "--primes", "2,3", "--format", "csv"])

    def test_rankone_default_rule(self):
        assert parse(["rankone", "--primes", "2,3"]).rule == "margin:2"
        assert parse(["riesz", "--primes", "2,3"]).rule == "margin"

    def test_one_parser_for_a_sequence_of_subcommands(self, capsys):
        # _build_parser runs once per process.  Parses in a row, with options set, then a
        # bad argv, then the same subcommands with their options left out, give the
        # Commands that a fresh parser gives each argv
        def parse_or_exit(argv):
            try:
                return parse(argv)
            except SystemExit as exc:
                return exc.code

        sequence = [*ROUND_TRIP_ARGVS[7:], ["singer", "--p", "2", "--bogus"], *ROUND_TRIP_ARGVS[:7]]
        cached = [parse_or_exit(argv) for argv in sequence]
        assert cli._build_parser() is cli._build_parser()
        fresh = []
        for argv in sequence:
            cli._build_parser.cache_clear()
            fresh.append(parse_or_exit(argv))
        capsys.readouterr()
        assert cached == fresh
        assert cached[8] == 2
        assert cached[9] == Command(subcommand="singer", p=2, m=1)

    @pytest.mark.parametrize("argv", ROUND_TRIP_ARGVS)
    def test_canonical_round_trip(self, argv):
        cmd = parse(argv)
        assert parse(cmd.canonical_argv()) == cmd

    def test_round_trip_sets_every_option(self):
        """Each (subcommand, option) pair of the table is set away from its default by
        some round-trip argv; --format can only be json outside the table subcommands."""
        defaults = Command(subcommand="singer")
        unset = set()
        for flags, field, subcommands, _, _ in cli._OPTIONS:
            for sub in subcommands:
                cmds = [parse(argv) for argv in ROUND_TRIP_ARGVS
                        if argv[0] == sub and set(flags.split()) & set(argv)]
                if not any(getattr(cmd, field) != getattr(defaults, field) for cmd in cmds):
                    if not (cmds and field == "fmt" and sub not in cli.CSV_COLUMNS):
                        unset.add((sub, flags))
        assert unset == set()

    @pytest.mark.parametrize("argv, command", PINNED_COMMANDS)
    def test_command_string_pinned(self, argv, command):
        assert " ".join(parse(argv.split()).canonical_argv()) == command

    def test_flag_of_another_subcommand_exits_2(self, capsys):
        assert main(["singer", "--p", "2", "--alpha", "1"]) == 2
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        ("realline --primes 2 --alpha 1 --kernel-s nan", "--kernel-s"),
        ("realline --primes 2 --alpha 1 --kernel-s inf", "--kernel-s"),
        ("riesz --primes 2 --rule bogus", "--rule"),
        ("riesz --primes 2,3 --rule bogus", "--rule"),
        ("riesz --primes 2,3 --rule margin:x", "--rule"),
        ("rankone --primes 2,3 --rule margin:1", "--rule"),
        ("flat --primes 2 --alpha 1 --grid-multiplier 7", "--grid-multiplier"),
        ("riesz --primes 2,3 --stages 0", "--stages"),
    ])
    def test_bad_value_exits_2_naming_the_flag(self, argv, flag, capsys):
        assert main(argv.split() + ["--no-timestamp"]) == 2
        assert capsys.readouterr().err.startswith(f"flatpoly: {flag}: ")

    @pytest.mark.parametrize("argv", ["riesz --primes 2,3 --rule margin:3",
                                      "riesz --primes 2,3 --rule explicit --scales 1,8"])
    def test_good_rules_run(self, argv, tmp_path):
        code, text = run_to_file(tmp_path, argv.split())
        assert code == 0
        assert json.loads(text)["results"]["plan"]["rule"] == argv.split()[4]


class TestExecute:
    def test_singer_report(self, tmp_path):
        code, text = run_to_file(tmp_path, ["singer", "--p", "2"])
        assert code == 0
        report = json.loads(text)
        assert report["results"]["residues"] == [0, 1, 3]
        assert report["results"]["gap_statistic"] == 4
        assert report["tool"]["name"] == "flatpoly"
        assert "timestamp" not in report

    @pytest.mark.parametrize("argv", [["flat", "--primes", "5003", "--alpha", "1"],
                                      ["realline", "--primes", "5003", "--alpha", "1"],
                                      ["beta", "--primes", "5003"], ["mahler", "--primes", "5003"]])
    def test_grid_priced_before_the_singer_set(self, argv, tmp_path, monkeypatch):
        # p = 5003: the budget fails from q alone, on the 16q = 400.6M points of flat, on
        # realline's power of two above them, 2^29, and on the 2^29 points of mahler_log's
        # grid at degree q - 1 (as at the built set's degree) for beta and mahler
        def forbidden(*args, **kwargs):
            raise AssertionError("the grid is priced before any Singer set is built")

        monkeypatch.setattr(cli, "construct_singer", forbidden)
        code, text = run_to_file(tmp_path, argv)
        points = 400560208 if argv[0] == "flat" else 2**29
        assert code == 1
        assert json.loads(text)["error"] == {
            "type": "BudgetError",
            "message": f"{points} points exceed the grid budget 268435456"}

    @pytest.mark.parametrize("argv, message", PRICED)
    def test_every_budget_priced_before_any_singer_set(self, argv, message, tmp_path,
                                                       monkeypatch):
        # priced from (p, m) alone: no construction, and no q-long array (p = 3989's q-point
        # row, p = 21529's q-byte mask)
        calls = []
        monkeypatch.setattr(cli, "construct_singer", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "_scan_singer", lambda *args: calls.append(args))
        tracemalloc.start()
        try:
            code, text = run_to_file(tmp_path, argv.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, calls) == (1, [])
        assert json.loads(text)["error"] == {"type": "BudgetError", "message": message}
        assert peak < 2**20

    @pytest.mark.parametrize("primes, multiplier, s", [("2,3", 16, 1.0), ("2", 2341, 1.0),
                                                       ("2", 8, 2049.0), ("5", 300, 0.7)])
    def test_realline_price_is_the_circle_grid(self, primes, multiplier, s, tmp_path,
                                               monkeypatch):
        # the grid the report prices is the grid realline_flatness builds, and after it
        # the ceil(s) kernel passes and the 2T + 1 = 65 truncated-kernel terms over that grid
        priced, built = [], []
        report = cli.realline_flatness

        def record(*args):
            rep = report(*args)
            built.append(rep.circle_grid)
            return rep

        monkeypatch.setattr(cli, "check_budget", lambda name, size: priced.append(size))
        monkeypatch.setattr(cli, "realline_flatness", record)
        code, _ = run_to_file(tmp_path, ["realline", "--primes", primes, "--alpha", "1",
                                         "--grid-multiplier", str(multiplier),
                                         "--kernel-s", str(s)])
        assert code == 0
        assert priced == [N * passes for N in built for passes in (1, math.ceil(s), 65)]
        assert len(built) == len(primes.split(","))

    def test_singer_report_counts_differences_once(self, tmp_path, monkeypatch):
        # one pass marks every difference in a q-byte mask, which is the report's counts
        calls = []
        mark_differences = singer._mark_differences

        def counted(ordered, q, cyclic, mask):
            calls.append((q, cyclic))
            return mark_differences(ordered, q, cyclic, mask)

        monkeypatch.setattr(singer, "_mark_differences", counted)
        code, text = run_to_file(tmp_path, ["singer", "--p", "7"])
        assert code == 0
        assert json.loads(text)["results"]["difference_counts_all_one"] is True
        assert calls == [(57, True)]

    def test_singer_report_carries_the_normalize_error(self, tmp_path, monkeypatch):
        residues = (0, 1, 2)  # differences 1 and -1 occur twice, 3 and 4 never
        monkeypatch.setattr(cli, "_scan_singer",
                            lambda spec: singer.SingerSet(p=2, m=1, q=7, residues=residues))
        code, text = run_to_file(tmp_path, ["singer", "--p", "2"])
        assert code == 1
        report = json.loads(text)
        assert "results" not in report
        assert report["error"] == {"type": "ValueError",
                                   "message": "not a perfect difference set (residue 1 has count 2)"}

    def test_flat_csv_row(self, tmp_path):
        code, text = run_to_file(tmp_path, ["flat", "--primes", "2", "--alpha", "2",
                                            "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 1
        assert float(rows[0]["defect_sq"]) == pytest.approx(0.816497, abs=1e-6)
        assert rows[0]["p"] == "2"
        assert text.count("\r\n") >= 2  # RFC 4180 line endings

    def test_rankone_heights(self, tmp_path):
        code, text = run_to_file(tmp_path, ["rankone", "--primes", "2,3", "--stages", "2"])
        assert code == 0
        results = json.loads(text)["results"]
        assert results["h"] == [4, 76]
        assert results["tower"]["total_measure"] == ["19", "3"]
        assert results["tower"]["level_width"] == ["1", "12"]

    def test_riesz_report(self, tmp_path):
        code, text = run_to_file(tmp_path, ["riesz", "--primes", "2,3"])
        assert code == 0
        results = json.loads(text)["results"]
        assert results["partial_coefficients"]["zero_coefficient"] == ["1", "1"]
        assert results["partial_coefficients"]["total_mass"] == ["12", "1"]
        assert results["dissociation"]["differences"]["valid"]
        assert results["ergodicity"]["terms"] == [["1", "64"]]

    def test_computation_error_exits_1(self, tmp_path):
        # growth rule admits scales (1, 4) but the spacers go negative
        code, text = run_to_file(tmp_path, ["rankone", "--primes", "2,3",
                                            "--scales", "1,3"])
        assert code == 1
        report = json.loads(text)
        assert report["error"]["type"] == "ValueError"

    def test_stages_beyond_the_plan_exit_1(self, tmp_path):
        code, text = run_to_file(tmp_path, ["riesz", "--primes", "2,3", "--stages", "3"])
        assert code == 1
        assert json.loads(text)["error"] == {
            "type": "ValueError", "message": "--stages 3 exceeds the plan's 2 stages"}

    def test_mahler_report(self, tmp_path):
        code, text = run_to_file(tmp_path, ["mahler", "--primes", "2,3"])
        results = json.loads(text)["results"]
        assert code == 0
        for row in results["rows"]:
            assert row["cross_method_gap"] < 1e-6

    def test_beta_table(self, tmp_path):
        code, text = run_to_file(tmp_path, ["beta", "--primes", "2,3,5", "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["p"] for r in rows] == ["2", "3", "5"]
        assert all(float(r["mahler"]) <= float(r["l1"]) + 1e-8 for r in rows)
        assert text.splitlines()[0] == "p,q,l1,mahler"

    def test_mahler_convergence_reported(self, tmp_path):
        # p = 11 has a zero on the circle and p = 101 thousands near it: both meet 1e-9
        _, text = run_to_file(tmp_path, ["beta", "--primes", "7,11,101"])
        results = json.loads(text)["results"]
        assert [row["mahler_converged"] for row in results["rows"]] == [True, True, True]
        assert "30/N" in results["methods"]["mahler"]
        assert "mahler_converged" in results["methods"]["mahler"]
        for argv, method in ((["flat", "--primes", "7", "--alpha", "1"], "mahler"),
                             (["mahler", "--primes", "7,11"], "mahler_log")):
            _, text = run_to_file(tmp_path, argv, argv[0])
            results = json.loads(text)["results"]
            assert all(row["mahler_converged"] is True for row in results["rows"])
            assert results["methods"][method].endswith(cli.MAHLER_NEAR_ROOT)
        assert all(row["cross_method_gap"] <= 1e-9 for row in results["rows"])

    def test_method_texts_state_the_constants(self, tmp_path):
        texts = []
        for argv in (["flat", "--primes", "2", "--alpha", "1"], ["beta", "--primes", "2"],
                     ["mahler", "--primes", "2"], ["riesz", "--primes", "2,3"]):
            _, text = run_to_file(tmp_path, argv, argv[0])
            texts += json.loads(text)["results"]["methods"].values()

        def numbers(pattern):
            found = [m.groups() for t in texts for m in re.finditer(pattern, t)]
            assert found, pattern
            return set(found)

        assert numbers(r"within (\d+)/N") == {(str(mahler.NEAR_ROOT_WINDOW),)}
        [(tol,)] = numbers(r"mahler_converged is true where it is below ([\d.e+-]+)")
        assert float(tol) == mahler.MAHLER_TOL
        [(base, power)] = numbers(r"within budget (\d+)\^(\d+)")
        assert int(base) ** int(power) == BUDGETS["dissociation"][1]
        [(floor, factor)] = numbers(r"power of two >= max\((\d+), (\d+)\(degree \+ 1\)\)")
        for degree in [*range(300), 2**20 - 1, 2**20, 10**7 + 3]:
            least = max(int(floor), int(factor) * (degree + 1))
            assert mahler.mahler_grid(degree) == 1 << (least - 1).bit_length(), degree

    def test_realline_report(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            ["realline", "--primes", "2", "--alpha", "1", "--kernel-s", "1",
             "--truncation", "16"],
        )
        assert code == 0
        row = json.loads(text)["results"]["rows"][0]
        assert abs(row["circle_truncated"] - row["line_value"]) < 1e-6

    def test_determinism(self, tmp_path):
        for argv in (
            ["singer", "--p", "5"],
            ["flat", "--primes", "2,3", "--alpha", "1.5"],
            ["riesz", "--primes", "2,3"],
        ):
            _, a = run_to_file(tmp_path, argv, "first")
            _, b = run_to_file(tmp_path, argv, "second")
            assert a == b

    def test_stdout_default(self, capsys):
        assert main(["singer", "--p", "2", "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["results"]["q"] == 7

    def test_timestamp_present_by_default(self, capsys):
        main(["singer", "--p", "2"])
        assert "timestamp" in json.loads(capsys.readouterr().out)


def flat_row(monkeypatch, singer_cache, p, alpha, multiplier):
    """The row of `flat --primes p`, through its runner, with the Singer set from the cache."""
    monkeypatch.setattr(cli, "construct_singer", singer_cache)
    cmd = Command("flat", primes=(p,), alpha=alpha, grid_multiplier=multiplier)
    [row] = cli._run_flat(cmd)["rows"]
    return row


class TestFlatRow:
    """One |P| evaluation feeds the defects, L1 and the dominance gap."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_matches_flatness(self, p, alpha, singer_cache, monkeypatch):
        sset = singer_cache(p)
        row = flat_row(monkeypatch, singer_cache, p, alpha, 16)
        rep = flatness(build_polynomial(sset), alpha, 16 * sset.q)
        assert row["grid"] == rep.grid_size == 16 * sset.q
        assert row["defect_sq"] == rep.defect_sq
        assert row["defect_abs"] == rep.defect_abs
        assert row["l1"] == rep.l1_norm

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_dominance_gap_matches_fraction_route(self, p, singer_cache, monkeypatch):
        # oracle: Q through its Fraction coefficients and a second evaluation of P;
        # the row takes |Q| from its closed form, so the two agree to rounding
        sset = singer_cache(p)
        grid = 16 * sset.q
        P = build_polynomial(sset)
        values = eval_support_grid(P.support, [P.scale] * P.size, grid)
        Q = defect_poly(sset)
        qvals = eval_support_grid(np.arange(1, sset.q), Q.coefficient_array()[1:], grid)
        oracle = float((np.abs(qvals) - np.abs(np.abs(values) ** 2 - 1.0)).min())
        gap = flat_row(monkeypatch, singer_cache, p, 1.0, 16)["defect_dominance_min_gap"]
        assert abs(gap - oracle) <= 1e-13 * (sset.q - 1) / sset.size

    @pytest.mark.parametrize("p", [5, 31, 101, 307])
    def test_dominance_gap_is_the_whole_grid_min(self, p, singer_cache, monkeypatch, abs_grid):
        self.assert_gap_is_the_whole_grid_min(p, 16, singer_cache, monkeypatch, abs_grid)

    @pytest.mark.parametrize("p", [31, 307])
    def test_dominance_gap_on_a_user_fixed_4q_grid(self, p, singer_cache, monkeypatch, abs_grid):
        self.assert_gap_is_the_whole_grid_min(p, 4, singer_cache, monkeypatch, abs_grid)

    @staticmethod
    def assert_gap_is_the_whole_grid_min(p, multiplier, singer_cache, monkeypatch, abs_grid):
        # the row reads half the grid block by block and evaluates |Q| only where it could
        # lower the min so far; the whole-grid expression is exact.  At p = 307 the 16q grid
        # has 12 blocks of rows, the 4q grid 3, and the pruning skips all but a few chunks
        sset = singer_cache(p)
        grid = multiplier * sset.q
        P = build_polynomial(sset)
        absv = abs_grid(P.support, [P.scale] * P.size, grid)
        dominance = _perfect_defect_abs(sset.q, sset.size, grid, np.arange(grid))
        whole = float((dominance - np.abs(absv**2 - 1.0)).min())
        evaluated = []

        def counted(q, size, N, j):
            evaluated.append(np.size(j))
            return _perfect_defect_abs(q, size, N, j)

        monkeypatch.setattr(analysis, "_perfect_defect_abs", counted)
        row = flat_row(monkeypatch, singer_cache, p, 1.0, multiplier)
        assert row["defect_dominance_min_gap"] == whole
        if p == 307:
            assert sum(evaluated) < grid / 40

    def test_flat_grid_freed_before_mahler(self, singer_cache, monkeypatch):
        # p = 307: flatness streams the 16q grid (12 MB as one array) and mahler_log its
        # 2^21-point grid (17 MB) in row blocks; either grid as an array would break this
        singer_cache(307)
        tracemalloc.start()
        try:
            flat_row(monkeypatch, singer_cache, 307, 1.0, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_one_evaluation_at_the_flat_grid(self, monkeypatch, singer_cache):
        grids = []

        def counted(exponents, coeffs, N, offset=0.0, halo=0):
            grids.append(N)
            return _grid_blocks(exponents, coeffs, N, offset, halo)

        def forbidden(*args, **kwargs):
            raise AssertionError("the flat row needs no correlation table")

        for module in (poly, analysis, mahler, cli):
            monkeypatch.setattr(module, "_grid_blocks", counted, raising=False)
            monkeypatch.setattr(module, "correlations", forbidden, raising=False)
        q = singer_cache(5).q
        flat_row(monkeypatch, singer_cache, 5, 1.0, 16)
        assert grids.count(16 * q) == 1  # P once; |Q| in closed form
        assert sorted(N for N in grids if N != 16 * q) == [2048, 4096]  # mahler_log's N and N/2


def _run_python(code):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(flatpoly.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


@pytest.mark.parametrize("argv", [argv for argv, _ in PRICED])
def test_priced_failure_is_quick_in_a_fresh_process(argv, tmp_path):
    # before every budget was priced up front these ran for 3 s to over 25 s, up to 296 MB.
    # A small parent runs the command: a child's peak RSS counts the memory it was forked
    # from, which here would be this test process's
    report = tmp_path / "report.json"
    code = textwrap.dedent(f"""
        import resource, subprocess, sys, time
        start = time.perf_counter()
        code = subprocess.call([sys.executable, "-m", "flatpoly.cli", *{argv.split()!r},
                                "--no-timestamp", "-o", {str(report)!r}])
        print(code, time.perf_counter() - start,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    """)
    exit_code, elapsed, peak_kb = _run_python(code).split()
    assert int(exit_code) == 1
    assert json.loads(report.read_text())["error"]["type"] == "BudgetError"
    assert int(peak_kb) < 40 * 1024  # the interpreter and numpy, no construction
    assert float(elapsed) < 2.0  # 0.16-0.19 s on a 2-core x86-64 host


def test_import_leaves_out_scipy_and_sympy():
    code = ("import sys, flatpoly.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'sympy'))))")
    assert _run_python(code).strip() == "[]"


def test_singer_flat_and_mahler_rows_leave_out_numpy_ma():
    # a plain np.unique imports numpy.ma on its first call, 12-35 ms in every fresh process
    code = textwrap.dedent("""
        import sys
        from flatpoly.cli import _run_flat, parse
        from flatpoly.mahler import mahler_jensen
        from flatpoly.poly import build_polynomial
        from flatpoly.singer import construct_singer

        mahler_jensen(build_polynomial(construct_singer(7)))
        _run_flat(parse(["flat", "--primes", "7", "--alpha", "1"]))
        print("numpy.ma" in sys.modules)
    """)
    assert _run_python(code).strip() == "False"


@pytest.mark.parametrize("layer",
                         ["singer", "poly", "analysis", "mahler", "riesz", "rankone", "cli"])
def test_every_exported_name_exists(layer):
    module = importlib.import_module(f"flatpoly.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_runs_with_scipy_blocked():
    """numpy is the only runtime dependency: with scipy unimportable, the kernel
    tail users and every subcommand still run, so no lazy scipy import hides anywhere."""
    code = textwrap.dedent("""
        import os, sys
        sys.modules["scipy"] = None  # any import of scipy or a submodule raises ImportError
        from flatpoly import cli
        from flatpoly.analysis import KernelSpec, kernel_mass, realline_flatness
        from flatpoly.poly import build_polynomial
        from flatpoly.singer import construct_singer

        for s in (0.5, 3.0):
            rep = kernel_mass(KernelSpec(s))
            assert abs(rep.line_mass - 1.0) < 1e-8 and abs(rep.circle_mass - 1.0) < 1e-8, rep
        rep = realline_flatness(build_polynomial(construct_singer(2)), 1.0, KernelSpec(1.0))
        assert abs(rep.circle_value - rep.circle_truncated) <= rep.tail_bound, rep
        runs = (["singer", "--p", "13"], ["flat", "--primes", "2,3", "--alpha", "1"],
                ["mahler", "--primes", "2,3"], ["beta", "--primes", "2,3"],
                ["riesz", "--primes", "2,3"], ["rankone", "--primes", "2,3"],
                ["realline", "--primes", "2", "--alpha", "0.5", "--kernel-s", "3"])
        assert [argv[0] for argv in runs] == list(cli.SUBCOMMANDS)
        for argv in runs:
            assert cli.main(argv + ["--output", os.devnull, "--no-timestamp"]) == 0, argv
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
    """)
    assert _run_python(code).strip() == "['scipy']"  # only the blocking entry itself
