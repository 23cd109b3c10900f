"""Command-line front end: JSON/CSV reports for every capability.

Subcommands: singer, flat, mahler, beta, riesz, rankone, realline.
Reports are deterministic (UTF-8 JSON with sorted keys, or RFC-4180
CSV); pass --no-timestamp for byte-identical reruns.  Exit codes:
0 success, 1 computation error (the error is serialized into the
report), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, replace

from . import __version__
from .errors import BudgetError, check_budget
from .singer import _check_pm, _scan_singer, canonical_field_spec, construct_singer, gap_statistic
from .singer import normalize, singer_modulus
from .poly import _row_length, build_polynomial
from .analysis import GRID_MULTIPLIER, KernelSpec, _check_alpha, flatness, realline_flatness
from .analysis import realline_grid
from .mahler import mahler_grid, mahler_jensen, mahler_log
from .riesz import _margin_constant, check_dissociated, ergodicity_sum, make_plan, partial_coeffs
from .riesz import plan_to_json
from .rankone import build_tower, derive_map_params, measure_growth

__all__ = ["Command", "UsageError", "parse", "execute", "main"]

SUBCOMMANDS = ("singer", "flat", "mahler", "beta", "riesz", "rankone", "realline")

CSV_COLUMNS = {
    "flat": ["p", "q", "alpha", "grid", "defect_sq", "defect_abs", "l1", "mahler", "s3_bound"],
    "beta": ["p", "q", "l1", "mahler"],
    "mahler": ["p", "q", "mahler_log", "mahler_jensen", "cross_method_gap", "l1"],
    "realline": ["p", "q", "alpha", "s", "truncation", "circle_value", "circle_truncated",
                 "line_value", "tail_bound"],
}


# Method text of every mahler_log column; the row says whether it converged.
MAHLER_NEAR_ROOT = ("one grid of N = the smallest power of two >= max(4096, 16(degree + 1)) "
                    "points, minus the closed-form grid error of each root within 30/N of "
                    "the circle, the roots read off the grid; the error is the change "
                    "against the same correction on N/2 points, and mahler_converged is "
                    "true where it is below 1e-9")


class UsageError(ValueError):
    """Bad flags or flag values; maps to exit code 2."""


@dataclass(frozen=True)
class Command:
    subcommand: str
    p: int | None = None
    primes: tuple | None = None
    m: int = 1
    alpha: float | None = None
    grid_multiplier: int = GRID_MULTIPLIER
    rule: str | None = None
    scales: tuple | None = None
    stages: int | None = None
    kernel_s: float = 1.0
    truncation: int = 32
    output: str | None = None
    fmt: str = "json"
    timestamp: bool = True

    def canonical_argv(self):
        """Canonical argument list; parsing it reproduces this command."""
        argv = [self.subcommand]
        for flags, field, subcommands, _, _ in _OPTIONS:
            value = getattr(self, field)
            if self.subcommand not in subcommands or value is None or value is True:
                continue
            argv.append(flags.split()[0])
            if value is not False:  # the one switch, --no-timestamp, stands alone
                argv.append(",".join(map(str, value)) if isinstance(value, tuple) else str(value))
        return argv


def _int_list(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}") from None


def _within(test, text):
    """Range check: ValueError naming the value unless test(value) holds."""
    def check(value, cmd):
        if not test(value):
            raise ValueError(f"{text}, got {value}")
    return check


def _csv_available(fmt, cmd):
    if fmt == "csv" and cmd.subcommand not in CSV_COLUMNS:
        raise ValueError(f"csv is not available for subcommand {cmd.subcommand}")


_PLANS = ("riesz", "rankone")
_GRIDS = ("flat", "realline")

# One entry per option, in canonical argv order: flags (the first is canonical),
# Command field, the subcommands that take it, argparse keywords, and the range
# check, called with the value (each entry of a list) and the Command; it raises
# ValueError.  Defaults live in Command alone, and the ranges the library already
# checks are left to its own validators.
_OPTIONS = (
    ("--p", "p", ("singer",), dict(type=int, required=True), lambda p, cmd: _check_pm(p, 1)),
    ("--primes", "primes", SUBCOMMANDS[1:], dict(type=_int_list, required=True),
     lambda p, cmd: _check_pm(p, 1)),
    ("--m", "m", SUBCOMMANDS, dict(type=int), lambda m, cmd: _check_pm(2, m)),
    ("--alpha", "alpha", _GRIDS, dict(type=float, required=True),
     lambda alpha, cmd: _check_alpha(alpha)),
    ("--grid-multiplier", "grid_multiplier", _GRIDS, dict(type=int),
     _within(lambda g: g >= 8, "must be at least 8")),
    ("--rule", "rule", _PLANS, dict(type=str),
     lambda rule, cmd: rule == "explicit" or _margin_constant(rule)),
    ("--scales", "scales", _PLANS, dict(type=_int_list), None),
    ("--stages", "stages", _PLANS, dict(type=int), _within(lambda k: k >= 1, "must be positive")),
    ("--kernel-s", "kernel_s", ("realline",), dict(type=float), lambda s, cmd: KernelSpec(s)),
    ("--truncation", "truncation", ("realline",), dict(type=int),
     lambda n, cmd: KernelSpec(cmd.kernel_s, n)),
    ("--format", "fmt", SUBCOMMANDS, dict(choices=("json", "csv")), _csv_available),
    ("--output -o", "output", SUBCOMMANDS, dict(type=str), None),
    ("--no-timestamp", "timestamp", SUBCOMMANDS, dict(action="store_false"), None),
)

# riesz plans with the paper's margin rule; rankone's margin:2 gives the smallest admissible towers
_DEFAULT_RULES = {"riesz": "margin", "rankone": "margin:2"}


@functools.cache  # the parser holds no state between parse_args calls
def _build_parser():
    parser = argparse.ArgumentParser(prog="flatpoly", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        # an option left out stays out of the namespace, so Command supplies its default
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flags, field, subcommands, kwargs, _ in _OPTIONS:
            if name in subcommands:
                sp.add_argument(*flags.split(), dest=field, **kwargs)
    return parser


def parse(argv):
    """Parse and validate argv into a Command; UsageError on bad values."""
    cmd = Command(**vars(_build_parser().parse_args(argv)))
    if cmd.subcommand in _DEFAULT_RULES and cmd.rule is None and cmd.scales is None:
        cmd = replace(cmd, rule=_DEFAULT_RULES[cmd.subcommand])
    for flags, field, subcommands, _, check in _OPTIONS:
        value = getattr(cmd, field)
        if check is None or cmd.subcommand not in subcommands or value is None:
            continue
        try:
            for entry in value if isinstance(value, tuple) else (value,):
                check(entry, cmd)
        except ValueError as exc:
            raise UsageError(f"{flags.split()[0]}: {exc}") from None
    return cmd


def _rat(fr):
    """Exact rational as a numerator/denominator string pair."""
    return [str(fr.numerator), str(fr.denominator)]


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns a results dict, plus CSV rows)
# ---------------------------------------------------------------------------

def _run_singer(cmd):
    spec = canonical_field_spec(cmd.p, cmd.m)
    sset = normalize(_scan_singer(spec))  # counts every difference; raises unless each is one
    return {
        "p": cmd.p,
        "m": cmd.m,
        "q": sset.q,
        "residues": list(sset.residues),
        "normalized": sset.normalized,
        "gap_statistic": gap_statistic(sset),
        "difference_counts_all_one": sset.normalized,  # set only once normalize's count passed
        "field": {"modulus_poly": list(spec.modulus_poly), "generator": list(spec.generator)},
        "method": "subspace construction over GF(p^3m); exhaustive difference check (exact)",
    }


def _per_prime(methods, budgets):
    """Decorator: a row(cmd, p, P) function becomes the runner of a table, one row per prime.

    budgets(cmd, q, k) yields the (budget, size) pairs the row meets at modulus q with k terms;
    every prime's are checked before the first Singer set is built, and P is then built once
    per prime.  A Mahler grid and a Jensen degree are priced at q - 1 >= every Singer degree.
    """
    def runner(row):
        def run(cmd):
            for p in cmd.primes:
                for name, size in budgets(cmd, singer_modulus(p, cmd.m), p**cmd.m + 1):
                    check_budget(name, size)
            return {"rows": [row(cmd, p, build_polynomial(construct_singer(p, cmd.m)))
                             for p in cmd.primes], "methods": methods}
        return run
    return runner


def _flat_budgets(cmd, q, k):
    """flat's grid, the Mahler grid, then its row, priced only once both fit (_row_length
    factors the grid): the row of the built set wherever it exceeds poly._ROW_MAX."""
    yield "grid", cmd.grid_multiplier * q
    yield "grid", mahler_grid(q - 1)
    yield "row", _row_length(cmd.grid_multiplier * q, q - 1, k)


@_per_prime({
    "defect_sq": "uniform-grid quadrature of | |P|^2 - 1 |^alpha, row sums combined by fsum; "
                 "1e-6 from a same-grid dense oracle; off the integral by 3e-4 (p = 31), "
                 "1.3e-3 (p = 1009)",
    "defect_abs": "uniform-grid quadrature of | |P| - 1 |^alpha, row sums combined by fsum",
    "l1": "uniform-grid mean of |P| on the same grid, row sums combined by fsum, no near-root "
          "correction; up to 3.0e-5 off the corrected l1 of beta and mahler (p = 7; 6.7e-7 "
          "at p = 211)",
    "mahler": "log-integral on a midpoint grid, " + MAHLER_NEAR_ROOT,
    "s3_bound": "p^alpha/q + (q-1)/q (p+1)^-alpha with absolute constant 1",
    "defect_dominance_min_gap": "min over grid of |Q(z)| - ||P(z)|^2 - 1|, with |Q| in "
                                "closed form |sin((q-1)theta/2)| / (k |sin(theta/2)|) "
                                "(observational; not asserted)",
}, budgets=_flat_budgets)
def _run_flat(cmd, p, P):
    rep = flatness(P, cmd.alpha, cmd.grid_multiplier * P.q)  # rows freed before mahler_log's
    ml = mahler_log(P)
    return {
        "p": rep.p,
        "q": rep.q,
        "alpha": cmd.alpha,
        "grid": rep.grid_size,
        "defect_sq": rep.defect_sq,
        "defect_abs": rep.defect_abs,
        "l1": rep.l1_norm,
        "mahler": ml.value,
        "mahler_converged": ml.detail["converged"],
        "s3_bound": rep.s3_bound,
        "l2_defect_closed": rep.l2_defect_closed,
        "defect_dominance_min_gap": rep.defect_dominance_min_gap,
    }


@_per_prime({
    "mahler_log": "exp of midpoint-grid mean of log|P|, " + MAHLER_NEAR_ROOT,
    "mahler_jensen": "|lead| * prod |root| over |root| > 1, roots by Aberth sweeps on the "
                     "sparse form, certified by inclusion disks (error below 1e-10 for p <= 43)",
    "cross_method_gap": "tolerance 1e-6",
}, budgets=lambda cmd, q, k: [("grid", mahler_grid(q - 1)), ("jensen", q - 1)])
def _run_mahler(cmd, p, P):
    ml, mj = mahler_log(P), mahler_jensen(P)
    return {
        "p": p,
        "q": P.q,
        "mahler_log": ml.value,
        "mahler_jensen": mj.value,
        "cross_method_gap": abs(ml.value - mj.value),
        "l1": ml.l1,
        "mahler_converged": ml.detail["converged"],
    }


@_per_prime({
    "l1": "midpoint-grid quadrature mean of |P| on the mahler grid, minus the leading-order "
          "grid error of each root within 30/N of the circle",
    "mahler": "log-integral, " + MAHLER_NEAR_ROOT,
    "note": "values over the family are tabulated only; no limit is asserted",
}, budgets=lambda cmd, q, k: [("grid", mahler_grid(q - 1))])
def _run_beta(cmd, p, P):
    ml = mahler_log(P)
    return {"p": p, "q": P.q, "l1": ml.l1, "mahler": ml.value,
            "mahler_converged": ml.detail["converged"]}


def _plan(cmd):
    """The command's plan and its stage count, --stages or every stage."""
    plan = make_plan(cmd.primes, rule=cmd.rule, m=cmd.m, scales=cmd.scales)
    k = cmd.stages if cmd.stages is not None else len(plan.stages)
    if not 1 <= k <= len(plan.stages):
        raise ValueError(f"--stages {k} exceeds the plan's {len(plan.stages)} stages")
    return plan, k


def _run_riesz(cmd):
    plan, k = _plan(cmd)
    coeffs = partial_coeffs(plan, k)
    certs = {mode: check_dissociated(plan, k, mode=mode) for mode in ("sums", "differences")}
    result = {
        "plan": json.loads(plan_to_json(plan)),
        "heights": list(plan.heights),
        "frequencies": [list(st.frequencies) for st in plan.stages],
        "dissociation": {
            mode: {"valid": cert.valid,
                   "collision": list(map(list, cert.collision[:2])) + [cert.collision[2]]
                   if cert.collision else None}
            for mode, cert in certs.items()
        },
        "partial_coefficients": {
            "stages": k,
            "support_size": len(coeffs.coefficients),
            "zero_coefficient": _rat(coeffs.zero_coefficient),
            "total_mass": _rat(coeffs.total_mass),
            "dissociation_consistent": coeffs.dissociation_consistent,
        },
        "methods": {
            "dissociation": "exhaustive brute force within budget 10^6 (exact)",
            "partial_coefficients": "sparse convolution over exact rationals (exact)",
            "ergodicity": "exact rational partial sums of ((p_j+1) N_j / N_{j+1})^2",
        },
    }
    if len(plan.stages) >= 2:
        erg = ergodicity_sum(plan)
        result["ergodicity"] = {
            "terms": [_rat(t) for t in erg.terms],
            "partial_sums": [_rat(t) for t in erg.partial_sums],
            "criterion_met": erg.criterion_met,
            "converged_below": _rat(erg.converged_below) if erg.converged_below else None,
        }
    return result


def _run_rankone(cmd):
    plan, K = _plan(cmd)
    params = derive_map_params(plan)
    growth = measure_growth(params)
    tower = build_tower(params, K)
    return {
        "plan": json.loads(plan_to_json(plan)),
        "base_height": params.base_height,
        "h": list(params.heights),
        "stages": [
            {"cutting": st.cutting, "spacers": list(st.spacers),
             "height": st.height, "scale": st.scale}
            for st in params.stages
        ],
        "growth": {
            "terms": [_rat(t) for t in growth.terms],
            "partial_sums": [_rat(t) for t in growth.partial_sums],
            "finite_measure": growth.finite_measure,
            "terms_nondecreasing": growth.terms_nondecreasing,
        },
        "tower": {
            "stage": tower.stage,
            "level_count": tower.level_count,
            "level_width": _rat(tower.width),
            "total_measure": _rat(tower.total_measure),
            "spacer_measure_by_stage": [_rat(tower.spacer_measure(j))
                                        for j in range(1, K + 1)],
        },
        "methods": {
            "heights": "dual recursion h_j = max(S_j) N_j + h_{j-1} = r_j h_{j-1} + sum a (exact)",
            "tower": "exact rational interval widths; zero tolerance",
        },
    }


@_per_prime({
    "circle_value": "midpoint grid mean against the exact periodized kernel, on the least "
                    "power of two >= max(4096, grid-multiplier q, 2 ceil(s)) points",
    "circle_truncated": "same grid, kernel truncated to the periodization window",
    "line_value": "kink-seeded adaptive Gauss-Legendre over the same window; "
                  "agreement with circle_truncated is limited by the circle grid: "
                  "measured within 2e-5 at alpha = 1 and s = 3 for 17 <= p <= 37 "
                  "(1.3e-4 at alpha = 0.5), 1.7e-9 at q = 7 on 2^15 points",
}, budgets=lambda cmd, q, k: [  # the circle grid, then the ceil(s) passes of periodized_kernel
    # and the 2T + 1 of the truncated kernel over it
    (name, realline_grid(q, cmd.kernel_s, cmd.grid_multiplier) * passes) for name, passes
    in (("grid", 1), ("kernel", math.ceil(cmd.kernel_s)), ("kernel", 2 * cmd.truncation + 1))])
def _run_realline(cmd, p, P):
    rep = realline_flatness(P, cmd.alpha, KernelSpec(s=cmd.kernel_s, truncation=cmd.truncation),
                            cmd.grid_multiplier)
    return {
        "p": p,
        "q": P.q,
        "alpha": cmd.alpha,
        "s": cmd.kernel_s,
        "truncation": cmd.truncation,
        "circle_value": rep.circle_value,
        "circle_truncated": rep.circle_truncated,
        "line_value": rep.line_value,
        "tail_bound": rep.tail_bound,
    }


_RUNNERS = {
    "singer": _run_singer,
    "flat": _run_flat,
    "mahler": _run_mahler,
    "beta": _run_beta,
    "riesz": _run_riesz,
    "rankone": _run_rankone,
    "realline": _run_realline,
}


def _render(cmd, payload):
    if cmd.fmt == "csv" and "results" in payload:  # an error report is always JSON
        columns = CSV_COLUMNS[cmd.subcommand]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in payload["results"]["rows"]:
            writer.writerow([row[c] for c in columns])
        return buf.getvalue()
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def execute(cmd: Command):
    """Run a command, write its report, and return the exit code."""
    payload = {
        "tool": {"name": "flatpoly", "version": __version__},
        # echo the computation, not the destination: byte-identical reports
        # regardless of where they are written
        "command": " ".join(replace(cmd, output=None).canonical_argv()),
    }
    if cmd.timestamp:
        payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    code = 0
    try:
        payload["results"] = _RUNNERS[cmd.subcommand](cmd)
    except (ValueError, BudgetError, RuntimeError) as exc:
        payload["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 1
    text = _render(cmd, payload)
    if cmd.output:
        with open(cmd.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main(argv=None):
    try:
        cmd = parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"flatpoly: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse's own usage failures
        return exc.code if isinstance(exc.code, int) else 2
    return execute(cmd)


if __name__ == "__main__":
    sys.exit(main())
