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
import io
import json
import sys
from dataclasses import dataclass, replace

from . import __version__
from .errors import BudgetError
from .singer import _is_prime, _scan_singer, canonical_field_spec, construct_singer, gap_statistic
from .singer import normalize, verify_perfect_difference
from .poly import _perfect_defect_abs, build_polynomial, eval_grid
from .analysis import KernelSpec, _flatness_from_abs, realline_flatness
from .mahler import mahler_jensen, mahler_log
from .riesz import check_dissociated, ergodicity_sum, make_plan, partial_coeffs, plan_to_json
from .rankone import build_tower, derive_map_params, measure_growth

import numpy as np

__all__ = ["Command", "UsageError", "parse", "execute", "main"]

SUBCOMMANDS = ("singer", "flat", "mahler", "beta", "riesz", "rankone", "realline")
CSV_SUBCOMMANDS = ("flat", "mahler", "beta", "realline")

CSV_COLUMNS = {
    "flat": ["p", "q", "alpha", "grid", "defect_sq", "defect_abs", "l1", "mahler", "s3_bound"],
    "beta": ["p", "q", "l1", "mahler"],
    "mahler": ["p", "q", "mahler_log", "mahler_jensen", "cross_method_gap", "l1"],
    "realline": ["p", "q", "alpha", "s", "truncation", "circle_value", "circle_truncated",
                 "line_value", "tail_bound"],
}


# Method text of every mahler_log column; the row says whether it converged.
MAHLER_DOUBLING = ("grid doubling until the mean of log|P| moves by less than 1e-9, "
                   "capped at 2^22 points; mahler_converged is false where it reached "
                   "the cap without meeting 1e-9")


class UsageError(ValueError):
    """Bad flags or flag values; maps to exit code 2."""


@dataclass(frozen=True)
class Command:
    subcommand: str
    p: int | None = None
    primes: tuple | None = None
    m: int = 1
    alpha: float | None = None
    grid_multiplier: int = 16
    rule: str | None = None
    scales: tuple | None = None
    stages: int | None = None
    kernel_s: float | None = None
    truncation: int = 32
    output: str | None = None
    fmt: str = "json"
    timestamp: bool = True

    def canonical_argv(self):
        """Canonical argument list; parsing it reproduces this command."""
        argv = [self.subcommand]
        if self.p is not None:
            argv += ["--p", str(self.p)]
        if self.primes is not None:
            argv += ["--primes", ",".join(str(p) for p in self.primes)]
        argv += ["--m", str(self.m)]
        if self.alpha is not None:
            argv += ["--alpha", repr(self.alpha)]
        if self.subcommand in ("flat", "realline"):
            argv += ["--grid-multiplier", str(self.grid_multiplier)]
        if self.rule is not None:
            argv += ["--rule", self.rule]
        if self.scales is not None:
            argv += ["--scales", ",".join(str(N) for N in self.scales)]
        if self.stages is not None:
            argv += ["--stages", str(self.stages)]
        if self.kernel_s is not None:
            argv += ["--kernel-s", repr(self.kernel_s)]
        if self.subcommand == "realline":
            argv += ["--truncation", str(self.truncation)]
        argv += ["--format", self.fmt]
        if self.output is not None:
            argv += ["--output", self.output]
        if not self.timestamp:
            argv += ["--no-timestamp"]
        return argv


def _int_list(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


def _build_parser():
    parser = argparse.ArgumentParser(prog="flatpoly", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    specs = {
        "singer": dict(p=True),
        "flat": dict(primes=True, alpha=True, grid=True),
        "mahler": dict(primes=True),
        "beta": dict(primes=True),
        "riesz": dict(primes=True, plan=True),
        "rankone": dict(primes=True, plan=True),
        "realline": dict(primes=True, alpha=True, grid=True, kernel=True),
    }
    for name, opts in specs.items():
        sp = sub.add_parser(name)
        if opts.get("p"):
            sp.add_argument("--p", type=int, required=True)
        if opts.get("primes"):
            sp.add_argument("--primes", type=str, required=True)
        sp.add_argument("--m", type=int, default=1)
        if opts.get("alpha"):
            sp.add_argument("--alpha", type=float, required=True)
        if opts.get("grid"):
            sp.add_argument("--grid-multiplier", type=int, default=16)
        if opts.get("plan"):
            sp.add_argument("--rule", type=str, default=None)
            sp.add_argument("--scales", type=str, default=None)
            sp.add_argument("--stages", type=int, default=None)
        if opts.get("kernel"):
            sp.add_argument("--kernel-s", type=float, default=1.0)
            sp.add_argument("--truncation", type=int, default=32)
        sp.add_argument("--output", "-o", type=str, default=None)
        sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        sp.add_argument("--no-timestamp", dest="timestamp", action="store_false")
    return parser


def parse(argv):
    """Parse and validate argv into a Command; UsageError on bad values."""
    ns = _build_parser().parse_args(argv)
    cmd = Command(
        subcommand=ns.subcommand,
        p=getattr(ns, "p", None),
        primes=_int_list(ns.primes) if getattr(ns, "primes", None) is not None else None,
        m=ns.m,
        alpha=getattr(ns, "alpha", None),
        grid_multiplier=getattr(ns, "grid_multiplier", 16),
        rule=getattr(ns, "rule", None),
        scales=_int_list(ns.scales) if getattr(ns, "scales", None) is not None else None,
        stages=getattr(ns, "stages", None),
        kernel_s=getattr(ns, "kernel_s", None),
        truncation=getattr(ns, "truncation", 32),
        output=ns.output,
        fmt=ns.fmt,
        timestamp=ns.timestamp,
    )
    if cmd.subcommand == "rankone" and cmd.rule is None and cmd.scales is None:
        cmd = replace(cmd, rule="margin:2")  # smallest admissible towers
    if cmd.subcommand == "riesz" and cmd.rule is None and cmd.scales is None:
        cmd = replace(cmd, rule="margin")
    _validate(cmd)
    return cmd


def _validate(cmd):
    for label, value in (("--p", (cmd.p,) if cmd.p is not None else ()),
                         ("--primes", cmd.primes or ())):
        for p in value:
            if not _is_prime(p):
                raise UsageError(f"{label}: {p} is not prime")
    if cmd.m < 1:
        raise UsageError(f"--m: must be positive, got {cmd.m}")
    if cmd.alpha is not None and not 0 < cmd.alpha <= 2:
        raise UsageError(f"--alpha: must lie in (0, 2], got {cmd.alpha}")
    if cmd.kernel_s is not None and cmd.kernel_s <= 0:
        raise UsageError(f"--kernel-s: must be positive, got {cmd.kernel_s}")
    if cmd.truncation < 8:
        raise UsageError(f"--truncation: need at least 8 terms, got {cmd.truncation}")
    if cmd.grid_multiplier < 8:
        raise UsageError(f"--grid-multiplier: must be at least 8, got {cmd.grid_multiplier}")
    if cmd.fmt == "csv" and cmd.subcommand not in CSV_SUBCOMMANDS:
        raise UsageError(f"--format: csv is not available for subcommand {cmd.subcommand}")
    if cmd.stages is not None and cmd.stages < 1:
        raise UsageError(f"--stages: must be positive, got {cmd.stages}")


def _rat(fr):
    """Exact rational as a numerator/denominator string pair."""
    return [str(fr.numerator), str(fr.denominator)]


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns a results dict, plus CSV rows)
# ---------------------------------------------------------------------------

def _run_singer(cmd):
    spec = canonical_field_spec(cmd.p, cmd.m)
    sset = normalize(_scan_singer(spec))
    report = verify_perfect_difference(sset.residues, sset.q)
    return {
        "p": cmd.p,
        "m": cmd.m,
        "q": sset.q,
        "residues": list(sset.residues),
        "normalized": sset.normalized,
        "gap_statistic": gap_statistic(sset),
        "difference_counts_all_one": report.valid,
        "field": {
            "modulus_poly": list(spec.modulus_poly),
            "generator": list(spec.generator),
        },
        "method": "subspace construction over GF(p^3m); exhaustive difference check (exact)",
    }


def _flat_row(p, m, alpha, grid_multiplier):
    sset = construct_singer(p, m)
    P = build_polynomial(sset)
    grid = grid_multiplier * sset.q
    absv = np.abs(eval_grid(P, grid).values)
    rep = _flatness_from_abs(P, alpha, absv)
    ml = mahler_log(P)
    gap = _perfect_defect_abs(sset.q, sset.size, grid) - np.abs(absv**2 - 1.0)
    return {
        "p": rep.p,
        "q": rep.q,
        "alpha": alpha,
        "grid": grid,
        "defect_sq": rep.defect_sq,
        "defect_abs": rep.defect_abs,
        "l1": rep.l1_norm,
        "mahler": ml.value,
        "mahler_converged": ml.detail["converged"],
        "s3_bound": rep.s3_bound,
        "l2_defect_closed": rep.l2_defect_closed,
        "defect_dominance_min_gap": float(gap.min()),
    }


def _run_flat(cmd):
    rows = [_flat_row(p, cmd.m, cmd.alpha, cmd.grid_multiplier) for p in cmd.primes]
    return {
        "rows": rows,
        "methods": {
            "defect_sq": "uniform-grid quadrature of | |P|^2 - 1 |^alpha, pairwise sum; "
                         "tolerance 1e-6 against dense-evaluation oracle",
            "defect_abs": "uniform-grid quadrature of | |P| - 1 |^alpha, pairwise sum",
            "mahler": "log-integral on a midpoint grid, " + MAHLER_DOUBLING,
            "s3_bound": "p^alpha/q + (q-1)/q (p+1)^-alpha with absolute constant 1",
            "defect_dominance_min_gap": "min over grid of |Q(z)| - ||P(z)|^2 - 1|, with |Q| in "
                                        "closed form |sin((q-1)theta/2)| / (k |sin(theta/2)|) "
                                        "(observational; not asserted)",
        },
    }


def _run_mahler(cmd):
    rows = []
    for p in cmd.primes:
        P = build_polynomial(construct_singer(p, cmd.m))
        ml, mj = mahler_log(P), mahler_jensen(P)
        rows.append({
            "p": p,
            "q": P.q,
            "mahler_log": ml.value,
            "mahler_jensen": mj.value,
            "cross_method_gap": abs(ml.value - mj.value),
            "l1": ml.l1,
            "mahler_converged": ml.detail["converged"],
        })
    return {
        "rows": rows,
        "methods": {
            "mahler_log": "exp of midpoint-grid mean of log|P|, " + MAHLER_DOUBLING,
            "mahler_jensen": "companion-matrix roots; |lead| * prod |root| over |root| > 1",
            "cross_method_gap": "tolerance 1e-6",
        },
    }


def _run_beta(cmd):
    rows = []
    for p in cmd.primes:
        P = build_polynomial(construct_singer(p, cmd.m))
        ml = mahler_log(P)
        rows.append({"p": p, "q": P.q, "l1": ml.l1, "mahler": ml.value,
                     "mahler_converged": ml.detail["converged"]})
    return {
        "rows": rows,
        "methods": {
            "l1": "midpoint-grid quadrature mean of |P|",
            "mahler": "log-integral, " + MAHLER_DOUBLING,
            "note": "suprema over the family tend to 1; tabulated only, not asserted",
        },
    }


def _make_plan(cmd):
    return make_plan(cmd.primes, rule=cmd.rule or "margin", m=cmd.m, scales=cmd.scales)


def _run_riesz(cmd):
    plan = _make_plan(cmd)
    k = cmd.stages if cmd.stages is not None else len(plan.stages)
    if not 1 <= k <= len(plan.stages):
        raise ValueError(f"--stages {k} exceeds the plan's {len(plan.stages)} stages")
    coeffs = partial_coeffs(plan, k)
    certs = {
        mode: check_dissociated(plan, k, mode=mode)
        for mode in ("sums", "differences")
    }
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
    plan = _make_plan(cmd)
    K = cmd.stages if cmd.stages is not None else len(plan.stages)
    if not 1 <= K <= len(plan.stages):
        raise ValueError(f"--stages {K} exceeds the plan's {len(plan.stages)} stages")
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


def _run_realline(cmd):
    spec = KernelSpec(s=cmd.kernel_s, truncation=cmd.truncation)
    rows = []
    for p in cmd.primes:
        P = build_polynomial(construct_singer(p, cmd.m))
        rep = realline_flatness(P, cmd.alpha, spec,
                                circle_grid=max(4096, cmd.grid_multiplier * P.q))
        rows.append({
            "p": p,
            "q": P.q,
            "alpha": cmd.alpha,
            "s": cmd.kernel_s,
            "truncation": cmd.truncation,
            "circle_value": rep.circle_value,
            "circle_truncated": rep.circle_truncated,
            "line_value": rep.line_value,
            "tail_bound": rep.tail_bound,
        })
    return {
        "rows": rows,
        "methods": {
            "circle_value": "midpoint grid mean against the exact periodized kernel",
            "circle_truncated": "same grid, kernel truncated to the periodization window",
            "line_value": "kink-seeded adaptive Gauss-Legendre over the same window; "
                          "agreement with circle_truncated is limited by the circle "
                          "grid (1e-6 at the acceptance scale q = 7)",
        },
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
    if cmd.fmt == "csv":
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
    text = _render(cmd, payload) if code == 0 else json.dumps(
        payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
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
