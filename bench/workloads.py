"""The benchmark's workloads: seeded inputs, tasks and output checks.

Each workload is a list of tasks run one after another by one caller
(a closed loop).  A task calls flatpoly's public API: ``cli.main`` where
a subcommand exists, the library function otherwise.  Every task's
output is checked:

* exact outputs equal the references in ``references.json`` exactly
  (recorded by ``record_references.py``);
* random inputs are checked by identities that hold for any seed;
* floating outputs are held to the tolerance the report's ``methods``
  or the acceptance suite states, never tighter, so that a more
  accurate routine does not read as a failure.

Calls go through module attributes (``singer.construct_singer``), so the
traced run sees the wrappers it installs.  The checks never call
flatpoly, so they add no spans.

Workloads:

* ``exact``: the pure-Python exact layer, no grids.  Singer sets at the
  top of the documented range (p = 1009), where construction dominates,
  then the plan tasks: exact Fraction/dict work on tiny Singer sets
  (Riesz coefficients, towers, correlations) and many small
  ``mahler_log`` calls on the 4096-point floor.  The plan tasks are not
  a workload of their own: on a shared 2-core host their memory-bound
  Fraction/dict work drifts with the machine by about 20% over minutes,
  and a run of their own could not average that out.
* ``grid``: FFT grid evaluation, quadrature reductions, Mahler measures
  and the real-line quadrature.  The 16q grid is a fast FFT length at
  p = 211 and a slow Bluestein length at p = 307.

The seed chooses only the random supports and rotations; primes are
fixed.  No (p, m) is constructed by two tasks of one workload, except
the small primes the plan tasks repeat by design, so memoizing across
tasks does not read as a gain.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from flatpoly import analysis, cli, mahler, poly, rankone, riesz, singer

REFERENCES_PATH = Path(__file__).resolve().parent / "references.json"

EXACT_CHAINS = ((101, 1), (401, 1), (1009, 1), (7, 2), (13, 2), (3, 3))
EXACT_SINGER_REPORT = ("singer", "--p", "211")
EXACT_SUPPORTS = ((256, 10**5), (1024, 10**6))  # (k, q): k distinct residues in [0, q)

GRID_REPORTS = (
    ("flat", "--primes", "31,211,307", "--alpha", "1"),
    ("beta", "--primes", "13,61"),
    ("mahler", "--primes", "7,23"),
    ("realline", "--primes", "2,3,5", "--alpha", "0.5", "--kernel-s", "3"),
)
GRID_MZ_SUPPORTS = ((128, 2**12), (1024, 2**16))  # (k, n): support in [0, n), n samples

PLANS_REPORTS = (
    ("riesz", "--primes", "2,3,5,7", "--stages", "4"),
    ("riesz", "--primes", "2,3,5,2,3"),
    ("rankone", "--primes", "2,3,5,7,2"),
)
PLANS_TOWER = ((2, 3, 5, 7, 2), "margin:2")  # correlation plan: primes, rule
PLANS_CORRELATION_K = (0, 1, 2)
PLANS_CORRELATION_N = 200  # evenly spaced n in [0, h_K)
PLANS_RIESZ = (2, 3, 5, 7, 11)  # default-rule plan for quasi-invariance and riesz_mahler
PLANS_ROTATIONS = 200
PLANS_ROTATION_DENOMINATOR = 10**6

# Tolerances, each as stated by the report's methods or the acceptance suite.
TOL_QUADRATURE = 1e-6  # flat "defect_sq" method; acceptance criteria 4, 5, 9
TOL_MAHLER = 1e-6  # mahler "cross_method_gap" method; acceptance criterion 6
TOL_CHAIN = 1e-8  # M <= L1 <= 1; acceptance criterion 6
TOL_MZ_ALPHA2 = 1e-10  # discrete Parseval; acceptance criterion 10
MZ_BAND = (0.1, 10.0)  # alpha = 1.5 ratio band; acceptance criterion 10
TOL_CLOSED_FORM = 1e-12  # float renderings of closed forms


class CheckError(AssertionError):
    """A task's output disagrees with its reference or identity."""


def expect(condition, message):
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass(frozen=True)
class Report:
    """What one ``cli.main`` call returned and printed."""

    code: int
    text: str


def digest(value):
    """sha256 of the canonical JSON of an exact value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def rational(pair):
    """An exact rational from the CLI's [numerator, denominator] string pair."""
    return Fraction(int(pair[0]), int(pair[1]))


def run_report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*argv, "--no-timestamp"])
    return Report(code, buf.getvalue())


def report_results(report, argv):
    expect(report.code == 0, f"{' '.join(argv)} exited {report.code}: {report.text[:200]}")
    return json.loads(report.text)["results"]


def exact_part(results):
    """A report's results without its free-text method descriptions."""
    return {key: value for key, value in results.items() if key not in ("method", "methods")}


def close(value, reference, tol, what):
    expect(abs(value - reference) <= tol, f"{what}: {value!r} vs reference {reference!r} (tol {tol})")


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def _chain_task(p, m, ref):
    def run():
        sset = singer.construct_singer(p, m)
        diff = singer.verify_perfect_difference(sset.residues, sset.q)
        table = poly.correlations(sset)
        defect = poly.defect_poly(sset)
        return sset, diff, table, defect, analysis.l2_defect_sq_exact(table)

    def check(out):
        sset, diff, table, defect, l2 = out
        pm = p**m
        k, q = pm + 1, pm * pm + pm + 1
        expect((sset.p, sset.m, sset.q, len(sset.residues)) == (p, m, q, k), f"shape of S({p},{m})")
        expect(digest(list(sset.residues)) == ref["residues_sha256"], f"residues of S({p},{m})")
        expect(diff.valid and diff.counts[0] == 0 and diff.counts.count(1) == q - 1,
               f"difference counts of S({p},{m}) are not all one")
        expect(table.cyclic[0] == k and table.cyclic.count(1) == q - 1,
               f"cyclic correlations of S({p},{m})")
        expect(sum(table.aperiodic) == k * k, f"aperiodic correlations of S({p},{m}) sum")
        expect(len(defect.coefficients) == q - 1 and defect.coefficients.count(Fraction(1, k)) == q - 1,
               f"defect coefficients of S({p},{m}) are not all 1/{k}")
        expect(l2 == Fraction(pm, pm + 1), f"l2_defect_sq_exact of S({p},{m}) = {l2}")

    return Task(f"chain p={p} m={m}", run, check)


def _singer_report_task(ref):
    argv = EXACT_SINGER_REPORT

    def check(report):
        results = report_results(report, argv)
        expect(results["difference_counts_all_one"] and results["normalized"], "singer report flags")
        expect(digest(exact_part(results)) == ref, "singer report differs from its reference")

    return Task(" ".join(argv), lambda: run_report(argv), check)


def _support_task(rng, k, q):
    support = np.sort(rng.choice(q, size=k, replace=False)).tolist()

    def run():
        table = poly.correlation_table(support, q)
        return table, analysis.l2_defect_sq_exact(table)

    def check(out):
        table, l2 = out
        s = np.array(support, dtype=np.int64)
        counts = np.bincount((s[:, None] - s[None, :]).ravel() + (q - 1), minlength=2 * q - 1)
        expect(np.array_equal(np.asarray(table.aperiodic), counts), "aperiodic counts differ from a recount")
        gamma = np.asarray(table.cyclic)
        expect(int(gamma.sum()) == k * k, "sum of cyclic counts is not k^2")
        wrapped = counts[q - 1:] + np.concatenate(([0], counts[:q - 1]))  # c_r + c_{r-q}
        expect(np.array_equal(gamma, wrapped), "gamma_r != c_r + c_{r-q}")
        expect(l2 == Fraction(int((counts * counts).sum()) - k * k, k * k), f"l2_defect_sq_exact = {l2}")

    return Task(f"random support k={k} q={q}", run, check)




# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def _check_chain_inequality(row, mahler_key="mahler"):
    expect(0 < row[mahler_key] <= row["l1"] + TOL_CHAIN and row["l1"] <= 1 + TOL_CHAIN,
           f"p={row['p']}: M <= L1 <= 1 fails ({row[mahler_key]}, {row['l1']})")


def _check_rows(rows, refs, what):
    expect([row["p"] for row in rows] == [ref["p"] for ref in refs], f"{what}: primes")
    for row, ref in zip(rows, refs):
        expect(row["q"] == ref["q"], f"{what} p={row['p']}: q")
    return zip(rows, refs)


def _check_flat(results, refs):
    for row, ref in _check_rows(results["rows"], refs, "flat"):
        p, q, alpha = row["p"], row["q"], row["alpha"]
        expect(row["grid"] >= 4 * q, f"flat p={p}: grid {row['grid']} below 4q")
        for key in ("defect_sq", "defect_abs", "l1"):
            close(row[key], ref[key], TOL_QUADRATURE, f"flat p={p} {key}")
        close(row["mahler"], ref["mahler"], ref["mahler_tol"], f"flat p={p} mahler")
        _check_chain_inequality(row)
        s3 = p**alpha / q + (q - 1) / q * (p + 1) ** (-alpha)
        close(row["s3_bound"], s3, TOL_CLOSED_FORM, f"flat p={p} s3_bound")
        close(row["l2_defect_closed"], math.sqrt(p / (p + 1)), TOL_CLOSED_FORM, f"flat p={p} l2_defect_closed")
        expect(math.isfinite(row["defect_dominance_min_gap"]), f"flat p={p}: dominance gap")


def _check_beta(results, refs):
    for row, ref in _check_rows(results["rows"], refs, "beta"):
        close(row["l1"], ref["l1"], TOL_QUADRATURE, f"beta p={row['p']} l1")
        close(row["mahler"], ref["mahler"], ref["mahler_tol"], f"beta p={row['p']} mahler")
        _check_chain_inequality(row)


def _check_mahler(results, refs):
    for row, ref in _check_rows(results["rows"], refs, "mahler"):
        p = row["p"]
        gap = abs(row["mahler_log"] - row["mahler_jensen"])
        expect(row["cross_method_gap"] == gap and gap <= TOL_MAHLER, f"mahler p={p}: cross-method gap {gap}")
        for key in ("mahler_log", "mahler_jensen", "l1"):
            close(row[key], ref[key], TOL_MAHLER, f"mahler p={p} {key}")
        _check_chain_inequality(row, "mahler_log")


def _check_realline(results, refs):
    for row, ref in _check_rows(results["rows"], refs, "realline"):
        p = row["p"]
        for key in ("alpha", "s", "truncation"):
            expect(row[key] == ref[key], f"realline p={p}: {key}")
        for key in ("circle_value", "circle_truncated", "line_value", "tail_bound"):
            close(row[key], ref[key], TOL_QUADRATURE, f"realline p={p} {key}")
        # the window drops nonnegative mass, at most tail_bound
        missing = row["circle_value"] - row["circle_truncated"]
        expect(-TOL_QUADRATURE <= missing <= row["tail_bound"] + TOL_QUADRATURE,
               f"realline p={p}: window misses {missing}, bound {row['tail_bound']}")


GRID_CHECKS = {"flat": _check_flat, "beta": _check_beta, "mahler": _check_mahler,
               "realline": _check_realline}


def _grid_report_task(argv, refs):
    check_rows = GRID_CHECKS[argv[0]]

    def check(report):
        check_rows(report_results(report, argv), refs)

    return Task(" ".join(argv), lambda: run_report(argv), check)


def _mz_task(rng, k, n):
    support = np.sort(rng.choice(n, size=k, replace=False)).tolist()

    def run():
        P = poly.newman_from_support(support, q=n)
        return analysis.mz_ratio(P, 1.5, n), analysis.mz_ratio(P, 2.0, n)

    def check(out):
        r15, r2 = out
        expect(r15.n == n and r2.n == n, "mz sample count")
        expect(abs(r2.ratio - 1.0) <= TOL_MZ_ALPHA2, f"alpha=2 MZ ratio {r2.ratio!r} is not 1")
        expect(MZ_BAND[0] <= r15.ratio <= MZ_BAND[1], f"alpha=1.5 MZ ratio {r15.ratio!r} out of band")

    return Task(f"mz_ratio k={k} n={n}", run, check)


def grid_tasks(seed, refs):
    rng = np.random.default_rng(seed)
    tasks = [_grid_report_task(argv, refs[" ".join(argv)]) for argv in GRID_REPORTS]
    tasks += [_mz_task(rng, k, n) for k, n in GRID_MZ_SUPPORTS]
    return tasks


# ---------------------------------------------------------------------------
# exact: plan tasks
# ---------------------------------------------------------------------------

def _check_riesz(results, argv):
    primes = results["plan"]["primes"]
    k = results["partial_coefficients"]["stages"]
    mass = math.prod(p + 1 for p in primes[:k])
    coeffs = results["partial_coefficients"]
    expect(rational(coeffs["zero_coefficient"]) == 1, f"{' '.join(argv)}: zero coefficient is not 1")
    expect(rational(coeffs["total_mass"]) == mass, f"{' '.join(argv)}: total mass is not {mass}")
    expect(coeffs["dissociation_consistent"], f"{' '.join(argv)}: not dissociation consistent")
    for mode, cert in results["dissociation"].items():
        expect(cert["valid"] and cert["collision"] is None, f"{' '.join(argv)}: {mode} certificate")


def _check_rankone(results, argv):
    tower, stages = results["tower"], results["stages"]
    h = results["base_height"]
    for st in stages:
        h_stack = st["cutting"] * h + sum(st["spacers"])
        expect(st["height"] == h_stack, f"{' '.join(argv)}: stacking recursion fails")
        h = st["height"]
    K = tower["stage"]
    width = Fraction(1, math.prod(st["cutting"] for st in stages[:K]))
    spacers = sum(rational(m) for m in tower["spacer_measure_by_stage"])
    expect(tower["level_count"] == results["h"][K - 1], f"{' '.join(argv)}: level count")
    expect(rational(tower["level_width"]) == width, f"{' '.join(argv)}: level width")
    expect(rational(tower["total_measure"]) == 1 + spacers == tower["level_count"] * width,
           f"{' '.join(argv)}: tower measure")


PLANS_CHECKS = {"riesz": _check_riesz, "rankone": _check_rankone}


def _plans_report_task(argv, ref):
    check_identities = PLANS_CHECKS[argv[0]]

    def check(report):
        results = report_results(report, argv)
        check_identities(results, argv)
        expect(digest(exact_part(results)) == ref, f"{' '.join(argv)} differs from its reference")

    return Task(" ".join(argv), lambda: run_report(argv), check)


def tower_correlations():
    """Return-time correlations of the stage-k bases, k in PLANS_CORRELATION_K."""
    primes, rule = PLANS_TOWER
    params = rankone.derive_map_params(riesz.make_plan(primes, rule=rule))
    K = len(params.stages)
    h = params.stages[-1].height
    return [(k, n, rankone.correlation(params, k, K, n))
            for k in PLANS_CORRELATION_K
            for n in (i * h // PLANS_CORRELATION_N for i in range(PLANS_CORRELATION_N))]


def correlation_rows(out):
    return [[k, n] + [str(v) for v in (c.empirical, c.predicted, c.tolerance, c.excluded_mass)]
            for k, n, c in out]


def _correlation_task(ref):
    def check(out):
        for k, n, c in out:
            expect(abs(c.empirical - c.predicted) <= c.tolerance,
                   f"correlation k={k} n={n}: |{c.empirical} - {c.predicted}| > {c.tolerance}")
        expect(digest(correlation_rows(out)) == ref, "correlations differ from their reference")

    return Task(f"correlation k={PLANS_CORRELATION_K} on {PLANS_TOWER}", tower_correlations, check)


def _rotation_task(rng, ref):
    denominators = rng.integers(2, PLANS_ROTATION_DENOMINATOR, size=PLANS_ROTATIONS)
    rotations = [Fraction(int(rng.integers(0, b)), int(b)) for b in denominators]

    def run():
        plan = riesz.make_plan(PLANS_RIESZ)
        return [riesz.quasi_invariance_sum(plan, x) for x in rotations]

    def check(out):
        for x, rep in zip(rotations, out, strict=True):
            terms = []
            for size, scale in zip(ref["sizes"], ref["scales"]):
                t = (scale * x) % 1
                terms.append(size * size * min(t, 1 - t) ** 2)
            expect(rep.x == x and list(rep.terms) == terms, f"quasi-invariance terms at x={x}")
            expect(list(rep.partial_sums) == [sum(terms[:j + 1]) for j in range(len(terms))],
                   f"quasi-invariance partial sums at x={x}")

    return Task(f"quasi_invariance_sum at {PLANS_ROTATIONS} rotations", run, check)


def _riesz_mahler_task(ref):
    def run():
        plan = riesz.make_plan(PLANS_RIESZ)
        return mahler.riesz_mahler(plan, len(PLANS_RIESZ))

    def check(value):
        expect(0 < value <= 1, f"riesz_mahler {value!r} outside (0, 1]")
        close(value, ref, TOL_MAHLER, "riesz_mahler")

    return Task(f"riesz_mahler {PLANS_RIESZ}", run, check)


def exact_tasks(seed, refs):
    rng = np.random.default_rng(seed)
    tasks = [_chain_task(p, m, refs["singer"][f"{p},{m}"]) for p, m in EXACT_CHAINS]
    tasks.append(_singer_report_task(refs["singer_report"]))
    tasks += [_support_task(rng, k, q) for k, q in EXACT_SUPPORTS]
    tasks += [_plans_report_task(argv, refs[" ".join(argv)]) for argv in PLANS_REPORTS]
    tasks.append(_correlation_task(refs["correlation"]))
    tasks.append(_rotation_task(rng, refs["riesz_plan"]))
    tasks.append(_riesz_mahler_task(refs["riesz_mahler"]))
    return tasks


WORKLOADS = {"exact": exact_tasks, "grid": grid_tasks}


def build(workload, seed):
    """The workload's task list; the seed fixes every random input."""
    return WORKLOADS[workload](seed, json.loads(REFERENCES_PATH.read_text()))
