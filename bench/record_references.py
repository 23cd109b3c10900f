"""Record the exact references the benchmark's output checks compare against.

Run from the repository root, on the commit whose outputs are the
reference:

    PYTHONPATH=src python3 bench/record_references.py

It rewrites ``bench/references.json``.  Exact outputs are stored as
sha256 digests of their canonical JSON; floating outputs as values.
"""

from __future__ import annotations

import json

import workloads as w
from flatpoly import mahler, poly, riesz, singer

# ROADMAP item 4: the doubling in mahler_log stops at 2^22 points without
# converging for large p.  Where one more doubling moves the value by
# TOL_MAHLER or more, a more accurate routine may differ from the recorded
# value by about that much, so the check there only guards against gross
# breakage; the chain inequality M <= L1 <= 1 still applies.
MAHLER_UNCONVERGED_TOL = 1e-4


def mahler_tolerance(p):
    P = poly.build_polynomial(singer.construct_singer(p))
    moved = abs(mahler.mahler_log(P).value - mahler.mahler_log(P, grid_size=2**23).value)
    return w.TOL_MAHLER if moved < w.TOL_MAHLER else MAHLER_UNCONVERGED_TOL


def report_rows(argv, keys):
    rows = w.report_results(w.run_report(argv), argv)["rows"]
    return [{key: row[key] for key in keys} for row in rows]


def record():
    refs = {"singer": {}}
    for p, m in w.EXACT_CHAINS:
        sset = singer.construct_singer(p, m)
        refs["singer"][f"{p},{m}"] = {"residues_sha256": w.digest(list(sset.residues))}
    argv = w.EXACT_SINGER_REPORT
    refs["singer_report"] = w.digest(w.exact_part(w.report_results(w.run_report(argv), argv)))

    flat, beta, mahler_argv, realline = w.GRID_REPORTS
    rows = report_rows(flat, ("p", "q", "defect_sq", "defect_abs", "l1", "mahler"))
    rows += report_rows(beta, ("p", "q", "l1", "mahler"))
    for row in rows:
        row["mahler_tol"] = mahler_tolerance(row["p"])
    refs[" ".join(flat)] = rows[:3]
    refs[" ".join(beta)] = rows[3:]
    refs[" ".join(mahler_argv)] = report_rows(mahler_argv, ("p", "q", "mahler_log", "mahler_jensen", "l1"))
    refs[" ".join(realline)] = report_rows(realline, ("p", "q", "alpha", "s", "truncation", "circle_value",
                                                      "circle_truncated", "line_value", "tail_bound"))

    for argv in w.PLANS_REPORTS:
        refs[" ".join(argv)] = w.digest(w.exact_part(w.report_results(w.run_report(argv), argv)))
    refs["correlation"] = w.digest(w.correlation_rows(w.tower_correlations()))
    plan = riesz.make_plan(w.PLANS_RIESZ)
    refs["riesz_plan"] = {"sizes": [st.singer.size for st in plan.stages], "scales": list(plan.scales)}
    refs["riesz_mahler"] = mahler.riesz_mahler(plan, len(w.PLANS_RIESZ))
    return refs


if __name__ == "__main__":
    w.REFERENCES_PATH.write_text(json.dumps(record(), sort_keys=True, indent=2) + "\n")
    print(f"wrote {w.REFERENCES_PATH}")
