"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
All numeric tolerances are pinned here; the exact checks carry none.
The shared report is computed once, and criterion 11 recomputes the
whole thing to confirm byte-identical serialization.
"""

import json
import math
import pathlib
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy

from flatpoly.analysis import (
    KernelSpec,
    flatness,
    kernel_mass,
    l2_defect_sq_exact,
    mz_ratio,
    realline_flatness,
)
from flatpoly.mahler import mahler_jensen, mahler_log, riesz_mahler
from flatpoly.poly import (
    build_polynomial,
    correlations,
    defect_poly,
    eval_support_grid,
)
from flatpoly.rankone import base_occurrences, correlation, derive_map_params
from flatpoly.riesz import check_dissociated, make_plan, partial_coeffs
from flatpoly.singer import construct_singer, verify_perfect_difference

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
REPORT_PATH = pathlib.Path(__file__).resolve().parents[1] / "build" / "acceptance_report.json"

ROOT_LAW_PRIMES = (2, 3, 5, 7, 11, 13)
L2_PRIMES = tuple(sympy.primerange(2, 98))
L1_PRIMES = (2, 3, 5, 7, 11, 13, 31, 61, 97)


def _rat(fr):
    return f"{fr.numerator}/{fr.denominator}"


def build_report():
    """Every criterion's numbers, computed fresh; plain JSON-able values.

    Returns (report, timings): wall-clock measurements live outside the
    report so that reruns serialize byte-identically.
    """
    report = {}
    timings = {}

    # 1. Singer exactness, p <= 101
    t0 = time.time()
    singer_rows = {}
    for p in sympy.primerange(2, 102):
        s = construct_singer(p)
        rep = verify_perfect_difference(s.residues, s.q)
        singer_rows[str(p)] = {
            "q": s.q,
            "valid": rep.valid,
            "counts_all_one": set(rep.counts[1:]) == {1},
            "residues_head": list(s.residues[:4]),
        }
    timings["singer_s"] = time.time() - t0
    report["singer"] = {"rows": singer_rows}

    # 2 + 3. Root-of-unity and coincidence laws
    root_rows = {}
    for p in ROOT_LAW_PRIMES:
        s = construct_singer(p)
        P = build_polynomial(s)
        values = eval_support_grid(P.support, [P.scale] * P.size, s.q)
        sq = np.abs(values) ** 2
        dev_root = float(np.max(np.abs(sq[1:] - p / (p + 1))))
        Q = defect_poly(s)
        qvals = eval_support_grid(
            np.arange(1, s.q), Q.coefficient_array()[1:], s.q
        )
        dev_coincide = float(np.max(np.abs(qvals - (sq - 1.0))))
        root_rows[str(p)] = {"root_law_dev": dev_root, "coincidence_dev": dev_coincide}
    report["root_laws"] = root_rows

    # 4. Exact L2 defect, quadrature and rational closed form
    l2_rows = {}
    for p in L2_PRIMES:
        s = construct_singer(p)
        rep = flatness(build_polynomial(s), 2.0)
        exact = l2_defect_sq_exact(correlations(s))
        l2_rows[str(p)] = {
            "quadrature_dev": abs(rep.defect_sq - math.sqrt(p / (p + 1))),
            "closed_form_exact": exact == Fraction(p, p + 1),
            "closed_form": _rat(exact),
        }
    report["l2_defect"] = l2_rows

    # 5. L1 flatness table against the committed direct-summation oracle
    oracle = json.loads((FIXTURES / "l1_defect_oracle.json").read_text())
    l1_rows = {}
    for p in L1_PRIMES:
        rep = flatness(build_polynomial(construct_singer(p)), 1.0, 2**16)
        l1_rows[str(p)] = {
            "defect_sq": rep.defect_sq,
            "oracle": oracle[str(p)],
            "dev": abs(rep.defect_sq - oracle[str(p)]),
        }
    report["l1_table"] = l1_rows

    # 6. Mahler cross-method, norm chain, product monotonicity
    mahler_rows = {}
    for p in (2, 3, 5):
        P = build_polynomial(construct_singer(p))
        ml, mj = mahler_log(P), mahler_jensen(P)
        mahler_rows[str(p)] = {
            "log": ml.value,
            "jensen": mj.value,
            "gap": abs(ml.value - mj.value),
            "l1": ml.l1,
            "chain_ok": ml.value <= ml.l1 + 1e-8 and ml.l1 <= 1.0 + 1e-8,
        }
    plan235 = make_plan([2, 3, 5])
    partials = [riesz_mahler(plan235, k) for k in (1, 2, 3)]
    report["mahler"] = {"rows": mahler_rows, "riesz_partials": partials}

    # 7. Riesz exactness for the default-rule plan over (2, 3, 5)
    riesz_rows = {}
    for k in (1, 2, 3):
        coeffs = partial_coeffs(plan235, k)
        expected_mass = 1
        for st in plan235.stages[:k]:
            expected_mass *= st.singer.size
        riesz_rows[str(k)] = {
            "zero_is_one": coeffs.zero_coefficient == 1,
            "mass": _rat(coeffs.total_mass),
            "mass_exact": coeffs.total_mass == expected_mass,
            "support": len(coeffs.coefficients),
        }
    certs = {
        mode: check_dissociated(plan235, mode=mode).valid
        for mode in ("sums", "differences")
    }
    report["riesz"] = {"partials": riesz_rows, "dissociation": certs}

    # 8. Rank-one: dual recursions, histogram identity, simulated correlation
    recursion_ok = True
    for rule in ("margin", "margin:2"):
        plan = make_plan([2, 3, 5, 7], rule=rule)
        params = derive_map_params(plan)
        h = params.base_height
        for st, pst in zip(params.stages, plan.stages):
            recursion_ok &= st.height == pst.singer.residues[-1] * st.scale + h
            recursion_ok &= st.height == st.cutting * h + sum(st.spacers)
            h = st.height
    plan4 = make_plan([2, 3, 5, 7], rule="margin:2")
    params4 = derive_map_params(plan4)
    occ = base_occurrences(params4, 0, 4)
    coeffs4 = partial_coeffs(plan4, 4)
    copies = 3 * 4 * 6 * 8
    histogram_exact = (coeffs4.coefficients == Counter(a - b for a in occ for b in occ)
                       and coeffs4.denominator == copies)
    corr_rows = {}
    corr_ok = True
    h2 = params4.stages[1].height
    for n in range(11):
        c = correlation(params4, 0, 2, n)
        ok = abs(c.empirical - c.predicted) <= Fraction(n, h2)
        corr_ok &= ok
        corr_rows[str(n)] = {
            "empirical": _rat(c.empirical),
            "predicted": _rat(c.predicted),
            "within_n_over_h2": ok,
        }
    report["rankone"] = {
        "dual_recursions_exact": bool(recursion_ok),
        "histogram_equals_coefficients": histogram_exact,
        "h2": h2,
        "correlations": corr_rows,
        "correlations_ok": bool(corr_ok),
    }

    # 9. Real-line identity
    masses = {}
    for s in (0.5, 1.0, 2.0):
        km = kernel_mass(KernelSpec(s))
        masses[repr(s)] = {
            "circle": km.circle_mass,
            "line": km.line_mass,
            "dev": max(abs(km.circle_mass - 1.0), abs(km.line_mass - 1.0)),
        }
    P7 = build_polynomial(construct_singer(2))
    rl = realline_flatness(P7, 1.0, KernelSpec(1.0), grid_multiplier=2341)  # 16387 -> 2^15 points
    report["realline"] = {
        "kernel_mass": masses,
        "circle_truncated": rl.circle_truncated,
        "line_value": rl.line_value,
        "periodization_dev": abs(rl.circle_truncated - rl.line_value),
        "circle_exact": rl.circle_value,
        "tail_bound": rl.tail_bound,
    }

    # 10. MZ sanity across p <= 97
    mz_oracle = json.loads((FIXTURES / "mz_alpha15.json").read_text())
    mz_rows = {}
    for p in L2_PRIMES:
        s = construct_singer(p)
        P = build_polynomial(s)
        r2 = mz_ratio(P, 2.0, s.q)
        r15 = mz_ratio(P, 1.5, s.q)
        mz_rows[str(p)] = {
            "alpha2_dev": abs(r2.ratio - 1.0),
            "alpha15_ratio": r15.ratio,
            "oracle_dev": abs(r15.ratio - mz_oracle[str(p)]),
        }
    report["mz"] = mz_rows

    return report, timings


def canonical_bytes(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":")).encode()


@pytest.fixture(scope="module")
def built():
    return build_report()


@pytest.fixture(scope="module")
def report(built):
    return built[0]


def emit(number, name, ok, detail):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_singer_exactness(built):
    report, timings = built
    rows = report["singer"]["rows"]
    elapsed = timings["singer_s"]
    ok = all(r["valid"] and r["counts_all_one"] for r in rows.values())
    ok = ok and elapsed < 60.0
    emit(1, "singer exactness p<=101", ok, f"{len(rows)} primes in {elapsed:.2f}s")


def test_criterion_02_root_of_unity_law(report):
    worst = max(r["root_law_dev"] for r in report["root_laws"].values())
    emit(2, "| |P(z_r)|^2 - p/(p+1) | <= 1e-10", worst <= 1e-10, f"max dev {worst:.2e}")


def test_criterion_03_coincidence_law(report):
    worst = max(r["coincidence_dev"] for r in report["root_laws"].values())
    emit(3, "Q(z_r) = |P(z_r)|^2 - 1 within 1e-10", worst <= 1e-10, f"max dev {worst:.2e}")


def test_criterion_04_exact_l2_defect(report):
    rows = report["l2_defect"].values()
    worst = max(r["quadrature_dev"] for r in rows)
    exact = all(r["closed_form_exact"] for r in rows)
    emit(4, "L2 defect: quadrature 1e-6 + rational closed form exact",
         worst <= 1e-6 and exact, f"max quadrature dev {worst:.2e}, exact={exact}")


def test_criterion_05_l1_flatness_table(report):
    worst = max(r["dev"] for r in report["l1_table"].values())
    emit(5, "L1 defect vs committed direct-summation oracle", worst <= 1e-6,
         f"max dev {worst:.2e} over {len(report['l1_table'])} primes")


def test_criterion_06_mahler(report):
    rows = report["mahler"]["rows"]
    gap = max(r["gap"] for r in rows.values())
    chain = all(r["chain_ok"] for r in rows.values())
    partials = report["mahler"]["riesz_partials"]
    mono = all(a >= b for a, b in zip(partials, partials[1:])) and partials[-1] > 0
    emit(6, "Mahler cross-method 1e-6, chain, nonincreasing products",
         gap <= 1e-6 and chain and mono,
         f"max gap {gap:.2e}, partials {['%.6f' % v for v in partials]}")


def test_criterion_07_riesz_exactness(report):
    rows = report["riesz"]["partials"]
    ok = all(r["zero_is_one"] and r["mass_exact"] for r in rows.values())
    certs = report["riesz"]["dissociation"]
    ok = ok and certs["sums"] and certs["differences"]
    emit(7, "Riesz coefficients exact + dissociation both modes", ok,
         f"mass k=3: {rows['3']['mass']}, certificates {certs}")


def test_criterion_08_rankone_consistency(report):
    r = report["rankone"]
    ok = r["dual_recursions_exact"] and r["histogram_equals_coefficients"] and r["correlations_ok"]
    emit(8, "rank-one dual recursion, histogram identity, simulation", ok,
         f"h2={r['h2']}, n<=10 within n/h2")


def test_criterion_09_realline_identity(report):
    r = report["realline"]
    mass_dev = max(v["dev"] for v in r["kernel_mass"].values())
    ok = mass_dev <= 1e-8 and r["periodization_dev"] <= 1e-6
    emit(9, "kernel mass 1e-8 + circle/line agreement 1e-6", ok,
         f"mass dev {mass_dev:.2e}, periodization dev {r['periodization_dev']:.2e}")


def test_criterion_10_mz_sanity(report):
    rows = report["mz"].values()
    a2 = max(r["alpha2_dev"] for r in rows)
    in_band = all(0.1 <= r["alpha15_ratio"] <= 10.0 for r in rows)
    oracle = max(r["oracle_dev"] for r in rows)
    emit(10, "MZ alpha=2 ratio 1e-10; alpha=1.5 in [0.1,10] + fixture", a2 <= 1e-10
         and in_band and oracle <= 1e-9,
         f"alpha2 dev {a2:.2e}, fixture dev {oracle:.2e}")


def test_criterion_11_determinism(report):
    first = canonical_bytes(report)
    second = canonical_bytes(build_report()[0])
    ok = first == second
    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_bytes(json.dumps(json.loads(first), sort_keys=True, indent=2).encode())
    emit(11, "two full runs byte-identical", ok,
         f"{len(first)} bytes, report at {REPORT_PATH.relative_to(REPORT_PATH.parents[1])}")
