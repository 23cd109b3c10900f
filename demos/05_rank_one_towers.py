#!/usr/bin/env python3
"""Cutting and stacking, exactly.

The plan's frequencies N_j * S_j become column offsets of a rank-one
construction: cut the previous tower into p_j + 1 columns, insert
(s_i - s_{i-1}) N_j - h_{j-1} spacer levels above column i, restack.
Interval widths are exact rationals, so tower measures, return-time
correlations, and the spectral prediction (the Riesz coefficients)
can be compared with zero tolerance.
"""

from collections import Counter
from fractions import Fraction

from flatpoly import (
    base_occurrences,
    build_tower,
    correlation,
    derive_flow_params,
    derive_map_params,
    make_plan,
    measure_growth,
    partial_coeffs,
)

plan = make_plan([2, 3], rule="margin:2")  # scales (1, 8)
params = derive_map_params(plan)

print("Stage parameters (primes 2, 3; scales 1, 8):")
for j, st in enumerate(params.stages, start=1):
    print(f"  stage {j}: cut into {st.cutting}, spacers {st.spacers}, height {st.height}")
    print(f"           column offsets {params.column_offsets(j - 1)} = N_j * S_j")

print()
print("Both height recursions give the same h_j (the construction's sanity check):")
print("  h =", params.heights)

print()
print("Exact towers:")
for K in (0, 1, 2):
    t = build_tower(params, K)
    print(f"  K={K}: {t.level_count} levels of width {t.width}, total measure {t.total_measure}")

growth = measure_growth(params)
print()
print("Measure growth terms sum(a)/(r h):", [str(t) for t in growth.terms],
      "-> finite:", growth.finite_measure)
print("(spacer mass grows with the scales: the map lives on an infinite measure space)")

print()
print("Where the original base sits inside the stage-2 tower:")
occ = base_occurrences(params, 0, 2)
print("  offsets:", occ)

print()
print("Return-time correlations vs the Riesz-product prediction (k=0, K=2):")
h2 = params.stages[1].height
print(f"{'n':>4} {'empirical':>10} {'predicted':>10} {'bound n/h2':>11}")
for n in (0, 1, 2, 3, 4, 8, 24):
    c = correlation(params, 0, 2, n)
    print(f"{n:>4} {str(c.empirical):>10} {str(c.predicted):>10} {str(c.tolerance):>11}")

coeffs = partial_coeffs(plan, 2)
hist = Counter(a - b for a in occ for b in occ)
exact = coeffs.coefficients == hist and coeffs.denominator == len(occ)
print(f"offset-difference histogram equals the coefficient numerators over "
      f"{coeffs.denominator} = {len(occ)} base copies exactly:", exact)

print()
print("The flow version scales every height by tau (tau = 1/2):")
flow = derive_flow_params(plan, Fraction(1, 2))
print("  base height", flow.base_height, "; stage heights", flow.heights,
      "; stage-1 spacers", flow.stages[0].spacers)
