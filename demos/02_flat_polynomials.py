#!/usr/bin/env python3
"""Why Singer supports make flat 0/1 polynomials.

P(z) = (1/sqrt(p+1)) sum_{s in S} z^s has |P|^2 = p/(p+1) at every
nontrivial q-th root of unity -- exactly, because the difference counts
are exactly one.  Off the roots, the defect polynomial Q built from the
cyclic correlations coincides with |P|^2 - 1 at the roots and its
interpolation bound drives || |P|^2 - 1 ||_alpha to zero as p grows.
"""

import numpy as np

from flatpoly import (
    build_polynomial,
    construct_singer,
    correlations,
    defect_poly,
    eval_support_grid,
    flatness,
    l2_defect_exact,
    lp_norm,
)

s = construct_singer(2)
P = build_polynomial(s)
values = eval_support_grid(P.support, [P.scale] * P.size, s.q)  # P at the 7th roots

print("p = 2, q = 7, S =", s.residues)
print("|P(z_r)|^2 at the 7th roots of unity:")
print(" ", np.round(np.abs(values) ** 2, 12), "   (p/(p+1) = 2/3 away from r = 0)")

table = correlations(s)
print("cyclic correlation counts:", table.cyclic, " (all ones away from 0)")

Q = defect_poly(s)
Q_roots = eval_support_grid(np.arange(1, s.q), Q.coefficient_array()[1:], s.q)
print("Q(1) =", Q.value_at_one(), "   Q(z_1) =", complex(round(Q_roots[1].real, 12)))

print()
print("L2 norm is exactly 1 (Parseval on any grid beyond the degree):")
print("  (1/N) sum |P|^2 =", lp_norm(eval_support_grid(P.support, [P.scale] * P.size, 64), 2.0))

print()
print("Flatness defects fall as p grows (alpha = 1):")
print(f"{'p':>4} {'q':>6}  {'|| |P|^2-1 ||_1':>16} {'|| |P|-1 ||_1':>14} "
      f"{'||P||_1':>8}  {'exact L2 defect':>16}")
for p in (2, 3, 5, 7, 13, 31, 61, 97):
    sset = construct_singer(p)
    rep = flatness(build_polynomial(sset), 1.0)
    exact = l2_defect_exact(correlations(sset))
    print(f"{p:>4} {sset.q:>6}  {rep.defect_sq:>16.6f} {rep.defect_abs:>14.6f} "
          f"{rep.l1_norm:>8.5f}  {exact:>16.10f}")

print()
print("The exact L2 defect is sqrt(p/(p+1)) -> 1: the squared defect does NOT")
print("vanish in L2; flatness is an alpha < 2 phenomenon, visible above in the")
print("L1 column and in the interpolation bound:")
for p in (2, 13, 97):
    rep = flatness(build_polynomial(construct_singer(p)), 1.0)
    print(f"  p={p:>3}: bound p^a/q + ((q-1)/q)(p+1)^-a = {rep.s3_bound:.6f}")
