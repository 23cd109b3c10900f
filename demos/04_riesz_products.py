#!/usr/bin/env python3
"""Generalized Riesz product plans with exactly computable coefficients.

Each stage contributes |P_j(z^{N_j})|^2.  When the scales grow fast
enough, stage frequencies can never recombine: every partial product
has Fourier coefficient exactly 1 at frequency 0 (unit mass) and the
full coefficient map is a sparse convolution of integer pair counts
over one denominator, prod |S_j|.  The same scale growth feeds the
ergodicity and quasi-invariance series.
"""

from fractions import Fraction

from flatpoly import (
    check_dissociated,
    ergodicity_sum,
    make_plan,
    partial_coeffs,
    plan_from_json,
    plan_to_json,
    quasi_invariance_sum,
)

plan = make_plan([2, 3, 5])
print("Default margin rule N_{j+1} = 2^j (p_j+1) h_j over primes (2, 3, 5):")
print("  scales :", plan.scales)
print("  heights:", plan.heights)
for st in plan.stages:
    print(f"  stage p={st.prime}: frequencies N*S = {st.frequencies}")

print()
print("Dissociation certificates (exhaustive brute force):")
for mode in ("sums", "differences"):
    cert = check_dissociated(plan, mode=mode)
    print(f"  {mode:<12} valid = {cert.valid}")

bad = make_plan([2, 3], scales=[1, 3])
cert = check_dissociated(bad, mode="differences")
print(f"  counterexample scales (1, 3): valid = {cert.valid}, "
      f"witness {cert.collision[0]} vs {cert.collision[1]} -> {cert.collision[2]}")

print()
print("Exact partial-product coefficients (primes 2, 3; scales 1, 24):")
plan23 = make_plan([2, 3])
coeffs = partial_coeffs(plan23, 2)
print(f"  integer pair counts over the denominator |S_1| |S_2| = {coeffs.denominator}:")
print(f"  support size {len(coeffs.coefficients)}, "
      f"coefficient at 0 = {coeffs.coefficients[0]}/{coeffs.denominator} "
      f"= {coeffs.zero_coefficient} (exact),")
print(f"  total mass = {sum(coeffs.coefficients.values())}/{coeffs.denominator} "
      f"= {coeffs.total_mass} = (p_1+1)(p_2+1),")
sample = {f: f"{coeffs.coefficients[f]}/{coeffs.denominator}" for f in (1, 24, 25, 216)}
print(f"  samples: {sample}")

print()
print("Ergodicity series sum ((p_j+1) N_j / N_{j+1})^2, exact partial sums:")
erg = ergodicity_sum(plan)
print(f"  terms        : {[str(t) for t in erg.terms]}")
print(f"  partial sums : {[str(t) for t in erg.partial_sums]}")
print(f"  criterion met under the default rule (bounded by {erg.converged_below})")

print()
print("Quasi-invariance probe sum (p_j+1)^2 ||N_j x||^2 at sample rotations:")
for x in (Fraction(0), Fraction(1, 24), Fraction(1, 7)):
    rep = quasi_invariance_sum(plan, x)
    print(f"  x = {str(x):>5}: terms {[str(t) for t in rep.terms]}")

print()
print("Plans round-trip through JSON bit-exactly:")
text = plan_to_json(plan23)
print(" ", text)
print("  reload equal:", plan_from_json(text) == plan23)
