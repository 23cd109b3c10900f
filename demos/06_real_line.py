#!/usr/bin/env python3
"""Transporting circle flatness to the real line.

K_s(t) = (s/2pi) sinc^2(st/2) is a probability density whose
periodization over 2 pi Z is an exact finite cosine sum (its Fourier
transform is a triangle).  For a 2pi-periodic integrand f,

    integral_R f dlambda_s = (1/2pi) integral_0^2pi f Ktilde_s,

so the line-flatness of P is a weighted circle integral.  This demo
checks the kernel mass two ways, then the identity on P_7, then the
decay of the line defect along the prime family.
"""

import numpy as np

from flatpoly import (
    KernelSpec,
    build_polynomial,
    construct_singer,
    kernel_mass,
    kernel_value,
    periodized_kernel,
    realline_flatness,
)

print("Kernel values: K_1(0) =", kernel_value(KernelSpec(1.0), 0.0),
      "= 1/(2 pi);  K_1(pi) =", kernel_value(KernelSpec(1.0), np.pi), "= 2/pi^3")

print()
print("Unit mass, by the periodized circle route and by line quadrature + tail:")
for s in (0.5, 1.0, 2.0):
    rep = kernel_mass(KernelSpec(s))
    print(f"  s = {s}: circle {rep.circle_mass:.12f},  line {rep.line_mass:.12f}")

print()
print("For integer s the periodization is the classical Fejer kernel;")
print("for s <= 1 it collapses to the constant 1 (single triangle coefficient):")
theta = np.pi / 3
print(f"  Ktilde_1({theta:.3f}) = {periodized_kernel(KernelSpec(1.0), theta):.12f}")
print(f"  Ktilde_2({theta:.3f}) = {periodized_kernel(KernelSpec(2.0), theta):.12f} "
      f"= 1 + cos(theta) = {1 + np.cos(theta):.12f}")

print()
P7 = build_polynomial(construct_singer(2))
rep = realline_flatness(P7, 1.0, KernelSpec(1.0), grid_multiplier=2341)  # 16387 -> 2^15 points
print("Identity check for P_7, alpha = 1, s = 1:")
print(f"  circle integral, kernel truncated to the window : {rep.circle_truncated:.10f}")
print(f"  direct line quadrature over the same window     : {rep.line_value:.10f}")
print(f"  difference {abs(rep.circle_truncated - rep.line_value):.2e}; "
      f"exact-kernel value {rep.circle_value:.10f} (window tail <= {rep.tail_bound:.2e})")

print()
print("Line flatness falls with p just like the circle defect (alpha = 1, s = 1):")
for p in (2, 3, 5, 13, 31):
    P = build_polynomial(construct_singer(p))
    rep = realline_flatness(P, 1.0, KernelSpec(1.0))
    print(f"  p = {p:>2}: integral ||P|-1| dlambda_1 = {rep.circle_value:.6f}")
