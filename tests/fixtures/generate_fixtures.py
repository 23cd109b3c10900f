#!/usr/bin/env python3
"""Regenerate the committed oracle tables.

Every value here is computed by direct complex-exponential summation
(one exp-vector per support element, accumulated with math.fsum) -- no
FFT anywhere -- so the tables are an independent oracle for the
library's FFT evaluation path.

  l1_defect_oracle.json   || |P_q|^2 - 1 ||_1 on the 2^16-point uniform
                          grid, for the flatness-table primes.
  mz_alpha15.json         n = q sample mean of |P_q|^1.5 over its
                          quadrature integral (same grid rule as
                          mz_ratio), for primes up to 97.

Run from the repository root:  python3 tests/fixtures/generate_fixtures.py
"""

import json
import math
import pathlib

import numpy as np

from flatpoly.poly import power_grid
from flatpoly.singer import construct_singer

HERE = pathlib.Path(__file__).resolve().parent

L1_PRIMES = [2, 3, 5, 7, 11, 13, 31, 61, 97]
MZ_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
             59, 61, 67, 71, 73, 79, 83, 89, 97]
L1_GRID = 2**16


def direct_values(support, N):
    """P at the N-th roots of unity, direct summation (no FFT)."""
    acc = np.zeros(N, dtype=np.complex128)
    j = np.arange(N)
    for s in support:
        acc += np.exp(2j * np.pi * j * s / N)
    return acc / math.sqrt(len(support))


def fsum_mean(arr):
    return math.fsum(arr.tolist()) / len(arr)


def l1_defect_table():
    table = {}
    for p in L1_PRIMES:
        sset = construct_singer(p)
        values = direct_values(sset.residues, L1_GRID)
        table[str(p)] = fsum_mean(np.abs(np.abs(values) ** 2 - 1.0))
    return table


def mz_table():
    table = {}
    for p in MZ_PRIMES:
        sset = construct_singer(p)
        degree = sset.residues[-1]
        n = sset.q
        grid = power_grid(max(2**14, 4 * (degree + 1)))
        discrete = fsum_mean(np.abs(direct_values(sset.residues, n)) ** 1.5)
        integral = fsum_mean(np.abs(direct_values(sset.residues, grid)) ** 1.5)
        table[str(p)] = discrete / integral
    return table


def main():
    for name, build in (("l1_defect_oracle.json", l1_defect_table),
                        ("mz_alpha15.json", mz_table)):
        path = HERE / name
        path.write_text(json.dumps(build(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
