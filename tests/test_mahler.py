import random

import numpy as np
import pytest

from flatpoly.errors import BudgetError
from flatpoly.mahler import MAHLER_GRID_CAP, mahler_jensen, mahler_log, riesz_mahler
from flatpoly.analysis import mz_ratio
from flatpoly.poly import build_polynomial, newman_from_support
from flatpoly.riesz import make_plan


class TestBasics:
    def test_constant(self):
        assert mahler_log([3.0]).value == pytest.approx(3.0, abs=1e-12)
        assert mahler_jensen([3.0]).value == pytest.approx(3.0, abs=1e-15)

    def test_monomial(self):
        assert mahler_log([0.0, 1.0]).value == pytest.approx(1.0, abs=1e-12)

    def test_root_outside(self):
        assert mahler_jensen([-2.0, 1.0]).value == pytest.approx(2.0, abs=1e-12)
        assert mahler_log([-2.0, 1.0]).value == pytest.approx(2.0, abs=1e-9)

    def test_root_inside_empty_product(self):
        assert mahler_jensen([-0.5, 1.0]).value == pytest.approx(1.0, abs=1e-12)
        assert mahler_log([-0.5, 1.0]).value == pytest.approx(1.0, abs=1e-9)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            mahler_log([0.0, 0.0])
        with pytest.raises(ValueError):
            mahler_jensen([0.0])

    def test_not_a_coefficient_sequence_rejected(self):
        # a dict exponent 0.5 would truncate to 0, and -1 would wrap to the top coefficient
        cases = [([], "one-dimensional"), (np.ones((2, 2)), "one-dimensional"),
                 ({0.5: 1.0, 0: 3.0}, "non-negative integers"),
                 ({0.5: 1.0, 1: 3.0}, "non-negative integers"),
                 ({-1: 2.0, 1: 1.0}, "non-negative integers")]
        for bad, match in cases:
            for route in (mahler_log, mahler_jensen, lambda P: mz_ratio(P, 1.5, 8)):
                with pytest.raises(ValueError, match=match):
                    route(bad)

    def test_degree_budget(self):
        coeffs = np.zeros(3000)
        coeffs[0] = coeffs[-1] = 1.0
        with pytest.raises(BudgetError):
            mahler_jensen(coeffs)


class TestCrossMethod:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_singer_polynomials(self, p, singer_cache):
        P = build_polynomial(singer_cache(p))
        log_rep = mahler_log(P)
        jen_rep = mahler_jensen(P)
        assert abs(log_rep.value - jen_rep.value) < 1e-6
        assert log_rep.method == "log-integral"
        assert jen_rep.method == "jensen"
        assert jen_rep.l1 is None  # only the log-integral route evaluates a grid

    def test_chain_m_le_l1_le_one(self, singer_cache):
        for p in (2, 3, 5, 7, 11, 13):
            rep = mahler_log(build_polynomial(singer_cache(p)))
            assert rep.value <= rep.l1 + 1e-8
            assert rep.l1 <= 1.0 + 1e-8

    def test_circle_root_polynomial(self):
        # 1 + z has its only root on the unit circle; M = 1 exactly
        rep = mahler_log([1.0, 1.0])
        assert rep.value == pytest.approx(1.0, abs=1e-6)
        assert mahler_jensen([1.0, 1.0]).value == pytest.approx(1.0, abs=1e-9)


class TestConvergenceDetail:
    def test_converges_p7(self, singer_cache):
        detail = mahler_log(build_polynomial(singer_cache(7))).detail
        assert detail["converged"] is True
        assert detail["last_delta"] < 1e-9
        assert detail["grids"][-1] == detail["grid"] < MAHLER_GRID_CAP
        assert all(b == 2 * a for a, b in zip(detail["grids"], detail["grids"][1:]))

    def test_cap_reported_p101(self, singer_cache):
        detail = mahler_log(build_polynomial(singer_cache(101))).detail
        assert detail["converged"] is False
        assert detail["last_delta"] >= 1e-9
        assert detail["grids"][-1] == detail["grid"] == MAHLER_GRID_CAP
        assert len(detail["grids"]) > 1

    def test_start_at_cap_is_unconverged(self):
        # 16 (degree + 1) > 2^21: the first grid is the cap, so nothing is compared
        detail = mahler_log(newman_from_support([0, MAHLER_GRID_CAP // 32 + 1])).detail
        assert detail == {"grid": MAHLER_GRID_CAP, "grids": [MAHLER_GRID_CAP],
                          "last_delta": None, "converged": False}

    def test_start_above_cap_is_the_only_grid(self):
        # from degree 2^18 on 16 (degree + 1) > 2^22: one grid above the cap, unconverged
        detail = mahler_log(newman_from_support([0, MAHLER_GRID_CAP // 16 + 1])).detail
        assert detail == {"grid": 2**23, "grids": [2**23], "last_delta": None, "converged": False}

    def test_explicit_grid_must_be_a_power_of_two(self):
        # 1 + z vanishes at -1, a midpoint of every odd grid
        assert mahler_log([1.0, 1.0], grid_size=4096).value == pytest.approx(1.0, abs=1e-3)
        with pytest.raises(ValueError, match="power of two"):
            mahler_log([1.0, 1.0], grid_size=4095)

    @pytest.mark.parametrize("grid_size", [4096, None])
    def test_complex_coefficients_rejected(self, grid_size):
        # z^2048 - i: M = 1, but z^2048 = i on half of the 4096-point grid
        with pytest.raises(ValueError, match="mahler_jensen"):
            mahler_log({0: -1j, 2048: 1.0}, grid_size=grid_size)

    def test_jensen_takes_complex_coefficients(self):
        # z^n - i for a degree whose companion matrix is quick to diagonalize
        assert mahler_jensen({0: -1j, 16: 1.0}).value == pytest.approx(1.0, abs=1e-12)

    def test_real_dict_accepted(self):
        # the dict form is complex-typed with zero imaginary parts; 1 + z^3 has circle
        # zeros, so the doubling converges only algebraically
        assert mahler_log({0: 1.0, 3: 1.0}).value == pytest.approx(1.0, abs=1e-6)

    def test_explicit_grid(self, singer_cache):
        detail = mahler_log(build_polynomial(singer_cache(3)), grid_size=8192).detail
        assert detail == {"grid": 8192, "grids": [8192], "last_delta": None, "converged": None}


class TestAlgebra:
    def test_multiplicativity_random_newman_pairs(self):
        rng = random.Random(5)
        for _ in range(5):
            sa = sorted(rng.sample(range(65), rng.randrange(2, 8)))
            sb = sorted(rng.sample(range(65), rng.randrange(2, 8)))
            A = newman_from_support(sa)
            B = newman_from_support(sb)
            ca = A.coefficient_array()[: A.degree + 1]
            cb = B.coefficient_array()[: B.degree + 1]
            product = np.convolve(ca, cb)
            lhs = mahler_log(product).value
            rhs = mahler_jensen(A).value * mahler_jensen(B).value
            assert abs(lhs - rhs) < 1e-6

    def test_scale_invariance(self, singer_cache):
        P = build_polynomial(singer_cache(2))
        coeffs = P.coefficient_array()
        base = mahler_log(coeffs, grid_size=2**12).value
        for c in (0.25, 3.0):
            scaled = mahler_log(c * coeffs, grid_size=2**12).value
            assert abs(scaled - c * base) < 1e-8


class TestRieszMahler:
    def test_single_stage_consistency(self, singer_cache):
        plan = make_plan([2, 3])
        factor = mahler_log(build_polynomial(singer_cache(2))).value
        assert riesz_mahler(plan, 1) == pytest.approx(factor**2, abs=1e-12)

    def test_two_stage_product(self, singer_cache):
        plan = make_plan([2, 3])
        f1 = mahler_log(build_polynomial(singer_cache(2))).value
        f2 = mahler_log(build_polynomial(singer_cache(3))).value
        assert riesz_mahler(plan, 2) == pytest.approx((f1 * f2) ** 2, abs=1e-6)

    def test_partial_products_nonincreasing(self):
        plan = make_plan([2, 3, 5])
        values = [riesz_mahler(plan, k) for k in (1, 2, 3)]
        assert values[0] >= values[1] >= values[2] > 0

    def test_substitution_invariance(self, singer_cache):
        # M(P(z^N)) = M(P): z -> z^N preserves the circle average of log|P|
        P = build_polynomial(singer_cache(2))
        N = 5
        plain = P.coefficient_array()[: P.degree + 1]
        substituted = np.zeros(N * P.degree + 1)
        for s in P.support:
            substituted[N * s] = P.scale
        a = mahler_log(plain, grid_size=2**14).value
        b = mahler_log(substituted, grid_size=2**14).value
        assert abs(a - b) < 1e-9

    def test_stage_bounds(self):
        plan = make_plan([2, 3])
        with pytest.raises(ValueError):
            riesz_mahler(plan, 3)
        with pytest.raises(ValueError):
            riesz_mahler(plan, 0)
