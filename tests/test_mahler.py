import math
import random
import time

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import ellipe

from flatpoly.errors import BudgetError
from flatpoly import mahler
from flatpoly.mahler import JENSEN_DEGREE_BUDGET, check_jensen_budget, mahler_jensen, mahler_log
from flatpoly.mahler import riesz_mahler
from flatpoly.analysis import mz_ratio
from flatpoly.poly import _grid_blocks, build_polynomial, eval_support_grid, newman_from_support
from flatpoly.riesz import make_plan
from flatpoly.singer import singer_modulus


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
        # one check for every route, mz_ratio's too
        for route in (mahler_log, mahler_jensen, lambda P: mz_ratio(P, 1.5, 4)):
            for zero in ([0.0], [0.0, 0.0], {3: 0.0}):
                with pytest.raises(ValueError, match="nonzero polynomial"):
                    route(zero)

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

    def test_degree_budget_fails_before_root_finding(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the Aberth sweeps ran past the budget")

        monkeypatch.setattr(mahler, "_aberth_roots", forbidden)
        with pytest.raises(BudgetError, match=str(JENSEN_DEGREE_BUDGET)):
            mahler_jensen({0: 1.0, JENSEN_DEGREE_BUDGET + 1: 1.0})

    def test_one_budget_for_real_and_complex_coefficients(self):
        # the sweeps cost the same for complex terms: no halved complex budget
        assert JENSEN_DEGREE_BUDGET == 1892
        for lead in (1.0, 1j):
            with pytest.raises(BudgetError, match=f"degree {JENSEN_DEGREE_BUDGET + 1} exceeds "
                                                  f"the root-finding budget {JENSEN_DEGREE_BUDGET}$"):
                mahler_jensen({0: -1j, JENSEN_DEGREE_BUDGET + 1: lead})
        assert mahler_jensen({0: -1j, JENSEN_DEGREE_BUDGET: 1.0}).detail["converged"] is True

    def test_dict_and_list_routes_agree_bit_for_bit(self):
        # a real dict gets the real sparse form that the list gets
        as_list = [1 if k in (0, 7, 46) else 0 for k in range(47)]
        assert mahler_jensen({0: 1, 7: 1, 46: 1}).value == mahler_jensen(as_list).value

    def test_grid_budget(self):
        with pytest.raises(BudgetError, match="grid budget 268435456"):
            mahler_log([1.0, 2.0], grid_size=2**29)

    def test_singer_degree_priced_at_q_minus_one(self, singer_cache, monkeypatch):
        # every (p, m) with q <= 3785 = 2 * 1892 + 1: pricing at q - 1 accepts and rejects
        # what mahler_jensen does on the built set (above 3785 both reject, as 2d >= q - 1)
        class Accepted(Exception):
            pass

        def accepted(exps, coeffs):
            raise Accepted  # past the budget, where the sweeps start

        def verdict(route, degree):
            try:
                route()
            except Accepted:
                return True
            except BudgetError as exc:
                assert str(exc) == f"degree {degree} exceeds the root-finding budget 1892"
                return False
            return True

        monkeypatch.setattr(mahler, "_aberth_roots", accepted)
        cases = [(p, m) for m in range(1, 6) for p in range(2, 62)
                 if all(p % d for d in range(2, p)) and singer_modulus(p, m) <= 3785]
        assert len(cases) == 26
        rejected = []
        for p, m in cases:
            q, P = singer_modulus(p, m), build_polynomial(singer_cache(p, m))
            priced = verdict(lambda: check_jensen_budget(q - 1), q - 1)
            assert priced == verdict(lambda: mahler_jensen(P), P.degree), (p, m)
            if not priced:
                rejected.append((p, m))
        assert rejected == [(47, 1), (53, 1), (59, 1), (61, 1), (7, 2)]


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
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert mahler_jensen([1.0, 1.0]).value == pytest.approx(1.0, abs=1e-9)


def first_grid(P):
    """mahler_log's default N: the smallest power of two >= max(4096, 16(degree + 1))."""
    return max(4096, 1 << (16 * (P.degree + 1) - 1).bit_length())


def doubling_oracle(P, cap=2**22):
    """The grid doubling mahler_log ran before the near-root correction: plain grid means
    from the first grid, doubled until the mean of log|P| moves by less than 1e-9.  None
    where the grid reaches cap first, as it did for p = 11, 19 and 37 and up."""
    N = first_grid(P)
    mean = math.log(mahler_log(P, grid_size=N).value)
    while N < cap:
        N *= 2
        previous, mean = mean, math.log(mahler_log(P, grid_size=N).value)
        if abs(mean - previous) < 1e-9:
            return math.exp(mean)
    return None


class TestConvergenceDetail:
    def test_converges_p7(self, singer_cache):
        P = build_polynomial(singer_cache(7))
        detail = mahler_log(P).detail
        assert detail["converged"] is True
        assert detail["error"] < 1e-9
        assert detail["grids"] == [detail["grid"], detail["grid"] // 2]
        assert detail["grid"] == first_grid(P) == 4096
        assert detail["near_roots"] > 0

    def test_converges_p101(self, singer_cache):
        # the doubling stopped at its 2^22 cap here, 7.5e-8 short of 1e-9 per doubling
        detail = mahler_log(build_polynomial(singer_cache(101))).detail
        assert detail["converged"] is True
        assert detail["error"] < 1e-9
        assert detail["grids"] == [2**18, 2**17]

    @pytest.mark.parametrize("p", [p for p in range(47, 402)
                                   if all(p % d for d in range(2, math.isqrt(p) + 1))])
    def test_every_singer_polynomial_up_to_401_converges(self, p, singer_cache):
        # p <= 43 in TestNearRootCorrection; p = 59 read 2.0e-9 with 6 Newton steps
        assert mahler_log(build_polynomial(singer_cache(p))).detail["converged"] is True

    def test_default_evaluates_two_grids(self, monkeypatch, singer_cache):
        grids = []

        def counted(exponents, coeffs, N, offset=0.0, halo=0):
            grids.append(N)
            return _grid_blocks(exponents, coeffs, N, offset, halo)

        monkeypatch.setattr(mahler, "_grid_blocks", counted)
        mahler_log(build_polynomial(singer_cache(13)))
        assert grids == [4096, 2048]

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
        rep = mahler_jensen({0: -1j, 16: 1.0})
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert abs(math.log(rep.value)) <= rep.detail["error"] <= 1e-12

    def test_real_dict_accepted(self):
        # the dict form is complex-typed with zero imaginary parts; 1 + z^3 has three zeros
        # on the circle, whose grid errors are subtracted in closed form
        rep = mahler_log({0: 1.0, 3: 1.0})
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.detail["near_roots"] == 3 and rep.detail["converged"] is True

    def test_explicit_grid(self, singer_cache):
        detail = mahler_log(build_polynomial(singer_cache(3)), grid_size=8192).detail
        assert detail == {"grid": 8192, "grids": [8192], "near_roots": None, "error": None,
                          "l1_error": None, "converged": None}


class TestNearRootCorrection:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
    def test_agrees_with_jensen(self, p, singer_cache):
        # p = 11 and 19 have a zero at -1, on the circle; the doubling missed by 1.4e-7 there
        P = build_polynomial(singer_cache(p))
        rep, jensen = mahler_log(P), mahler_jensen(P)
        assert abs(rep.value - jensen.value) <= 1e-9
        assert rep.detail["converged"] is True
        assert jensen.detail["converged"] is True and jensen.detail["clusters"] == 0
        assert jensen.detail["error"] <= 1e-9
        # both routes are far closer than that: within the two stated errors
        gap = abs(math.log(rep.value) - math.log(jensen.value))
        assert gap <= rep.detail["error"] + jensen.detail["error"] + 1e-14

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_l1_within_its_error_of_a_fine_grid(self, p, singer_cache):
        # the plain mean on 2^22 points is 256^2 times closer than the first grid's at
        # p = 23, where that one is 7.5e-6 off
        P = build_polynomial(singer_cache(p))
        rep = mahler_log(P)
        fine = mahler_log(P, grid_size=2**22).l1
        assert abs(rep.l1 - fine) <= rep.detail["l1_error"] + 1e-12

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 17, 23, 29, 31])
    def test_agrees_with_the_doubling_where_it_converged(self, p, singer_cache):
        P = build_polynomial(singer_cache(p))
        assert mahler_log(P).value == pytest.approx(doubling_oracle(P), abs=2e-9)

    # 1 + z^1000: 1000 zeros on the circle, and N = 16384 is barely 16 (degree + 1), the worst
    # case for the interpolant; with 10 nodes of P instead of 12 it read 5.6e-13 off
    @pytest.mark.parametrize("coeffs",
                             [[1.0, 1.0], {0: 1.0, 3: 1.0}, [-1.0, 1.0], {0: 1.0, 1000: 1.0}])
    def test_circle_roots(self, coeffs):
        rep = mahler_log(coeffs)
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.detail["converged"] is True

    def test_repeated_circle_root_reported_unconverged(self):
        # (1 + z)^2 (1 - z + z^2): the double zero at -1 is not resolved, so 2 log 2 / N is
        # left on N points and 2 log 2 / (N/2) on N/2, and error is their difference
        rep = mahler_log([1.0, 1.0, 0.0, 1.0, 1.0])
        assert rep.detail["converged"] is False
        assert rep.detail["near_roots"] == 2  # e^(+-i pi/3)
        assert math.log(rep.value) == pytest.approx(2 * math.log(2) / 4096, rel=1e-9)
        assert rep.detail["error"] == pytest.approx(2 * math.log(2) / 4096, rel=1e-9)

    @pytest.mark.parametrize("n_rho", [0.0, 0.3, 2.0, 8.0])
    def test_single_root_corrections_match_the_grid(self, n_rho):
        # one root r = rho e^(i phi), rho = 1 - n_rho / N: the grid means of log|e^(i theta) - r|
        # and |e^(i theta) - r| minus their integrals, 0 and (2/pi)(1 + rho) E(4 rho/(1 + rho)^2)
        N = 4096
        rho, turns = 1.0 - n_rho / N, 0.1234567
        theta = 2 * np.pi * (np.arange(N) + 0.5) / N
        dist = np.abs(np.exp(1j * theta) - rho * np.exp(2j * np.pi * turns))
        l1_error = dist.mean() - 2 / np.pi * (1 + rho) * ellipe(4 * rho / (1 + rho) ** 2)
        roots = (np.array([turns]), np.array([-math.log(rho)]), np.array([1.0]), np.array([1]))
        log_fix, l1_fix, count = mahler._corrections(roots, N)
        assert count == 1
        assert log_fix == pytest.approx(np.log(dist).mean(), abs=1e-15)
        assert l1_fix == pytest.approx(l1_error, abs=2e-15)
        assert abs(l1_fix) > 1e-11

    def test_lattice_error_on_the_circle_is_minus_b2(self):
        a = np.linspace(0.0, 0.99, 12)
        expected = -(a * a - a + 1 / 6)
        assert np.allclose(mahler._lattice_error(np.zeros_like(a), a), expected, atol=1e-12)


def materialized_roots(exps, coeffs, N):
    """_near_roots read off the whole N-point grid as one complex array: the grid minima s
    in [-m, N/2 + m) of |P| that pass _plausible, and their stencils of P taken straight
    from eval_support_grid."""
    values = eval_support_grid(exps, coeffs, N, offset=0.5)
    absv = np.abs(values)
    m = mahler._STENCIL
    j = np.arange(-m, N // 2 + m)
    below, at, above = (absv[(j + k) % N] for k in (-1, 0, 1))
    s = j[(at < below) & (at <= above)]
    s = s[mahler._plausible(*(absv[(s + k) % N] for k in (-1, 0, 1)))]
    V = values[(s + np.arange(-m, m + 1)[:, None]) % N]
    return mahler._upper_half(mahler._near_roots(s, V, N, (exps[0] + exps[-1]) / 2), N)


def zero_one_times(d, sign, seed):
    """B(z) (1 + sign z^d) for a random 0/1 polynomial B of degree < d: coefficients 0/1 for
    sign = 1, with a root at theta = pi for odd d; 0/+-1 for sign = -1, a root at theta = 0."""
    B = np.random.default_rng(seed).integers(0, 2, d // 2)
    B[0] = 1
    return np.concatenate([B, np.zeros(d - B.size), sign * B]).astype(float)


def horner_out_of_place(C, z, u):
    """mahler._horner with new arrays at every step: the oracle of its in-place updates."""
    value, quotient = C[-1], 0
    for c in C[-2::-1]:
        quotient = quotient * u + value
        value = value * z + c
    return value, quotient


class TestHorner:
    @pytest.mark.parametrize("rows", [2, 3, 2 * mahler._STENCIL])
    def test_in_place_sums_equal_the_out_of_place_oracle(self, rows):
        # value and quotient bit for bit, at u = z (the Newton steps, diverged runs' inf and
        # nan included) and at the real u = Re z of the amplitude call
        rng = np.random.default_rng(rows)
        k = 2000
        C = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
        C[:, :3] = [0.0, -0.0, 1e-300]
        z = rng.uniform(-2, 2, k) + 1j * rng.uniform(-0.1, 0.1, k)
        z[3:8] = [0.0, -0.0, np.inf, np.nan, complex(np.inf, np.nan)]
        with np.errstate(all="ignore"):
            for u in (z, z.real):
                got, want = mahler._horner(C, z, u), horner_out_of_place(C, z, u)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype == np.complex128
                    assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def root_seeds_2d(rows, size, a0, weight, N):
    """mahler._root_seeds on 2-D (row, column) indices, np.nonzero and [i, b] gathers: the
    oracle of its flat-index gathers."""
    m, n, M = mahler._STENCIL, len(weight), rows.shape[1]
    left, mid, right = size[:n], size[1:n + 1], size[2:]
    here, mirrored = (mid < left) & (mid <= right), (mid <= left) & (mid < right)
    first_half = np.arange(M) < M // 2
    i, b = np.nonzero((here | mirrored) & ((weight == 2)[:, None] | first_half))
    plausible = mahler._plausible(left[i, b], mid[i, b], right[i, b])
    i, b = i[plausible], b[plausible]
    y = (N // M) * b + a0 + i
    V = rows.ravel()[i * M + b + M * np.arange(2 * m + 1)[:, None]]
    here = here[i, b] & ((y < N // 2 + m) | (y >= N - m))
    mirrored = mirrored[i, b] & ((y > N // 2 - m - 1) | (y < m))
    s = np.concatenate([np.where(y < N // 2 + m, y, y - N)[here],
                        np.where(y < m, -1 - y, N - 1 - y)[mirrored]])
    return s, np.concatenate([V[:, here], V[::-1, mirrored].conj()], axis=1)


class TestRootSeeds:
    @pytest.mark.parametrize("p", [31, 211])
    def test_flat_gathers_equal_the_2d_oracle(self, p, singer_cache):
        # every block of the halo'd Mahler grid, as _grid_means hands it over
        exps, coeffs = mahler._nonzero_terms(build_polynomial(singer_cache(p)))
        N, m = mahler.mahler_grid(int(exps[-1])), mahler._STENCIL
        seeds = 0
        for a0, rows, weight in _grid_blocks(exps, coeffs, N, offset=0.5, halo=m):
            size = np.abs(rows[m - 1:len(rows) - m + 1])
            s, V = mahler._root_seeds(rows, size, a0, weight, N)
            s0, V0 = root_seeds_2d(rows, size, a0, weight, N)
            assert s.dtype == s0.dtype and s.tobytes() == s0.tobytes()
            assert V.shape == V0.shape and V.tobytes() == V0.tobytes()
            seeds += s.size
        assert seeds > 0


class TestStreamedRoots:
    """The seeds _root_seeds takes from a window of fold rows are the seeds of the whole
    grid's first half, so the streamed pass finds the roots the one-array pass finds.  The
    two grids differ by rounding, which can reorder roots that are nearly tied, so roots
    are paired by their nearest neighbours, not by sorting."""

    @pytest.mark.parametrize("poly, N", [
        ("singer 101", None),  # L = 128 rows of 2^11, two blocks of 32
        ("singer 307", None),  # L = 1024 rows, 16 blocks of 32 and a sliding window
        ({0: 1.0, 8192: 1.0}, None),  # zeros at grid index 16(2k+1) - 1/2: inside a block
        ({0: 1.0, 1024: 1.0}, None),  # the same with L = 16 rows of 2^11: across rows 15 and 0
        (zero_one_times(255, 1, 1), None),  # a zero at theta = pi, between N/2 - 1 and N/2
        (zero_one_times(256, -1, 2), None),  # zeros at theta = 0 and pi
        (zero_one_times(8191, 1, 3), None),
        (zero_one_times(40000, -1, 4), None),  # L = 32 rows of 2^15, 8 blocks
        (zero_one_times(2001, 1, 5), 4096),  # one self-paired row of 4096, read in its first half
    ], ids=["singer 101", "singer 307", "1+z^8192", "1+z^1024", "B(1+z^255)", "B(1-z^256)",
            "B(1+z^8191)", "B(1-z^40000)", "one row"])
    def test_same_roots_as_the_materialized_grid(self, poly, N, singer_cache):
        if isinstance(poly, str):
            poly = build_polynomial(singer_cache(int(poly.split()[1])))
        exps, coeffs = mahler._nonzero_terms(poly)
        N = N or max(4096, 1 << (16 * (int(exps[-1]) + 1) - 1).bit_length())
        turns, ell, amp, weight = mahler._grid_means(exps, coeffs, N, find_roots=True)[2]
        turns0, ell0, amp0, weight0 = materialized_roots(exps, coeffs, N)
        assert turns.size == turns0.size > 0
        # nearest neighbours in grid steps, one to one: the same roots, counted alike
        dist, pair = cKDTree(N * np.stack([turns0, ell0], axis=1)).query(
            N * np.stack([turns, ell], axis=1))
        assert np.unique(pair).size == pair.size
        assert np.array_equal(weight, weight0[pair])
        # the two grids differ by rounding, which the interpolant amplifies where it
        # extrapolates: up to 2e-7 grid steps at p = 307 for roots near the edge of the
        # search window, N ell ~ 60, and below 3e-10 inside the correction window
        assert np.max(dist) <= 1e-6
        assert np.max(np.abs(amp - amp0[pair]) / amp0[pair]) <= 1e-8

    def test_seed_batches_do_not_change_the_measure(self, monkeypatch, singer_cache):
        # p = 211: about 2000 seeds per grid block, one Newton pass by default and four of
        # 2^9 here, and a block of 2^13 puts _lattice_error's 14100 roots in batches of 512
        # instead of 4096; every step of _near_roots and _lattice_error is per seed, so no
        # bit moves
        P = build_polynomial(singer_cache(211))
        default = mahler_log(P)
        near_roots = mahler._near_roots

        def in_batches(s, V, N, centre):
            return np.concatenate([near_roots(s[i:i + 2**9], V[:, i:i + 2**9], N, centre)
                                   for i in range(0, max(s.size, 1), 2**9)], axis=1)

        monkeypatch.setattr(mahler, "_near_roots", in_batches)
        monkeypatch.setattr(mahler, "_BLOCK", 2**13)
        batched = mahler_log(P)
        assert default.value.hex() == batched.value.hex()
        assert default.l1.hex() == batched.l1.hex()
        assert default.detail == batched.detail
        assert default.detail["near_roots"] > 0


def first_half_roots(roots, N):
    """The roots within NEAR_ROOT_WINDOW / N of the circle as sorted (turns, N ell) pairs,
    from _near_roots' (turns, ell, amp, weight) or, given an array, from the roots
    themselves: one entry per root, turns in [0, 1/2], so a conjugate pair gives two."""
    if isinstance(roots, np.ndarray):
        turns = np.abs(np.angle(roots)) / (2 * np.pi)
        ell, weight = np.abs(np.log(np.abs(roots))), 1
    else:
        turns, ell, _, weight = roots
    near = N * ell < mahler.NEAR_ROOT_WINDOW
    turns, ell = (np.repeat(x[near], np.broadcast_to(weight, x.shape)[near].astype(int))
                  for x in (turns, ell))
    order = np.lexsort((ell, turns))
    return turns[order], N * ell[order]


class TestNearRootsAgainstAberth:
    """_near_roots against the certified roots of Jensen's route, which read no grid."""

    @pytest.mark.parametrize("poly", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                                      {0: 1.0, 1000: 1.0}])
    def test_the_roots_near_the_circle(self, poly, singer_cache):
        if isinstance(poly, int):
            poly = build_polynomial(singer_cache(poly))
        exps, coeffs = mahler._nonzero_terms(poly)
        N = max(4096, 1 << (16 * (int(exps[-1]) + 1) - 1).bit_length())
        aberth = mahler._aberth_roots(exps - exps[0], coeffs)
        assert aberth.converged and np.array_equal(aberth.component, np.arange(aberth.z.size))
        assert N * aberth.radius.max() < 1e-7  # certified to 4e-8 in N ell at p = 41
        turns0, ell0 = first_half_roots(aberth.z, N)
        turns, ell = first_half_roots(mahler._grid_means(exps, coeffs, N, find_roots=True)[2], N)
        assert turns.size == turns0.size  # every root in the window, each once
        assert np.max(np.abs(turns - turns0), initial=0) <= 1e-9
        # N ell agrees to 2e-11 within N ell < 5 and to 7.5e-8 (p = 31) at the window's
        # edge, where the 12-node interpolant reaches 4.8 grid steps off the circle; a root's
        # log correction moves e^(-N ell) times as much
        assert np.max(np.abs(ell - ell0), initial=0) <= 1e-6


def zero_one(degree, seed):
    """A random 0/1 polynomial 1 + ... + z^degree, constant term first."""
    inner = np.random.default_rng(seed).integers(0, 2, degree - 1)
    return np.concatenate([[1], inner, [1]]).astype(float)


class TestAberthRoots:
    """mahler_jensen's roots: Aberth sweeps on the sparse form, certified by inclusion disks."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
    def test_singer_roots_match_np_roots(self, p, singer_cache, assert_roots_match_np_roots):
        roots = assert_roots_match_np_roots(build_polynomial(singer_cache(p)))
        assert roots.converged
        assert np.array_equal(roots.component, np.arange(roots.z.size))  # no cluster

    @pytest.mark.parametrize("degree, seed", [(3, 0), (31, 1), (100, 2), (255, 3), (256, 4)])
    def test_zero_one_roots_match_np_roots(self, degree, seed, assert_roots_match_np_roots):
        assert_roots_match_np_roots(zero_one(degree, seed))

    @pytest.mark.parametrize("poly", [{0: -1j, 16: 1.0}, {0: 1.0, 256: 1.0}],
                             ids=["z^16-i", "1+z^256"])
    def test_circle_roots_match_np_roots(self, poly, assert_roots_match_np_roots):
        roots = assert_roots_match_np_roots(poly)
        assert mahler._log_measure_error(roots)[2] == roots.z.size  # every disk meets the circle

    @pytest.mark.parametrize("poly, n, turn", [({0: -1j, 16: 1.0}, 16, 1 / 4),
                                               ({0: 1.0, 256: 1.0}, 256, 1 / 2),
                                               ({0: -1j, 946: 1.0}, 946, 1 / 4)],
                             ids=["z^16-i", "1+z^256", "z^946-i"])
    def test_exact_roots_lie_in_the_disks(self, poly, n, turn):
        # z^n = e^(2 pi i turn): the roots e^(2 pi i (turn + j) / n), each rounded once
        exps, coeffs = mahler._nonzero_terms(poly)
        roots = mahler._aberth_roots(exps, coeffs)
        exact = np.exp(2j * np.pi * (turn + np.arange(n)) / n)
        dist = np.abs(exact[:, None] - roots.z)
        assert np.all(np.any(dist <= roots.radius + 4 * np.finfo(float).eps, axis=1))
        assert np.array_equal(roots.component, np.arange(n)) and roots.radius.max() < 1e-13

    def test_repeated_root_gets_a_stated_error(self):
        # (1 + z)^2: the two approximations split the double zero by about sqrt(eps), and
        # the two overlapping disks are one cluster whose stated error covers it
        rep = mahler_jensen([1.0, 2.0, 1.0])
        assert rep.detail["clusters"] == 1 and rep.detail["circle_components"] == 1
        assert abs(math.log(rep.value)) <= rep.detail["error"] < 1e-5
        roots = mahler._aberth_roots(np.array([0, 1, 2]), np.array([1.0, 2.0, 1.0]))
        assert np.all(np.abs(roots.z + 1) <= roots.radius)

    def test_high_degree_circle_roots_are_quick(self):
        # z^946 - i ran to the sweep cap under a rounding bound blind to z^s's s eps
        start = time.perf_counter()
        rep = mahler_jensen({0: -1j, 946: 1.0})
        assert time.perf_counter() - start < 1.0
        assert rep.detail["converged"] is True and rep.detail["sweeps"] < 20
        assert abs(math.log(rep.value)) <= rep.detail["error"] < 1e-10

    @pytest.mark.parametrize("sweeps", [1, 8])
    def test_roots_active_at_the_sweep_cap(self, sweeps, monkeypatch, singer_cache):
        # p = 7 converges in 10 sweeps: with fewer the active roots are tested once more and
        # kept as they are, converged is False, and the stated error still bounds the
        # measure of the np.roots eigensolve
        P = build_polynomial(singer_cache(7))
        dense = P.coefficient_array()[:P.degree + 1]
        oracle = math.log(abs(dense[-1]) * np.prod(np.maximum(1.0, np.abs(np.roots(dense[::-1])))))
        monkeypatch.setattr(mahler, "_ABERTH_SWEEPS", sweeps)
        rep = mahler_jensen(P)
        assert rep.detail["sweeps"] == sweeps and rep.detail["converged"] is False
        assert abs(math.log(rep.value) - oracle) <= rep.detail["error"] + 1e-12

    def test_zero_roots_are_divided_out(self):
        # z^3 (z - 2): the triple zero at 0 is inside the circle and never swept
        rep = mahler_jensen({3: -2.0, 4: 1.0})
        assert rep.value == pytest.approx(2.0, rel=1e-15)
        assert rep.detail["roots_outside"] == 1 and rep.detail["sweeps"] <= 3

    def test_newton_polygon_start_radii(self):
        # 1 - 10^6 z + z^2: roots near 10^-6 and 10^6, one annulus each
        exps, logs = np.array([0, 1, 2]), np.log([1.0, 1e6, 1.0])
        assert np.allclose(np.abs(mahler._start_points(exps, logs)), [1e-6, 1e6])
        rep = mahler_jensen([1.0, -1e6, 1.0])
        big = 1e6 - 1 / (1e6 - 1e-6)  # the larger root, 10^6 - (the smaller one)
        assert abs(math.log(rep.value / big)) <= rep.detail["error"] < 1e-12

    def test_blocks_stay_within_the_grid_block(self, monkeypatch):
        # every pairwise block is at most _BLOCK entries, so memory does not grow
        # like n^2; a small block changes no root
        exps, coeffs = mahler._nonzero_terms({0: 1.0, 7: -2.0, 300: 1.0})
        whole = mahler._aberth_roots(exps, coeffs)
        sizes = []
        blocks = mahler._difference_blocks

        def recorded(z, rows):
            for block in blocks(z, rows):
                sizes.append(block[4].size)
                yield block

        monkeypatch.setattr(mahler, "_BLOCK", 1000)
        monkeypatch.setattr(mahler, "_difference_blocks", recorded)
        small = mahler._aberth_roots(exps, coeffs)
        assert max(sizes) <= 1000
        assert np.array_equal(small.z, whole.z) and np.array_equal(small.radius, whole.radius)


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
