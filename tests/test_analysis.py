import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from flatpoly import analysis
from flatpoly.analysis import (
    KernelSpec,
    _line_tail_mass,
    _mean,
    _power_mean,
    _si_tail,
    flatness,
    kernel_mass,
    kernel_tail_bound,
    kernel_value,
    l2_defect_exact,
    l2_defect_sq_exact,
    lp_norm,
    mz_ratio,
    periodized_kernel,
    periodized_kernel_truncated,
    realline_flatness,
)
from flatpoly.errors import BudgetError
from flatpoly.poly import (
    CorrelationTable,
    _grid_blocks,
    build_polynomial,
    correlation_table,
    correlations,
    defect_poly,
    eval_support_grid,
    newman_from_support,
)
from fractions import Fraction


def dense_oracle_mean(support, scale, N, transform):
    """Direct-summation quadrature oracle; no FFT anywhere."""
    j = np.arange(N)[:, None]
    values = (np.exp(2j * np.pi * j * np.asarray(support)[None, :] / N)).sum(axis=1) * scale
    return math.fsum(transform(np.abs(values)).tolist()) / N


@pytest.fixture
def P7(singer_cache):
    return build_polynomial(singer_cache(2))


def kernel_truncated_oracle(spec, theta):
    """periodized_kernel_truncated with the addition formula at every shift, zero phase
    included: the bit-for-bit oracle of its zero-phase branch."""
    th = np.asarray(theta, dtype=float)
    u = 0.5 * spec.s * th.ravel()
    sin_u, cos_u = np.sin(u), np.cos(u)
    out = np.zeros_like(u)
    step = np.pi * spec.s
    lo, hi = (-1.0 - u.max(initial=0.0)) / step, (1.0 - u.min(initial=0.0)) / step
    shifts = range(-spec.truncation, spec.truncation + 1)
    near_n = range(math.ceil(lo), math.floor(hi) + 1) if math.isfinite(lo + hi) else shifts
    with np.errstate(divide="ignore", invalid="ignore"):
        for n in shifts:
            phi = np.pi * ((spec.s * n) % 1.0)
            x = u + step * n
            term = sin_u * math.cos(phi) + cos_u * math.sin(phi)
            term /= x
            term *= term
            if n in near_n:
                near = np.abs(x) < 1.0
                term[near] = np.sinc(x[near] / np.pi) ** 2
            out += term
    out *= spec.s
    return out.reshape(th.shape) if th.ndim else float(out[0])


def assert_same_bits(got, want):
    """Equal arrays bit for bit: the same nan positions, and every other entry's bits."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def adaptive_panels_two_calls(fun, edges):
    """_adaptive_panels with separate calls of fun for the 16- and the 32-node sets: the
    oracle of its joined calls."""
    intervals = np.stack([edges[:-1], edges[1:]], axis=1)
    pieces = []
    for depth in range(analysis._PANEL_MAX_DEPTH + 1):
        a, b = intervals[:, 0], intervals[:, 1]
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        f16 = analysis._eval_chunked(fun, (mid[:, None] + half[:, None] * analysis._GL16[0]).ravel(), 1)
        f32 = analysis._eval_chunked(fun, (mid[:, None] + half[:, None] * analysis._GL32[0]).ravel(), 1)
        v16 = half * (f16.reshape(len(intervals), -1) @ analysis._GL16[1])
        v32 = half * (f32.reshape(len(intervals), -1) @ analysis._GL32[1])
        done = np.abs(v32 - v16) <= analysis._PANEL_TOL * np.maximum(b - a, 1e-6)
        if depth == analysis._PANEL_MAX_DEPTH:
            done[:] = True
        pieces.extend(v32[done].tolist())
        rest = intervals[~done]
        if not len(rest):
            break
        mid_r = 0.5 * (rest[:, 0] + rest[:, 1])
        intervals = np.concatenate(
            [np.stack([rest[:, 0], mid_r], 1), np.stack([mid_r, rest[:, 1]], 1)]
        )
    return math.fsum(pieces)


class TestMean:
    @pytest.mark.parametrize("n", [1, 7, 1000, 2**16 + 3, 2**22])
    def test_against_fsum_oracle(self, n):
        rng = np.random.default_rng(n)
        eps = np.finfo(float).eps
        for arr in (rng.random(n), rng.standard_normal(n), 1.0 + 1e-3 * rng.standard_normal(n)):
            exact = math.fsum(arr.tolist()) / n
            # pairwise summation error bound, plus the final division
            bound = (math.log2(n) + 1) * eps * float(np.abs(arr).sum()) / n
            assert abs(_mean(arr) - exact) <= bound
            assert isinstance(_mean(arr), float)

    def test_deterministic(self):
        arr = np.random.default_rng(5).standard_normal(10**6)
        assert _mean(arr) == _mean(arr.copy())


class TestLpNorm:
    def test_constant_one(self):
        for alpha in (0.5, 1.0, 1.7, 2.0):
            assert lp_norm(np.ones(32, dtype=complex), alpha) == pytest.approx(1.0, abs=1e-15)

    def test_parseval(self, P7):
        values = eval_support_grid(P7.support, [P7.scale] * P7.size, 64)
        assert lp_norm(values, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_alpha1_against_direct_oracle(self, P7):
        N = 2**14
        got = lp_norm(eval_support_grid(P7.support, [P7.scale] * P7.size, N), 1.0)
        want = dense_oracle_mean(P7.support, P7.scale, N, lambda a: a)
        assert abs(got - want) < 1e-8

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            lp_norm(np.ones(4), 0.0)


class TestFlatness:
    def test_alpha2_closed_form(self, P7):
        rep = flatness(P7, 2.0)
        assert rep.defect_sq == pytest.approx(math.sqrt(2 / 3), abs=1e-6)
        assert rep.l2_defect_closed == pytest.approx(math.sqrt(2 / 3), abs=1e-15)

    def test_single_term_is_flat(self):
        rep = flatness(newman_from_support([0]), 1.0, 64)
        assert rep.defect_sq == pytest.approx(0.0, abs=1e-14)
        assert rep.defect_abs == pytest.approx(0.0, abs=1e-14)

    def test_alpha1_against_direct_oracle(self, P7):
        N = 2**16
        rep = flatness(P7, 1.0, N)
        want = dense_oracle_mean(P7.support, P7.scale, N, lambda a: np.abs(a**2 - 1.0))
        assert abs(rep.defect_sq - want) < 1e-6

    def test_defect_ordering(self, singer_cache):
        for p in (2, 3, 5, 7):
            P = build_polynomial(singer_cache(p))
            for alpha in (1.0, 1.5):
                rep = flatness(P, alpha)
                assert rep.defect_abs <= rep.defect_sq

    def test_holder_monotonicity(self, singer_cache):
        for p in (2, 3, 5, 7, 11):
            P = build_polynomial(singer_cache(p))
            N = 16 * P.q
            base = flatness(P, 2.0, N).defect_sq
            for alpha in (1.0, 1.5):
                assert flatness(P, alpha, N).defect_sq <= base + 1e-9

    def test_alpha2_quadrature_matches_closed_form(self, singer_cache):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            rep = flatness(build_polynomial(singer_cache(p)), 2.0)
            assert abs(rep.defect_sq - rep.l2_defect_closed) < 1e-6

    def test_quadrature_second_order_convergence(self, singer_cache):
        # |.|-kinks limit uniform grids to O(N^-2); check the decay, not 1e-8.
        for p in (2, 13, 31):
            P = build_polynomial(singer_cache(p))
            d16 = abs(flatness(P, 1.0, 16 * P.q).defect_sq - flatness(P, 1.0, 32 * P.q).defect_sq)
            d256 = abs(flatness(P, 1.0, 256 * P.q).defect_sq - flatness(P, 1.0, 512 * P.q).defect_sq)
            assert d16 < 1e-3
            assert d256 < d16 / 16

    def test_alpha2_grid_invariance(self, P7):
        # degree-2(q-1) integrand is integrated exactly on any grid >= 8q
        a = flatness(P7, 2.0, 8 * P7.q).defect_sq
        b = flatness(P7, 2.0, 16 * P7.q).defect_sq
        assert abs(a - b) < 1e-12

    def test_s3_bound_value(self, P7):
        rep = flatness(P7, 1.0)
        assert rep.s3_bound == pytest.approx(2 / 7 + (6 / 7) / 3, abs=1e-15)

    def test_preconditions(self, P7):
        with pytest.raises(ValueError):
            flatness(P7, 2.5)
        with pytest.raises(ValueError):
            flatness(P7, 1.0, 3 * 7)

    def test_grid_budget_fails_before_allocating(self, P7):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="grid budget 268435456"):
                flatness(P7, 1.0, 2**28 + 7)
            with pytest.raises(BudgetError, match="grid budget 268435456"):
                realline_flatness(P7, 1.0, KernelSpec(1.0), grid_multiplier=2**28 // 7 + 1)
            # a 2^28-point grid fits; periodized_kernel's 1e8 passes over it do not
            with pytest.raises(BudgetError, match="^grid of 26843545600000000 points exceeds"):
                realline_flatness(P7, 1.0, KernelSpec(1e8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_peak_memory_stays_near_the_row_kernel(self, singer_cache):
        # p = 307 at 16q: the row kernel alone peaks at 2.9 MiB and flatness at 3.1 MiB, its
        # temporaries one block long and |Q| evaluated only where it could lower the gap
        P = build_polynomial(singer_cache(307))
        N = 16 * P.q
        routes = (lambda: flatness(P, 1.0, N),
                  lambda: [None for _ in _grid_blocks(P.support, [P.scale] * P.size, N)])
        for run in routes:  # untraced: the first FFT of a row length allocates its plan once
            run()
        peaks = []
        for run in routes:
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        flat_peak, kernel_peak = peaks
        assert flat_peak < 4.0 * 2**20
        assert flat_peak < kernel_peak + 1.0 * 2**20


class TestL2DefectExact:
    def test_p2(self, singer_cache):
        t = correlations(singer_cache(2))
        assert l2_defect_sq_exact(t) == Fraction(2, 3)
        assert l2_defect_exact(t) == pytest.approx(0.8164966, abs=1e-7)

    def test_p3(self, singer_cache):
        t = correlations(singer_cache(3))
        assert l2_defect_sq_exact(t) == Fraction(3, 4)
        assert l2_defect_exact(t) == pytest.approx(0.8660254, abs=1e-7)

    def test_single_support(self):
        t = correlation_table([0], 5)
        assert l2_defect_exact(t) == 0.0
        assert not t.is_perfect

    def test_closed_form_exactly_p_over_p_plus_1(self, singer_cache):
        for p in (2, 3, 5, 7, 11, 13):
            t = correlations(singer_cache(p))
            assert l2_defect_sq_exact(t) == Fraction(p, p + 1)

    def test_dense_support_squares_sum_exactly(self):
        # c_l = k - |l| for k consecutive residues: sum c_l^2 = k (2k^2 + 1) / 3, past 2^32
        k = 2000
        t = correlation_table(range(k), 2 * k)
        assert l2_defect_sq_exact(t) == Fraction(k * (2 * k * k + 1) // 3 - k * k, k * k)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 101])
    def test_fourth_moment_on_the_16q_grid(self, p, singer_cache):
        # |P|^4 = |P^2|^2 with deg P^2 <= 2(q - 1) < N = 16q, so the grid mean is the integral
        # (discrete Parseval): sum over l of (c_l / k)^2 = (k^2 + k(k - 1)) / k^2 = 2 - 1/(p + 1)
        P = build_polynomial(singer_cache(p))
        N = 16 * P.q
        mean = _power_mean(np.array(P.support), np.full(P.size, P.scale), N, 4)
        assert mean == pytest.approx(2 - 1 / (p + 1), rel=1e-13, abs=0)
        assert 1 + l2_defect_sq_exact(correlations(singer_cache(p))) == 2 - Fraction(1, p + 1)

    def test_sum_past_the_int64_bound_stays_exact(self):
        # |S|^3 >= 2^63 sums in Python ints; c_0^2 = |S|^4 = 2^84 alone would wrap int64
        k, c = 2**21, 3 * 2**40
        t = CorrelationTable(q=2, size=k, aperiodic=(c, k, c), cyclic=(k, 2 * c))
        assert l2_defect_sq_exact(t) == Fraction(2 * c * c, k * k)


class TestMZ:
    def test_alpha2_parseval(self, P7):
        rep = mz_ratio(P7, 2.0, 7)
        assert abs(rep.ratio - 1.0) < 1e-10

    def test_defect_polynomial_recorded(self, singer_cache):
        Q = defect_poly(singer_cache(2))
        rep = mz_ratio(Q, 1.5, 7)
        closed = (2**1.5 + 6 * (1 / 3) ** 1.5) / 7
        assert rep.discrete_mean == pytest.approx(closed, abs=1e-12)
        assert 0.1 < rep.ratio < 10

    def test_degree_must_fit(self, P7):
        with pytest.raises(ValueError):
            mz_ratio(P7, 1.5, 3)  # degree 3 needs n >= 4

    def test_alpha_must_exceed_one(self, P7):
        with pytest.raises(ValueError):
            mz_ratio(P7, 1.0, 7)

    def test_alpha2_with_exact_degree_window(self, singer_cache):
        for p in (2, 3, 5):
            s = singer_cache(p)
            rep = mz_ratio(build_polynomial(s), 2.0, s.q)
            assert abs(rep.ratio - 1.0) < 1e-10

    def test_integral_grid_is_a_power_of_two(self, singer_cache):
        # p = 67: degree 4544, so 4(degree + 1) = 18180 points rounded up to 2^15; the
        # 18180-point grid was 3.2e-5 off the 2^21-point mean
        P = build_polynomial(singer_cache(67))
        rep = mz_ratio(P, 1.5, P.q)
        assert rep.grid_size == 2**15
        fine = _power_mean(np.array(P.support), np.full(P.size, P.scale), 2**21, 1.5)
        assert abs(rep.integral - fine) < 5e-6

    def test_alpha2_at_degree_plus_one(self, singer_cache):
        # the tightest admissible sample count: n = degree + 1
        for p in (2, 3, 5):
            P = build_polynomial(singer_cache(p))
            rep = mz_ratio(P, 2.0, P.degree + 1)
            assert abs(rep.ratio - 1.0) < 1e-10


class TestKernel:
    def test_at_zero(self):
        assert kernel_value(KernelSpec(1.0), 0.0) == pytest.approx(1 / (2 * math.pi), abs=1e-15)

    def test_s1_at_pi(self):
        assert kernel_value(KernelSpec(1.0), math.pi) == pytest.approx(2 / math.pi**3, abs=1e-15)

    def test_s2_at_pi(self):
        assert kernel_value(KernelSpec(2.0), math.pi) == pytest.approx(0.0, abs=1e-30)

    def test_nonnegative(self):
        theta = np.linspace(-50, 50, 2001)
        assert np.all(kernel_value(KernelSpec(0.7), theta) >= 0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(0.0)
        with pytest.raises(ValueError):
            KernelSpec(1.0, truncation=4)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_spec_rejects_non_finite_scale(self, s):
        # K_s is a probability density only for 0 < s < inf
        with pytest.raises(ValueError, match="positive and finite"):
            KernelSpec(s)

    def test_poisson_form_matches_truncated_sum(self):
        theta = np.linspace(0, 2 * np.pi, 17)
        for s in (0.5, 1.0, 1.6, 2.0, 3.5):
            spec = KernelSpec(s, truncation=3000)
            exact = periodized_kernel(spec, theta)
            trunc = periodized_kernel_truncated(spec, theta)
            assert np.max(np.abs(exact - trunc)) < kernel_tail_bound(spec)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.7, 3.0])
    def test_truncated_sum_matches_the_sinc_sum(self, s):
        # oracle: the term-by-term sum of kernel_value; the routine shares two trig
        # evaluations per node and must agree, also next to the poles at 0 and 2 pi
        spec = KernelSpec(s)
        rng = np.random.default_rng(7)
        theta = np.concatenate([[0.5, 0.0, 1e-12, 1e-7, np.pi, 2 * np.pi - 1e-9, 2 * np.pi, -3.0, 9.0],
                                rng.uniform(0, 2 * np.pi, 20000)])
        oracle = 2 * np.pi * sum(kernel_value(spec, theta + 2 * np.pi * n)
                                 for n in range(-spec.truncation, spec.truncation + 1))
        assert np.max(np.abs(periodized_kernel_truncated(spec, theta) - oracle)) <= 1e-13
        assert periodized_kernel_truncated(spec, 0.5) == pytest.approx(oracle[0], abs=1e-13)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.5, 2.7, 3.0, 0.7, math.sqrt(2), 1 / 32])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_truncated_sum_at_a_non_finite_node(self, s, bad):
        # a non-finite node reads nan and leaves every other node's value bit for bit,
        # although every shift then takes the sinc branch near the poles; the same holds
        # with the node in the middle of the array, and against the addition-formula oracle
        spec = KernelSpec(s)
        theta = np.array([0.0, 1e-12, 2 * np.pi - 1e-9, -1e-12, np.pi, 40.0, 0.5])
        with np.errstate(invalid="ignore"):
            got = periodized_kernel_truncated(spec, np.append(theta, bad))
            mixed = np.insert(theta, 3, bad)
            got_mixed = periodized_kernel_truncated(spec, mixed)
            assert_same_bits(got_mixed, kernel_truncated_oracle(spec, mixed))
        assert np.isnan(got[-1])
        assert np.array_equal(got[:-1], periodized_kernel_truncated(spec, theta))
        assert_same_bits(np.delete(got_mixed, 3), got[:-1])

    @pytest.mark.parametrize("s", [3.0, 2.5, 1.0, 0.7, math.sqrt(2), 1 / 32])
    def test_truncated_sum_bits_equal_the_addition_formula(self, s):
        # the zero-phase shifts (every n at integer s, even n at s = 2.5, n = 0 mod 10 at
        # s = 0.7) take sin u / x; every value keeps the bits of the addition formula at
        # every shift.  Nodes: signed zeros, a subnormal-scale one, the poles 0 and 2 pi, and
        # the two sides of each point where |u + pi s n| crosses 1 for a shift in the window
        spec = KernelSpec(s)
        n = np.arange(-3, 4)
        crossings = (2.0 / s) * (np.concatenate([1.0 - np.pi * s * n, -1.0 - np.pi * s * n]))
        rng = np.random.default_rng(11)
        theta = np.concatenate([
            [0.0, -0.0, 1e-300, -1e-300, 2 * np.pi, -2 * np.pi, np.pi, 1e-12],
            crossings, np.nextafter(crossings, np.inf), np.nextafter(crossings, -np.inf),
            rng.uniform(-2 * np.pi, 4 * np.pi, 2000)])
        assert_same_bits(periodized_kernel_truncated(spec, theta), kernel_truncated_oracle(spec, theta))
        assert periodized_kernel_truncated(spec, np.empty(0)).shape == (0,)
        assert_same_bits(periodized_kernel_truncated(spec, np.empty((0, 3))),
                         kernel_truncated_oracle(spec, np.empty((0, 3))))
        for node in (0.0, -0.0, 1e-300, 2 * np.pi):
            got, want = periodized_kernel_truncated(spec, node), kernel_truncated_oracle(spec, node)
            assert isinstance(got, float) and np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_fejer_special_case(self):
        # integer s periodizes to the classical kernel (sin(s t/2)/sin(t/2))^2 / s
        theta = np.linspace(0.1, 2 * np.pi - 0.1, 23)
        spec = KernelSpec(3.0)
        fejer = (np.sin(3 * theta / 2) / np.sin(theta / 2)) ** 2 / 3
        assert np.max(np.abs(periodized_kernel(spec, theta) - fejer)) < 1e-12

    def test_panels_take_one_call_per_wave(self):
        # a kinked integrand: |sin 3t - 0.2|^(1/2) has square-root cusps that the panels
        # bisect for several waves.  The 16- and 32-node sets of a wave go to one call,
        # which the two-call route splits in two, and every bit of the total stays
        def fun(t):
            calls.append(t.size)
            return np.sqrt(np.abs(np.sin(3.0 * t) - 0.2)) * np.exp(-t)

        edges = np.array([0.0, 0.5, 1.0, 2.0, np.pi])
        calls = []
        joined, unconverged = analysis._adaptive_panels(fun, edges)
        joined_calls, calls = calls, []
        two_calls = adaptive_panels_two_calls(fun, edges)
        assert joined == two_calls
        # the cusps reach the bisection cap, and the panels accepted there unconverged are
        # counted, not dropped silently
        assert len(joined_calls) == analysis._PANEL_MAX_DEPTH + 1
        assert unconverged == 4
        assert len(joined_calls) > 3  # several waves
        assert max(joined_calls) <= analysis._BLOCK
        assert 2 * len(joined_calls) == len(calls)
        assert joined_calls == [a + b for a, b in zip(calls[::2], calls[1::2])]

    def test_eval_chunked_slices(self):
        # _BLOCK // width nodes per call, the last call takes the rest; an empty input is
        # one call on the empty array
        seen = []

        def fun(t):
            seen.append(t.size)
            return 2.0 * t

        per = analysis._BLOCK // 7
        t = np.arange(2 * per + 5, dtype=float)
        assert np.array_equal(analysis._eval_chunked(fun, t, 7), 2.0 * t)
        assert seen == [per, per, 5]
        seen.clear()
        assert np.array_equal(analysis._eval_chunked(fun, t[:2 * per], 7), 2.0 * t[:2 * per])
        assert seen == [per, per]
        seen.clear()
        out = analysis._eval_chunked(fun, np.empty(0), 1)
        assert out.shape == (0,) and out.dtype == float and seen == [0]

    def test_circle_grid_resolves_a_wide_kernel(self, monkeypatch):
        # s = 4500: 2 ceil(s) = 9000 rounded up to 2^14 midpoints; 4096 read 0.82
        sizes = []
        kernel = analysis.periodized_kernel

        def counted(spec, theta):
            sizes.append(theta.size)
            return kernel(spec, theta)

        monkeypatch.setattr(analysis, "periodized_kernel", counted)
        rep = kernel_mass(KernelSpec(4500.0))
        assert sizes == [2**14]
        assert abs(rep.circle_mass - 1.0) < 1e-9

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_mass_is_one(self, s):
        rep = kernel_mass(KernelSpec(s))
        assert abs(rep.circle_mass - 1.0) < 1e-8
        assert abs(rep.line_mass - 1.0) < 1e-8
        assert rep.unconverged_panels == 0


class TestSincTail:
    """pi/2 - Si(y) and the sinc^2 tail mass against 40-digit mpmath."""

    # both sides of y = 4, where the power series hands over to the continued fraction,
    # and of y = 2, where the textbook (Numerical Recipes) split is
    Y = np.concatenate([np.geomspace(1e-6, 1e6, 2000),
                        [2.0, np.nextafter(2.0, 0), np.nextafter(2.0, 3),
                         4.0, np.nextafter(4.0, 0), np.nextafter(4.0, 5)]])

    def test_si_tail_against_mpmath(self):
        # pi/2 - Si(y) changes sign near y = 1.93, 4.79, ...; its envelope is min(1, 1/y)
        with mpmath.workdps(40):
            for y in self.Y:
                ref = mpmath.pi / 2 - mpmath.si(mpmath.mpf(float(y)))
                assert abs(_si_tail(float(y)) - ref) <= 4e-15 * min(1.0, 1.0 / y), y

    def test_tail_mass_relative_accuracy(self):
        # s = 2 makes x = half_width exactly; the tail sin^2(x)/x + pi/2 - Si(2x) is positive
        spec = KernelSpec(2.0)
        with mpmath.workdps(40):
            for x in np.geomspace(1e-6, 1e6, 2000):
                xm = mpmath.mpf(float(x))
                ref = 2 / mpmath.pi * (mpmath.sin(xm) ** 2 / xm + mpmath.pi / 2 - mpmath.si(2 * xm))
                assert abs(_line_tail_mass(spec, float(x)) - ref) <= 1e-14 * ref, x

    def test_si_against_scipy(self):
        # oracle only: scipy is a test dependency.  From y = 1 on Si(y) >= 0.94, so
        # pi/2 - _si_tail(y) does not cancel
        from scipy.special import sici

        for y in self.Y[self.Y >= 1.0]:
            si = sici(y)[0]
            assert abs((math.pi / 2 - _si_tail(float(y))) - si) <= 1e-15 * si, y


class TestRealLine:
    def test_constant_polynomial_vanishes(self):
        rep = realline_flatness(newman_from_support([0]), 1.0, KernelSpec(1.0))
        assert rep.circle_value == 0.0
        assert rep.line_value == pytest.approx(0.0, abs=1e-12)

    def test_circle_equals_line_p7(self, P7):
        rep = realline_flatness(P7, 1.0, KernelSpec(1.0), grid_multiplier=2341)
        assert abs(rep.circle_truncated - rep.line_value) < 1e-6
        assert abs(rep.circle_value - rep.circle_truncated) <= rep.tail_bound
        assert rep.unconverged_panels == 0  # every line panel met its tolerance

    def test_power_of_two_grid_p23(self, singer_cache):
        # q = 553: 16q = 8848 points rounded up to 2^14, no node a q-th root of unity;
        # on the 16q grid the gap was 8.9e-5
        rep = realline_flatness(build_polynomial(singer_cache(23)), 1.0, KernelSpec(3.0))
        assert rep.circle_grid == 2**14
        assert abs(rep.circle_truncated - rep.line_value) < 2e-5

    def test_grid_resolves_a_wide_kernel(self, P7):
        # s = 4500: 2 ceil(s) = 9000 points rounded up to 2^14; 4096 points gave a
        # circle_truncated 0.13 off the line route
        rep = realline_flatness(P7, 1.0, KernelSpec(4500.0))
        assert rep.circle_grid == 2**14
        assert abs(rep.circle_truncated - rep.line_value) < 1e-9

    @pytest.mark.parametrize("q, s, multiplier, N", [
        (7, 1.0, 16, 4096), (7, 1.0, 2341, 2**15), (7, 2048.0, 16, 4096),
        (7, 2048.5, 16, 2**13), (993, 3.0, 16, 2**14), (10**6, 0.5, 8, 2**23),
    ])
    def test_realline_grid(self, q, s, multiplier, N):
        assert analysis.realline_grid(q, s, multiplier) == N

    def test_other_scale(self, P7):
        rep = realline_flatness(P7, 1.5, KernelSpec(2.0), grid_multiplier=2341)
        assert abs(rep.circle_truncated - rep.line_value) < 1e-6

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, 2.5])
    def test_alpha_outside_zero_two_rejected(self, P7, alpha, monkeypatch):
        # flatness and the CLI take the same range; the check comes before the grid, which
        # a negative or nan alpha would otherwise feed to the panels for minutes
        def forbidden(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(analysis, "eval_support_grid", forbidden)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 2\]"):
            realline_flatness(P7, alpha, KernelSpec(1.0))

    def test_line_route_scratch_is_one_block(self, singer_cache):
        # p = 13: the kink-seeded panels take about 10^5 nodes in their first wave, and the
        # direct sum over k = 14 terms goes _BLOCK // k nodes at a time, 1 MB per complex
        # temporary; pieces of 65536 nodes would take 14.7 MB each
        P = build_polynomial(singer_cache(13))
        tracemalloc.start()
        try:
            realline_flatness(P, 1.0, KernelSpec(3.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_grid_too_small(self, P7):
        with pytest.raises(ValueError):
            # max(4096, 4 * 1000) points, below 8q
            realline_flatness(newman_from_support([0, 5], q=1000), 1.0, KernelSpec(1.0), 4)
