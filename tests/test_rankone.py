from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from flatpoly import rankone
from flatpoly.errors import BudgetError
from flatpoly.rankone import (
    _tower_replay,
    base_occurrences,
    build_tower,
    correlation,
    derive_flow_params,
    derive_map_params,
    measure_growth,
)
from flatpoly.riesz import PlanStage, RieszPlan, make_plan, partial_coeffs
from flatpoly.singer import SingerSet


@pytest.fixture(scope="module")
def plan23():
    return make_plan([2, 3], rule="margin:2")  # scales (1, 8), heights (4, 76)


@pytest.fixture(scope="module")
def params23(plan23):
    return derive_map_params(plan23)


# margin, margin:2 and explicit-scale plans; the last three repeat a prime
PLAN_CASES = [
    ([2, 3, 5], {"rule": "margin"}),
    ([2, 3], {"rule": "margin:2"}),
    ([2, 3], {"scales": [1, 14]}),
    ([2, 3, 2], {"rule": "margin"}),
    ([2, 3, 2], {"rule": "margin:2"}),
    ([2, 3, 2], {"scales": [1, 4, 60]}),
]


@pytest.fixture(scope="module")
def case_plans():
    plans = [make_plan(primes, **kwargs) for primes, kwargs in PLAN_CASES]
    return [(plan, derive_map_params(plan)) for plan in plans]


def zero_spacer_plan():
    """Degenerate two-element stage whose spacers all vanish."""
    sset = SingerSet(p=1, m=1, q=3, residues=(0, 1))
    stage = PlanStage(prime=1, m=1, singer=sset, scale=1, height=2)
    return RieszPlan(stages=(stage,), rule="explicit")


class TestDeriveMapParams:
    def test_stage_one(self, params23):
        st = params23.stages[0]
        assert st.cutting == 3
        assert st.spacers == (0, 1, 0)
        assert st.height == 4

    def test_stage_two(self, params23):
        st = params23.stages[1]
        assert st.cutting == 4
        assert st.spacers == (4, 12, 44, 0)
        assert st.height == 76

    def test_negative_spacer_rejected(self):
        plan = make_plan([2, 3], scales=[1, 3])  # N_2 = 3 < h_1 = 4
        with pytest.raises(ValueError):
            derive_map_params(plan)

    def test_dual_recursion(self, case_plans):
        plans = [make_plan([2, 3, 5, 7], rule=rule) for rule in ("margin", "margin:2")]
        for plan, params in [(plan, derive_map_params(plan)) for plan in plans] + case_plans:
            assert params.heights == plan.heights
            assert params.base_height == plan.base_height
            h = params.base_height
            for st, pst in zip(params.stages, plan.stages):
                top = pst.singer.residues[-1]
                assert st.height == top * st.scale + h
                assert st.height == st.cutting * h + sum(st.spacers)
                h = st.height

    def test_offsets_reproduce_frequencies(self, plan23, params23):
        for j, pst in enumerate(plan23.stages):
            assert params23.column_offsets(j) == pst.frequencies

    def test_dynamical_origin_gaps(self):
        # first offset >= previous height, consecutive gaps >= previous height
        plan = make_plan([2, 3, 5], rule="margin:2")
        params = derive_map_params(plan)
        h = params.base_height
        for j, st in enumerate(params.stages):
            offs = params.column_offsets(j)
            assert offs[1] >= h
            assert all(b - a >= h for a, b in zip(offs, offs[1:]))
            h = st.height


class TestDeriveFlowParams:
    def test_tau_one_matches_map(self, plan23, params23):
        flow = derive_flow_params(plan23, 1)
        assert flow.heights == tuple(Fraction(h) for h in params23.heights)
        assert flow.stages[0].spacers == (0, 1, 0)

    def test_tau_half(self, plan23):
        flow = derive_flow_params(plan23, Fraction(1, 2))
        assert flow.base_height == Fraction(1, 2)
        assert flow.heights[0] == 2
        assert flow.stages[0].spacers == (0, Fraction(1, 2), 0)

    def test_recursions_hold_over_rationals(self, plan23):
        flow = derive_flow_params(plan23, Fraction(3, 7))
        h = flow.base_height
        for st in flow.stages:
            assert st.height == st.cutting * h + sum(st.spacers)
            h = st.height

    def test_tau_must_be_positive(self, plan23):
        with pytest.raises(ValueError):
            derive_flow_params(plan23, 0)


class TestMeasureGrowth:
    def test_terms(self, params23):
        rep = measure_growth(params23)
        assert rep.terms == (Fraction(1, 3), Fraction(15, 4))
        assert rep.partial_sums == (Fraction(1, 3), Fraction(49, 12))
        assert not rep.finite_measure

    def test_no_stage_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            measure_growth(rankone.RankOneParams(base_height=1, stages=()))

    def test_zero_spacers_finite(self):
        params = derive_map_params(zero_spacer_plan())
        rep = measure_growth(params)
        assert rep.terms == (Fraction(0),)
        assert rep.finite_measure

    def test_default_rule_terms_grow(self):
        params = derive_map_params(make_plan([2, 3, 5]))
        rep = measure_growth(params)
        assert rep.terms_nondecreasing
        assert not rep.finite_measure

    def test_flow_growth(self, plan23):
        flow = derive_flow_params(plan23, Fraction(1, 2))
        rep = measure_growth(flow)
        # term ratios are scale-invariant in tau
        assert rep.terms == (Fraction(1, 3), Fraction(15, 4))


class TestTower:
    def test_stage_one(self, params23):
        tower = build_tower(params23, 1)
        assert tower.level_count == 4
        assert tower.width == Fraction(1, 3)
        assert tower.total_measure == Fraction(4, 3)
        assert list(tower.origins) == [0, 0, 1, 0]  # spacer level sits above column 2

    def test_stage_zero(self, params23):
        tower = build_tower(params23, 0)
        assert tower.level_count == 1
        assert tower.total_measure == 1

    def test_stage_two(self, params23):
        tower = build_tower(params23, 2)
        assert tower.level_count == 76
        assert tower.width == Fraction(1, 12)
        assert tower.total_measure == Fraction(19, 3)
        assert tower.spacer_measure(2) == Fraction(60, 12)

    def test_level_count_is_the_plan_height(self, case_plans):
        for plan, params in case_plans:
            for K in range(1, len(plan.stages) + 1):
                assert build_tower(params, K).level_count == plan.heights[K - 1]

    def test_measure_closed_form(self, params23):
        tower = build_tower(params23, 2)
        assert tower.total_measure == 1 + tower.spacer_measure(1) + tower.spacer_measure(2)

    def test_budget(self):
        params = derive_map_params(make_plan([2, 3, 5, 7]))
        with pytest.raises(BudgetError):
            build_tower(params, 4)

    def test_bad_stage(self, params23):
        with pytest.raises(ValueError):
            build_tower(params23, 3)


class TestBaseOccurrences:
    def test_examples(self, params23):
        assert base_occurrences(params23, 0, 1) == (0, 1, 3)
        assert base_occurrences(params23, 1, 2) == (0, 8, 24, 72)
        assert base_occurrences(params23, 0, 2) == (
            0, 1, 3, 8, 9, 11, 24, 25, 27, 72, 73, 75,
        )

    def test_distinct_when_dissociated(self):
        params = derive_map_params(make_plan([2, 3, 5], rule="margin:2"))
        occ = base_occurrences(params, 0, 3)
        assert len(occ) == 3 * 4 * 6

    def test_matches_recursive_mask(self, case_plans):
        # sumset route vs cut-and-stack replay route
        for _, params in case_plans:
            for K in range(1, len(params.stages) + 1):
                for k in range(K):
                    positions = _tower_replay(params, k, K)[1]
                    assert 0 <= positions[0] and positions[-1] < params.heights[K - 1]
                    assert tuple(positions.tolist()) == base_occurrences(params, k, K)

    def test_bounds(self, params23):
        with pytest.raises(ValueError):
            base_occurrences(params23, 1, 1)
        with pytest.raises(ValueError):
            base_occurrences(params23, 0, 3)

    def test_budget(self, params23, monkeypatch):
        # stages 1 and 2 cut 3 and 4 columns: 12 occurrences, checked before any sum
        monkeypatch.setattr(rankone, "OCCURRENCE_BUDGET", 11)
        with pytest.raises(BudgetError, match="^12 occurrences exceed the budget 11$"):
            base_occurrences(params23, 0, 2)


class TestCorrelation:
    def test_small_shifts(self, params23):
        c1 = correlation(params23, 0, 1, 1)
        assert c1.predicted == Fraction(1, 3)
        assert c1.empirical == Fraction(1, 3)
        c2 = correlation(params23, 0, 1, 2)
        assert c2.predicted == Fraction(1, 3)

    def test_gap_shift_inside_larger_tower(self, params23):
        rep = correlation(params23, 0, 2, 4)
        assert rep.predicted == 0
        assert abs(rep.empirical - rep.predicted) <= rep.tolerance == Fraction(4, 76)

    def test_empirical_tracks_prediction(self, params23):
        for n in range(11):
            rep = correlation(params23, 0, 2, n)
            assert abs(rep.empirical - rep.predicted) <= rep.tolerance
            assert rep.excluded_mass <= rep.tolerance * 12

    def test_prediction_equals_riesz_coefficients(self, params23, plan23):
        coeffs = partial_coeffs(plan23, 2)
        occ = base_occurrences(params23, 0, 2)
        assert coeffs.coefficients == Counter(a - b for a in occ for b in occ)
        assert coeffs.denominator == len(occ) == 12

    def test_subplan_prediction_identity(self, plan23, params23):
        # stage-1 base inside stage-2 tower against the one-stage sub-plan
        sub = RieszPlan(stages=plan23.stages[1:], rule="explicit")
        coeffs = partial_coeffs(sub, 1)
        occ = base_occurrences(params23, 1, 2)
        assert coeffs.coefficients == Counter(a - b for a in occ for b in occ)
        assert coeffs.denominator == len(occ) == 4

    def test_n_out_of_range(self, params23):
        with pytest.raises(ValueError):
            correlation(params23, 0, 2, 76)

    @pytest.mark.parametrize("k, K", [(1, 1), (0, 3), (-1, 1)])
    def test_stages_out_of_range(self, params23, k, K):
        with pytest.raises(ValueError, match=r"need 0 <= k < K <= 2"):
            correlation(params23, k, K, 0)

    def test_sweep_replays_the_tower_once_per_stage_pair(self, monkeypatch):
        params = derive_map_params(make_plan([2, 3, 5], rule="margin:2"))
        calls = []

        def counted(levels, spacers, fill):
            calls.append(len(levels))
            return stack(levels, spacers, fill)

        stack = rankone._cut_and_stack
        monkeypatch.setattr(rankone, "_cut_and_stack", counted)
        _tower_replay.cache_clear()
        for k, K in ((0, 3), (1, 3), (2, 3), (0, 2)):
            before = len(calls)
            for i in range(200):
                correlation(params, k, K, i * params.heights[K - 1] // 200)
            assert len(calls) - before == K - k  # one replay: one cut per stage
        offsets, positions = _tower_replay(params, 0, 2)  # the cached replay: no new cut
        assert len(calls) == 3 + 2 + 1 + 2
        with pytest.raises(ValueError):
            positions[0] = 1  # shared across calls, so read-only
        with pytest.raises(ValueError):
            offsets[0] = 1

    def test_budget(self):
        # h_5 = 2551727478300 levels; the check comes before any level is allocated
        params = derive_map_params(make_plan([2, 3, 5, 7, 11]))
        message = f"height {params.heights[-1]} exceeds the tower budget {rankone.TOWER_BUDGET}"
        with pytest.raises(BudgetError, match=f"^{message}$"):
            correlation(params, 0, 5, 0)


class TestLevelShiftSimulation:
    def test_shifted_masks_reproduce_histogram(self, params23):
        # applying the level shift n times and measuring overlap equals the
        # offset-difference histogram, up to mass that exits the top
        h = params23.stages[1].height
        mask = np.zeros(h, dtype=bool)
        mask[_tower_replay(params23, 0, 2)[1]] = True
        occ = base_occurrences(params23, 0, 2)
        hist = Counter(a - b for a in occ for b in occ)
        for n in range(1, 20):
            overlap = int(np.count_nonzero(mask[: h - n] & mask[n:]))
            exited = int(np.count_nonzero(mask[h - n:]))
            assert overlap <= hist.get(n, 0) <= overlap + exited
