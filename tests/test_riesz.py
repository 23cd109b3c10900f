import dataclasses
import pickle
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from flatpoly import riesz
from flatpoly.rankone import base_occurrences, derive_map_params
from flatpoly.errors import BudgetError
from flatpoly.poly import eval_support_grid
from flatpoly.riesz import (
    CoefficientMap,
    PlanStage,
    RieszPlan,
    check_dissociated,
    ergodicity_sum,
    make_plan,
    partial_coeffs,
    plan_from_json,
    plan_to_json,
    quasi_invariance_sum,
)
from flatpoly.singer import _BLOCK, construct_singer


def manual_plan(primes, scales):
    """Assemble a plan without make_plan's growth-rule validation."""
    stages = []
    h = 1
    for p, N in zip(primes, scales):
        sset = construct_singer(p)
        h = sset.residues[-1] * N + h
        stages.append(PlanStage(prime=p, m=1, singer=sset, scale=N, height=h))
    return RieszPlan(stages=tuple(stages), rule="explicit")


class TestMakePlan:
    def test_default_rule(self):
        plan = make_plan([2, 3])
        assert plan.scales == (1, 24)
        assert plan.heights == (4, 220)
        assert plan.stages[0].frequencies == (0, 1, 3)
        assert plan.stages[1].frequencies == (0, 24, 72, 216)

    def test_margin2_rule(self):
        plan = make_plan([2, 3], rule="margin:2")
        assert plan.scales == (1, 8)
        assert plan.heights == (4, 76)

    def test_growth_rule_rejects_small_scales(self):
        with pytest.raises(ValueError):
            make_plan([2, 3], scales=[1, 2])

    def test_explicit_scales_recorded(self):
        plan = make_plan([2, 3], scales=[1, 14])
        assert plan.rule == "explicit"
        assert plan.scales == (1, 14)

    def test_default_rule_satisfies_margin(self):
        plan = make_plan([2, 3, 5])
        h = 1
        for st in plan.stages:
            assert st.scale == 1 or st.scale >= 2 * h
            h = st.height

    def test_bad_rule(self):
        with pytest.raises(ValueError):
            make_plan([2, 3], rule="margin:1")
        with pytest.raises(ValueError):
            make_plan([2, 3], rule="bogus")

    @pytest.mark.parametrize("rule", ["bogus", "margin:x", "margin:1", "explicit"])
    def test_bad_rule_rejected_with_one_prime(self, rule):
        # a one-prime plan never needs a multiplier; the rule is checked up front all the same
        with pytest.raises(ValueError):
            make_plan([2], rule=rule)

    def test_good_rules_still_accepted(self):
        assert make_plan([2, 3, 5], rule="margin:3").scales == (1, 12, 336)
        assert make_plan([2, 3], rule="explicit", scales=[1, 8]).scales == (1, 8)

    def test_repeated_primes_construct_once(self, monkeypatch):
        built = []

        def counted(p, m=1):
            built.append((p, m))
            return construct_singer(p, m)

        monkeypatch.setattr(riesz, "construct_singer", counted)
        plan = make_plan([2, 3, 5, 2, 3])
        assert built == [(2, 1), (3, 1), (5, 1)]
        assert plan.primes == (2, 3, 5, 2, 3)
        assert plan.stages[3].singer is plan.stages[0].singer

    @pytest.mark.parametrize("primes, kwargs, message", [
        # each case but the last breaks two rules; the error is the one checked first
        ([], {"rule": "bogus"}, "need at least one prime"),
        ([4], {"rule": "explicit"}, "rule 'explicit' requires scales"),
        ([4], {"rule": "margin:1"}, "margin multiplier must be >= 2, got 1"),
        ([2, 4], {"scales": [1]}, "p must be prime, got 4"),
        ([2, 3, 5], {"scales": [0, 2]}, "need one scale per prime"),
        ([2, 3, 5], {"scales": [0, 2, 1]}, "the first scale must be at least 1"),
        ([2, 3, 5], {"scales": [1, 2, 1]},
         r"scale N_2 = 2 violates the growth rule: need at least N_1 \* max\(S_1\) = 3"),
        ([2, 3, 5], {"scales": [1, 3, 1]},
         r"scale N_3 = 1 violates the growth rule: need at least N_2 \* max\(S_2\) = 27"),
    ])
    def test_error_order(self, primes, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_plan(primes, **kwargs)

    def test_prime_power_stages(self):
        plan = make_plan([2, 3], rule="margin:2", m=2)
        assert all(st.singer.size == st.prime**2 + 1 for st in plan.stages)
        coeffs = partial_coeffs(plan, 2)
        assert coeffs.zero_coefficient == 1
        assert coeffs.total_mass == 5 * 10


class TestDissociation:
    def test_explicit_14_valid(self):
        plan = make_plan([2, 3], scales=[1, 14])
        assert check_dissociated(plan, mode="differences").valid
        assert check_dissociated(plan, mode="sums").valid

    @pytest.mark.parametrize("stages", [0, 3])
    def test_stages_out_of_range(self, stages):
        with pytest.raises(ValueError, match=r"stages must lie in \[1, 2\]"):
            check_dissociated(make_plan([2, 3], scales=[1, 14]), stages)

    def test_collision_witness_scales_1_2(self):
        # scales (1, 2): 2 = 0 + 2 = 2 + 0 across the difference blocks
        plan = manual_plan([2, 3], [1, 2])
        cert = check_dissociated(plan, mode="differences")
        assert not cert.valid
        a, b, value = cert.collision
        assert a != b
        assert sum(a) == sum(b) == value
        blocks = [
            sorted({x - y for x in st.frequencies for y in st.frequencies})
            for st in plan.stages
        ]
        assert 2 in blocks[0] and 2 in blocks[1]  # the spec's witness value

    def test_collision_at_growth_boundary(self):
        plan = make_plan([2, 3], scales=[1, 3])
        cert = check_dissociated(plan, mode="differences")
        assert not cert.valid

    def test_single_stage_trivially_valid(self):
        plan = make_plan([2])
        for mode in ("sums", "differences"):
            assert check_dissociated(plan, mode=mode).valid

    def test_default_rule_plans_pass_both_modes(self):
        for primes in ([2, 3], [2, 3, 5], [3, 5]):
            plan = make_plan(primes)
            assert check_dissociated(plan, mode="sums").valid
            assert check_dissociated(plan, mode="differences").valid

    def test_budget(self):
        plan = make_plan([2, 3, 5, 7, 11])
        with pytest.raises(BudgetError):
            check_dissociated(plan, mode="differences")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            check_dissociated(make_plan([2]), mode="nope")


class TestPartialCoeffs:
    def test_single_stage_p2(self):
        coeffs = partial_coeffs(make_plan([2], scales=[1]), 1)
        assert coeffs.denominator == 3
        assert coeffs.coefficients == {0: 3, 1: 1, -1: 1, 2: 1, -2: 1, 3: 1, -3: 1}

    def test_two_stage_cross_term(self):
        coeffs = partial_coeffs(make_plan([2, 3]), 2)
        assert coeffs.denominator == 12
        assert Fraction(coeffs.coefficients[24], coeffs.denominator) == Fraction(1, 4)
        assert coeffs.zero_coefficient == 1
        assert coeffs.dissociation_consistent

    def test_total_mass(self):
        for primes in ([2, 3], [2, 3, 5]):
            plan = make_plan(primes)
            coeffs = partial_coeffs(plan, len(primes))
            assert coeffs.total_mass == np.prod([p + 1 for p in primes])

    def test_symmetric_nonnegative(self):
        coeffs = partial_coeffs(make_plan([2, 3]), 2).coefficients
        for f, v in coeffs.items():
            assert v > 0
            assert coeffs[-f] == v

    def test_non_dissociated_diagnostic(self):
        plan = manual_plan([2, 3], [1, 2])
        coeffs = partial_coeffs(plan, 2)
        assert coeffs.zero_coefficient > 1
        assert not coeffs.dissociation_consistent

    def test_matches_grid_transform(self, singer_cache):
        # k = 1 coefficients equal the Fourier coefficients of |P(z^N)|^2
        N_scale = 2
        plan = manual_plan([2], [N_scale])
        coeffs = partial_coeffs(plan, 1)
        P = singer_cache(2)
        exps = [N_scale * s for s in P.residues]
        N = 64
        values = eval_support_grid(exps, [1 / np.sqrt(3)] * 3, N)
        chat = np.fft.fft(np.abs(values) ** 2) / N
        for f in range(-N // 2, N // 2):
            want = coeffs.coefficients.get(f, 0) / coeffs.denominator
            assert abs(chat[f % N] - want) < 1e-10

    def test_stage_bounds(self):
        with pytest.raises(ValueError):
            partial_coeffs(make_plan([2]), 2)

    def test_budget_fails_before_the_convolution(self, budget_limit):
        # 7 * 13 = 91 frequencies, exactly what the dissociated plan would produce
        budget_limit("coefficient", 90)
        with pytest.raises(BudgetError, match="^91 frequencies exceed the coefficient budget 90$"):
            partial_coeffs(make_plan([2, 3]), 2)
        # scales (1, 2) collide: the convolution would make fewer than 91 frequencies
        plan = manual_plan([2, 3], [1, 2])
        budget_limit("coefficient", 10**6)
        assert len(partial_coeffs(plan, 2).coefficients) <= 90
        budget_limit("coefficient", 90)
        with pytest.raises(BudgetError, match="^91 frequencies"):
            partial_coeffs(plan, 2)
        budget_limit("coefficient", 91)
        assert partial_coeffs(make_plan([2, 3]), 2).total_mass == 12


class TestSparseCoefficients:
    def test_equals_the_dict_and_the_counter(self):
        coeffs = partial_coeffs(make_plan([2, 3]), 2)
        as_dict = dict(coeffs.coefficients.items())
        assert isinstance(coeffs.coefficients, CoefficientMap)
        assert coeffs.coefficients == as_dict and as_dict == coeffs.coefficients
        assert coeffs.coefficients == Counter(as_dict) and Counter(as_dict) == coeffs.coefficients
        assert coeffs.coefficients != {**as_dict, 0: 13} and coeffs.coefficients != {}
        assert coeffs.coefficients == CoefficientMap(as_dict)
        assert repr(coeffs.coefficients) == repr(as_dict)
        assert list(coeffs.coefficients) == sorted(as_dict)

    def test_items_are_python_ints(self):
        cmap = partial_coeffs(make_plan([2, 3]), 2).coefficients
        assert cmap.frequencies.dtype == cmap.numerators.dtype == np.int64
        for values in (list(cmap), list(cmap.values()), [v for item in cmap.items() for v in item],
                       [cmap[24], cmap.get(0)]):
            assert {type(v) for v in values} == {int}

    def test_missing_keys(self):
        cmap = partial_coeffs(make_plan([2, 3]), 2).coefficients
        for key in (4, 10**30, -10**30, 0.5, float("nan"), float("inf"), Fraction(1, 2), "0", None):
            with pytest.raises(KeyError):
                cmap[key]
            assert cmap.get(key) is None and cmap.get(key, -1) == -1 and key not in cmap
        # keys equal to an integer find it, as in a dict
        for key in (24, 24.0, Fraction(24), np.int64(24), np.float64(24), 24 + 0j,
                    np.complex128(24)):
            assert cmap[key] == 3 and key in cmap

    @pytest.mark.parametrize("scales", [None, [1, 10**19]])
    def test_complex_keys_read_as_in_the_dict(self, scales):
        # a complex key equal to an integer (imaginary part 0) finds it; any other misses
        cmap = partial_coeffs(make_plan([2, 3], scales=scales), 2).coefficients
        as_dict = dict(cmap.items())
        keys = [1 + 0j, 0j, -1 + 0j, 24 + 0j, np.complex128(1), np.complex128(-24), 1 + 1j,
                0.5 + 0j, complex(float("nan"), 0), complex(float("inf"), 0), 10**30 + 0j]
        for key in keys:
            assert cmap.get(key) == as_dict.get(key) and (key in cmap) == (key in as_dict), key
            if key in as_dict:
                assert cmap[key] == as_dict[key] and type(cmap[key]) is int, key
            else:
                with pytest.raises(KeyError):
                    cmap[key]
        for vector in (cmap._freq, cmap._num):
            oracle = tuple(vector)
            for key in keys:
                assert vector.count(key) == oracle.count(key) and (key in vector) == (key in oracle)
        assert cmap.get(1 + 0j) == as_dict[1] and cmap[0j] == as_dict[0]

    def test_len_reads_no_item(self, monkeypatch):
        cmap = partial_coeffs(make_plan([2, 3, 5]), 3).coefficients

        def no_iteration(self):
            raise AssertionError("len iterated")

        monkeypatch.setattr(CoefficientMap, "__iter__", no_iteration)
        assert len(cmap) == cmap.frequencies.size == 7 * 13 * 31

    def test_read_only(self):
        coeffs = partial_coeffs(make_plan([2, 3]), 2)
        for array in (coeffs.frequencies, coeffs.numerators,
                      coeffs.coefficients.frequencies, coeffs.coefficients.numerators):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 7
        with pytest.raises(TypeError):
            coeffs.coefficients[0] = 13
        with pytest.raises(TypeError):
            hash(coeffs.coefficients)
        again = pickle.loads(pickle.dumps(coeffs))
        assert again.coefficients == coeffs.coefficients and not again.frequencies.flags.writeable

    @pytest.mark.parametrize("top", [0, 2**64])
    def test_maps_longer_than_a_block(self, top):
        # _BLOCK + 3 items, so iteration and items() cross a block boundary; a frequency
        # past int64 (top) puts the frequencies on the object route
        source = {3 * f - 5: f % 11 - 5 for f in range(_BLOCK + 2)}
        source[top + 3 * _BLOCK] = 7
        cmap = CoefficientMap(source)
        assert cmap.frequencies.dtype == (object if top else np.int64)
        assert len(cmap) == _BLOCK + 3 and list(cmap) == sorted(source)
        assert dict(cmap.items()) == source
        assert list(cmap.values()) == [source[f] for f in sorted(source)]
        assert [type(v) for item in cmap.items() for v in item] == [int] * (2 * _BLOCK + 6)
        for key in (-5, 3 * _BLOCK - 2, 3 * _BLOCK + 1, top + 3 * _BLOCK):
            assert cmap.get(key) == source.get(key), key
        again = pickle.loads(pickle.dumps(cmap))
        assert again == cmap and again == source and isinstance(again, CoefficientMap)
        assert not again.frequencies.flags.writeable and not again.numerators.flags.writeable
        with pytest.raises(TypeError):
            again[0] = 1

    def test_frequencies_ascend_with_their_numerators(self):
        for plan in (make_plan([2, 3, 5]), manual_plan([2, 3], [1, 2])):
            coeffs = partial_coeffs(plan, 2)
            freqs = coeffs.frequencies
            assert np.all(freqs[1:] > freqs[:-1])
            assert dict(zip(freqs.tolist(), coeffs.numerators.tolist())) == coeffs.coefficients

    def test_object_path_past_2_63(self):
        plan = make_plan([2, 3], scales=[1, 10**19])
        coeffs = partial_coeffs(plan, 2)
        assert coeffs.frequencies.dtype == coeffs.numerators.dtype == object
        expected = Counter()
        for a in plan.stages[0].frequencies:
            for b in plan.stages[0].frequencies:
                for c in plan.stages[1].frequencies:
                    for d in plan.stages[1].frequencies:
                        expected[a - b + c - d] += 1
        assert coeffs.coefficients == expected and len(coeffs.coefficients) == 7 * 13
        top = 9 * 10**19 + 3
        assert coeffs.coefficients[top] == coeffs.coefficients[-top] == 1
        assert type(coeffs.coefficients[top]) is int and coeffs.coefficients.get(top + 1) is None
        assert coeffs.zero_coefficient == 1 and coeffs.total_mass == 12
        again = pickle.loads(pickle.dumps(coeffs.coefficients))
        assert again == coeffs.coefficients and again.numerators.dtype == object

    def test_any_mapping_converts_once(self):
        coeffs = partial_coeffs(make_plan([2, 3]), 2)
        bumped = dataclasses.replace(coeffs, coefficients={**coeffs.coefficients, 0: 13})
        assert isinstance(bumped.coefficients, CoefficientMap)
        assert bumped.zero_coefficient == Fraction(13, 12) and not bumped.dissociation_consistent
        assert bumped.total_mass == Fraction(145, 12)
        huge = riesz.SparseCoefficients(stages=1, coefficients={2**64: 2**70, -1: 1}, denominator=1)
        assert huge.frequencies.tolist() == [-1, 2**64] and huge.total_mass == 2**70 + 1

    @pytest.mark.parametrize("primes, rule", [
        ((2, 3, 5, 2, 3), "margin"),
        ((2, 3, 5, 7), "margin"),
        ((2, 3, 5, 7, 2), "margin:2"),
        ((3, 2, 2, 2), "margin:2"),
        ((2, 3, 5), "margin:5"),
    ])
    def test_margin_plans_need_no_sort(self, monkeypatch, primes, rule):
        plan = make_plan(primes, rule=rule)
        params = derive_map_params(plan)
        K = len(plan.stages)

        def no_sort(*args, **kwargs):
            raise AssertionError("a margin plan reached a sort")

        monkeypatch.setattr(riesz.np, "unique", no_sort)
        for k in range(1, K + 1):
            try:
                assert partial_coeffs(plan, k).dissociation_consistent
                for mode in ("sums", "differences"):
                    assert check_dissociated(plan, k, mode=mode).valid
            except BudgetError:  # the five-stage plan's last stage
                assert k == 5
        monkeypatch.setattr(riesz.np, "sort", no_sort)
        for K_ in range(1, K + 1):
            for k in range(K_):
                occ = base_occurrences(params, k, K_)
                assert list(occ) == sorted(occ)


class TestErgodicity:
    def test_first_term(self):
        rep = ergodicity_sum(make_plan([2, 3]))
        assert rep.terms == (Fraction(1, 64),)
        assert rep.partial_sums == (Fraction(1, 64),)

    def test_default_rule_bounded(self):
        rep = ergodicity_sum(make_plan([2, 3, 5, 7]))
        assert rep.criterion_met
        assert rep.partial_sums[-1] < Fraction(1, 3)
        assert rep.converged_below == Fraction(1, 3)
        for j, t in enumerate(rep.terms, start=1):
            assert t <= Fraction(1, 4**j)

    def test_top_frequency_variant_bounded(self):
        # under the default rule h_j >= max(S_j) N_j, so the companion
        # series obeys terms_top[j] <= 4^-j / (p_j+1)^2
        plan = make_plan([2, 3, 5])
        rep = ergodicity_sum(plan)
        for j, (st, tt) in enumerate(zip(plan.stages, rep.terms_top_frequency), start=1):
            assert tt <= Fraction(1, 4**j * st.singer.size**2)

    def test_degenerate_constant_scales(self):
        plan = manual_plan([2, 2, 2], [1, 1, 1])
        rep = ergodicity_sum(plan)
        assert not rep.criterion_met
        assert rep.terms[0] == rep.terms[1] == Fraction(9)
        assert rep.partial_sums[-1] == Fraction(18)

    def test_needs_two_stages(self):
        with pytest.raises(ValueError):
            ergodicity_sum(make_plan([2]))


class TestQuasiInvariance:
    def test_zero_rotation(self):
        rep = quasi_invariance_sum(make_plan([2, 3]), 0)
        assert rep.terms == (Fraction(0), Fraction(0))
        assert rep.suggests_membership

    def test_reciprocal_scale(self):
        plan = make_plan([2, 3])  # scales (1, 24)
        rep = quasi_invariance_sum(plan, Fraction(1, 24))
        assert rep.terms == (Fraction(9, 576), Fraction(0))
        assert rep.partial_sums[-1] == Fraction(1, 64)

    def test_arithmetic_oracle(self):
        plan = make_plan([2, 3])
        x = Fraction(1, 7)
        rep = quasi_invariance_sum(plan, x)
        expected = []
        for size, N in ((3, 1), (4, 24)):
            t = (N * x) % 1
            dist = min(t, 1 - t)
            expected.append(size**2 * dist * dist)
        assert rep.terms == tuple(expected)

    def test_float_input(self):
        rep = quasi_invariance_sum(make_plan([2, 3]), 0.5)
        assert rep.terms[0] == Fraction(9, 4)

    def test_integer_route_equals_the_fraction_formula(self):
        plan = make_plan([2, 3, 5, 7])
        rng = np.random.default_rng(7)
        rotations = [Fraction(int(a), int(b)) for a, b in rng.integers(-10**6, 10**6, (60, 2)) if b]
        for x in rotations + [Fraction(0), Fraction(1, 2), Fraction(5, plan.scales[-1])]:
            terms = []
            for st in plan.stages:
                t = (st.scale * x) % 1
                terms.append(Fraction(st.singer.size) ** 2 * min(t, 1 - t) ** 2)
            rep = quasi_invariance_sum(plan, x)
            assert rep.terms == tuple(terms)
            assert rep.partial_sums == tuple(sum(terms[:j + 1]) for j in range(len(terms)))
            assert rep.suggests_membership == (sum(terms[2:]) < Fraction(1, 10**9))


class TestPlanJson:
    def test_round_trip_default(self):
        plan = make_plan([2, 3, 5])
        text = plan_to_json(plan)
        again = plan_from_json(text)
        assert again == plan
        assert plan_to_json(again) == text

    def test_round_trip_explicit(self):
        plan = make_plan([2, 3], scales=[1, 14])
        assert plan_from_json(plan_to_json(plan)) == plan

    def test_fields(self):
        import json

        payload = json.loads(plan_to_json(make_plan([2, 3], rule="margin:2")))
        assert payload == {
            "primes": [2, 3], "m": 1, "rule": "margin:2", "scales": [1, 8], "seeds": None,
        }

    def test_bogus_rule_rejected(self):
        text = plan_to_json(make_plan([2])).replace('"margin"', '"bogus"')
        with pytest.raises(ValueError, match="unknown scale rule"):
            plan_from_json(text)

    def test_tampered_scales_rejected(self):
        text = plan_to_json(make_plan([2, 3])).replace("[1,24]", "[1,25]")
        with pytest.raises(ValueError):
            plan_from_json(text)
