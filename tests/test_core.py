"""Domain types, scalar modes, normalization, physical conversion."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerwave import (PhysicalProfile, ValidationError, data_from_dict,
                       data_to_dict, from_physical, model_from_dict,
                       model_to_dict, normalize, total_travel_time,
                       validate_data, validate_model)
from layerwave.core import (DEFAULT_TOLERANCES, dot, find_time, left_sum,
                            prefix_sums, scalar_text, tolerance)

R2 = 2 ** 0.5 / 2  # float 1/sqrt(2)


class TestValidateModel:
    def test_valid_one_layer(self):
        m = validate_model((1.0, 0.5), (0.5, 0.7))
        assert m.layers == 1 and not m.rational

    def test_nonpositive_tau_reports_index(self):
        with pytest.raises(ValidationError, match=r"tau\[1\]"):
            validate_model((1.0, -0.5), (0.5, 0.7))

    def test_boundary_refl_excluded(self):
        with pytest.raises(ValidationError, match=r"refl\[1\]"):
            validate_model((1.0, 0.5), (0.5, 1.0))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            validate_model((1.0,), (0.5, 0.7))

    def test_zero_layers_needs_flag(self):
        with pytest.raises(ValidationError):
            validate_model((1.0,), (0.5,))
        assert validate_model((1.0,), (0.5,), allow_zero_layers=True).layers == 0

    def test_mixed_modes_rejected(self):
        with pytest.raises(ValidationError):
            validate_model((1.0, Fraction(1, 2)), (0.5, 0.7))
        with pytest.raises(ValidationError):
            validate_model((Fraction(1), Fraction(1, 2)), (0.5, 0.7))

    def test_rational_flag_rejects_floats(self):
        with pytest.raises(ValidationError):
            validate_model((1.0, 0.5), (0.5, 0.7), rational=True)

    def test_infinite_tau_rejected(self):
        with pytest.raises(ValidationError, match=r"tau\[1\] = inf"):
            validate_model((1.0, float("inf")), (0.5, 0.7))

    def test_ints_coerce_by_mode(self):
        assert validate_model((1, 2), (0, 0)).tau == (1.0, 2.0)
        m = validate_model((1, 2), (0, 0), rational=True)
        assert m.rational and m.tau == (Fraction(1), Fraction(2))


class TestData:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValidationError):
            validate_data((1.0, 1.0), (0.5, 0.5))

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValidationError):
            validate_data((1.0, 2.0), (0.5, 0.0))

    def test_nan_amplitude_rejected(self):
        with pytest.raises(ValidationError, match=r"alpha\[0\] = nan"):
            validate_data((1.0, 2.0), (float("nan"), 0.5))

    def test_empty_needs_flag(self):
        with pytest.raises(ValidationError):
            validate_data((), ())
        assert len(validate_data((), (), allow_empty=True)) == 0


class TestTotalTravelTime:
    def test_simple(self):
        assert total_travel_time(validate_model((1.0, 0.5), (0.1, 0.1))) == 1.5

    def test_float_sum_of_four(self):
        m = validate_model((1.0, 0.327971, 0.152455, 1.51957), (0.1,) * 4)
        total = total_travel_time(m)
        assert total == 1.0 + 0.327971 + 0.152455 + 1.51957
        assert abs(total - 2.999996) < 1e-12

    def test_rational_exact(self):
        m = validate_model((Fraction(1, 3), Fraction(1, 6)),
                           (Fraction(1, 10), Fraction(1, 10)))
        assert total_travel_time(m) == Fraction(1, 2)


class TestOrderedSums:
    def test_left_sum_is_not_compensated(self):
        # builtin sum() gives 1.0 here from Python 3.12 on
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert left_sum(iter([Fraction(1, 3), Fraction(1, 6)])) == \
            Fraction(1, 2)

    @pytest.mark.parametrize("values", [
        [1e16, 1.0, -1e16, 0.1, 0.2, 0.3, 1e-17],
        [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), Fraction(1, 3)],
    ])
    def test_prefix_sums_match_explicit_loop(self, values):
        want = [values[0]]
        for v in values[1:]:
            want.append(want[-1] + v)
        got = prefix_sums(values)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]

    def test_dot_is_left_to_right(self):
        tau = (0.1, 0.2, 0.3, 1e16, -1e16)
        k = (1, 2, 3, 1, 1)
        assert dot(tau, k) == (((0.1 + 2 * 0.2) + 3 * 0.3) + 1e16) - 1e16


class TestFindTime:
    def test_lower_neighbour_wins(self):
        times = [1.0, 2.0, 2.2, 3.0]
        assert find_time(times, 2.1, 0.15) == 1
        assert find_time(times, 2.2, 0.0) == 2
        assert find_time(times, 0.95, 0.1) == 0
        assert find_time(times, 3.05, 0.1) == 3

    def test_miss(self):
        assert find_time([1.0, 2.0], 1.5, 0.1) is None
        assert find_time([], 1.0, 1.0) is None
        assert find_time([Fraction(1, 3)], Fraction(1, 3), Fraction(0)) == 0


class TestTolerance:
    def test_float_default_is_share_of_largest_magnitude(self):
        assert tolerance("time_tol", None, False, (1.0, -3.0, 2.0)) == \
            DEFAULT_TOLERANCES["time_tol"] * 3.0
        assert tolerance("amp_zero_tol", None, False, (0.5, -0.25)) == \
            DEFAULT_TOLERANCES["amp_zero_tol"] * 0.5
        assert tolerance("cluster_tol", None, False) == 1e-6
        assert tolerance("time_tol", None, False, ()) == 0.0

    def test_rational_default_is_exact_zero(self):
        tol = tolerance("time_tol", None, True, (Fraction(3),))
        assert tol == 0 and isinstance(tol, Fraction)

    def test_explicit_value_passes_through(self):
        assert tolerance("time_tol", 1e-3, False, (1.0,)) == 1e-3
        assert tolerance("time_tol", Fraction(0), True) == 0

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_value_rejected(self, bad):
        with pytest.raises(ValidationError, match="amp_zero_tol"):
            tolerance("amp_zero_tol", bad, False, (1.0,))

    def test_rational_nonzero_rejected(self):
        with pytest.raises(ValidationError, match="cluster_tol.*rational"):
            tolerance("cluster_tol", Fraction(1, 10), True)


class TestFromPhysical:
    def test_uniform_medium_zero_reflectivity(self):
        p = PhysicalProfile((0.0, 1.0, 2.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        m = from_physical(p)
        assert m.refl == (0.0, 0.0)
        assert m.tau == (2.0, 2.0)

    def test_matched_upper_medium(self):
        # densities (1, 1, 4), unit moduli: contrast only at the deep interface
        p = PhysicalProfile((-1.0, 0.0, 1.0), (1.0, 1.0, 4.0), (1.0, 1.0, 1.0))
        m = from_physical(p)
        assert m.refl[0] == 0.0
        assert m.refl[1] == (1.0 - 2.0) / (1.0 + 2.0)
        assert m.tau == (2.0, 2.0)

    def test_impedance_scale_invariance(self):
        p1 = PhysicalProfile((0.0, 1.0, 3.0), (1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
        p2 = PhysicalProfile((0.0, 1.0, 3.0), (2.0, 4.0, 6.0),
                             (8.0, 10.0, 12.0))
        assert from_physical(p1).refl == from_physical(p2).refl

    def test_reflectivity_always_in_bounds(self):
        p = PhysicalProfile((0.0, 0.5, 1.0, 2.0), (1e-3, 1e3, 1.0, 2.0),
                            (10.0, 1e-2, 5.0, 1e4))
        m = from_physical(p)
        assert all(-1 < r < 1 for r in m.refl)

    def test_bad_profile(self):
        with pytest.raises(ValidationError):
            PhysicalProfile((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValidationError):
            PhysicalProfile((0.0, 1.0), (1.0, -1.0), (1.0, 1.0))


class TestNormalize:
    def test_sort_only(self):
        d = normalize([(2.0, 0.5), (1.0, 0.3)])
        assert d.sigma == (1.0, 2.0) and d.alpha == (0.3, 0.5)

    def test_exact_cancellation_empties(self):
        d = normalize([(1.0, 0.5), (1.0, -0.5)])
        assert len(d) == 0

    def test_two_layer_cancellation_terms(self):
        # terms of the classic equal-time cancellation at R_1 = 1/sqrt(2)
        r0 = 0.5
        terms = [(1.0, r0),
                 (1.5, R2 * (1 - r0 * r0)),
                 (2.0, -r0 * R2 * R2 * (1 - r0 * r0)),
                 (2.0, r0 * (1 - r0 * r0) * (1 - R2 * R2))]
        d = normalize(terms)
        assert d.sigma == (1.0, 1.5)
        assert d.alpha[0] == r0
        assert abs(d.alpha[1] - 0.75 / 2 ** 0.5) < 1e-15

    def test_cluster_representative_is_min(self):
        d = normalize([(1.0 + 5e-10, 1.0), (1.0, 1.0)], time_tol=1e-9)
        assert d.sigma == (1.0,) and d.alpha == (2.0,)

    def test_cluster_span_guard(self):
        terms = [(1.0 + i * 9e-10, 1.0) for i in range(25)]
        with pytest.raises(ValidationError, match="span"):
            normalize(terms, time_tol=1e-9)

    @pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf")])
    def test_bad_time_tol_rejected(self, tol):
        with pytest.raises(ValidationError, match="time_tol"):
            normalize([(1.0, 1.0), (2.0, 1.0)], time_tol=tol)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_amp_zero_tol_rejected(self, tol):
        with pytest.raises(ValidationError, match="amp_zero_tol"):
            normalize([(1.0, 1.0), (2.0, 1e-30)], amp_zero_tol=tol)

    def test_rational_requires_zero_tols(self):
        with pytest.raises(ValidationError):
            normalize([(Fraction(1), Fraction(1))], time_tol=Fraction(1, 10))

    def test_rational_exact_merge(self):
        d = normalize([(Fraction(1, 3), Fraction(1, 4)),
                       (Fraction(2, 6), Fraction(1, 4))])
        assert d.sigma == (Fraction(1, 3),) and d.alpha == (Fraction(1, 2),)

    @given(st.lists(st.tuples(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=-10.0, max_value=10.0)), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, terms):
        once = normalize(terms)
        again = normalize(list(zip(once.sigma, once.alpha)))
        assert once == again

    @given(st.lists(st.tuples(
        st.fractions(min_value=Fraction(1, 10), max_value=10,
                     max_denominator=20),
        st.fractions(min_value=-5, max_value=5, max_denominator=20)),
        max_size=10),
        st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, terms, rng):
        shuffled = list(terms)
        rng.shuffle(shuffled)
        assert normalize(terms) == normalize(shuffled)


class TestJson:
    def test_model_round_trip_float(self):
        m = validate_model((1.0, 0.5), (0.5, -0.7))
        assert model_from_dict(model_to_dict(m)) == m

    def test_model_round_trip_rational(self):
        m = validate_model((Fraction(1, 3), Fraction(2, 7)),
                           (Fraction(-1, 2), Fraction(7, 10)))
        obj = model_to_dict(m)
        assert obj["tau"] == ["1/3", "2/7"]
        assert model_from_dict(obj) == m

    def test_rational_past_int_str_digit_limit(self):
        # int <-> str refuses more than 4300 digits by default
        big = 7 ** 6000  # 5071 digits
        m = validate_model((Fraction(1), Fraction(1, 2)),
                           (Fraction(-big, big + 1), Fraction(1, 3)))
        obj = model_to_dict(m)
        assert len(obj["R"][0]) > 10_000
        assert model_from_dict(obj) == m

    def test_rational_literal_must_be_integers(self):
        # Decimal alone would truncate the first three and overflow on the last
        for text in ("1.5", "1e5", "1/2.0", "Infinity"):
            with pytest.raises(ValidationError, match="bad rational literal"):
                model_from_dict({"tau": [text], "R": ["0"]})

    @pytest.mark.parametrize("rational", [None, True])
    def test_fields_must_be_arrays(self, rational):
        for obj in ({"tau": 5, "R": [0.1]}, {"tau": [1.0], "R": "0.1"}):
            with pytest.raises(ValidationError, match="array"):
                model_from_dict(obj, rational)
        with pytest.raises(ValidationError, match="array"):
            data_from_dict({"sigma": {"a": 1}, "alpha": [1.0]}, rational)

    def test_scalar_text(self):
        for x in (Fraction(3), Fraction(-1, 3), Fraction(0), 0.5, -2.0):
            assert scalar_text(x) == str(x)
        big = 3 ** 9500  # past the 4300-digit int -> str limit
        assert scalar_text(Fraction(-1, big)) == f"-1/{Decimal(big)}"
        assert scalar_text(Fraction(big)) == str(Decimal(big))

    def test_data_round_trip(self):
        d = validate_data((1.0, 2.0), (0.5, -0.25))
        assert data_from_dict(data_to_dict(d)) == d
        dr = validate_data((Fraction(1), Fraction(2)),
                           (Fraction(1, 2), Fraction(-1, 4)))
        assert data_from_dict(data_to_dict(dr)) == dr

    def test_bad_payloads(self):
        with pytest.raises(ValidationError):
            model_from_dict({"tau": [1.0]})
        with pytest.raises(ValidationError):
            model_from_dict({"tau": ["1/0"], "R": ["0/1"]})
        with pytest.raises(ValidationError):
            data_from_dict({"sigma": [True], "alpha": [1.0]})
