"""Inversion: exact round trips, robustness, amplitude correction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerwave import (AlgorithmError, GuardExceededError, InverseOptions,
                       ValidationError, add_spurious, consensus,
                       correct_reflectivity, enumerate_lattice_set, forward,
                       invert, redundancy_pairs, sine_distort, validate_data,
                       validate_model)

from conftest import (float_twin, rational_model, stage_three_failure_data,
                      stage_two_failure_data)


class TestInvertExamples:
    def test_one_layer(self):
        data = validate_data((Fraction(1), Fraction(3, 2)),
                             (Fraction(1, 2), Fraction(21, 40)))
        report = invert(data)
        assert report.model.tau == (Fraction(1), Fraction(1, 2))
        assert report.model.refl == (Fraction(1, 2), Fraction(7, 10))
        assert report.primary_indices == (0, 1)

    def test_extended_window_consumes_multiple(self):
        data = validate_data(
            (Fraction(1), Fraction(8, 5), Fraction(11, 5)),
            (Fraction(1, 2), Fraction(21, 40), -Fraction(147, 800)))
        report = invert(data)
        assert report.model.tau == (Fraction(1), Fraction(3, 5))
        assert report.model.refl == (Fraction(1, 2), Fraction(7, 10))
        # the third arrival is explained as the double bounce, not a layer
        assert report.matched[2] == (1, 2)

    def test_float_tolerances(self):
        data = validate_data((1.0, 1.5), (0.5, 0.525))
        report = invert(data)
        assert abs(report.model.tau[1] - 0.5) < 1e-12
        assert abs(report.model.refl[1] - 0.7) < 1e-12

    def test_needs_two_arrivals(self):
        with pytest.raises(ValidationError):
            invert(validate_data((1.0,), (0.5,)))

    def test_rational_requires_zero_tol(self):
        data = validate_data((Fraction(1), Fraction(2)),
                             (Fraction(1, 2), Fraction(1, 4)))
        with pytest.raises(ValidationError):
            invert(data, InverseOptions(time_tol=Fraction(1, 100)))

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_time_tol_is_validation_error(self, tol):
        data = validate_data((1.0, 1.5), (0.5, 0.525))
        with pytest.raises(ValidationError, match="time_tol"):
            invert(data, InverseOptions(time_tol=tol))

    def test_out_of_range_reflectivity(self):
        with pytest.raises(AlgorithmError):
            invert(validate_data((1.0, 2.0), (1.5, 0.3)))

    def test_stage_two_reflectivity_out_of_range(self):
        with pytest.raises(AlgorithmError, match=r"R\[2\].*outside \(-1, 1\)"):
            invert(stage_two_failure_data())

    def test_layer_guard(self):
        # arrival times with no multiple structure spawn layer after layer
        data = validate_data((1.0, 2.0, 2.9, 3.75), (0.4, 0.3, 0.2, 0.1))
        with pytest.raises(GuardExceededError):
            invert(data, InverseOptions(max_layers=2))


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [5, 17, 29, 41])
    @pytest.mark.parametrize("layers", [1, 2, 4, 6])
    def test_rational_bit_exact(self, layers, seed):
        m = rational_model(layers, seed * 1000 + layers)
        data, _ = forward(m)
        report = invert(data)
        assert report.model == m
        assert report.rejected_arrivals == ()

    def test_float_close(self):
        m = float_twin(rational_model(5, 321))
        data, _ = forward(m)
        got = invert(data).model
        for a, b in zip(got.tau, m.tau):
            assert abs(a - b) <= 1e-9 * abs(b)
        for a, b in zip(got.refl, m.refl):
            assert abs(a - b) <= 1e-9

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_rational_round_trip_property(self, seed):
        m = rational_model(1 + seed % 3, seed, denom=60)
        from layerwave import is_generic
        if not is_generic(m).generic:
            return
        data, _ = forward(m)
        assert invert(data).model == m


class TestStageDecoupling:
    def test_times_ignore_amplitudes(self):
        m = rational_model(4, 2718)
        data, _ = forward(m)
        scaled = validate_data(data.sigma,
                               tuple(a * Fraction(1, 3) for a in data.alpha))
        assert invert(scaled).model.tau == m.tau

    def test_shift_covariance(self):
        m = rational_model(3, 1414)
        data, _ = forward(m)
        kappa = Fraction(3, 7)
        shifted = validate_data(tuple(s + kappa for s in data.sigma),
                                data.alpha)
        got = invert(shifted).model
        assert got.tau == (m.tau[0] + kappa,) + m.tau[1:]
        assert got.refl == m.refl

    def test_partial_data_recovery(self):
        m = rational_model(4, 5151)
        data, em = forward(m)
        partial = Fraction(0)
        primaries = set()
        for n, t in enumerate(m.tau):
            partial += t
            primaries.add(partial)
        keep = [j for j in range(len(data))
                if data.sigma[j] in primaries or j % 2 == 0]
        sub = validate_data([data.sigma[j] for j in keep],
                            [data.alpha[j] for j in keep])
        assert invert(sub).model == m


class TestRobustMode:
    def test_clean_data_identical(self):
        # rich response: every layer has observable corroborating multiples
        m = rational_model(3, 8000)
        data, _ = forward(m)
        plain = invert(data)
        robust = invert(data, InverseOptions(robust=True))
        assert plain.model == robust.model
        assert robust.rejected_arrivals == ()

    def test_single_spurious_point_rejected(self):
        m = float_twin(rational_model(4, 9000))
        data, _ = forward(m)
        fake_t = (data.sigma[2] + data.sigma[3]) / 2
        noisy = add_spurious(data, [(fake_t, 0.31)], guard_tol=1e-6)
        report = invert(noisy, InverseOptions(robust=True))
        assert report.model.layers == 4
        assert len(report.rejected_arrivals) == 1
        assert abs(report.rejected_arrivals[0][0] - fake_t) < 1e-12
        for a, b in zip(report.model.refl, m.refl):
            assert abs(a - b) <= 1e-9


class TestConsensus:
    def test_majority(self):
        assert consensus([0.2, 0.2, 0.2, 0.9], 1e-9) == \
            pytest.approx(0.2, abs=1e-15)

    def test_singleton(self):
        assert consensus([0.2], 1e-9) == 0.2

    def test_tie_breaks_to_smaller_mean(self):
        assert consensus([0.1, 0.1, 0.3, 0.3], 1e-9) == \
            pytest.approx(0.1, abs=1e-15)

    def test_tie_breaks_on_variance_first(self):
        values = [Fraction(1, 10), Fraction(1, 10),
                  Fraction(3, 10), Fraction(301, 1000)]
        # cluster at ~0.3 has spread, cluster at 0.1 none: pick 0.1 even
        # though its mean is smaller anyway; widen tol so both have size 2
        assert consensus(values, Fraction(1, 100)) == Fraction(1, 10)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            consensus([], 0.0)

    def test_chained_vote_does_not_move_result(self):
        # 0.3 + 8e-7 joins the cluster of equal votes within tolerance; the
        # cluster's mean would drift by 8e-8, its median stays exact
        assert consensus([0.3] * 9 + [0.3 + 8e-7], 1e-6) == 0.3


class TestRedundancyPairs:
    def test_pair_present(self):
        ls = enumerate_lattice_set((Fraction(1),) * 5, Fraction(6))
        pairs = redundancy_pairs(ls, 1)
        assert ((1, 1, 1, 0, 0), (1, 2, 1, 0, 0)) in pairs

    def test_partner_must_be_observable(self):
        ls = enumerate_lattice_set((Fraction(1),) * 5, Fraction(5))
        # bound 5 excludes (1,2,1,0,0) (arrival 4 fits; (1,2,1,1,1) etc. don't)
        pairs = redundancy_pairs(ls, 1)
        for k, partner in pairs:
            assert partner in set(ls.ks)

    def test_index_range(self):
        ls = enumerate_lattice_set((Fraction(1),) * 5, Fraction(5))
        with pytest.raises(ValidationError):
            redundancy_pairs(ls, 0)
        with pytest.raises(ValidationError):
            redundancy_pairs(ls, 2)


class TestCorrection:
    def test_identity_on_clean_data(self):
        m = rational_model(6, 112)
        data, _ = forward(m)
        report = invert(data)
        corrected, sets = correct_reflectivity(report, data)
        assert corrected == m.refl
        for n, ratios in sets.ratios.items():
            for value in ratios:
                assert value == m.refl[n - 1] * m.refl[n]

    def test_small_models_fall_back(self):
        m = rational_model(3, 113)
        data, _ = forward(m)
        report = invert(data)
        corrected, sets = correct_reflectivity(report, data)
        assert corrected == report.model.refl
        assert sets.ratios == {}

    def test_float_votes_from_merged_arrivals(self):
        # float 14-layer model whose Stage III vote clusters chain in votes
        # from arrivals that forward merged within time_tol (two amplitudes
        # summed); the cluster mean put R[6], R[8] and R[11..14] off
        tau = (1.1064046695840797, 1.2417156790609676, 1.8056845877443006,
               1.9546014333827406, 0.9544624005264549, 1.1961680342864494,
               1.9503271407139746, 1.8015417057995773, 1.0855380616096626,
               1.1666090724420257, 0.9421097425873978, 0.8683347730037608,
               1.6421188998123843, 1.3744944684319926, 1.1607001070807683)
        refl = (-0.4376787149136976, -0.13953169087103634,
                -0.28498653485455727, -0.12411885700827753,
                -0.18874439643682484, 0.09883768372457367,
                0.6756353249095169, 0.1263492567403497, 0.6215992487084248,
                0.3617571893789929, 0.2666526649022403, 0.48360140870077634,
                0.5581905647006262, -0.265369272009071, 0.3344552644041291)
        data, _ = forward(validate_model(tau, refl))
        corrected, _ = correct_reflectivity(invert(data), data)
        for got, want in zip(corrected, refl):
            assert abs(got - want) <= 1e-9

    @pytest.mark.parametrize("name", ["cluster_tol", "time_tol"])
    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_bad_tolerance_rejected(self, name, bad):
        data, _ = forward(float_twin(rational_model(6, 112)))
        with pytest.raises(ValidationError, match=name):
            correct_reflectivity(invert(data), data, **{name: bad})

    @pytest.mark.parametrize("name", ["cluster_tol", "time_tol"])
    def test_rational_nonzero_tolerance_rejected(self, name):
        data, _ = forward(rational_model(6, 112))
        with pytest.raises(ValidationError, match=f"{name}.*rational"):
            correct_reflectivity(invert(data), data,
                                 **{name: Fraction(1, 10 ** 6)})

    def test_unobservable_redundancy_pair(self):
        data = stage_three_failure_data()
        with pytest.raises(AlgorithmError,
                           match="no redundancy pairs observable for index 2"):
            correct_reflectivity(invert(data), data)

    def test_minority_distortion_outvoted(self):
        m = rational_model(6, 114)
        data, _ = forward(m)
        report = invert(data)
        _, clean_sets = correct_reflectivity(report, data)
        # distort one non-primary arrival inside a narrow window
        partial = m.tau[0] + m.tau[1]
        window = (partial + Fraction(1, 1000), partial + Fraction(2, 5))
        noisy = sine_distort(data, Fraction(1, 5), window)
        noisy_report = invert(noisy)
        corrected, _ = correct_reflectivity(noisy_report, noisy)
        assert corrected == m.refl
