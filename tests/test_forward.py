"""Forward map, enumeration matrix, genericity, ill-posed constructions."""

from fractions import Fraction

import pytest

from layerwave import (AlgorithmError, ValidationError, amplitude_eval,
                       enumeration_matrix, forward, ill_posed_pair,
                       is_generic, j_matrix, k_matrix, validate_model)
from layerwave.forward import dot

from conftest import float_twin, rational_model

R2 = 2 ** 0.5 / 2
PELL = Fraction(408, 577)  # rational approximation of 1/sqrt(2)


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


class TestForwardExamples:
    def test_one_layer(self):
        m = validate_model((Fraction(1), Fraction(1, 2)),
                           (Fraction(1, 2), Fraction(7, 10)))
        data, em = forward(m)
        assert data.sigma == (Fraction(1), Fraction(3, 2))
        assert data.alpha == (Fraction(1, 2), Fraction(21, 40))
        assert em.d == 2 and em.is_bijective()

    def test_one_layer_float(self):
        data, _ = forward(validate_model((1.0, 0.5), (0.5, 0.7)))
        assert data.sigma == (1.0, 1.5)
        assert data.alpha[0] == 0.5
        assert abs(data.alpha[1] - 0.525) < 1e-15

    def test_equal_time_cancellation(self):
        m = validate_model((1.0, 0.5, 0.5), (0.5, R2, 0.5))
        data, em = forward(m)
        assert data.sigma == (1.0, 1.5)
        assert abs(data.alpha[1] - 0.75 / 2 ** 0.5) < 1e-15
        assert sorted(k for k, v in em.psi.items() if v == 0) == \
            [(1, 1, 1), (1, 2, 0)]

    def test_extended_window(self):
        m = validate_model((Fraction(1), Fraction(3, 5)),
                           (Fraction(1, 2), Fraction(7, 10)))
        data, em = forward(m, t_max=Fraction(23, 10))
        assert data.sigma == (Fraction(1), Fraction(8, 5), Fraction(11, 5))
        assert data.alpha == (Fraction(1, 2), Fraction(21, 40),
                              -Fraction(147, 800))
        assert enumeration_matrix(em) == [[1, 1, 1], [0, 1, 2]]

    def test_empty_response_rejected(self):
        # a coarse zero threshold swallows the whole response
        with pytest.raises(AlgorithmError):
            forward(validate_model((1.0, 1.0), (0.1, 0.1)), amp_zero_tol=1.0)


class TestForwardArguments:
    @pytest.mark.parametrize("fn", [forward, is_generic])
    @pytest.mark.parametrize("name", ["time_tol", "amp_zero_tol"])
    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_bad_tolerance_rejected(self, fn, name, bad):
        m = float_twin(rational_model(3, 31))
        with pytest.raises(ValidationError, match=name):
            fn(m, **{name: bad})

    @pytest.mark.parametrize("fn, name", [(forward, "time_tol"),
                                          (is_generic, "time_tol"),
                                          (is_generic, "amp_zero_tol")])
    def test_rational_nonzero_tolerance_rejected(self, fn, name):
        with pytest.raises(ValidationError, match=f"{name}.*rational"):
            fn(rational_model(3, 31), **{name: Fraction(1, 1000)})

    @pytest.mark.parametrize("fn", [forward, is_generic])
    @pytest.mark.parametrize("t_max", [float("nan"), float("inf")])
    def test_nonfinite_t_max_rejected(self, fn, t_max):
        with pytest.raises(ValidationError, match="not finite"):
            fn(float_twin(rational_model(3, 31)), t_max=t_max)


class TestEnumerationInvariants:
    def test_sigma_equals_tau_times_matrix(self):
        m = rational_model(4, 101)
        data, em = forward(m)
        mat = enumeration_matrix(em)
        cols = list(zip(*mat))
        assert len(cols) == len(data)
        for col, s in zip(cols, data.sigma):
            assert dot(m.tau, col) == s

    def test_amplitudes_match_fibers(self):
        m = rational_model(3, 55)
        data, em = forward(m)
        fibers = em.fibers()
        for n, a in enumerate(data.alpha, start=1):
            (k,) = fibers[n]
            assert amplitude_eval(m.refl, k) == a

    def test_data_size_equals_lattice_size_when_generic(self):
        m = rational_model(3, 77)
        assert is_generic(m).generic
        data, em = forward(m)
        assert len(data) == len(em.lattice)

    def test_first_two_arrivals(self):
        for seed in (1, 2, 3):
            m = rational_model(4, seed * 991)
            data, _ = forward(m)
            assert data.sigma[0] == m.tau[0]
            assert data.alpha[0] == m.refl[0]
            assert data.sigma[1] == m.tau[0] + m.tau[1]
            assert data.alpha[1] == m.refl[1] * (1 - m.refl[0] ** 2)

    def test_psi_monotone_in_time(self):
        m = rational_model(3, 4242)
        _, em = forward(m)
        times = {k: t for k, t in zip(em.lattice.ks, em.lattice.times)}
        pairs = [(k1, k2) for k1 in em.lattice.ks for k2 in em.lattice.ks
                 if em.psi[k1] and em.psi[k2]]
        for k1, k2 in pairs:
            if em.psi[k1] < em.psi[k2]:
                assert times[k1] < times[k2]

    def test_local_constancy_under_margin_safe_nudge(self):
        m = rational_model(3, 31)
        report = is_generic(m)
        _, em = forward(m)
        nudge = report.margin / 100
        tau2 = (m.tau[0] + nudge,) + m.tau[1:]
        m2 = validate_model(tau2, m.refl)
        _, em2 = forward(m2)
        assert em.lattice.ks == em2.lattice.ks
        assert em.psi == em2.psi
        assert enumeration_matrix(em) == enumeration_matrix(em2)

    def test_non_bijective_matrix_rejected(self):
        m = validate_model((1.0, 0.5, 0.5), (0.5, R2, 0.5))
        _, em = forward(m)
        with pytest.raises(AlgorithmError):
            enumeration_matrix(em)


class TestPrimaryMatrices:
    def test_small_shapes(self):
        assert k_matrix(1) == [[1, 1], [0, 1]]
        assert j_matrix(1) == [[1, -1], [0, 1]]

    def test_inverse_pair(self):
        for layers in (1, 2, 5, 20):
            prod = matmul(k_matrix(layers), j_matrix(layers))
            identity = [[1 if i == j else 0 for j in range(layers + 1)]
                        for i in range(layers + 1)]
            assert prod == identity

    def test_primary_columns_form_k_matrix(self):
        m = rational_model(3, 88)
        data, em = forward(m)
        mat = enumeration_matrix(em)
        partial = m.tau[0]
        partials = [partial]
        for t in m.tau[1:]:
            partial = partial + t
            partials.append(partial)
        positions = [data.sigma.index(p) for p in partials]
        sub = [[mat[row][j] for j in positions] for row in range(4)]
        assert sub == k_matrix(3)


class TestIsGeneric:
    def test_constant_times_collide(self):
        report = is_generic(validate_model((1.0, 1.0, 1.0), (0.3, 0.4, 0.5)))
        assert not report.time_injective
        assert ((1, 1, 1), (1, 2, 0)) in report.colliding_pairs
        assert not report.generic

    def test_cancelling_model_reports_zeros(self):
        report = is_generic(validate_model((1.0, 0.5, 0.5), (0.5, R2, 0.5)))
        assert not report.time_injective
        assert ((1, 1, 1), (1, 2, 0)) in report.colliding_pairs
        assert set(report.zero_amplitudes) == {(1, 1, 1), (1, 2, 0)}

    def test_random_model_all_clear(self):
        m = rational_model(4, 606)
        report = is_generic(m)
        assert report.generic
        assert report.margin > 0
        assert report.colliding_pairs == ()
        assert report.zero_amplitudes == ()

    def test_margin_is_minimum_gap(self):
        m = validate_model((Fraction(1), Fraction(1, 4)),
                           (Fraction(1, 2), Fraction(1, 2)))
        report = is_generic(m)
        # times 1, 5/4, 6/4, 7/4, 2: uniform gaps of 1/4
        assert report.margin == Fraction(1, 4)


class TestIllPosedPair:
    def test_pell_approximation_recovers_first_reflectivity(self):
        base, ext = ill_posed_pair(Fraction(1), 1, (Fraction(3, 10), PELL))
        assert ext.refl[2] == Fraction(3, 10) * PELL ** 2 / (1 - PELL ** 2)

    def test_float_near_recovery(self):
        base, ext = ill_posed_pair(1.0, 1, (0.3, R2))
        assert abs(ext.refl[2] - 0.3) < 1e-14

    def test_worked_value(self):
        base, ext = ill_posed_pair(Fraction(1), 1,
                                   (Fraction(3, 10), Fraction(2, 5)))
        assert ext.refl[2] == Fraction(2, 35)
        assert abs(float(ext.refl[2]) - 0.0571428) < 1e-6

    def test_pair_produces_identical_data(self):
        base, ext = ill_posed_pair(Fraction(1), 2,
                                   (Fraction(1, 4), Fraction(-1, 3),
                                    Fraction(2, 5)))
        assert forward(base)[0] == forward(ext)[0]

    def test_zero_induced_value_rejected(self):
        with pytest.raises(AlgorithmError):
            ill_posed_pair(Fraction(1), 1, (Fraction(0), Fraction(1, 3)))

    def test_out_of_range_rejected(self):
        # large reflectivities push the cancelling coefficient past 1
        with pytest.raises(AlgorithmError):
            ill_posed_pair(Fraction(1), 1,
                           (Fraction(99, 100), Fraction(999, 1000)))


class TestModeTwins:
    def test_float_twin_matches_rational_closely(self):
        m = rational_model(3, 909)
        data_r, _ = forward(m)
        data_f, _ = forward(float_twin(m))
        assert len(data_r) == len(data_f)
        for sr, sf in zip(data_r.sigma, data_f.sigma):
            assert abs(float(sr) - sf) < 1e-12
        for ar, af in zip(data_r.alpha, data_f.alpha):
            assert abs(float(ar) - af) < 1e-12 * max(1.0, abs(af))


class TestInjectivity:
    def test_distinct_generic_models_have_distinct_data(self):
        models = [rational_model(3, 7000 + i) for i in range(6)]
        blobs = [forward(m)[0] for m in models]
        for i in range(len(models)):
            for j in range(i + 1, len(models)):
                assert blobs[i] != blobs[j]
