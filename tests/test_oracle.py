"""Path enumeration ground truth: weights, transit/branch counts, counts."""

import math
from fractions import Fraction

import pytest

from layerwave import (ValidationError, amplitude_eval, branch_box,
                       count_sequences_by, enumerate_lattice_set,
                       enumerate_sequences, forward, oracle_response,
                       oracle_terms, stats, validate_model, weight_eval)

from conftest import float_twin, rational_model


class TestEnumerateSequences:
    def test_time_window_growth(self):
        assert enumerate_sequences(1, (1.0, 1.0), 1.0) == [(-1, 0, -1)]
        assert enumerate_sequences(1, (1.0, 1.0), 2.0) == \
            [(-1, 0, -1), (-1, 0, 1, 0, -1)]
        assert enumerate_sequences(1, (1.0, 1.0), 3.0) == \
            [(-1, 0, -1), (-1, 0, 1, 0, -1), (-1, 0, 1, 0, 1, 0, -1)]

    def test_empty_window(self):
        assert enumerate_sequences(1, (1.0, 1.0), 0.5) == []

    def test_validation(self):
        with pytest.raises(ValidationError):
            enumerate_sequences(1, (1.0,), 2.0)
        with pytest.raises(ValidationError):
            enumerate_sequences(1, (1.0, 0.0), 2.0)

    @pytest.mark.parametrize("t_max", [float("nan"), float("inf")])
    def test_nonfinite_t_max_rejected(self, t_max):
        with pytest.raises(ValidationError, match="not finite"):
            enumerate_sequences(1, (1.0, 1.0), t_max)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_bad_max_sequences_rejected(self, bad):
        with pytest.raises(ValidationError, match="max_sequences"):
            oracle_response(validate_model((1.0, 0.5), (0.5, 0.7)),
                            max_sequences=bad)


class TestStats:
    def test_shallow_bounce(self):
        st = stats((-1, 0, -1), 1)
        assert st.kappa == (1, 0)
        assert st.beta == (0, 0)
        assert st.refl_exp == (1, 0)
        assert st.neg_refl_exp == (0, 0)
        assert st.t2_exp == (0, 0)

    def test_primary_of_depth_one(self):
        st = stats((-1, 0, 1, 0, -1), 1)
        assert st.kappa == (1, 1)
        assert st.beta == (1, 0)
        assert weight_eval(st, (Fraction(1, 2), Fraction(7, 10))) == \
            Fraction(3, 4) * Fraction(7, 10)

    def test_double_bounce(self):
        st = stats((-1, 0, 1, 0, 1, 0, -1), 1)
        assert st.kappa == (1, 2)
        assert st.beta == (1, 0)
        value = weight_eval(st, (0.5, 0.7))
        assert abs(value - (-0.5 * 0.49 * 0.75)) < 1e-15

    def test_path_validation(self):
        with pytest.raises(ValidationError):
            stats((-1, 0), 1)
        with pytest.raises(ValidationError):
            stats((-1, 0, 2, 0, -1), 2)
        with pytest.raises(ValidationError):
            stats((-1, 0, -1, 0, -1), 1)

    def test_branch_counts_live_in_box(self):
        for p in enumerate_sequences(2, (1.0, 0.5, 0.4), 3.5):
            st = stats(p, 2)
            u, hi = branch_box(st.kappa)
            assert all(a <= b <= c for a, b, c in zip(u, st.beta, hi))


class TestPerVectorIdentity:
    def test_weight_sums_match_polynomials(self):
        m = rational_model(2, 321)
        _, sums = oracle_terms(m)
        for k, total in sums.items():
            assert total == amplitude_eval(m.refl, k)

    def test_every_branch_vector_realized(self):
        tau = (1.0, 1.0, 1.0)
        t_max = 7.0
        seen = {}
        for p in enumerate_sequences(2, tau, t_max):
            st = stats(p, 2)
            seen.setdefault(st.kappa, set()).add(st.beta)
        for k in [(1, 1, 1), (1, 2, 1), (1, 2, 2), (1, 3, 2)]:
            u, hi = branch_box(k)
            expect = set()
            def grow(prefix, idx):
                if idx == len(k):
                    expect.add(tuple(prefix))
                    return
                for v in range(u[idx], hi[idx] + 1):
                    grow(prefix + [v], idx + 1)
            grow([], 0)
            assert seen[k] == expect


class TestCounts:
    def test_known_counts(self):
        assert count_sequences_by((1, 1, 0), (1, 0, 0)) == 1
        # (1,2,0) admits exactly one walk: down, bounce, bounce, back up
        assert count_sequences_by((1, 2, 0), (1, 0, 0)) == 1
        assert count_sequences_by((1, 2, 2, 0), (1, 1, 0, 0)) == 2
        assert count_sequences_by((1, 2, 2, 0), (1, 2, 0, 0)) == 1
        for n, layers in [(1, 3), (2, 2), (3, 3)]:
            k = (1,) * (n + 1) + (0,) * (layers - n)
            u, _ = branch_box(k)
            assert count_sequences_by(k, u) == 1

    def test_formula_on_small_vectors(self):
        ls = enumerate_lattice_set((Fraction(1),) * 3, Fraction(6))
        for k in ls.ks:
            u, hi = branch_box(k)
            kt = tuple(k[1:]) + (0,)
            total = 0
            def boxes(prefix, idx):
                nonlocal total
                if idx == len(k):
                    b = tuple(prefix)
                    formula = 1
                    for kn, bn in zip(k, b):
                        formula *= math.comb(kn, bn)
                    for ktn, un, bn in zip(kt, u, b):
                        formula *= math.comb(ktn - un, bn - un)
                    assert count_sequences_by(k, b) == formula
                    total += formula
                    return
                for v in range(u[idx], hi[idx] + 1):
                    boxes(prefix + [v], idx + 1)
            boxes([], 0)


class TestOracleResponse:
    def test_matches_forward_one_layer(self):
        m = validate_model((1.0, 0.5), (0.5, 0.7))
        assert oracle_response(m) == forward(m)[0]

    def test_cancellation_model(self):
        m = validate_model((1.0, 0.5, 0.5), (0.5, 2 ** 0.5 / 2, 0.5))
        data = oracle_response(m)
        assert data.sigma == (1.0, 1.5)
        assert len(data) == 2

    def test_single_reflector(self):
        m = validate_model((Fraction(1), Fraction(1, 2), Fraction(1, 3)),
                           (Fraction(2, 5), Fraction(0), Fraction(0)))
        data = oracle_response(m)
        assert data.sigma == (Fraction(1),)
        assert data.alpha == (Fraction(2, 5),)

    def test_matches_forward_random_rational_and_float(self):
        for seed in (52, 63, 74):
            m = rational_model(3, seed)
            data, _ = forward(m)
            assert oracle_response(m) == data
            mf = float_twin(m)
            data_f, _ = forward(mf)
            oracle_f = oracle_response(mf)
            assert len(oracle_f) == len(data_f)
            assert oracle_f.sigma == data_f.sigma
            for a, b in zip(oracle_f.alpha, data_f.alpha):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
