"""Amplitude polynomials: term expansion, evaluation, identities."""

import io
import random
from fractions import Fraction

import pytest

from layerwave import (ValidationError, amplitude_eval, amplitude_terms,
                       enumerate_lattice_set, redundancy_ratio_check)
from layerwave.amplitude import eval_batch, write_terms_csv

from conftest import float_twin, random_fractions, rational_model

R2 = 2 ** 0.5 / 2


def all_vectors(layers, max_total):
    """Every transit count vector of the given width with |k| <= max_total."""
    ls = enumerate_lattice_set((Fraction(1),) * (layers + 1),
                               Fraction(max_total))
    return list(ls.ks)


class TestTerms:
    def test_shallowest_bounce(self):
        (term,) = amplitude_terms((1, 0))
        assert term.coeff == 1
        assert term.x_exponents == (1, 0)
        assert term.q_exponents == (0, 0)

    def test_primary_closed_form(self):
        for layers, n in [(3, 1), (3, 3), (4, 2)]:
            k = (1,) * (n + 1) + (0,) * (layers - n)
            (term,) = amplitude_terms(k)
            assert term.coeff == 1
            assert term.x_exponents == tuple(
                1 if i == n else 0 for i in range(layers + 1))
            assert term.q_exponents == tuple(
                1 if i < n else 0 for i in range(layers + 1))

    def test_double_bounce_sign(self):
        (term,) = amplitude_terms((1, 2, 0))
        assert term.coeff == -1
        assert term.x_exponents == (1, 2, 0)
        assert term.q_exponents == (1, 0, 0)

    def test_degree_and_shape_invariants(self):
        for k in all_vectors(3, 7):
            total = sum(k)
            for term in amplitude_terms(k):
                assert term.coeff != 0
                assert term.q_exponents[-1] == 0
                degree = sum(term.x_exponents) + 2 * sum(term.q_exponents)
                assert degree == 2 * total - 1


class TestEval:
    def test_primary_value_float(self):
        x = (0.5, R2, 0.5)
        value = amplitude_eval(x, (1, 1, 1))
        assert abs(value - 0.1875) < 1e-15

    def test_primary_value_rational(self):
        x = (Fraction(1, 2), Fraction(7, 10), Fraction(1, 2))
        assert amplitude_eval(x, (1, 1, 1)) == \
            Fraction(1, 2) * Fraction(3, 4) * Fraction(51, 100)

    def test_double_bounce_value(self):
        x = (0.5, R2, 0.5)
        value = amplitude_eval(x, (1, 2, 0))
        assert abs(value - (-0.1875)) < 1e-15
        # the two families cancel at x_1 = 1/sqrt(2)
        total = value + amplitude_eval(x, (1, 1, 1))
        assert abs(total) < 1e-15

    def test_zero_point(self):
        for k in [(1, 0), (1, 2, 1), (1, 1, 1, 1)]:
            assert amplitude_eval((0.0,) * len(k), k) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            amplitude_eval((0.5,), (1, 1))


def term_sum(x, k):
    """a(x, k) summed term by term from the symbolic expansion."""
    total = Fraction(0)
    for term in amplitude_terms(k):
        value = Fraction(term.coeff)
        for xn, e, q in zip(x, term.x_exponents, term.q_exponents):
            value *= xn ** e * (1 - xn * xn) ** q
        total += value
    return total


class TestProductForm:
    def test_equals_term_expansion(self):
        rng = random.Random(15)
        for layers in range(4):
            for k in all_vectors(layers, 8):
                for trial in range(3):
                    x = random_fractions(len(k), rng.randrange(10 ** 9))
                    assert amplitude_eval(x, k) == term_sum(x, k)

    def test_float_batch_near_exact(self):
        m = rational_model(8, 16)
        ls = enumerate_lattice_set(m.tau)
        exact = eval_batch(m.refl, ls.ks)
        approx = eval_batch(float_twin(m).refl, ls.ks)
        assert len(exact) > 100
        for a, e in zip(approx, exact):
            assert abs(a - e) <= 1e-13 * abs(e)

    def test_rejects_inadmissible_vector(self):
        with pytest.raises(ValidationError):
            amplitude_eval((0.5, 0.5, 0.5), (1, 0, 1))


class TestPolynomialIdentities:
    def test_odd_under_negation(self):
        rng = random.Random(11)
        for k in all_vectors(3, 6):
            for trial in range(20):
                x = random_fractions(len(k), rng.randrange(10 ** 9))
                assert amplitude_eval([-v for v in x], k) == \
                    -amplitude_eval(x, k)

    def test_zero_padding_invariance(self):
        rng = random.Random(12)
        for k in all_vectors(2, 6):
            padded = k + (0, 0)
            for trial in range(20):
                x = random_fractions(len(k), rng.randrange(10 ** 9))
                extra = random_fractions(2, rng.randrange(10 ** 9))
                assert amplitude_eval(x, k) == \
                    amplitude_eval(x + extra, padded)

    def test_primary_product_formula(self):
        rng = random.Random(13)
        layers = 4
        for n in range(layers + 1):
            k = (1,) * (n + 1) + (0,) * (layers - n)
            for trial in range(20):
                x = random_fractions(layers + 1, rng.randrange(10 ** 9))
                expect = x[n]
                for j in range(n):
                    expect *= 1 - x[j] * x[j]
                assert amplitude_eval(x, k) == expect

    def test_redundancy_ratio_identity(self):
        rng = random.Random(14)
        cases = [((1, 1, 1, 0), 1), ((1, 1, 1, 1), 2), ((1, 1, 1, 2, 0), 1)]
        for k, n in cases:
            partner = redundancy_ratio_check(k, n)
            assert partner is not None
            for trial in range(20):
                x = random_fractions(len(k), rng.randrange(10 ** 9))
                lhs = amplitude_eval(x, partner)
                rhs = -2 * x[n - 1] * x[n] * amplitude_eval(x, k)
                assert lhs == rhs


class TestRedundancyCheck:
    def test_examples(self):
        assert redundancy_ratio_check((1, 1, 1, 0), 1) == (1, 2, 1, 0)
        assert redundancy_ratio_check((1, 2, 1, 0), 1) is None
        assert redundancy_ratio_check((1, 1, 1, 1), 2) == (1, 1, 2, 1)

    def test_index_range(self):
        with pytest.raises(ValidationError):
            redundancy_ratio_check((1, 1, 1), 0)
        with pytest.raises(ValidationError):
            redundancy_ratio_check((1, 1, 1), 2)


class TestCsv:
    def test_term_dump(self):
        buf = io.StringIO()
        write_terms_csv((1, 2, 0), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "coeff,x0,x1,x2,q0,q1,q2"
        assert lines[1] == "-1,1,2,0,1,0,0"
