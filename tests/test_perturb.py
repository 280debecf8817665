"""Perturbation fixtures stay in normal form and compose with inversion."""

import math
from fractions import Fraction

import pytest

from layerwave import (AlgorithmError, ValidationError, add_spurious,
                       decimate, forward, invert, random_spurious,
                       shift_times, sine_distort, validate_data)

from conftest import float_twin, rational_model


class TestDecimate:
    def test_zero_threshold_is_identity(self):
        d = validate_data((1.0, 2.0), (0.5, -0.25))
        assert decimate(d, 0.0) == d

    def test_drops_small_terms(self):
        d = validate_data((1.0, 2.0, 3.0), (0.5, 1e-5, 0.3))
        out = decimate(d, 1e-4)
        assert out.sigma == (1.0, 3.0) and out.alpha == (0.5, 0.3)

    def test_idempotent(self):
        d = validate_data((1.0, 2.0, 3.0), (0.5, 1e-5, 0.3))
        once = decimate(d, 1e-4)
        assert decimate(once, 1e-4) == once

    def test_empty_result_rejected(self):
        with pytest.raises(AlgorithmError):
            decimate(validate_data((1.0,), (1e-9,)), 1.0)


class TestAddSpurious:
    def test_empty_is_identity(self):
        d = validate_data((1.0, 2.0), (0.5, 0.25))
        assert add_spurious(d, []) == d

    def test_insertion_keeps_order(self):
        d = validate_data((1.0, 2.0), (0.5, 0.25))
        out = add_spurious(d, [(1.5, -0.1)])
        assert out.sigma == (1.0, 1.5, 2.0)
        assert out.alpha == (0.5, -0.1, 0.25)

    def test_collision_rejected(self):
        d = validate_data((1.0, 2.0), (0.5, 0.25))
        with pytest.raises(ValidationError):
            add_spurious(d, [(1.0 + 1e-12, 0.1)], guard_tol=1e-9)

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_bad_guard_tol_rejected(self, bad):
        d = validate_data((1.0, 2.0), (0.5, 0.25))
        with pytest.raises(ValidationError, match="guard_tol"):
            add_spurious(d, [(1.5, 0.1)], guard_tol=bad)

    def test_rational_guard_tol_may_be_nonzero(self):
        d = validate_data((Fraction(1), Fraction(2)),
                          (Fraction(1, 2), Fraction(1, 4)))
        with pytest.raises(ValidationError, match="collides"):
            add_spurious(d, [(Fraction(21, 20), Fraction(1, 10))],
                         guard_tol=Fraction(1, 10))

    def test_random_spurious_deterministic_and_separated(self):
        m = float_twin(rational_model(3, 777))
        data, _ = forward(m)
        a = random_spurious(data, 5, seed=42, guard_tol=1e-3)
        b = random_spurious(data, 5, seed=42, guard_tol=1e-3)
        assert a == b
        merged = add_spurious(data, a, guard_tol=1e-3)
        assert len(merged) == len(data) + 5


class TestSineDistort:
    def test_zero_amplitude_is_identity(self):
        d = validate_data((1.0, 2.0), (0.5, 0.25))
        assert sine_distort(d, 0.0, (0.5, 3.0)) == d

    def test_peak_adds_amplitude(self):
        d = validate_data((2.0, 5.0), (0.5, 0.25))
        out = sine_distort(d, 0.125, (1.0, 3.0), omega=0.0,
                           phase=math.pi / 2)
        assert out.alpha == (0.625, 0.25)

    def test_exact_zero_crossing_drops_term(self):
        d = validate_data((2.0, 5.0), (0.5, 0.25))
        out = sine_distort(d, -0.5, (1.0, 3.0), omega=0.0, phase=math.pi / 2)
        assert out.sigma == (5.0,)

    def test_rational_mode_stays_exact(self):
        m = rational_model(2, 555)
        data, _ = forward(m)
        out = sine_distort(data, Fraction(1, 5),
                           (data.sigma[0], data.sigma[-1]))
        assert out.rational
        back = sine_distort(out, Fraction(0), (0, 1))
        assert back == out

    def test_window_validated(self):
        d = validate_data((1.0,), (0.5,))
        with pytest.raises(ValidationError):
            sine_distort(d, 0.1, (3.0, 1.0))


class TestShift:
    def test_identity_at_zero(self):
        d = validate_data((1.0, 2.0), (0.5, 0.25))
        assert shift_times(d, 0.0) == d

    def test_shift_all(self):
        d = validate_data((1.0, 2.0), (0.5, 0.25))
        assert shift_times(d, 1.0).sigma == (2.0, 3.0)

    def test_nonpositive_first_arrival_rejected(self):
        d = validate_data((1.0, 2.0), (0.5, 0.25))
        with pytest.raises(ValidationError):
            shift_times(d, -1.0)

    def test_round_trip_with_inversion(self):
        m = rational_model(3, 404)
        data, _ = forward(m)
        kappa = Fraction(5, 9)
        got = invert(shift_times(data, kappa)).model
        assert got.tau == (m.tau[0] + kappa,) + m.tau[1:]
        assert got.refl == m.refl


class TestPerturbSpec:
    def test_pipeline_order(self):
        from layerwave import PerturbSpec
        m = float_twin(rational_model(3, 777))
        data, _ = forward(m)
        spec_direct = shift_times(
            add_spurious(decimate(data, 1e-6), [(data.sigma[0] + 1e-4, 0.2)]),
            0.5)
        bundled = PerturbSpec(decimate_threshold=1e-6,
                              spurious=[(data.sigma[0] + 1e-4, 0.2)],
                              shift=0.5).apply(data)
        assert bundled == spec_direct

    def test_random_spurious_via_count_seed(self):
        from layerwave import PerturbSpec
        m = float_twin(rational_model(3, 778))
        data, _ = forward(m)
        points = random_spurious(data, 4, 9, guard_tol=1e-4)
        out = PerturbSpec(spurious=points).apply(data)
        assert len(out) == len(data) + 4

    def test_tuple_of_points(self):
        from layerwave import PerturbSpec
        d = validate_data((1.0, 2.0), (0.5, 0.25))
        points = ((1.25, 0.1), (1.5, -0.1))
        assert PerturbSpec(spurious=points).apply(d) == \
            add_spurious(d, list(points))
