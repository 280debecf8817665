"""Lattice enumeration against a brute-force oracle, plus helpers."""

import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerwave import (GuardExceededError, ValidationError, branch_box,
                       enumerate_lattice_set, enumerate_restricted,
                       is_transit_count, left_shift, primary_vector,
                       project_onto_tau)
from layerwave.lattice import (ENV_MAX_TERMS, max_terms_guard,
                               write_lattice_csv)

from conftest import brute_lattice


class TestEnumerateLatticeSet:
    def test_two_far_layers(self):
        ls = enumerate_lattice_set((1.0, 10.0), 11.0)
        assert ls.ks == ((1, 0), (1, 1))

    def test_bound_growth(self):
        assert enumerate_lattice_set((1.0, 0.5), 1.5).ks == ((1, 0), (1, 1))
        assert enumerate_lattice_set((1.0, 0.5), 2.0).ks == \
            ((1, 0), (1, 1), (1, 2))

    def test_constant_times(self):
        ls = enumerate_lattice_set((1.0, 1.0, 1.0), 3.0)
        assert set(ls.ks) == {(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 1, 1)}

    def test_matches_brute_force(self):
        for tau, bound in [
            ((Fraction(1), Fraction(1, 2)), Fraction(3)),
            ((Fraction(2, 3), Fraction(1, 5), Fraction(1, 2)), Fraction(2)),
            ((Fraction(1), Fraction(1), Fraction(1), Fraction(1)), Fraction(4)),
            ((Fraction(3, 7), Fraction(5, 3), Fraction(9, 11)), Fraction(4)),
        ]:
            ls = enumerate_lattice_set(tau, bound)
            assert list(ls.ks) == brute_lattice(tau, bound)

    def test_default_bound_contains_all_primaries(self):
        tau = (0.3, 1.7, 0.9, 0.4)
        ls = enumerate_lattice_set(tau)
        for n in range(4):
            assert primary_vector(n, 3) in set(ls.ks)

    def test_membership_and_times(self):
        tau = (0.7, 0.3, 1.1)
        ls = enumerate_lattice_set(tau)
        for k, t in zip(ls.ks, ls.times):
            assert is_transit_count(k)
            expect = k[0] * tau[0]
            for kn, tn in zip(k[1:], tau[1:]):
                expect = expect + kn * tn
            assert t == expect

    def test_lexicographic_order(self):
        ls = enumerate_lattice_set((0.4, 0.3, 0.2, 0.9))
        assert list(ls.ks) == sorted(ls.ks)

    def test_empty_below_first_arrival(self):
        assert len(enumerate_lattice_set((1.0, 1.0), 0.5)) == 0

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            enumerate_lattice_set((1.0, 0.01), 2.0, max_terms=5)

    def test_nonpositive_tau(self):
        with pytest.raises(ValidationError):
            enumerate_lattice_set((1.0, 0.0), 2.0)

    @given(st.lists(st.fractions(min_value=Fraction(1, 5), max_value=2,
                                 max_denominator=8),
                    min_size=2, max_size=4),
           st.fractions(min_value=Fraction(1, 2), max_value=3,
                        max_denominator=8))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_bound(self, tau, extra):
        tau = tuple(tau)
        small = enumerate_lattice_set(tau)
        big = enumerate_lattice_set(tau, sum(tau) + extra, max_terms=200_000)
        assert set(small.ks) <= set(big.ks)

    @given(st.integers(min_value=-3, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_scale_invariance_power_of_two(self, exp):
        # power-of-two scaling is exact in floats
        c = 2.0 ** exp
        tau = (0.75, 0.5, 1.25)
        base = enumerate_lattice_set(tau, 2.5)
        scaled = enumerate_lattice_set(tuple(c * t for t in tau), c * 2.5)
        assert base.ks == scaled.ks

    def test_scale_invariance_rational(self):
        tau = (Fraction(2, 3), Fraction(1, 7), Fraction(5, 4))
        c = Fraction(9, 5)
        base = enumerate_lattice_set(tau, Fraction(3))
        scaled = enumerate_lattice_set(tuple(c * t for t in tau), 3 * c)
        assert base.ks == scaled.ks


class TestArguments:
    @pytest.mark.parametrize("bound", [float("nan"), float("inf")])
    def test_nonfinite_bound_rejected(self, bound):
        with pytest.raises(ValidationError, match="not finite"):
            enumerate_lattice_set((1.0, 0.5), bound)
        with pytest.raises(ValidationError, match="not finite"):
            enumerate_restricted((1.0, 0.5), 1, bound)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "5"])
    def test_bad_max_terms_rejected(self, bad):
        with pytest.raises(ValidationError, match="max_terms"):
            enumerate_lattice_set((1.0, 0.5), max_terms=bad)

    @pytest.mark.parametrize("text", ["abc", "0", "-3", "2.5"])
    def test_bad_env_guard_rejected(self, monkeypatch, text):
        monkeypatch.setenv(ENV_MAX_TERMS, text)
        with pytest.raises(ValidationError, match=ENV_MAX_TERMS):
            max_terms_guard()

    def test_env_guard(self, monkeypatch):
        monkeypatch.setenv(ENV_MAX_TERMS, "2")
        assert max_terms_guard() == 2
        assert max_terms_guard(7) == 7
        with pytest.raises(GuardExceededError, match="exceeded 2 terms"):
            enumerate_lattice_set((1.0, 0.5), 3.0)


class TestEnumerateRestricted:
    def test_single_layer_multiples(self):
        ls = enumerate_restricted((1.0, 0.5), 1, 3.0)
        assert ls.ks == ((1, 1), (1, 2), (1, 3), (1, 4))

    def test_empty_when_bound_too_small(self):
        assert len(enumerate_restricted((1.0,), 0, 0.5)) == 0

    def test_two_layer_bound(self):
        # brute derivation: only (1,1,1) at 1.9 and (1,1,2) at 2.2 fit 2.2
        tau = (Fraction(1), Fraction(3, 5), Fraction(3, 10))
        ls = enumerate_restricted(tau, 2, Fraction(11, 5))
        assert ls.ks == ((1, 1, 1), (1, 1, 2))
        expect = [k for k in brute_lattice(tau, Fraction(11, 5))
                  if k[2] >= 1]
        assert list(ls.ks) == expect

    def test_all_entries_positive(self):
        ls = enumerate_restricted((0.5, 0.4, 0.3), 2, 4.0)
        assert all(min(k) >= 1 for k in ls.ks)

    def test_prefix_length_checked(self):
        with pytest.raises(ValidationError):
            enumerate_restricted((1.0, 0.5), 2, 3.0)


class TestVectorHelpers:
    def test_primary_vectors(self):
        assert primary_vector(0, 3) == (1, 0, 0, 0)
        assert primary_vector(3, 3) == (1, 1, 1, 1)
        assert primary_vector(1, 2) == (1, 1, 0)
        with pytest.raises(ValidationError):
            primary_vector(4, 3)

    def test_left_shift(self):
        assert left_shift((1, 2, 1)) == (2, 1, 0)
        assert left_shift((1, 0, 0)) == (0, 0, 0)
        assert left_shift((1, 1, 1, 1)) == (1, 1, 1, 0)

    def test_membership_predicate(self):
        assert is_transit_count((1, 2, 1))
        assert not is_transit_count((2, 1))
        assert not is_transit_count((1, 0, 1))
        assert not is_transit_count((1, -1, 0))

    def test_branch_box(self):
        assert branch_box((1, 1, 0)) == ((1, 0, 0), (1, 0, 0))
        assert branch_box((1, 2, 0)) == ((1, 0, 0), (1, 0, 0))
        u, hi = branch_box((1, 2, 2, 0))
        assert (u, hi) == ((1, 1, 0, 0), (1, 2, 0, 0))
        size = 1
        for lo, h in zip(u, hi):
            size *= h - lo + 1
        assert size == 2
        with pytest.raises(ValidationError):
            branch_box((2, 1))


class TestProjection:
    def test_singleton(self):
        ls = enumerate_lattice_set((1.0, 1.0), 1.0)
        ((k, value),) = project_onto_tau(ls)
        assert k == (1, 0)
        assert abs(value - 1 / math.sqrt(2)) < 1e-15

    def test_primaries(self):
        ls = enumerate_lattice_set((1.0, 1.0), 2.0)
        values = dict(project_onto_tau(ls))
        assert abs(values[(1, 0)] - 1 / math.sqrt(2)) < 1e-15
        assert abs(values[(1, 1)] - math.sqrt(2)) < 1e-15

    def test_scale_invariant(self):
        tau = (0.8, 1.3, 0.5)
        ls = enumerate_lattice_set(tau)
        base = project_onto_tau(ls)
        scaled = project_onto_tau(ls, tuple(4.0 * t for t in tau))
        for (k1, v1), (k2, v2) in zip(base, scaled):
            assert k1 == k2
            assert abs(v2 - v1) <= 1e-12 * abs(v1)

    def test_rational_set_projects_to_floats(self):
        ls = enumerate_lattice_set((Fraction(1), Fraction(1)), Fraction(2))
        for _, value in project_onto_tau(ls):
            assert isinstance(value, float)


class TestCsv:
    def test_round_trippable_rows(self):
        ls = enumerate_lattice_set((1.0, 0.5), 2.0)
        buf = io.StringIO()
        write_lattice_csv(ls, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "k0,k1,time"
        assert len(lines) == 1 + len(ls)
        cells = lines[1].split(",")
        assert (int(cells[0]), int(cells[1])) == ls.ks[0]
        assert float(cells[2]) == ls.times[0]
