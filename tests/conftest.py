"""Shared fixture generators and independent brute-force oracles."""

import itertools
import random
from fractions import Fraction

from layerwave import Model, forward, invert, validate_data


def brute_lattice(tau, bound):
    """Independent enumerator: bounded product scan + membership filter.

    Deliberately naive (no pruning, no shared code with the package) so it
    can stand as an oracle for the production search on small instances.
    """
    maxima = [max(int(bound / t) + 1, 1) for t in tau]
    out = []
    for k in itertools.product(*(range(0, m + 1) for m in maxima)):
        if k[0] != 1:
            continue
        if any(b > 0 and a == 0 for a, b in zip(k, k[1:])):
            continue
        if sum(kn * tn for kn, tn in zip(k, tau)) <= bound:
            out.append(k)
    return sorted(out)


def rational_model(layers, seed, tau_range=(0.1, 2.0), refl_range=(0.05, 0.8),
                   denom=1000):
    """Seeded rational model on limited denominators (test fixture family)."""
    rng = random.Random(seed)
    tau = [Fraction(rng.uniform(*tau_range)).limit_denominator(denom)
           for _ in range(layers + 1)]
    refl = [Fraction(rng.uniform(*refl_range) * rng.choice((-1, 1)))
            .limit_denominator(denom) for _ in range(layers + 1)]
    return Model(tuple(tau), tuple(refl))


def stage_two_failure_data():
    """Rational data whose third primary amplitude is tripled: Stage II
    computes R[2] outside (-1, 1)."""
    data, _ = forward(rational_model(6, 1, tau_range=(0.3, 2.0)))
    alpha = list(data.alpha)
    alpha[invert(data).primary_indices[2]] *= 3
    return validate_data(data.sigma, alpha)


def stage_three_failure_data():
    """Rational data missing arrival 10, which leaves no redundancy pair
    for index 2 observable; inversion still succeeds."""
    data, _ = forward(rational_model(6, 3, tau_range=(0.3, 2.0)))
    keep = [j for j in range(len(data)) if j != 10]
    return validate_data([data.sigma[j] for j in keep],
                         [data.alpha[j] for j in keep])


def float_twin(model):
    return Model(tuple(float(t) for t in model.tau),
                 tuple(float(r) for r in model.refl))


def random_fractions(count, seed, lo=-0.9, hi=0.9, denom=50, nonzero=False):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        v = Fraction(rng.uniform(lo, hi)).limit_denominator(denom)
        if nonzero and v == 0:
            continue
        out.append(v)
    return out
