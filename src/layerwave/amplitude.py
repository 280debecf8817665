"""Closed-form amplitude polynomials of transit count vectors.

Every family of wave paths sharing a transit count vector ``k`` contributes
a single polynomial amplitude ``a(x, k)`` in the reflection coefficients
x_0..x_M.  The polynomial is a sum over the branch-count box V(k) (see
:func:`layerwave.lattice.branch_box`): with ``kt`` the left shift of ``k``
and ``u = min(1, kt)``,

    a(x, k) = sum over b in V(k) of
              C(k, b) * C(kt - u, b - u) * (-x)^(kt - b) * x^(k - b) * y^(2b)

where C is the entrywise product of binomial coefficients and
y_n^2 = 1 - x_n^2.  The squared-transmission factors y only ever occur
through y^2, so evaluation needs no square roots and is exact on rational
input.  Each term has total degree 2|k| - 1, counting y-degree doubly, and
integer coefficients (kept exact here by Python integers; no overflow is
possible).

The box is a Cartesian product and every part of the summand is a product
over coordinates, so the sum factors: a(x, k) = prod_n f_n(k_n, k_{n+1})
with the one-dimensional sums

    f_n(k_n, k_{n+1}) = sum over b = u_n .. min(k_n, k_{n+1}) of
              C(k_n, b) * C(k_{n+1} - u_n, b - u_n) * (-1)^(k_{n+1} - b)
              * x_n^(k_n + k_{n+1} - 2b) * (1 - x_n^2)^b.

Evaluation uses the product; :func:`amplitude_terms` keeps the expansion.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Sequence, TextIO

from .core import Scalar
from .errors import ValidationError
from .lattice import TransitCount, branch_box, is_transit_count, left_shift


@dataclass(frozen=True)
class AmplitudeTerm:
    """One monomial: coeff * prod x_n^x_exponents[n] * (1-x_n^2)^q_exponents[n]."""

    coeff: int
    x_exponents: tuple[int, ...]
    q_exponents: tuple[int, ...]


def amplitude_terms(k: Sequence[int]) -> list[AmplitudeTerm]:
    """Expand a(x, k) into its terms, one per branch-count vector.

    Terms are ordered lexicographically in the branch-count vector b; the
    box is never empty, and no coefficient vanishes.
    """
    u, hi = branch_box(k)
    kt = left_shift(k)
    terms = []
    for b in itertools.product(*(range(lo, h + 1) for lo, h in zip(u, hi))):
        coeff = 1
        for kn, bn in zip(k, b):
            coeff *= math.comb(kn, bn)
        parity = 0
        for ktn, un, bn in zip(kt, u, b):
            coeff *= math.comb(ktn - un, bn - un)
            parity += ktn - bn
        if parity & 1:
            coeff = -coeff
        x_exp = tuple((ktn - bn) + (kn - bn) for kn, ktn, bn in zip(k, kt, b))
        terms.append(AmplitudeTerm(coeff, x_exp, b))
    return terms


def _factor(xn: Scalar, kn: int, kn1: int, one: Scalar) -> Scalar:
    """f_n(k_n, k_{n+1}): the coordinate-n sum over the branch count b."""
    u = min(1, kn1)
    qn = one - xn * xn
    xpow = [one]
    for _ in range(kn + kn1):
        xpow.append(xpow[-1] * xn)
    qb = qn if u else one
    total = 0 * one
    for b in range(u, min(kn, kn1) + 1):
        coeff = math.comb(kn, b) * math.comb(kn1 - u, b - u)
        if (kn1 - b) & 1:
            coeff = -coeff
        total = total + coeff * xpow[kn + kn1 - 2 * b] * qb
        qb = qb * qn
    return total


def eval_batch(x: Sequence[Scalar], ks: Sequence[TransitCount]) -> list[Scalar]:
    """Evaluate a(x, k) for every vector of ``ks``; exact when x is rational.

    The vectors must be admissible and as wide as ``x`` (the callers'
    lattice sets are).  Each factor f_n(k_n, k_{n+1}) is tabulated once per
    pair that occurs, and an amplitude is the left-to-right product of its
    factors up to the first zero entry, past which every factor is 1.
    """
    one = 1.0 if isinstance(x[0], float) else 1
    tables: list[dict[tuple[int, int], Scalar]] = [{} for _ in x]
    out = []
    for k in ks:
        value = one
        for n, pair in enumerate(zip(k, k[1:] + (0,))):
            if not pair[0]:
                break
            table = tables[n]
            f = table.get(pair)
            if f is None:
                f = table[pair] = _factor(x[n], pair[0], pair[1], one)
            value = value * f
        out.append(value)
    return out


def amplitude_eval(x: Sequence[Scalar], k: Sequence[int]) -> Scalar:
    """Evaluate a(x, k) for one admissible vector; exact when x is rational."""
    if len(x) != len(k):
        raise ValidationError(
            f"x has {len(x)} entries but k has {len(k)}")
    if not is_transit_count(k):
        raise ValidationError(f"{k} is not a transit count vector")
    return eval_batch(x, [tuple(k)])[0]


def redundancy_ratio_check(k: Sequence[int], n: int) -> TransitCount | None:
    """Partner vector k + e_n when k has three consecutive ones at n-1, n, n+1.

    For such pairs the amplitude polynomials are proportional:
    a(x, k') / a(x, k) = -2 * x_{n-1} * x_n identically.  Returns None when
    the pattern does not hold.
    """
    if not is_transit_count(k):
        raise ValidationError(f"{k} is not a transit count vector")
    layers = len(k) - 1
    if not 1 <= n <= layers - 1:
        raise ValidationError(f"index {n} outside 1..{layers - 1}")
    if k[n - 1] == 1 and k[n] == 1 and k[n + 1] == 1:
        return tuple(v + 1 if i == n else v for i, v in enumerate(k))
    return None


def write_terms_csv(k: Sequence[int], fp: TextIO) -> None:
    """Symbolic dump: coefficient, x exponents, q = (1-x^2) exponents."""
    width = len(k)
    writer = csv.writer(fp)
    writer.writerow(["coeff"] + [f"x{i}" for i in range(width)]
                    + [f"q{i}" for i in range(width)])
    for term in amplitude_terms(k):
        writer.writerow([term.coeff] + list(term.x_exponents)
                        + list(term.q_exponents))
