"""Transit-count-vector enumeration and integer-lattice helpers.

A transit count vector ``k = (k_0, ..., k_M)`` records how many times a
wave path crosses each layer on its way down and back.  Admissible vectors
have ``k_0 = 1`` and support equal to an initial segment of the indices
(a deeper layer cannot be crossed without crossing the one above it).  The
arrival time of every path sharing ``k`` is the inner product <k, tau>.

Enumeration is a depth-first search over coordinates: travel times are
positive, so the partial inner product is monotone in each coordinate and
every branch can be pruned exactly.  Vectors are produced in lexicographic
order.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

from .core import Scalar, coerce_vector, dot, left_sum, scalar_text
from .errors import GuardExceededError, ValidationError

TransitCount = tuple[int, ...]

DEFAULT_MAX_TERMS = 10_000_000
ENV_MAX_TERMS = "LAYERWAVE_MAX_TERMS"


def max_terms_guard(override: int | None = None,
                    name: str = "max_terms") -> int:
    """Resolve the enumeration guard: explicit value, else env, else 1e7;
    :class:`ValidationError` naming the source unless a positive int."""
    source, value = name, override
    if value is None:
        source, value = ENV_MAX_TERMS, os.environ.get(ENV_MAX_TERMS)
        if not value:
            return DEFAULT_MAX_TERMS
        value = int(value) if value.strip().isdecimal() else value
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(
            f"{source} = {value!r} must be a positive integer")
    return value


def is_transit_count(k: Sequence[int]) -> bool:
    """Membership test: k_0 = 1, nonnegative, support an initial segment."""
    if not k or k[0] != 1:
        return False
    for prev, cur in zip(k, k[1:]):
        if cur < 0 or (cur > 0 and prev == 0):
            return False
    return True


def primary_vector(n: int, layers: int) -> TransitCount:
    """The vector of n+1 ones padded with zeros: the shortest path to
    interface n."""
    if not 0 <= n <= layers:
        raise ValidationError(f"primary index {n} outside 0..{layers}")
    return (1,) * (n + 1) + (0,) * (layers - n)


def left_shift(k: Sequence[int]) -> tuple[int, ...]:
    """(k_1, ..., k_M, 0)."""
    return tuple(k[1:]) + (0,)


def branch_box(k: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Entrywise bounds (u, hi) of the branch-count box attached to ``k``.

    ``u = min(1, shift)`` and ``hi = min(k, shift)``; the box [u, hi] indexes
    the distinct branching patterns of paths sharing ``k`` and is never
    empty for an admissible vector.
    """
    if not is_transit_count(k):
        raise ValidationError(f"{k} is not a transit count vector")
    shift = left_shift(k)
    u = tuple(min(1, s) for s in shift)
    hi = tuple(min(a, s) for a, s in zip(k, shift))
    return u, hi


@dataclass(frozen=True)
class LatticeSet:
    """All admissible vectors with arrival time at most ``bound``.

    ``ks`` is lexicographically sorted; ``times[i]`` is <ks[i], tau>,
    accumulated coordinate by coordinate (the exact float produced by that
    order of operations, or the exact Fraction in rational mode).
    """

    ks: tuple[TransitCount, ...]
    times: tuple[Scalar, ...]
    tau: tuple[Scalar, ...]
    bound: Scalar

    def __len__(self) -> int:
        return len(self.ks)

    def __iter__(self):
        return iter(self.ks)


def _time_bound(bound: Scalar, rational: bool) -> Scalar:
    """An enumeration's time bound: finite, in the scalar mode of its tau."""
    if rational and not isinstance(bound, (Fraction, int)):
        raise ValidationError("bound must be rational in rational mode")
    if not abs(bound) < math.inf:
        raise ValidationError(f"time bound {bound} is not finite")
    return bound if rational else float(bound)


def _enumerate(tau: tuple[Scalar, ...], bound: Scalar, min_count: int,
               max_terms: int) -> LatticeSet:
    """Depth-first search from k_0 = 1, entries past it from ``min_count``."""
    if any(not t > 0 for t in tau):
        raise ValidationError("travel times must be positive")
    width = len(tau)
    ks: list[TransitCount] = []
    times: list[Scalar] = []
    k = [0] * width
    k[0] = 1

    def emit(vec: TransitCount, t: Scalar):
        if len(ks) >= max_terms:
            raise GuardExceededError(
                f"lattice enumeration exceeded {max_terms} terms")
        ks.append(vec)
        times.append(t)

    def descend(n: int, t: Scalar):
        if n == width:
            emit(tuple(k), t)
            return
        if k[n - 1] == 0:
            emit(tuple(k[:n]) + (0,) * (width - n), t)
            return
        c = min_count
        while True:
            tt = t + c * tau[n]
            if tt > bound:
                break
            k[n] = c
            descend(n + 1, tt)
            c += 1
        k[n] = 0

    t0 = 1 * tau[0]
    if t0 <= bound:
        descend(1, t0)
    return LatticeSet(tuple(ks), tuple(times), tau, bound)


def enumerate_lattice_set(tau: Iterable, bound: Scalar | None = None,
                          max_terms: int | None = None,
                          rational: bool | None = None) -> LatticeSet:
    """All transit count vectors with <k, tau> <= bound.

    ``bound`` defaults to the total travel time |tau|, in which case the
    set contains every primary vector.  Raises
    :class:`GuardExceededError` past ``max_terms`` (default 1e7, or the
    LAYERWAVE_MAX_TERMS environment variable).
    """
    tau_t, rat = coerce_vector(tau, rational, "tau")
    bound = left_sum(tau_t) if bound is None else _time_bound(bound, rat)
    return _enumerate(tau_t, bound, 0, max_terms_guard(max_terms))


def enumerate_restricted(tau_prefix: Iterable, n: int, s: Scalar,
                         max_terms: int | None = None,
                         rational: bool | None = None) -> LatticeSet:
    """Vectors over interfaces 0..n whose last entry is >= 1, time-bounded.

    These are the candidates that a hypothesis "layer n exists with the
    given travel-time prefix" must explain in the data; requiring the last
    entry positive forces every entry positive.
    """
    tau_t, rat = coerce_vector(tau_prefix, rational, "tau_prefix")
    if len(tau_t) != n + 1:
        raise ValidationError(
            f"prefix has {len(tau_t)} entries, expected n+1 = {n + 1}")
    return _enumerate(tau_t, _time_bound(s, rat), 1,
                      max_terms_guard(max_terms))


def project_onto_tau(ls: LatticeSet, tau: Iterable | None = None
                     ) -> list[tuple[TransitCount, float]]:
    """Scaled projections <k, tau>/|tau| of the set onto the tau direction.

    Diagnostic output for plotting the arrival-time pattern as a projection
    of lattice points onto a line; always float-valued (the Euclidean norm
    has no exact rational form).
    """
    tau_v = tuple(float(t) for t in (ls.tau if tau is None else tuple(tau)))
    if len(tau_v) != len(ls.tau):
        raise ValidationError("tau dimension mismatch")
    norm = math.sqrt(left_sum(t * t for t in tau_v))
    return [(k, dot(tau_v, k) / norm) for k in ls.ks]


def write_lattice_csv(ls: LatticeSet, fp: TextIO) -> None:
    """One row per vector: entries k_0..k_M, then the arrival time."""
    writer = csv.writer(fp)
    writer.writerow([f"k{i}" for i in range(len(ls.tau))] + ["time"])
    for k, t in zip(ls.ks, ls.times):
        writer.writerow(list(k) + [scalar_text(t)])
