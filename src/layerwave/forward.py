"""Exact forward map: data from model, enumeration map, genericity.

The finite-time impulse response of a model ``(tau, refl)`` is assembled
in four steps: enumerate every transit count vector whose arrival time
<k, tau> fits the time window, evaluate the amplitude polynomial of each,
merge coincident arrivals, and drop cancelled ones.  The bookkeeping of
which vector landed at which data index -- the enumeration map -- is the
combinatorial invariant that makes the inverse problem decouple, so the
full assignment (including vectors that cancelled away) is returned
alongside the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .amplitude import amplitude_eval, eval_batch
from .core import (Data, Model, Scalar, cluster_sorted, cluster_sums, dot,
                   left_sum, tolerance, total_travel_time, validate_model)
from .errors import AlgorithmError, ValidationError
from .lattice import LatticeSet, TransitCount, enumerate_lattice_set

GENERIC_MARGIN_FACTOR = 10  # margin must clear this many time tolerances


@dataclass(frozen=True)
class EnumerationMap:
    """Assignment of lattice vectors to data indices by arrival order.

    ``psi[k]`` is the 1-based index of the data term that k's arrival
    contributes to, or 0 if the merged amplitude at its arrival time
    cancelled to zero.  ``amplitudes[i]`` is the individual polynomial
    value of ``lattice.ks[i]``.
    """

    lattice: LatticeSet
    amplitudes: tuple[Scalar, ...]
    psi: dict[TransitCount, int]
    d: int

    def fibers(self) -> dict[int, list[TransitCount]]:
        """Inverse image of each data index (0 collects the cancelled)."""
        out: dict[int, list[TransitCount]] = {}
        for k in self.lattice.ks:
            out.setdefault(self.psi[k], []).append(k)
        return out

    def is_bijective(self) -> bool:
        values = sorted(self.psi.values())
        return values == list(range(1, self.d + 1))


def forward(model: Model, t_max: Scalar | None = None,
            time_tol: Scalar | None = None,
            amp_zero_tol: Scalar | None = None,
            max_terms: int | None = None) -> tuple[Data, EnumerationMap]:
    """Compute the normal-form data of a model, with its enumeration map.

    ``t_max`` defaults to the total travel time; larger values extend the
    response past the deepest primary (the enumeration map is then no
    longer the canonical invariant of the model, but the data is still
    exact).  ``time_tol`` and ``amp_zero_tol`` act and resolve as in
    :func:`normalize`.  Deterministic: ties in arrival time are ordered
    by vector.
    """
    if t_max is None:
        t_max = total_travel_time(model)
    ls = enumerate_lattice_set(model.tau, t_max, max_terms=max_terms,
                               rational=model.rational)
    amps = eval_batch(model.refl, ls.ks)
    time_tol = tolerance("time_tol", time_tol, model.rational, ls.times)
    amp_zero_tol = tolerance("amp_zero_tol", amp_zero_tol, model.rational,
                             amps)

    order = sorted(range(len(ls.ks)), key=lambda i: (ls.times[i], ls.ks[i]))
    stimes = [ls.times[i] for i in order]
    sigma: list[Scalar] = []
    alpha: list[Scalar] = []
    psi: dict[TransitCount, int] = {}
    ranges = cluster_sorted(stimes, time_tol)
    for (lo, hi), total in zip(ranges, cluster_sums(amps, order, ranges)):
        if abs(total) <= amp_zero_tol:
            index = 0
        else:
            sigma.append(stimes[lo])
            alpha.append(total)
            index = len(sigma)
        for i in order[lo:hi]:
            psi[ls.ks[i]] = index

    if not sigma:
        raise AlgorithmError(
            "response is empty: every arrival cancelled (reflectivity is "
            "degenerate)")
    data = Data(tuple(sigma), tuple(alpha))
    return data, EnumerationMap(ls, tuple(amps), psi, len(sigma))


def enumeration_matrix(em: EnumerationMap) -> list[list[int]]:
    """Integer matrix whose n-th column is the vector mapped to index n.

    Only defined when the map is a bijection (generic model).  The columns
    at the primary positions always form the unit upper-triangular matrix
    of ones, so the matrix has full row rank, and row-vector
    multiplication of tau by the matrix reproduces the arrival times --
    verified here before returning.
    """
    if not em.is_bijective():
        raise AlgorithmError(
            "enumeration map is not a bijection (non-generic model)")
    width = len(em.lattice.tau)
    by_index = {em.psi[k]: k for k in em.lattice.ks}
    cols = [by_index[n] for n in range(1, em.d + 1)]
    times = {k: t for k, t in zip(em.lattice.ks, em.lattice.times)}
    for k in cols:
        if dot(em.lattice.tau, k) != times[k]:
            raise AlgorithmError("arrival times do not match tau * matrix")
    return [[col[row] for col in cols] for row in range(width)]


def k_matrix(layers: int) -> list[list[int]]:
    """Columns are the primary vectors: unit upper triangular, all ones."""
    return [[1 if row <= col else 0 for col in range(layers + 1)]
            for row in range(layers + 1)]


def j_matrix(layers: int) -> list[list[int]]:
    """Inverse of :func:`k_matrix`: ones on the diagonal, -1 above it."""
    out = [[0] * (layers + 1) for _ in range(layers + 1)]
    for i in range(layers + 1):
        out[i][i] = 1
        if i + 1 <= layers:
            out[i][i + 1] = -1
    return out


@dataclass(frozen=True)
class GenericityReport:
    """Diagnostics for the two genericity conditions.

    ``margin`` is the smallest separation between distinct arrival times
    over the whole lattice set: a quantitative distance to degeneracy.
    ``zero_amplitudes`` lists vectors with vanishing polynomial value or
    whose merged arrival cancelled.
    """

    time_injective: bool
    colliding_pairs: tuple[tuple[TransitCount, TransitCount], ...]
    zero_amplitudes: tuple[TransitCount, ...]
    margin: Scalar | None

    @property
    def generic(self) -> bool:
        return self.time_injective and not self.zero_amplitudes


def is_generic(model: Model, t_max: Scalar | None = None,
               time_tol: Scalar | None = None,
               amp_zero_tol: Scalar | None = None,
               max_terms: int | None = None) -> GenericityReport:
    """Check arrival-time injectivity and amplitude non-vanishing.

    Times collide within ten ``time_tol``; an amplitude, or its merged
    arrival, vanishes within ``amp_zero_tol``.  Both resolve as in
    :func:`forward`, so in rational mode the tests are exact.
    """
    if t_max is None:
        t_max = total_travel_time(model)
    ls = enumerate_lattice_set(model.tau, t_max, max_terms=max_terms,
                               rational=model.rational)
    time_tol = tolerance("time_tol", time_tol, model.rational, ls.times)
    decide_tol = GENERIC_MARGIN_FACTOR * time_tol

    order = sorted(range(len(ls.ks)), key=lambda i: (ls.times[i], ls.ks[i]))
    stimes = [ls.times[i] for i in order]
    margin: Scalar | None = None
    for a, b in zip(stimes, stimes[1:]):
        gap = b - a
        if margin is None or gap < margin:
            margin = gap

    colliding: list[tuple[TransitCount, TransitCount]] = []
    # span guard disabled: this is a diagnostic, degenerate chains must not abort
    groups = cluster_sorted(stimes, decide_tol, cluster_span=float("inf"))
    for lo, hi in groups:
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                colliding.append((ls.ks[order[i]], ls.ks[order[j]]))

    amps = eval_batch(model.refl, ls.ks)
    amp_zero_tol = tolerance("amp_zero_tol", amp_zero_tol, model.rational,
                             amps)
    zero: list[TransitCount] = []
    for (lo, hi), total in zip(groups, cluster_sums(amps, order, groups)):
        cancelled = abs(total) <= amp_zero_tol
        for i in order[lo:hi]:
            if cancelled or abs(amps[i]) <= amp_zero_tol:
                zero.append(ls.ks[i])
    return GenericityReport(
        time_injective=not colliding,
        colliding_pairs=tuple(colliding),
        zero_amplitudes=tuple(zero),
        margin=margin,
    )


def ill_posed_pair(tau_value: Scalar, layers: int,
                   refl: Sequence[Scalar]) -> tuple[Model, Model]:
    """Two models of different depth with identical data (constant times).

    Given an M-layer constant travel-time model, a deeper reflector can be
    appended whose reflection coefficient exactly cancels the combined
    amplitude arriving at the extension's total travel time, because with
    equal layer times many distinct vectors arrive simultaneously.  Returns
    the base model and its extension; raises :class:`AlgorithmError` when
    the induced coefficient falls outside (-1, 1) or vanishes (no
    cancelling extension exists for this reflectivity).
    """
    refl = tuple(refl)
    if len(refl) != layers + 1:
        raise ValidationError(
            f"refl needs {layers + 1} entries for {layers} layers")
    base = validate_model((tau_value,) * (layers + 1), refl)
    rational = base.rational
    one = Fraction(1) if rational else 1.0

    # all vectors arriving exactly at the extension's total travel time
    ones = enumerate_lattice_set([Fraction(1)] * (layers + 2),
                                 Fraction(layers + 2))
    full = (1,) * (layers + 2)
    aligned = [k for k in ones.ks if sum(k) == layers + 2 and k != full]

    pad = base.refl + (Fraction(0) if rational else 0.0,)
    ssum = left_sum(amplitude_eval(pad, k) for k in aligned)
    denom = one
    for r in base.refl:
        denom = denom * (one - r * r)
    induced = -ssum / denom
    if induced == 0:
        raise AlgorithmError("induced reflection coefficient is zero")
    if not (-1 < induced < 1):
        raise AlgorithmError(
            f"induced reflection coefficient {float(induced)} outside (-1, 1)")
    extension = validate_model((tau_value,) * (layers + 2), refl + (induced,))
    return base, extension
