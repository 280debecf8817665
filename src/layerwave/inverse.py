"""Two-stage exact inversion, spurious-arrival rejection, and amplitude
correction from multiple-reflection redundancy.

Stage I reads the travel times straight off the arrival times: the first
two arrivals fix the first two entries, and each later layer is opened by
the earliest arrival not explained as a multiple of the layers found so
far.  Stage II reads the reflection coefficients off the primary-arrival
amplitudes by a two-term recursion.  Both stages are exact on exact input;
neither needs amplitude data for the times nor times beyond indexing for
the amplitudes.

The robust variant drops an arrival as spurious when the layer it would
open explains nothing else in the remaining data.  A spurious first or
second arrival cannot be detected this way: the opening step trusts them
unconditionally (documented limitation).

Stage III (``correct_reflectivity``) repairs distorted amplitudes.  Pairs
of transit vectors that differ by one extra bounce have amplitude ratio
-2 * R_{n-1} * R_n identically, so each such pair in the data votes for
the product R_{n-1} * R_n; undistorted pairs vote in exact agreement and
the per-index consensus reconstructs the reflectivities by division.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .core import (Data, Model, Scalar, find_time, left_sum, prefix_sums,
                   tolerance, validate_model)
from .errors import AlgorithmError, GuardExceededError, ValidationError
from .lattice import (LatticeSet, TransitCount, enumerate_lattice_set,
                      enumerate_restricted)

DIVISION_FLOOR = 1e-12  # smallest |R| divisible in float Stage III


@dataclass(frozen=True)
class InverseOptions:
    """Knobs for :func:`invert`.

    ``time_tol`` is the absolute matching tolerance for explaining data
    times, resolved by :func:`layerwave.core.tolerance` (scale: sigma).
    ``robust`` enables spurious-arrival rejection; it rejects at most
    d - 2 arrivals, since the first two are trusted, so the rejections need
    no guard of their own.  ``max_layers`` bounds the recovered layer count
    and ``max_terms`` each lattice enumeration.
    """

    time_tol: Scalar | None = None
    robust: bool = False
    max_layers: int = 64
    max_terms: int | None = None


@dataclass(frozen=True)
class InverseReport:
    """Inversion result with full bookkeeping.

    ``matched`` maps data indices to the transit vector that explained
    them (when unique); ``primary_indices[n]`` is the data index of the
    n-th primary arrival; ``rejected_arrivals`` lists (time, amplitude)
    pairs discarded as spurious, in rejection order.
    """

    model: Model
    rejected_arrivals: tuple[tuple[Scalar, Scalar], ...]
    matched: dict[int, TransitCount]
    primary_indices: tuple[int, ...]


def invert(data: Data, opts: InverseOptions | None = None) -> InverseReport:
    """Recover the model from normal-form data of a generic model.

    Violations of the genericity contract surface as
    :class:`AlgorithmError` (unexplained times that fail to shrink, a
    reflection coefficient outside (-1, 1), a missing primary) rather than
    silently wrong output.
    """
    opts = opts or InverseOptions()
    d = len(data)
    if d < 2:
        raise ValidationError("inversion needs at least two arrivals")
    sigma = list(data.sigma)
    alpha = list(data.alpha)
    tol = tolerance("time_tol", opts.time_tol, data.rational, sigma)

    # Stage I: arrival time inversion
    tau: list[Scalar] = [sigma[0], sigma[1] - sigma[0]]
    pending = list(range(2, d))
    matched: dict[int, TransitCount] = {}
    rejected: list[int] = []
    n = 1
    while pending:
        rs = enumerate_restricted(tuple(tau), n, sigma[-1],
                                  max_terms=opts.max_terms)
        rtimes = sorted(rs.times)
        hits = [j for j in pending
                if find_time(rtimes, sigma[j], tol) is not None]

        if opts.robust and len(pending) > 1 and hits == [pending[0]]:
            # the layer opened by the earliest pending arrival explains
            # nothing else: reject that arrival and reopen the layer
            rejected.append(pending.pop(0))
            tau[n] = sigma[pending[0]] - left_sum(tau[:n])
            if not tau[n] > 0:
                raise AlgorithmError("nonpositive travel time after rejection")
            continue

        if hits:
            by_time: dict[int, TransitCount | None] = {}
            hit_times = [sigma[j] for j in hits]
            for k, t in zip(rs.ks, rs.times):
                jj = find_time(hit_times, t, tol)
                if jj is not None:
                    j = hits[jj]
                    by_time[j] = k if j not in by_time else None
            for j in hits:
                if by_time.get(j) is not None:
                    matched[j] = by_time[j]
            explained = set(hits)
            pending = [j for j in pending if j not in explained]
        elif n > 1:
            # a layer opened from an arrival must at least explain it
            raise AlgorithmError(
                f"unexplained arrivals do not shrink at layer {n}; data is "
                "malformed or non-generic")
        if not pending:
            break
        tau.append(sigma[pending[0]] - left_sum(tau))
        if not tau[-1] > 0:
            raise AlgorithmError("nonpositive travel time (non-generic data)")
        n += 1
        if n > opts.max_layers:
            raise GuardExceededError(
                f"layer count exceeded max_layers = {opts.max_layers}")

    layers = len(tau) - 1

    # Stage II: amplitude inversion along the primaries
    dropped = set(rejected)
    kept = [j for j in range(d) if j not in dropped]
    kept_times = [sigma[j] for j in kept]
    primary_indices: list[int] = []
    for nn, target in enumerate(prefix_sums(tau)):
        j = find_time(kept_times, target, tol)
        if j is None:
            raise AlgorithmError(
                f"primary arrival {nn} (t = {float(target)}) not in data")
        primary_indices.append(kept[j])

    refl: list[Scalar] = [alpha[primary_indices[0]]]
    if not (-1 < refl[0] < 1):
        raise AlgorithmError(f"computed reflectivity R[0] = "
                             f"{float(refl[0])} outside (-1, 1)")
    for nn in range(1, layers + 1):
        prev = refl[nn - 1]
        denom = alpha[primary_indices[nn - 1]] * (1 - prev * prev)
        value = alpha[primary_indices[nn]] * prev / denom
        if not (-1 < value < 1):
            raise AlgorithmError(
                f"computed reflectivity R[{nn}] = {float(value)} "
                "outside (-1, 1)")
        refl.append(value)

    width = layers + 1
    padded = {j: k + (0,) * (width - len(k)) for j, k in matched.items()}
    padded[primary_indices[0]] = (1,) + (0,) * (width - 1)
    padded[primary_indices[1]] = (1, 1) + (0,) * (width - 2)
    model = validate_model(tau, refl)
    return InverseReport(
        model=model,
        rejected_arrivals=tuple((sigma[j], alpha[j]) for j in rejected),
        matched=padded,
        primary_indices=tuple(primary_indices),
    )


# ---------------------------------------------------------------------------
# Stage III: reflectivity correction

@dataclass(frozen=True)
class CorrectionSets:
    """Everything Stage III derived per interface index n.

    ``pairs[n]`` are the one-extra-bounce vector pairs available in the
    lattice set, ``ratios[n]`` the amplitude ratios observed for them
    (votes for R_{n-1} * R_n), and ``products[n]`` the consensus value.
    """

    pairs: dict[int, list[tuple[TransitCount, TransitCount]]] = field(
        default_factory=dict)
    ratios: dict[int, list[Scalar]] = field(default_factory=dict)
    products: dict[int, Scalar] = field(default_factory=dict)


def redundancy_pairs(ls: LatticeSet, n: int
                     ) -> list[tuple[TransitCount, TransitCount]]:
    """Pairs (k, k + e_n) in the set with k_{n-1} = k_n = k_{n+1} = 1.

    Both endpoints must be present (both arrivals observable); the index
    range mirrors the correction stage, which leaves the last four
    reflectivities to the primaries.
    """
    layers = len(ls.tau) - 1
    if not 1 <= n <= layers - 3:
        raise ValidationError(f"index {n} outside 1..{layers - 3}")
    members = set(ls.ks)
    out = []
    for k in ls.ks:
        if k[n - 1] == 1 and k[n] == 1 and k[n + 1] == 1:
            partner = tuple(v + 1 if i == n else v for i, v in enumerate(k))
            if partner in members:
                out.append((k, partner))
    return out


def consensus(values: Sequence[Scalar], cluster_tol: Scalar) -> Scalar:
    """Median of the largest cluster of equal-within-tolerance values.

    Clusters are single-linkage runs on the sorted list.  Size ties break
    toward the smaller within-cluster variance, then the smaller mean.  The
    winner's median (its lower middle element) is returned, not its mean:
    single linkage can chain a few votes that are off by up to a tolerance
    or two into a cluster of equal ones, and those must not move the
    result.  A cluster at tolerance zero holds equal values, so exact votes
    give the exact value either way.
    """
    if not values:
        raise ValidationError("consensus of an empty list")
    svals = sorted(values)
    clusters: list[list[Scalar]] = [[svals[0]]]
    for v in svals[1:]:
        if v - clusters[-1][-1] <= cluster_tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])

    def stats(cluster: list[Scalar]):
        mean = left_sum(cluster) / len(cluster)
        var = left_sum((v - mean) * (v - mean) for v in cluster) / len(cluster)
        return -len(cluster), var, mean

    best = min(clusters, key=stats)
    return best[(len(best) - 1) // 2]


def correct_reflectivity(report: InverseReport, data: Data,
                         cluster_tol: Scalar | None = None,
                         time_tol: Scalar | None = None,
                         max_terms: int | None = None
                         ) -> tuple[tuple[Scalar, ...], CorrectionSets]:
    """Reconstruct reflectivities from multiple-reflection redundancy.

    Trusts the recovered travel times, the first reflectivity, and the
    amplitudes of the last four primaries; everything in between is
    re-derived from consensus products R_{n-1} * R_n and division.  With
    fewer than four layers there is no redundancy window and the Stage II
    reflectivities are returned unchanged.  ``cluster_tol`` (vote
    clustering) and ``time_tol`` (scale: sigma) resolve through
    :func:`layerwave.core.tolerance`.
    """
    model = report.model
    layers = model.layers
    rational = model.rational
    cluster_tol = tolerance("cluster_tol", cluster_tol, rational)
    time_tol = tolerance("time_tol", time_tol, rational, data.sigma)
    if layers < 4:
        return model.refl, CorrectionSets()

    sigma = list(data.sigma)
    alpha = list(data.alpha)
    ls = enumerate_lattice_set(model.tau, sigma[-1], max_terms=max_terms,
                               rational=rational)
    times = {k: t for k, t in zip(ls.ks, ls.times)}

    sets = CorrectionSets()
    for n in range(1, layers - 2):
        pairs = redundancy_pairs(ls, n)
        ratios: list[Scalar] = []
        for k, partner in pairs:
            j = find_time(sigma, times[k], time_tol)
            jp = find_time(sigma, times[partner], time_tol)
            if j is None or jp is None:
                continue
            ratios.append(-alpha[jp] / (2 * alpha[j]))
        sets.pairs[n] = pairs
        sets.ratios[n] = ratios
        if n <= layers - 4:
            if not ratios:
                raise AlgorithmError(
                    f"no redundancy pairs observable for index {n}; "
                    "cannot correct")
            sets.products[n] = consensus(ratios, cluster_tol)
        elif ratios:
            sets.products[n] = consensus(ratios, cluster_tol)

    corrected: list[Scalar] = [model.refl[0]]
    for n in range(1, layers - 3):
        prev = corrected[n - 1]
        if (rational and prev == 0) or (not rational
                                        and abs(prev) < DIVISION_FLOOR):
            raise AlgorithmError(
                f"|R[{n - 1}]| below division floor during correction")
        value = sets.products[n] / prev
        if not (-1 < value < 1):
            raise AlgorithmError(
                f"corrected reflectivity R[{n}] = {float(value)} "
                "outside (-1, 1)")
        corrected.append(value)

    partials = prefix_sums(model.tau)
    for n in range(layers - 3, layers + 1):
        j = find_time(sigma, partials[n], time_tol)
        if j is None:
            raise AlgorithmError(
                f"primary arrival {n} missing from data; cannot correct")
        denom = 1 - corrected[0] * corrected[0]
        for r in corrected[1:n]:
            denom = denom * (1 - r * r)
        value = alpha[j] / denom
        if not (-1 < value < 1):
            raise AlgorithmError(
                f"corrected reflectivity R[{n}] = {float(value)} "
                "outside (-1, 1)")
        corrected.append(value)
    return tuple(corrected), sets
