"""First-principles impulse response by explicit path enumeration.

This module rebuilds the response one scattering sequence at a time: a
sequence is a walk over the interface indices -1, 0, ..., M that starts
and ends at the reference level -1, moves one interface per step, and
never revisits -1 in between.  Each interior visit contributes a factor

* ``R_j``   -- reflection from above at interface j,
* ``-R_j``  -- reflection from below at interface j,
* ``T_j``   -- transmission through interface j (T_j^2 = 1 - R_j^2),

and the product of the factors is the sequence's weight.  Transmission
factors always occur an even number of times per interface, so weights are
polynomial in the reflectivities and evaluate exactly in rational mode.

Nothing here shares code with the closed-form amplitude polynomials; the
only common plumbing is normal-form assembly.  Summing weights per transit
count vector therefore provides an independent ground truth for the
forward map, at exponential cost: this is a verification tool, not the
production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Data, Model, Scalar, dot, normalize, total_travel_time
from .errors import GuardExceededError, ValidationError
from .lattice import TransitCount, max_terms_guard

#: A scattering sequence: interface indices visited, first and last = -1.
Path = tuple[int, ...]


def enumerate_sequences(layers: int, tau: Sequence[Scalar], t_max: Scalar,
                        max_sequences: int | None = None) -> list[Path]:
    """All scattering sequences with arrival time <= t_max.

    The arrival time is committed as the walk descends (each downward
    crossing of a layer costs that layer's two-way travel time), which
    prunes the search exactly.  Paths emerge in lexicographic order of
    their index sequences.
    """
    if len(tau) != layers + 1:
        raise ValidationError(f"tau needs {layers + 1} entries")
    if any(not t > 0 for t in tau):
        raise ValidationError("travel times must be positive")
    guard = max_terms_guard(max_sequences)
    out: list[Path] = []
    prefix = [-1]

    def walk(level: int, t: Scalar):
        # moving up is lexicographically first (smaller next index)
        if level == 0:
            if len(out) >= guard:
                raise GuardExceededError(
                    f"sequence enumeration exceeded {guard} paths")
            out.append(tuple(prefix) + (-1,))
        else:
            prefix.append(level - 1)
            walk(level - 1, t)
            prefix.pop()
        if level < layers:
            tt = t + tau[level + 1]
            if tt <= t_max:
                prefix.append(level + 1)
                walk(level + 1, tt)
                prefix.pop()

    t0 = tau[0]
    if t0 <= t_max:
        prefix.append(0)
        walk(0, t0)
        prefix.pop()
    return out


@dataclass(frozen=True)
class SequenceStats:
    """Transit counts, branch counts and weight exponents of one path.

    ``refl_exp[j]``, ``neg_refl_exp[j]`` and ``t2_exp[j]`` count the
    factors R_j, -R_j and T_j^2 in the weight.
    """

    kappa: TransitCount
    beta: tuple[int, ...]
    refl_exp: tuple[int, ...]
    neg_refl_exp: tuple[int, ...]
    t2_exp: tuple[int, ...]


def stats(path: Path, layers: int) -> SequenceStats:
    """Classify every step of a path and tally its invariants.

    Transit counts are downward arrivals per interface; branch counts are
    the visits that continue deeper on both sides.  The step-by-step factor
    tally is cross-checked against the closed form
    (-R)^(shift(k) - b) R^(k - b) T^(2b); disagreement means a bug, not bad
    input.
    """
    if len(path) < 3 or path[0] != -1 or path[-1] != -1:
        raise ValidationError("path must start and end at the reference level")
    if any(p == -1 for p in path[1:-1]):
        raise ValidationError("path revisits the reference level")
    for a, b in zip(path, path[1:]):
        if abs(a - b) != 1:
            raise ValidationError("path steps must move one interface")
    if max(path) > layers:
        raise ValidationError("path exceeds the deepest interface")

    width = layers + 1
    kappa = [0] * width
    beta = [0] * width
    refl = [0] * width
    neg = [0] * width
    trans = [0] * width
    for i in range(1, len(path) - 1):
        j = path[i]
        down_arrival = path[i - 1] == j - 1
        if down_arrival:
            kappa[j] += 1
        if down_arrival and path[i + 1] == j + 1:
            beta[j] += 1
        if path[i - 1] == j - 1 and path[i + 1] == j - 1:
            refl[j] += 1
        elif path[i - 1] == j + 1 and path[i + 1] == j + 1:
            neg[j] += 1
        else:
            trans[j] += 1

    # closed-form exponents from (kappa, beta) must match the step tally
    shift = kappa[1:] + [0]
    for j in range(width):
        if trans[j] % 2:
            raise AssertionError("odd transmission count (internal bug)")
        if (refl[j] != kappa[j] - beta[j]
                or neg[j] != shift[j] - beta[j]
                or trans[j] != 2 * beta[j]):
            raise AssertionError(
                f"step tally disagrees with closed form at interface {j}")
    return SequenceStats(tuple(kappa), tuple(beta), tuple(refl), tuple(neg),
                         tuple(trans[j] // 2 for j in range(width)))


def weight_eval(st: SequenceStats, refl: Sequence[Scalar]) -> Scalar:
    """Evaluate (-R)^(neg) * R^(refl) * (1-R^2)^(t2) at a reflectivity."""
    if len(refl) != len(st.kappa):
        raise ValidationError("reflectivity length mismatch")
    one = 1.0 if isinstance(refl[0], float) else 1
    w = one
    for j, r in enumerate(refl):
        for _ in range(st.refl_exp[j]):
            w = w * r
        for _ in range(st.neg_refl_exp[j]):
            w = w * (-r)
        q = one - r * r
        for _ in range(st.t2_exp[j]):
            w = w * q
    return w


def oracle_response(model: Model, t_max: Scalar | None = None,
                    max_sequences: int | None = None,
                    time_tol: Scalar | None = None,
                    amp_zero_tol: Scalar | None = None) -> Data:
    """Ground-truth data: accumulate every path's weight, then normalize.

    Arrival times are computed from the transit counts with the same
    left-to-right accumulation as the production forward map, so the two
    responses group identically.
    """
    terms, _ = oracle_terms(model, t_max, max_sequences)
    return normalize(terms, time_tol=time_tol, amp_zero_tol=amp_zero_tol,
                     rational=model.rational)


def oracle_terms(model: Model, t_max: Scalar | None = None,
                 max_sequences: int | None = None
                 ) -> tuple[list[tuple[Scalar, Scalar]],
                            dict[TransitCount, Scalar]]:
    """Per-path (time, weight) terms plus weight sums per transit vector."""
    if t_max is None:
        t_max = total_travel_time(model)
    paths = enumerate_sequences(model.layers, model.tau, t_max, max_sequences)
    terms: list[tuple[Scalar, Scalar]] = []
    sums: dict[TransitCount, Scalar] = {}
    times: dict[TransitCount, Scalar] = {}
    for p in paths:
        st = stats(p, model.layers)
        k = st.kappa
        if k not in times:
            times[k] = dot(model.tau, k)
        w = weight_eval(st, model.refl)
        terms.append((times[k], w))
        sums[k] = sums[k] + w if k in sums else w
    return terms, sums


def count_sequences_by(k: Sequence[int], b: Sequence[int],
                       max_sequences: int | None = None) -> int:
    """Exhaustive count of paths with the given transit and branch counts.

    Enumerates every path whose per-layer transit counts never exceed
    ``k`` and counts exact matches of (kappa, beta); brute force on
    purpose, to stand against the binomial product formula in tests.
    """
    k = tuple(k)
    b = tuple(b)
    layers = len(k) - 1
    guard = max_terms_guard(max_sequences)
    budget = list(k)
    count = 0
    seen = 0
    path = [-1]

    def walk(level: int):
        nonlocal count, seen
        if level == 0:
            seen += 1
            if seen > guard:
                raise GuardExceededError(
                    f"path search exceeded {guard} candidates")
            st = stats(tuple(path) + (-1,), layers)
            if st.kappa == k and st.beta == b:
                count += 1
        else:
            path.append(level - 1)
            walk(level - 1)
            path.pop()
        if level < layers and budget[level + 1] > 0:
            budget[level + 1] -= 1
            path.append(level + 1)
            walk(level + 1)
            path.pop()
            budget[level + 1] += 1

    if budget[0] > 0:
        budget[0] -= 1
        path.append(0)
        walk(0)
        path.pop()
    return count
