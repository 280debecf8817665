"""Data perturbations: decimation, spurious arrivals, amplitude distortion,
time shifts.

These reproduce the degradations the inversion is meant to survive.  All
outputs are valid normal-form data.  In rational mode irrational
perturbation values (the sine) are injected as their exact binary-float
fractions, which keeps the pipeline exact downstream of the perturbation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import Data, Scalar, default_time_tol, normalize, validate_data
from .errors import AlgorithmError, ValidationError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PerturbSpec:
    """A bundle of perturbations, applied in a fixed order.

    ``decimate_threshold`` drops small amplitudes first; ``spurious`` is
    either an explicit list of (time, amplitude) points or a (count, seed)
    pair for random generation; ``sine`` is (amplitude, (t_lo, t_hi)) plus
    optional angular frequency and phase; ``shift`` translates all times
    last.  Unset fields are skipped.
    """

    decimate_threshold: Scalar | None = None
    spurious: list[tuple[Scalar, Scalar]] | tuple[int, int] | None = None
    sine: tuple | None = None
    shift: Scalar | None = None

    def apply(self, data: Data, guard_tol: Scalar | None = None) -> Data:
        if self.decimate_threshold is not None:
            data = decimate(data, self.decimate_threshold)
        if self.spurious is not None:
            points = self.spurious
            if isinstance(points, tuple):
                count, seed = points
                points = random_spurious(data, count, seed,
                                         guard_tol=guard_tol)
            data = add_spurious(data, points, guard_tol=guard_tol)
        if self.sine is not None:
            amp, window, *rest = self.sine
            data = sine_distort(data, amp, window, *rest)
        if self.shift is not None:
            data = shift_times(data, self.shift)
        return data


def decimate(data: Data, threshold: Scalar) -> Data:
    """Drop terms with |amplitude| strictly below the threshold."""
    if threshold < 0:
        raise ValidationError("threshold must be nonnegative")
    kept = [(t, a) for t, a in zip(data.sigma, data.alpha)
            if not abs(a) < threshold]
    if not kept:
        raise AlgorithmError("decimation removed every term")
    return validate_data([t for t, _ in kept], [a for _, a in kept],
                         rational=data.rational)


def add_spurious(data: Data, points: list[tuple[Scalar, Scalar]],
                 guard_tol: Scalar | None = None) -> Data:
    """Merge extra (time, amplitude) arrivals into the data.

    Each spurious time must stay clear of every existing arrival and of
    the other spurious times by more than ``guard_tol``, so the merged
    response has one term per arrival.
    """
    if not points:
        return data
    rational = data.rational
    if guard_tol is None:
        guard_tol = default_time_tol(data.sigma, rational)
    existing = list(data.sigma)
    for t, a in points:
        if a == 0:
            raise ValidationError("spurious amplitude must be nonzero")
        for s in existing:
            if abs(s - t) <= guard_tol:
                raise ValidationError(
                    f"spurious time {t} collides with arrival {s}")
        existing.append(t)
    terms = list(zip(data.sigma, data.alpha)) + list(points)
    return normalize(terms, rational=rational)


def random_spurious(data: Data, count: int, seed: int,
                    guard_tol: Scalar | None = None
                    ) -> list[tuple[Scalar, Scalar]]:
    """Seeded spurious arrivals, uniform over the interior of the data span.

    Times are rejected when within ``guard_tol`` of a true arrival or of
    each other; magnitudes are uniform in [0.05, 1] * max |alpha|, with
    random signs.  Every draw stays strictly inside
    (sigma_1, sigma_d), so the response keeps its true first and last
    arrivals.
    """
    if len(data) < 2:
        raise ValidationError("need a data span to place spurious arrivals")
    rational = data.rational
    lo = float(data.sigma[0])
    hi = float(data.sigma[-1])
    if guard_tol is None:
        guard_tol = 1e-6 * (hi - lo)
    rng = random.Random(seed)
    amax = max(abs(float(a)) for a in data.alpha)
    taken = [float(s) for s in data.sigma]
    points: list[tuple[Scalar, Scalar]] = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise AlgorithmError("could not place spurious arrivals")
        t = rng.uniform(lo, hi)
        if any(abs(t - s) <= float(guard_tol) for s in taken):
            continue
        a = rng.uniform(0.05 * amax, amax) * rng.choice((-1.0, 1.0))
        taken.append(t)
        if rational:
            points.append((Fraction(t), Fraction(a)))
        else:
            points.append((t, a))
    return points


def sine_distort(data: Data, amp: Scalar, window: tuple[Scalar, Scalar],
                 omega: float = TWO_PI, phase: float = 0.0) -> Data:
    """Add amp * sin(omega * t + phase) to amplitudes inside the window.

    Terms distorted to exactly zero drop out of the normal form.  The
    window endpoints are inclusive; omega and phase default to a 1 Hz,
    zero-phase wave.
    """
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValidationError("empty distortion window")
    rational = data.rational
    terms = []
    for t, a in zip(data.sigma, data.alpha):
        if t_lo <= t <= t_hi:
            delta = float(amp) * math.sin(omega * float(t) + phase)
            a = a + (Fraction(delta) if rational else delta)
        terms.append((t, a))
    return normalize(terms, rational=rational)


def shift_times(data: Data, kappa: Scalar) -> Data:
    """Shift every arrival time by kappa (first arrival must stay positive)."""
    if len(data) and not data.sigma[0] + kappa > 0:
        raise ValidationError("shift makes the first arrival nonpositive")
    return validate_data([t + kappa for t in data.sigma], data.alpha,
                         rational=data.rational)
