"""Domain types, validation and normal-form construction.

A *model* is a pair of vectors ``(tau, refl)``: two-way travel times per
layer (positive, seconds) and reflection coefficients per interface (inside
the open interval (-1, 1)), both of length M+1 for an M-layer medium.  The
*data* is the finite-time impulse response written in normal form: strictly
increasing arrival times ``sigma`` with nonzero amplitudes ``alpha``.

Every quantity is carried in one of two scalar modes:

* float mode   -- IEEE double arithmetic, tolerance-based comparisons;
* rational mode -- ``fractions.Fraction`` arithmetic, bit-exact.

A vector is in exactly one mode; mixing modes in a single value is rejected.
No square roots are taken in rational mode anywhere in the package
(transmission factors only ever enter through their squares), so rational
computations stay closed under the arithmetic used.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from typing import Iterable, Sequence, Union

from .errors import ValidationError

Scalar = Union[float, Fraction]

#: A pre-normal-form impulse response: unordered (time, amplitude) pairs,
#: possibly with repeated times and zero amplitudes.
RawTermList = Sequence[tuple[Scalar, Scalar]]

#: Float-mode defaults, shares of the largest |entry| of the scale compared
#: against (times, amplitudes; Stage III votes are on an absolute scale).
DEFAULT_TOLERANCES = {"time_tol": 1e-9, "amp_zero_tol": 1e-12,
                      "cluster_tol": 1e-6}
CLUSTER_SPAN_FACTOR = 10          # cluster span guard, multiples of time_tol


# ---------------------------------------------------------------------------
# scalar helpers

def coerce_vector(values: Iterable, rational: bool | None = None,
                  name: str = "vector") -> tuple[tuple[Scalar, ...], bool]:
    """Canonicalize a numeric vector into one scalar mode.

    Mode is inferred when ``rational`` is None: any Fraction entry selects
    rational mode, otherwise float mode.  Floats cannot be silently promoted
    to rationals (use ``Fraction(x)`` explicitly for the exact binary value).
    Returns the canonical tuple and the resolved mode flag.
    """
    vals = list(values)
    has_float = any(isinstance(v, float) for v in vals)
    has_frac = any(isinstance(v, Fraction) for v in vals)
    if has_float and has_frac:
        raise ValidationError(f"{name}: mixed float/rational entries")
    if rational is None:
        rational = has_frac
    if rational:
        if has_float:
            raise ValidationError(
                f"{name}: float entries in rational mode; convert explicitly")
        return tuple(Fraction(v) for v in vals), True
    floats = tuple(float(v) for v in vals)
    for i, v in enumerate(floats):
        if not math.isfinite(v):
            raise ValidationError(f"{name}[{i}] = {v} is not finite")
    return floats, False


# Every arrival time and amplitude sum in the package is accumulated left to
# right from its first term, so a float result has the same bits wherever it
# is computed.  These helpers are that order's one definition.  Builtin
# sum() is not used for it: it starts from 0, and from Python 3.12 it adds
# floats with compensation (sum([1e16, 1.0, -1e16]) is 1.0, not 0.0).

def left_sum(values: Iterable[Scalar]) -> Scalar:
    """((v0 + v1) + v2) + ...; ``values`` must not be empty."""
    return reduce(operator.add, values)


def prefix_sums(values: Iterable[Scalar]) -> list[Scalar]:
    """[v0, v0 + v1, (v0 + v1) + v2, ...]: the running left sums."""
    return list(accumulate(values))


def dot(tau: Sequence[Scalar], k: Sequence[int]) -> Scalar:
    """<k, tau> accumulated left to right (the package-wide arrival time)."""
    return reduce(operator.add, map(operator.mul, k, tau))


def find_time(sorted_times: Sequence[Scalar], value: Scalar,
              tol: Scalar) -> int | None:
    """Index of the entry within ``tol`` of ``value``, else None.

    When both neighbours of ``value`` are within ``tol``, the lower one
    wins.
    """
    i = bisect_left(sorted_times, value)
    for j in (i - 1, i):
        if 0 <= j < len(sorted_times) and \
                abs(sorted_times[j] - value) <= tol:
            return j
    return None


def tolerance(name: str, value: Scalar | None, rational: bool,
              scale: Sequence[Scalar] = (1.0,)) -> Scalar:
    """Resolve the tolerance ``name``: None gives exact zero in rational
    mode, else ``DEFAULT_TOLERANCES[name]`` times the largest |entry| of
    ``scale`` (0.0 if empty).  Raises :class:`ValidationError` unless the
    value is finite, nonnegative and, in rational mode (every comparison
    exact), zero."""
    if value is None:
        if rational:
            return Fraction(0)
        value = DEFAULT_TOLERANCES[name] * max(
            (abs(float(s)) for s in scale), default=0.0)
    if not 0 <= value < math.inf:
        raise ValidationError(
            f"{name} = {scalar_text(value)} must be finite and nonnegative")
    if rational and value != 0:
        raise ValidationError(f"{name} must be zero in rational mode")
    return value


# int <-> str refuses more than sys.get_int_max_str_digits() digits (4300 by
# default), and exact Stage II reflectivities of distorted data have longer
# numerators.  Such integers go through Decimal, which has no limit; the
# setting itself is process-wide, so it is left alone.
_INTEGER_LITERAL = re.compile(r"-?[0-9]+")


def _integer_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _integer_value(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        # Decimal would also take "1.5" or "1e5", so check the digits first
        if not _INTEGER_LITERAL.fullmatch(text):
            raise
        return int(Decimal(text))


def scalar_to_json(x: Scalar):
    if isinstance(x, Fraction):
        return f"{_integer_text(x.numerator)}/{_integer_text(x.denominator)}"
    return x


def scalar_text(x: Scalar) -> str:
    """``str(x)`` (``"3"``, ``"1/3"``, ``"0.5"``) at any number of digits."""
    if not isinstance(x, Fraction):
        return str(x)
    if x.denominator == 1:
        return _integer_text(x.numerator)
    return scalar_to_json(x)


def scalar_from_json(v) -> Scalar:
    if isinstance(v, str):
        try:
            num, _, den = v.partition("/")
            if not den:
                return Fraction(_integer_value(num))
            return Fraction(_integer_value(num), _integer_value(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {v!r}") from exc
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"bad numeric literal {v!r}")
    if not math.isfinite(v):
        # JSON's NaN/Infinity; caught here too because --rational converts
        # literals to Fractions before the vectors are validated
        raise ValidationError(f"non-finite numeric literal {v!r}")
    return float(v)


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Model:
    """Travel times and reflection coefficients of a layered medium."""

    tau: tuple[Scalar, ...]
    refl: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.tau) != len(self.refl):
            raise ValidationError(
                f"tau has {len(self.tau)} entries, refl has {len(self.refl)}")
        if not self.tau:
            raise ValidationError("empty model")
        for i, t in enumerate(self.tau):
            if not t > 0:
                raise ValidationError(f"tau[{i}] = {float(t)} is not positive")
        for i, r in enumerate(self.refl):
            if not (-1 < r < 1):
                raise ValidationError(f"refl[{i}] = {float(r)} outside (-1, 1)")

    @property
    def layers(self) -> int:
        """Number of layers M (the vectors have M+1 entries)."""
        return len(self.tau) - 1

    @property
    def rational(self) -> bool:
        return isinstance(self.tau[0], Fraction)


@dataclass(frozen=True)
class Data:
    """Normal-form impulse response: increasing times, nonzero amplitudes.

    An empty instance (d = 0) is only ever produced by :func:`normalize`;
    all consumers of data require d >= 1.
    """

    sigma: tuple[Scalar, ...]
    alpha: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.sigma) != len(self.alpha):
            raise ValidationError("sigma/alpha length mismatch")
        for a, b in zip(self.sigma, self.sigma[1:]):
            if not a < b:
                raise ValidationError("sigma not strictly increasing")
        for i, a in enumerate(self.alpha):
            if a == 0:
                raise ValidationError(f"alpha[{i}] is zero (not normal form)")

    def __len__(self) -> int:
        return len(self.sigma)

    @property
    def rational(self) -> bool:
        return bool(self.sigma) and isinstance(self.sigma[0], Fraction)


@dataclass(frozen=True)
class PhysicalProfile:
    """Piecewise-constant acoustic medium.

    ``depths`` lists the reference depth followed by the M+1 interface
    depths (strictly increasing, meters).  ``densities`` and ``moduli``
    have one entry per homogeneous region, top to bottom: the half space
    above the first interface, the M layers, and the half space below the
    last interface (M+2 entries in total).  The region above the first
    interface is the one containing the reference depth; it supplies both
    the travel time to the first interface and the upper impedance of the
    first reflection coefficient.
    """

    depths: tuple[float, ...]
    densities: tuple[float, ...]
    moduli: tuple[float, ...]

    def __post_init__(self):
        if len(self.depths) < 2:
            raise ValidationError("need a reference depth and >= 1 interface")
        if len(self.densities) != len(self.depths) or \
                len(self.moduli) != len(self.depths):
            raise ValidationError(
                "densities/moduli must have one entry per region "
                "(= number of depths)")
        for a, b in zip(self.depths, self.depths[1:]):
            if not a < b:
                raise ValidationError("depths not strictly increasing")
        for name, vec in (("density", self.densities), ("modulus", self.moduli)):
            for i, v in enumerate(vec):
                if not v > 0:
                    raise ValidationError(f"{name}[{i}] = {v} not positive")


# ---------------------------------------------------------------------------
# operations

def validate_model(tau: Iterable, refl: Iterable,
                   rational: bool | None = None,
                   allow_zero_layers: bool = False) -> Model:
    """Build a :class:`Model`, checking every invariant.

    Raises :class:`ValidationError` naming the offending index on failure.
    At least one layer is required unless ``allow_zero_layers`` is set.
    """
    tau_t, m1 = coerce_vector(tau, rational, "tau")
    refl_t, m2 = coerce_vector(refl, rational, "refl")
    if m1 != m2:
        raise ValidationError("tau and refl are in different scalar modes")
    model = Model(tau_t, refl_t)
    if model.layers < 1 and not allow_zero_layers:
        raise ValidationError("model must have at least one layer")
    return model


def validate_data(sigma: Iterable, alpha: Iterable,
                  rational: bool | None = None,
                  allow_empty: bool = False) -> Data:
    sig_t, m1 = coerce_vector(sigma, rational, "sigma")
    alp_t, m2 = coerce_vector(alpha, rational, "alpha")
    if sig_t and m1 != m2:
        raise ValidationError("sigma and alpha are in different scalar modes")
    data = Data(sig_t, alp_t)
    if not allow_empty and len(data) < 1:
        raise ValidationError("empty data")
    return data


def total_travel_time(model: Model) -> Scalar:
    """Sum of the travel-time vector, accumulated left to right."""
    return left_sum(model.tau)


def from_physical(profile: PhysicalProfile) -> Model:
    """Convert a physical profile to a (float-mode) model.

    Travel time across each region is twice its thickness divided by the
    region's wave speed sqrt(K/rho); the reflection coefficient at each
    interface is the normalized impedance contrast between the regions
    above and below, which always lands inside (-1, 1).
    """
    z = profile.depths
    rho = profile.densities
    kmod = profile.moduli
    n_ifaces = len(z) - 1
    tau = []
    for n in range(n_ifaces):
        speed = math.sqrt(kmod[n] / rho[n])
        tau.append(2.0 * (z[n + 1] - z[n]) / speed)
    refl = []
    for n in range(n_ifaces):
        up = math.sqrt(kmod[n] * rho[n])
        down = math.sqrt(kmod[n + 1] * rho[n + 1])
        refl.append((up - down) / (up + down))
    return validate_model(tau, refl, rational=False,
                          allow_zero_layers=(n_ifaces == 1))


def cluster_sorted(times: Sequence[Scalar], time_tol: Scalar,
                   cluster_span: Scalar | None = None) -> list[tuple[int, int]]:
    """Group a time-sorted sequence into runs of mutually close entries.

    Closeness is the transitive closure of "adjacent gap <= time_tol"
    (single linkage).  Returns half-open index ranges.  A cluster whose
    total span exceeds ``cluster_span`` (default 10x the tolerance) aborts:
    that signals a tolerance too coarse for the data.
    """
    if cluster_span is None:
        cluster_span = CLUSTER_SPAN_FACTOR * time_tol
    ranges = []
    i = 0
    n = len(times)
    while i < n:
        j = i + 1
        while j < n and times[j] - times[j - 1] <= time_tol:
            j += 1
        if times[j - 1] - times[i] > cluster_span:
            raise ValidationError(
                f"cluster span {times[j - 1] - times[i]} exceeds guard "
                f"{cluster_span}; time tolerance too coarse")
        ranges.append((i, j))
        i = j
    return ranges


def cluster_sums(values: Sequence[Scalar], order: Sequence[int],
                 ranges: Sequence[tuple[int, int]]) -> list[Scalar]:
    """Per range (lo, hi), the left sum of ``values[i]`` for i in
    ``order[lo:hi]``: the merged amplitude of each cluster."""
    # most clusters have one member; a sum per cluster would double the time
    return [values[order[lo]] if hi - lo == 1 else
            left_sum([values[i] for i in order[lo:hi]])
            for lo, hi in ranges]


def normalize(terms: RawTermList, time_tol: Scalar | None = None,
              amp_zero_tol: Scalar | None = None,
              rational: bool | None = None) -> Data:
    """Put a raw term list in normal form.

    Times equal within ``time_tol`` are merged (amplitudes summed, the
    smallest member time representing the cluster), clusters summing to
    within ``amp_zero_tol`` of zero are dropped, and the result is sorted
    strictly increasing.  The output is idempotent under re-normalization
    and independent of the input order.  Both tolerances resolve through
    :func:`tolerance` (scales: times, amplitudes).  A cluster spanning
    more than ``CLUSTER_SPAN_FACTOR`` time tolerances raises
    :class:`ValidationError`: the tolerance is too coarse for the data.
    """
    pairs = list(terms)
    if not pairs:
        return Data((), ())
    times_t, m1 = coerce_vector((t for t, _ in pairs), rational, "times")
    amps_t, m2 = coerce_vector((a for _, a in pairs), rational, "amplitudes")
    if m1 != m2:
        raise ValidationError("times and amplitudes in different scalar modes")
    rational = m1
    time_tol = tolerance("time_tol", time_tol, rational, times_t)
    amp_zero_tol = tolerance("amp_zero_tol", amp_zero_tol, rational, amps_t)

    order = sorted(range(len(times_t)), key=lambda i: (times_t[i], amps_t[i]))
    stimes = [times_t[i] for i in order]
    ranges = cluster_sorted(stimes, time_tol)
    sigma, alpha = [], []
    for (lo, _), total in zip(ranges, cluster_sums(amps_t, order, ranges)):
        if abs(total) <= amp_zero_tol:
            continue
        sigma.append(stimes[lo])
        alpha.append(total)
    return Data(tuple(sigma), tuple(alpha))


# ---------------------------------------------------------------------------
# JSON interchange ({"tau": [...], "R": [...]} / {"sigma": [...], "alpha": [...]})

def model_to_dict(model: Model) -> dict:
    return {"tau": [scalar_to_json(t) for t in model.tau],
            "R": [scalar_to_json(r) for r in model.refl]}


def _json_vector(obj: dict, key: str, rational: bool | None) -> list[Scalar]:
    """The array ``obj[key]`` as scalars, converted to Fractions when
    ``rational`` is set."""
    values = obj[key]
    if not isinstance(values, list):
        raise ValidationError(f'"{key}" must be an array')
    out = [scalar_from_json(v) for v in values]
    if rational:
        out = [v if isinstance(v, Fraction) else Fraction(v) for v in out]
    return out


def model_from_dict(obj: dict, rational: bool | None = None) -> Model:
    if not isinstance(obj, dict) or "tau" not in obj or "R" not in obj:
        raise ValidationError('model JSON must have "tau" and "R" arrays')
    return validate_model(_json_vector(obj, "tau", rational),
                          _json_vector(obj, "R", rational))


def data_to_dict(data: Data) -> dict:
    return {"sigma": [scalar_to_json(t) for t in data.sigma],
            "alpha": [scalar_to_json(a) for a in data.alpha]}


def data_from_dict(obj: dict, rational: bool | None = None) -> Data:
    if not isinstance(obj, dict) or "sigma" not in obj or "alpha" not in obj:
        raise ValidationError('data JSON must have "sigma" and "alpha" arrays')
    return validate_data(_json_vector(obj, "sigma", rational),
                         _json_vector(obj, "alpha", rational))
