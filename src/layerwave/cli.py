"""Command-line front end.

Subcommands cover the whole pipeline: ``forward``, ``invert``, ``correct``,
``oracle``, ``distort``, ``gen`` and ``lattice``.  Models and data travel
as JSON ({"tau": [...], "R": [...]} and {"sigma": [...], "alpha": [...]});
rational-mode numbers are "p/q" strings.  Diagnostic tables (lattice
projections, enumeration maps, correction ratio sets) are emitted as CSV
for external plotting.

Exit codes: 0 success, 2 validation, 3 guard exceeded, 4 algorithm
failure, 5 I/O.  Failures print a one-line JSON object to stderr.
Given a seed, every command is bytewise deterministic.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
from fractions import Fraction

from .core import (Data, Model, Scalar, data_from_dict, data_to_dict, dot,
                   model_from_dict, model_to_dict, normalize, scalar_text,
                   scalar_to_json, total_travel_time)
from .errors import (AlgorithmError, GuardExceededError, LayerwaveError,
                     ValidationError)
from .forward import forward, is_generic
from .inverse import (InverseOptions, InverseReport,
                      correct_reflectivity, invert)
from .lattice import enumerate_lattice_set, write_lattice_csv
from .oracle import oracle_terms
from .perturb import PerturbSpec, random_spurious
from . import __version__

EXIT_VALIDATION = 2
EXIT_GUARD = 3
EXIT_ALGORITHM = 4
EXIT_IO = 5

GEN_TAU_RANGE = (0.1, 2.0)      # travel times drawn by gen_random_generic
GEN_MAX_ATTEMPTS = 500          # candidates it draws before giving up
GEN_DENOMINATOR_LIMIT = 1000    # largest denominator of a rational draw


def gen_random_generic(layers: int, seed: int,
                       margin_floor: Scalar | None = None,
                       refl_range: tuple[float, float] = (0.05, 0.8),
                       rational: bool = False) -> Model:
    """Rejection-sample a random generic model.

    Travel times are uniform over ``GEN_TAU_RANGE``, reflection magnitudes
    uniform over ``refl_range`` with random signs.  Candidates are redrawn
    until the genericity check passes with separation margin at least
    ``margin_floor`` (any positive margin in rational mode when no floor
    is given).  Rational candidates use denominators up to
    ``GEN_DENOMINATOR_LIMIT``.  Densely layered media may exhaust the
    ``GEN_MAX_ATTEMPTS`` draws for tight floors: that is an error, not a
    retry loop.
    """
    if layers < 1:
        raise ValidationError("need at least one layer")
    rng = random.Random(seed)
    lo, hi = refl_range
    if not 0 < lo < hi < 1:
        raise ValidationError("reflection range must satisfy 0 < lo < hi < 1")
    for _ in range(GEN_MAX_ATTEMPTS):
        tau = [rng.uniform(*GEN_TAU_RANGE) for _ in range(layers + 1)]
        refl = [rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))
                for _ in range(layers + 1)]
        if rational:
            tau = [Fraction(t).limit_denominator(GEN_DENOMINATOR_LIMIT)
                   for t in tau]
            refl = [Fraction(r).limit_denominator(GEN_DENOMINATOR_LIMIT)
                    for r in refl]
        model = Model(tuple(tau), tuple(refl))
        report = is_generic(model)
        if not report.generic:
            continue
        if margin_floor is not None and not report.margin >= margin_floor:
            continue
        return model
    raise AlgorithmError(
        f"no generic model with margin >= {margin_floor} found in "
        f"{GEN_MAX_ATTEMPTS} attempts at {layers} layers")


# ---------------------------------------------------------------------------
# I/O helpers

def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


def _write_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)


def _read_model(path: str, rational: bool) -> Model:
    return model_from_dict(_read_json(path), rational=rational)


def _read_data(path: str, rational: bool) -> Data:
    return data_from_dict(_read_json(path), rational=rational)


def _parse_scalar(text: str, rational: bool) -> Scalar:
    try:
        if rational or "/" in text:
            return Fraction(text)
        value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad number {text!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"non-finite number {text!r}")
    return value


# ---------------------------------------------------------------------------
# command handlers

def _cmd_forward(args) -> int:
    model = _read_model(args.model, args.rational)
    t_max = _parse_scalar(args.t_max, model.rational) if args.t_max else None
    data, em = forward(model, t_max=t_max, max_terms=args.max_terms)
    _write_json(data_to_dict(data), args.out)
    if args.emit_psi:
        with open(args.emit_psi, "w", encoding="utf-8", newline="") as fp:
            writer = csv.writer(fp)
            width = len(model.tau)
            writer.writerow([f"k{i}" for i in range(width)]
                            + ["time", "amplitude", "psi"])
            for k, t, a in zip(em.lattice.ks, em.lattice.times,
                               em.amplitudes):
                writer.writerow(list(k) + [scalar_text(t), scalar_text(a),
                                           em.psi[k]])
    return 0


def _cmd_invert(args) -> int:
    data = _read_data(args.data, args.rational)
    tol = _parse_scalar(args.tol, data.rational) if args.tol else None
    opts = InverseOptions(time_tol=tol, robust=args.robust,
                          max_terms=args.max_terms)
    report = invert(data, opts)
    _write_json(model_to_dict(report.model), args.out)
    if args.report:
        obj = {
            "model": model_to_dict(report.model),
            "rejected_arrivals": [[scalar_to_json(t), scalar_to_json(a)]
                                  for t, a in report.rejected_arrivals],
            "primary_indices": list(report.primary_indices),
            "matched": {str(j): list(k)
                        for j, k in sorted(report.matched.items())},
        }
        _write_json(obj, args.report)
    return 0


def _cmd_correct(args) -> int:
    data = _read_data(args.data, args.rational)
    model = _read_model(args.model, args.rational)
    ctol = (_parse_scalar(args.cluster_tol, model.rational)
            if args.cluster_tol else None)
    if args.reinvert:
        report = invert(data, InverseOptions(max_terms=args.max_terms))
    else:
        report = InverseReport(model=model, rejected_arrivals=(),
                               matched={}, primary_indices=())
    corrected, sets = correct_reflectivity(report, data, cluster_tol=ctol,
                                           max_terms=args.max_terms)
    _write_json({"tau": [scalar_to_json(t) for t in model.tau],
                 "R": [scalar_to_json(r) for r in corrected]}, args.out)
    if args.emit_sets:
        with open(args.emit_sets, "w", encoding="utf-8", newline="") as fp:
            writer = csv.writer(fp)
            writer.writerow(["n", "ratio"])
            for n in sorted(sets.ratios):
                for value in sets.ratios[n]:
                    writer.writerow([n, scalar_text(value)])
    return 0


def _cmd_oracle(args) -> int:
    model = _read_model(args.model, args.rational)
    t_max = _parse_scalar(args.t_max, model.rational) if args.t_max else None
    terms, sums = oracle_terms(model, t_max=t_max,
                               max_sequences=args.max_terms)
    data = normalize(terms, rational=model.rational)
    _write_json(data_to_dict(data), args.out)
    if args.per_k:
        width = len(model.tau)
        with open(args.per_k, "w", encoding="utf-8", newline="") as fp:
            writer = csv.writer(fp)
            writer.writerow([f"k{i}" for i in range(width)]
                            + ["time", "weight_sum"])
            for k, w in sorted(sums.items()):
                writer.writerow(list(k) + [scalar_text(dot(model.tau, k)),
                                           scalar_text(w)])
    return 0


def _cmd_distort(args) -> int:
    data = _read_data(args.data, args.rational)
    threshold = (_parse_scalar(args.decimate, data.rational)
                 if args.decimate is not None else None)
    points = []
    for pair in args.spurious or []:
        t_text, _, a_text = pair.partition(":")
        if not a_text:
            raise ValidationError("spurious point must be time:amplitude")
        points.append((_parse_scalar(t_text, data.rational),
                       _parse_scalar(a_text, data.rational)))
    if args.spurious_count:
        if args.seed is None:
            raise ValidationError("--spurious-count needs --seed")
        points.extend(random_spurious(data, args.spurious_count, args.seed))
    sine = None
    if args.sine:
        parts = args.sine.split(":")
        if len(parts) not in (3, 5):
            raise ValidationError("--sine must be A:t_lo:t_hi[:omega:phase]")
        amp = _parse_scalar(parts[0], data.rational)
        lo, hi, *rest = (float(_parse_scalar(p, False)) for p in parts[1:])
        omega, phase = rest or (2.0 * math.pi, 0.0)
        sine = (amp, (lo, hi), omega, phase)
    shift = (_parse_scalar(args.shift, data.rational)
             if args.shift is not None else None)
    ps = PerturbSpec(decimate_threshold=threshold,
                     spurious=points or None, sine=sine, shift=shift)
    _write_json(data_to_dict(ps.apply(data)), args.out)
    return 0


def _cmd_gen(args) -> int:
    floor = (_parse_scalar(args.margin_floor, args.rational)
             if args.margin_floor else None)
    model = gen_random_generic(args.layers, args.seed, margin_floor=floor,
                               refl_range=(args.refl_lo, args.refl_hi),
                               rational=args.rational)
    _write_json(model_to_dict(model), args.out)
    return 0


def _cmd_lattice(args) -> int:
    model = _read_model(args.model, args.rational)
    bound = (_parse_scalar(args.bound, model.rational) if args.bound
             else total_travel_time(model))
    ls = enumerate_lattice_set(model.tau, bound, max_terms=args.max_terms)
    if args.out is None or args.out == "-":
        write_lattice_csv(ls, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fp:
            write_lattice_csv(ls, fp)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerwave",
        description="Exact forward/inverse engine for layered-media "
                    "impulse responses")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_model=False, needs_data=False):
        if needs_model:
            p.add_argument("model", help="model JSON path")
        if needs_data:
            p.add_argument("data", help="data JSON path")
        p.add_argument("--rational", action="store_true",
                       help="exact arithmetic (floats convert to exact "
                            "binary fractions)")
        p.add_argument("--max-terms", type=int, default=None,
                       help="enumeration guard override")
        p.add_argument("--out", "-o", default=None,
                       help="output path (default stdout)")

    p = sub.add_parser("forward", help="model -> data")
    common(p, needs_model=True)
    p.add_argument("--t-max", default=None,
                   help="time window (default: total travel time)")
    p.add_argument("--emit-psi", default=None,
                   help="CSV path for the enumeration map")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("invert", help="data -> model")
    common(p, needs_data=True)
    p.add_argument("--robust", action="store_true",
                   help="reject spurious arrivals")
    p.add_argument("--tol", default=None, help="time matching tolerance")
    p.add_argument("--report", default=None,
                   help="JSON path for the full inversion report")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("correct",
                       help="repair reflectivities from redundancy")
    common(p, needs_data=True)
    p.add_argument("model", help="recovered model JSON path")
    p.add_argument("--cluster-tol", default=None,
                   help="ratio clustering tolerance")
    p.add_argument("--reinvert", action="store_true",
                   help="run the inversion instead of trusting the model file")
    p.add_argument("--emit-sets", default=None,
                   help="CSV path for the ratio sets")
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("oracle",
                       help="model -> data by explicit path enumeration")
    common(p, needs_model=True)
    p.add_argument("--t-max", default=None)
    p.add_argument("--per-k", default=None,
                   help="CSV path for weight sums per transit vector")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("distort", help="perturb a data file")
    common(p, needs_data=True)
    p.add_argument("--decimate", default=None, metavar="THRESHOLD")
    p.add_argument("--spurious", action="append", metavar="TIME:AMP")
    p.add_argument("--spurious-count", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sine", default=None, metavar="A:T_LO:T_HI[:OMEGA:PHASE]")
    p.add_argument("--shift", default=None, metavar="KAPPA")
    p.set_defaults(func=_cmd_distort)

    p = sub.add_parser("gen", help="random generic model")
    common(p)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--margin-floor", default=None)
    p.add_argument("--refl-lo", type=float, default=0.05)
    p.add_argument("--refl-hi", type=float, default=0.8)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("lattice", help="transit vector CSV for a model")
    common(p, needs_model=True)
    p.add_argument("--bound", default=None,
                   help="time bound (default: total travel time)")
    p.set_defaults(func=_cmd_lattice)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        _fail(exc)
        return EXIT_VALIDATION
    except GuardExceededError as exc:
        _fail(exc)
        return EXIT_GUARD
    except LayerwaveError as exc:  # AlgorithmError and any other failure
        _fail(exc)
        return EXIT_ALGORITHM
    except (OSError, json.JSONDecodeError) as exc:
        _fail(exc)
        return EXIT_IO


def _fail(exc: Exception) -> None:
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
