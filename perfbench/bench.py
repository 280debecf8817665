"""Workloads, correctness gate and metrics of the layerwave pipeline benchmark.

Three workloads, one process, one thread.  Each draws a fresh model per
iteration from its recipe and the seed, sets it up (timed as set-up), runs
its pipeline (each operation timed on its own), then checks every output
(untimed) before any figure is reported:

* ``float-deep`` -- float, 14 layers, about 7k lattice vectors:
  ``forward`` -> ``invert`` -> ``correct_reflectivity`` on the clean data.
  Amplitude evaluation dominates ``forward``; the Stage I matching loop
  dominates ``invert``.
* ``rational-exact`` -- the same recipe in rational mode at 12 layers,
  about 2.1k vectors.  Fraction arithmetic dominates.
* ``noisy-repair`` -- rational, 11 layers, about 1.5k vectors.  The clean
  ``forward`` is set-up; the pipeline is (a) 24 seeded spurious arrivals
  later than the second arrival and ``invert(robust=True)``, then (b) the
  README's command-line sequence, in process on files: ``invert`` the
  clean data, ``distort --sine`` it, ``correct`` the distorted data.  No
  amplitude is evaluated in the pipeline, so this is the control for
  amplitude changes.

End-to-end figures, per workload: ``forward_p50_s``, ``invert_p50_s``,
``correct_p50_s`` (median over models of seconds per call), ``models_per_s``
(models per second of pipeline time), ``setup_s`` (median seconds to set
up one model).  Timings are calibrated against a
reference kernel (see :func:`calibrated`).  On
``noisy-repair`` the forward calls are the set-up's, ``invert`` is the
robust inversion and ``correct`` is the ``layerwave correct`` command.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import statistics
import struct
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import layerwave
from layerwave import (Data, InverseOptions, LayerwaveError, add_spurious,
                       amplitude_eval, correct_reflectivity, forward, invert,
                       kernels, random_spurious, validate_model)
from layerwave import cli

from spans import Tracer

FLOAT_TOL = 1e-9            # round trip, correction and float-vs-exact amplitudes
AMPLITUDE_SAMPLES = 16      # float amplitudes checked against exact arithmetic
CANDIDATES = 32             # draws per model, the nearest to the target size kept
SPURIOUS = 24               # spurious arrivals per noisy-repair model
PRIMARY_GAP = Fraction(1, 20)  # no spurious arrival this soon after a primary
SINE_AMPLITUDE = "1/1000000"  # small enough that plain Stage II stays in (-1, 1)

#: reference kernel: a fixed amount of the kinds of Python work layerwave
#: does (a float lattice count, Fraction products), timed around each
#: operation; REFERENCE_SECONDS is its time on an idle machine
REFERENCE_TAU = tuple(1 + (n % 5) / 7 for n in range(12))
REFERENCE_FRACTIONS = tuple(Fraction(n - 8, 17) for n in range(16))
REFERENCE_SECONDS = 0.007

OPS = ("forward", "invert", "correct")
END_TO_END_UNITS = {"forward_p50_s": "s", "invert_p50_s": "s",
                    "correct_p50_s": "s", "models_per_s": "1/s",
                    "setup_s": "s"}


@dataclass(frozen=True)
class Recipe:
    """How one workload draws its models (test_06 family by default).

    Travel times are uniform over ``tau_range`` and reflection magnitudes
    over (0.05, 0.8) with random signs; rational recipes round both to
    denominators of at most 1000.  ``vectors`` is the target lattice size.
    """

    name: str
    layers: int
    tau_range: tuple[float, float]
    rational: bool
    vectors: int
    pipeline: str = "library"


WORKLOADS = {
    "float-deep": Recipe("float-deep", 14, (0.8, 2.0), False, 7000),
    "rational-exact": Recipe("rational-exact", 12, (0.8, 2.0), True, 2100),
    "noisy-repair": Recipe("noisy-repair", 11, (0.4, 2.0), True, 1500,
                           pipeline="noisy"),
}

COMMON_SPANS = ("forward", "lattice.enumerate", "amplitude.eval",
                "core.cluster", "inverse.invert", "lattice.restricted",
                "inverse.correct", "inverse.redundancy_pairs",
                "inverse.consensus")
NOISY_SPANS = ("perturb.spurious", "perturb.sine", "core.normalize", "cli",
               "core.json")


# ---------------------------------------------------------------------------
# recipe

def count_vectors(tau, cap: int) -> int:
    """Size of the lattice set of ``tau`` (counted here, not by layerwave).

    Stops counting past ``cap``.  Times accumulate in the same order as
    the library's float search, so float counts agree with it exactly;
    rational recipes are sized by the float count of their travel times.
    """
    width = len(tau)
    bound = tau[0]
    for t in tau[1:]:
        bound = bound + t
    total = 0
    stack = [(1, tau[0])]
    while stack and total <= cap:
        n, t = stack.pop()
        total += 1
        if n == width:
            continue
        c = 1
        while t + c * tau[n] <= bound:
            stack.append((n + 1, t + c * tau[n]))
            c += 1
    return total


def reference_time() -> float:
    """Seconds the reference kernel takes now."""
    start = perf_counter()
    count_vectors(REFERENCE_TAU, 10 ** 6)
    acc = Fraction(1)
    for a in REFERENCE_FRACTIONS:
        for b in REFERENCE_FRACTIONS:
            acc = (acc * (1 - a * b) + a).limit_denominator(10 ** 9)
    return perf_counter() - start


def calibrated(seconds: float, ref_before: float) -> float:
    """``seconds`` at reference speed: scaled by the reference kernel's
    nominal time over its mean time just before and just after."""
    return seconds * 2 * REFERENCE_SECONDS / (ref_before + reference_time())


def partial_sums(tau) -> list:
    """Primary arrival times: the running sums of the travel times."""
    partial = [tau[0]]
    for t in tau[1:]:
        partial.append(partial[-1] + t)
    return partial


def robust_separable(tau) -> bool:
    """Every layer opened below the second explains more than its primary.

    Robust inversion rejects an arrival whose layer explains nothing else
    before the last arrival, so a model whose last layer is thinner than
    all those above it loses its deepest primary.  That is a limitation of
    the algorithm, not a fault the benchmark should count.
    """
    partial = partial_sums(tau)
    return all(partial[n] + min(tau[1:n + 1]) <= partial[-1]
               for n in range(1, len(tau) - 1))


def draw_model(recipe: Recipe, seed: int, index: int):
    """Model ``index`` of ``seed``'s sequence, plus a seed for its noise.

    Of :data:`CANDIDATES` draws the one whose lattice size is nearest
    ``recipe.vectors`` is kept, so every model costs about the same, and
    so does setting one up.
    """
    rng = random.Random(f"{recipe.name}/{seed}/{index}")
    best = None
    counted = 0
    while counted < CANDIDATES:
        tau = [rng.uniform(*recipe.tau_range) for _ in range(recipe.layers + 1)]
        refl = [rng.uniform(0.05, 0.8) * rng.choice((-1, 1))
                for _ in range(recipe.layers + 1)]
        if recipe.rational:
            tau = [Fraction(t).limit_denominator(1000) for t in tau]
            refl = [Fraction(r).limit_denominator(1000) for r in refl]
        if recipe.pipeline == "noisy" and not robust_separable(tau):
            continue
        counted += 1
        size = count_vectors([float(t) for t in tau], 2 * recipe.vectors)
        if best is None or abs(size - recipe.vectors) < best[0]:
            best = (abs(size - recipe.vectors), tau, refl)
    return validate_model(best[1], best[2]), rng.randrange(2 ** 32)


# ---------------------------------------------------------------------------
# digests: canonical forms independent of layerwave's own JSON code

def _canon(x):
    return str(x) if isinstance(x, Fraction) else float(x).hex()


def digest(*vectors) -> str:
    text = json.dumps([[_canon(x) for x in v] for v in vectors],
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def model_key(model) -> str:
    return digest(model.tau, model.refl)


def bits_digest(values) -> str:
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)
                          ).hexdigest()[:16]


def read_json_file(path: str, keys) -> list:
    """The vectors of a command-line JSON file, numbers parsed exactly."""
    with open(path, encoding="utf-8") as fp:
        obj = json.load(fp)
    return [[Fraction(v) for v in obj[k]] for k in keys]


# ---------------------------------------------------------------------------
# one run

@dataclass
class Run:
    """Timings, failures and work counters of one benchmark run."""

    recipe: Recipe
    seed: int
    digests: dict
    record: bool = False
    tracer: Tracer = field(default_factory=Tracer)
    times: dict = field(default_factory=dict)  # op -> calibrated seconds
    raw_times: dict = field(default_factory=dict)  # op -> seconds
    setup_times: list = field(default_factory=list)
    pipeline_times: list = field(default_factory=list)
    index: int = 0  # the model being run
    attempted: int = 0
    failures: list = field(default_factory=list)
    digests_checked: int = 0
    digests_missing: int = 0
    models: int = 0
    trace_overhead: float = 0.0
    workdir: str = ""

    def op(self, name, span, fn, *args, **kwargs):
        """Run one timed operation; its errors count as failures."""
        self.attempted += 1
        ref = reference_time()
        start = perf_counter()
        try:
            result = self.tracer.call(span, fn, *args, **kwargs)
        except Exception as exc:  # noqa: BLE001 -- a failed call is counted
            self.failures.append((name, f"{type(exc).__name__}: {exc}"))
            return None
        elapsed = perf_counter() - start
        self.raw_times.setdefault(name, []).append(elapsed)
        self.times.setdefault(name, []).append(calibrated(elapsed, ref))
        return result

    def judge(self, name, causes) -> bool:
        """Record a wrong output of the last ``name`` call, if any cause."""
        causes = [c for c in causes if c]
        if causes:
            self.failures.append((name, "; ".join(causes)))
        return not causes

    def expect(self, key, label, value) -> str | None:
        """Compare ``value`` with the stored digest; record it if absent."""
        table = self.digests.setdefault(self.recipe.name, {})
        entry = table.setdefault(key, {}) if self.record else table.get(key, {})
        if label not in entry:
            if self.record:
                entry[label] = value
            else:
                self.digests_missing += 1
            return None
        self.digests_checked += 1
        if entry[label] != value:
            return f"{label} digest {value} != stored {entry[label]}"
        return None

    @property
    def failed(self) -> int:
        return len(self.failures)


def _close(a, b, rel=False) -> bool:
    return abs(a - b) <= FLOAT_TOL * (abs(b) if rel else 1.0)


def _model_causes(model, truth, label):
    if model.layers != truth.layers:
        return [f"{label}: {model.layers} layers, expected {truth.layers}"]
    if truth.rational:
        return [] if model == truth else [f"{label}: model is not exact"]
    bad = [i for i, (a, b) in enumerate(zip(model.tau, truth.tau))
           if not _close(a, b, rel=True)]
    bad += [i for i, (a, b) in enumerate(zip(model.refl, truth.refl))
            if not _close(a, b)]
    return [f"{label}: entries {bad} off by more than {FLOAT_TOL}"] if bad else []


def _exact_amplitude_causes(model, data, em):
    """Float amplitudes at sampled arrivals against exact evaluation."""
    d = len(data)
    wanted = {round(i * (d - 1) / (AMPLITUDE_SAMPLES - 1))
              for i in range(AMPLITUDE_SAMPLES)}
    exact_refl = [Fraction(r) for r in model.refl]
    sums = dict.fromkeys(wanted, Fraction(0))
    for k in em.lattice.ks:
        j = em.psi[k] - 1
        if j in sums:
            sums[j] += amplitude_eval(exact_refl, k)
    bad = [j for j, s in sums.items() if not _close(data.alpha[j], float(s))]
    return [f"forward: amplitudes at {sorted(bad)} differ from exact "
            f"evaluation by more than {FLOAT_TOL}"] if bad else []


def library_pipeline(run: Run, model, key) -> bool:
    """forward -> invert -> correct_reflectivity on the clean data."""
    out = run.op("forward", "forward", forward, model)
    if out is None:
        return False
    data, em = out
    if model.rational:
        causes = [run.expect(key, "data", digest(data.sigma, data.alpha))]
    else:
        causes = [run.expect(key, "sigma_bits", bits_digest(data.sigma))]
        causes += _exact_amplitude_causes(model, data, em)
    if not run.judge("forward", causes):
        return False
    if run.record:  # the digests come from forward alone
        return True
    report = run.op("invert", "inverse.invert", invert, data)
    if report is None or not run.judge(
            "invert", _model_causes(report.model, model, "invert")):
        return False
    out = run.op("correct", "inverse.correct", correct_reflectivity,
                 report, data)
    if out is None:
        return False
    corrected = validate_model(model.tau, out[0])
    return run.judge("correct", _model_causes(corrected, model, "correct"))


def _window(model):
    """Sine window from between primaries 1 and 2 to between M-4 and M-3."""
    m = model.layers
    partial = partial_sums(model.tau)
    return (float((partial[1] + partial[2]) / 2),
            float((partial[m - 4] + partial[m - 3]) / 2))


def _spurious(data, partials, noise_seed):
    """:data:`SPURIOUS` seeded arrivals after the second arrival, none
    within :data:`PRIMARY_GAP` after a primary.

    Robust inversion opens a layer at a spurious arrival with travel time
    equal to its gap after the previous primary, and its restricted
    enumeration grows without bound as that gap shrinks (26 s and 420 MB at
    a gap of 2e-4, against about 1 s at gaps above 0.05): a known defect,
    kept out of this workload so that its timings measure the common case.
    """
    tail = Data(data.sigma[1:], data.alpha[1:])
    drawn = random_spurious(tail, 2 * SPURIOUS, noise_seed)
    points = [(t, a) for t, a in drawn
              if all(not 0 < t - p < PRIMARY_GAP for p in partials)]
    if len(points) < SPURIOUS:
        raise LayerwaveError("too few spurious arrivals clear of primaries")
    points = points[:SPURIOUS]
    return points, add_spurious(data, points)


def _cli(args) -> int:
    code = cli.main(args)
    if code:
        raise LayerwaveError(f"layerwave {args[0]} exited with code {code}")
    return code


def noisy_setup(run: Run, model) -> Data:
    out = run.op("forward", "forward", forward, model)
    if out is None:
        return None
    data = out[0]
    with open(os.path.join(run.workdir, f"{run.index}-data.json"), "w",
              encoding="utf-8") as fp:
        json.dump(layerwave.data_to_dict(data), fp)
    return data


def _cli_steps(run: Run, model, key, steps) -> bool:
    for name, args, output, keys in steps:
        if run.op(name, "cli", _cli, args) is None:
            return False
        vectors = read_json_file(output, keys)
        if name == "cli_distort":
            causes = [run.expect(key, name, digest(*vectors))]
        else:
            causes = _model_causes(validate_model(*vectors), model, name)
        if not run.judge(name, causes):
            return False
    return True


def noisy_pipeline(run: Run, model, key, data, noise_seed) -> bool:
    """Robust inversion of spurious data, then the sine repair by command."""
    # the README order: invert the clean data, distort it, repair it
    path = lambda name: os.path.join(  # noqa: E731
        run.workdir, f"{run.index}-{name}")
    lo, hi = _window(model)
    steps = (
        ("cli_invert", ["invert", path("data.json"), "--rational",
                        "--out", path("recovered.json")],
         path("recovered.json"), ("tau", "R")),
        ("cli_distort", ["distort", path("data.json"), "--rational",
                         "--sine", f"{SINE_AMPLITUDE}:{lo!r}:{hi!r}",
                         "--out", path("distorted.json")],
         path("distorted.json"), ("sigma", "alpha")),
        ("correct", ["correct", path("distorted.json"),
                     path("recovered.json"), "--rational",
                     "--out", path("corrected.json")],
         path("corrected.json"), ("tau", "R")),
    )
    if not run.judge("forward", [run.expect(key, "data",
                                            digest(data.sigma, data.alpha))]):
        return False
    if run.record:  # only the set-up data and the distortion are digested
        return _cli_steps(run, model, key, steps[1:2])

    out = run.op("spurious", "perturb.spurious", _spurious, data,
                 partial_sums(model.tau), noise_seed)
    if out is None:
        return False
    points, noisy = out
    report = run.op("invert", "inverse.invert", invert, noisy,
                    InverseOptions(robust=True))
    if report is None:
        return False
    causes = _model_causes(report.model, model, "robust invert")
    if sorted(t for t, _ in report.rejected_arrivals) != \
            sorted(t for t, _ in points):
        causes.append("robust invert: rejected arrivals are not the "
                      f"{SPURIOUS} spurious ones")
    if not run.judge("invert", causes):
        return False
    return _cli_steps(run, model, key, steps)


PIPELINE_OPS = {"library": OPS,
                "noisy": ("spurious", "invert", "cli_invert", "cli_distort",
                          "correct")}


def _pipeline_pass(run: Run, inputs, traced: bool, spent: dict) -> None:
    model, key, data, noise_seed = inputs
    ops = PIPELINE_OPS[run.recipe.pipeline]
    before = {op: len(run.times.get(op, ())) for op in ops}
    run.tracer.enabled = traced
    if run.recipe.pipeline == "noisy":
        ok = data is not None and noisy_pipeline(run, model, key, data,
                                                 noise_seed)
    else:
        ok = library_pipeline(run, model, key)
    run.tracer.enabled = False
    total = sum(sum(run.times.get(op, ())[before[op]:]) for op in ops)
    if ok:
        run.pipeline_times.append(total)
    spent[traced] += total


def run_workload(recipe: Recipe, seed: int, seconds: float | None = None,
                 models: int | None = None, trace: bool = False,
                 digests: dict | None = None, record: bool = False) -> Run:
    """Set up and run models for about ``seconds``, or ``models`` models.

    With ``trace``, models are set up and run for half the time, then every
    pipeline runs again; set-up and one of each model's two runs
    (alternately the first and the second) are traced, the other is not.
    """
    run = Run(recipe, seed, {} if digests is None else digests, record)
    prepared = []
    spent = {True: 0.0, False: 0.0}
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=_checkout_root()) as workdir:
        run.workdir = workdir
        if trace:
            run.tracer.install()
        try:
            deadline = math.inf if seconds is None else \
                perf_counter() + (seconds / 2 if trace else seconds)
            while perf_counter() < deadline and (models is None
                                                 or len(prepared) < models):
                run.index = len(prepared)
                run.tracer.enabled = trace
                ref = reference_time()
                start = perf_counter()
                model, noise_seed = draw_model(recipe, seed, run.index)
                data = noisy_setup(run, model) if recipe.pipeline == "noisy" \
                    else None
                run.setup_times.append(calibrated(perf_counter() - start, ref))
                prepared.append((model, model_key(model), data, noise_seed))
                _pipeline_pass(run, prepared[-1],
                               trace and run.index % 2 == 0, spent)
            for run.index, inputs in enumerate(prepared if trace else []):
                _pipeline_pass(run, inputs, run.index % 2 == 1, spent)
        finally:
            run.tracer.enabled = False
            run.tracer.uninstall()
    run.models = len(prepared)
    run.trace_overhead = (spent[True] - spent[False]) / max(run.models, 1)
    return run


def _checkout_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# metrics

def end_to_end(run: Run) -> dict:
    values = {f"{op}_p50_s": statistics.median(run.times[op]) for op in OPS}
    values["models_per_s"] = len(run.pipeline_times) / sum(run.pipeline_times)
    values["setup_s"] = statistics.median(run.setup_times)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def per_layer(run: Run) -> dict:
    t = run.tracer
    m = run.models
    evals = t.counts["amplitude.evals"]
    units = {}

    def put(name, value, unit):
        units[name] = {"value": value, "unit": unit}

    put("amplitude.eval_s", t.self_time["amplitude.eval"] / m, "s")
    put("amplitude.evals", evals / m, "count")
    put("amplitude.us_per_eval",
        1e6 * t.self_time["amplitude.eval"] / evals, "us")
    put("inverse.invert_self_s", t.self_time["inverse.invert"] / m, "s")
    put("inverse.restricted_hit_ratio", t.counts["inverse.explained"]
        / t.counts["lattice.restricted_vectors"], "ratio")
    put("inverse.rejections", t.counts["inverse.rejections"] / m, "count")
    put("lattice.restricted_s", t.self_time["lattice.restricted"] / m, "s")
    put("lattice.restricted_calls", t.calls["lattice.restricted"] / m,
        "count")
    put("lattice.restricted_vectors",
        t.counts["lattice.restricted_vectors"] / m, "count")
    put("lattice.enumerate_s", t.self_time["lattice.enumerate"] / m, "s")
    put("lattice.enumerate_calls", t.calls["lattice.enumerate"] / m, "count")
    put("lattice.vectors", t.counts["lattice.vectors"] / m, "count")
    put("forward.self_s", t.self_time["forward"] / m, "s")
    put("forward.arrivals", t.counts["forward.arrivals"] / m, "count")
    put("forward.merged_vectors", t.counts["forward.merged_vectors"] / m,
        "count")
    put("core.cluster_s", t.self_time["core.cluster"] / m, "s")
    put("inverse.correct_self_s", t.self_time["inverse.correct"] / m, "s")
    put("inverse.redundancy_pairs_s",
        t.self_time["inverse.redundancy_pairs"] / m, "s")
    put("inverse.consensus_s", t.self_time["inverse.consensus"] / m, "s")
    put("inverse.ratio_votes", t.counts["inverse.ratio_votes"] / m, "count")
    put("perturb.calls", (t.calls["perturb.spurious"]
                          + t.calls["perturb.sine"]) / m, "count")
    put("cli.calls", t.calls["cli"] / m, "count")
    put("trace.overhead_s", run.trace_overhead, "s")
    return units


def noisy_only_layers(run: Run) -> dict:
    """Self seconds per model of the layers only noisy-repair enters."""
    t = run.tracer
    return {f"{span}_s": t.self_time[span] / run.models
            for span in ("perturb.spurious", "perturb.sine", "core.normalize",
                         "cli", "core.json")}


def percentiles(values) -> dict:
    """Median and the highest percentile with at least ten samples above."""
    n = len(values)
    out = {"n": n, "p50": statistics.median(values)}
    if n > 10:
        p = (100 * (n - 10)) // n
        out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
    return out


def environment(run: Run) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": run.recipe.name,
        "seed": run.seed,
        "compiled_kernels": kernels.compiled_available(),
        "LAYERWAVE_PURE": bool(os.environ.get("LAYERWAVE_PURE")),
        "LAYERWAVE_MAX_TERMS": bool(os.environ.get("LAYERWAVE_MAX_TERMS")),
        "digests_checked": run.digests_checked,
        "digests_missing": run.digests_missing,
    }


def report(run: Run, trace: bool) -> dict:
    out = {
        "env": environment(run),
        "models": run.models,
        "failed_ratio": run.failed / max(run.attempted, 1),
        "failures": run.failures,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "timings_s": {op: percentiles(v) for op, v in sorted(run.times.items())},
        "raw_p50_s": {op: statistics.median(v)
                      for op, v in sorted(run.raw_times.items())},
    }
    if trace and run.recipe.pipeline == "noisy":
        out["noisy_only_layers"] = noisy_only_layers(run)
    return out
