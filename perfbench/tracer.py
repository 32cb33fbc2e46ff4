"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry point of each layer -- study,
optimizer, engine, Monte Carlo, testbench, solver and results store -- with a
function that records a span (name, start, end, parent span, study id) and
the work counts found in the call's arguments and result.  Module-level
functions are replaced in every ``repro`` module that holds them, methods on
their class.  Leaving the ``with`` block puts every original object back.

A span's self time is its duration minus the durations of the wrapped calls
nested directly inside it; everything here runs on one thread, so nested
spans never overlap.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from dataclasses import dataclass, field

_ITERATIONS = re.compile(r"after (\d+) Newton iterations")


@dataclass
class Span:
    name: str
    start: float
    parent: int
    study: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------- #
# work counts taken from a call: (span, args, result, exception) -> None  #
# ---------------------------------------------------------------------- #
def _count_rows(span, args, result, exc):
    x = args[1]
    span.counts["rows"] = len(x) if getattr(x, "ndim", 2) > 1 else 1


def _count_designs(span, args, result, exc):
    span.counts["designs"] = len(args[1])


def _count_samples(span, args, result, exc):
    span.counts["samples"] = 0 if result is None else int(result.n_samples)


def _count_bench_run(span, args, result, exc):
    span.counts["runs"] = 1
    span.counts["failed"] = int(result is None or not result.ok)


def _count_bench_batch(span, args, result, exc):
    outcomes = result or []
    span.counts["jobs"] = len(outcomes)
    span.counts["failed"] = sum(not getattr(r, "ok", False) for r in outcomes)
    if exc is not None:
        span.counts["raised"] = 1


def _count_dc(span, args, result, exc):
    if result is None:
        # A solve with raise_on_failure ends in ConvergenceError, whose
        # message carries the iteration count.
        match = _ITERATIONS.search(str(exc))
        span.counts.update(solves=1, converged=0,
                           iterations=int(match.group(1)) if match else 0)
    else:
        span.counts.update(solves=1, converged=int(result.converged),
                           iterations=int(result.iterations))


def _count_dc_batch(span, args, result, exc):
    if result is None:
        span.counts["raised"] = 1
        return
    span.counts["solves"] = len(result)
    span.counts["iterations"] = sum(int(op.iterations) for op in result)
    span.counts["converged"] = sum(bool(op.converged) for op in result)


def _count_tran(span, args, result, exc):
    results = result if isinstance(result, list) else [result]
    results = [r for r in results if hasattr(r, "n_accepted")]
    span.counts["accepted"] = sum(int(r.n_accepted) for r in results)
    span.counts["rejected"] = sum(int(r.n_rejected) for r in results)


def _count_call(span, args, result, exc):
    span.counts["calls"] = 1


#: (module, attribute path, span name, counter).  A dotted path is a method
#: on a class; a plain name is a module function, replaced wherever a
#: ``repro`` module holds it.
TARGETS = (
    ("repro.study.study", "Study.run", "study.run", None),
    ("repro.study.spec", "StudySpec.build_problem", "study.build_problem", None),
    ("repro.study.spec", "StudySpec.build_source", "study.source_build", None),
    ("repro.bo.base", "BaseOptimizer.step", "opt.step", None),
    ("repro.core.kato", "KATO.step", "opt.step", None),
    ("repro.core.kato", "KATO.propose", "opt.propose", None),
    ("repro.bo.random_search", "RandomSearch.propose", "opt.propose", None),
    ("repro.gp.gpr", "GPRegression.fit", "gp.fit", _count_call),
    ("repro.core.kat_gp", "KATGP.fit", "kat.fit", _count_call),
    ("repro.moo.nsga2", "NSGA2.minimize", "moo.nsga2", None),
    ("repro.acquisition.ensemble", "MACEObjectives.__call__", "acq.eval", _count_rows),
    ("repro.acquisition.ensemble", "ConstrainedMACEObjectives.__call__",
     "acq.eval", _count_rows),
    ("repro.acquisition.ensemble", "ModifiedConstrainedMACEObjectives.__call__",
     "acq.eval", _count_rows),
    ("repro.engine.engine", "EvaluationEngine.evaluate_batch",
     "engine.evaluate_batch", _count_designs),
    ("repro.mc.runner", "MonteCarloRunner.run", "mc.run", _count_samples),
    ("repro.bench.simulator", "Simulator.run", "bench.run", _count_bench_run),
    ("repro.bench.batch", "BatchSimulator.run", "bench.run_batch", _count_bench_batch),
    ("repro.spice.dc", "dc_operating_point", "spice.dc", _count_dc),
    ("repro.spice.dc", "dc_operating_point_batch", "spice.dc_batch", _count_dc_batch),
    ("repro.spice.transient", "transient_analysis", "spice.tran", _count_tran),
    ("repro.spice.transient", "transient_analysis_batch", "spice.tran_batch", _count_tran),
    ("repro.spice.ac", "ac_analysis", "spice.ac", None),
    ("repro.spice.ac", "ac_analysis_batch", "spice.ac_batch", None),
    ("repro.spice.noise", "noise_analysis", "spice.noise", None),
    ("repro.service.store", "ResultsStore.write_batch_record", "store.write", _count_call),
)

#: Layer groups for the self-time split, by span-name prefix.
LAYERS = {
    "study": ("study.",),
    "optimizer": ("opt.", "gp.", "kat.", "moo.", "acq."),
    "engine": ("engine.",),
    "mc": ("mc.",),
    "bench": ("bench.",),
    "spice.dc": ("spice.dc",),
    "spice.dc_batch": ("spice.dc_batch",),
    "spice.tran": ("spice.tran",),
    "spice.tran_batch": ("spice.tran_batch",),
    "spice.ac": ("spice.ac",),
    "spice.noise": ("spice.noise",),
    "store": ("store.",),
}


def layer_of(name: str) -> str:
    """The layer group of a span name (the longest matching prefix wins)."""
    best, length = "other", -1
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if (name == prefix or name.startswith(prefix)) and len(prefix) > length:
                best, length = layer, len(prefix)
    return best


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Records spans while installed; a context manager that restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._studies = 0
        self._patches: list[tuple] = []     # (owner, attr, original, wrapper)

    # ------------------------------------------------------------------ #
    # install / restore                                                   #
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Tracer":
        try:
            for module_name, path, span_name, counter in TARGETS:
                self._install(module_name, path, span_name, counter)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _install(self, module_name, path, span_name, counter) -> None:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, original,
                        self._wrap(span_name, original, counter))
            return
        original = getattr(module, path)
        wrapper = self._wrap(span_name, original, counter)
        for holder in _repro_modules():
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patch(holder, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original, wrapper))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back (idempotent).

        A ``repro`` module first imported while tracing may have copied a
        wrapper into its namespace; those copies are put back too.
        """
        patches, self._patches = self._patches, []
        originals = {id(wrapper): original for _, _, original, wrapper in patches}
        for owner, attr, original, _ in reversed(patches):
            setattr(owner, attr, original)
        for holder in _repro_modules():
            for attr, value in list(vars(holder).items()):
                if id(value) in originals:
                    setattr(holder, attr, originals[id(value)])

    # ------------------------------------------------------------------ #
    # spans                                                               #
    # ------------------------------------------------------------------ #
    def _wrap(self, span_name, func, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0:
                study = spans[parent].study
            else:
                study = self._studies
                self._studies += 1
            span = Span(span_name, clock(), parent, study)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                stack.pop()
                if counter is not None:
                    counter(span, args, None, exc)
                raise
            span.end = clock()
            stack.pop()
            if counter is not None:
                counter(span, args, result, None)
            return result

        return traced

    def to_json(self, origin: float) -> list[dict]:
        """Spans as plain data, times in seconds from ``origin``."""
        return [{"name": s.name, "start": s.start - origin, "end": s.end - origin,
                 "parent": s.parent, "study": s.study, **s.counts}
                for s in self.spans]


# ---------------------------------------------------------------------- #
# per-layer metrics of one traced study                                   #
# ---------------------------------------------------------------------- #
def layer_metrics(tracer: Tracer, study: int) -> tuple[dict, dict]:
    """Every per-layer metric of one traced study, and its self time by layer."""
    spans = tracer.spans
    members = [i for i, span in enumerate(spans) if span.study == study]
    own = {i: spans[i].duration for i in members}
    for i in members:
        parent = spans[i].parent
        if parent >= 0:
            own[parent] -= spans[i].duration

    def outer(name):
        # Spans of ``name`` not nested inside another span of the same name.
        found = []
        for i in members:
            if spans[i].name != name:
                continue
            parent = spans[i].parent
            while parent >= 0 and spans[parent].name != name:
                parent = spans[parent].parent
            if parent < 0:
                found.append(spans[i])
        return found

    def total(name):
        return sum(span.duration for span in outer(name))

    def count(name, key):
        return sum(span.counts.get(key, 0) for span in outer(name))

    def self_of(name):
        return sum(own[i] for i in members if spans[i].name == name)

    def ratio(num, den):
        return num / den if den else 0.0

    dc_iters = count("spice.dc", "iterations")
    dc_solves = count("spice.dc", "solves")
    bench_runs = count("bench.run", "runs")
    batch_jobs = count("bench.run_batch", "jobs")
    bench_failed = count("bench.run", "failed") + count("bench.run_batch", "failed")
    metrics = {
        "study.source_build_s": total("study.source_build"),
        "study.unattributed_s": self_of("study.run"),
        "opt.steps": len(outer("opt.step")),
        "opt.propose_self_s": self_of("opt.propose"),
        "gp.fit_s": total("gp.fit"),
        "gp.fit_calls": count("gp.fit", "calls"),
        "kat.fit_s": total("kat.fit"),
        "kat.fit_calls": count("kat.fit", "calls"),
        "moo.nsga2_self_s": self_of("moo.nsga2"),
        "acq.eval_s": total("acq.eval"),
        "acq.rows": count("acq.eval", "rows"),
        "engine.evaluate_batch_self_s": self_of("engine.evaluate_batch"),
        "engine.designs": count("engine.evaluate_batch", "designs"),
        "mc.run_self_s": self_of("mc.run"),
        "mc.samples": count("mc.run", "samples"),
        "bench.run_self_s": self_of("bench.run"),
        "bench.runs": bench_runs,
        "bench.run_batch_self_s": self_of("bench.run_batch"),
        "bench.batch_jobs": batch_jobs,
        "bench.fail_frac": ratio(bench_failed, bench_runs + batch_jobs),
        "spice.dc_s": total("spice.dc"),
        "spice.dc_solves": dc_solves,
        "spice.dc_newton_iters": dc_iters,
        "spice.dc_converged_frac": ratio(count("spice.dc", "converged"), dc_solves),
        "spice.dc_ms_per_newton": ratio(1000.0 * total("spice.dc"), dc_iters),
        "spice.dc_batch_s": total("spice.dc_batch"),
        "spice.dc_batch_solves": count("spice.dc_batch", "solves"),
        "spice.dc_batch_newton_iters": count("spice.dc_batch", "iterations"),
        "spice.tran_s": total("spice.tran"),
        "spice.tran_batch_s": total("spice.tran_batch"),
        "spice.tran_steps_accepted": (count("spice.tran", "accepted")
                                      + count("spice.tran_batch", "accepted")),
        "spice.tran_steps_rejected": (count("spice.tran", "rejected")
                                      + count("spice.tran_batch", "rejected")),
        "spice.ac_s": total("spice.ac"),
        "spice.ac_batch_s": total("spice.ac_batch"),
        "spice.noise_s": total("spice.noise"),
        "store.write_s": total("store.write"),
        "store.writes": count("store.write", "calls"),
    }
    split: dict[str, float] = {}
    for i in members:
        layer = layer_of(spans[i].name)
        split[layer] = split.get(layer, 0.0) + own[i]
    return metrics, split


#: The per-layer metrics that are exact work counts: two traced runs of one
#: seed must agree on every one of them.
WORK_COUNTS = (
    "opt.steps", "gp.fit_calls", "kat.fit_calls", "acq.rows", "engine.designs",
    "mc.samples", "bench.runs", "bench.batch_jobs", "spice.dc_solves",
    "spice.dc_newton_iters", "spice.dc_converged_frac", "spice.dc_batch_solves",
    "spice.dc_batch_newton_iters", "spice.tran_steps_accepted",
    "spice.tran_steps_rejected", "store.writes",
)
