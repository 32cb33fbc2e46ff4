"""Testbench execution: one session core for one design or many.

:func:`_execute` runs testbench jobs -- ``(bench, design)`` pairs whose
benches declare the same analyses, typically one
:class:`~repro.bench.Testbench` applied to many design points or technology
variants.  Each job keeps its own session state (:class:`_Job`): the
circuits built from its design, its operating points memoised by
``(circuit, temperature, transient)`` so several analyses around one bias
share one Newton solve, its analysis results, failure and counters.  The
analyses run in bench order, and the solves of one analysis are grouped
across the jobs that still need them:

* a group of one job runs the serial solver
  (:func:`~repro.spice.dc.dc_operating_point` or
  :func:`~repro.spice.transient.transient_operating_point`,
  :func:`~repro.spice.ac.ac_analysis`,
  :func:`~repro.spice.transient.transient_analysis`);
* a larger group runs the batched twin once: a stacked Newton run (per-job
  corner temperatures ride along as the batch's ``(B,)`` temperature
  vector), one stacked AC solve, or one transient run in which every job
  keeps its own adaptive-timestep controller while the per-step Newton
  solves batch across the jobs in flight;
* noise analyses and sweeps run per job with the serial code.

The batched solvers are bit-identical to their serial counterparts, so a
job's :class:`~repro.bench.testbench.SimResult` does not depend on what it
ran with.  :class:`repro.bench.simulator.Simulator` runs one design through
this core and :class:`BatchSimulator` many.

A non-converged bias, a diverging transient, a singular sweep, a failed
check or a non-finite gated measure ends a job with
``SimResult(ok=False, failure=...)``.  Any other exception a job raises
(builder bugs, bad measure code, ...) is kept on the job and ends only that
job: ``Simulator.run`` re-raises it, and ``BatchSimulator.run`` returns a
:class:`BatchJobError` carrying its type name and message -- the one failure
record of the library's fan-out, which :func:`repro.engine.simulate_jobs`
also returns for a job that raised on a map-style backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.bench.analyses import (
    ACSpec,
    DCSweepSpec,
    NoiseSpec,
    OPSpec,
    SweepResult,
    TempSweepSpec,
    TranSpec,
)
from repro.bench.measures import MeasureContext, MeasurementError
from repro.bench.testbench import SimResult, Testbench
from repro.errors import ConvergenceError, NetlistError
from repro.spice.ac import ac_analysis, ac_analysis_batch
from repro.spice.dc import dc_operating_point, dc_operating_point_batch
from repro.spice.noise import noise_analysis
from repro.spice.sweep import dc_sweep, temperature_sweep
from repro.spice.transient import (
    transient_analysis,
    transient_analysis_batch,
    transient_operating_point,
    transient_operating_point_batch,
)

__test__ = False


@dataclass
class BatchJobError:
    """An unmodelled exception that killed one job of a batch.

    ``kind`` is the exception's type name and ``message`` the full
    ``"TypeName: text"`` string.  :func:`repro.engine.simulate_jobs` returns
    the same record for a raising job on any backend, so batched and pooled
    execution classify failures identically.
    """

    kind: str
    message: str


def _job_error(exc: Exception) -> BatchJobError:
    return BatchJobError(type(exc).__name__, f"{type(exc).__name__}: {exc}")


class _Job:
    """Session state of one testbench job."""

    __slots__ = ("bench", "design", "circuits", "ops", "results", "metrics",
                 "failure", "error", "n_op_solves", "n_op_reused",
                 "n_circuits_built")

    def __init__(self, bench: Testbench, design: dict[str, float]):
        self.bench = bench
        self.design = dict(design)
        self.circuits: dict[str, object] = {}
        self.ops: dict[tuple, object] = {}
        self.results: dict[str, object] = {}
        self.metrics: dict[str, float] = {}
        self.failure: str | None = None
        self.error: Exception | None = None
        self.n_op_solves = 0
        self.n_op_reused = 0
        self.n_circuits_built = 0

    @property
    def alive(self) -> bool:
        return self.failure is None and self.error is None

    def result(self) -> SimResult:
        stats = {"n_op_solves": self.n_op_solves,
                 "n_op_reused": self.n_op_reused,
                 "n_circuits_built": self.n_circuits_built}
        if self.failure is not None:
            return SimResult(ok=False, failure=self.failure,
                             analyses=self.results, stats=stats)
        return SimResult(ok=True, metrics=self.metrics, analyses=self.results,
                         stats=stats)


class BatchSimulator:
    """Execute many structurally identical testbench jobs as one batch."""

    def run(self, jobs) -> list[SimResult | BatchJobError]:
        """Run ``jobs`` -- an iterable of ``(bench, design)`` pairs.

        Returns one entry per job, in order: the job's :class:`SimResult`
        (bit-identical to a serial ``Simulator().run``) or a
        :class:`BatchJobError` when the job raised outside the simulator's
        modelled failure modes.
        """
        states = [_Job(bench, design) for bench, design in jobs]
        if not states:
            return []
        _validate(states)
        with telemetry.span("bench.run_batch", bench=states[0].bench.name,
                            batch=len(states)):
            _execute(states)
        return [job.result() if job.error is None else _job_error(job.error)
                for job in states]


def _execute(jobs: list[_Job]) -> None:
    """Run every job's analyses, checks and measures, and count the work."""
    for position, spec in enumerate(jobs[0].bench.analyses):
        pairs = [(job, job.bench.analyses[position]) for job in jobs
                 if job.alive]
        if isinstance(spec, OPSpec):
            _run_op(pairs, spec.transient)
        elif isinstance(spec, ACSpec):
            _run_ac(pairs)
        elif isinstance(spec, NoiseSpec):
            _each(_biased(pairs, False, "bias for noise analysis"), _run_noise)
        elif isinstance(spec, TranSpec):
            _run_tran(pairs)
        else:
            _each(pairs, _run_sweep)
    _each([(job,) for job in jobs if job.alive], _run_measures)
    if telemetry.enabled():
        telemetry.inc("repro_bench_runs_total", len(jobs))
        failed = sum(1 for job in jobs if not job.alive)
        if failed:
            telemetry.inc("repro_bench_failures_total", failed)
        telemetry.inc("repro_op_solves_total",
                      sum(job.n_op_solves for job in jobs))
        telemetry.inc("repro_op_reused_total",
                      sum(job.n_op_reused for job in jobs))


# ---------------------------------------------------------------------- #
# structure validation                                                    #
# ---------------------------------------------------------------------- #
def _validate(states: list[_Job]) -> None:
    reference = states[0].bench
    for job in states[1:]:
        bench = job.bench
        if len(bench.analyses) != len(reference.analyses):
            raise ValueError("batched jobs need structurally identical "
                             "testbenches (analysis counts differ)")
        for spec, ref in zip(bench.analyses, reference.analyses):
            if (type(spec) is not type(ref) or spec.name != ref.name
                    or spec.circuit != ref.circuit
                    or getattr(spec, "op", None) != getattr(ref, "op", None)
                    or getattr(spec, "transient", None) != getattr(ref, "transient", None)):
                raise ValueError(
                    f"batched jobs need structurally identical "
                    f"testbenches (analysis {ref.name!r} differs)")
            if isinstance(ref, ACSpec) and (
                    not np.array_equal(spec.frequencies, ref.frequencies)
                    or tuple(spec.observe) != tuple(ref.observe)):
                raise ValueError(
                    f"batched jobs need identical AC frequency grids "
                    f"and observed nodes (analysis {ref.name!r})")
            if isinstance(ref, NoiseSpec) and (
                    not np.array_equal(spec.frequencies, ref.frequencies)
                    or spec.output != ref.output):
                raise ValueError(
                    f"batched jobs need identical noise frequency grids "
                    f"and output nodes (analysis {ref.name!r})")
            if isinstance(ref, TranSpec) and (
                    spec.t_stop != ref.t_stop
                    or spec.reltol != ref.reltol
                    or spec.abstol != ref.abstol
                    or tuple(spec.observe) != tuple(ref.observe)):
                raise ValueError(
                    f"batched jobs need identical transient windows, "
                    f"tolerances and observed nodes "
                    f"(analysis {ref.name!r})")
        if ([m.name for m in bench.measures]
                != [m.name for m in reference.measures]):
            raise ValueError("batched jobs need identical measure sets")


# ---------------------------------------------------------------------- #
# per-job state helpers                                                   #
# ---------------------------------------------------------------------- #
def _circuit(job: _Job, key: str):
    if key not in job.circuits:
        job.circuits[key] = job.bench.builders[key](job.design)
        job.n_circuits_built += 1
    return job.circuits[key]


def _each(entries, step) -> None:
    """``step(*entry)`` per entry; an exception ends that entry's job."""
    for entry in entries:
        try:
            step(*entry)
        except Exception as exc:
            entry[0].error = exc


def _solve_group(entries, serial, batched) -> list:
    """One outcome per argument tuple: the solver result or its exception.

    A group of one runs ``serial(*entry)``.  A larger group runs ``batched``
    once, on one list per argument; when the entries cannot share a batch
    (design-dependent topologies), every entry runs ``serial`` instead.
    """
    if len(entries) > 1:
        try:
            return list(batched(*(list(column) for column in zip(*entries))))
        except (NetlistError, ValueError):
            pass
        except Exception as exc:
            return [exc] * len(entries)
    outcomes = []
    for entry in entries:
        try:
            outcomes.append(serial(*entry))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def _group_operating_points(pairs, transient: bool) -> list:
    """Memoised operating points for ``pairs`` of ``(job, spec)``.

    Memo hits count as reuses; the missing biases are solved as one group.
    Returns one op (or ``None`` once the job has an error) per pair.
    """
    resolved = [None] * len(pairs)
    to_solve = []
    for slot, (job, spec) in enumerate(pairs):
        temperature = spec.resolved_temperature(job.bench.temperature)
        key = (spec.circuit, float(temperature), bool(transient))
        if key in job.ops:
            job.n_op_reused += 1
            resolved[slot] = job.ops[key]
            continue
        try:
            circuit = _circuit(job, spec.circuit)
        except Exception as exc:
            job.error = exc
            continue
        to_solve.append((slot, job, key, circuit, temperature))
    if transient:
        serial = transient_operating_point
        batched = transient_operating_point_batch
    else:
        serial, batched = dc_operating_point, dc_operating_point_batch
    outcomes = _solve_group(
        [(circuit, temperature) for *_, circuit, temperature in to_solve],
        lambda circuit, temperature: serial(circuit, temperature=temperature),
        lambda circuits, temperatures: batched(
            circuits, temperature=np.array(temperatures, dtype=float)))
    for (slot, job, key, _, _), op in zip(to_solve, outcomes):
        if isinstance(op, Exception):
            job.error = op
            continue
        job.ops[key] = op
        job.n_op_solves += 1
        resolved[slot] = op
    return resolved


def _resolve_ops(pairs, transient: bool) -> list:
    """The bias each AC/noise/transient analysis linearises around."""
    resolved = [None] * len(pairs)
    implicit = []
    for slot, (job, spec) in enumerate(pairs):
        if spec.op is not None:
            job.n_op_reused += 1
            resolved[slot] = job.results[spec.op]
        else:
            implicit.append(slot)
    solved = _group_operating_points([pairs[slot] for slot in implicit],
                                     transient)
    for slot, op in zip(implicit, solved):
        resolved[slot] = op
    return resolved


def _biased(pairs, transient: bool, bias: str) -> list:
    """``(job, spec, circuit, op)`` for each pair whose bias converged."""
    ready = []
    for (job, spec), op in zip(pairs, _resolve_ops(pairs, transient)):
        if op is None:
            continue  # error already recorded during the bias solve
        if not op.converged:
            job.failure = f"{spec.name}: {bias} did not converge"
            continue
        try:
            circuit = _circuit(job, spec.circuit)
        except Exception as exc:
            job.error = exc
            continue
        ready.append((job, spec, circuit, op))
    return ready


# ---------------------------------------------------------------------- #
# analysis execution                                                      #
# ---------------------------------------------------------------------- #
def _run_op(pairs, transient: bool) -> None:
    ops = _group_operating_points(pairs, transient)
    for (job, spec), op in zip(pairs, ops):
        if op is None:
            continue
        if not op.converged:
            job.failure = (f"{spec.name}: operating point of "
                           f"{job.bench.name!r} did not converge")
            continue
        job.results[spec.name] = op


def _run_ac(pairs) -> None:
    ready = _biased(pairs, False, "bias for AC analysis")
    if not ready:
        return
    ref = ready[0][1]  # _validate: every job has the same grid and nodes
    outcomes = _solve_group(
        [(circuit, op) for _, _, circuit, op in ready],
        lambda circuit, op: ac_analysis(circuit, op, ref.frequencies,
                                        observe=list(ref.observe)),
        lambda circuits, ops: ac_analysis_batch(
            circuits, ops, ref.frequencies, observe=list(ref.observe)))
    for (job, spec, _, _), outcome in zip(ready, outcomes):
        if isinstance(outcome, Exception):
            job.error = outcome
        else:
            job.results[spec.name] = outcome


def _run_noise(job: _Job, spec: NoiseSpec, circuit, op) -> None:
    """The serial adjoint sweep (it already vectorizes over frequency)."""
    try:
        job.results[spec.name] = noise_analysis(
            circuit, op, spec.frequencies, output=spec.output)
    except (np.linalg.LinAlgError, KeyError, ValueError) as exc:
        job.failure = f"{spec.name}: {exc}"


def _run_tran(pairs) -> None:
    ready = _biased(pairs, True, "transient initial condition")
    if not ready:
        return
    ref = ready[0][1]  # _validate: same window and tolerances in every job
    outcomes = _solve_group(
        [(circuit, op) for _, _, circuit, op in ready],
        lambda circuit, op: transient_analysis(
            circuit, ref.t_stop, observe=list(ref.observe),
            operating_point=op, reltol=ref.reltol, abstol=ref.abstol),
        lambda circuits, ops: transient_analysis_batch(
            circuits, ref.t_stop, observe=list(ref.observe),
            operating_points=ops, reltol=ref.reltol, abstol=ref.abstol,
            return_errors=True))
    for (job, spec, _, _), outcome in zip(ready, outcomes):
        if isinstance(outcome, ConvergenceError):
            # Controller give-ups are modelled failures; anything else a
            # transient raises is an unmodelled error.
            job.failure = f"{spec.name}: {outcome}"
        elif isinstance(outcome, Exception):
            job.error = outcome
        else:
            job.results[spec.name] = outcome


def _run_sweep(job: _Job, spec) -> None:
    """Sweep analyses: data-dependent stepping, so always the serial path."""
    temperature = spec.resolved_temperature(job.bench.temperature)
    circuit = _circuit(job, spec.circuit)
    if isinstance(spec, DCSweepSpec):
        try:
            values, observed = dc_sweep(
                circuit, spec.device, spec.attribute, spec.values,
                observe=spec.observe, temperature=temperature)
        except (np.linalg.LinAlgError, KeyError, ValueError) as exc:
            job.failure = f"{spec.name}: {exc}"
            return
        job.n_op_solves += len(values)
        job.results[spec.name] = SweepResult(values=values, observed=observed)
    elif isinstance(spec, TempSweepSpec):
        try:
            temps, observed, points = temperature_sweep(
                circuit, spec.temperatures, spec.observe)
        except (np.linalg.LinAlgError, KeyError, ValueError) as exc:
            job.failure = f"{spec.name}: {exc}"
            return
        job.n_op_solves += len(points)
        if not all(p.converged for p in points):
            job.failure = f"{spec.name}: a sweep point did not converge"
            return
        if not np.all(np.isfinite(observed)):
            job.failure = f"{spec.name}: non-finite sweep observation"
            return
        job.results[spec.name] = SweepResult(values=temps, observed=observed,
                                             points=points)
    else:  # pragma: no cover - guarded by Testbench validation
        raise TypeError(f"unknown analysis spec {type(spec).__name__}")


# ---------------------------------------------------------------------- #
# checks and measures                                                     #
# ---------------------------------------------------------------------- #
def _run_measures(job: _Job) -> None:
    context = MeasureContext(design=dict(job.design), circuits=job.circuits,
                             results=job.results)
    for check in job.bench.checks:
        try:
            alive = check.fn(context)
        except MeasurementError as exc:
            job.failure = f"check {check.description!r}: {exc}"
            return
        if not alive:
            job.failure = f"check failed: {check.description}"
            return
    for measure in job.bench.measures:
        try:
            value = float(measure.fn(context))
        except MeasurementError as exc:
            job.failure = f"measure {measure.name!r}: {exc}"
            return
        if measure.require_finite and not np.isfinite(value):
            job.failure = f"measure {measure.name!r} is not finite"
            return
        job.metrics[measure.name] = value
