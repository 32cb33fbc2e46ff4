"""Benchmark T-TRAN -- transient solver accuracy and settling-scenario cost.

Not a paper figure: this benchmark guards the transient subsystem.  It
measures

* the transient solver's max error against the analytic RC step response at
  the default tolerances (the golden accuracy bar is <0.1%),
* the cost of one settling-scenario evaluation (full adaptive-timestep
  follower transient) and of a batch routed through the evaluation engine,
  including the design-cache hit on repeated designs,

and emits one machine-readable ``BENCH_TRANSIENT {json}`` record.  The
tolerance sweep (error-vs-reltol curve over several decades) takes well
under a second and runs on every pull request: it is the one check of how
the timestep controller's error tracks ``reltol``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits import TwoStageOpAmpSettling
from repro.engine import EvaluationEngine
from repro.spice import (
    Capacitor,
    Circuit,
    Resistor,
    StepWaveform,
    VoltageSource,
    transient_analysis,
)

from conftest import budget, record_bench, record_report

_TAU = 1e-6


def _rc_circuit() -> Circuit:
    """1k / 1n RC low-pass driven by a unit step at t = 0."""
    circuit = Circuit("rc_bench")
    circuit.add(VoltageSource("VIN", "in", "0", dc=0.0,
                              waveform=StepWaveform(0.0, 1.0)))
    circuit.add(Resistor("R1", "in", "out", 1e3))
    circuit.add(Capacitor("C1", "out", "0", 1e-9))
    return circuit


def _rc_max_error(reltol: float) -> tuple[float, int]:
    result = transient_analysis(_rc_circuit(), 5 * _TAU, observe=["out"],
                                reltol=reltol)
    analytic = 1.0 - np.exp(-result.times / _TAU)
    return float(np.max(np.abs(result.voltage("out") - analytic))), result.n_accepted


def test_transient_accuracy_and_settling_cost(benchmark):
    rc_error, rc_steps = benchmark.pedantic(_rc_max_error, args=(1e-4,),
                                            rounds=1, iterations=1)
    # The golden accuracy bar: <0.1% of the 1 V step at default tolerances.
    assert rc_error < 1e-3

    problem = TwoStageOpAmpSettling("180nm")
    n_designs = budget(4, 16)
    x = problem.design_space.sample(n_designs, rng=np.random.default_rng(2025))
    engine = EvaluationEngine(problem)
    start = time.perf_counter()
    evaluations = engine.evaluate_batch(x)
    batch_seconds = time.perf_counter() - start
    # Repeating the batch must be served from the design cache.
    start = time.perf_counter()
    repeated = engine.evaluate_batch(x)
    cached_seconds = time.perf_counter() - start
    for fresh, cached in zip(evaluations, repeated):
        np.testing.assert_array_equal(
            [fresh.metrics[m] for m in problem.metric_names],
            [cached.metrics[m] for m in problem.metric_names])
    stats = engine.stats()
    assert stats["cache"]["hits"] >= n_designs

    record = {
        "benchmark": "transient",
        "rc_max_error": round(rc_error, 8),
        "rc_steps": rc_steps,
        "n_designs": n_designs,
        "batch_seconds": round(batch_seconds, 4),
        "designs_per_sec": round(n_designs / batch_seconds, 3),
        "cached_batch_seconds": round(cached_seconds, 4),
        "cache_hit_rate": round(stats["cache"]["hit_rate"], 4),
    }
    record_bench("BENCH_TRANSIENT", record)
    record_report(
        f"Transient solver (RC golden + settling scenario, {n_designs} designs):\n"
        f"  RC max error vs analytic: {rc_error:.2e} ({rc_steps} steps)\n"
        f"  settling batch: {batch_seconds:.2f} s "
        f"({n_designs / batch_seconds:.2f} designs/sec), "
        f"cached replay {cached_seconds * 1e3:.1f} ms")


def test_transient_tolerance_sweep():
    """Error-vs-tolerance curve: tighter reltol must buy lower error."""
    reltols = (1e-3, 1e-4, 1e-5, 1e-6)
    errors, steps = [], []
    for reltol in reltols:
        error, n_steps = _rc_max_error(reltol)
        errors.append(error)
        steps.append(n_steps)
    # Monotone within a decade of slack: each 10x tolerance tightening must
    # not make the solution worse, and the tightest setting must beat the
    # loosest by at least 10x.
    for loose, tight in zip(errors, errors[1:]):
        assert tight <= loose * 1.5
    assert errors[-1] < errors[0] / 10.0
    record_bench("BENCH_TRANSIENT_TOLERANCE_SWEEP", {
        "benchmark": "transient_tolerance_sweep",
        "reltols": list(reltols),
        "max_errors": [round(e, 10) for e in errors],
        "n_steps": steps,
    })
    record_report("Transient tolerance sweep (RC step):\n" + "\n".join(
        f"  reltol {reltol:.0e}: max error {error:.2e} ({n} steps)"
        for reltol, error, n in zip(reltols, errors, steps)))
