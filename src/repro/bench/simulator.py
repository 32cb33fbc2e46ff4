"""The simulator session: executes one testbench for one design point.

:class:`Simulator` runs its design as a batch of one through the session
core in :mod:`repro.bench.batch`: each referenced circuit is built once,
each ``(circuit, temperature, transient)`` operating point is solved once
and shared by every analysis around it, and the measures are extracted into
one metric dictionary.  A group of one always takes the serial solvers.

A modelled failure (non-converged bias, diverging transient, singular
sweep, failed check, non-finite gated measure) yields
``SimResult(ok=False, failure=...)``; the caller (usually
:meth:`repro.circuits.base.CircuitSizingProblem.simulate`) maps it to the
problem's pessimised metrics so optimizers still learn from dead designs.
Any other exception propagates unchanged.
"""

from __future__ import annotations

from repro import telemetry
from repro.bench.batch import _execute, _Job
from repro.bench.testbench import SimResult, Testbench


class Simulator:
    """One testbench-execution session; counters land in ``SimResult.stats``."""

    def run(self, bench: Testbench, design: dict[str, float]) -> SimResult:
        """Execute ``bench`` for one named design point."""
        job = _Job(bench, design)
        with telemetry.span("bench.run", bench=bench.name):
            _execute([job])
            if job.error is not None:
                raise job.error
        return job.result()
