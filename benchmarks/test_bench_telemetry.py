"""Telemetry zero-overhead guard (BENCH_TELEMETRY).

The instrumentation contract is that telemetry costs nothing when disabled:
every hook in the solver hot path is one module-level flag check or a
shared null span.  This benchmark measures the shipped solver (telemetry
present but disabled) against a *stub baseline* -- the same solve with the
``telemetry`` module monkeypatched to bare no-ops, i.e. what the code would
cost had it never been instrumented -- on the B=64 batched DC workload, and
fails if the disabled path is more than 2% slower (plus a small absolute
slack that absorbs shared-runner jitter on a ~0.5 s solve).

Timings interleave baseline and disabled runs and take best-of, so slow
drift (thermal, noisy neighbours) hits both sides equally.  The enabled
path is timed too and reported for information only -- span capture and
per-solve stats recording are allowed to cost something.

Emits one BENCH_TELEMETRY record::

    BENCH_TELEMETRY {"baseline_s": ..., "disabled_s": ..., "enabled_s": ...,
                     "overhead_disabled_pct": ..., "overhead_enabled_pct": ...,
                     "batch": 64, "repeats": ...}
"""

import time

from conftest import budget, record_bench

from repro import telemetry
from repro.circuits import make_problem
from repro.mc.samplers import make_sampler
from repro.spice import dc as dc_module
from repro.spice import dc_operating_point_batch

GOOD_DESIGN = dict(w_diff=20e-6, l_diff=0.5e-6, w_load=10e-6, l_load=0.5e-6,
                   w_out=60e-6, l_out=0.3e-6, c_comp=2e-12, r_zero=2e3,
                   i_bias1=20e-6, i_bias2=100e-6)

BATCH = 64
REPEATS = budget(quick=15, paper=15)

#: Allowed disabled-vs-baseline overhead: 2% relative, with an absolute
#: slack for timer/runner jitter (the true per-solve instrumentation cost
#: is a handful of flag checks, i.e. microseconds).
OVERHEAD_LIMIT = 0.02
ABSOLUTE_SLACK_S = 0.025


class _StubSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_STUB_SPAN = _StubSpan()


class _StubTelemetry:
    """What the solver would link against had it never been instrumented."""

    SECONDS_BUCKETS = telemetry.SECONDS_BUCKETS
    ITERATION_BUCKETS = telemetry.ITERATION_BUCKETS
    FRACTION_BUCKETS = telemetry.FRACTION_BUCKETS

    @staticmethod
    def enabled():
        return False

    @staticmethod
    def span(name, **args):
        return _STUB_SPAN

    @staticmethod
    def inc(name, value=1):
        pass

    @staticmethod
    def observe(name, value, buckets=None):
        pass

    @staticmethod
    def record_solve(stats):
        pass


def _mc_circuits(count):
    """``count`` mismatch variations of the good two-stage design."""
    problem = make_problem("two_stage_opamp")
    sampler = make_sampler("normal", problem.mismatch_device_names(),
                           seed=7, n_max=count)
    return [p.bench.builders["main"](GOOD_DESIGN)
            for p in (problem.with_variation(sample)
                      for sample in sampler.take(0, count))]


def _timed_solve(circuits) -> float:
    start = time.perf_counter()
    dc_operating_point_batch(circuits)
    return time.perf_counter() - start


def test_disabled_telemetry_overhead(monkeypatch):
    circuits = _mc_circuits(BATCH)
    telemetry.disable()
    _timed_solve(circuits)  # warm-up: imports, allocator, branch caches

    def _baseline_solve():
        with monkeypatch.context() as patched:
            patched.setattr(dc_module, "telemetry", _StubTelemetry)
            return _timed_solve(circuits)

    # Alternate which side goes first so cache warmth and slow drift do not
    # systematically favour either measurement.
    baseline_times, disabled_times = [], []
    for repeat in range(REPEATS):
        if repeat % 2 == 0:
            baseline_times.append(_baseline_solve())
            disabled_times.append(_timed_solve(circuits))
        else:
            disabled_times.append(_timed_solve(circuits))
            baseline_times.append(_baseline_solve())
    baseline = min(baseline_times)
    disabled = min(disabled_times)

    telemetry.reset()
    telemetry.enable()
    try:
        enabled = min(_timed_solve(circuits) for _ in range(REPEATS))
    finally:
        telemetry.disable()
        telemetry.reset()

    record = {
        "workload": f"two_stage_opamp mismatch MC, B={BATCH} batched DC",
        "repeats": REPEATS, "batch": BATCH,
        "baseline_s": round(baseline, 4),
        "disabled_s": round(disabled, 4),
        "enabled_s": round(enabled, 4),
        "overhead_disabled_pct": round(100.0 * (disabled / baseline - 1.0), 2),
        "overhead_enabled_pct": round(100.0 * (enabled / baseline - 1.0), 2),
        "limit_pct": 100.0 * OVERHEAD_LIMIT,
    }
    record_bench("BENCH_TELEMETRY", record)

    assert disabled <= baseline * (1.0 + OVERHEAD_LIMIT) + ABSOLUTE_SLACK_S, (
        f"disabled telemetry costs {record['overhead_disabled_pct']}% over "
        f"the uninstrumented baseline ({disabled:.4f}s vs {baseline:.4f}s); "
        f"the disabled path must stay within {100.0 * OVERHEAD_LIMIT}%")
