"""The study benchmark: whole sizing studies, timed end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kato_transfer --seed 1 --seconds 33 --trace 0

Each run drives whole studies through the public study API
(``repro.study.Study``, the path ``python -m repro run`` takes), one at a
time.  A run starts with a panel of ``PANEL`` studies whose seeds are the same
in every run, then runs studies seeded from ``--seed`` while the next one is
likely to end inside ``--seconds``.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``study_s`` and ``step_s_p50`` are medians of wall seconds scaled to the
reference host's speed, because a shared host's speed can drift by 2x within
seconds to minutes.  A 10 ms piece of calibration work, independent of the
program, is timed before each study and after its initial designs and every
step; a study and its steps are multiplied by ``CALIBRATION_REF_S`` over the
study's mean calibration time, and the calibrations' own time is left out.
The unscaled medians are printed beside them.  ``setup_s`` is not scaled: its probes run in child
processes, whose speed the calibration does not track.

* ``study_s`` -- median seconds of ``Study.run`` over the panel;
* ``step_s_p50`` -- median seconds of one ask/evaluate/tell batch, over
  every study of the run;
* ``setup_s`` -- median seconds from a fresh interpreter to a built problem;
* ``peak_rss_mb`` -- peak resident memory of this process;
* ``ok_frac`` -- share of the panel's simulated designs that did not come
  back as the pessimised failure record (one minus the failed fraction);
* ``best_objective`` -- median over the panel of each study's best feasible
  objective (supply current, uA).

``--trace 1`` re-runs one panel study, picked by ``--seed``, under
:class:`tracer.Tracer` and prints the per-layer metrics (unscaled), checks
that repeated traced runs do identical work and return the record an
untraced run returns, reports the tracing overhead, and writes the spans to
``perfbench/out/``.

Every run checks each study (budget, monotone best-so-far curve, a feasible
design in each panel study, a bit-exact re-simulation of the first study's
best design) and ends with one strict JSON line: ``{"correct", "attempted",
"failed", "metrics"}``, where ``attempted`` counts studies and ``failed`` the
studies that raised or failed a check.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PANEL = 6
SETUP_PROBES = 5
#: Seconds ``calibration_seconds`` takes on the reference host, a 2-vCPU
#: Xeon VM in its faster phases.
CALIBRATION_REF_S = 0.01


@dataclass
class StudyOutcome:
    """One study as the benchmark saw it."""

    seed: int
    #: Wall seconds of ``Study.run``, less the calibrations made inside it.
    seconds: float = math.nan
    step_seconds: list = field(default_factory=list)
    #: Calibration seconds taken before the study, after its initial designs
    #: and after every step (empty when the study is not calibrated).
    calibrations: list = field(default_factory=list)
    result: object = None
    record: dict | None = None
    problems: list = field(default_factory=list)
    designs: int = 0
    failed_designs: int = 0
    best: float | None = None
    study_index: int = -1          # span study id when traced

    @property
    def speed(self) -> float:
        """The study's speed relative to the reference host."""
        return CALIBRATION_REF_S / statistics.mean(self.calibrations)

    def scaled_seconds(self) -> float:
        """Study seconds at the reference host's speed."""
        return self.seconds * self.speed

    def scaled_steps(self) -> list:
        """Step seconds at the reference host's speed."""
        return [seconds * self.speed for seconds in self.step_seconds]


class _StudyTimer:
    """Study callback timing each ``optimizer.step`` call of one study.

    It wraps the step method of the optimizer instance the study built (not
    its class), so nothing outlives the study.  With ``calibrate`` it also
    times the calibration work after the initial designs and after every
    step, and adds up the wall time those calibrations took.
    """

    def __init__(self, outcome: StudyOutcome, calibrate: bool):
        self.outcome = outcome
        self.calibrate = calibrate
        self.overhead = 0.0

    def _calibrate(self) -> None:
        if self.calibrate:
            start = time.perf_counter()
            self.outcome.calibrations.append(calibration_seconds())
            self.overhead += time.perf_counter() - start

    def on_init(self, study, evaluations) -> None:
        self._calibrate()
        step, clock = study.optimizer.step, time.perf_counter

        def timed_step():
            start = clock()
            evaluations = step()
            self.outcome.step_seconds.append(clock() - start)
            self._calibrate()
            return evaluations

        study.optimizer.step = timed_step

    def on_batch(self, study, iteration, evaluations) -> None:
        pass

    def on_finish(self, study, result) -> None:
        pass


def run_study(workload, seed: int, panel: bool, tracer=None,
              calibrate: bool = False) -> StudyOutcome:
    """Run one study of ``workload`` and check it; never raises."""
    from repro.study import Study, StudySpec
    from workloads import check_study, is_failure_record

    outcome = StudyOutcome(seed=seed)
    spec = StudySpec.from_dict(workload.spec_dict(seed))
    checkpoint = store = None
    if workload.store:
        from repro.service.store import ResultsStore, StoreCheckpoint, derive_study_id
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{workload.name}.db"
        for suffix in ("", "-wal", "-shm"):
            Path(f"{path}{suffix}").unlink(missing_ok=True)
        store = ResultsStore(path)
        checkpoint = StoreCheckpoint(store, derive_study_id(spec.to_dict(), seed))
    timer = _StudyTimer(outcome, calibrate)
    study = Study(spec, checkpoint=checkpoint, callbacks=[timer])
    if calibrate:
        outcome.calibrations.append(calibration_seconds())
    first_span = len(tracer.spans) if tracer is not None else -1
    start = time.perf_counter()
    try:
        result = study.run()
    except Exception:  # noqa: BLE001 - a failed study is a measured outcome
        outcome.seconds = time.perf_counter() - start - timer.overhead
        outcome.designs = outcome.failed_designs = spec.n_simulations
        outcome.problems.append("study raised:\n" + traceback.format_exc())
        return outcome
    finally:
        if store is not None:
            store.close()
    outcome.seconds = time.perf_counter() - start - timer.overhead
    if tracer is not None:
        outcome.study_index = tracer.spans[first_span].study
    outcome.result = result
    outcome.record = result.to_record()
    outcome.problems.extend(check_study(result, spec, require_feasible=panel))
    failed_objective = result.history.problem.failed_metrics()[
        result.history.problem.objective]
    outcome.designs = len(result.history)
    outcome.failed_designs = sum(is_failure_record(e, failed_objective)
                                 for e in result.history.evaluations)
    outcome.best = outcome.record["best_objective"]
    return outcome


def check_first(workload, outcome: StudyOutcome) -> None:
    """The per-run check on one study: re-simulate its best design."""
    if outcome.result is None:
        return
    from repro.study import StudySpec
    from workloads import check_resimulation
    spec = StudySpec.from_dict(workload.spec_dict(outcome.seed))
    try:
        outcome.problems.extend(check_resimulation(outcome.result, spec))
    except Exception:  # noqa: BLE001 - reported as a failed check
        outcome.problems.append("re-simulation raised:\n" + traceback.format_exc())


# ---------------------------------------------------------------------- #
# set-up time                                                             #
# ---------------------------------------------------------------------- #
def setup_seconds(spec_dict: dict) -> float:
    """Seconds from launching a fresh interpreter to a built problem."""
    command = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(spec_dict)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as process:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - start
        process.stdout.read()
        code = process.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


# ---------------------------------------------------------------------- #
# host speed                                                              #
# ---------------------------------------------------------------------- #
def calibration_seconds() -> float:
    """Seconds this host takes for a fixed piece of work (independent of ``repro``).

    The work is shaped like the program's hot loops: small Newton solves that
    mix interpreter work with small numpy linear algebra, and a few stacked
    solves like the batched simulator's.  It takes about 10 ms.
    """
    rng = np.random.default_rng(1)
    g = rng.uniform(0.5, 1.5, (10, 10)) + 10 * np.eye(10)
    b = rng.uniform(-1.0, 1.0, 10)
    stacked = rng.uniform(0.5, 1.5, (16, 24, 24)) + 24 * np.eye(24)
    start = time.perf_counter()
    total = 0.0
    for _ in range(50):
        v = np.zeros(10)
        for _ in range(8):
            bent = np.clip(v, -5.0, 5.0)
            residual = g @ v + 1e-3 * np.expm1(bent) - b
            v = v - np.linalg.solve(g + np.diag(1e-3 * np.exp(bent)), residual)
        nodes = {f"n{i}": float(x) for i, x in enumerate(v)}
        total += sum(nodes.values())
    for _ in range(4):
        total += float(np.linalg.solve(stacked, np.ones((16, 24, 1))).sum())
    elapsed = time.perf_counter() - start
    if not math.isfinite(total):
        raise RuntimeError("calibration work diverged")
    return elapsed


# ---------------------------------------------------------------------- #
# statistics and output                                                   #
# ---------------------------------------------------------------------- #
def summarize(samples: list) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(samples) if samples else math.nan,
           "n": len(samples)}
    ordered = sorted(samples)
    for percent in (99.9, 99, 95, 90, 75):
        if len(ordered) * (100 - percent) / 100 >= 10:
            rank = min(len(ordered) - 1, math.ceil(percent / 100 * len(ordered)) - 1)
            out[f"p{percent:g}"] = ordered[rank]
            break
    return out


def strict(value):
    """``value`` with every non-finite float replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict(item) for item in value]
    return value


def host_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _metric_line(name, value, unit, stats=None) -> str:
    text = f"  {name:<32} {value!s:>24} {unit}"
    if stats:
        extra = ", ".join(f"{k}={v:.6g}" for k, v in stats.items()
                          if isinstance(v, (int, float)))
        text += f"  ({extra})"
    return text


# ---------------------------------------------------------------------- #
# the two kinds of run                                                    #
# ---------------------------------------------------------------------- #
def _study_loop(workload, seed, seconds, panel):
    """The panel, then more studies while the next is likely to end in time."""
    from workloads import study_seeds
    seeds = study_seeds(seed, panel)
    studies = []
    start = time.perf_counter()
    while True:
        studies.append(run_study(workload, next(seeds), len(studies) < panel,
                                 calibrate=True))
        elapsed = time.perf_counter() - start
        if len(studies) >= panel and elapsed + studies[-1].seconds > seconds:
            return studies


def measure_end_to_end(workload, seed, seconds, setup_probes, panel):
    setups = [setup_seconds(workload.spec_dict(seed)) for _ in range(setup_probes)]
    studies = _study_loop(workload, seed, seconds, panel)
    check_first(workload, studies[0])
    # Whole studies are scored on the panel, whose study seeds are the same in
    # every run: the outcome metrics repeat exactly, and study_s times the
    # same work in every run (study costs spread widely, so the median of a
    # handful of random-seeded studies would jump between runs).  Steps are
    # many, so step_s_p50 also takes those of the seeded studies.
    scored = studies[:panel]
    designs = sum(s.designs for s in scored)
    failed = sum(s.failed_designs for s in scored)
    bests = [s.best for s in scored]
    timed = [s for s in studies if s.result is not None]
    samples = {
        "study_s": ([s.scaled_seconds() for s in scored if s.result is not None],
                    [s.seconds for s in scored]),
        "step_s_p50": ([t for s in timed for t in s.scaled_steps()],
                       [t for s in timed for t in s.step_seconds]),
        "setup_s": (setups, setups),
    }
    stats, metrics = {}, {}
    for name, (scaled, raw) in samples.items():
        stats[name] = summarize(scaled)
        metrics[name] = stats[name].pop("median")
        stats[name]["raw_median"] = statistics.median(raw)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["ok_frac"] = 1.0 - failed / designs if designs else math.nan
    metrics["best_objective"] = (statistics.median(bests)
                                 if None not in bests else math.nan)
    stats["ok_frac"] = {"n": designs, "failed_frac": failed / designs if designs else math.nan}
    stats["best_objective"] = {"n": len(bests)}
    return studies, metrics, stats, {"samples": {
        "calibration_s": [c for s in studies for c in s.calibrations],
        **{name: raw for name, (_, raw) in samples.items()}}}


def measure_traced(workload, seed, seconds, panel):
    """Trace repeats of one panel study between two untraced runs of it.

    ``--seed`` picks the panel study.  The first untraced run also warms the
    process up, so the tracing overhead compares the traced runs with the
    second one.
    """
    from tracer import WORK_COUNTS, Tracer, layer_metrics
    origin = time.perf_counter()
    study_seed = int(seed) % panel
    untraced = run_study(workload, study_seed, True)
    check_first(workload, untraced)
    with Tracer() as tracer:
        traced = []
        # Trace at least twice, and more while another traced study and the
        # closing untraced one are likely to end inside the window.
        while len(traced) < 2 or (time.perf_counter() - origin
                                  + 2 * traced[-1].seconds <= seconds):
            traced.append(run_study(workload, study_seed, True, tracer))
    after = run_study(workload, study_seed, True)
    studies = [untraced, *traced, after]
    extra = {"spans": tracer.to_json(origin)}
    for s in studies[1:]:
        if s.record is not None and repr(s.record) != repr(untraced.record):
            s.problems.append("returned a different record than the first "
                              "untraced run")
    per_study = [layer_metrics(tracer, s.study_index) for s in traced
                 if s.study_index >= 0]
    if not per_study:
        return studies, {}, {}, extra
    first, split = per_study[0]
    for s, (counts, _) in zip(traced[1:], per_study[1:]):
        changed = [k for k in WORK_COUNTS if counts[k] != first[k]]
        if changed:
            s.problems.append(f"traced run did different work than the first: {changed}")
    metrics = {}
    for name in first:
        if name in WORK_COUNTS or name.endswith("_frac"):
            metrics[name] = first[name]
        else:
            metrics[name] = statistics.median(m[name] for m, _ in per_study)
    cache = (untraced.record or {}).get("engine", {}).get("cache", {})
    metrics["engine.cache_hit_rate"] = cache.get("hit_rate", math.nan)
    metrics["trace.overhead_s"] = (statistics.median(s.seconds for s in traced)
                                   - after.seconds)
    total = sum(split.values())
    extra["self_split"] = {layer: value / total for layer, value in
                           sorted(split.items(), key=lambda kv: -kv[1])}
    stats = {name: {"n": len(per_study)} for name in metrics}
    return studies, metrics, stats, extra


def run(workload, seed: int, seconds: float, trace: bool, *,
        setup_probes: int = SETUP_PROBES, panel: int = PANEL,
        stream=sys.stdout) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    if trace:
        studies, metrics, stats, extra = measure_traced(
            workload, seed, seconds, panel)
    else:
        studies, metrics, stats, extra = measure_end_to_end(
            workload, seed, seconds, setup_probes, panel)
    failed = [s for s in studies if s.problems]
    for s in failed:
        for problem in s.problems:
            print(f"check failed (study seed {s.seed}): {problem}", file=sys.stderr)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = sorted(set(units) ^ set(metrics)) if metrics else []
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {missing}")
    host = host_facts()
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
          f"studies {len(studies)}", file=stream)
    for name, value in metrics.items():
        print(_metric_line(name, value, units[name], stats.get(name)), file=stream)
    if "self_split" in extra:
        print("self time by layer: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in extra["self_split"].items()),
            file=stream)
    print("host " + json.dumps(host), file=stream)
    result = {
        "correct": not failed and bool(metrics),
        "attempted": len(studies),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(strict({**result, "host": host, "stats": stats,
                          **{k: v for k, v in extra.items() if k != "spans"}}),
                  handle, allow_nan=False, indent=1)
    if "spans" in extra:
        with open(OUT / f"spans-{tag}.json", "w", encoding="utf-8") as handle:
            json.dump(strict({"workload": workload.name, "seed": seed, "host": host,
                              "spans": extra["spans"]}), handle, allow_nan=False)
    print(json.dumps(strict(result), allow_nan=False), file=stream)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
