"""The benchmark's workloads and the checks every study must pass.

Each workload is one study specification, run closed-loop: one process, one
study at a time, each batch waiting for the one before.  A run's study seeds
come from :func:`study_seeds`, so the same seed gives the same designs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One named workload; why it exists is recorded in ``BENCHMARK.json``."""

    name: str
    spec: dict
    #: Checkpoint every batch into a fresh SQLite results store, as
    #: ``python -m repro run --db`` does.
    store: bool = False

    def spec_dict(self, seed: int) -> dict:
        """The study spec for one study seed (plain data)."""
        return {**self.spec, "seed": int(seed)}


# Settings sized on a 2-core host so that one study takes a few seconds and
# a run of the benchmark sees several studies.
WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="kato_transfer",
            spec={
                "optimizer": "kato_tl",
                "circuit": "two_stage_opamp",
                "technology": "40nm",
                "n_simulations": 40,
                "n_init": 8,
                "batch_size": 4,
                "backend": "serial",
                "quick": True,
                "optimizer_options": {"surrogate_train_iters": 10,
                                      "kat_train_iters": 20,
                                      "pop_size": 16, "n_generations": 5},
                "transfer": {"circuit": "two_stage_opamp",
                             "technology": "180nm", "n_samples": 20,
                             "train_iters": 20},
            },
        ),
        Workload(
            name="random_sizing",
            spec={
                "optimizer": "rs",
                "circuit": "two_stage_opamp",
                "technology": "180nm",
                "n_simulations": 64,
                "n_init": 8,
                "batch_size": 8,
                "backend": "serial",
            },
            store=True,
        ),
        Workload(
            name="ldo_yield",
            # The LDO's default spec is met by ~6% of random designs; this
            # relaxed spec is met by ~65%, so a handful of random designs
            # find a feasible one and the yield constraint stays in play.
            # One design per batch: a few designs cost ten times the median,
            # and the median batch should not depend on which batch they
            # land in.
            spec={
                "optimizer": "rs",
                "circuit": "ldo_yield",
                "technology": "180nm",
                "n_simulations": 6,
                "n_init": 1,
                "batch_size": 1,
                "backend": "serial",
                "problem_options": {
                    "backend": "batched",
                    "yield_target": 0.5,
                    "t_stop": 10e-6,
                    "max_v_err_mv": 200.0,
                    "min_psrr_db": 20.0,
                    "max_noise_uvrms": 3000.0,
                    "max_droop_mv": 300.0,
                    "mc": {"n_min": 8, "n_max": 8, "batch_size": 8,
                           "sampler": "normal", "seed": 0,
                           "ci_half_width": None},
                },
            },
        ),
    )
}


def study_seeds(seed: int, panel: int):
    """Study seeds of one run.

    First the panel, seeds ``0 .. panel - 1``, the same in every run; then
    ``seed * 1000 + panel, seed * 1000 + panel + 1, ...``.
    """
    yield from range(panel)
    index = panel
    while True:
        yield int(seed) * 1000 + index
        index += 1


# ---------------------------------------------------------------------- #
# correctness                                                             #
# ---------------------------------------------------------------------- #
def check_study(result, spec, require_feasible: bool) -> list[str]:
    """Problems with one finished study (empty when it is correct).

    Only panel studies must find a feasible design: whether a study with a
    fresh seed finds one within its budget is an outcome of the search (a
    ``kato_tl`` study on the 40nm op-amp can end without one), not a fault.
    """
    problems = []
    n = len(result.history)
    batch = spec.batch_size or 1
    if not spec.n_simulations <= n <= spec.n_simulations + batch - 1:
        problems.append(f"history has {n} designs, budget {spec.n_simulations} "
                        f"with batch {batch}")
    curve = list(result.best_curve())
    worse = [i for i in range(1, len(curve)) if not curve[i] <= curve[i - 1]]
    if worse:
        problems.append(f"best-so-far curve gets worse at simulation {worse[0]}")
    if require_feasible and not result.history.feasible.any():
        problems.append("no feasible design")
    return problems


def check_resimulation(result, spec) -> list[str]:
    """Re-simulate the best design on a freshly built problem, bit for bit."""
    best = result.history.best(constrained=result.constrained)
    if best is None:
        return ["no best design to re-simulate"]
    problem = spec.build_problem()
    try:
        again = problem.evaluate_batch(best.x.reshape(1, -1))[0]
    finally:
        problem.engine.close()
        problem.close()
    # repr keeps every digit and makes NaN equal to NaN.
    if repr(sorted(again.metrics.items())) != repr(sorted(best.metrics.items())):
        return [f"re-simulating the best design gave {again.metrics}, "
                f"recorded {best.metrics}"]
    return []


def is_failure_record(evaluation, failed_objective: float) -> bool:
    """The pessimised record of a simulation that was not ok or raised."""
    return (evaluation.tag.startswith("error:")
            or evaluation.objective == failed_objective)
