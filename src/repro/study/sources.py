"""Transfer-source construction for studies.

Home of :func:`make_source_model`: the study layer builds sources
declaratively from :class:`~repro.study.spec.TransferSpec`, and the
experiment harnesses import it from here.
"""

from __future__ import annotations

import numpy as np

from repro.circuits import FOMProblem, make_problem
from repro.core import SourceModel


def make_source_model(circuit: str, technology: str, n_samples: int = 200,
                      seed: int = 0, train_iters: int = 60,
                      fom: bool = False) -> SourceModel:
    """Build a frozen source model from random simulations of a source circuit.

    This mirrors the paper's transfer setup ("each experiment provides 200
    random samples for the source data").  With ``fom=True`` the source
    outputs are the scalar FOM instead of the raw metric vector.
    """
    problem = make_problem(circuit, technology)
    if fom:
        problem = FOMProblem(problem, n_normalization_samples=min(100, n_samples), rng=seed)
    rng = np.random.default_rng(seed)
    designs = problem.design_space.sample(n_samples, rng=rng)
    evaluations = problem.evaluate_batch(designs)
    x_unit = problem.design_space.to_unit(np.array([e.x for e in evaluations]))
    if fom:
        y = np.array([[e.metrics["fom"]] for e in evaluations])
        names = ["fom"]
    else:
        y = problem.metrics_matrix(evaluations)
        names = problem.metric_names
    return SourceModel(x_unit, y, metric_names=names, train_iters=train_iters)
