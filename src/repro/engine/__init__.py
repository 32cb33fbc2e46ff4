"""Batched evaluation engine: backends, design cache and the coordinator.

The paper's whole cost model is "number of expensive simulations"; this
subsystem makes each batch of them as cheap as the hardware allows:

* :mod:`repro.engine.backends` -- pluggable execution strategies
  (:class:`SerialBackend`, :class:`BatchedBackend`, :class:`ProcessBackend`)
  behind one ordered ``map`` interface;
* :mod:`repro.engine.cache` -- an exact content-hash design cache with
  hit/miss statistics, so re-proposed designs cost nothing;
* :mod:`repro.engine.engine` -- :class:`EvaluationEngine`, which owns
  batching, caching and failure isolation and is what
  :meth:`repro.bo.problem.OptimizationProblem.evaluate_batch` routes through,
  on top of :func:`simulate_jobs`, the one ``(problem, design)`` fan-out
  shared with the corner sweep, the Monte Carlo runner and the queue worker.

Every optimizer in the library picks this up transparently; experiments opt
into parallelism per call (``backend="process"``) or globally via the
``REPRO_ENGINE_BACKEND`` environment variable.
"""

from repro.engine.backends import (
    BACKEND_ENV_VAR,
    BatchedBackend,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    available_backends,
    default_backend,
    resolve_backend,
)
from repro.engine.cache import CacheStats, DesignCache
from repro.engine.engine import EvaluationEngine, evaluate_rows, simulate_jobs

__all__ = [
    "BACKEND_ENV_VAR",
    "BatchedBackend",
    "CacheStats",
    "DesignCache",
    "EvaluationEngine",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "available_backends",
    "default_backend",
    "evaluate_rows",
    "resolve_backend",
    "simulate_jobs",
]
