"""Service-side study execution: store checkpoints, queue dispatch, resume.

:func:`run_service_study` is what ``python -m repro run --db ...`` calls.
It is :func:`repro.study.study.run_study` with the service pieces plugged
into the existing seams:

* every seed checkpoints through a
  :class:`~repro.service.store.StoreCheckpoint` instead of a JSONL file
  (same records, same bit-identical resume guarantee);
* with ``distributed=True`` each seed's engine dispatches evaluation
  batches through a :class:`~repro.service.queue.QueueBackend`, so any
  number of ``python -m repro worker`` processes shard the simulations;
* study ids are content-addressed by default
  (:func:`~repro.service.store.derive_study_id`), so re-submitting the
  identical spec replays idempotently onto the same rows.
"""

from __future__ import annotations

import json

from repro.errors import OptimizationError
from repro.service.queue import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    QueueBackend,
)
from repro.service.store import ResultsStore, StoreCheckpoint, derive_study_id
from repro.study.spec import StudySpec
from repro.study.study import Study, StudyResult, aggregate_results


def _queue_backend(store: ResultsStore, study_id: str, spec: StudySpec,
                   shard_size: int, lease_seconds: float,
                   max_attempts: int, dispatch_timeout: float | None,
                   first_batch_index: int = 0) -> QueueBackend:
    return QueueBackend(store, study_id, spec.to_dict(),
                        shard_size=shard_size, lease_seconds=lease_seconds,
                        max_attempts=max_attempts,
                        dispatch_timeout=dispatch_timeout,
                        first_batch_index=first_batch_index)


def run_service_study(spec: StudySpec, store: ResultsStore | str,
                      study_id: str | None = None,
                      callbacks: tuple = (),
                      distributed: bool = False,
                      shard_size: int = 1,
                      lease_seconds: float = DEFAULT_LEASE_SECONDS,
                      max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                      dispatch_timeout: float | None = None) -> dict[str, object]:
    """Run a (possibly multi-seed) study against the results store.

    Returns the same aggregate dict as :func:`~repro.study.study.run_study`
    plus ``study_ids`` (one per seed).  Seeds run sequentially in-process --
    with ``distributed=True`` the parallelism lives in the workers, which
    see each seed's batches as independent jobs.
    """
    spec.validate()
    store = store if isinstance(store, ResultsStore) else ResultsStore(store)
    seeds = spec.spawn_seeds()
    shared_source, shared_data = spec.build_source()
    results: list[StudyResult] = []
    study_ids: list[str] = []
    for index, seed in enumerate(seeds):
        seed_spec = spec.for_seed(seed)
        seed_id = _seed_study_id(study_id, seed_spec, seed, index, len(seeds))
        study_ids.append(seed_id)
        checkpoint = StoreCheckpoint(store, seed_id)
        resume_batches = _resumable_batches(checkpoint, seed_spec, seed_id)
        engine_backend = None
        if distributed:
            engine_backend = _queue_backend(
                store, seed_id, seed_spec, shard_size, lease_seconds,
                max_attempts, dispatch_timeout,
                first_batch_index=resume_batches or 0)
        if resume_batches is None:
            study = Study(seed_spec, callbacks=callbacks,
                          checkpoint=checkpoint,
                          engine_backend=engine_backend,
                          source=shared_source, source_data=shared_data)
        else:
            study = Study.resume(checkpoint, callbacks=callbacks,
                                 engine_backend=engine_backend)
        try:
            results.append(study.run())
        except BaseException:
            store.set_study_status(seed_id, "failed")
            raise
    return {**aggregate_results(results, seeds), "study_ids": study_ids}


def _resumable_batches(checkpoint: StoreCheckpoint, seed_spec: StudySpec,
                       seed_id: str) -> int | None:
    """Batch count of an existing same-spec study, ``None`` for a fresh one.

    Re-submitting a spec resumes the stored study instead of restarting it
    (the replayed prefix consumes no simulations).  An explicit ``study_id``
    colliding with a *different* spec is refused rather than clobbered;
    content-addressed ids cannot collide.
    """
    if not checkpoint.exists():
        return None
    data = checkpoint.read()
    canonical = json.loads(json.dumps(seed_spec.to_dict(), sort_keys=True))
    if data.spec_dict != canonical:
        raise OptimizationError(
            f"study {seed_id!r} already holds a different spec; pick "
            "another --study-id (or omit it for a content-addressed one)")
    return data.n_batches


def resume_service_study(store: ResultsStore | str, study_id: str,
                         callbacks: tuple = (),
                         distributed: bool = False,
                         shard_size: int = 1,
                         lease_seconds: float = DEFAULT_LEASE_SECONDS,
                         max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                         dispatch_timeout: float | None = None) -> StudyResult:
    """Resume one interrupted study from the store (bit-identical replay)."""
    store = store if isinstance(store, ResultsStore) else ResultsStore(store)
    checkpoint = StoreCheckpoint(store, study_id)
    data = checkpoint.read()
    engine_backend = None
    if distributed:
        spec = StudySpec.from_dict(data.spec_dict)
        # Live dispatches continue at the recorded batch count, landing on
        # the job slots (and any completed results) of the interrupted run.
        engine_backend = _queue_backend(
            store, study_id, spec, shard_size, lease_seconds, max_attempts,
            dispatch_timeout, first_batch_index=data.n_batches)
    try:
        return Study.resume(checkpoint, callbacks=callbacks,
                            engine_backend=engine_backend).run()
    except BaseException:
        store.set_study_status(study_id, "failed")
        raise


def _seed_study_id(base: str | None, seed_spec: StudySpec, seed: int,
                   index: int, n_seeds: int) -> str:
    if base is None:
        return derive_study_id(seed_spec.to_dict(), seed)
    if n_seeds == 1:
        return base
    return f"{base}.seed{index}"
