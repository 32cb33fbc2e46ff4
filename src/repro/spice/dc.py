"""Newton-Raphson DC operating-point analysis with gmin stepping.

One policy, two Newton kernels.  :func:`_solve_dc` holds the whole policy
around the iteration -- the gmin ladder, warm-starting each rung from the
last, and the rescue ladder for solves the standard settings cannot crack --
and runs it on a ``(B, size)`` block of iterates through a kernel that
advances one rung:

* :func:`dc_operating_point` passes the scalar kernel
  (:func:`_newton_solve`, one circuit, ``B = 1``);
* :func:`dc_operating_point_batch` passes the stacked kernel
  (:func:`_newton_solve_batch`) over ``B`` topology-identical circuits,
  assembling one ``(B, size, size)`` tensor per iteration (or one
  shared-pattern sparse batch) and solving it with a single stacked call.
  Per-design convergence masking freezes finished designs exactly where the
  scalar kernel would stop them, so each design's iterate sequence -- and
  hence its final :class:`OperatingPoint` -- is bit-identical to a serial
  solve of that design alone with the same solver.

Solver selection (``solver=`` on both entry points): ``"dense"`` uses the
LAPACK path, ``"sparse"`` CSR + SuperLU, and ``"auto"`` (default) picks
sparse once the MNA system size reaches
:data:`repro.spice.mna.SPARSE_SIZE_THRESHOLD`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import telemetry
from repro.errors import ConvergenceError, NetlistError
from repro.spice.mna import (
    HAVE_SCIPY_SPARSE,
    SPARSE_SIZE_THRESHOLD,
    BatchStamper,
    SparseBatchStamper,
)
from repro.spice.netlist import Circuit
from repro.telemetry import SolveStats


@dataclass
class OperatingPoint:
    """Solved DC operating point.

    Attributes
    ----------
    voltages:
        Raw solution vector (node voltages then branch currents).
    node_voltages:
        Mapping node name -> DC voltage.
    device_info:
        Mapping device name -> small-signal / bias dictionary (``gm``,
        ``gds``, ``ids``, ``region``, ...), consumed by AC analysis.
    converged:
        Whether Newton iteration met the tolerance.
    iterations:
        Newton iterations used (summed across gmin steps).
    temperature:
        Analysis temperature in Celsius.
    stats:
        Optional :class:`~repro.telemetry.SolveStats` telemetry metadata.
        Excluded from equality (``compare=False``) and from cache keys
        (those hash only design parameter bytes), so it never perturbs
        bit-identity contracts.
    """

    voltages: np.ndarray
    node_voltages: dict[str, float]
    device_info: dict[str, dict[str, float]] = field(default_factory=dict)
    converged: bool = True
    iterations: int = 0
    temperature: float = 27.0
    stats: SolveStats | None = field(default=None, compare=False, repr=False)

    def voltage(self, node: str) -> float:
        if node in ("0", "gnd", "vss"):
            return 0.0
        return self.node_voltages[node]


def _resolve_solver(size: int, solver: str) -> str:
    """Resolve a ``solver=`` argument (``"auto"``/``"dense"``/``"sparse"``)."""
    if solver == "auto":
        if HAVE_SCIPY_SPARSE and size >= SPARSE_SIZE_THRESHOLD:
            return "sparse"
        return "dense"
    if solver not in ("dense", "sparse"):
        raise ValueError(f"solver must be 'auto', 'dense' or 'sparse', "
                         f"got {solver!r}")
    return solver


def _newton_solve(circuit: Circuit, start: np.ndarray, temperature: float,
                  gmin: float, max_iterations: int, tolerance: float,
                  damping: float, solver: str = "dense",
                  collect_residuals: bool = False,
                  ) -> tuple[np.ndarray, bool, int, float, int, list | None]:
    """Damped Newton iteration at a fixed gmin level.

    Returns ``(voltages, converged, iterations, residual, clamps,
    trajectory)``: ``residual`` is the last computed ``max|delta|`` (NaN if
    the solve bailed before any update), ``clamps`` counts voltage steps
    clipped by the damping limiter, and ``trajectory`` lists the
    per-iteration residuals when ``collect_residuals`` is set (telemetry
    only -- the extra list appends never run on a disabled hot path).
    """
    voltages = start.copy()
    stamper = circuit.make_dc_stamper(solver)
    residual = float("nan")
    clamps = 0
    trajectory: list | None = [] if collect_residuals else None
    for iteration in range(1, max_iterations + 1):
        circuit.stamp_dc(voltages, temperature, gmin=gmin, stamper=stamper)
        try:
            new_voltages = stamper.solve()
        except np.linalg.LinAlgError:
            try:
                new_voltages = stamper.solve_lstsq()
            except np.linalg.LinAlgError:
                # lstsq's SVD can itself diverge on a non-finite system;
                # bail out rather than poison the next gmin step's warm start.
                return voltages, False, iteration, residual, clamps, trajectory
        if not np.all(np.isfinite(new_voltages)):
            return voltages, False, iteration, residual, clamps, trajectory
        delta = new_voltages - voltages
        abs_delta = np.abs(delta)
        # Limit the per-iteration voltage step (classic SPICE damping).
        step = np.clip(delta, -damping, damping)
        voltages = voltages + step
        residual = float(np.max(abs_delta))
        clamps += int(np.count_nonzero(abs_delta > damping))
        if trajectory is not None:
            trajectory.append(residual)
        if residual < tolerance:
            return voltages, True, iteration, residual, clamps, trajectory
    return voltages, False, max_iterations, residual, clamps, trajectory


#: Fallback schedule for solves the standard settings cannot crack: a much
#: denser gmin ladder with gentle damping.  Slower per attempt, so it only
#: runs after the standard ladder has already failed.
_RESCUE_GMIN_STEPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9,
                      1e-10, 1e-11, 1e-12)
_RESCUE_MAX_ITERATIONS = 200
_RESCUE_DAMPING = 0.1
#: The rescue ladder aborts once more than this many of its steps have
#: failed: rescuable chains recover within a step or two, while a
#: genuinely dead circuit fails every remaining level -- bailing out keeps
#: the cost of hopeless designs (common in random optimizer batches) to a
#: fraction of the full ladder.
_RESCUE_MAX_FAILED_STEPS = 2


def _walk_ladder(newton, voltages: np.ndarray, indices: np.ndarray,
                 gmin_steps: tuple[float, ...], max_iterations: int,
                 tolerance: float, damping: float,
                 max_failed_steps: int | None = None, collect: bool = False,
                 ) -> dict:
    """Run the designs ``indices`` down a gmin ladder, warm-starting each step.

    ``newton(voltages, indices, gmin, max_iterations, tolerance, damping,
    collect)`` advances the rows ``indices`` of ``voltages`` in place through
    one rung and returns ``(converged, iterations, residual, clamps,
    trajectories)`` aligned with ``indices``.  Every design runs *every*
    step regardless of earlier convergence, ``converged`` reports the final
    step's outcome, and ``max_failed_steps`` retires a design once more than
    that many of its steps have failed (``None`` never retires).

    Returns per-design lists aligned with ``indices``: the convergence
    flags, total and per-step iteration counts, the last step's residual
    and gmin (what a failure message reports), total damping clamps, and --
    only when ``collect`` -- the last step's residual trajectory.
    """
    count = len(indices)
    converged = [False] * count
    iterations = [0] * count
    per_gmin: list[list[int]] = [[] for _ in range(count)]
    residual = [float("nan")] * count
    final_gmin = [0.0] * count
    clamps = [0] * count
    trajectories: list[tuple] = [()] * count
    failed_steps = [0] * count
    positions = list(range(count))
    rung_indices = indices
    for gmin in gmin_steps:
        step_converged, used, step_residual, step_clamps, step_traj = newton(
            voltages, rung_indices, gmin, max_iterations, tolerance, damping,
            collect)
        for offset, position in enumerate(positions):
            used_here = int(used[offset])
            iterations[position] += used_here
            per_gmin[position].append(used_here)
            converged[position] = bool(step_converged[offset])
            residual[position] = float(step_residual[offset])
            final_gmin[position] = gmin
            clamps[position] += int(step_clamps[offset])
            if step_traj is not None:
                trajectories[position] = tuple(step_traj[offset])
            if not converged[position]:
                failed_steps[position] += 1
        if max_failed_steps is not None:
            positions = [position for position in positions
                         if failed_steps[position] <= max_failed_steps]
            if not positions:
                break
            rung_indices = indices[positions]
    return {"converged": converged, "iterations": iterations,
            "iterations_per_gmin": per_gmin, "residual": residual,
            "gmin": final_gmin, "clamps": clamps,
            "trajectories": trajectories}


def _solve_dc(newton, start: np.ndarray, gmin_steps: tuple[float, ...],
              max_iterations: int, tolerance: float, damping: float,
              rescue: bool, collect: bool) -> tuple[np.ndarray, dict]:
    """The DC policy over a ``(B, size)`` block of starting points.

    Walks the standard gmin ladder; when ``rescue`` is set, the designs that
    failed it restart from ``start`` on the rescue ladder, and a design
    whose rescue also fails keeps the standard ladder's best solution.
    Returns the final iterates and the ladder statistics (see
    :func:`_walk_ladder`, plus a per-design ``rescue_entered`` flag); the
    last ladder a design walked provides its reported residual and gmin.
    """
    voltages = start.copy()
    info = _walk_ladder(newton, voltages, np.arange(len(start)),
                        tuple(gmin_steps), max_iterations, tolerance, damping,
                        collect=collect)
    info["rescue_entered"] = [False] * len(start)
    failed = [b for b, converged in enumerate(info["converged"])
              if not converged]
    if rescue and failed:
        rescue_voltages = voltages.copy()
        rescue_voltages[failed] = start[failed]
        rescued = _walk_ladder(
            newton, rescue_voltages, np.array(failed), _RESCUE_GMIN_STEPS,
            _RESCUE_MAX_ITERATIONS, tolerance, _RESCUE_DAMPING,
            max_failed_steps=_RESCUE_MAX_FAILED_STEPS, collect=collect)
        for offset, b in enumerate(failed):
            info["rescue_entered"][b] = True
            info["iterations"][b] += rescued["iterations"][offset]
            info["iterations_per_gmin"][b] += (
                rescued["iterations_per_gmin"][offset])
            info["clamps"][b] += rescued["clamps"][offset]
            for key in ("residual", "gmin", "trajectories"):
                info[key][b] = rescued[key][offset]
            if rescued["converged"][offset]:
                info["converged"][b] = True
                voltages[b] = rescue_voltages[b]
    return voltages, info


def _dc_stats(info: dict, b: int, **batch) -> SolveStats:
    """Design ``b``'s :class:`SolveStats` from :func:`_solve_dc`'s info."""
    converged = info["converged"][b]
    per_gmin = info["iterations_per_gmin"][b]
    return SolveStats(
        analysis="dc", converged=converged, iterations=info["iterations"][b],
        iterations_per_gmin=tuple(per_gmin), gmin_steps=len(per_gmin),
        rescue_entered=info["rescue_entered"][b],
        damping_clamps=info["clamps"][b],
        final_residual=info["residual"][b],
        final_gmin=float(info["gmin"][b]),
        residual_trajectory=() if converged else info["trajectories"][b],
        **batch)


def _operating_point(circuit: Circuit, solution: np.ndarray, temperature,
                     stats: SolveStats) -> OperatingPoint:
    """Node voltages and device bias info of one solved design."""
    solution = solution.copy()
    node_voltages = {name: float(solution[index])
                     for name, index in zip(circuit.nodes,
                                            range(circuit.n_nodes))}
    device_info = {device.name: device.operating_info(solution, temperature)
                   for device in circuit.devices}
    return OperatingPoint(voltages=solution, node_voltages=node_voltages,
                          device_info=device_info, converged=stats.converged,
                          iterations=stats.iterations, temperature=temperature,
                          stats=stats)


def dc_operating_point(circuit: Circuit, temperature: float = 27.0,
                       max_iterations: int = 150, tolerance: float = 1e-9,
                       damping: float = 0.5,
                       gmin_steps: tuple[float, ...] = (1e-2, 1e-4, 1e-6, 1e-9, 1e-12),
                       initial_guess: np.ndarray | None = None,
                       raise_on_failure: bool = False,
                       rescue: bool = True, solver: str = "auto") -> OperatingPoint:
    """Find the DC operating point of ``circuit``.

    gmin stepping: the circuit is first solved with a large conductance from
    every node to ground (which makes the system nearly linear), then the
    conductance is reduced step by step, warm-starting each Newton solve from
    the previous solution.

    When the standard ladder fails and ``rescue`` is set (the default), one
    fallback attempt runs a much denser gmin ladder with gentler damping
    from the same starting point, bailing out early once a few of its steps
    have failed (hopeless circuits stay cheap; rescuable chains recover
    within a step or two).  Solves that converge on the standard ladder
    never enter the fallback, so their solutions are bit-identical with and
    without it; the fallback exists for *marginally* hard circuits -- e.g.
    a bandgap whose mirror devices carry millivolt mismatch shifts -- where
    the coarse ladder's basin hopping overshoots.

    When Newton fails at the final gmin the best solution found is returned
    with ``converged=False`` (or :class:`ConvergenceError` is raised when
    ``raise_on_failure`` is set) -- the circuit testbenches treat
    non-converged designs as constraint violations rather than crashes.
    """
    circuit.ensure_indices()
    size = circuit.n_nodes + circuit.n_branches
    solver = _resolve_solver(size, solver)
    start = np.zeros(size) if initial_guess is None else np.asarray(
        initial_guess, dtype=float).copy()
    if start.shape[0] != size:
        raise ValueError(f"initial_guess must have length {size}")

    def newton(voltages, indices, gmin, max_iterations, tolerance, damping,
               collect):
        # The scalar kernel as a one-row rung: ``indices`` is always [0].
        voltages[0], converged, used, residual, clamps, trajectory = (
            _newton_solve(circuit, voltages[0], temperature, gmin,
                          max_iterations, tolerance, damping, solver=solver,
                          collect_residuals=collect))
        return ((converged,), (used,), (residual,), (clamps,),
                None if trajectory is None else (trajectory,))

    with telemetry.span("spice.dc", circuit=circuit.title):
        voltages, info = _solve_dc(newton, start[None], gmin_steps,
                                   max_iterations, tolerance, damping, rescue,
                                   telemetry.enabled())
    stats = _dc_stats(info, 0)
    telemetry.record_solve(stats)
    if not stats.converged and raise_on_failure:
        raise ConvergenceError(
            f"DC analysis of {circuit.title!r} did not converge "
            f"{stats.failure_detail()}")
    return _operating_point(circuit, voltages[0], temperature, stats)


# --------------------------------------------------------------------- #
# batched Newton                                                         #
# --------------------------------------------------------------------- #
def _check_batch_topology(circuits: list[Circuit]) -> None:
    """Verify that every circuit in the batch is topology-identical.

    Batched assembly stacks per-design values on shared (row, col) slots, so
    the circuits must agree on node/branch layout and on the device sequence
    (classes, names and resolved indices); only parameter *values* may
    differ.
    """
    first = circuits[0]
    first.ensure_indices()
    for circuit in circuits[1:]:
        circuit.ensure_indices()
        if (circuit.n_nodes != first.n_nodes
                or circuit.n_branches != first.n_branches
                or circuit.nodes != first.nodes
                or len(circuit.devices) != len(first.devices)):
            raise NetlistError(
                f"batched DC analysis needs topology-identical circuits: "
                f"{circuit.title!r} does not match {first.title!r}")
        for reference, device in zip(first.devices, circuit.devices):
            if (type(device) is not type(reference)
                    or device.name != reference.name
                    or device.node_indices != reference.node_indices
                    or device.branch_indices != reference.branch_indices):
                raise NetlistError(
                    f"batched DC analysis needs topology-identical circuits: "
                    f"device {device.name!r} of {circuit.title!r} does not "
                    f"match {first.title!r}")


class _StackedAssembler:
    """What the DC and transient batch assemblers share.

    The batch is transposed into per-device sibling columns, and one dense
    :class:`BatchStamper` or sparse :class:`SparseBatchStamper` is reused
    across Newton iterations, so the sparse triplet pattern locks after the
    first assembly and its symbolic analysis is shared by every later
    factorization.  The counters feed telemetry: convergence-mask occupancy
    (active rows per assembled iteration over the full batch) and sparse
    pattern reuse.
    """

    def __init__(self, circuits: list[Circuit], temperatures: np.ndarray,
                 solver: str):
        first = circuits[0]
        self.n_nodes = first.n_nodes
        self.n_branches = first.n_branches
        self.size = self.n_nodes + self.n_branches
        self.temperatures = temperatures
        self.solver = solver
        self.total_designs = len(circuits)
        self.assemblies = 0
        self.active_rows = 0
        self.columns = [tuple(circuit.devices[position] for circuit in circuits)
                        for position in range(len(first.devices))]
        # Sub-batch gathers are memoized: the active set changes only as
        # designs finish, while stamping runs every iteration.
        self._gather_cache: dict[bytes, tuple] = {}
        self._dense_stamper: BatchStamper | None = None
        self._sparse_stamper: SparseBatchStamper | None = None
        self._sparse_key = None

    @property
    def occupancy(self) -> float:
        """Mean fraction of the batch active per assembled iteration."""
        if not self.assemblies:
            return float("nan")
        return self.active_rows / (self.assemblies * self.total_designs)

    @property
    def pattern_reuse_hits(self) -> int:
        stamper = self._sparse_stamper
        return stamper.pattern_reuse_hits if stamper is not None else 0

    def _stamper(self, batch_size: int, sparse_key=None):
        """A reset stamper for ``batch_size`` active rows.

        A sparse stamper is rebuilt whenever ``sparse_key`` changes: the
        caller passes whatever would change the stamp sequence against the
        locked pattern.
        """
        self.assemblies += 1
        self.active_rows += batch_size
        if self.solver == "sparse":
            stamper = self._sparse_stamper
            if (stamper is None or stamper.batch_size != batch_size
                    or self._sparse_key != sparse_key):
                stamper = SparseBatchStamper(batch_size, self.n_nodes,
                                             self.n_branches)
                self._sparse_stamper = stamper
                self._sparse_key = sparse_key
            else:
                stamper.reset()
            return stamper
        stamper = self._dense_stamper
        if stamper is None or stamper.batch_size != batch_size:
            stamper = BatchStamper(batch_size, self.n_nodes, self.n_branches)
            self._dense_stamper = stamper
        else:
            stamper.reset()
        return stamper


class _BatchAssembler(_StackedAssembler):
    """Assembles the batched DC system for any active subset of designs.

    Built once per batched solve: precomputes each device column's
    vectorized context over the *full* batch, and then stamps arbitrary
    active sub-batches by slicing those contexts row-wise -- convergence
    masking never re-derives model constants.
    """

    def __init__(self, circuits: list[Circuit], temperatures: np.ndarray,
                 solver: str):
        super().__init__(circuits, temperatures, solver)
        self.contexts = [column[0].dc_batch_context(list(column), temperatures)
                         for column in self.columns]
        # Fusion plan: maximal runs of >=2 consecutive same-class fusable
        # columns stamp through one fused kernel (one model evaluation over
        # all rows), everything else stamps per column.  Only *consecutive*
        # columns fuse, and the fused kernel stamps rows in original order,
        # so per-cell accumulation order -- and therefore bitwise results --
        # match the serial device loop exactly.
        self.plan: list[tuple[str, int]] = []
        self.fused: list[tuple[type, list, dict, dict]] = []
        run: list[int] = []

        def flush() -> None:
            if len(run) >= 2:
                devices = [self.columns[position][0] for position in run]
                cls = type(devices[0])
                params = {key: np.stack([self.contexts[position][key]
                                         for position in run])
                          for key in self.contexts[run[0]]}
                self.plan.append(("fused", len(self.fused)))
                self.fused.append((cls, devices,
                                   cls.dc_batch_fused_layout(devices), params))
            else:
                self.plan.extend(("column", position) for position in run)
            run.clear()

        for position, (column, context) in enumerate(zip(self.columns,
                                                         self.contexts)):
            fusable = (context is not None
                       and getattr(column[0], "dc_batch_fusable", False))
            if not fusable:
                flush()
                self.plan.append(("column", position))
                continue
            if run and type(self.columns[run[-1]][0]) is not type(column[0]):
                flush()
            run.append(position)
        flush()

    def _gather(self, indices: np.ndarray) -> tuple:
        key = indices.tobytes()
        cached = self._gather_cache.get(key)
        if cached is None:
            index_list = indices.tolist()
            siblings = [[column[i] for i in index_list]
                        for column in self.columns]
            contexts = [None if context is None
                        else {name: values[indices]
                              for name, values in context.items()}
                        for context in self.contexts]
            temperatures = self.temperatures[indices]
            fused_params = [{name: values[:, indices]
                             for name, values in params.items()}
                            for _, _, _, params in self.fused]
            cached = (siblings, contexts, temperatures, fused_params)
            self._gather_cache[key] = cached
        return cached

    def assemble(self, indices: np.ndarray, voltages: np.ndarray, gmin: float):
        """Stamp the active sub-batch ``indices`` at trial ``voltages``."""
        # A gmin-presence flip would change the stamp sequence against the
        # locked sparse pattern.
        stamper = self._stamper(len(indices), gmin > 0.0)
        siblings, contexts, temperatures, fused_params = self._gather(indices)
        # One errstate frame for the whole stamp loop: device models produce
        # benign overflows/invalids on NaN trial voltages, and entering a
        # context manager per device per iteration is measurable overhead.
        with np.errstate(over="ignore", invalid="ignore"):
            for kind, ref in self.plan:
                if kind == "column":
                    self.columns[ref][0].stamp_dc_batch(
                        stamper, siblings[ref], voltages, temperatures,
                        contexts[ref])
                else:
                    cls, devices, layout, _ = self.fused[ref]
                    cls.stamp_dc_batch_fused(stamper, devices, layout,
                                             fused_params[ref], voltages)
        if gmin > 0.0:
            stamper.add_gmin(gmin)
        return stamper


def _solve_rows_individually(stamper, size: int,
                             errors: list | None = None) -> np.ndarray:
    """Per-design solve fallback once the stacked solve hits a singular design.

    Replicates the scalar solver chain per design -- direct solve, then
    least-squares, then give up: a NaN row, which the finite check freezes
    exactly like the scalar bail-out.  When ``errors`` (aligned with the
    stacked designs) is given, a least-squares failure is also recorded
    there, for callers whose scalar kernel lets it propagate.
    """
    out = np.empty((stamper.batch_size, size))
    for b in range(stamper.batch_size):
        try:
            out[b] = stamper.solve_design(b)
        except np.linalg.LinAlgError:
            try:
                out[b] = stamper.solve_lstsq_design(b)
            except np.linalg.LinAlgError as exc:
                if errors is not None:
                    errors[b] = exc
                out[b] = np.nan
    return out


def _newton_solve_batch(assembler: _BatchAssembler, voltages: np.ndarray,
                        indices: np.ndarray, gmin: float, max_iterations: int,
                        tolerance: float, damping: float,
                        collect_residuals: bool = False,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray, list | None]:
    """Damped Newton on the designs ``indices`` at a fixed gmin level.

    The stacked counterpart of :func:`_newton_solve`: updates the
    full-batch ``voltages`` rows in place and returns ``(converged,
    iterations, residual, clamps, trajectories)`` arrays aligned with
    ``indices``.  Designs freeze the moment the scalar kernel would stop
    them -- after applying the final damped step on convergence, *before*
    applying anything on a non-finite solution -- so warm starts for the
    next ladder step are bit-identical to serial.

    ``residual`` mirrors the scalar kernel's reporting exactly: it holds
    each design's last finite-iteration ``max|delta|`` (NaN when a design
    bailed before its first update), so failure messages built from it are
    string-identical to the serial path's.
    """
    converged = np.zeros(len(indices), dtype=bool)
    iterations = np.zeros(len(indices), dtype=int)
    residual = np.full(len(indices), np.nan)
    clamps = np.zeros(len(indices), dtype=int)
    trajectories: list | None = (
        [[] for _ in range(len(indices))] if collect_residuals else None)
    alive = np.arange(len(indices))
    for iteration in range(1, max_iterations + 1):
        active = indices[alive]
        stamper = assembler.assemble(active, voltages[active], gmin)
        try:
            new_voltages = stamper.solve()
        except np.linalg.LinAlgError:
            new_voltages = _solve_rows_individually(stamper, assembler.size)
        finite = np.isfinite(new_voltages).all(axis=1)
        iterations[alive[~finite]] = iteration
        current = voltages[active]
        delta = new_voltages - current
        abs_delta = np.abs(delta)
        step = np.clip(delta, -damping, damping)
        row_residual = np.max(abs_delta, axis=1)
        # Rows with non-finite deltas compare False here and are already
        # excluded by ``finite``; NaNs propagate through max without noise.
        below_tolerance = row_residual < tolerance
        updated = alive[finite]
        # Serial never computes a delta on the bail-out iteration, so only
        # finite rows refresh their reported residual and clamp count.
        residual[updated] = row_residual[finite]
        clamps[updated] += np.count_nonzero(abs_delta > damping,
                                            axis=1)[finite]
        if trajectories is not None:
            for position, value in zip(updated, row_residual[finite]):
                trajectories[position].append(float(value))
        voltages[indices[updated]] = (current + step)[finite]
        newly_converged = finite & below_tolerance
        converged[alive[newly_converged]] = True
        iterations[alive[newly_converged]] = iteration
        alive = alive[finite & ~below_tolerance]
        if alive.size == 0:
            return converged, iterations, residual, clamps, trajectories
    iterations[alive] = max_iterations
    return converged, iterations, residual, clamps, trajectories


def dc_operating_point_batch(circuits, temperature=27.0,
                             max_iterations: int = 150,
                             tolerance: float = 1e-9, damping: float = 0.5,
                             gmin_steps: tuple[float, ...] = (1e-2, 1e-4, 1e-6, 1e-9, 1e-12),
                             initial_guess: np.ndarray | None = None,
                             raise_on_failure: bool = False,
                             rescue: bool = True, solver: str = "auto",
                             ) -> list[OperatingPoint]:
    """DC operating points of ``B`` topology-identical circuits at once.

    The whole batch walks the gmin ladder together: each Newton iteration
    assembles one ``(B, size, size)`` tensor (devices with a vectorized
    ``stamp_dc_batch`` fill all designs per stamp; the rest fall back to
    per-design stamping into batch slices) and one stacked solve advances
    every still-active design.  Converged designs freeze while stragglers
    iterate, and the rescue ladder runs only on the failed sub-batch, so the
    work tracks the hardest design rather than the batch size.

    ``temperature`` may be a scalar or a length-``B`` array (per-design
    corner temperatures).  Results are bit-identical to calling
    :func:`dc_operating_point` per circuit with the same ``solver``.
    """
    circuits = list(circuits)
    if not circuits:
        return []
    _check_batch_topology(circuits)
    first = circuits[0]
    size = first.n_nodes + first.n_branches
    batch_size = len(circuits)
    solver = _resolve_solver(size, solver)
    temperatures = np.asarray(temperature, dtype=float)
    if temperatures.ndim == 0:
        temperatures = np.full(batch_size, float(temperatures))
    elif temperatures.shape != (batch_size,):
        raise ValueError(f"temperature must be a scalar or have shape "
                         f"({batch_size},), got {temperatures.shape}")
    if initial_guess is None:
        start = np.zeros((batch_size, size))
    else:
        start = np.asarray(initial_guess, dtype=float).copy()
        if start.shape != (batch_size, size):
            raise ValueError(f"initial_guess must have shape "
                             f"({batch_size}, {size}), got {start.shape}")

    assembler = _BatchAssembler(circuits, temperatures, solver)
    with telemetry.span("spice.dc_batch", batch=batch_size,
                        circuit=first.title):
        voltages, info = _solve_dc(
            partial(_newton_solve_batch, assembler), start, gmin_steps,
            max_iterations, tolerance, damping, rescue, telemetry.enabled())

    occupancy = assembler.occupancy
    reuse_hits = assembler.pattern_reuse_hits
    per_design_stats = [
        _dc_stats(info, b, batch_size=batch_size, batch_occupancy=occupancy,
                  pattern_reuse_hits=reuse_hits)
        for b in range(batch_size)]
    if telemetry.enabled():
        for stats in per_design_stats:
            telemetry.record_solve(stats)
        if occupancy == occupancy:  # skip the no-assembly NaN
            telemetry.observe("repro_batch_occupancy", occupancy,
                              telemetry.FRACTION_BUCKETS)
        telemetry.inc("repro_pattern_reuse_total", reuse_hits)

    failures = [b for b, stats in enumerate(per_design_stats)
                if not stats.converged]
    if raise_on_failure and failures:
        first_failure = failures[0]
        raise ConvergenceError(
            f"batched DC analysis: {len(failures)} of {batch_size} designs "
            f"did not converge (first failure: "
            f"{circuits[first_failure].title!r} "
            f"{per_design_stats[first_failure].failure_detail()})")
    return [_operating_point(circuit, voltages[b], float(temperatures[b]),
                             per_design_stats[b])
            for b, circuit in enumerate(circuits)]
