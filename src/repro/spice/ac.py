"""AC small-signal analysis and transfer-function measurements."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spice.dc import OperatingPoint
from repro.spice.netlist import Circuit


@dataclass
class ACResult:
    """Frequency response of one (or more) observed nodes.

    Attributes
    ----------
    frequencies:
        Analysis frequencies in hertz.
    node_voltages:
        Mapping node name -> complex response array (same length as
        ``frequencies``).
    """

    frequencies: np.ndarray
    node_voltages: dict[str, np.ndarray]

    # ------------------------------------------------------------------ #
    # accessors                                                           #
    # ------------------------------------------------------------------ #
    def response(self, node: str) -> np.ndarray:
        return self.node_voltages[node]

    def magnitude_db(self, node: str) -> np.ndarray:
        return 20.0 * np.log10(np.maximum(np.abs(self.response(node)), 1e-30))

    def phase_degrees(self, node: str, unwrap: bool = True) -> np.ndarray:
        phase = np.angle(self.response(node))
        if unwrap:
            phase = np.unwrap(phase)
        return np.degrees(phase)

    # ------------------------------------------------------------------ #
    # measurements                                                        #
    # ------------------------------------------------------------------ #
    def dc_gain_db(self, node: str) -> float:
        """Gain at the lowest analysed frequency."""
        return float(self.magnitude_db(node)[0])

    def unity_gain_frequency(self, node: str) -> float:
        """First frequency where the magnitude crosses 0 dB (GBW proxy).

        The two no-crossing cases resolve differently:

        * starting *at or below* 0 dB returns 0 -- the amplifier is
          essentially dead, so a GBW constraint should fail outright;
        * staying *above* 0 dB through the whole sweep clamps to the last
          analysed frequency -- the true crossing lies beyond the sweep, so
          the clamp is a conservative lower bound on the real GBW.
        """
        magnitude = self.magnitude_db(node)
        if magnitude[0] <= 0.0:
            return 0.0
        below = np.nonzero(magnitude <= 0.0)[0]
        if below.size == 0:
            return float(self.frequencies[-1])
        index = below[0]
        # Log-linear interpolation between the straddling points.
        f_low, f_high = self.frequencies[index - 1], self.frequencies[index]
        m_low, m_high = magnitude[index - 1], magnitude[index]
        if m_low == m_high:
            return float(f_high)
        fraction = m_low / (m_low - m_high)
        return float(np.exp(np.log(f_low) + fraction * (np.log(f_high) - np.log(f_low))))

    def phase_margin_degrees(self, node: str) -> float:
        """Phase margin at the unity-gain frequency (0 when there is no crossing)."""
        unity = self.unity_gain_frequency(node)
        if unity <= 0.0:
            return 0.0
        phase = self.phase_degrees(node)
        # Normalise so the low-frequency phase reference is 0 (or 180 for
        # inverting responses) before measuring distance to -180 degrees.
        reference = phase[0]
        relative = phase - reference
        interpolated = np.interp(np.log(unity), np.log(self.frequencies), relative)
        margin = 180.0 + interpolated
        return float(np.clip(margin, -180.0, 360.0))

    def gain_margin_db(self, node: str) -> float:
        """Gain margin of a loop-gain response: ``-|T|`` dB at -180 degrees.

        The phase is referenced to its low-frequency value (like
        :meth:`phase_margin_degrees`) and the first crossing of -180 degrees
        is located by log-frequency interpolation.  A response whose phase
        never reaches -180 within the sweep reports the margin at the last
        analysed frequency -- a conservative lower bound, mirroring
        :meth:`unity_gain_frequency`'s clamp.
        """
        phase = self.phase_degrees(node)
        relative = phase - phase[0]
        below = np.nonzero(relative <= -180.0)[0]
        magnitude = self.magnitude_db(node)
        if below.size == 0:
            return float(-magnitude[-1])
        index = below[0]
        if index == 0:
            return float(-magnitude[0])
        p_low, p_high = relative[index - 1], relative[index]
        fraction = (p_low + 180.0) / (p_low - p_high)
        log_f = (np.log(self.frequencies[index - 1])
                 + fraction * (np.log(self.frequencies[index])
                               - np.log(self.frequencies[index - 1])))
        crossing = float(np.exp(log_f))
        return float(-self.gain_at(node, crossing))

    def gain_at(self, node: str, frequency: float) -> float:
        """Interpolated magnitude (dB) at an arbitrary frequency."""
        magnitude = self.magnitude_db(node)
        return float(np.interp(np.log(frequency), np.log(self.frequencies), magnitude))

    def bandwidth_3db(self, node: str) -> float:
        """-3 dB bandwidth relative to the low-frequency gain."""
        magnitude = self.magnitude_db(node)
        target = magnitude[0] - 3.0
        below = np.nonzero(magnitude <= target)[0]
        if below.size == 0:
            return float(self.frequencies[-1])
        index = below[0]
        if index == 0:
            return float(self.frequencies[0])
        f_low, f_high = self.frequencies[index - 1], self.frequencies[index]
        m_low, m_high = magnitude[index - 1], magnitude[index]
        fraction = (m_low - target) / (m_low - m_high)
        return float(np.exp(np.log(f_low) + fraction * (np.log(f_high) - np.log(f_low))))


def logspace_frequencies(start: float = 1.0, stop: float = 1e9,
                         points_per_decade: int = 20) -> np.ndarray:
    """Logarithmically spaced analysis frequencies."""
    decades = np.log10(stop) - np.log10(start)
    count = max(int(decades * points_per_decade) + 1, 2)
    return np.logspace(np.log10(start), np.log10(stop), count)


#: Tiny conductance to ground keeping otherwise-floating nodes solvable.
_AC_GMIN = 1e-15


def ac_analysis(circuit: Circuit, operating_point: OperatingPoint,
                frequencies: np.ndarray | None = None,
                observe: list[str] | None = None,
                method: str = "auto") -> ACResult:
    """Complex small-signal sweep of ``circuit`` around ``operating_point``.

    Parameters
    ----------
    frequencies:
        Frequencies in hertz; defaults to 1 Hz .. 1 GHz, 20 points/decade.
    observe:
        Node names to record; defaults to every non-ground node.
    method:
        ``"auto"`` (default) uses the vectorized path whenever every device
        declares affine AC stamps, falling back to the per-frequency loop
        when a device is non-affine or a frequency point is singular;
        ``"vectorized"`` forces the stacked solve (raising ``ValueError``
        for declared non-affine devices and propagating ``LinAlgError`` on
        singular systems or stamps that fail the affinity probe, instead of
        silently switching paths); ``"per_frequency"`` forces the simple
        reference loop.

    Notes
    -----
    The vectorized path exploits the fact that every built-in device stamp is
    affine in the angular frequency, ``A(omega) = G + omega * S`` with
    ``S = 1j * C``, and the excitation vector is frequency-independent.  The
    system is therefore assembled exactly twice (at ``omega = 0`` and
    ``omega = 1``) and all frequency points are solved as one stacked
    ``(F, N, N)`` :func:`numpy.linalg.solve` call, which removes the Python
    stamping loop and lets LAPACK batch the factorizations.
    """
    if method not in ("auto", "vectorized", "per_frequency"):
        raise ValueError(f"unknown AC method {method!r}")
    if frequencies is None:
        frequencies = logspace_frequencies()
    frequencies = np.asarray(frequencies, dtype=float)
    circuit.ensure_indices()
    observed = list(observe) if observe is not None else circuit.nodes

    affine = all(device.ac_affine for device in circuit.devices)
    if method == "vectorized" and not affine:
        non_affine = [d.name for d in circuit.devices if not d.ac_affine]
        raise ValueError("method='vectorized' requires affine AC stamps; "
                         f"non-affine devices: {non_affine}")
    if method == "vectorized" or (method == "auto" and affine):
        try:
            base, slope, rhs = _affine_ac_system(circuit, operating_point)
            solutions = _solve_affine_stack(base[None], slope[None],
                                            rhs[None], frequencies,
                                            circuit.n_nodes)[0]
        except np.linalg.LinAlgError:
            if method == "vectorized":
                raise
            # One or more frequency points are singular; the reference loop
            # below handles those individually via least squares.
        else:
            return ACResult(frequencies=frequencies,
                            node_voltages=_node_responses(circuit, solutions,
                                                          observed))
    return _ac_analysis_per_frequency(circuit, operating_point,
                                      frequencies, observed)


def _affine_ac_system(circuit: Circuit, operating_point: OperatingPoint,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(G, S, rhs)`` with ``A(omega) = G + omega * S``, probed for affinity.

    Raises :class:`numpy.linalg.LinAlgError` when the excitation depends on
    frequency or the stamps are not affine in omega.
    """
    base = circuit.stamp_ac(0.0, operating_point)
    unit = circuit.stamp_ac(1.0, operating_point)
    if not np.array_equal(base.rhs, unit.rhs):
        raise np.linalg.LinAlgError("AC excitation is frequency-dependent")
    # A(omega) = G + omega * S  with  G = A(0)  and  S = A(1) - A(0).
    slope = unit.matrix - base.matrix
    # Affinity is declared by devices but verified here against a third
    # sample: a device whose stamps are secretly non-affine in omega (despite
    # ac_affine=True) must not silently get extrapolated wrong answers.
    # omega=2 is a power of two, so for truly affine stamps the comparison is
    # exact up to accumulation noise.
    probe = circuit.stamp_ac(2.0, operating_point)
    expected = base.matrix + 2.0 * slope
    if not (np.allclose(probe.matrix, expected, rtol=1e-8, atol=1e-30)
            and np.array_equal(probe.rhs, base.rhs)):
        raise np.linalg.LinAlgError("AC stamps are not affine in omega")
    return base.matrix, slope, base.rhs


def _node_responses(circuit: Circuit, solutions: np.ndarray,
                    observed: list[str]) -> dict[str, np.ndarray]:
    """Observed node -> its column of the ``(F, size)`` solution stack."""
    responses: dict[str, np.ndarray] = {}
    for node in observed:
        index = circuit.node_index(node)
        if index < 0:
            responses[node] = np.zeros(solutions.shape[0], dtype=complex)
        else:
            responses[node] = solutions[:, index].copy()
    return responses


def _solve_affine_stack(bases: np.ndarray, slopes: np.ndarray,
                        rhs: np.ndarray, frequencies: np.ndarray,
                        n_nodes: int) -> np.ndarray:
    """Solve ``(G_b + omega_f S_b + gmin) x = rhs_b`` for every design and
    frequency in one stacked :func:`numpy.linalg.solve` call.

    ``bases``/``slopes`` are ``(B, N, N)``, ``rhs`` is ``(B, N)``; returns the
    ``(B, F, N)`` solutions.  Raises :class:`numpy.linalg.LinAlgError` when
    any system of the stack is singular.
    """
    omegas = 2.0 * np.pi * frequencies
    systems = (bases[:, None, :, :]
               + omegas[None, :, None, None] * slopes[:, None, :, :])
    diagonal = np.arange(n_nodes)
    systems[:, :, diagonal, diagonal] += _AC_GMIN
    # Broadcast the right-hand side as an (N, 1) matrix per system so the
    # solve is unambiguous across the design and frequency axes.
    stacked_rhs = np.broadcast_to(rhs[:, None, :, None],
                                  systems.shape[:3] + (1,))
    return np.linalg.solve(systems, stacked_rhs)[..., 0]


#: Memory budget (bytes) for one stacked ``(b, F, N, N)`` complex tensor in
#: the batched AC path; larger batches are solved in chunks.
_AC_BATCH_BYTES = 3.2e8


def ac_analysis_batch(circuits, operating_points,
                      frequencies: np.ndarray | None = None,
                      observe: list[str] | None = None,
                      method: str = "auto") -> list[ACResult]:
    """AC sweeps of ``B`` topology-identical circuits as stacked solves.

    Extends the vectorized affine path to a ``(B, F, N, N)`` tensor: each
    design's ``G``/``S`` matrices are assembled (and affinity-probed) exactly
    as in :func:`ac_analysis`, the stack is solved in one LAPACK call (in
    memory-bounded chunks along the design axis), and each design's slice is
    bit-identical to its serial solve.  Designs that fail the affinity probe
    or hit a singular frequency point fall back to serial
    :func:`ac_analysis` individually; ``method="vectorized"`` /
    ``"per_frequency"`` simply loop the serial path per design.
    """
    circuits = list(circuits)
    operating_points = list(operating_points)
    if len(circuits) != len(operating_points):
        raise ValueError("need one operating point per circuit")
    if not circuits:
        return []
    if method not in ("auto", "vectorized", "per_frequency"):
        raise ValueError(f"unknown AC method {method!r}")
    if frequencies is None:
        frequencies = logspace_frequencies()
    frequencies = np.asarray(frequencies, dtype=float)
    if method != "auto":
        return [ac_analysis(circuit, op, frequencies, observe, method)
                for circuit, op in zip(circuits, operating_points)]

    results: list[ACResult | None] = [None] * len(circuits)
    serial_designs: list[int] = []
    prepared: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
    for b, (circuit, op) in enumerate(zip(circuits, operating_points)):
        circuit.ensure_indices()
        if not all(device.ac_affine for device in circuit.devices):
            serial_designs.append(b)
            continue
        try:
            prepared.append((b, *_affine_ac_system(circuit, op)))
        except np.linalg.LinAlgError:
            serial_designs.append(b)

    first = circuits[0]
    observed = list(observe) if observe is not None else first.nodes
    size = first.n_nodes + first.n_branches
    bytes_per_design = max(frequencies.shape[0] * size * size * 16, 1)
    chunk = max(1, int(_AC_BATCH_BYTES // bytes_per_design))
    for offset in range(0, len(prepared), chunk):
        group = prepared[offset:offset + chunk]
        try:
            solutions = _solve_affine_stack(
                np.stack([entry[1] for entry in group]),
                np.stack([entry[2] for entry in group]),
                np.stack([entry[3] for entry in group]), frequencies,
                first.n_nodes)
        except np.linalg.LinAlgError:
            # At least one design has a singular frequency point; let the
            # serial driver sort each of them out (it falls back to the
            # per-frequency least-squares loop design by design).
            serial_designs.extend(entry[0] for entry in group)
            continue
        for j, (b, *_rest) in enumerate(group):
            results[b] = ACResult(frequencies=frequencies,
                                  node_voltages=_node_responses(
                                      circuits[b], solutions[j], observed))
    for b in serial_designs:
        results[b] = ac_analysis(circuits[b], operating_points[b],
                                 frequencies, observe, method="auto")
    return results


def _ac_analysis_per_frequency(circuit: Circuit, operating_point: OperatingPoint,
                               frequencies: np.ndarray,
                               observed: list[str]) -> ACResult:
    """Reference implementation: assemble and solve one system per frequency."""
    responses = {node: np.empty(frequencies.shape[0], dtype=complex) for node in observed}
    for index, frequency in enumerate(frequencies):
        omega = 2.0 * np.pi * frequency
        stamper = circuit.stamp_ac(omega, operating_point)
        stamper.add_gmin(_AC_GMIN)
        try:
            solution = stamper.solve()
        except np.linalg.LinAlgError:
            solution = stamper.solve_lstsq()
        for node in observed:
            responses[node][index] = circuit.node_voltage(solution, node)
    return ACResult(frequencies=frequencies, node_voltages=responses)
