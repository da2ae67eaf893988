"""Fixed-step transient analysis (backward Euler).

Backward Euler is L-stable — the right choice for stiff memory-cell
netlists that mix femtofarad storage nodes with ultra-low leakage
currents.  Each step solves the nonlinear MNA system with Newton,
started, as in SPICE, from a predictor: the quadratic through the last
three accepted points, extrapolated one step.  That guess is usually
within Newton's voltage tolerance already, so a step typically takes a
single Jacobian.  Like a SPICE ``.meas`` with a stop condition, a run
may end early once the threshold crossings its caller measures have
all occurred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError, ConvergenceError
from repro.spice.dc import dc_operating_point
from repro.spice.elements import VoltageSource
from repro.spice.mna import DEFAULT_GMIN, StampPlan, newton_solve
from repro.spice.netlist import Circuit
from repro.spice.waveform import Crossing, Waveform, _trapezoid, crossed


@dataclass
class TransientResult:
    """Sampled node voltages and voltage-source branch currents."""

    times: np.ndarray
    node_voltages: Dict[str, np.ndarray]
    branch_currents: Dict[str, np.ndarray]

    def voltage(self, node: str) -> Waveform:
        if node not in self.node_voltages:
            raise AnalysisError(f"no recorded node {node!r}")
        return Waveform(self.times, self.node_voltages[node])

    def current(self, source_name: str) -> Waveform:
        if source_name not in self.branch_currents:
            raise AnalysisError(f"no recorded source current {source_name!r}")
        return Waveform(self.times, self.branch_currents[source_name])

    def source_energy_j(self, source_name: str, circuit: Circuit) -> float:
        """Energy *delivered by* a voltage source over the window.

        E = integral of V(t) * (-I_branch(t)) dt: the branch current is
        defined flowing from + through the source to -, so a source
        delivering power has negative branch current.
        """
        source = circuit.element(source_name)
        if not isinstance(source, VoltageSource):
            raise AnalysisError(f"{source_name!r} is not a voltage source")
        i = self.branch_currents[source_name]
        drive = source.drive
        at_array = getattr(drive, "at_array", None)
        if at_array is not None:
            v = np.asarray(at_array(self.times), dtype=float)
        else:  # custom drive objects only expose the scalar protocol
            v = np.array([drive.at(t) for t in self.times])
        return float(_trapezoid(v * (-i), self.times))


def transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    initial_conditions: Optional[Dict[str, float]] = None,
    use_dc_start: bool = True,
    gmin: float = DEFAULT_GMIN,
    stop_after: Sequence[Crossing] = (),
) -> TransientResult:
    """Run a transient analysis from 0 to ``t_stop``.

    Each step's Newton solve starts from the extrapolation of the
    accepted points (quadratic from the third step, linear at the
    second, the initial point at the first); the backward-Euler
    companion always uses the previous point.  A step whose solve fails
    is retried as two half steps, started from the previous point.

    Args:
        circuit: The netlist.
        t_stop: End time (seconds).
        dt: Fixed time step (seconds).
        initial_conditions: Node -> voltage overrides applied on top of
            the starting point (DC solution or zeros).
        use_dc_start: Solve a DC operating point at t=0 as the start
            state; otherwise start from zeros + initial_conditions
            (a "UIC" start).
        gmin: Regularization conductance.
        stop_after: ``(node, threshold, rising)`` crossings.  The run
            ends after the step at which the last of them first occurs,
            tested with the predicate :meth:`Waveform.crossings` uses;
            if one never occurs, it runs to ``t_stop``.  The step grid
            and each step are unchanged, and the predictor reads only
            accepted points, so a stopped run is an exact prefix of the
            full one and its first crossings are the same.
            Empty (the default) always runs to ``t_stop``.

    Returns:
        A :class:`TransientResult` with every node and source current
        sampled at every step taken.
    """
    if not (0 < dt < math.inf and 0 < t_stop < math.inf):
        raise AnalysisError("dt and t_stop must be positive and finite")
    if dt > t_stop:
        raise AnalysisError("dt must not exceed t_stop")
    plan = StampPlan(circuit, gmin)

    v = np.zeros(plan.n)
    if use_dc_start:
        plan.set_nodes(
            v, dc_operating_point(circuit, initial_guess=initial_conditions, gmin=gmin)
        )
    if initial_conditions:
        for node in initial_conditions:
            if not circuit.has_node(node):
                raise AnalysisError(f"initial condition on unknown node {node!r}")
        plan.set_nodes(v, initial_conditions)

    pending: List[Tuple[int, float, bool]] = []
    for node, threshold, rising in stop_after:
        if plan.index.get(node, -1) < 0:
            raise AnalysisError(f"no recorded node {node!r}")
        pending.append((plan.index[node], threshold, rising))

    n_steps = int(round(t_stop / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    history = np.zeros((n_steps + 1, plan.n))
    history[0] = v
    last = n_steps

    # Python floats (the same values): the sources' drives then do float
    # arithmetic rather than numpy-scalar arithmetic.
    step_times = times.tolist()
    for step in range(1, n_steps + 1):
        t = step_times[step]
        v_prev = history[step - 1]
        if step >= 3:
            guess = 3.0 * (v_prev - history[step - 2]) + history[step - 3]
        elif step == 2:
            guess = 2.0 * v_prev - history[0]
        else:
            guess = v_prev
        try:
            v = newton_solve(plan, guess, t=t, dt=dt, v_prev=v_prev)
        except ConvergenceError:
            # Retry once with a half step to get past sharp source edges.
            half = newton_solve(plan, v_prev, t=t - dt / 2, dt=dt / 2, v_prev=v_prev)
            v = newton_solve(plan, half, t=t, dt=dt / 2, v_prev=half)
        history[step] = v
        if pending:
            pending = [
                (i, threshold, rising)
                for i, threshold, rising in pending
                if not crossed(v_prev[i] - threshold, v[i] - threshold, rising)
            ]
            if not pending:
                last = step
                break
    times, history = times[: last + 1], history[: last + 1]

    node_voltages = {
        node: history[:, idx] for node, idx in plan.index.items() if idx >= 0
    }
    branch_currents = {
        name: history[:, off] for name, off in plan.offsets.items()
    }
    return TransientResult(
        times=times,
        node_voltages=node_voltages,
        branch_currents=branch_currents,
    )
