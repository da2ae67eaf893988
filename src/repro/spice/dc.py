"""DC operating-point analysis with source stepping."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import AnalysisError, ConvergenceError
from repro.spice.elements import VoltageSource
from repro.spice.mna import DEFAULT_GMIN, StampPlan, newton_solve
from repro.spice.netlist import Circuit
from repro.spice.waveform import Dc


def dc_operating_point(
    circuit: Circuit,
    initial_guess: Optional[Dict[str, float]] = None,
    gmin: float = DEFAULT_GMIN,
) -> Dict[str, float]:
    """Solve for the DC operating point (capacitors open).

    Strategy: plain Newton from the initial guess (zeros by default); on
    failure, source stepping — ramp all independent voltage sources from
    10 % to 100 % in 10 steps, reusing each converged solution as the
    next starting point.  The netlist itself is never modified.

    Returns:
        Node name -> voltage.  Time-varying sources are evaluated at t=0.
    """
    plan = StampPlan(circuit, gmin)
    v = np.zeros(plan.n)
    if initial_guess:
        plan.set_nodes(v, initial_guess)
    try:
        return plan.solution(newton_solve(plan, v, t=0.0, dt=None, v_prev=None))
    except ConvergenceError:
        pass
    v = np.zeros(plan.n)
    for scale in np.linspace(0.1, 1.0, 10):
        v = newton_solve(
            plan, v, t=0.0, dt=None, v_prev=None, source_scale=float(scale)
        )
    return plan.solution(v)


def dc_sweep(
    circuit: Circuit,
    source_name: str,
    values: "list[float]",
) -> "list[Dict[str, float]]":
    """Sweep a voltage source through ``values``; returns one operating
    point per value.  The source's drive is restored afterwards."""
    source = circuit.element(source_name)
    if not isinstance(source, VoltageSource):
        raise AnalysisError(f"{source_name!r} is not a voltage source")
    original = source.drive
    results = []
    guess: Optional[Dict[str, float]] = None
    try:
        for value in values:
            source.drive = Dc(value)
            guess = dc_operating_point(circuit, initial_guess=guess)
            results.append(guess)
    finally:
        source.drive = original
    return results
