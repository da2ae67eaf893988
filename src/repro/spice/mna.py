"""Modified-nodal-analysis stamp plan and Newton iteration core.

A :class:`StampPlan` compiles a circuit once per analysis.  The linear
elements become two constant matrices: ``G`` (resistor conductances,
voltage-source incidence and gmin) and ``C`` (capacitors and the FET
gate caps).  A backward-Euler step of size ``dt`` from ``v_prev`` then
solves

    A v + b + i_fet(v) = 0,   A = G + C/dt,   b = s(t) - (C/dt) v_prev

where everything but ``i_fet`` is affine in ``v``: the plan caches ``A``
per ``dt`` in a :class:`StepSystem`, and :func:`newton_solve` forms the
step constant ``b`` once per call.  DC analysis is the same system with
``A = G`` and ``b = s(t)``.  A node's residual is the sum of the
currents flowing OUT of it; Newton drives every residual to zero.

A Newton linearization is one pass over the FETs: each device returns
its current and its analytic gm and gds from one model evaluation
(:meth:`repro.devices.fet.FET.ids_gm_gds`), which give the residual and
the Jacobian ``A + d i_fet / dv`` together.  Line-search trials need
only the residual, so they evaluate only the currents.  Ground is a
padded slot at index ``n``: the cached arrays give it a row (and the
Jacobian a column), which both methods discard, so no stamp has to test
for it.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.devices.fet import FET
from repro.errors import ConvergenceError, NetlistError
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    FetElement,
    Resistor,
    VoltageSource,
)
from repro.spice.netlist import GROUND, Circuit

#: Conductance from every node to ground, for numerical regularization
#: (keeps floating nodes solvable and Jacobians non-singular).
DEFAULT_GMIN = 1e-12

#: Newton damping: largest voltage change applied per iteration.
MAX_NEWTON_STEP_V = 0.5

#: Step scales tried by the Newton line search, largest first.
LINE_SEARCH_SCALES = tuple(0.5**k for k in range(12))


def _stamp_pair(matrix: np.ndarray, a: int, b: int, value: float) -> None:
    """A two-terminal admittance ``value`` between slots ``a`` and ``b``."""
    matrix[a, a] += value
    matrix[a, b] -= value
    matrix[b, a] -= value
    matrix[b, b] += value


class StampPlan:
    """One circuit compiled for one analysis (see the module docstring).

    Source drives are read at every :meth:`sources` call, so swapping an
    element's ``drive`` between analyses needs no recompile; changing
    the netlist's elements or values does.
    """

    def __init__(self, circuit: Circuit, gmin: float) -> None:
        circuit.validate()
        self.circuit = circuit
        #: Node name -> unknown index; ground maps to -1.
        self.index = circuit.unknown_index()
        #: Voltage-source name -> branch-current unknown index.
        self.offsets = circuit.branch_offsets()
        n = self.n = circuit.n_unknowns()
        slot = {node: n if i < 0 else i for node, i in self.index.items()}
        g = np.zeros((n + 1, n + 1))
        c = np.zeros((n + 1, n + 1))
        self.voltage_sources = []  # (element, branch row)
        self.current_sources = []  # (element, from slot, to slot)
        self.fets = []  # (FET, drain, gate, source slots)
        for e in circuit.elements:
            nodes = [slot[node] for node in e.nodes]
            if isinstance(e, Resistor):
                _stamp_pair(g, *nodes, 1.0 / e.resistance)
            elif isinstance(e, Capacitor):
                _stamp_pair(c, *nodes, e.capacitance)
            elif isinstance(e, VoltageSource):
                a, b = nodes
                k = self.offsets[e.name]
                # The branch current leaves n1 and enters n2; the branch
                # equation is v(n1) - v(n2) - V(t) = 0.
                g[a, k] += 1.0
                g[b, k] -= 1.0
                g[k, a] += 1.0
                g[k, b] -= 1.0
                self.voltage_sources.append((e, k))
            elif isinstance(e, CurrentSource):
                self.current_sources.append((e, *nodes))
            elif isinstance(e, FetElement):
                d, gate, s = nodes
                if e.include_gate_caps:
                    # Quasi-static split: half the gate cap to each side.
                    c_half = e.fet.gate_capacitance_f() / 2.0
                    _stamp_pair(c, gate, d, c_half)
                    _stamp_pair(c, gate, s, c_half)
                self.fets.append((e.fet, d, gate, s))
            else:
                raise NetlistError(
                    f"{circuit.name!r}: cannot compile {e.name!r} of type "
                    f"{type(e).__name__}"
                )
        nodes = np.arange(len(circuit.nodes))
        g[nodes, nodes] += gmin
        self._g = g
        self._c = c
        self._systems: Dict[Optional[float], StepSystem] = {}

    def system(self, dt: Optional[float]) -> "StepSystem":
        """The step system for time step ``dt`` (None: DC), cached."""
        system = self._systems.get(dt)
        if system is None:
            c_dt = None if dt is None else self._c / dt
            system = self._systems[dt] = StepSystem(self.n, self.fets, self._g, c_dt)
        return system

    def sources(self, t: float, scale: float = 1.0) -> np.ndarray:
        """Source term ``s(t)``, voltage sources multiplied by ``scale``."""
        s = np.zeros(self.n + 1)
        for source, k in self.voltage_sources:
            s[k] -= scale * source.drive.at(t)
        for source, a, b in self.current_sources:
            i = source.drive.at(t)
            s[a] += i
            s[b] -= i
        return s

    def set_nodes(self, v: np.ndarray, voltages: Dict[str, float]) -> None:
        """Write node -> voltage into ``v``, skipping ground and names
        the circuit does not have."""
        for node, value in voltages.items():
            i = self.index.get(node, -1)
            if i >= 0:
                v[i] = value

    def solution(self, v: np.ndarray) -> Dict[str, float]:
        """Node name -> voltage (ground included as 0.0)."""
        out = {GROUND: 0.0}
        out.update((node, float(v[i])) for node, i in self.index.items() if i >= 0)
        return out


class StepSystem:
    """The MNA equations of one :class:`StampPlan` at one time step.

    Holds the rows of ``A = G + C/dt`` and of ``C/dt`` without the ground
    column (the ground voltage is zero), and ``A`` padded with the ground
    row and column as the base every Jacobian is stamped on.  For DC,
    ``A = G`` and there is no ``C/dt``.
    """

    def __init__(
        self,
        n: int,
        fets: "list[tuple[FET, int, int, int]]",
        g: np.ndarray,
        c_dt: Optional[np.ndarray],
    ) -> None:
        self.n = n
        self.fets = fets
        a = g if c_dt is None else g + c_dt
        self._a_rows = np.ascontiguousarray(a[:, :n])
        self._c_dt_rows = None if c_dt is None else np.ascontiguousarray(c_dt[:, :n])
        self._jacobian_base = a

    def constant(self, s: np.ndarray, v_prev: Optional[np.ndarray]) -> np.ndarray:
        """The step constant ``b = s - (C/dt) v_prev`` (``s`` in DC)."""
        if self._c_dt_rows is None:
            return s
        return s - self._c_dt_rows @ v_prev

    def residual(self, v: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``A v + b + i_fet(v)``: one FET current per device."""
        residual = self._a_rows @ v + b
        volts = v.tolist()
        volts.append(0.0)  # the ground slot
        for fet, d, g, s in self.fets:
            vs = volts[s]
            i = fet.ids(volts[g] - vs, volts[d] - vs)
            # The channel current flows d -> s inside the device.
            residual[d] += i
            residual[s] -= i
        return residual[: self.n]

    def linearize(
        self, v: np.ndarray, b: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """(residual, Jacobian) at ``v`` from one pass over the FETs."""
        residual = self._a_rows @ v + b
        jacobian = self._jacobian_base.copy()
        volts = v.tolist()
        volts.append(0.0)  # the ground slot
        for fet, d, g, s in self.fets:
            vs = volts[s]
            i, gm, gds = fet.ids_gm_gds(volts[g] - vs, volts[d] - vs)
            residual[d] += i
            residual[s] -= i
            jacobian[d, g] += gm
            jacobian[d, d] += gds
            jacobian[d, s] -= gm + gds
            jacobian[s, g] -= gm
            jacobian[s, d] -= gds
            jacobian[s, s] += gm + gds
        n = self.n
        return residual[:n], jacobian[:n, :n]


def newton_solve(
    plan: StampPlan,
    v0: np.ndarray,
    t: float,
    dt: Optional[float],
    v_prev: Optional[np.ndarray],
    source_scale: float = 1.0,
    max_iterations: int = 100,
    abstol: float = 1e-9,
    vtol: float = 1e-7,
) -> np.ndarray:
    """Damped Newton-Raphson on the MNA equations of ``plan``.

    Convergence requires both a small residual (KCL satisfied to
    ``abstol`` amperes) and a small last voltage update (``vtol`` volts).
    ``source_scale`` multiplies every voltage source (DC source stepping).

    Raises :class:`ConvergenceError` if the iteration limit is reached.
    """
    name = plan.circuit.name
    system = plan.system(dt)
    b = system.constant(plan.sources(t, source_scale), v_prev)
    v = v0
    for _iteration in range(max_iterations):
        residual, jacobian = system.linearize(v, b)
        residual_norm = float(np.abs(residual).max())
        try:
            delta = np.linalg.solve(jacobian, -residual)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"{name!r}: singular Jacobian at t={t:g}") from exc
        # Damp large steps to keep exponential devices stable.  The cap
        # scales with the current solution magnitude so linear circuits
        # with large node voltages still converge geometrically; it is
        # never below MAX_NEWTON_STEP_V, so smaller steps skip it.
        max_step = float(np.abs(delta).max())
        if max_step > MAX_NEWTON_STEP_V:
            step_cap = max(MAX_NEWTON_STEP_V, 2.0 * float(np.abs(v).max()))
            if max_step > step_cap:
                damping = step_cap / max_step
                delta *= damping
                max_step *= damping  # exactly max|delta|: rounding is monotone
        # Backtracking line search: stacked exponential devices make
        # full Newton steps oscillate; halve until the residual improves.
        # When every trial is worse, the last one evaluated is taken.
        for scale in LINE_SEARCH_SCALES:
            v_try = v + scale * delta
            norm_try = float(np.abs(system.residual(v_try, b)).max())
            if norm_try <= residual_norm or norm_try < abstol:
                break
        v = v_try
        # scale * max_step is max|scale * delta| exactly: scale is 2^-k.
        if scale * max_step < vtol and norm_try < abstol:
            return v
    raise ConvergenceError(
        f"{name!r}: Newton failed to converge at t={t:g} "
        f"after {max_iterations} iterations"
    )
