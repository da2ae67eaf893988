"""Latch-type sense amplifier: a SPICE test circuit.

Two cross-coupled Si inverters with a footed enable, started at a
sampled bitline differential and left to regenerate to full rail.  It is
the only latch among the SPICE test circuits: five FETs whose positive
feedback makes the Newton solves line-search heavy.  The goldens and the
predictor differential both run :func:`simulate_sense`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices import si_nfet, si_pfet
from repro.errors import AnalysisError
from repro.spice import (
    Capacitor,
    Circuit,
    Dc,
    FetElement,
    Pulse,
    VoltageSource,
    transient,
)

VDD = 0.7

#: Internal node capacitance of the latch (device + wire).
LATCH_NODE_CAP_F = 2e-15


def build_senseamp(enable_delay_s: float = 0.1e-9) -> Circuit:
    """Cross-coupled latch SA with a footed tail enable.

    The transient starts nodes ``outp``/``outn`` at the sampled bitline
    levels (see :func:`simulate_sense`); the tail enable then fires and
    the latch regenerates the differential to full rail.
    """
    circuit = Circuit("senseamp")
    circuit.add(VoltageSource("vdd", "vdd", "0", Dc(VDD)))
    circuit.add(
        VoltageSource(
            "ven",
            "en",
            "0",
            Pulse(0.0, VDD, delay=enable_delay_s, rise=10e-12, width=1e-6),
        )
    )
    # Cross-coupled inverters: outp <-> outn.
    circuit.add(FetElement("mpp", si_pfet("pp", 0.2), "outp", "outn", "vdd"))
    circuit.add(FetElement("mnp", si_nfet("np", 0.1), "outp", "outn", "tail"))
    circuit.add(FetElement("mpn", si_pfet("pn", 0.2), "outn", "outp", "vdd"))
    circuit.add(FetElement("mnn", si_nfet("nn", 0.1), "outn", "outp", "tail"))
    # Footed tail: NMOS enable to ground.
    circuit.add(FetElement("men", si_nfet("en", 0.3), "tail", "en", "0"))
    circuit.add(Capacitor("cp", "outp", "0", LATCH_NODE_CAP_F))
    circuit.add(Capacitor("cn", "outn", "0", LATCH_NODE_CAP_F))
    return circuit


@dataclass(frozen=True)
class SenseResult:
    """Outcome of one sensing event."""

    resolved_correctly: bool
    sense_delay_s: float
    final_outp_v: float
    final_outn_v: float


def simulate_sense(
    differential_v: float,
    common_mode_v: float = 0.6,
    t_stop: float = 2e-9,
    dt: float = 2e-12,
    enable_delay_s: float = 0.1e-9,
) -> SenseResult:
    """Sense a differential: outp starts above outn by ``differential_v``.

    Returns the regeneration outcome; ``sense_delay_s`` is measured from
    the enable edge to outn falling through VDD/2 (for a positive
    differential, outp must win).
    """
    if differential_v <= 0:
        raise AnalysisError("differential must be > 0 (swap inputs instead)")
    v_plus = min(common_mode_v + differential_v / 2, VDD)
    v_minus = common_mode_v - differential_v / 2
    if v_minus < 0:
        raise AnalysisError("common mode too low for this differential")
    result = transient(
        build_senseamp(enable_delay_s),
        t_stop=t_stop,
        dt=dt,
        initial_conditions={"outp": v_plus, "outn": v_minus, "tail": 0.0},
        use_dc_start=False,
    )
    outp = result.voltage("outp")
    outn = result.voltage("outn")
    final_p, final_n = outp.final(), outn.final()
    resolved = final_p > 0.9 * VDD and final_n < 0.1 * VDD
    if resolved:
        t_en = enable_delay_s
        crossings = [
            t for t in outn.crossings(VDD / 2, rising=False) if t >= t_en
        ]
        delay = (crossings[0] - t_en) if crossings else float("inf")
    else:
        delay = float("inf")
    return SenseResult(
        resolved_correctly=resolved,
        sense_delay_s=delay,
        final_outp_v=final_p,
        final_outn_v=final_n,
    )
