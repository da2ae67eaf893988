"""The read transient stops at its sense event and changes no delay.

A stopped read must equal the full 4 ns window bit for bit: the same
delay (``==``) and, for every node voltage and branch current, an exact
prefix of the full waveform.  The designs are every read the repository
characterizes: the Si and M3D cells, the M3D sub-array ablation (64,
128 and 256 rows) and the M3D write-width sweep (0.05 to 0.25 um).  The
128-row sub-array and the 0.15 um cell are the default M3D design.
"""

import numpy as np
import pytest

from repro.edram import timing
from repro.edram.bitcell import m3d_bitcell, si_bitcell
from repro.edram.subarray import SubArrayDesign
from repro.edram.timing import (
    _read_circuit,
    _read_delay,
    _sense_events,
    simulate_read,
)
from repro.errors import AnalysisError
from repro.spice import transient

T_STOP, DT = 4e-9, 2e-12

DESIGNS = [
    pytest.param(SubArrayDesign(si_bitcell()), id="si", marks=pytest.mark.smoke),
    pytest.param(SubArrayDesign(m3d_bitcell()), id="m3d"),
    *(
        pytest.param(SubArrayDesign(m3d_bitcell(), n_rows=rows), id=f"m3d-rows{rows}")
        for rows in (64, 256)
    ),
    *(
        pytest.param(
            SubArrayDesign(m3d_bitcell(write_width_um=width)), id=f"m3d-w{width:.2f}"
        )
        for width in (0.05, 0.10, 0.25)
    ),
]


def _read(subarray, stop_after=()):
    """A stored '1' read over the whole window unless ``stop_after``."""
    cell = subarray.cell
    return transient(
        _read_circuit(subarray, cell.vdd_v),
        t_stop=T_STOP,
        dt=DT,
        initial_conditions={"rbl": cell.vdd_v, "mid": 0.0},
        use_dc_start=False,
        stop_after=stop_after,
    )


@pytest.mark.parametrize("subarray", DESIGNS)
def test_stopped_read_is_a_prefix_with_the_same_delay(subarray):
    cell = subarray.cell
    events = _sense_events(cell)
    full = _read(subarray)
    stopped = _read(subarray, stop_after=events)
    n = stopped.times.size
    assert n < full.times.size
    assert np.array_equal(stopped.times, full.times[:n])
    for recorded_s, recorded_f in (
        (stopped.node_voltages, full.node_voltages),
        (stopped.branch_currents, full.branch_currents),
    ):
        assert recorded_s.keys() == recorded_f.keys()
        for name, values in recorded_s.items():
            assert np.array_equal(values, recorded_f[name][:n]), name

    delay, rbl = simulate_read(subarray)
    assert delay == _read_delay(full, events)
    assert delay == _read_delay(stopped, events)
    assert np.array_equal(rbl.values, stopped.node_voltages["rbl"])


def test_a_stored_zero_runs_the_full_window_and_raises(monkeypatch):
    """The RBL never reaches the sense threshold: no stop, same error."""
    real_transient = timing.transient
    results = []

    def recording_transient(*args, **kwargs):
        results.append(real_transient(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(timing, "transient", recording_transient)
    with pytest.raises(AnalysisError, match="never crosses"):
        simulate_read(SubArrayDesign(m3d_bitcell()), stored_v=0.0)
    (result,) = results
    assert result.times.size == round(T_STOP / DT) + 1
