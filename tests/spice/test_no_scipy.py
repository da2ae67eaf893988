"""The SPICE path runs on numpy alone.

Importing scipy costs ~0.3 s and ~22 MB in every process that
characterizes a sub-array, for no speed the simulator's small systems
could use.  A fresh interpreter characterizes the Si sub-array and must
end with no ``scipy`` module loaded.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

_PROGRAM = """
import sys
from repro.edram.timing import characterize
from repro.edram.bitcell import si_bitcell
from repro.edram.subarray import SubArrayDesign
characterize(SubArrayDesign(si_bitcell()))
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_characterize_imports_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", _PROGRAM],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
