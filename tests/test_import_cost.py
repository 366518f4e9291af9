"""``import repro`` loads only what its callers use.

numpy and networkx back two numeric corners of the tree (geometric
realizations, homology, the model-order lattice).  The package entry
points do not re-export those submodules, so the CLI, the service and
the sweep start without either library.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def test_package_imports_load_neither_numpy_nor_networkx():
    script = (
        "import sys\n"
        "import repro, repro.analysis.landscape, repro.certify\n"
        "import repro.service, repro.sweep.cells\n"
        "assert 'numpy' not in sys.modules, 'numpy'\n"
        "assert 'networkx' not in sys.modules, 'networkx'\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
