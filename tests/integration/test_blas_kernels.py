"""The goldens and the pinned graphs do not depend on which BLAS kernel
NumPy's OpenBLAS runs.

A ``DYNAMIC_ARCH`` OpenBLAS picks its matrix kernels from the host CPU, and
kernels reduce in different orders.  Every candidate score behind eval's
ranks is such a product (``KGEModel.score_all_tails``), while the golden
runs pin each trajectory's MRR to the last bit.  The exhaustive fact
miner scores blocks of heads against prefixes of tails, products whose
cells must hold the bits of the full ``E x E`` product
(``TestPrunedMiner`` checks them against it), and ``TestPinnedBytes``
fixes its graphs to the byte.  This reruns all three with the kernel
forced to three x86 generations.
"""

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

CORES = ("Prescott", "Sandybridge", "Haswell")


def dynamic_arch_openblas() -> bool:
    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(
    not dynamic_arch_openblas()
    or platform.machine().lower() not in ("x86_64", "amd64"),
    reason="NumPy's BLAS is not a DYNAMIC_ARCH OpenBLAS on x86")
def test_goldens_pass_under_every_forced_core():
    root = Path(__file__).resolve().parents[2]
    reported = []
    for core in CORES:
        env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2",
                   PYTHONPATH=os.pathsep.join(
                       [str(Path(repro.__file__).parents[1]), str(root),
                        os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-s", "-p",
             "no:cacheprovider", "tests/integration/test_golden.py",
             "tests/kg/test_datasets.py::TestPinnedBytes",
             "tests/kg/test_datasets.py::TestPrunedMiner"],
            cwd=root, env=env, capture_output=True, text=True)
        assert out.returncode == 0, (core, out.stdout[-2000:])
        found = re.search(r"^Core: (\w+)", out.stdout + out.stderr,
                          re.MULTILINE)
        assert found, (core, out.stderr[-2000:])
        reported.append(found.group(1))
    # Forcing really changed the kernel, so the runs above are not one
    # kernel measured three times.
    assert len(set(reported)) == len(CORES), reported
