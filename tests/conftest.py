import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from invdecomp import kernels
from invdecomp.groups import character_table
from invdecomp.kernels import builtin_kernel, make_interval_grid


@pytest.fixture(scope="session")
def grid64():
    return make_interval_grid(64)


@pytest.fixture(scope="session")
def watson64(grid64):
    return builtin_kernel("watson", grid64)


@pytest.fixture(scope="session")
def bridge64(grid64):
    return builtin_kernel("bridge", grid64)


@pytest.fixture(scope="session")
def z2_table(grid64):
    return character_table(grid64.action.group)


# run first in the child of ``on_haswell``: the bundled OpenBLAS must have loaded that family
_HASWELL_CHECK = """
import ctypes
from invdecomp import kernels
corename = kernels._openblas().scipy_openblas_get_corename64_
corename.argtypes, corename.restype = [], ctypes.c_char_p
assert corename() == b"Haswell", corename()
"""


@pytest.fixture(scope="session")
def on_haswell():
    """Runs the Python ``code`` in a new interpreter whose bundled OpenBLAS loads its AVX2
    ``Haswell`` kernels on one thread, and returns its stdout.  ``OPENBLAS_CORETYPE`` and
    ``OPENBLAS_NUM_THREADS`` are set in the child's environment alone, and the child asserts
    the family first, so a value pinned through it holds on any AVX2 x86-64 host, whichever
    family the library picks there by itself."""
    src = str(Path(kernels.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1")

    def run(code):
        out = subprocess.run(
            [sys.executable, "-c", _HASWELL_CHECK + code], env=env, capture_output=True, text=True, timeout=300
        )
        assert out.returncode == 0, out.stderr[-2000:]
        return out.stdout

    return run


def rng(seed=0):
    return np.random.default_rng(seed)


def reversal_group(m: int) -> dict:
    """Z2 acting on m points by reversal, written as a kernel file states it."""
    return {
        "order": 2,
        "identity": 0,
        "name": "Z2",
        "mul": [0, 1, 1, 0],
        "inv": [0, 1],
        "perm": list(range(m)) + list(range(m - 1, -1, -1)),
        "npoints": m,
        "irreps": [
            {"label": "triv", "dim": 1, "re": [1.0, 1.0], "im": [0.0, 0.0]},
            {"label": "sign", "dim": 1, "re": [1.0, -1.0], "im": [0.0, 0.0]},
        ],
    }


@pytest.fixture()
def kernel_file(tmp_path):
    """Writes a user_matrix kernel file by hand and returns its header path.

    The space is the m midpoints of [0, 1] with ``weights`` (uniform by
    default) and, unless ``group`` is None, the reversal group with irreps.
    """

    def write(matrix, weights=None, group="reversal", fmt="csv", stem="k"):
        matrix = np.asarray(matrix, dtype=np.float64)
        m = matrix.shape[0]
        weights = np.full(m, 1.0 / m) if weights is None else np.asarray(weights)
        payload = tmp_path / f"{stem}.{'bin' if fmt == 'binary' else 'csv'}"
        if fmt == "binary":
            matrix.tofile(payload)
        else:
            np.savetxt(payload, matrix, fmt="%.17g", delimiter=",")
        space = {
            "points": [[(i + 0.5) / m] for i in range(m)],
            "weights": [float(x) for x in weights],
            "name": f"interval[{m}]",
        }
        if group == "reversal":
            space["group"] = reversal_group(m)
        elif group is not None:
            space["group"] = group
        header = {
            "kind": "kernel",
            "name": stem,
            "shape": [m, m],
            "format": fmt,
            "payload": payload.name,
            "space": space,
        }
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(header))
        return path

    return write
