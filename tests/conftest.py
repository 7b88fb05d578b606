import json

import numpy as np
import pytest

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
