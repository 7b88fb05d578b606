"""Reader for ``user_matrix`` kernel files.

A kernel file is a JSON header plus a sidecar payload named in it.  The
header holds ``kind`` (``"kernel"``), ``shape`` ``[m, m]``, ``format``
(``"csv"`` or ``"binary"``), ``payload`` (a file name next to the header),
an optional ``name``, and ``space``: ``points``, ``weights``, an optional
``name`` and an optional ``group`` in the form :func:`group_from_dict`
reads.  The payload is the row-major float64 matrix, either raw binary or
a CSV of numbers; ``%.17g`` text round-trips doubles exactly.

A ``group`` must list its ``irreps``, and its action must preserve the
weights: the decomposition and its trace identities hold only under a
measure-preserving action.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from invdecomp.groups import group_from_dict
from invdecomp.kernels import IndexSpace, Kernel, KernelError

PathLike = Union[str, Path]


def _read_payload(path: Path, fmt: str, shape: tuple) -> np.ndarray:
    if fmt == "binary":
        data = np.fromfile(path, dtype=np.float64)
    elif fmt == "csv":
        data = np.loadtxt(path, delimiter=",", dtype=np.float64)
    else:
        raise KernelError(f"unknown payload format {fmt!r}")
    return data.reshape(shape)


def space_from_dict(d: dict) -> IndexSpace:
    """Index space of a kernel file; :class:`IndexSpace` checks that its group action
    preserves the weights."""
    action = None
    if "group" in d:
        group, action = group_from_dict(d["group"])
        if group.table is None:
            raise KernelError("space/group: the group must list its irreps")
    return IndexSpace(
        points=np.asarray(d["points"], dtype=float),
        weights=np.asarray(d["weights"], dtype=float),
        action=action,
        name=d.get("name", ""),
    )


def load_kernel(header_path: PathLike) -> Kernel:
    hpath = Path(header_path)
    header = json.loads(hpath.read_text())
    if header.get("kind") != "kernel":
        raise KernelError(f"{hpath} is not a kernel header")
    space = space_from_dict(header["space"])
    mat = _read_payload(
        hpath.with_name(header["payload"]), header["format"], tuple(header["shape"])
    )
    return Kernel(space, mat, name=header.get("name", ""))
