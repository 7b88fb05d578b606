"""On-disk formats: the user_matrix kernel reader, and the spectrum and
torus-spec tables the runner writes.

Kernel files are written by hand here (a JSON header plus a csv or binary
payload); numbers must load bitwise: binary payloads verbatim, csv payloads
via %.17g (exact for doubles)."""

import json

import numpy as np
import pytest

import invdecomp.io as iio
from invdecomp.groups import character_table
from invdecomp.kernels import KernelError, builtin_kernel, make_interval_grid
from invdecomp.spectral import canonical_decomposition, eigendecompose, spectrum_to_csv
from invdecomp.torus import Lattice, fourier_kl, torus_grid, torus_watson


@pytest.fixture()
def watson16():
    return builtin_kernel("watson", make_interval_grid(16))


# ------------------------------------------------------------------ kernels


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_kernel_round_trip(kernel_file, watson16, fmt):
    loaded = iio.load_kernel(kernel_file(watson16.matrix, fmt=fmt))
    assert np.array_equal(loaded.matrix, watson16.matrix)
    assert np.array_equal(loaded.space.points, watson16.space.points)
    assert np.array_equal(loaded.space.weights, watson16.space.weights)
    assert loaded.name == "k"


def test_kernel_round_trip_preserves_action(kernel_file, watson16):
    loaded = iio.load_kernel(kernel_file(watson16.matrix))
    assert loaded.space.action is not None
    assert np.array_equal(loaded.space.action.perm, watson16.space.action.perm)
    assert np.array_equal(
        loaded.space.action.group.mul, watson16.space.action.group.mul
    )
    assert [p.label for p in character_table(loaded.space.action.group)] == ["triv", "sign"]


def test_kernel_header_contents(kernel_file, watson16):
    """Name, shape, format and payload come from the header, of kind "kernel" only."""
    header = kernel_file(watson16.matrix, fmt="binary", stem="named")
    loaded = iio.load_kernel(header)
    assert loaded.name == "named"
    assert loaded.matrix.shape == (16, 16)
    meta = json.loads(header.read_text())
    meta["kind"] = "ensemble"
    header.write_text(json.dumps(meta))
    with pytest.raises(KernelError, match="not a kernel header"):
        iio.load_kernel(header)


def test_unknown_payload_format_is_rejected(kernel_file, watson16):
    header = kernel_file(watson16.matrix)
    meta = json.loads(header.read_text())
    meta["format"] = "npy"
    header.write_text(json.dumps(meta))
    with pytest.raises(KernelError, match="payload format"):
        iio.load_kernel(header)


def test_load_kernel_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        iio.load_kernel(tmp_path / "absent.json")


def test_group_without_irreps_is_rejected(kernel_file, watson16):
    header = kernel_file(watson16.matrix)
    meta = json.loads(header.read_text())
    del meta["space"]["group"]["irreps"]
    header.write_text(json.dumps(meta))
    with pytest.raises(KernelError, match="irreps"):
        iio.load_kernel(header)


def test_action_must_preserve_the_weights(kernel_file, watson16):
    w = np.linspace(1.0, 2.0, 16)
    header = kernel_file(watson16.matrix, weights=w / w.sum())
    with pytest.raises(KernelError, match="does not preserve the weights"):
        iio.load_kernel(header)


def test_file_without_group_has_no_action(kernel_file, watson16):
    loaded = iio.load_kernel(kernel_file(watson16.matrix, group=None))
    assert loaded.space.action is None


# ------------------------------------------------------------------ spectra


def test_spectrum_csv_file(tmp_path, watson16):
    s = eigendecompose(watson16)
    splits = canonical_decomposition(s)
    path = tmp_path / "spec.csv"
    path.write_text(spectrum_to_csv(s, splits))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,lambda,cluster_id,irrep_label"
    assert len(lines) == 17
    lam = float(lines[1].split(",")[1])
    assert lam == s.eigenvalues[0]  # %.17g survives exactly


# -------------------------------------------------------------- torus specs


def test_torus_spec_json_shape():
    g = torus_grid(Lattice(np.diag([2.0, 1.0])), [8, 8])
    spec = fourier_kl(torus_watson(g).matrix[0], g, 2)
    d = json.loads(json.dumps(spec.to_dict()))
    assert d["grid"] == [8, 8]
    assert d["basis"] == [[2.0, 0.0], [0.0, 1.0]]
    assert d["dual_basis"] == [[0.5, 0.0], [0.0, 1.0]]
    assert all(len(c["v*"]) == 2 for c in d["coefficients"])
