"""The public surface: exports resolve, and the benchmark's traced names exist."""

import ast
import hmac
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invdecomp

ROOT = Path(__file__).resolve().parents[1]


def _modules():
    names = [m.name for m in pkgutil.iter_modules(invdecomp.__path__)]
    return [importlib.import_module(f"invdecomp.{name}") for name in names]


def test_every_export_resolves():
    for mod in _modules():
        names = list(getattr(mod, "__all__", ()))
        assert len(names) == len(set(names)), f"{mod.__name__}: duplicate __all__ entries"
        missing = [n for n in names if not hasattr(mod, n)]
        assert not missing, f"{mod.__name__}.__all__ names missing attributes: {missing}"


def test_package_reexports_are_module_exports():
    tree = ast.parse(Path(invdecomp.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(node.module)
        for alias in node.names:
            assert alias.name in mod.__all__, f"{node.module}.{alias.name} is not exported"
            assert getattr(invdecomp, alias.name) is getattr(mod, alias.name)


def test_traced_spans_exist():
    """Every (module, attribute) the benchmark tracer wraps is defined."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPANS
    for modname, attr in tracer.SPANS:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{modname}.{attr} is traced but not defined"
            obj = getattr(obj, part)
        assert callable(obj)


def _fresh_stdout(code: str, **env: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports this package, with
    ``env`` added to its environment."""
    src = str(Path(invdecomp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return out.stdout.strip()


def test_traced_probes_bind_the_counted_arguments(tmp_path):
    """The benchmark tracer, installed in a new interpreter, runs the duplication and
    torus probes through the runner: its counters bind ``kernel``, ``count`` and
    ``streams`` of ``pair_functional`` and ``ensemble`` of ``parity_decompose``."""
    code = f"""
import json, sys
import invdecomp.cli as cli
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, {str(ROOT / "perfbench")!r})
from tracer import Tracer, install
from workloads import PROBES
tracer = Tracer()
install(tracer)
codes = []
for probe in PROBES:
    if probe.name in ("probe-duplication", "probe-torus"):
        out = {str(tmp_path)!r} + "/" + probe.name
        path = out + ".json"
        with open(path, "w") as f:
            json.dump(probe.make_config(21, out), f)
        codes.append(cli.main(["run", path]))
m = tracer.metrics()
print(json.dumps([codes, m["sampling.columns"][0], m["torus.dense_bytes"][0]]))
"""
    codes, columns, dense_bytes = json.loads(_fresh_stdout(code).splitlines()[-1])
    assert len(codes) == 2 and set(codes) <= {0, 1}
    assert columns > 0
    assert dense_bytes > 0


def test_importing_the_runner_loads_no_scipy_or_jsonschema():
    """scipy and jsonschema are test oracles only: the package and its runner import without them."""
    code = (
        "import sys, invdecomp, invdecomp.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))"
    )
    assert _fresh_stdout(code) == "[]"


def test_a_law_check_loads_no_numpy_ma():
    """numpy.ma costs about 17 ms to import, and nothing on the law check's path needs it."""
    code = (
        "import sys; from invdecomp.kernels import builtin_kernel, make_interval_grid; "
        "from invdecomp.sampling import law_check; "
        "law_check('duplication', builtin_kernel('watson', make_interval_grid(16)), 0.5, 1000, seed=1); "
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))"
    )
    assert _fresh_stdout(code) == "[]"


def test_a_torus_check_loads_no_numpy_ma():
    """The torus factor takes its per-axis supports by ``bincount``, not ``np.unique``,
    which imports numpy.ma."""
    code = (
        "import sys, numpy as np; from invdecomp.torus import Lattice, torus_grid, torus_watson, "
        "torus_watson_check; grid = torus_grid(Lattice(np.eye(2)), 6); "
        "torus_watson_check(torus_watson(grid), 1000, seed=1); "
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))"
    )
    assert _fresh_stdout(code) == "[]"


def test_isotypic_spectra_load_no_numpy_ma():
    """The isotypic split takes its orbit sizes by ``bincount``, not ``np.unique``,
    which imports numpy.ma."""
    code = (
        "import sys; from invdecomp.kernels import builtin_kernel, irrep_spectra, make_interval_grid; "
        "irrep_spectra(builtin_kernel('watson', make_interval_grid(16))); "
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))"
    )
    assert _fresh_stdout(code) == "[]"


_LOADS_NUMPY_RANDOM = "import sys; print('numpy.random' in sys.modules)"


def test_importing_the_runner_loads_no_numpy_random():
    """numpy.random (about 3 MiB resident) loads at a run's first draw, not with the package."""
    assert _fresh_stdout("import invdecomp, invdecomp.cli; " + _LOADS_NUMPY_RANDOM) == "False"


def test_validating_a_sampled_config_loads_no_numpy_random(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": "dup",
        "kernel": {"name": "watson"},
        "grid": {"kind": "interval", "n": 32},
        "checks": ["duplication"],
        "samples": 2000,
        "seed": 7,
    }))
    code = f"import invdecomp.cli as cli; assert cli.main(['validate', {str(cfg)!r}]) == 0; "
    assert _fresh_stdout(code + _LOADS_NUMPY_RANDOM).splitlines()[-1] == "False"


@pytest.mark.parametrize("preset, loaded", [("kl-watson", "False"), ("watson-duplication", "True")])
def test_numpy_random_loads_only_in_a_run_that_draws(tmp_path, preset, loaded):
    """kl-watson's checks are analytic; watson-duplication draws its in-law check."""
    out = str(tmp_path / "out")
    code = f"import invdecomp.cli as cli; cli.main(['run', '--preset', {preset!r}, '--out', {out!r}]); "
    assert _fresh_stdout(code + _LOADS_NUMPY_RANDOM).splitlines()[-1] == loaded


_ENTROPY_MODULES = "import sys; print([m for m in ('_hashlib', 'hashlib', 'hmac', 'secrets') if m in sys.modules])"


@pytest.mark.parametrize(
    "preset, threads", [("watson-duplication", "1"), ("watson-duplication", "2"), ("torus-2d", "1")]
)
def test_a_sampled_run_loads_no_openssl(tmp_path, preset, threads):
    """numpy.random reaches OpenSSL's libcrypto (about 3.4 MiB resident) through secrets,
    hmac and hashlib only for unseeded entropy, so a run's draws leave them unloaded, also
    when two workers make their first generators at once (a short switch interval makes
    them interleave)."""
    out = str(tmp_path / "out")
    code = "import sys; sys.setswitchinterval(1e-6); "
    code += f"import invdecomp.cli as cli; cli.main(['run', '--preset', {preset!r}, '--out', {out!r}]); "
    lines = _fresh_stdout(code + _LOADS_NUMPY_RANDOM + "; " + _ENTROPY_MODULES, INVDECOMP_THREADS=threads)
    assert lines.splitlines()[-2:] == ["True", "[]"]


_LIBRARY_DRAW = "invdecomp.sample(invdecomp.builtin_kernel('watson', invdecomp.make_interval_grid(8)), 3, seed=1); "


def test_after_a_library_draw_hashlib_loads_openssl():
    """A caller that imports hashlib after a draw gets the full module: OpenSSL's hash objects,
    a working hmac, and unseeded SeedSequence entropy."""
    code = (
        "import invdecomp; " + _LIBRARY_DRAW + "import _hashlib, hashlib, hmac; "
        "from numpy.random import SeedSequence; "
        "print(isinstance(hashlib.sha256(b'x'), _hashlib.HASH), hmac.new(b'k', b'm', 'sha256').hexdigest(), "
        "SeedSequence().entropy != SeedSequence().entropy)"
    )
    expected = hmac.new(b"k", b"m", "sha256").hexdigest()
    assert _fresh_stdout(code) == f"True {expected} True"


def test_a_process_that_loaded_hashlib_first_keeps_it():
    code = (
        "import sys, hashlib, _hashlib, invdecomp; " + _LIBRARY_DRAW +
        "print(sys.modules['hashlib'] is hashlib, sys.modules['_hashlib'] is _hashlib)"
    )
    assert _fresh_stdout(code) == "True True"


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["version"] == invdecomp.__version__


def _interval_watson():
    return invdecomp.builtin_kernel("watson", invdecomp.make_interval_grid(4))


def _torus_spec():
    grid = invdecomp.torus_grid(invdecomp.Lattice(np.eye(1)), 8)
    return invdecomp.fourier_kl(invdecomp.torus_watson(grid).matrix[0], grid, 2)


def _cluster_split():
    return invdecomp.canonical_decomposition(invdecomp.eigendecompose(_interval_watson()))[0]


# each frozen dataclass that holds an ndarray, built from fixed inputs
_ARRAY_HOLDERS = {
    "IndexSpace": lambda: _interval_watson().space,
    "Kernel": _interval_watson,
    "TorusGrid": lambda: invdecomp.torus_grid(invdecomp.Lattice(np.eye(2)), 4),
    "Lattice": lambda: invdecomp.Lattice(np.eye(2)),
    "TorusKernelSpec": _torus_spec,
    "Spectrum": lambda: invdecomp.eigendecompose(_interval_watson()),
    "PathEnsemble": lambda: invdecomp.sample(_interval_watson(), 3, seed=1),
    "FiniteGroup": lambda: invdecomp.cyclic_group(3),
    "Irrep": lambda: invdecomp.Irrep("triv", 1, np.ones(2)),
    "CharacterTable": lambda: invdecomp.character_table(invdecomp.cyclic_group(2)),
    "GroupAction": lambda: _interval_watson().space.action,
    "ClusterSplit": _cluster_split,
}


@pytest.mark.parametrize("name", list(_ARRAY_HOLDERS))
def test_array_holders_hash_and_compare_by_identity(name):
    """A generated ``__eq__`` would compare the arrays with ``==`` and raise, and
    ``hash`` would hash them; these classes compare and hash by identity."""
    x, y = _ARRAY_HOLDERS[name](), _ARRAY_HOLDERS[name]()
    assert type(x).__name__ == name
    assert hash(x) == hash(x)
    assert x == x
    assert (x == y) is False and x != y
