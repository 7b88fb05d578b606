"""Print one digest line per run, to prove that a refactor leaves every report unchanged.

Usage, from the root of a checkout:

    python3 tools/preset_digests.py [RUN ...]

Every preset of ``invdecomp.cli.PRESETS``, then every run of ``EXTRA_RUNS``
(or only those named) runs through ``invdecomp.cli.main`` into a temporary
directory, with one sampling worker (two in the two-worker runs below) and one
BLAS thread.  ``EXTRA_RUNS`` are
the paths no preset reaches: a ``user_matrix`` kernel file of ``watson`` on 16
points with its Z2 reversal group, the same file under ``action: none``, a
``cumulants`` run, ``watson`` on 1000 points and ``sheet_compensated`` on
12 x 12 (grids whose sizes are not powers of two), the analytic checks on
``watson`` at 1024 points (Z2) and on ``sheet_compensated`` at 12 x 12 (Z2 x Z2,
four irreps), ``torus_watson`` on a sheared 12 x 10 torus (the one run that
passes a ``grid.basis``), two configs that ``run`` rejects with exit 2, one
of them through the in-law checks' grid and kernel rule, and the
``watson-duplication`` and ``torus-2d`` presets at two sampling workers
(``TWO_WORKERS``: ``watson-duplication-2workers``, ``torus-2d-2workers``),
which the sampling runner draws in waves of two blocks.  Each line
gives the run's name, its exit code, the sha256 of its ``report.json`` and the
sha256 of each CSV table, in name order; a run that writes no report gives
the sha256 of its stderr instead.  The report is hashed without its
``generated_at`` timestamp and without its ``version``, re-serialized exactly
as the program writes it, so a version bump does not change the digest;
compare the version separately.

The line ``rng_contract=<name>`` then names ``invdecomp.sampling.RNG_CONTRACT``,
the keying rule of the seeded presets' samples, ``src_lines=<N>`` counts the
lines of ``src/invdecomp/*.py``, and the last line, ``code_lines=<N>``, those of
its lines that are not blank, not a comment alone and not in a docstring; stderr
gives that count per module, largest first (for example ``code_lines by module:
cli.py 824, kernels.py 413, ...``), and then the docstring lines per module and their
total (for example ``doc_lines by module: kernels.py 198, ...; total 816``).  Run
the script on two checkouts and diff the outputs: equal run lines mean
byte-identical reports, tables and rejections, and the last three lines compare the
contract and the code size.  A two-worker line must equal its preset's line after
the name; when both ran and they differ, the script says so on stderr and exits 1.
A first stderr line names the eigensolver: ``bundled dsyevd (<library>)`` or
``numpy fallback``.  Each run's wall seconds go to stderr, so stdout stays diff-able, with the
user and sys CPU seconds and the minor page faults (``ru_minflt``) of the
same timed run (for example ``0.55 s (0.47 s user, 0.07 s sys, 6398 minor
faults)``), its heap peak, the count and matrix shapes of its ``numpy.linalg.eigh`` and
``eigvalsh`` calls (for example ``eigvalsh(1024x1024) x2``), an in-place solve of
``kernels._syevd`` counted under the name of the numpy call it replaces, the count of its
isotypic splits, the ``kernels.irrep_spectra`` calls, which a kernel makes
once when a check first reads ``Kernel.irrep_spectra`` (for example
``irrep_spectra x1``), the count of m x m kernel matrices the run built: one per
dense ``Kernel`` and one per lag kernel whose ``matrix`` was read (for example
``matrix x0``), and the spectrum path of each
``Kernel``'s PSD check: ``dft(<index shape>)`` or ``dense(<m>)`` (for example
``dft(256) x1, dense(256) x1``), and the folded box of frequencies that
each torus factor (``torus.fourier_factor``) applies axis by axis, with the
columns per chunk that the torus check streams it (for example
``fourier(axes 11x21, chunk 64) x1``).  The heap peak is the
largest ``tracemalloc`` total (numpy's arrays included) over a second,
traced copy of the run, so that tracing does not slow the timed one.  That traced copy
also gives each check's seconds and heap peak (for example
``spectrum 0.14 s 25.3 MiB``): the check's wall time under tracing, and the
largest traced total while it ran, which includes what the run held before.
"""

from __future__ import annotations

import os

# before numpy loads, so that BLAS starts with one thread
os.environ["INVDECOMP_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from invdecomp import cli, kernels, torus  # noqa: E402
from invdecomp.sampling import RNG_CONTRACT  # noqa: E402


@contextlib.contextmanager
def eig_calls():
    """Record ``name(shape)`` for each ``numpy.linalg.eigh``/``eigvalsh`` call in the block,
    and for each in-place solve of ``kernels._syevd`` under the name of the numpy call it
    replaces: ``eigh`` with eigenvectors, ``eigvalsh`` without.  Without the bundled
    library ``_syevd`` calls numpy, which is counted there."""
    calls: list[str] = []
    saved = {name: getattr(np.linalg, name) for name in ("eigh", "eigvalsh")}
    syevd = kernels._syevd

    def record(name, a):
        calls.append(f"{name}({'x'.join(str(n) for n in np.shape(a))})")

    def counted(name, fn):
        def call(a, *args, **kwargs):
            record(name, a)
            return fn(a, *args, **kwargs)

        return call

    def counted_syevd(s, vectors):
        if kernels._openblas() is not None:  # the fallback's numpy call counts itself
            record("eigh" if vectors else "eigvalsh", s)
        return syevd(s, vectors)

    for name, fn in saved.items():
        setattr(np.linalg, name, counted(name, fn))
    kernels._syevd = counted_syevd
    try:
        yield calls
    finally:
        for name, fn in saved.items():
            setattr(np.linalg, name, fn)
        kernels._syevd = syevd


@contextlib.contextmanager
def isotypic_splits():
    """Record the kernel size of each ``kernels.irrep_spectra`` call in the block."""
    calls: list[int] = []
    saved = kernels.irrep_spectra

    def counted(kernel, table):
        calls.append(kernel.size)
        return saved(kernel, table)

    kernels.irrep_spectra = counted
    try:
        yield calls
    finally:
        kernels.irrep_spectra = saved


@contextlib.contextmanager
def matrix_builds():
    """Record the size of each m x m kernel matrix built in the block: a dense ``Kernel``'s,
    at construction, and a lag kernel's, when ``Kernel.matrix`` is first read
    (``kernels._circulant``)."""
    sizes: list[int] = []
    post_init, circulant = kernels.Kernel.__post_init__, kernels._circulant

    def traced_post_init(kernel):
        post_init(kernel)
        if kernel.lags is None:
            sizes.append(kernel.size)

    def traced_circulant(profile, shape):
        sizes.append(profile.size)
        return circulant(profile, shape)

    kernels.Kernel.__post_init__, kernels._circulant = traced_post_init, traced_circulant
    try:
        yield sizes
    finally:
        kernels.Kernel.__post_init__, kernels._circulant = post_init, circulant


@contextlib.contextmanager
def spectrum_paths():
    """Record ``dft(shape)`` or ``dense(m)`` for each ``Kernel`` PSD check in the block."""
    paths: list[str] = []
    post_init, dft = kernels.Kernel.__post_init__, kernels._dft_spectrum

    def traced_dft(column, space):
        paths.append(f"dft({'x'.join(str(n) for n in space.shape)})")
        return dft(column, space)

    def traced_post_init(kernel):
        n = len(paths)
        post_init(kernel)
        if len(paths) == n:
            paths.append(f"dense({kernel.size})")

    kernels._dft_spectrum, kernels.Kernel.__post_init__ = traced_dft, traced_post_init
    try:
        yield paths
    finally:
        kernels._dft_spectrum, kernels.Kernel.__post_init__ = dft, post_init


@contextlib.contextmanager
def factor_paths():
    """Record ``fourier(axes <box>, chunk <width>)`` for each torus factor in the block:
    its folded box and the torus check's chunk width on its grid."""
    paths: list[str] = []
    saved = torus.fourier_factor

    def traced(kernel):
        l = saved(kernel)
        box = "x".join(map(str, l._axes[1]))
        paths.append(f"fourier(axes {box}, chunk {torus._chunk_width(l.shape[0])})")
        return l

    torus.fourier_factor = traced
    try:
        yield paths
    finally:
        torus.fourier_factor = saved


def doc_lines(text: str) -> set:
    """The numbers of the lines of the Python source ``text`` that are in the docstring of a
    module, class or function."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docs.update(range(first.lineno, first.end_lineno + 1))
    return docs


def code_lines(text: str) -> int:
    """Lines of the Python source ``text`` that are not blank, not a comment alone
    and not in a docstring (:func:`doc_lines`)."""
    docs, lines = doc_lines(text), enumerate(text.splitlines(), start=1)
    return sum(1 for i, line in lines if line.strip()[:1] not in ("", "#") and i not in docs)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data))
    return path.name


def _watson16_file(tmp: Path) -> str:
    """A kernel file of ``watson`` on the 16 midpoints of [0, 1], uniform weights
    and the reversal group with its irreps: a CSV payload in ``%.17g`` and a
    JSON header, both in ``tmp``.  Returns the header's name."""
    m = 16
    t = (np.arange(m) + 0.5) / m
    # the record's formula, not a Kernel, so that writing the file adds no spectrum path
    matrix = kernels.BUILTINS["watson"].axis(t[:, None], t[None, :])
    np.savetxt(tmp / "watson16.csv", matrix, fmt="%.17g", delimiter=",")
    group = {
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
    space = {
        "points": [[(i + 0.5) / m] for i in range(m)],
        "weights": [1.0 / m] * m,
        "name": f"interval[{m}]",
        "group": group,
    }
    header = {"kind": "kernel", "name": "watson16", "shape": [m, m], "format": "csv"}
    return _write_json(tmp / "watson16.json", dict(header, payload="watson16.csv", space=space))


def _user_matrix(checks: list, **overrides):
    def config(tmp: Path) -> list[str]:
        kernel = {"name": "user_matrix", "params": {"path": _watson16_file(tmp)}}
        cfg = dict(name="user-matrix", kernel=kernel, grid={"n": 16}, checks=checks, **overrides)
        return [_write_json(tmp / "config.json", cfg)]

    return config


def _config(cfg: dict):
    return lambda tmp: [_write_json(tmp / "config.json", cfg)]


# name -> the arguments of ``invdecomp run`` that it takes, given the directory it runs in
EXTRA_RUNS = {
    "user-matrix-watson16": _user_matrix(
        ["invariance", "decomposition", "watson_relation", "z2_condition"]
    ),
    "user-matrix-action-none": _user_matrix(["spectrum"], action={"name": "none"}),
    "cumulants-watson64": _config(
        {
            "name": "cumulants",
            "kernel": {"name": "watson"},
            "grid": {"n": 64},
            "samples": 2000,
            "seed": 64,
            "checks": ["cumulants"],
        }
    ),
    "watson1000": _config(
        {
            "name": "watson1000",
            "kernel": {"name": "watson"},
            "grid": {"n": 1000},
            "samples": 2000,
            "seed": 1000,
            "checks": ["invariance", "watson_relation", "z2_condition", "duplication"],
            "tolerances": {"z2_condition": 1e-6},
        }
    ),
    "quadruplication-12x12": _config(
        {
            "name": "quadruplication-12x12",
            "kernel": {"name": "sheet_compensated"},
            "grid": {"n": [12, 12]},
            "samples": 2000,
            "seed": 144,
            "checks": ["quadruplication"],
        }
    ),
    # the benchmark's analytic-1d config; spectrum fails on eigenvector residuals at m = 1024
    "analytic-watson1024": _config(
        {
            "name": "analytic-watson1024",
            "kernel": {"name": "watson"},
            "grid": {"kind": "interval", "n": 1024},
            "rho": 0.5,
            "n_max": 6,
            "checks": ["invariance", "decomposition", "spectrum", "watson_relation", "z2_condition"],
            "tolerances": {"z2_condition": 1e-6},
        }
    ),
    # Z2 x Z2, four irreps; watson_relation fails at 12 x 12
    "analytic-sheet12x12": _config(
        {
            "name": "analytic-sheet12x12",
            "kernel": {"name": "sheet_compensated"},
            "grid": {"n": [12, 12]},
            "checks": ["invariance", "decomposition", "spectrum", "watson_relation"],
        }
    ),
    # no preset passes a torus basis
    "torus-sheared-12x10": _config(
        {
            "name": "torus-sheared-12x10",
            "kernel": {"name": "torus_watson", "params": {"cutoff": 3}},
            "grid": {"kind": "torus", "n": [12, 10], "basis": [[1.0, 0.0], [0.5, 1.0]]},
            "samples": 2000,
            "seed": 1210,
            "checks": ["stationarity", "torus_watson"],
        }
    ),
    # rejected by the in-law rule: duplication needs watson on one interval axis
    "rejected-duplication-on-torus": _config(
        {
            "name": "rejected-duplication-on-torus",
            "kernel": {"name": "torus_watson"},
            "grid": {"kind": "torus", "n": [16]},
            "seed": 1,
            "checks": ["duplication"],
        }
    ),
    "rejected-z2-on-two-axes": _config(
        {
            "name": "rejected",
            "kernel": {"name": "sheet_compensated"},
            "grid": {"n": [8, 8]},
            "checks": ["z2_condition"],
        }
    ),
}


# the multi-block presets again at two sampling workers, run by the runner's waves: each
# line's fields must equal the preset's serial line
TWO_WORKERS = {f"{name}-2workers": name for name in ("watson-duplication", "torus-2d")}
EXTRA_RUNS.update({run: lambda tmp, name=name: ["--preset", name] for run, name in TWO_WORKERS.items()})


def _run_args(name: str, tmp: Path) -> list[str]:
    return ["--preset", name] if name in cli.PRESETS else EXTRA_RUNS[name](tmp)


def digest(name: str) -> str:
    """The digest line of the preset or extra run ``name``; it runs in a temporary
    directory, so that a kernel file's relative path stays out of the report."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)
        os.environ["INVDECOMP_THREADS"] = "2" if name in TWO_WORKERS else "1"
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["run", *_run_args(name, Path(tmp)), "--out", str(out)])
        finally:
            os.chdir(cwd)
            os.environ["INVDECOMP_THREADS"] = "1"
        fields = [name, f"exit={code}"]
        path = out / "report.json"
        if path.exists():
            report = json.loads(path.read_text())
            report.pop("generated_at", None)
            report.pop("version", None)
            # the writer's own serialization, so the digest is that of the bytes
            text = json.dumps(report, sort_keys=True, indent=1)
            fields.append(f"report.json={_sha(text.encode())}")
        else:
            fields.append(f"stderr={_sha(err.getvalue().encode())}")
        fields += [f"{csv.name}={_sha(csv.read_bytes())}" for csv in sorted(out.glob("*.csv"))]
    return " ".join(fields)


def traced_run(name: str) -> tuple[float, list[str]]:
    """The largest traced heap of one more run of ``name``, in MiB, and
    ``<check> <s> s <MiB> MiB`` for each check it ran, in run order.

    Each check's ``cli.CHECKS`` run is wrapped for this run only: it records
    its wall seconds and the traced heap's peak while it ran (what the run
    already held included). It restarts the peak as it starts, so the run's
    peak is the largest of the peaks read before each restart and at the end.
    """
    checks: list[str] = []
    top = 0
    saved = dict(cli.CHECKS)

    def timed(name, run):
        def call(*args):
            nonlocal top
            top = max(top, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            t0 = time.perf_counter()
            try:
                return run(*args)
            finally:
                seconds = time.perf_counter() - t0
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                checks.append(f"{name} {seconds:.2f} s {peak:.1f} MiB")

        return call

    tracemalloc.start()
    try:
        for key, check in saved.items():
            cli.CHECKS[key] = dataclasses.replace(check, run=timed(key, check.run))
        digest(name)
        return max(top, tracemalloc.get_traced_memory()[1]) / 2**20, checks
    finally:
        tracemalloc.stop()
        cli.CHECKS.update(saved)


def main(argv: list[str]) -> int:
    names = argv or [*cli.PRESETS, *EXTRA_RUNS]
    unknown = [n for n in names if n not in cli.PRESETS and n not in EXTRA_RUNS]
    if unknown:
        print(f"unknown runs: {unknown}", file=sys.stderr)
        return 2
    lib = kernels._openblas()
    solver = f"bundled dsyevd ({Path(lib._name).name})" if lib is not None else "numpy fallback"
    print(f"eigensolver: {solver}", file=sys.stderr)
    lines = {}
    for name in names:
        t0, before = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        with eig_calls() as calls, isotypic_splits() as splits, matrix_builds() as matrices:
            with spectrum_paths() as paths, factor_paths() as factors:
                line = digest(name)
        seconds, after = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF)
        cpu = (
            f"{after.ru_utime - before.ru_utime:.2f} s user, {after.ru_stime - before.ru_stime:.2f} s sys, "
            f"{after.ru_minflt - before.ru_minflt} minor faults"
        )
        peak, checks = traced_run(name)
        counts = ", ".join(f"{call} x{n}" for call, n in Counter(calls).items())
        eig = f"{len(calls)} eigh/eigvalsh calls" + (f": {counts}" if counts else "")
        eig += f"; irrep_spectra x{len(splits)}; matrix x{len(matrices)}"
        spectra = Counter(paths + factors)
        spectra = ", ".join(f"{path} x{n}" for path, n in spectra.items()) or "none"
        print(
            f"{name} {seconds:.2f} s ({cpu}), heap peak {peak:.1f} MiB, {eig}; spectra: {spectra}; "
            f"checks: {', '.join(checks)}",
            file=sys.stderr,
            flush=True,
        )
        print(line, flush=True)
        lines[name] = line.split()[1:]
    differ = [n for n, p in TWO_WORKERS.items() if n in lines and p in lines and lines[n] != lines[p]]
    if differ:
        print(f"runs that differ from their serial preset: {differ}", file=sys.stderr)
    texts = {path.name: path.read_text() for path in (SRC / "invdecomp").glob("*.py")}
    modules = sorted(((code_lines(text), name) for name, text in texts.items()), reverse=True)
    print("code_lines by module: " + ", ".join(f"{name} {n}" for n, name in modules), file=sys.stderr)
    docs = sorted(((len(doc_lines(text)), name) for name, text in texts.items()), reverse=True)
    print(
        "doc_lines by module: " + ", ".join(f"{name} {n}" for n, name in docs)
        + f"; total {sum(n for n, _ in docs)}",
        file=sys.stderr,
    )
    print(f"rng_contract={RNG_CONTRACT}")
    print(f"src_lines={sum(len(text.splitlines()) for text in texts.values())}")
    print(f"code_lines={sum(n for n, _ in modules)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
