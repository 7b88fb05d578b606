"""Print one digest line per run, to prove that a refactor leaves every report unchanged.

Usage, from the root of a checkout:

    python3 tools/preset_digests.py [RUN ...]

Every preset of ``invdecomp.cli.PRESETS``, then every run of ``EXTRA_RUNS``
(or only those named) runs through ``invdecomp.cli.main`` into a temporary
directory, with one sampling worker (two in the two-worker runs below) and one
BLAS thread.  ``EXTRA_RUNS`` are
the paths no preset reaches: a ``user_matrix`` kernel file of ``watson`` on 16
points with its Z2 reversal group, the same file under ``action: none``, a
``user_matrix`` file of S3 on 21 points (its ``std`` irrep has dimension 2), one of Z3
on 12 points (its characters are complex), a
``cumulants`` run, ``watson`` on 1000 points and ``sheet_compensated`` on
12 x 12 (grids whose sizes are not powers of two), the analytic checks on
``watson`` at 1024 points (Z2) and on ``sheet_compensated`` at 12 x 12 (Z2 x Z2,
four irreps), ``torus_watson`` on a sheared 12 x 10 torus (the one run that
passes a ``grid.basis``), two configs that ``run`` rejects with exit 2, one
of them through the in-law checks' grid and kernel rule, a ``run`` given
neither a config file nor a preset, which exits 2 too, the ``mgf-check``
preset overlaid by a config of ``seed`` 5 alone (the route that re-seeds a
preset), and the
``watson-duplication``, ``torus-2d`` and ``quadruplication`` presets at two
sampling workers (``TWO_WORKERS``: ``watson-duplication-2workers``,
``torus-2d-2workers``, ``quadruplication-2workers``), which the sampling runner
draws in waves of two blocks.  Each line gives the run's name, its exit code,
the sha256 of its ``report.json`` and the sha256 of each CSV table, in name
order; a run that writes no report gives the sha256 of its stderr instead.  The report is hashed without its
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
A first stderr line names the eigensolver: ``bundled dsyevd (<library>)``, with the kernel
family that the library's OpenBLAS picked for this CPU as it loaded and its build
configuration (``scipy_openblas_get_corename64_`` and ``scipy_openblas_get_config64_``, for
example ``kernel family SkylakeX``), or ``numpy fallback``.  Each run's wall seconds go to
stderr, so stdout stays diff-able, with the user and sys CPU seconds and the minor page faults
(``ru_minflt``) of the same timed run (for example ``0.55 s (0.47 s user, 0.07 s sys, 6398
minor faults)``), its heap peak, and the facts that ``invdecomp.kernels.recording()`` lists
for the run: the count and matrix shapes of its eigensolves, named ``eigh`` or ``eigvalsh``
as numpy's call of the same solve (for example ``eigvalsh(1024x1024) x2``), the count of its
isotypic splits (``kernels.irrep_spectra``, which a kernel makes once when a check first
reads ``Kernel.irrep_spectra``; for example ``irrep_spectra x1``), the count of m x m kernel
matrices the run built: one per dense ``Kernel`` and one per lag kernel whose ``matrix`` was
read (for example ``matrix x0``), and then, after ``spectra:``, the spectrum path of each
``Kernel``'s PSD check, ``dft(<index shape>)`` or ``dense(<m>)`` (for example ``dft(256) x1,
dense(256) x1``), and the folded box of frequencies that each torus factor
(``torus.fourier_factor``) applies axis by axis, with the columns per chunk that the torus
check streams it (for example ``fourier(axes 11x21, chunk 64) x1``).  The heap peak is the
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
import ctypes
import dataclasses
import hashlib
import io
import itertools
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

from invdecomp import cli, kernels  # noqa: E402
from invdecomp.sampling import RNG_CONTRACT  # noqa: E402


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


def _s3_file(tmp: Path) -> str:
    """A kernel file of S3 on 21 points of equal weight, written as :func:`_watson16_file`
    writes its file: S3 permutes points 0-2 as it permutes {0, 1, 2}, and each of three
    6-point orbits by left multiplication, with its real irreps triv, sign and std (of
    dimension 2).  The matrix is min(i, j) + 1 averaged over the group: its integer sums are
    exact, so it is bitwise invariant, and it is PSD.  Returns the header's name."""
    m, elems = 21, list(itertools.permutations(range(3)))
    index = {g: i for i, g in enumerate(elems)}
    mul = [index[tuple(a[b[i]] for i in range(3))] for a in elems for b in elems]
    regular = [[3 + 6 * k + mul[6 * i + h] for k in range(3) for h in range(6)] for i in range(6)]
    perm = [list(g) + orbits for g, orbits in zip(elems, regular)]
    base = np.minimum.outer(np.arange(m), np.arange(m)) + 1.0
    matrix = sum(base[np.ix_(p, p)] for p in perm) / (len(elems) * m)
    np.savetxt(tmp / "s3.csv", matrix, fmt="%.17g", delimiter=",")
    sign = [(-1.0) ** sum(g[i] > g[j] for i in range(3) for j in range(i + 1, 3)) for g in elems]
    std = [sum(g[i] == i for i in range(3)) - 1.0 for g in elems]  # fixed points less one
    irreps = [("triv", 1, [1.0] * 6), ("sign", 1, sign), ("std", 2, std)]
    irreps = [{"label": label, "dim": d, "re": re, "im": [0.0] * 6} for label, d, re in irreps]
    inv = [index[tuple(g.index(i) for i in range(3))] for g in elems]
    group = dict(order=6, name="S3", mul=mul, inv=inv, perm=sum(perm, []), npoints=m, irreps=irreps)
    space = {"points": [[float(i)] for i in range(m)], "weights": [1.0 / m] * m, "name": "S3", "group": group}
    header = {"kind": "kernel", "name": "s3", "shape": [m, m], "format": "csv"}
    return _write_json(tmp / "s3.json", dict(header, payload="s3.csv", space=space))


def _z3_file(tmp: Path) -> str:
    """A kernel file of Z3 on 12 points of equal weight, written as :func:`_s3_file` writes
    its file: Z3 rotates each of four 3-point orbits, with its irreps triv, chi1 and chi2,
    whose characters are complex.  The matrix is min(i, j) + 1 averaged over the group, as
    in :func:`_s3_file`.  Returns the header's name."""
    m, s = 12, 3**0.5 / 2
    perm = [[3 * (i // 3) + (i + g) % 3 for i in range(m)] for g in range(3)]
    base = np.minimum.outer(np.arange(m), np.arange(m)) + 1.0
    matrix = sum(base[np.ix_(p, p)] for p in perm) / (3 * m)
    np.savetxt(tmp / "z3.csv", matrix, fmt="%.17g", delimiter=",")
    irreps = [
        {"label": "triv", "dim": 1, "re": [1.0, 1.0, 1.0], "im": [0.0, 0.0, 0.0]},
        {"label": "chi1", "dim": 1, "re": [1.0, -0.5, -0.5], "im": [0.0, s, -s]},
        {"label": "chi2", "dim": 1, "re": [1.0, -0.5, -0.5], "im": [0.0, -s, s]},
    ]
    mul = [(a + b) % 3 for a in range(3) for b in range(3)]
    group = dict(order=3, name="Z3", mul=mul, inv=[0, 2, 1], perm=sum(perm, []), npoints=m, irreps=irreps)
    space = {"points": [[float(i)] for i in range(m)], "weights": [1.0 / m] * m, "name": "Z3", "group": group}
    header = {"kind": "kernel", "name": "z3", "shape": [m, m], "format": "csv"}
    return _write_json(tmp / "z3.json", dict(header, payload="z3.csv", space=space))


def _user_matrix(checks: list, write=_watson16_file, n=16, **overrides):
    def config(tmp: Path) -> list[str]:
        kernel = {"name": "user_matrix", "params": {"path": write(tmp)}}
        cfg = dict(name="user-matrix", kernel=kernel, grid={"n": n}, checks=checks, **overrides)
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
    # S3 has an irrep of dimension 2; watson_relation fails on a kernel with no Watson structure
    "user-matrix-s3": _user_matrix(
        ["invariance", "decomposition", "spectrum", "watson_relation"], write=_s3_file, n=21
    ),
    # Z3's characters are complex, so its blocks and cluster splits take the complex branches
    "user-matrix-z3": _user_matrix(["invariance", "decomposition", "spectrum"], write=_z3_file, n=12),
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
    # neither a config file nor a preset
    "rejected-no-config": lambda tmp: [],
    # a config overlaid on a preset: the route that re-seeds a preset
    "mgf-check-seed5-overlay": lambda tmp: [
        _write_json(tmp / "config.json", {"seed": 5}), "--preset", "mgf-check"
    ],
}


# the multi-block presets again at two sampling workers, run by the runner's waves: each
# line's fields must equal the preset's serial line
TWO_WORKERS = {
    f"{name}-2workers": name for name in ("watson-duplication", "torus-2d", "quadruplication")
}
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
    solver = "numpy fallback"
    if lib is not None:
        family, config = (getattr(lib, f"scipy_openblas_get_{key}64_") for key in ("corename", "config"))
        family.restype = config.restype = ctypes.c_char_p
        solver = (
            f"bundled dsyevd ({Path(lib._name).name}), kernel family {family().decode()}, "
            f"config {config().decode().strip()}"
        )
    print(f"eigensolver: {solver}", file=sys.stderr)
    lines = {}
    for name in names:
        t0, before = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        with kernels.recording() as facts:
            line = digest(name)
        seconds, after = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF)
        cpu = (
            f"{after.ru_utime - before.ru_utime:.2f} s user, {after.ru_stime - before.ru_stime:.2f} s sys, "
            f"{after.ru_minflt - before.ru_minflt} minor faults"
        )
        peak, checks = traced_run(name)
        of = lambda *kinds: [fact for fact in facts if fact.split("(")[0] in kinds]
        calls = of("eigh", "eigvalsh")
        counts = ", ".join(f"{call} x{n}" for call, n in Counter(calls).items())
        eig = f"{len(calls)} eigh/eigvalsh calls" + (f": {counts}" if counts else "")
        eig += f"; irrep_spectra x{len(of('irrep_spectra'))}; matrix x{len(of('matrix'))}"
        spectra = Counter(of("dft", "dense") + of("fourier"))
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
