"""The proof tools in ``tools/`` run against the package in ``src/``."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from invdecomp.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _tool(name, *args, **env):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / name), *map(str, args)],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **env),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_preset_digests_prints_the_named_presets_and_the_footer():
    run = _tool("preset_digests.py", "torus-1d", "torus-2d")
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.splitlines()
    assert [line.split()[:2] for line in lines[:2]] == [
        ["torus-1d", "exit=0"],
        ["torus-2d", "exit=0"],
    ]
    assert lines[2].startswith("rng_contract=")
    assert lines[3].startswith("src_lines=")
    assert lines[4].startswith("code_lines=")
    assert int(lines[4].split("=")[1]) < int(lines[3].split("=")[1])
    # stderr splits code_lines by module, and the parts add up to the footer's total
    by_module = run.stderr.split("code_lines by module: ", 1)[1].splitlines()[0].split(", ")
    assert "cli.py" in by_module[0] and any(part.startswith("torus.py ") for part in by_module)
    assert sum(int(part.split()[1]) for part in by_module) == int(lines[4].split("=")[1])
    # then the docstring lines per module, whose parts add up to their total; with the code
    # lines they count no more than the source lines
    docs, total = run.stderr.split("doc_lines by module: ", 1)[1].splitlines()[0].split("; total ")
    docs = docs.split(", ")
    assert {part.split()[0] for part in docs} == {part.split()[0] for part in by_module}
    assert sum(int(part.split()[1]) for part in docs) == int(total) > 0
    assert int(total) + int(lines[4].split("=")[1]) <= int(lines[3].split("=")[1])
    assert len(lines) == 5
    assert "dft(16x16) x2" in run.stderr
    assert run.stderr.count("; matrix x0; spectra: ") == 2  # the torus kernels keep their lags
    assert "heap peak" in run.stderr
    # the solver path, once, first
    solver = run.stderr.splitlines()[0]
    assert solver.startswith("eigensolver: bundled dsyevd (") or solver == "eigensolver: numpy fallback"
    if solver != "eigensolver: numpy fallback":  # the OpenBLAS kernel family, then its build
        family, config = solver.split(", kernel family ", 1)[1].split(", config OpenBLAS ", 1)
        assert family and " " not in family and family in config
    assert run.stderr.count("eigensolver: ") == 1
    for name in ("torus-1d", "torus-2d"):  # the timed run's CPU seconds and page faults
        line = next(line for line in run.stderr.splitlines() if line.startswith(f"{name} "))
        assert " s user, " in line and " s sys, " in line and " minor faults), heap peak " in line


def test_preset_digests_prints_the_runs_no_preset_reaches():
    names = [
        "user-matrix-watson16",
        "user-matrix-action-none",
        "user-matrix-s3",
        "cumulants-watson64",
        "watson1000",
        "quadruplication-12x12",
        "analytic-watson1024",
        "analytic-sheet12x12",
        "torus-sheared-12x10",
        "rejected-duplication-on-torus",
        "rejected-z2-on-two-axes",
        "rejected-no-config",
    ]
    run = _tool("preset_digests.py", *names)
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.splitlines()
    assert [line.split()[:2] for line in lines[:12]] == [
        ["user-matrix-watson16", "exit=1"],  # watson_relation and z2_condition fail on 16 points
        ["user-matrix-action-none", "exit=0"],
        ["user-matrix-s3", "exit=1"],  # watson_relation fails on a kernel with no Watson structure
        ["cumulants-watson64", "exit=0"],
        # 2,000 samples are too few for the KS gates of duplication and quadruplication
        ["watson1000", "exit=1"],
        ["quadruplication-12x12", "exit=1"],
        ["analytic-watson1024", "exit=1"],  # spectrum: eigenvector residuals at m = 1024
        ["analytic-sheet12x12", "exit=1"],  # watson_relation fails at 12 x 12
        ["torus-sheared-12x10", "exit=0"],
        ["rejected-duplication-on-torus", "exit=2"],
        ["rejected-z2-on-two-axes", "exit=2"],
        ["rejected-no-config", "exit=2"],
    ]
    assert [f.split("=")[0] for f in lines[0].split()[2:]] == [
        "report.json",
        "watson_relation.csv",
        "z2_condition.csv",
    ]
    assert [f.split("=")[0] for f in lines[1].split()[2:]] == ["report.json", "spectrum.csv"]
    assert [f.split("=")[0] for f in lines[2].split()[2:]] == [
        "report.json",
        "spectrum.csv",
        "watson_relation.csv",
    ]
    assert [f.split("=")[0] for f in lines[3].split()[2:]] == ["report.json", "cumulants.csv"]
    assert [f.split("=")[0] for f in lines[4].split()[2:]] == [
        "report.json",
        "duplication.csv",
        "watson_relation.csv",
        "z2_condition.csv",
    ]
    assert [f.split("=")[0] for f in lines[5].split()[2:]] == ["report.json", "quadruplication.csv"]
    assert [f.split("=")[0] for f in lines[6].split()[2:]] == [
        "report.json",
        "spectrum.csv",
        "watson_relation.csv",
        "z2_condition.csv",
    ]
    assert [f.split("=")[0] for f in lines[7].split()[2:]] == [
        "report.json",
        "spectrum.csv",
        "watson_relation.csv",
    ]
    assert [f.split("=")[0] for f in lines[8].split()[2:]] == ["report.json", "torus_conventions.csv"]
    stderr = (
        b"config error: kernel/name: duplication runs the 'watson' kernel only; "
        b"grid/n: duplication needs 1 equal interval axes\n"
    )
    assert lines[9].split()[2:] == [f"stderr={hashlib.sha256(stderr).hexdigest()}"]
    stderr = b"config error: checks: z2_condition needs a 2-element group, not order 4\n"
    assert lines[10].split()[2:] == [f"stderr={hashlib.sha256(stderr).hexdigest()}"]
    stderr = b"config error: give a config file or --preset\n"
    assert lines[11].split()[2:] == [f"stderr={hashlib.sha256(stderr).hexdigest()}"]
    assert len(lines) == 15
    # the stationary kernels off the powers of two take the DFT; their tied partners stay dense
    assert "spectra: dft(1000) x1, dense(1000) x1;" in run.stderr
    assert "spectra: dft(12x12) x1, dense(144) x1;" in run.stderr
    # the analytic runs take the spectrum check's one dense eigh and one isotypic split, and
    # read their lag kernel by rows, building no m x m matrix
    for eig in (
        "eigh(1024x1024) x1, eigh(512x2x2) x2, eigvalsh(512x512) x2",
        "eigh(144x144) x1, eigh(36x4x4) x4, eigvalsh(36x36) x4",
    ):
        assert f"{eig}; irrep_spectra x1; matrix x0;" in run.stderr
    # the user_matrix kernel is dense, and watson1000's duplication builds the dense bridge
    by_run = {line.split()[0]: line for line in run.stderr.splitlines()}
    assert "; matrix x1; " in by_run["user-matrix-watson16"]
    assert "; matrix x1; " in by_run["watson1000"]
    # S3's isotypic split: 4, 3 and 14 block eigenvalues for triv, sign and std (dimension 2)
    split = "eigvalsh(4x4) x1, eigvalsh(3x3) x1, eigvalsh(14x14) x1; irrep_spectra x1; matrix x1;"
    assert split in by_run["user-matrix-s3"]
    # the sheared torus takes the DFT gate twice and one axis-wise Fourier factor
    assert "spectra: dft(12x10) x2, fourier(axes 4x7, chunk 256) x1;" in run.stderr
    assert "unknown runs" in _tool("preset_digests.py", "no-such-run").stderr


def test_preset_digests_pins_the_z3_user_matrix_line():
    """Z3 on 12 points has complex characters, so the decomposition check's blocks and the
    spectrum check's cluster splits take their complex branches; all three checks pass.
    Pinned on OpenBLAS's Haswell kernels (``OPENBLAS_CORETYPE``), whose dense solve the
    spectrum's eigenvalues read, so the line holds on any AVX2 x86-64 host."""
    run = _tool("preset_digests.py", "user-matrix-z3", OPENBLAS_CORETYPE="Haswell")
    assert run.returncode == 0, run.stderr[-2000:]
    assert "kernel family Haswell," in run.stderr.splitlines()[0]
    assert run.stdout.splitlines()[0].split() == [
        "user-matrix-z3",
        "exit=0",
        "report.json=ba661ffb9f5db73eb451df7ec9a9f2336cde94f07e5f5424015934c542234d96",
        "spectrum.csv=5124f9bb2cd8b53caa3a499ba825c912374a22eca1104ca722ded72eebc52965",
    ]


def test_preset_digests_two_worker_lines_equal_the_serial_lines():
    """The multi-block presets at two sampling workers, drawn in waves of two blocks,
    give the serial runs' exit codes and digests."""
    serial = ["watson-duplication", "torus-2d", "quadruplication"]
    names = serial + [f"{name}-2workers" for name in serial]
    run = _tool("preset_digests.py", *names)
    assert run.returncode == 0, run.stderr[-2000:]
    lines = [line.split() for line in run.stdout.splitlines()]
    assert [fields[0] for fields in lines[:6]] == names
    for i in range(3):
        assert lines[i][1] == "exit=0" and lines[i + 3][1:] == lines[i][1:]
    assert len(lines) == 9


def test_preset_digests_reseeds_a_preset_by_an_overlay_config():
    """A config of ``seed`` alone, overlaid on ``--preset mgf-check``, runs the preset at
    that seed: the same check and table, other samples."""
    run = _tool("preset_digests.py", "mgf-check", "mgf-check-seed5-overlay")
    assert run.returncode == 0, run.stderr[-2000:]
    preset, overlay = (line.split() for line in run.stdout.splitlines()[:2])
    assert overlay[:2] == ["mgf-check-seed5-overlay", "exit=0"] and preset[1] == "exit=0"
    assert [f.split("=")[0] for f in overlay[2:]] == ["report.json", "mgf.csv"]
    assert overlay[2] != preset[2]


def test_report_diff_of_a_report_against_itself_exits_0(tmp_path):
    assert main(["run", "--preset", "torus-2d", "--out", str(tmp_path)]) == 0
    report = tmp_path / "report.json"
    run = _tool("report_diff.py", report, report)
    assert run.returncode == 0, run.stdout + run.stderr


def test_bench_pairs_of_the_repo_against_itself_writes_its_record(tmp_path):
    """One pair of one workload, both sides copies of this checkout: the record names both
    sides, and per metric holds each side's summary and the pairs the change won."""
    out = tmp_path / "BENCH.json"
    run = _tool(
        "bench_pairs.py", ROOT, ROOT, "--pairs", 1, "--seconds", 1, "--workload", "dup-1d-serial",
        "--out", out,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    record = json.loads(out.read_text())
    for side in ("parent", "change"):
        assert record[side]["kind"] == "directory" and record[side]["source"] == str(ROOT)
    assert (record["pairs"], record["seconds"], record["seed"]) == (1, 1, 1)
    assert record["env"] == {"PYTHONDONTWRITEBYTECODE": "1"}
    assert list(record["workloads"]) == ["dup-1d-serial"]
    workload = record["workloads"]["dup-1d-serial"]
    assert {"run_s", "setup_s", "peak_rss_mb", "check_pass_ratio"} <= set(workload["metrics"])
    for metric in workload["metrics"].values():
        assert metric["better"] in ("lower", "higher")
        assert metric["change_better"] in (0, 1)
        for side in ("parent", "change"):
            summary = metric[side]
            assert len(summary["runs"]) == 1
            assert summary["q1"] == summary["median"] == summary["q3"] == summary["runs"][0]
    [pair] = workload["runs"]
    assert (pair["pair"], pair["seed"], pair["first"]) == (0, 1, "parent")
    for side in ("parent", "change"):
        assert pair[side]["correct"] is True
        assert {"attempted", "failed", "machine", "host"} <= set(pair[side])
    assert "dup-1d-serial peak_rss_mb: " in run.stderr
