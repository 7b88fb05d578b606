"""Command-line runner: config validation, exit codes, reports, presets."""

import functools
import json
import tracemalloc

import numpy as np
import pytest

from invdecomp import cli, kernels, torus
from invdecomp.cli import (
    CHECKS,
    DEFAULT_TOLERANCES,
    PRESETS,
    main,
    resolve_tolerances,
    validate_config,
)
from invdecomp.groups import character_table
from invdecomp.io import load_kernel
from invdecomp.kernels import Kernel, builtin_kernel, irrep_spectra, make_interval_grid
from invdecomp.sampling import RNG_CONTRACT, duplication_check, quadruplication_check


def write_config(tmp_path, name="cfg", **overrides):
    cfg = {
        "name": "test",
        "kernel": {"name": "watson"},
        "grid": {"kind": "interval", "n": 32},
        "checks": ["invariance"],
    }
    cfg.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


# -------------------------------------------------------------- list/validate


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out.split()
    for name in (
        "watson-duplication",
        "polarized-watson",
        "quadruplication",
        "prop9-watson",
        "mgf-check",
        "kl-bridge",
        "kl-watson",
        "torus-1d",
        "torus-2d",
    ):
        assert name in out
    assert len(out) == len(PRESETS)


def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["validate", str(cfg)]) == 0
    assert "ok" in capsys.readouterr().out.lower()


def test_validate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n,"nope"\n}')
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column 1" in err


def test_validate_unknown_kernel(tmp_path, capsys):
    cfg = write_config(tmp_path, kernel={"name": "nope"})
    assert main(["validate", str(cfg)]) == 2
    assert "nope" in capsys.readouterr().err


def test_validate_missing_seed_for_mc(tmp_path, capsys):
    cfg = write_config(tmp_path, checks=["duplication"], samples=2000)
    assert main(["validate", str(cfg)]) == 2
    assert "seed" in capsys.readouterr().err


def test_validate_rejects_negative_rho(tmp_path, capsys):
    cfg = write_config(tmp_path, checks=["duplication"], samples=2000, seed=1, rho=-0.5)
    assert main(["validate", str(cfg)]) == 2
    assert "rho" in capsys.readouterr().err


@pytest.mark.parametrize("seed, code", [(2**64 - 1, 0), (2**64, 2)])
def test_validate_seed_fits_the_rng_key(tmp_path, seed, code):
    cfg = write_config(tmp_path, checks=["duplication"], samples=2000, seed=seed)
    assert main(["validate", str(cfg)]) == code


def test_run_rejects_a_seed_beyond_64_bits(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        checks=["duplication"],
        samples=2000,
        seed=1,
        output={"dir": str(tmp_path / "out")},
    )
    assert main(["run", str(cfg), "--seed", str(2**64)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("output", [5, [], "x"], ids=["int", "list", "string"])
@pytest.mark.parametrize("flag", [[], ["--out"]], ids=["config", "out-flag"])
def test_run_rejects_a_malformed_output_with_or_without_out(tmp_path, capsys, output, flag):
    cfg = write_config(tmp_path, output=output)
    assert main(["run", str(cfg)] + flag + [str(tmp_path / "out")] * len(flag)) == 2
    err = capsys.readouterr().err
    assert f"config error: output: expected an object, got {json.dumps(output)}" in err
    assert not (tmp_path / "out").exists()


def test_validate_unknown_check_name(tmp_path, capsys):
    cfg = write_config(tmp_path, checks=["frobnicate"])
    assert main(["validate", str(cfg)]) == 2


def test_validate_unknown_tolerance_key(tmp_path, capsys):
    cfg = write_config(tmp_path, tolerances={"not_a_check": 1.0})
    assert main(["validate", str(cfg)]) == 2


def test_validate_torus_check_needs_torus_grid(tmp_path, capsys):
    cfg = write_config(
        tmp_path, checks=["stationarity", "torus_watson"], samples=2000, seed=1
    )
    assert main(["validate", str(cfg)]) == 2


def test_validate_notes_a_ks_tolerance_below_the_noise_floor(tmp_path, capsys):
    cfg = write_config(tmp_path, checks=["duplication"], samples=2000, seed=1)
    assert main(["validate", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "OK"
    assert len(out) == 2
    assert out[1].startswith("note: duplication KS tolerance 0.01 is below the null KS critical")
    assert "at 2000 samples" in out[1]


@pytest.mark.parametrize("preset", PRESETS)
def test_no_preset_sits_below_the_ks_noise_floor(tmp_path, capsys, preset):
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(PRESETS[preset]))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "OK\n"


@pytest.mark.parametrize(
    "check, kernel, n",
    [
        ("duplication", "sheet_compensated", [16, 16]),
        ("duplication", "bridge", 16),
        ("quadruplication", "sheet_tied", [16, 16]),
        ("quadruplication", "sheet_compensated", [32, 8]),
    ],
)
def test_validate_rejects_a_kernel_or_grid_the_law_check_ignores(
    tmp_path, capsys, check, kernel, n
):
    """duplication runs watson on a 1-d grid, quadruplication sheet_compensated on n x n."""
    cfg = write_config(
        tmp_path,
        kernel={"name": kernel},
        grid={"kind": "interval", "n": n},
        checks=[check],
        samples=2000,
        seed=1,
    )
    assert main(["validate", str(cfg)]) == 2
    assert check in capsys.readouterr().err


_LAYOUTS = {"1": 8, "2": [8, 8], "3": [4, 4, 4], "unequal 2": [8, 4]}


def test_the_validator_and_the_kernel_registry_agree():
    """Every built-in kernel x grid kind x axis layout x check: each config the
    validator accepts builds, each kernel is accepted on every grid kind its
    record names, and an interval grid of another dimension is rejected by a
    message that names the record's dim."""
    built = {}
    for name, rec in kernels.BUILTINS.items():
        for kind in ("interval", "torus"):
            for layout, n in _LAYOUTS.items():
                d = len(n) if isinstance(n, list) else 1
                for check in CHECKS:
                    cfg = {"kernel": {"name": name}, "grid": {"kind": kind, "n": n}}
                    cfg.update(checks=[check], seed=1)
                    errors = validate_config(cfg)
                    prefix = f"grid/n: kernel {name!r} needs"
                    want = [f"{prefix} a {rec.dim}-d grid"] if kind == "interval" and d != rec.dim else []
                    assert [e for e in errors if e.startswith(prefix)] == want, (kind, layout, check)
                    if not errors and (name, kind, layout) not in built:
                        built[name, kind, layout] = cli.build_kernel(cfg)
                        assert built[name, kind, layout].name == name
    grids = {(name, kind) for name, rec in kernels.BUILTINS.items() for kind in rec.grids}
    assert {(name, kind) for name, kind, _ in built} == grids


@pytest.mark.parametrize(
    "overrides",
    [
        {"group": {"kind": "cyclic", "factors": [2]}},
        {"output": {"formats": ["binary"]}},
        {"action": {"name": "negation"}},
        {
            "action": {"name": "reversal"},
            "kernel": {"name": "torus_watson"},
            "grid": {"kind": "torus", "n": [4, 4]},
            "checks": ["stationarity"],
        },
        {
            "action": {"name": "none"},
            "kernel": {"name": "torus_watson"},
            "grid": {"kind": "torus", "n": [4, 4]},
            "checks": ["stationarity"],
        },
        {"grid": {"kind": "interval", "n": 32, "basis": [[1.0]]}},
        {
            "kernel": {"name": "torus_watson"},
            "grid": {"kind": "torus", "n": [4, 4], "basis": np.eye(3).tolist()},
            "checks": ["stationarity"],
        },
        {
            "kernel": {"name": "torus_watson"},
            "grid": {"kind": "torus", "n": [4, 4], "basis": [[1, 0], [2, 0]]},
            "checks": ["stationarity"],
        },
        {
            "kernel": {"name": "sheet_compensated"},
            "grid": {"kind": "interval", "n": [8, 8]},
            "checks": ["z2_condition"],
        },
    ],
    ids=[
        "group",
        "binary",
        "negation-on-interval",
        "reversal-on-torus",
        "none-on-torus",
        "basis-on-interval",
        "basis-rows-not-axes",
        "basis-singular",
        "z2-condition-on-two-axes",
    ],
)
def test_validate_rejects_config_that_would_be_ignored(tmp_path, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["validate", str(cfg)]) == 2


def _torus_config(params=None, n=(16,), checks=("stationarity", "torus_watson")):
    kernel = {"name": "torus_watson"}
    if params is not None:
        kernel["params"] = params
    grid = {"kind": "torus", "n": list(n)}
    return {"kernel": kernel, "grid": grid, "checks": list(checks), "samples": 2000, "seed": 1}


def _mgf_config(pairs, checks=("mgf",)):
    kernel = {"name": "watson", "params": {"mgf_pairs": pairs}}
    return {"kernel": kernel, "grid": {"n": 64}, "checks": list(checks), "samples": 2000, "seed": 1}


@pytest.mark.parametrize(
    "overrides",
    [
        _torus_config({"cutof": 5}),
        {"kernel": {"name": "watson", "params": {"path": "k.json"}}},
        {"kernel": {"name": "user_matrix"}},
        _torus_config({"cutoff": 3}, checks=["stationarity"]),
        _mgf_config([[0.5, 0.5]], checks=["invariance"]),
        _torus_config({"cutoff": 8}),
        _torus_config(n=[2, 16]),
        _torus_config({"cutoff": -3}),
        _mgf_config([[7.0, 0.5]]),
        _mgf_config([[-0.5, 0.5]]),
        _mgf_config([[0.5, 1.5]]),
    ],
    ids=[
        "misspelt-key",
        "path-without-user-matrix",
        "user-matrix-without-path",
        "cutoff-without-torus-check",
        "mgf-pairs-without-mgf",
        "cutoff-at-nyquist",
        "default-cutoff-at-nyquist",
        "negative-cutoff",
        "mgf-lambda-at-the-pole",
        "mgf-negative-lambda",
        "mgf-rho-above-one",
    ],
)
def test_validate_rejects_kernel_params_the_run_ignores_or_cannot_honour(
    tmp_path, capsys, overrides
):
    cfg = write_config(tmp_path, **overrides)
    assert main(["validate", str(cfg)]) == 2
    assert "kernel/params" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        _torus_config({"cutoff": 7}),
        _torus_config(n=[3, 16]),
        _mgf_config([[6.2, 0.01], [0.0, 1.0]]),
    ],
    ids=["cutoff-below-nyquist", "default-cutoff", "mgf-pairs-in-range"],
)
def test_validate_accepts_kernel_params_where_they_are_read(tmp_path, overrides):
    assert main(["validate", str(write_config(tmp_path, **overrides))]) == 0


@pytest.mark.parametrize(
    "tolerances",
    [
        {"invariance": "abc"},
        {"invariance": [1, 2]},
        {"cumulants": 0.01},
        {"invariance": -1},
    ],
    ids=["string", "array", "cumulants-scalar", "negative"],
)
def test_validate_rejects_bad_tolerance_values(tmp_path, capsys, tolerances):
    cfg = write_config(tmp_path, tolerances=tolerances)
    assert main(["validate", str(cfg)]) == 2
    assert "tolerances" in capsys.readouterr().err


_REJECTED_NUMBERS = {
    # Python's json reads NaN and Infinity; a config number must be finite
    "rho-nan": ({"rho": float("nan")}, "rho"),
    "tolerance-nan": ({"tolerances": {"invariance": float("nan")}}, "tolerances/invariance"),
    "tolerance-infinity": ({"tolerances": {"invariance": float("inf")}}, "tolerances/invariance"),
    "cumulants-minus-infinity": (
        {"tolerances": {"cumulants": [0.01, float("-inf"), 0.1]}},
        "tolerances/cumulants/1",
    ),
    # an integer field takes a JSON integer, not an integral float
    "grid-n-float": ({"grid": {"kind": "interval", "n": 32.0}}, "grid/n"),
    "grid-n-float-axis": ({"grid": {"kind": "interval", "n": [8.0, 8]}}, "grid/n/0"),
    "samples-float": ({"samples": 2000.0}, "samples"),
    "seed-float": ({"seed": 1.0}, "seed"),
    "n-max-float": ({"n_max": 6.0}, "n_max"),
    "n-max-bool": ({"n_max": True}, "n_max"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("overrides, key", _REJECTED_NUMBERS.values(), ids=list(_REJECTED_NUMBERS))
def test_non_finite_numbers_and_float_integers_exit_2(tmp_path, capsys, command, overrides, key):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, output={"dir": str(out)}, **overrides)
    assert main([command, str(cfg)]) == 2
    assert f"config error: {key}: expected" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["0", "-1"])
def test_run_rejects_a_non_positive_tol_scale(tmp_path, capsys, scale):
    cfg = write_config(tmp_path, output={"dir": str(tmp_path / "out")})
    assert main(["run", str(cfg), "--tol-scale", scale]) == 2
    assert "tol-scale" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file(capsys):
    assert main(["run", "/nonexistent/cfg.json"]) == 2


def test_validate_accepts_a_torus_basis_with_one_row_per_axis(tmp_path):
    grid = {"kind": "torus", "n": [4, 4], "basis": [[1.0, 0.0], [0.5, 1.0]]}
    cfg = write_config(tmp_path, kernel={"name": "torus_watson"}, grid=grid, checks=["stationarity"])
    assert main(["validate", str(cfg)]) == 0


# ---------------------------------------------------------------- law checks

_LAW_RUNS = {
    # check: (kernel, tied-down partner, grid.n, the sampling module's wrapper, its grid)
    "duplication": ("watson", "bridge", 32, duplication_check, 32),
    "quadruplication": ("sheet_compensated", "sheet_tied", [8, 8], quadruplication_check, 8),
}


@pytest.mark.parametrize("check", list(_LAW_RUNS))
def test_law_check_runs_on_the_runners_kernel(tmp_path, monkeypatch, check):
    """The run builds its kernel and the tied-down partner: two kernels, not three."""
    built = []
    post_init = Kernel.__post_init__

    def counting(self):
        built.append(self.name)
        post_init(self)

    monkeypatch.setattr(Kernel, "__post_init__", counting)
    kernel, tied, n, _, _ = _LAW_RUNS[check]
    cfg = write_config(
        tmp_path,
        kernel={"name": kernel},
        grid={"kind": "interval", "n": n},
        checks=[check],
        samples=2000,
        seed=7,
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
    assert built == [kernel, tied]


@pytest.mark.parametrize("action", [None, "none"])
@pytest.mark.parametrize("check", list(_LAW_RUNS))
def test_runner_law_report_is_the_wrappers(tmp_path, check, action):
    kernel, _, n, wrapper, grid = _LAW_RUNS[check]
    extra = {} if action is None else {"action": {"name": action}}
    cfg = write_config(
        tmp_path,
        kernel={"name": kernel},
        grid={"kind": "interval", "n": n},
        checks=[check],
        samples=2500,
        rho=0.7,
        seed=11,
        tolerances={check: 0.05},
        **extra,
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
    got = json.loads((tmp_path / "out" / "report.json").read_text())["checks"][check]
    assert got.pop("status") in ("passed", "failed")
    want = wrapper({"grid": grid, "samples": 2500, "rho": 0.7, "seed": 11, "ks_tol": 0.05})
    assert got == json.loads(json.dumps(want))


# ----------------------------------------------------------------- run paths


def test_run_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, output={"dir": str(tmp_path / "out")})
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] invariance" in out
    assert "verdict: PASS" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["ok"] is True
    assert report["checks"]["invariance"]["status"] == "passed"
    assert (tmp_path / "out" / "summary.txt").exists()


@pytest.mark.parametrize("checks", [["watson_relation", "z2_condition"], ["z2_condition"]])
def test_symmetry_checks_share_one_isotypic_split(tmp_path, monkeypatch, checks):
    """One irrep_spectra per run; the z2 values are the trace differences of the report."""
    calls = []

    def counting(kernel, table):
        calls.append(kernel.name)
        return irrep_spectra(kernel, table)

    # where Kernel.irrep_spectra looks it up
    monkeypatch.setattr(kernels, "irrep_spectra", counting)
    cfg = write_config(tmp_path, grid={"kind": "interval", "n": 64}, checks=checks)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
    assert calls == ["watson"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
    if "watson_relation" in checks:
        traces = {r["label"]: r["traces"] for r in report["watson_relation"]["per_irrep"]}
        want = [a - b for a, b in zip(traces["triv"], traces["sign"])]
        assert report["z2_condition"]["values"] == want


def test_one_invariance_verdict_per_run(tmp_path, monkeypatch):
    """A run of the five analytic checks computes the kernel's invariance once: the
    gate and both symmetry guards read the kernel's cached deviation, and the report
    and tables are byte-identical to those of a run in which every read computes it."""
    calls = []
    compute = kernels.Kernel.invariance_dev.func

    def counting(kernel):
        calls.append(kernel.name)
        return compute(kernel)

    def install(prop):
        prop.__set_name__(kernels.Kernel, "invariance_dev")
        monkeypatch.setattr(kernels.Kernel, "invariance_dev", prop)

    install(functools.cached_property(counting))
    checks = ["invariance", "decomposition", "spectrum", "watson_relation", "z2_condition"]
    cfg = write_config(tmp_path, grid={"kind": "interval", "n": 64}, rho=0.5, checks=checks)

    def run(out):
        assert main(["run", str(cfg), "--out", str(tmp_path / out)]) in (0, 1)
        files = sorted((tmp_path / out).iterdir())
        text = {f.name: f.read_text() for f in files}
        text["report.json"] = "\n".join(
            line for line in text["report.json"].splitlines() if '"generated_at"' not in line
        )
        return text

    cached = run("cached")
    assert calls == ["watson"]
    install(property(counting))
    assert run("recomputed") == cached
    assert calls == ["watson"] * 4
    assert cached.keys() >= {"report.json", "watson_relation.csv", "z2_condition.csv"}


def test_run_failure_exit_code_and_stderr(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        kernel={"name": "bridge"},
        checks=["invariance", "watson_relation"],
        output={"dir": str(tmp_path / "out")},
    )
    assert main(["run", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] watson_relation" in captured.out
    assert "watson_relation" in captured.err
    # failing run still writes the full report and the deviation table
    table = (tmp_path / "out" / "watson_relation.csv").read_text().splitlines()
    assert table[0] == "irrep,n,trace,cumulant,cII_dev,cIII_dev"
    assert len(table) > 1


def test_spectrum_compares_only_the_oracle_rows_the_grid_has(tmp_path, capsys):
    """16 watson points hold 8 oracle pairs, not the 10 a larger grid shows."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, grid={"kind": "interval", "n": 16}, checks=["spectrum"])
    assert main(["run", str(cfg), "--out", str(out)]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    rows = report["checks"]["spectrum"]["oracle"]["rows"]
    assert 0 < len(rows) <= 8


@pytest.mark.parametrize(
    "overrides, flags",
    [({"tolerances": {"spectrum": 1e-6}}, []), ({}, ["--tol-scale", "100"])],
    ids=["config", "tol-scale"],
)
def test_spectrum_tolerance_judges_the_canonical_split(tmp_path, overrides, flags):
    """At m = 1024 watson's eigenvectors leak about 1e-7 under reversal: a spectrum
    tolerance of 1e-6 passes both the eigenspace invariance and the canonical split."""
    out = tmp_path / "out"
    grid = {"kind": "interval", "n": 1024}
    cfg = write_config(tmp_path, grid=grid, checks=["spectrum"], **overrides)
    assert main(["run", str(cfg), "--out", str(out), *flags]) == 0
    rep = json.loads((out / "report.json").read_text())["checks"]["spectrum"]
    assert rep["status"] == "passed"
    assert 1e-8 < rep["eigenspace_invariance"]["max_residual"] <= 1e-6  # fails at the default
    assert rep["canonical"]["dimension_sums_exact"] is True


def test_failed_gate_skips_dependents(tmp_path, capsys, kernel_file):
    r = np.random.default_rng(7)
    a = r.normal(size=(16, 16))
    path = kernel_file(a @ a.T / 16, stem="rand")
    cfg = write_config(
        tmp_path,
        kernel={"name": "user_matrix", "params": {"path": str(path)}},
        grid={"kind": "interval", "n": 16},
        checks=["invariance", "watson_relation"],
        output={"dir": str(tmp_path / "out")},
    )
    assert main(["run", str(cfg)]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"]["invariance"]["status"] == "failed"
    assert report["checks"]["watson_relation"]["status"] == "skipped"
    assert report["checks"]["watson_relation"]["skipped_due_to"] == "invariance"
    assert "[SKIP] watson_relation" in capsys.readouterr().out


def _z3_rotation(m: int) -> dict:
    """Z3 rotating m = 3k points by k, with its complex characters."""
    k = m // 3
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    return {
        "order": 3,
        "identity": 0,
        "name": "Z3",
        "mul": [(g + h) % 3 for g in range(3) for h in range(3)],
        "inv": [0, 2, 1],
        "perm": [(i + g * k) % m for g in range(3) for i in range(m)],
        "npoints": m,
        "irreps": [
            {"label": f"chi{j}", "dim": 1, "re": list((w**j).real), "im": list((w**j).imag)}
            for j in range(3)
        ],
    }


def test_decomposition_pairs_complex_characters_with_their_conjugates(
    tmp_path, kernel_file
):
    """An invariant kernel splits into the (pi, conj pi) blocks; with the
    complex characters of Z3 these are not the (pi, pi) blocks."""
    u = np.arange(12) / 12
    lag = np.mod(u[:, None] - u[None, :], 1.0)
    path = kernel_file((lag - 0.5) ** 2 / 2 - 1.0 / 24, group=_z3_rotation(12))
    cfg = _user_matrix_config(
        tmp_path, path, grid={"kind": "interval", "n": 12}, checks=["decomposition"]
    )
    assert main(["run", str(cfg)]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]["decomposition"]
    assert rep["status"] == "passed"
    assert rep["sum_deviation"] < 1e-14
    assert rep["max_cross_projection"] < 1e-14
    shares = rep["component_trace"]
    assert shares["chi1"] == pytest.approx(shares["chi2"], rel=1e-12)
    assert sum(shares.values()) == pytest.approx(1.0 / 12, rel=1e-12)


def test_decomposition_fails_a_kernel_the_group_moves(kernel_file):
    a = np.random.default_rng(3).normal(size=(12, 12))
    kernel = load_kernel(kernel_file(a @ a.T / 12, group=_z3_rotation(12)))
    ctx = {"kernel": kernel, "table": character_table(kernel.space.action.group)}
    rep = CHECKS["decomposition"].run(ctx, DEFAULT_TOLERANCES, {})
    assert not rep["ok"]
    assert rep["max_cross_projection"] > 1e-3


def _watson16_file(kernel_file, **kwargs):
    return kernel_file(builtin_kernel("watson", make_interval_grid(16)).matrix, **kwargs)


def _user_matrix_config(tmp_path, path, **overrides):
    overrides.setdefault("grid", {"kind": "interval", "n": 16})
    return write_config(
        tmp_path,
        kernel={"name": "user_matrix", "params": {"path": str(path)}},
        output={"dir": str(tmp_path / "out")},
        **overrides,
    )


def test_user_matrix_rejects_weights_the_action_moves(tmp_path, capsys, kernel_file):
    w = np.linspace(1.0, 2.0, 16)
    path = _watson16_file(kernel_file, weights=w / w.sum())
    cfg = _user_matrix_config(tmp_path, path, checks=["invariance", "watson_relation"])
    assert main(["run", str(cfg)]) == 2
    assert "does not preserve the weights" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_user_matrix_rejects_a_group_without_irreps(tmp_path, capsys, kernel_file):
    path = _watson16_file(kernel_file)
    meta = json.loads(path.read_text())
    del meta["space"]["group"]["irreps"]
    path.write_text(json.dumps(meta))
    cfg = _user_matrix_config(tmp_path, path, checks=["invariance", "decomposition"])
    assert main(["run", str(cfg)]) == 2
    assert "irreps" in capsys.readouterr().err


def test_user_matrix_rejects_a_grid_of_another_size(tmp_path, capsys, kernel_file):
    cfg = _user_matrix_config(
        tmp_path, _watson16_file(kernel_file), grid={"kind": "interval", "n": 999}
    )
    assert main(["run", str(cfg)]) == 2
    assert "16 points of the kernel file" in capsys.readouterr().err


def test_user_matrix_rejects_a_missing_file(tmp_path, capsys):
    cfg = _user_matrix_config(tmp_path, tmp_path / "absent.json")
    assert main(["run", str(cfg)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_user_matrix_rejects_a_non_finite_kernel(tmp_path, capsys, kernel_file, bad):
    """An infinite entry would pass as a spectrum of NaNs, a NaN fail inside LAPACK."""
    k = builtin_kernel("watson", make_interval_grid(16)).matrix.copy()
    k[0, 0] = bad
    cfg = _user_matrix_config(tmp_path, kernel_file(k), checks=["spectrum"])
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: kernel/params/path: ")
    assert "non-finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_user_matrix_rejects_a_non_finite_weight(tmp_path, capsys, kernel_file, bad):
    """JSON's reader takes NaN and Infinity; such a weight used to reach LAPACK."""
    w = np.full(16, 1.0 / 16)
    w[3] = bad
    path = _watson16_file(kernel_file, weights=w, group=None)
    cfg = _user_matrix_config(tmp_path, path, checks=["spectrum"])
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: kernel/params/path: ")
    assert "weights must be finite and strictly positive" in err
    assert not (tmp_path / "out").exists()


def test_user_matrix_action_none_drops_the_files_action(tmp_path, kernel_file):
    cfg = _user_matrix_config(
        tmp_path, _watson16_file(kernel_file), action={"name": "none"}, checks=["spectrum"]
    )
    assert main(["run", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "eigenspace_invariance" not in report["checks"]["spectrum"]
    assert "canonical" not in report["checks"]["spectrum"]


def test_user_matrix_without_a_group_rejects_checks_that_need_one(tmp_path, capsys, kernel_file):
    cfg = _user_matrix_config(
        tmp_path, _watson16_file(kernel_file, group=None), checks=["decomposition"]
    )
    assert main(["run", str(cfg)]) == 2
    assert "the kernel file has none" in capsys.readouterr().err


def _z3_circle_file(kernel_file):
    """The circle kernel on 12 points, invariant under the Z3 rotation."""
    u = np.arange(12) / 12
    lag = np.mod(u[:, None] - u[None, :], 1.0)
    return kernel_file((lag - 0.5) ** 2 / 2 - 1.0 / 24, group=_z3_rotation(12))


@pytest.mark.parametrize(
    "check, message",
    [
        ("watson_relation", "watson_relation needs real-valued characters"),
        ("z2_condition", "z2_condition needs a 2-element group"),
    ],
)
def test_user_matrix_rejects_checks_its_group_cannot_serve(
    tmp_path, capsys, kernel_file, check, message
):
    """Z3 has complex characters and order 3: neither check could run on it."""
    cfg = _user_matrix_config(
        tmp_path,
        _z3_circle_file(kernel_file),
        grid={"kind": "interval", "n": 12},
        checks=["invariance", check],
    )
    assert main(["run", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _grid_of_another_size(tmp_path, kernel_file):
    return _user_matrix_config(
        tmp_path, _watson16_file(kernel_file), grid={"kind": "interval", "n": 999}
    )


def _weights_moved(tmp_path, kernel_file):
    w = np.linspace(1.0, 2.0, 16)
    path = _watson16_file(kernel_file, weights=w / w.sum())
    return _user_matrix_config(tmp_path, path, checks=["invariance", "watson_relation"])


def _no_irreps(tmp_path, kernel_file):
    path = _watson16_file(kernel_file)
    meta = json.loads(path.read_text())
    del meta["space"]["group"]["irreps"]
    path.write_text(json.dumps(meta))
    return _user_matrix_config(tmp_path, path, checks=["invariance", "decomposition"])


def _z3_config(check):
    def build(tmp_path, kernel_file):
        return _user_matrix_config(
            tmp_path,
            _z3_circle_file(kernel_file),
            grid={"kind": "interval", "n": 12},
            checks=["invariance", check],
        )

    return build


@pytest.mark.parametrize(
    "build, message",
    [
        (_grid_of_another_size, "16 points of the kernel file"),
        (_no_irreps, "irreps"),
        (_weights_moved, "does not preserve the weights"),
        (_z3_config("z2_condition"), "z2_condition needs a 2-element group"),
        (_z3_config("watson_relation"), "watson_relation needs real-valued characters"),
    ],
    ids=["point-count", "no-irreps", "weights-moved", "group-order", "complex-characters"],
)
def test_validate_applies_the_user_matrix_file_rules(tmp_path, capsys, kernel_file, build, message):
    """validate reads the kernel file and rejects it with the message run gives."""
    cfg = build(tmp_path, kernel_file)
    assert main(["validate", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert message in captured.err
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == captured.err


@pytest.mark.parametrize("action", ["reversal", "negation"])
def test_user_matrix_takes_no_other_action(tmp_path, capsys, kernel_file, action):
    cfg = _user_matrix_config(tmp_path, _watson16_file(kernel_file), action={"name": action})
    assert main(["validate", str(cfg)]) == 2
    assert main(["run", str(cfg)]) == 2
    assert "user_matrix kernel takes its file's action" in capsys.readouterr().err


def test_gate_is_auto_appended(tmp_path):
    """Asking only for watson_relation pulls in its invariance gate."""
    cfg = write_config(
        tmp_path,
        checks=["watson_relation"],
        grid={"kind": "interval", "n": 128},  # 1e-3 needs n^2 headroom
        output={"dir": str(tmp_path / "out")},
    )
    assert main(["run", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(report["checks"]) == {"invariance", "watson_relation"}


def test_seed_override(tmp_path):
    cfg = write_config(
        tmp_path,
        checks=["duplication"],
        samples=2000,
        rho=1.0,
        seed=1,
        grid={"kind": "interval", "n": 32},
        tolerances={"duplication": 0.1},  # spec-scale 0.01 needs 1e5 samples
        output={"dir": str(tmp_path / "out")},
    )
    assert main(["run", str(cfg), "--seed", "99"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["seed"] == 99
    assert report["checks"]["duplication"]["seed"] == 99


def test_reports_are_deterministic(tmp_path):
    cfg = write_config(
        tmp_path,
        checks=["duplication"],
        samples=2000,
        rho=1.0,
        seed=7,
        tolerances={"duplication": 0.1},
        output={"dir": str(tmp_path / "out")},
    )
    outputs = []
    for _ in range(2):
        assert main(["run", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        report.pop("generated_at")
        outputs.append(json.dumps(report, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_report_does_not_depend_on_the_output_directory(tmp_path):
    """One preset and seed written to two directories: equal reports but for the time stamp."""
    overlay = tmp_path / "overlay.json"
    overlay.write_text(json.dumps({"samples": 5000, "output": {"formats": ["json"]}}))
    reports = []
    for out in ("first", "second/nested"):
        args = ["run", str(overlay), "--preset", "mgf-check", "--seed", "5", "--out", str(tmp_path / out)]
        assert main(args) == 0
        report = json.loads((tmp_path / out / "report.json").read_text())
        assert report["config"]["output"] == {"formats": ["json"]}
        report.pop("generated_at")
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("seed", [None, 5])
def test_seeded_reports_name_the_rng_contract(tmp_path, seed):
    """A report names the keying rule of its samples exactly when the summary names a seed."""
    extra = {} if seed is None else {"seed": seed}
    cfg = write_config(tmp_path, output={"dir": str(tmp_path / "out")}, **extra)
    assert main(["run", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    if seed is None:
        assert "rng_contract" not in report
        assert not any(line.startswith("seed:") for line in summary)
    else:
        assert report["rng_contract"] == RNG_CONTRACT == "sfc64-block-4096-rowmajor-v4"
        assert f"seed: {seed}" in summary


def test_preset_run_with_override(tmp_path):
    """A config file overlays a preset; tiny sample count keeps this fast."""
    cfg = write_config(
        tmp_path,
        checks=["invariance", "z2_condition"],
        grid={"kind": "interval", "n": 128},
        tolerances={"z2_condition": 1e-4},
        output={"dir": str(tmp_path / "out")},
    )
    assert main(["run", str(cfg), "--preset", "prop9-watson"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["grid"]["n"] == 128
    assert report["tolerances_effective"]["z2_condition"] == 1e-4


@pytest.mark.parametrize("preset", ["torus-1d", "torus-2d"])
def test_torus_presets_run_no_eigendecomposition(tmp_path, monkeypatch, preset):
    """A stationary torus kernel's PSD check reads the DFT, and its sampler the
    closed-form factor: the torus presets pass with eigh and eigvalsh disabled."""

    def disabled(*args, **kwargs):
        raise AssertionError("dense eigendecomposition on the torus path")

    monkeypatch.setattr(np.linalg, "eigh", disabled)
    monkeypatch.setattr(np.linalg, "eigvalsh", disabled)
    assert main(["run", "--preset", preset, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert {c["status"] for c in report["checks"].values()} == {"passed"}


def test_torus_run_releases_its_kernel_before_the_check_samples(monkeypatch):
    """The torus check reads row 0 of the run's kernel alone: when its sampling
    loop starts the heap holds one m x m array less than the same check with
    the run's kernel held, and that kernel is the array (m = 1024)."""
    monkeypatch.setenv("INVDECOMP_THREADS", "1")
    cfg = {
        "kernel": {"name": "torus_watson", "params": {"cutoff": 10}},
        "grid": {"kind": "torus", "n": [32, 32]},
        "samples": 1000,
        "seed": 3,
        "checks": ["stationarity", "torus_watson"],
    }
    heaps = []  # the traced heap as each sampling loop starts
    draw = torus.draw_chunks

    def traced(*args):
        heaps.append(tracemalloc.get_traced_memory()[0])
        return draw(*args)

    cli.execute_checks(cfg, DEFAULT_TOLERANCES)  # what a run imports stays out of the heaps
    monkeypatch.setattr(torus, "draw_chunks", traced)
    tracemalloc.start()
    try:
        results, _ = cli.execute_checks(cfg, DEFAULT_TOLERANCES)
        held = cli.build_kernel(cfg)
        spec = torus.fourier_kl(held.matrix[0], held.space, 10)
        report = torus.torus_watson_check(spec, held.space, 1000, 3)
    finally:
        tracemalloc.stop()
    released, kept = heaps
    mm = held.matrix.nbytes
    assert mm == 1024 * 1024 * 8
    assert 0.95 * mm < kept - released < 1.05 * mm
    assert results["torus_watson"]["status"] == "passed"
    assert {k: v for k, v in results["torus_watson"].items() if k in report} == report


def test_mgf_preset_tables(tmp_path):
    cfg = write_config(
        tmp_path,
        checks=["mgf"],
        samples=20000,
        seed=905,
        grid={"kind": "interval", "n": 32},
        output={"dir": str(tmp_path / "out")},
    )
    assert main(["run", str(cfg)]) == 0
    lines = (tmp_path / "out" / "mgf.csv").read_text().splitlines()
    assert lines[0] == "lambda,rho,closed,spectral,rel_gap,mc,mc_rel_gap"
    assert len(lines) == 4  # three pinned (lambda, rho) pairs


@pytest.mark.parametrize(
    "check, overrides, table, header, tag",
    [
        (
            "spectrum",
            {"kernel": {"name": "bridge"}},
            "spectrum.csv",
            "k,lambda,cluster_id,irrep_label",
            "FAIL",  # 16 points are too few for the continuum eigenvalue oracle
        ),
        ("z2_condition", {}, "z2_condition.csv", "n,value,tol", "FAIL"),
        (
            "cumulants",
            {"samples": 2000, "seed": 1, "tolerances": {"cumulants": [0.5, 0.5, 0.5]}},
            "cumulants.csv",
            "order,analytic,mc,gap,tol",
            "PASS",
        ),
        (
            "duplication",
            {"samples": 2000, "seed": 1, "tolerances": {"duplication": 0.1}},
            "duplication.csv",
            "order,analytic_lhs,analytic_rhs,mc_gap,tol",
            "PASS",
        ),
        (
            "quadruplication",
            {
                "kernel": {"name": "sheet_compensated"},
                "grid": {"kind": "interval", "n": [8, 8]},
                "samples": 2000,
                "seed": 1,
                "tolerances": {"quadruplication": 0.1},
            },
            "quadruplication.csv",
            "order,analytic_lhs,analytic_rhs,mc_gap,tol",
            "PASS",
        ),
        (
            "torus_watson",
            {
                "kernel": {"name": "torus_watson"},
                "grid": {"kind": "torus", "n": [4, 4]},
                "samples": 2000,
                "seed": 1,
            },
            "torus_conventions.csv",
            "convention,residual,satisfied",
            "PASS",
        ),
    ],
)
def test_check_table_header_and_headline(tmp_path, capsys, check, overrides, table, header, tag):
    cfg = write_config(
        tmp_path,
        checks=[check],
        output={"dir": str(tmp_path / "out")},
        **{"grid": {"kind": "interval", "n": 16}, **overrides},
    )
    assert main(["run", str(cfg)]) == (0 if tag == "PASS" else 1)
    err = capsys.readouterr().err
    out = tmp_path / "out"
    assert (out / table).read_text().splitlines()[0] == header
    report = json.loads((out / "report.json").read_text())
    assert table in report["tables"]
    line = next(
        x for x in (out / "summary.txt").read_text().splitlines() if x.startswith(f"[{tag}] {check}: ")
    )
    headline = line[len(f"[{tag}] {check}: "):]
    assert headline
    failed_line = f"check failed: {check} — {headline}"
    assert (failed_line in err.splitlines()) == (tag == "FAIL")


_INTERVAL = {"kernel": {"name": "watson"}, "grid": {"kind": "interval", "n": 32}}
_TORUS = {"kernel": {"name": "torus_watson"}, "grid": {"kind": "torus", "n": [16]}}
_MC = {"samples": 2000, "seed": 7}
# a small config the validator accepts for each check
_ONE_CHECK_CONFIGS = {
    "invariance": _INTERVAL,
    "stationarity": _TORUS,
    "decomposition": _INTERVAL,
    "spectrum": _INTERVAL,
    "watson_relation": dict(_INTERVAL, rho=0.5, n_max=4),
    "z2_condition": dict(_INTERVAL, n_max=4),
    "cumulants": dict(_INTERVAL, **_MC),
    "mgf": dict(_INTERVAL, **_MC),
    "duplication": dict(_INTERVAL, **_MC),
    "quadruplication": dict(_MC, kernel={"name": "sheet_compensated"}, grid={"kind": "interval", "n": [8, 8]}),
    "torus_watson": dict(_TORUS, kernel={"name": "torus_watson", "params": {"cutoff": 3}}, **_MC),
}
_JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def _non_json_values(value, path="") -> list[str]:
    """Paths of the values in ``value`` whose exact type is not a builtin JSON type."""
    if type(value) not in _JSON_TYPES:
        return [f"{path}: {type(value).__name__}"]
    if type(value) is dict:
        return [f"{path}/{k!r}: key" for k in value if type(k) is not str] + [
            bad for k, v in value.items() for bad in _non_json_values(v, f"{path}/{k}")
        ]
    if type(value) is list:
        return [bad for i, v in enumerate(value) for bad in _non_json_values(v, f"{path}/{i}")]
    return []


@pytest.mark.parametrize("name", list(CHECKS))
def test_every_check_reports_only_builtin_json_types(name):
    """A report holds only dict, list, str, int, float, bool and None, so
    ``json.dumps`` writes it with no fallback; a numpy scalar fails here."""
    cfg = dict(_ONE_CHECK_CONFIGS[name], name="types", checks=[name])
    assert validate_config(cfg) == []
    results, _ = cli.execute_checks(cfg, resolve_tolerances(cfg, 1.0))
    assert "error" not in results[name]
    assert _non_json_values(results) == []


# --------------------------------------------------------------- tolerances


def test_resolve_tolerances_scale():
    tols = resolve_tolerances({}, 2.0)
    assert tols["invariance"] == 2 * DEFAULT_TOLERANCES["invariance"]
    assert tols["cumulants"] == [2 * x for x in DEFAULT_TOLERANCES["cumulants"]]


def test_resolve_tolerances_user_overrides_then_scale():
    tols = resolve_tolerances({"tolerances": {"z2_condition": 1e-6}}, 10.0)
    assert tols["z2_condition"] == pytest.approx(1e-5)


def test_tol_scale_flag_loosens_failure(tmp_path):
    # z2 on watson at grid 512 fails at 1e-8 but passes when scaled 1000x
    cfg = write_config(
        tmp_path,
        checks=["z2_condition"],
        grid={"kind": "interval", "n": 512},
        output={"dir": str(tmp_path / "out")},
    )
    assert main(["run", str(cfg)]) == 1
    assert main(["run", str(cfg), "--tol-scale", "1000"]) == 0
