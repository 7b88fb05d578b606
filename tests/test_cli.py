"""Command-line runner: config validation, exit codes, reports, presets."""

import contextlib
import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

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
from invdecomp.groups import character_table, project_path
from invdecomp.io import load_kernel
from invdecomp.kernels import Kernel, builtin_kernel, irrep_spectra, make_interval_grid
from invdecomp.sampling import EXP_STREAM, RNG_CONTRACT, duplication_check, quadruplication_check


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
        seed=2**64,
        output={"dir": str(tmp_path / "out")},
    )
    assert main(["run", str(cfg)]) == 2
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


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--tol-scale", "2"]], ids=["seed", "tol-scale"])
def test_run_takes_no_seed_or_tol_scale_option(tmp_path, capsys, flag):
    """The seed and the tolerances are set in the config alone: either flag is argparse's
    usage error, exit 2, before any output directory exists."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, output={"dir": str(out)})
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_output_formats(tmp_path, capsys):
    """``output`` takes ``dir`` alone: a run always writes its report and its tables."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, output={"dir": str(out), "formats": ["json", "csv"]})
    assert main(["run", str(cfg)]) == 2
    assert "config error: output/formats: unknown key (known: dir)" in capsys.readouterr().err
    assert not out.exists()


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


def test_validate_a_two_point_torus_axis_is_the_grids_problem():
    """The default cutoff aliases only on an axis of fewer than 3 points, so with no
    ``kernel.params.cutoff`` the message names ``grid/n``, the key the config has."""
    cfg = {
        "kernel": {"name": "torus_watson"},
        "grid": {"kind": "torus", "n": [2, 8]},
        "checks": ["torus_watson"],
        "seed": 1,
    }
    want = "grid/n: torus_watson needs at least 3 points on every torus axis, not 2"
    assert validate_config(cfg) == [want]


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


def _validator_outputs():
    """``validate_config``'s output, as JSON, for every built-in kernel and
    ``user_matrix`` x grid kind x axis layout x check list (each check alone,
    then all), crossed with every action (absent, reversal, negation, none) and
    ``grid.basis`` (absent, d x d, d + 1 rows), and with every action and
    ``kernel.params`` (a cutoff that aliases on 4-point axes, a path)."""
    actions = [None, "reversal", "negation", "none"]
    variants = [
        *itertools.product(actions, ["absent", "d x d", "wrong size"], [None]),
        *itertools.product(actions, ["absent"], [{"cutoff": 2}, {"path": "k.json"}]),
    ]
    for name, kind, n, checks, (action, basis, params) in itertools.product(
        [*kernels.BUILTINS, "user_matrix"],
        ("interval", "torus"),
        _LAYOUTS.values(),
        [[c] for c in CHECKS] + [list(CHECKS)],
        variants,
    ):
        d = len(n) if isinstance(n, list) else 1
        cfg = {"kernel": {"name": name}, "grid": {"kind": kind, "n": n}, "checks": checks, "seed": 1}
        if action is not None:
            cfg["action"] = {"name": action}
        if basis == "d x d":
            cfg["grid"]["basis"] = (np.eye(d) + np.eye(d, k=-1) / 2).tolist()
        elif basis == "wrong size":
            cfg["grid"]["basis"] = np.eye(d + 1).tolist()
        if params is not None:
            cfg["kernel"]["params"] = params
        yield json.dumps(validate_config(cfg))


def test_every_validator_message_is_pinned():
    """11,520 configs, 854 distinct outputs, one digest: a validator refactor
    must keep every message and its order (the digest of version 0.8.11)."""
    outputs = list(_validator_outputs())
    assert (len(outputs), len(set(outputs))) == (11520, 854)
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == "ebe143ee28ca1bf9900e1266a2de998a0549cf14401d028b221baa9da47c3b8f"


@pytest.mark.parametrize(
    "overrides",
    [
        {"group": {"kind": "cyclic", "factors": [2]}},
        {"output": {"formats": ["binary"]}},  # an unknown key of output, as group is of the config
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


_TORUS_4X4 = {"kernel": {"name": "torus_watson"}, "grid": {"kind": "torus", "n": [4, 4]}}


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {
                "kernel": {"name": "sheet_compensated"},
                "grid": {"n": [8, 8]},
                "checks": ["z2_condition"],
            },
            "checks: z2_condition needs a 2-element group, not order 4",
        ),
        (
            {"action": {"name": "none"}, "checks": ["decomposition"]},
            "checks: ['decomposition'] need a bound group action (action is 'none')",
        ),
        ({"checks": ["torus_watson"], "seed": 1}, "checks: ['torus_watson'] need a torus grid"),
        (
            dict(_TORUS_4X4, action={"name": "reversal"}, checks=["stationarity"]),
            "action/name: a torus grid takes ['negation'], not 'reversal'",
        ),
        (
            {"action": {"name": "negation"}, "checks": ["invariance"]},
            "action/name: an interval grid takes ['reversal', 'none'], not 'negation'",
        ),
    ],
    ids=[
        "group-order",
        "action-none",
        "torus-check-on-interval",
        "reversal-on-torus",
        "negation-on-interval",
    ],
)
def test_validate_and_run_reject_what_the_builtin_space_cannot_serve(
    tmp_path, capsys, overrides, message
):
    """validate and run reject a built-in kernel's config with the one same message."""
    cfg = write_config(tmp_path, output={"dir": str(tmp_path / "out")}, **overrides)
    assert main(["validate", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_grid_too_large_to_index_exits_2(tmp_path, capsys, command):
    """The shape pass takes any integer n >= 2; building the space refuses this one."""
    cfg = write_config(tmp_path, grid={"n": 2**64 - 1}, output={"dir": str(tmp_path / "out")})
    assert main([command, str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: grid/n: cannot build the grid: ")
    assert not (tmp_path / "out").exists()


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
    """Each rejection names the key the config has: a default cutoff that aliases, which
    no ``kernel.params`` sets, is the grid's problem."""
    cfg = write_config(tmp_path, **overrides)
    assert main(["validate", str(cfg)]) == 2
    default = overrides == _torus_config(n=[2, 16])
    assert ("grid/n: torus_watson" if default else "kernel/params") in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "key, value, readers",
    [
        ("rho", 0.3, "watson_relation, cumulants, duplication, quadruplication"),
        ("n_max", 3, "watson_relation, z2_condition"),
        ("samples", 5000, "cumulants, mgf, duplication, quadruplication, torus_watson"),
    ],
    ids=["rho", "n_max", "samples"],
)
def test_a_top_level_key_no_requested_check_reads_exits_2(
    tmp_path, capsys, command, key, value, readers
):
    """``rho``, ``n_max`` and ``samples`` are refused, as a kernel param is, when no requested
    check reads them: before any check runs or any output exists, with the key and its
    readers named.  The seed stays accepted, since the report records it."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, checks=["spectrum"], seed=1, output={"dir": str(out)}, **{key: value})
    assert main([command, str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {key}: only the {readers} checks read it\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_tolerance_whose_check_does_not_run_exits_2(tmp_path, capsys, command):
    """A tolerance is refused, as a top-level key is, when its check is neither requested
    nor the gate of a requested one: before any check runs or any output exists, with the
    check that reads it named."""
    out = tmp_path / "out"
    tolerances = {"mgf": 0.5, "duplication": 0.2}
    cfg = write_config(tmp_path, checks=["spectrum"], tolerances=tolerances, output={"dir": str(out)})
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: tolerances/mgf: only the mgf check reads it")
    assert "tolerances/duplication: only the duplication check reads it" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "overrides, gate",
    [
        (
            {"checks": ["watson_relation"], "tolerances": {"invariance": 1e-9, "watson_relation": 1e-2}},
            "invariance",
        ),
        ({**_torus_config(checks=("torus_watson",)), "tolerances": {"stationarity": 1e-9}}, "stationarity"),
    ],
    ids=["invariance-gates-watson_relation", "stationarity-gates-torus_watson"],
)
def test_a_gates_tolerance_stays_accepted_with_the_check_it_gates(tmp_path, command, overrides, gate):
    """A gate runs with the check it gates, whose guard reads the gate's tolerance too, so
    that tolerance is taken when only the gated check is requested."""
    cfg = write_config(tmp_path, output={"dir": str(tmp_path / "out")}, **overrides)
    assert main([command, str(cfg)]) == 0
    if command == "run":
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["tolerances_effective"][gate] == 1e-9
        assert report["checks"][gate]["status"] == "passed"


@pytest.mark.parametrize("command", ["validate", "run"])
def test_more_mgf_pairs_than_the_streams_hold_exit_2(tmp_path, capsys, command):
    """Pair i draws on streams 2i and 2i + 1, which ``pair_functional`` keeps below
    ``EXP_STREAM``: 16,384 pairs pass the shape pass, and one more is refused before any
    check runs."""
    most = _mgf_config([[0.5, 0.5]] * (EXP_STREAM // 2))
    assert main(["validate", str(write_config(tmp_path, **most))]) == 0
    capsys.readouterr()
    too_many = _mgf_config([[0.5, 0.5]] * (EXP_STREAM // 2 + 1))
    cfg = write_config(tmp_path, output={"dir": str(tmp_path / "out")}, **too_many)
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: kernel/params/mgf_pairs: expected length 1 to 16384, got 16385\n"
    assert not (tmp_path / "out").exists()


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


def test_missing_config_file(capsys):
    assert main(["run", "/nonexistent/cfg.json"]) == 2


def test_run_without_config_or_preset_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run"]) == 2
    assert capsys.readouterr().err == "config error: give a config file or --preset\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sub", ["sub", ""], ids=["under-a-file", "a-file"])
def test_run_refuses_an_output_directory_it_cannot_make_before_any_check(tmp_path, capsys, sub):
    """A regular file where the directory or an ancestor should be: exit 2, no check runs,
    no summary, nothing made."""
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker / sub if sub else blocker
    assert main(["run", "--preset", "kl-watson", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: output/dir: {out}: {blocker} is not a writable directory\n"
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept"


def test_validate_refuses_the_output_directory_run_refuses(tmp_path, capsys):
    """``validate`` judges ``output.dir`` as ``run`` does: the same message, exit 2."""
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    cfg = write_config(tmp_path, output={"dir": str(blocker / "sub")})
    want = f"config error: output/dir: {blocker / 'sub'}: {blocker} is not a writable directory\n"
    for command in (["validate", str(cfg)], ["run", str(cfg)]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", want)
    assert sorted(tmp_path.iterdir()) == sorted([blocker, cfg])


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

    def counting(kernel):
        calls.append(kernel.name)
        return irrep_spectra(kernel)

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


def test_a_check_that_cannot_allocate_fails_and_the_run_goes_on(tmp_path, capsys, monkeypatch):
    """numpy's failed allocation is a ``MemoryError``; raised here, never allocated for real."""
    message = "Unable to allocate 8.00 TiB for an array with shape (1048576, 1048576)"

    def cannot_allocate(ctx, tols, cfg):
        raise MemoryError(message)

    monkeypatch.setitem(CHECKS, "decomposition", replace(CHECKS["decomposition"], run=cannot_allocate))
    assert main(["run", "--preset", "kl-watson", "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"check failed: decomposition — {message}\n"
    checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
    assert checks["decomposition"] == {"status": "failed", "error": message}
    assert checks["spectrum"]["status"] == "passed"  # the next check still runs


def test_spectrum_compares_only_the_oracle_rows_the_grid_has(tmp_path, capsys):
    """16 watson points hold 8 oracle pairs, not the 10 a larger grid shows."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, grid={"kind": "interval", "n": 16}, checks=["spectrum"])
    assert main(["run", str(cfg), "--out", str(out)]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    rows = report["checks"]["spectrum"]["oracle"]["rows"]
    assert 0 < len(rows) <= 8


@pytest.mark.parametrize("preset", [None, "kl-watson"], ids=["config", "preset-overlay"])
def test_spectrum_tolerance_judges_the_canonical_split(tmp_path, preset):
    """At m = 1024 watson's eigenvectors leak about 1e-7 under reversal: a spectrum
    tolerance of 1e-6 passes both the eigenspace invariance and the canonical split,
    set in a config of its own or in one that overlays a preset."""
    out = tmp_path / "out"
    overrides = {"grid": {"kind": "interval", "n": 1024}, "tolerances": {"spectrum": 1e-6}}
    if preset is None:
        cfg, flags = write_config(tmp_path, checks=["spectrum"], **overrides), []
    else:
        cfg, flags = tmp_path / "overlay.json", ["--preset", preset]
        cfg.write_text(json.dumps(overrides))
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


def _circle_z3_file(kernel_file):
    """The stationary circle kernel on 12 points, with Z3 rotating them by 4."""
    u = np.arange(12) / 12
    lag = np.mod(u[:, None] - u[None, :], 1.0)
    return kernel_file((lag - 0.5) ** 2 / 2 - 1.0 / 24, group=_z3_rotation(12))


def test_decomposition_pairs_complex_characters_with_their_conjugates(
    tmp_path, kernel_file
):
    """An invariant kernel splits into the (pi, conj pi) blocks; with the
    complex characters of Z3 these are not the (pi, pi) blocks."""
    path = _circle_z3_file(kernel_file)
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


def _moved_z3(kernel_file):
    a = np.random.default_rng(3).normal(size=(12, 12))
    return load_kernel(kernel_file(a @ a.T / 12, group=_z3_rotation(12)))


def _moved_z2(kernel_file):
    a = np.random.default_rng(11).normal(size=(15, 15))
    return load_kernel(kernel_file(a @ a.T / 15))


def test_decomposition_fails_a_kernel_the_group_moves(kernel_file):
    kernel = _moved_z3(kernel_file)
    ctx = {"kernel": kernel}
    rep = CHECKS["decomposition"].run(ctx, DEFAULT_TOLERANCES, {})
    assert not rep["ok"]
    assert rep["max_cross_projection"] > 1e-3


def _decomposition_per_pair(kernel, table, tol):
    """The decomposition check's report as one ``project_kernel`` call per irrep pair
    computes it, each block in its own frame."""
    total = np.zeros(kernel.matrix.shape, float if table.real_valued() else complex)
    shares, cross = {}, 0.0
    for p in table:
        for q in table:
            mat = kernels.project_kernel(kernel, p, q)
            if np.allclose(q.values, np.conj(p.values)):
                total += mat
                shares[p.label] = float(np.sum(np.diag(mat).real * kernel.space.weights))
            else:
                cross = max(cross, float(np.max(np.abs(mat))))
    sum_dev = float(np.max(np.abs(total - kernel.matrix)))
    return {
        "ok": bool(sum_dev <= tol and cross <= tol),
        "sum_deviation": sum_dev,
        "max_cross_projection": cross,
        "tolerance": tol,
        "component_trace": shares,
    }


def _circle_z3(kernel_file):
    return load_kernel(_circle_z3_file(kernel_file))


@pytest.mark.parametrize(
    "build",
    [
        lambda _: builtin_kernel("watson", make_interval_grid(64)),
        lambda _: builtin_kernel("sheet_compensated", cli.build_space({"grid": {"n": [8, 8]}})),
        _circle_z3,
        _moved_z3,
        _moved_z2,
    ],
    ids=["watson64-z2", "sheet8x8-z2xz2", "circle12-z3-complex", "moved-z3", "moved-z2"],
)
def test_decomposition_report_is_bitwise_the_per_pair_projections(kernel_file, build):
    """Projecting each irrep's rows once and summing the blocks transposed gives,
    key for key and bitwise, the report of one ``project_kernel`` call per pair."""
    kernel = build(kernel_file)
    table = character_table(kernel.space.action.group)
    rep = CHECKS["decomposition"].run({"kernel": kernel}, DEFAULT_TOLERANCES, {})
    want = _decomposition_per_pair(kernel, table, DEFAULT_TOLERANCES["decomposition"])
    assert json.dumps(rep) == json.dumps(want)
    moved = build in (_moved_z3, _moved_z2)
    assert (rep["max_cross_projection"] > 1e-3) == moved and rep["ok"] != moved


# The whole-matrix passes that the streamed ones replaced, kept as their oracles: each reads
# ``kernel.matrix`` and holds every m x m array at once.


def _whole_invariance_dev(kernel):
    k, action, dev = kernel.matrix, kernel.space.action, 0.0
    for g in range(action.group.order):
        if g != action.group.identity:
            p = action.perm[g]
            dev = max(dev, float(np.max(np.abs(k[np.ix_(p, p)] - k))))
    return dev


def _whole_weighted_symmetric(kernel):
    rw = np.sqrt(kernel.space.weights)
    out = rw[:, None] * kernel.matrix
    out *= rw[None, :]
    return out


def _whole_irrep_spectra(kernel, table):
    action = kernel.space.action
    perm, order = action.perm, action.group.order
    rep = perm.min(axis=0)
    pts = np.argsort(rep, kind="stable")
    _, starts, sizes = np.unique(rep[pts], return_index=True, return_counts=True)
    pos = np.empty(kernel.size, dtype=np.intp)
    orbits = []
    for size in np.flatnonzero(np.bincount(sizes)):
        idx = pts[starts[sizes == size][:, None] + np.arange(size)]
        pos[idx] = np.arange(size)
        orbits.append(idx)
    width = orbits[-1].shape[1]
    s = _whole_weighted_symmetric(kernel)
    out = {}
    for p in table:
        coef = p.values.real * (p.dim / order)
        rows, vals = [], []
        for idx in orbits:
            n, size = idx.shape
            local = np.zeros((n, size, size))
            for g in range(order):
                local[np.arange(n)[:, None], pos[perm[g][idx]], np.arange(size)] += coef[g]
            lam, vec = np.linalg.eigh(local)
            keep = lam > 0.5
            pad = ((0, 0), (0, width - size))
            vals.append(np.pad(vec.transpose(0, 2, 1)[keep], pad))
            rows.append(np.pad(np.broadcast_to(idx[:, None, :], (n, size, size))[keep], pad))
        rows, vals = np.concatenate(rows), np.concatenate(vals)
        su = sum(np.take(s, rows[:, a], axis=1) * vals[:, a] for a in range(width))
        block = sum(vals[:, a, None] * su[rows[:, a]] for a in range(width))
        out[p.label] = np.linalg.eigvalsh(block)
    return out


def _whole_decomposition(kernel, table, tol):
    action = kernel.space.action
    total = np.zeros(kernel.matrix.shape, float if table.real_valued() else complex)
    shares, cross = {}, 0.0
    for p in table:
        rows = project_path(kernel.matrix.T, action, p).T
        for q in table:
            block = project_path(rows, action, q)
            if np.allclose(q.values, np.conj(p.values)):
                total += block
                shares[p.label] = float(np.sum(np.diag(block).real * kernel.space.weights))
            else:
                cross = max(cross, float(np.max(np.abs(block, out=block).real)))
    np.subtract(total, kernel.matrix, out=total)
    sum_dev = float(np.max(np.abs(total, out=total).real))
    return {
        "ok": bool(sum_dev <= tol and cross <= tol),
        "sum_deviation": sum_dev,
        "max_cross_projection": cross,
        "tolerance": tol,
        "component_trace": shares,
    }


def _moved_z3_300(kernel_file):
    a = np.random.default_rng(5).normal(size=(300, 300))
    return load_kernel(kernel_file(a @ a.T / 300, group=_z3_rotation(300)))


def _torus(n):
    return torus.torus_watson(torus.torus_grid(torus.Lattice(np.eye(2)), [n, n]))


@pytest.mark.parametrize(
    "build",
    [
        lambda _: builtin_kernel("watson", make_interval_grid(256)),
        lambda _: builtin_kernel("watson", make_interval_grid(1000)),
        lambda _: builtin_kernel("sheet_compensated", cli.build_space({"grid": {"n": [12, 12]}})),
        lambda _: _torus(6),
        lambda _: builtin_kernel("bridge", make_interval_grid(64)),
        lambda _: builtin_kernel("bridge", make_interval_grid(300)),
        _moved_z2,
        _circle_z3,
        _moved_z3_300,
    ],
    ids=[
        "lag-watson256",
        "lag-watson1000",
        "lag-sheet12x12-z2xz2",
        "lag-torus6x6",
        "dense-bridge64",
        "dense-bridge300",
        "user-matrix-moved-z2",
        "user-matrix-circle12-z3",
        "user-matrix-moved-z3-300",
    ],
)
def test_streamed_analytic_passes_are_the_whole_matrix_passes_bitwise(kernel_file, build):
    """``invariance_dev``, ``weighted_symmetric``, ``irrep_spectra`` and the decomposition
    report read the kernel in row blocks and are bitwise the passes over the whole matrix,
    on lag and dense kernels, real and complex characters, one block of rows or several
    with a partial last one (1000 and 300 points), and kernels the group moves.  No
    streamed pass builds a lag kernel's matrix."""
    kernel = build(kernel_file)
    table = character_table(kernel.space.action.group)
    dev = kernels.Kernel.invariance_dev.func(kernel)
    sym = kernels.weighted_symmetric(kernel)
    spectra = irrep_spectra(kernel) if table.real_valued() else None
    rep = CHECKS["decomposition"].run({"kernel": kernel}, DEFAULT_TOLERANCES, {})
    assert "matrix" not in vars(kernel) or kernel.lags is None
    assert dev == _whole_invariance_dev(kernel)
    assert np.array_equal(sym, _whole_weighted_symmetric(kernel))
    if spectra is not None:
        want = _whole_irrep_spectra(kernel, table)
        assert list(spectra) == list(want)
        assert all(np.array_equal(spectra[label], want[label]) for label in want)
    want = _whole_decomposition(kernel, table, DEFAULT_TOLERANCES["decomposition"])
    assert json.dumps(rep) == json.dumps(want)


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


def test_spectrum_judges_a_kernel_file_named_after_a_builtin_by_no_oracle(tmp_path, kernel_file):
    """The continuum oracle follows the config's kernel name, not the free-text name in a
    kernel file's header: watson on 16 points, in a file that calls itself ``watson``, is a
    ``user_matrix`` kernel, whose spectrum has no continuum to match."""
    path = _watson16_file(kernel_file, stem="watson")
    assert json.loads(path.read_text())["name"] == "watson"
    cfg = _user_matrix_config(tmp_path, path, action={"name": "none"}, checks=["spectrum"])
    assert main(["run", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "oracle" not in report["checks"]["spectrum"]


def test_user_matrix_action_none_takes_one_psd_check(tmp_path, monkeypatch, kernel_file):
    """The bridge kernel is not circulant, so its PSD check is a dense solve for
    eigenvalues alone (``kernels._syevd``); the file's action is dropped before the
    kernel is built, so the load makes one."""
    path = kernel_file(builtin_kernel("bridge", make_interval_grid(16)).matrix)
    cfg_path = _user_matrix_config(tmp_path, path, action={"name": "none"}, checks=["spectrum"])
    cfg = json.loads(cfg_path.read_text())
    calls = []
    syevd = kernels._syevd

    def counted(s, vectors):
        calls.append((np.shape(s), vectors))
        return syevd(s, vectors)

    monkeypatch.setattr(kernels, "_syevd", counted)
    kernel = cli.build_kernel(cfg)
    assert kernel.space.action is None
    assert calls == [((16, 16), False)]


def _watson32_moved_by(kernel_file, dev):
    k = builtin_kernel("watson", make_interval_grid(32)).matrix.copy()
    k[0, 0] += dev
    return kernel_file(k)


@pytest.mark.parametrize(
    "invariance, code, statuses",
    [(1e-8, 0, ["passed"] * 3), (None, 1, ["failed", "skipped", "skipped"])],
    ids=["configured-1e-8", "default-1e-10"],
)
def test_symmetry_guards_judge_by_the_runs_invariance_tolerance(
    tmp_path, kernel_file, invariance, code, statuses
):
    """A kernel the reversal moves by 5e-9 passes an invariance gate of 1e-8, and then
    watson_relation and z2_condition guard with the same 1e-8, not a fixed 1e-9."""
    tolerances = {"watson_relation": 1e-2, "z2_condition": 1e-3}  # what 32 points can meet
    if invariance is not None:
        tolerances["invariance"] = invariance
    cfg = _user_matrix_config(
        tmp_path,
        _watson32_moved_by(kernel_file, 5e-9),
        grid={"kind": "interval", "n": 32},
        checks=["invariance", "watson_relation", "z2_condition"],
        tolerances=tolerances,
    )
    assert main(["run", str(cfg)]) == code
    checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
    names = ("invariance", "watson_relation", "z2_condition")
    assert [checks[name]["status"] for name in names] == statuses
    assert checks["invariance"]["deviation"] == pytest.approx(5e-9, rel=1e-6)


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
    overlay.write_text(json.dumps({"samples": 5000, "seed": 5, "output": {}}))
    reports = []
    for out in ("first", "second/nested"):
        assert main(["run", str(overlay), "--preset", "mgf-check", "--out", str(tmp_path / out)]) == 0
        report = json.loads((tmp_path / out / "report.json").read_text())
        assert report["config"]["output"] == {}
        report.pop("generated_at")
        reports.append(report)
    assert reports[0] == reports[1]


def _fresh_run(code: str, **env) -> str:
    """Standard output of ``code`` in a new interpreter that imports this package, with one
    sampling worker and the given environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, INVDECOMP_THREADS="1", **env)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return out.stdout


@pytest.mark.parametrize("preset", ["kl-watson", "watson-duplication"])
def test_report_does_not_depend_on_the_blas_thread_count(tmp_path, preset):
    """A preset run in processes started at one and at two OpenBLAS threads writes the same
    report and tables: the run solves at one thread (``cli.one_blas_thread``), and the
    spectrum check's eigenvectors and the tied-down kernel's eigenvalues, which the reports
    read, depend on the thread count."""
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        code = f"import invdecomp.cli as cli; cli.main(['run', '--preset', {preset!r}, '--out', {str(out)!r}])"
        _fresh_run(code, OPENBLAS_NUM_THREADS=threads)
        report = json.loads((out / "report.json").read_text())
        report.pop("generated_at")
        tables = {f.name: f.read_text() for f in sorted(out.glob("*.csv"))}
        digests.append((json.dumps(report, sort_keys=True), tables))
    assert digests[0] == digests[1]


def test_one_blas_thread_pins_the_count_and_restores_it(capsys, monkeypatch):
    """The run's block sees one OpenBLAS thread and the caller's count comes back, also when
    the block raises; without the library's thread calls the count is left alone and stderr
    says so."""
    lib = kernels._openblas()
    if lib is not None:
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        threads = get()
        try:
            put(2)
            with cli.one_blas_thread():
                assert get() == 1
            assert get() == 2
            with pytest.raises(KeyError), cli.one_blas_thread():
                raise KeyError
            assert get() == 2
        finally:
            put(threads)
        assert capsys.readouterr().err == ""
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    with cli.one_blas_thread():
        pass
    assert capsys.readouterr().err.startswith("note: the BLAS thread count cannot be set")


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
    monkeypatch.setattr(kernels, "_syevd", disabled)
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
        report = torus.torus_watson_check(torus.assemble_kernel(spec), 1000, 3)
    finally:
        tracemalloc.stop()
    released, kept = heaps
    mm = held.matrix.nbytes
    assert mm == 1024 * 1024 * 8
    assert 0.95 * mm < kept - released < 1.05 * mm
    assert results["torus_watson"]["status"] == "passed"
    assert {k: v for k, v in results["torus_watson"].items() if k in report} == report


def test_torus_run_holds_no_m_by_m_array(tmp_path, monkeypatch):
    """An in-process run of the benchmark's torus-2d config (32 x 32, cutoff 10), 2,000
    samples: the run's kernel and the check's truncation keep their m lags alone, so no
    torus kernel builds its matrix and the traced heap peaks below one m x m matrix
    (15.3 MiB when both were m x m arrays)."""
    monkeypatch.setenv("INVDECOMP_THREADS", "1")
    cfg = write_config(
        tmp_path,
        kernel={"name": "torus_watson", "params": {"cutoff": 10}},
        grid={"kind": "torus", "n": [32, 32]},
        samples=2000,
        seed=31,
        checks=["stationarity", "torus_watson"],
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "warm")]) == 0  # imports and caches
    built = []
    post_init = Kernel.__post_init__

    def kept(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(Kernel, "__post_init__", kept)
    tracemalloc.start()
    try:
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    m = 32 * 32
    assert [k.name for k in built] == [kernels.TORUS_KERNEL, "torus_fourier"]
    assert all("matrix" not in vars(k) for k in built)
    assert peak < m * m * 8


def test_analytic_run_builds_no_kernel_matrix(tmp_path, monkeypatch):
    """An in-process run of the benchmark's analytic-1d config (watson on 1,024 points, every
    analytic check): each check reads the kernel a block of rows at a time, so the lag kernel
    never builds its matrix, and the traced heap peaks in the spectrum check's in-place solve,
    which holds S and dsyevd's workspace and no copy of S (40.1 MiB when the decomposition
    check held K and four m x m temporaries)."""
    checks = ["invariance", "decomposition", "spectrum", "watson_relation", "z2_condition"]
    cfg = write_config(
        tmp_path,
        kernel={"name": "watson"},
        grid={"kind": "interval", "n": 1024},
        rho=0.5,
        n_max=6,
        checks=checks,
        tolerances={"z2_condition": 1e-6},
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "warm")]) == 1  # imports and caches
    built = []
    post_init = Kernel.__post_init__

    def kept(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(Kernel, "__post_init__", kept)
    tracemalloc.start()
    try:
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1  # the spectrum check fails on its eigenvector residuals at m = 1024
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    status = {name: c["status"] for name, c in report["checks"].items()}
    assert status == {name: "failed" if name == "spectrum" else "passed" for name in checks}
    assert [k.name for k in built] == ["watson"] and "matrix" not in vars(built[0])
    m = 1024
    # S, and the workspace dsyevd's query asks for with eigenvectors: LAPACK's minimum,
    # 2 m^2 + 6 m + 1 doubles and 5 m + 3 integers (numpy's fallback: its V and then the
    # basis, for its own buffers are not traced); 512 KiB for all the run holds besides
    work = 2 * m * m + 6 * m + 1 + 5 * m + 3 if kernels._openblas() is not None else 2 * m * m
    assert peak < (m * m + work) * 8 + (1 << 19)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS and VmHWM")
def test_analytic_run_peak_rss_stays_below_four_matrices(tmp_path):
    """The analytic-1d config in a new process: its resident peak (VmHWM) rises above the
    resident size after import by less than four m x m matrices, 32 MiB at m = 1024.  The
    in-place solve holds S and dsyevd's workspace, three matrices; it read about 28 MiB, and
    numpy's ``eigh``, which also held a copy of S and returned V beside it, about 44 MiB."""
    cfg = write_config(
        tmp_path,
        kernel={"name": "watson"},
        grid={"kind": "interval", "n": 1024},
        rho=0.5,
        n_max=6,
        checks=["invariance", "decomposition", "spectrum", "watson_relation", "z2_condition"],
        tolerances={"z2_condition": 1e-6},
    )
    code = f"""
import contextlib, io
import invdecomp.cli as cli

def kib(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(key + ":"))

rss = kib("VmRSS")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}])
print(code, kib("VmHWM") - rss)
"""
    code, rise = map(int, _fresh_run(code, OPENBLAS_NUM_THREADS="1").split())
    assert code == 1  # the spectrum check fails on its eigenvector residuals at m = 1024
    m = 1024
    assert rise * 1024 < 4 * m * m * 8


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
    results, _ = cli.execute_checks(cfg, resolve_tolerances(cfg))
    assert "error" not in results[name]
    assert _non_json_values(results) == []


@pytest.mark.parametrize(
    "preset, facts",
    [
        ("kl-bridge", ["eigvalsh(256x256)", "dense(256)", "matrix", "eigh(256x256)"]),
        ("torus-2d", ["dft(16x16)", "dft(16x16)", "fourier(axes 6x11, chunk 256)"]),
    ],
)
def test_a_recorded_run_lists_its_path_and_writes_what_it_writes_unrecorded(
    tmp_path, capsys, preset, facts
):
    """Inside ``kernels.recording()`` a run lists its eigensolves, spectrum paths, m x m
    matrices and torus factors in the order it takes them; its report (but for the time
    stamp), tables, summary, stdout and stderr are those of the same run outside one."""
    outputs = []
    for recorded in (False, True):
        out = tmp_path / str(recorded)
        with kernels.recording() if recorded else contextlib.nullcontext() as got:
            assert main(["run", "--preset", preset, "--out", str(out)]) == 0
        files = {f.name: f.read_bytes().split(b"\n") for f in sorted(out.iterdir())}
        files["report.json"] = [line for line in files["report.json"] if b'"generated_at"' not in line]
        outputs.append((files, capsys.readouterr()))
    assert got == facts
    assert outputs[0] == outputs[1]


def test_only_a_recording_builds_a_torus_factors_axes():
    """A fact is formatted only inside a recording: outside one, ``fourier_factor`` leaves
    the factor's ``_axes`` unbuilt.  An inner recording lists its own facts alone."""
    kernel = torus.torus_watson(torus.torus_grid(torus.Lattice(np.eye(2)), 16))
    assert "_axes" not in vars(torus.fourier_factor(kernel))
    with kernels.recording() as outer:
        with kernels.recording() as inner:
            factor = torus.fourier_factor(kernel)
        kernel.irrep_spectra
    assert "_axes" in vars(factor)
    assert inner == ["fourier(axes 9x16, chunk 256)"]
    assert outer[0] == "irrep_spectra"


def test_resolve_tolerances_user_overrides_then_scale():
    """A config's tolerances replace the defaults they name, as floats; the rest stay."""
    tols = resolve_tolerances({"tolerances": {"z2_condition": 1e-6, "cumulants": [1, 2, 3]}})
    assert tols == {**DEFAULT_TOLERANCES, "z2_condition": 1e-6, "cumulants": [1.0, 2.0, 3.0]}
    assert type(tols["cumulants"][0]) is float
