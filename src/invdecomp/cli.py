"""Experiment runner: JSON configs in, reports out.

``invdecomp run`` executes a list of named checks against one kernel, in
dependency order (a failed gate skips its dependents), and writes
``report.json``, per-check CSV tables, and ``summary.txt`` into the output
directory.  Exit code 0 means every executed check passed, 1 means some
check failed (one that cannot allocate included), 2 means the configuration
itself was rejected, its output directory included, before any check ran.

``CHECKS`` is the one place to add a check: its record declares the run
function, the gate, what the config must provide, the default tolerances,
the summary headline and the CSV table.  Validation (each key's type, range
and nesting in ``CONFIG_FIELDS``, then what each check needs of the kernel,
grid and group), the runner and the report writers all read the records.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import invdecomp.io as iio
from invdecomp import __version__
from invdecomp.cumulants import (
    analytic_cumulants,
    mgf_watson,
    watson_relation_check,
    z2_condition_check,
)
from invdecomp.kernels import (
    BUILTINS,
    TORUS_KERNEL,
    Kernel,
    KernelError,
    _openblas,
    builtin_kernel,
    check_invariance,
    decomposition_check,
    law_kernel,
    make_interval_grid,
    make_product_grid,
)
from invdecomp.sampling import (
    EXP_STREAM,
    LAW_DEFAULTS,
    RNG_CONTRACT,
    kstat,
    law_check,
    pair_functional,
    kstat_variances,
    null_ks_critical,
)
from invdecomp.spectral import (
    DecompositionError,
    canonical_decomposition,
    check_eigenspace_invariance,
    SPECTRUM_CSV_HEADER,
    eigendecompose,
    spectrum_rows,
)
from invdecomp.torus import (
    Lattice,
    TorusGrid,
    _basis_quadratics,
    assemble_kernel,
    fourier_kl,
    torus_grid,
    torus_watson,
    torus_watson_check,
)


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Check:
    """Everything the runner, the validator and the reports know of a check.

    ``run(ctx, tols, cfg)`` returns a JSON-ready report with an ``ok`` flag;
    ``headline(report)`` is its one-line summary and ``rows(report, ctx)``
    the cells of its CSV table, if it has one.  The flags name what the
    config must provide; an in-law check's grid dimension is its place in
    ``sampling.LAW_DEFAULTS``, which also names its kernel through
    ``kernels.law_kernel``.  Every check runs on the run's one kernel,
    ``ctx["kernel"]``; the last, ``torus_watson``, releases it.
    """

    run: Callable[[dict, dict, dict], dict]
    tolerances: dict  # default value of each tolerance key the check owns
    headline: Callable[[dict], str]
    gate: Optional[str] = None  # check that must pass first
    seed: bool = False  # Monte Carlo: the config must give a seed
    action: bool = False  # needs the grid's group action bound
    order: Optional[int] = None  # needs a bound group of exactly this order
    real: bool = False  # needs a bound group with real-valued characters
    torus: bool = False  # needs a torus grid
    csv: Optional[str] = None  # table file name
    header: str = ""
    rows: Optional[Callable[[dict, dict], list]] = None


def _grid_axes(cfg: dict) -> list[int]:
    n = cfg.get("grid", {}).get("n", 256)
    return [int(n)] if isinstance(n, int) else [int(x) for x in n]


def _torus_cutoff(cfg: dict) -> int:
    """The torus_watson cutoff: ``kernel.params.cutoff``, else the largest below Nyquist."""
    default = max(1, (min(_grid_axes(cfg)) - 1) // 2)
    return int(cfg["kernel"].get("params", {}).get("cutoff", default))


# ---------------------------------------------------------------------------
# individual checks; each returns a JSON-ready dict with an "ok" flag


def _run_invariance(ctx, tols, cfg):
    ok, dev = check_invariance(ctx["kernel"], tol=tols["invariance"])
    return {"ok": bool(ok), "deviation": dev, "tolerance": tols["invariance"]}


def _run_stationarity(ctx, tols, cfg):
    spread = ctx["kernel"].stationarity_spread
    tol = tols["stationarity"]
    return {"ok": bool(spread <= tol), "spread": spread, "tolerance": tol}


def _run_decomposition(ctx, tols, cfg):
    return decomposition_check(ctx["kernel"], tols["decomposition"])


# both symmetry checks guard with the tolerance that their invariance gate judged
def _run_watson_relation(ctx, tols, cfg):
    rho, n_max = float(cfg.get("rho", 1.0)), int(cfg.get("n_max", 6))
    return watson_relation_check(ctx["kernel"], rho, n_max, tols["watson_relation"], tols["invariance"])


def _run_z2(ctx, tols, cfg):
    n_max = int(cfg.get("n_max", 6))
    return z2_condition_check(ctx["kernel"], n_max, tols["z2_condition"], tols["invariance"])


_CUMULANT_KEYS = ("order", "analytic", "mc", "gap", "tolerance")
_MGF_KEYS = ("lambda", "rho", "closed_form", "spectral", "rel_gap", "mc", "mc_rel_gap")


def _run_cumulants(ctx, tols, cfg):
    kernel = ctx["kernel"]
    rho = float(cfg.get("rho", 1.0))
    count = int(cfg.get("samples", 100_000))
    seed = int(cfg["seed"])
    ana = analytic_cumulants(kernel, rho, 8)
    j = pair_functional(kernel, rho, count, seed, streams=(0, 1))
    mc = [kstat(j, n) for n in (1, 2, 3)]
    noise = 5.0 * np.sqrt(kstat_variances(ana, count))
    rel = tols["cumulants"]
    rows = []
    for i in range(3):
        tol_i = max(rel[i] * abs(ana[i]), float(noise[i]))
        gap = abs(mc[i] - float(ana[i]))
        rows.append(dict(zip(_CUMULANT_KEYS, (i + 1, float(ana[i]), mc[i], gap, tol_i))))
    ok = all(o["gap"] <= o["tolerance"] for o in rows)
    return {"ok": ok, "rho": rho, "count": count, "seed": seed, "orders": rows}


def _run_mgf(ctx, tols, cfg):
    kernel = ctx["kernel"]
    count = int(cfg.get("samples", 100_000))
    seed = int(cfg["seed"])
    pairs = cfg["kernel"].get("params", {}).get(
        "mgf_pairs", [[0.5, 0.5], [1.0, 0.2], [0.3, 0.9]]
    )
    rel_tol = tols["mgf"]
    mc_tol = tols["mgf_mc"]
    rows = []
    for i, (lam, rho) in enumerate(pairs):
        closed, spectral = mgf_watson(float(lam), float(rho))
        rel = abs(closed - spectral) / abs(closed)
        # the closed form is for E[exp(lambda^2 * J)]; MC must match that exponent
        j = pair_functional(kernel, float(rho), count, seed, streams=(2 * i, 2 * i + 1))
        mc = float(np.mean(np.exp(float(lam) ** 2 * j)))
        mc_rel = abs(mc - spectral) / abs(spectral)
        row = (float(lam), float(rho), closed, spectral, rel, mc, mc_rel)
        rows.append(dict(zip(_MGF_KEYS, row)))
    return {
        "ok": all(p["rel_gap"] <= rel_tol and p["mc_rel_gap"] <= mc_tol for p in rows),
        "count": count,
        "seed": seed,
        "tolerance": rel_tol,
        "mc_tolerance": mc_tol,
        "pairs": rows,
    }


def _run_spectrum(ctx, tols, cfg):
    kernel = ctx["kernel"]
    spectrum = eigendecompose(kernel)
    report = {
        "eigenvalues_top": [float(x) for x in spectrum.eigenvalues[:20]],
        "clusters_top": [list(c) for c in spectrum.clusters[:12]],
    }
    ok = True

    continuum = getattr(BUILTINS.get(kernel.name), "oracle", None)
    if continuum and kernel.space.dim == 1:
        oracle, mult = continuum
        rel_tol = tols["spectrum_eig"]
        rows, worst = [], 0.0
        # the first 10 oracle rows, or as many as the grid has
        have = min(10, len(spectrum.clusters), (kernel.size - 1) // mult + 1)
        for k in range(1, have + 1):
            lam = float(spectrum.eigenvalues[(k - 1) * mult])
            ref = float(oracle(np.array(k)))
            rel = abs(lam - ref) / ref
            worst = max(worst, rel)
            width = spectrum.clusters[k - 1][1] - spectrum.clusters[k - 1][0]
            rows.append({"k": k, "lambda": lam, "oracle": ref, "rel_gap": rel, "multiplicity": width})
            ok = ok and rel <= rel_tol and width == mult
        report["oracle"] = {"rows": rows, "max_rel_gap": worst, "tolerance": rel_tol}

    splits = None
    if kernel.space.action is not None:
        inv = check_eigenspace_invariance(spectrum, tol=tols["spectrum"])
        del inv["per_cluster"]
        report["eigenspace_invariance"] = inv
        ok = ok and inv["ok"]
        try:
            splits = canonical_decomposition(spectrum, tol=tols["spectrum"])
            report["canonical"] = {
                "clusters": [
                    {
                        "eigenvalue": s.eigenvalue,
                        "dims": s.dims,
                        "max_residual": s.max_residual,
                    }
                    for s in splits[:12]
                ],
                "dimension_sums_exact": True,
            }
        except DecompositionError as exc:
            report["canonical"] = {"error": str(exc), "dimension_sums_exact": False}
            ok = False
    ctx["spectrum_rows"] = spectrum_rows(spectrum, splits)  # the basis is not kept
    report["ok"] = bool(ok)
    return report


def _run_torus_watson(ctx, tols, cfg):
    # the truncation reads row 0 of the run's kernel alone, with no m x m array, and this
    # check is the last in CHECKS, so the kernel is released here; the check samples the
    # truncation, a lag kernel, and so stationary by construction
    space = ctx["kernel"].space
    profile = ctx.pop("kernel").rows([0])[0]
    cutoff = _torus_cutoff(cfg)
    spec = fourier_kl(profile, space, cutoff)
    kernel = assemble_kernel(spec)
    q = _basis_quadratics(kernel.rows, spec)  # the even part's cosine and sine readings
    rep = torus_watson_check(
        kernel, int(cfg.get("samples", 20_000)), int(cfg["seed"]),
        stationarity_tol=tols["stationarity"], split_tol=tols["torus_split"],
    )
    sin_max = float(np.max(q["sin"])) if q["sin"] else 0.0
    rep["even_part_expansion"] = {"cos_quadratics": q["cos"], "sin_quadratics_max": sin_max}
    rep["cutoff"] = cutoff
    rep["kernel_spec"] = spec.to_dict()
    return rep


def _run_law(name: str, ctx: dict, tols: dict, cfg: dict) -> dict:
    """The in-law check ``name`` on the run's kernel, with the sampling module's defaults."""
    defaults = LAW_DEFAULTS[name]
    rho, count = float(cfg.get("rho", defaults["rho"])), int(cfg.get("samples", defaults["samples"]))
    return law_check(ctx["kernel"], rho, count, int(cfg["seed"]), tols[name])


def _fmt(x) -> str:
    return repr(float(x))


def _spectrum_headline(rep: dict) -> str:
    parts = []
    if "oracle" in rep:
        parts.append(f"eig rel gap={rep['oracle']['max_rel_gap']:.2e}")
    if "eigenspace_invariance" in rep:
        parts.append(f"residual={rep['eigenspace_invariance']['max_residual']:.2e}")
    return ", ".join(parts) or "spectrum computed"


def _watson_relation_rows(rep: dict, ctx: dict) -> list:
    columns = ("traces", "cumulants", "cII_dev", "cIII_dev")
    return [
        [rec["label"], str(i + 1)] + [_fmt(rec[col][i]) for col in columns]
        for rec in rep["per_irrep"]
        for i in range(len(rec["traces"]))
    ]


def _law_headline(rep: dict) -> str:
    return (
        f"ks={rep['comparison']['ks_distance']:.4f} (tol {rep['ks_tol']:.4f}) "
        f"seed={rep['seed']}"
    )


def _law_rows(rep: dict, ctx: dict) -> list:
    gaps = rep["comparison"]["cumulant_gaps"]
    columns = (rep["analytic_lhs"], rep["analytic_rhs"], gaps, rep["cumulant_tol"])
    return [[str(i + 1)] + [_fmt(col[i]) for col in columns] for i in range(4)]


# Registry order is the run order; a gate precedes the checks it gates.
CHECKS = {
    "invariance": Check(
        run=_run_invariance,
        tolerances={"invariance": 1e-10},
        headline=lambda r: f"deviation={r['deviation']:.3e} tol={r['tolerance']:.1e}",
        action=True,
    ),
    "stationarity": Check(
        run=_run_stationarity,
        tolerances={"stationarity": 1e-10},
        headline=lambda r: f"spread={r['spread']:.3e} tol={r['tolerance']:.1e}",
        torus=True,
    ),
    "decomposition": Check(
        run=_run_decomposition,
        tolerances={"decomposition": 1e-10},
        headline=lambda r: (
            f"sum_dev={r['sum_deviation']:.3e} "
            f"cross={r['max_cross_projection']:.3e} tol={r['tolerance']:.1e}"
        ),
        gate="invariance",
        action=True,
    ),
    "spectrum": Check(
        run=_run_spectrum,
        tolerances={"spectrum": 1e-8, "spectrum_eig": 0.01},
        headline=_spectrum_headline,
        csv="spectrum.csv",
        header=SPECTRUM_CSV_HEADER,
        rows=lambda r, ctx: ctx["spectrum_rows"],
    ),
    "watson_relation": Check(
        run=_run_watson_relation,
        tolerances={"watson_relation": 1e-3},
        headline=lambda r: (
            f"max cIII dev={max(d for rec in r['per_irrep'] for d in rec['cIII_dev']):.3e} "
            f"tol={r['tolerances']['cIII']:.1e}"
        ),
        gate="invariance",
        action=True,
        real=True,
        csv="watson_relation.csv",
        header="irrep,n,trace,cumulant,cII_dev,cIII_dev",
        rows=_watson_relation_rows,
    ),
    "z2_condition": Check(
        run=_run_z2,
        tolerances={"z2_condition": 1e-8},
        headline=lambda r: f"max |value|={max(abs(v) for v in r['values']):.3e} tol={r['tol']:.1e}",
        gate="invariance",
        action=True,
        order=2,
        csv="z2_condition.csv",
        header="n,value,tol",
        rows=lambda r, ctx: [
            [str(i + 1), _fmt(v), _fmt(r["tol"])] for i, v in enumerate(r["values"])
        ],
    ),
    "cumulants": Check(
        run=_run_cumulants,
        tolerances={"cumulants": [0.01, 0.03, 0.10]},
        headline=lambda r: (
            f"worst gap/tol={max(o['gap'] / o['tolerance'] for o in r['orders']):.2f} "
            f"seed={r['seed']}"
        ),
        seed=True,
        csv="cumulants.csv",
        header="order,analytic,mc,gap,tol",
        rows=lambda r, ctx: [
            [str(o["order"])] + [_fmt(o[k]) for k in _CUMULANT_KEYS[1:]] for o in r["orders"]
        ],
    ),
    "mgf": Check(
        run=_run_mgf,
        tolerances={"mgf": 1e-3, "mgf_mc": 0.02},
        headline=lambda r: (
            f"max rel gap={max(p['rel_gap'] for p in r['pairs']):.2e} "
            f"(tol {r['tolerance']:.1e}), mc={max(p['mc_rel_gap'] for p in r['pairs']):.2e}"
        ),
        seed=True,
        csv="mgf.csv",
        header="lambda,rho,closed,spectral,rel_gap,mc,mc_rel_gap",
        rows=lambda r, ctx: [[_fmt(p[k]) for k in _MGF_KEYS] for p in r["pairs"]],
    ),
    # the in-law checks, in LAW_DEFAULTS order, run the run's kernel against its tied-down partner
    **{
        name: Check(
            run=partial(_run_law, name),
            tolerances={name: ks_tol},
            headline=_law_headline,
            seed=True,
            csv=f"{name}.csv",
            header="order,analytic_lhs,analytic_rhs,mc_gap,tol",
            rows=_law_rows,
        )
        for name, ks_tol in zip(LAW_DEFAULTS, (0.01, 0.015))
    },
    "torus_watson": Check(
        run=_run_torus_watson,
        tolerances={"torus_split": 1e-10},
        headline=lambda r: (
            f"conventions={r.get('conventions_satisfied', [])} "
            f"ks={r.get('ks_parts', float('nan')):.4f} seed={r['seed']}"
        ),
        gate="stationarity",
        seed=True,
        torus=True,
        csv="torus_conventions.csv",
        header="convention,residual,satisfied",
        rows=lambda r, ctx: [
            [key, _fmt(val), str(key in r["conventions_satisfied"]).lower()]
            for key, val in r["energy_residuals"].items()
        ],
    ),
}

DEFAULT_TOLERANCES = {key: val for c in CHECKS.values() for key, val in c.tolerances.items()}


@dataclass(frozen=True)
class Field:
    """The shape of one config value: a JSON type of ``_TYPES``, or one of the ``enum`` strings.

    ``lo``/``hi`` bound a number inclusively, ``gt`` exclusively; an object has
    ``keys``, the ``required`` ones present; a list has ``size`` = (min, max or
    None) ``item``s.  ``or_list`` = (min, max) also takes a list of such values.
    """

    type: Optional[str] = None
    lo: Optional[float] = None
    hi: Optional[float] = None
    gt: Optional[float] = None
    enum: tuple = ()
    keys: Optional[dict] = None
    required: tuple = ()
    item: Optional["Field"] = None
    size: tuple = (0, None)
    or_list: Optional[tuple] = None


# JSON Schema's types, with two rules more: an integer is not 64.0, and a number is finite
_TYPES = {
    "object": ("an object", lambda v: isinstance(v, dict)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "integer": ("an integer", lambda v: type(v) is int),
    "number": ("a finite number", lambda v: type(v) is int or type(v) is float and math.isfinite(v)),
}
_POSITIVE = Field("number", gt=0)
_TOLERANCES = {
    key: Field("list", size=(len(val),) * 2, item=_POSITIVE) if isinstance(val, list) else _POSITIVE
    for key, val in DEFAULT_TOLERANCES.items()
}
_PAIR = Field("list", size=(2, 2), item=Field("number"))

CONFIG_FIELDS = Field(
    "object",
    required=("kernel", "checks"),
    keys={
        "name": Field("string"),
        "kernel": Field(
            "object",
            required=("name",),
            keys={
                "name": Field("string"),
                "params": Field(
                    "object",
                    keys={
                        "path": Field("string"),
                        "cutoff": Field("integer", lo=1),
                        # pair i draws on streams 2i and 2i + 1, which must lie below EXP_STREAM
                        "mgf_pairs": Field("list", size=(1, EXP_STREAM // 2), item=_PAIR),
                    },
                ),
            },
        ),
        "action": Field("object", keys={"name": Field(enum=("reversal", "negation", "none"))}),
        "grid": Field(
            "object",
            required=("n",),
            keys={
                "kind": Field(enum=("interval", "torus")),
                "n": Field("integer", lo=2, or_list=(1, 3)),
                "basis": Field("list", item=Field("list", item=Field("number"))),
            },
        ),
        "rho": Field("number", lo=0.0, hi=1.0),
        "n_max": Field("integer", lo=1, hi=12),
        "samples": Field("integer", lo=2000),
        "seed": Field("integer", lo=0, hi=2**64 - 1),
        "checks": Field("list", size=(1, None), item=Field(enum=tuple(CHECKS))),
        "tolerances": Field("object", keys=_TOLERANCES),
        "output": Field("object", keys={"dir": Field("string")}),
    },
)


def field_problems(value, field: Field, path: str = "") -> list[str]:
    """Every way ``value`` departs from ``field``, each as ``path/to/key: message``."""
    where = path or "<root>"

    def wrong(expected: str) -> list[str]:
        return [f"{where}: expected {expected}, got {json.dumps(value, default=repr)}"]

    def under(key) -> str:
        return f"{path}/{key}" if path else str(key)

    if field.or_list is not None and isinstance(value, list):
        field = Field("list", size=field.or_list, item=replace(field, or_list=None))
    if field.enum:
        return [] if isinstance(value, str) and value in field.enum else wrong(f"one of {list(field.enum)}")
    name, is_type = _TYPES[field.type]
    if not is_type(value):
        return wrong(name)
    if field.lo is not None and value < field.lo:
        return wrong(f">= {field.lo}")
    if field.hi is not None and value > field.hi:
        return wrong(f"<= {field.hi}")
    if field.gt is not None and value <= field.gt:
        return wrong(f"> {field.gt}")

    problems = []
    if field.type == "list":
        lo, hi = field.size
        if len(value) < lo or (hi is not None and len(value) > hi):
            count = f"{lo}" if lo == hi else f">= {lo}" if hi is None else f"{lo} to {hi}"
            problems.append(f"{where}: expected length {count}, got {len(value)}")
        for i, item in enumerate(value):
            problems += field_problems(item, field.item, under(i))
    elif field.type == "object":
        problems += [f"{under(key)}: required" for key in field.required if key not in value]
        for key, item in value.items():
            if key in field.keys:
                problems += field_problems(item, field.keys[key], under(key))
            else:
                problems.append(f"{under(key)}: unknown key (known: {', '.join(field.keys)})")
    return problems


PRESETS = {
    # classical duplication of the compensated-bridge functional
    "watson-duplication": {
        "kernel": {"name": "watson"},
        "grid": {"kind": "interval", "n": 256},
        "rho": 1.0,
        "samples": 100_000,
        "seed": 1961,
        "checks": ["duplication"],
    },
    # the same identity for a correlated pair
    "polarized-watson": {
        "kernel": {"name": "watson"},
        "grid": {"kind": "interval", "n": 256},
        "rho": 0.5,
        "n_max": 6,
        "samples": 100_000,
        "seed": 3202,
        "checks": ["invariance", "watson_relation", "duplication"],
    },
    # product-space analogue on the unit square
    "quadruplication": {
        "kernel": {"name": "sheet_compensated"},
        "grid": {"kind": "interval", "n": [32, 32]},
        "rho": 0.5,
        "samples": 50_000,
        "seed": 4104,
        "checks": ["quadruplication"],
    },
    # reflected-diagonal vanishing integrals of contraction powers
    "prop9-watson": {
        "kernel": {"name": "watson"},
        "grid": {"kind": "interval", "n": 1024},
        "n_max": 6,
        "checks": ["invariance", "z2_condition"],
        "tolerances": {"z2_condition": 1e-6},
    },
    # closed-form mgf vs spectral product vs Monte Carlo
    "mgf-check": {
        "kernel": {"name": "watson"},
        "grid": {"kind": "interval", "n": 64},
        "samples": 100_000,
        "seed": 905,
        "checks": ["mgf"],
    },
    # KL spectrum of the tied-down kernel
    "kl-bridge": {
        "kernel": {"name": "bridge"},
        "grid": {"kind": "interval", "n": 256},
        "checks": ["invariance", "spectrum"],
    },
    # KL spectrum + character split of the compensated kernel
    "kl-watson": {
        "kernel": {"name": "watson"},
        "grid": {"kind": "interval", "n": 256},
        "checks": ["invariance", "decomposition", "spectrum"],
    },
    # stationary circle kernel: parity identities and part laws
    "torus-1d": {
        "kernel": {"name": "torus_watson", "params": {"cutoff": 40}},
        "grid": {"kind": "torus", "n": [256]},
        "samples": 20_000,
        "seed": 1312,
        "checks": ["stationarity", "torus_watson"],
    },
    # two-dimensional flat torus, product profile
    "torus-2d": {
        "kernel": {"name": "torus_watson", "params": {"cutoff": 5}},
        "grid": {"kind": "torus", "n": [16, 16]},
        "samples": 10_000,
        "seed": 2077,
        "checks": ["stationarity", "torus_watson"],
    },
}
# a preset is named by its key
PRESETS = {name: {"name": name, **cfg} for name, cfg in PRESETS.items()}


# ---------------------------------------------------------------------------
# config handling


def load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


# the actions a grid kind can bind: reversal on each interval axis, or none; negation on a torus
_GRID_ACTIONS = {"interval": ["reversal", "none"], "torus": ["negation"]}


def validate_config(cfg: dict) -> list[str]:
    """All validation problems (empty list means the config is runnable)."""
    errors = field_problems(cfg, CONFIG_FIELDS)
    if errors:
        return errors

    kname = cfg["kernel"]["name"]
    known = set(BUILTINS) | {"user_matrix"}
    if kname not in known:
        errors.append(f"kernel/name: unknown kernel {kname!r} (known: {sorted(known)})")

    checks = sorted(set(cfg["checks"]))
    kind = cfg.get("grid", {}).get("kind", "interval")
    ns = _grid_axes(cfg)

    basis, d = cfg.get("grid", {}).get("basis"), len(ns)
    if basis is not None and (kind != "torus" or [len(row) for row in basis] != [d] * d):
        errors.append(f"grid/basis: only a torus grid reads it, one row of {d} numbers per axis")
    if kind == "torus":
        if kname != TORUS_KERNEL:
            errors.append(f"kernel/name: torus grids support the {TORUS_KERNEL} kernel")
    else:
        dim = getattr(BUILTINS.get(kname), "dim", len(ns))
        if len(ns) != dim:
            errors.append(f"grid/n: kernel {kname!r} needs a {dim}-d grid")
        if len(ns) > 2:
            errors.append("grid/n: interval grids support at most 2 axes")

    # a user_matrix file's group is its action, which only "none" can drop
    action = cfg.get("action", {}).get("name")
    if kname == "user_matrix":
        if action not in (None, "none"):
            errors.append(
                f"action/name: a user_matrix kernel takes its file's action or 'none', "
                f"not {action!r}"
            )
    elif action is not None and action not in _GRID_ACTIONS[kind]:
        article = "an" if kind[0] in "aeiou" else "a"
        errors.append(f"action/name: {article} {kind} grid takes {_GRID_ACTIONS[kind]}, not {action!r}")
    if kname in BUILTINS and not errors:
        # the grid is sound: the space the run builds says what its group gives
        try:
            errors += _space_problems(build_space(cfg), checks, action)
        except KernelError as exc:  # the torus lattice refuses the basis
            errors.append(f"grid/basis: {exc}")
        except (ValueError, MemoryError) as exc:  # a grid too large to index
            errors.append(f"grid/n: cannot build the grid: {exc}")

    # each kernel param has one reader; anywhere else it would be ignored
    params = cfg["kernel"].get("params", {})
    if ("path" in params) != (kname == "user_matrix"):
        errors.append("kernel/params/path: the user_matrix kernel needs it, no other reads it")
    for key, reader in (("cutoff", "torus_watson"), ("mgf_pairs", "mgf")):
        if key in params and reader not in checks:
            errors.append(f"kernel/params/{key}: only the {reader} check reads it")
    cutoff = _torus_cutoff(cfg)
    if "torus_watson" in checks and kind == "torus" and 2 * cutoff >= min(ns):
        if "cutoff" in params:
            errors.append(f"kernel/params/cutoff: {cutoff} aliases; 2 * cutoff must be < {min(ns)}")
        else:  # the default cutoff aliases only below 3 points
            errors.append(f"grid/n: torus_watson needs at least 3 points on every torus axis, not {min(ns)}")
    for i, (lam, rho) in enumerate(params.get("mgf_pairs", [])):
        if not (0.0 <= rho <= 1.0 and 0.0 <= lam < 2.0 * np.pi / np.sqrt(1.0 + rho)):
            bound = "0 <= rho <= 1 and 0 <= lambda < 2 pi / sqrt(1 + rho)"
            errors.append(f"kernel/params/mgf_pairs/{i}: [{lam}, {rho}] needs {bound}")

    # a top-level key that no requested check reads would be ignored too
    for key, readers in (
        ("rho", ("watson_relation", "cumulants", *LAW_DEFAULTS)),
        ("n_max", ("watson_relation", "z2_condition")),
        ("samples", ("cumulants", "mgf", *LAW_DEFAULTS, "torus_watson")),
    ):
        if key in cfg and not set(readers) & set(checks):
            errors.append(f"{key}: only the {', '.join(readers)} checks read it")

    seeded = [c for c in checks if CHECKS[c].seed]
    if seeded and "seed" not in cfg:
        errors.append(f"seed: required by Monte Carlo checks {seeded}")

    for axes, name in enumerate(LAW_DEFAULTS, start=1):
        if name not in checks:
            continue
        if kname != law_kernel(axes):
            errors.append(f"kernel/name: {name} runs the {law_kernel(axes)!r} kernel only")
        if kind != "interval" or len(ns) != axes or len(set(ns)) != 1:
            errors.append(f"grid/n: {name} needs {axes} equal interval axes")
    return errors


def _space_problems(space, checks, action: Optional[str]) -> list[str]:
    """What the named checks need of ``space``, a built-in grid or a kernel file's, that
    it does not give: a bound group action, of the order and with the real characters
    their records ask for, and a torus grid.  ``action`` is the config's ``action/name``."""
    checks = sorted(set(checks))
    needs = [name for name in checks if CHECKS[name].action]
    problems = []
    if needs and space.action is None:
        unbound = "action is 'none'" if action == "none" else "the kernel file has none"
        problems.append(f"checks: {needs} need a bound group action ({unbound})")
    elif needs:
        group = space.action.group
        for name in needs:
            order, real = CHECKS[name].order, CHECKS[name].real
            if order not in (None, group.order):
                problems.append(f"checks: {name} needs a {order}-element group, not order {group.order}")
            if real and not group.table.real_valued():
                problems.append(f"checks: {name} needs real-valued characters, not complex ones")
    torus = [name for name in checks if CHECKS[name].torus]
    if torus and not isinstance(space, TorusGrid):
        problems.append(f"checks: {torus} need a torus grid")
    return problems


def _noise_notes(cfg: dict) -> list[str]:
    """One note per in-law check whose KS tolerance is below the null KS
    critical value at its sample count: such a check can fail on noise alone."""
    tols = resolve_tolerances(cfg)
    notes = []
    for name in LAW_DEFAULTS:
        if name not in cfg["checks"]:
            continue
        count = int(cfg.get("samples", LAW_DEFAULTS[name]["samples"]))
        critical = null_ks_critical(count)
        if tols[name] < critical:
            notes.append(
                f"note: {name} KS tolerance {tols[name]:g} is below the null KS critical "
                f"value {critical:.4g} at {count} samples; it can fail on noise alone"
            )
    return notes


def resolve_tolerances(cfg: dict) -> dict:
    tols = {**DEFAULT_TOLERANCES, **cfg.get("tolerances", {})}
    return {k: [float(x) for x in v] if isinstance(v, list) else float(v) for k, v in tols.items()}


# ---------------------------------------------------------------------------
# context construction


def build_space(cfg: dict):
    grid = cfg.get("grid", {})
    ns = _grid_axes(cfg)
    if grid.get("kind", "interval") == "torus":
        basis = np.asarray(grid.get("basis", np.eye(len(ns))), dtype=float)
        return torus_grid(Lattice(basis), ns)
    space = make_product_grid([make_interval_grid(k) for k in ns])
    if cfg.get("action", {}).get("name") == "none":
        space = replace(space, action=None)
    return space


def load_user_matrix(cfg: dict) -> Kernel:
    """The kernel file of a ``user_matrix`` config, with ``grid`` and ``action`` applied.

    The file's space is the grid: a ``grid`` must count as many points, and
    ``action: none`` drops the file's group action before the kernel is built.
    The checks' needs of that space are judged as a built-in grid's.
    """
    action = cfg.get("action", {}).get("name")
    try:
        kernel = iio.load_kernel(cfg["kernel"]["params"]["path"], action=action != "none")
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"kernel/params/path: {exc}") from exc
    if "grid" in cfg and int(np.prod(_grid_axes(cfg))) != kernel.size:
        raise ConfigError(
            f"grid/n: {cfg['grid']['n']} does not count the {kernel.size} points of the kernel file"
        )
    problems = _space_problems(kernel.space, cfg["checks"], action)
    if problems:
        raise ConfigError("; ".join(problems))
    return kernel


def build_kernel(cfg: dict) -> Kernel:
    if cfg["kernel"]["name"] == "user_matrix":
        return load_user_matrix(cfg)
    space = build_space(cfg)
    if isinstance(space, TorusGrid):
        return torus_watson(space)
    return builtin_kernel(cfg["kernel"]["name"], space)


# ---------------------------------------------------------------------------
# runner


def execute_checks(cfg: dict, tols: dict) -> tuple[dict, dict]:
    """Run requested checks (plus their gates) in registry order.

    Returns the per-check reports and, for each check that completed with a
    table, its CSV rows.  A check that raises ``ValueError`` or ``MemoryError``
    fails with the error as its report; a kernel that cannot be built raises.
    """
    ctx = {"kernel": build_kernel(cfg)}  # the one reference, which a check may release

    requested = set(cfg["checks"]) | {CHECKS[c].gate for c in cfg["checks"]}
    out_parts: dict = {}
    results: dict = {}
    for name, check in CHECKS.items():
        if name not in requested:
            continue
        if check.gate and results[check.gate]["status"] != "passed":
            results[name] = {"status": "skipped", "skipped_due_to": check.gate}
            continue
        try:
            rep = check.run(ctx, tols, cfg)
        except (ValueError, MemoryError) as exc:  # KernelError, GroupError and LinAlgError included
            results[name] = {"status": "failed", "error": str(exc)}
            continue
        rep["status"] = "passed" if rep.get("ok") else "failed"
        results[name] = rep
        if check.csv and "error" not in rep:
            out_parts[name] = check.rows(rep, ctx)
    return results, out_parts


def _headline(name: str, rep: dict) -> str:
    if rep.get("status") == "skipped":
        return f"gate {rep['skipped_due_to']} did not pass"
    if "error" in rep:
        return rep["error"]
    return CHECKS[name].headline(rep)


def write_tables(out_parts: dict, out_dir: Path) -> list[str]:
    """Write each check's CSV table in run order; returns the files written."""
    for name, rows in out_parts.items():
        check = CHECKS[name]
        lines = [check.header] + [",".join(cells) for cells in rows]
        (out_dir / check.csv).write_text("\n".join(lines) + "\n")
    return [CHECKS[name].csv for name in out_parts]


def write_report(cfg, results, out_parts, out_dir: Path, tols, exit_code: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = write_tables(out_parts, out_dir)

    # the output directory is where the report goes, not what it says, so the
    # same run written to two directories gives the same report
    report = {
        "config": dict(cfg, output={}) if "output" in cfg else cfg,
        "tolerances_effective": tols,
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "checks": results,
        "tables": tables,
        "ok": exit_code == 0,
    }
    if "seed" in cfg:
        report["rng_contract"] = RNG_CONTRACT  # the keying rule behind the seeded samples
    (out_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=1))

    lines = [f"invdecomp {__version__} — {cfg.get('name', 'experiment')}"]
    if "seed" in cfg:
        lines.append(f"seed: {cfg['seed']}")
    for name, rep in results.items():
        status = rep.get("status", "failed")
        tag = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}[status]
        lines.append(f"[{tag}] {name}: {_headline(name, rep)}")
    n_passed = sum(1 for r in results.values() if r.get("status") == "passed")
    lines.append(f"verdict: {'PASS' if exit_code == 0 else 'FAIL'} ({n_passed}/{len(results)} checks passed)")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))


@contextlib.contextmanager
def one_blas_thread():
    """Run the block at one OpenBLAS thread, and then restore the previous count.

    A dense LAPACK solve's last bits depend on the thread count, and the reports read them, so
    a run's report would depend on the host's thread count.  Without the bundled library's
    thread calls (:func:`invdecomp.kernels._openblas`) the count is left as it is, and a note
    on stderr says so."""
    lib = _openblas()
    get, put = (getattr(lib, f"scipy_openblas_{op}_num_threads64_", None) for op in ("get", "set"))
    if get is None or put is None:
        print("note: the BLAS thread count cannot be set; a report may follow it", file=sys.stderr)
        yield
        return
    get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def output_dir(cfg: dict) -> Path:
    """The output directory of a validated ``cfg``, judged but not made, so a refused run leaves
    no directory behind: raises ``ConfigError`` unless its nearest existing ancestor is a
    directory the process can write.  ``run`` and ``validate`` both judge it here."""
    out_dir = Path(cfg.get("output", {}).get("dir") or f"out/{cfg.get('name', 'experiment')}")
    base = next((p for p in (out_dir, *out_dir.parents) if p.exists()), out_dir)
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        raise ConfigError(f"output/dir: {out_dir}: {base} is not a writable directory")
    return out_dir


def run_command(args) -> int:
    try:
        if args.preset is None and args.config is None:
            raise ConfigError("give a config file or --preset")
        cfg: dict = {}
        if args.preset is not None:
            if args.preset not in PRESETS:
                raise ConfigError(f"unknown preset {args.preset!r} (see `invdecomp list-presets`)")
            cfg.update(json.loads(json.dumps(PRESETS[args.preset])))
        if args.config is not None:
            cfg.update(load_config_file(args.config))

        problems = validate_config(cfg)
        if problems:
            raise ConfigError("; ".join(problems))
        if args.out is not None:  # once validated, ``output`` is an object
            cfg.setdefault("output", {})["dir"] = args.out
        tols = resolve_tolerances(cfg)
        out_dir = output_dir(cfg)
        with one_blas_thread():
            results, out_parts = execute_checks(cfg, tols)
    except (ConfigError, KernelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    failed = [n for n, r in results.items() if r.get("status") == "failed"]
    exit_code = 1 if failed else 0
    write_report(cfg, results, out_parts, out_dir, tols, exit_code)
    for name in failed:
        print(f"check failed: {name} — {_headline(name, results[name])}", file=sys.stderr)
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="invdecomp",
        description="Run symmetry-decomposition checks on covariance kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a config (or preset) and write reports")
    run_p.add_argument("config", nargs="?", default=None, help="JSON config path")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--preset", default=None, help="start from a named preset")

    sub.add_parser("list-presets", help="list built-in experiment presets")

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="JSON config path")

    args = parser.parse_args(argv)
    if args.command == "list-presets":
        for name in PRESETS:
            print(name)
        return 0
    if args.command == "validate":
        try:
            cfg = load_config_file(args.config)
            problems = validate_config(cfg)
            if not problems:  # the output and file-level rules, as run applies them
                output_dir(cfg)
                if cfg["kernel"]["name"] == "user_matrix":
                    load_user_matrix(cfg)
        except ConfigError as exc:
            problems = [str(exc)]
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        if problems:
            return 2
        print("OK")
        for note in _noise_notes(cfg):
            print(note)
        return 0
    return run_command(args)


if __name__ == "__main__":
    sys.exit(main())
