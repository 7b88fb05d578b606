"""Experiment runner: JSON configs in, reports out.

``invdecomp run`` executes a list of named checks against one kernel, in
dependency order (a failed gate skips its dependents), and writes
``report.json``, per-check CSV tables, and ``summary.txt`` into the output
directory.  Exit code 0 means every executed check passed, 1 means some
check failed, 2 means the configuration itself was rejected.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator
from scipy.stats import kstat

import invdecomp.io as iio
from invdecomp import __version__
from invdecomp.cumulants import (
    analytic_cumulants,
    mgf_watson,
    watson_relation_check,
    z2_condition_check,
)
from invdecomp.groups import character_table
from invdecomp.kernels import (
    BUILTIN_KERNELS,
    IndexSpace,
    KernelError,
    builtin_kernel,
    check_invariance,
    make_interval_grid,
    make_product_grid,
    project_kernel,
)
from invdecomp.sampling import (
    duplication_check,
    pair_functional,
    kstat_variances,
    quadruplication_check,
)
from invdecomp.spectral import (
    DecompositionError,
    canonical_decomposition,
    check_eigenspace_invariance,
    eigendecompose,
    spectrum_to_csv,
)
from invdecomp.torus import (
    Lattice,
    TorusGrid,
    fourier_kl,
    stationarity_spread,
    torus_grid,
    torus_watson,
    torus_watson_check,
)

CHECK_ORDER = (
    "invariance",
    "stationarity",
    "decomposition",
    "spectrum",
    "watson_relation",
    "z2_condition",
    "cumulants",
    "mgf",
    "duplication",
    "quadruplication",
    "torus_watson",
)

# checks gated on a prior check passing
DEPENDS = {
    "decomposition": "invariance",
    "watson_relation": "invariance",
    "z2_condition": "invariance",
    "torus_watson": "stationarity",
}

MC_CHECKS = frozenset({"cumulants", "mgf", "duplication", "quadruplication", "torus_watson"})
ACTION_CHECKS = frozenset({"invariance", "decomposition", "watson_relation", "z2_condition"})
TORUS_CHECKS = frozenset({"stationarity", "torus_watson"})

DEFAULT_TOLERANCES = {
    "invariance": 1e-10,
    "stationarity": 1e-10,
    "decomposition": 1e-10,
    "watson_relation": 1e-3,
    "z2_condition": 1e-8,
    "cumulants": [0.01, 0.03, 0.10],
    "mgf": 1e-3,
    "mgf_mc": 0.02,
    "duplication": 0.01,
    "quadruplication": 0.015,
    "spectrum": 1e-8,
    "spectrum_eig": 0.01,
    "torus_split": 1e-10,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["kernel", "checks"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "kernel": {
            "type": "object",
            "required": ["name"],
            "additionalProperties": False,
            "properties": {
                "name": {"type": "string"},
                "params": {"type": "object"},
            },
        },
        "group": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["cyclic", "product"]},
                "factors": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
            },
        },
        "action": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"name": {"enum": ["reversal", "negation", "none"]}},
        },
        "grid": {
            "type": "object",
            "required": ["n"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["interval", "torus"]},
                "n": {
                    "oneOf": [
                        {"type": "integer", "minimum": 2},
                        {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 2},
                            "minItems": 1,
                            "maxItems": 3,
                        },
                    ]
                },
                "basis": {"type": "array"},
            },
        },
        "rho": {"type": "number", "minimum": 0.0, "maximum": 1.0},
        "n_max": {"type": "integer", "minimum": 1, "maximum": 12},
        "samples": {"type": "integer", "minimum": 2000},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {"enum": list(CHECK_ORDER)},
        },
        "tolerances": {"type": "object"},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string"},
                "formats": {
                    "type": "array",
                    "items": {"enum": ["json", "csv", "binary"]},
                },
            },
        },
    },
}

PRESETS = {
    # classical duplication of the compensated-bridge functional
    "watson-duplication": {
        "name": "watson-duplication",
        "kernel": {"name": "watson"},
        "grid": {"kind": "interval", "n": 256},
        "rho": 1.0,
        "samples": 100_000,
        "seed": 1961,
        "checks": ["duplication"],
    },
    # the same identity for a correlated pair
    "polarized-watson": {
        "name": "polarized-watson",
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
        "name": "quadruplication",
        "kernel": {"name": "sheet_compensated"},
        "grid": {"kind": "interval", "n": [32, 32]},
        "rho": 0.5,
        "samples": 50_000,
        "seed": 4104,
        "checks": ["quadruplication"],
    },
    # reflected-diagonal vanishing integrals of contraction powers
    "prop9-watson": {
        "name": "prop9-watson",
        "kernel": {"name": "watson"},
        "grid": {"kind": "interval", "n": 1024},
        "n_max": 6,
        "checks": ["invariance", "z2_condition"],
        "tolerances": {"z2_condition": 1e-6},
    },
    # closed-form mgf vs spectral product vs Monte Carlo
    "mgf-check": {
        "name": "mgf-check",
        "kernel": {"name": "watson"},
        "grid": {"kind": "interval", "n": 64},
        "samples": 100_000,
        "seed": 905,
        "checks": ["mgf"],
    },
    # KL spectrum of the tied-down kernel
    "kl-bridge": {
        "name": "kl-bridge",
        "kernel": {"name": "bridge"},
        "grid": {"kind": "interval", "n": 256},
        "checks": ["invariance", "spectrum"],
    },
    # KL spectrum + character split of the compensated kernel
    "kl-watson": {
        "name": "kl-watson",
        "kernel": {"name": "watson"},
        "grid": {"kind": "interval", "n": 256},
        "checks": ["invariance", "decomposition", "spectrum"],
    },
    # stationary circle kernel: parity identities and part laws
    "torus-1d": {
        "name": "torus-1d",
        "kernel": {"name": "torus_watson", "params": {"cutoff": 40}},
        "grid": {"kind": "torus", "n": [256]},
        "samples": 20_000,
        "seed": 1312,
        "checks": ["stationarity", "torus_watson"],
    },
    # two-dimensional flat torus, product profile
    "torus-2d": {
        "name": "torus-2d",
        "kernel": {"name": "torus_watson", "params": {"cutoff": 5}},
        "grid": {"kind": "torus", "n": [16, 16]},
        "samples": 10_000,
        "seed": 2077,
        "checks": ["stationarity", "torus_watson"],
    },
}


class ConfigError(Exception):
    pass


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


def validate_config(cfg: dict) -> list[str]:
    """All validation problems (empty list means the config is runnable)."""
    errors = [
        f"{'/'.join(str(p) for p in e.absolute_path) or '<root>'}: {e.message}"
        for e in Draft202012Validator(CONFIG_SCHEMA).iter_errors(cfg)
    ]
    if errors:
        return errors

    kname = cfg["kernel"]["name"]
    known = set(BUILTIN_KERNELS) | {"user_matrix"}
    if kname not in known:
        errors.append(f"kernel/name: unknown kernel {kname!r} (known: {sorted(known)})")

    checks = cfg["checks"]
    grid = cfg.get("grid", {})
    kind = grid.get("kind", "interval")
    n = grid.get("n", 256)
    ns = [n] if isinstance(n, int) else list(n)

    if kind == "torus":
        if kname != "torus_watson":
            errors.append("kernel/name: torus grids support the torus_watson kernel")
    else:
        if set(checks) & TORUS_CHECKS:
            bad = sorted(set(checks) & TORUS_CHECKS)
            errors.append(f"checks: {bad} need a torus grid")
        if kname in ("bridge", "watson", "torus_watson") and len(ns) != 1:
            errors.append(f"grid/n: kernel {kname!r} needs a 1-d grid")
        if kname.startswith("sheet") and len(ns) != 2:
            errors.append(f"grid/n: kernel {kname!r} needs a 2-d grid")
        if len(ns) > 2:
            errors.append("grid/n: interval grids support at most 2 axes")

    if cfg.get("action", {}).get("name") == "none" and set(checks) & ACTION_CHECKS:
        bad = sorted(set(checks) & ACTION_CHECKS)
        errors.append(f"checks: {bad} need a bound group action (action is 'none')")

    if set(checks) & MC_CHECKS and "seed" not in cfg:
        bad = sorted(set(checks) & MC_CHECKS)
        errors.append(f"seed: required by Monte Carlo checks {bad}")

    group = cfg.get("group")
    if group is not None:
        kindg = group.get("kind", "cyclic")
        factors = group.get("factors", [2])
        if kindg == "cyclic" and len(factors) != 1:
            errors.append("group/factors: cyclic groups take exactly one factor")
        expected = 2 ** len(ns) if kind == "interval" else 2
        order = int(np.prod(factors))
        if order != expected:
            errors.append(
                f"group/factors: order {order} does not match the grid action (order {expected})"
            )

    known_tols = set(DEFAULT_TOLERANCES)
    for key in cfg.get("tolerances", {}):
        if key not in known_tols:
            errors.append(f"tolerances/{key}: unknown tolerance (known: {sorted(known_tols)})")
    return errors


def resolve_tolerances(cfg: dict, tol_scale: float) -> dict:
    tols = dict(DEFAULT_TOLERANCES)
    tols.update(cfg.get("tolerances", {}))
    out = {}
    for key, val in tols.items():
        if isinstance(val, list):
            out[key] = [float(v) * tol_scale for v in val]
        else:
            out[key] = float(val) * tol_scale
    return out


# ---------------------------------------------------------------------------
# context construction


def build_space(cfg: dict):
    grid = cfg.get("grid", {"n": 256})
    kind = grid.get("kind", "interval")
    n = grid["n"] if "n" in grid else 256
    ns = [int(n)] if isinstance(n, int) else [int(x) for x in n]
    if kind == "torus":
        basis = np.asarray(grid.get("basis", np.eye(len(ns))), dtype=float)
        return torus_grid(Lattice(basis), ns)
    if len(ns) == 1:
        space = make_interval_grid(ns[0])
    else:
        space = make_product_grid([make_interval_grid(k) for k in ns])
    if cfg.get("action", {}).get("name") == "none":
        space = IndexSpace(space.points, space.weights, action=None, name=space.name)
    return space


def build_kernel(cfg: dict, space):
    kname = cfg["kernel"]["name"]
    params = cfg["kernel"].get("params", {})
    if kname == "user_matrix":
        if "path" not in params:
            raise ConfigError("kernel/params/path: user_matrix needs a kernel file")
        return iio.load_kernel(params["path"])
    if isinstance(space, TorusGrid):
        return torus_watson(space)
    return builtin_kernel(kname, space)


# ---------------------------------------------------------------------------
# individual checks; each returns a JSON-ready dict with an "ok" flag


def _run_invariance(ctx, tols):
    ok, dev = check_invariance(ctx["kernel"], tol=tols["invariance"])
    return {"ok": bool(ok), "deviation": dev, "tolerance": tols["invariance"]}


def _run_stationarity(ctx, tols):
    spread = stationarity_spread(ctx["kernel"])
    tol = tols["stationarity"]
    return {"ok": bool(spread <= tol), "spread": spread, "tolerance": tol}


def _run_decomposition(ctx, tols):
    kernel, table = ctx["kernel"], ctx["table"]
    tol = tols["decomposition"]
    total = np.zeros_like(kernel.matrix)
    shares = {}
    for p in table:
        part = project_kernel(kernel, p, p)
        total = total + part.matrix
        shares[p.label] = float(np.sum(np.diag(part.matrix) * kernel.space.weights))
    sum_dev = float(np.max(np.abs(total - kernel.matrix)))
    cross = 0.0
    for p in table:
        for q in table:
            if p is q:
                continue
            mat = project_kernel(kernel, p, q)
            mat = mat.matrix if hasattr(mat, "matrix") else mat
            cross = max(cross, float(np.max(np.abs(mat))))
    ok = sum_dev <= tol and cross <= tol
    return {
        "ok": bool(ok),
        "sum_deviation": sum_dev,
        "max_cross_projection": cross,
        "tolerance": tol,
        "component_trace": shares,
    }


def _run_watson_relation(ctx, tols, cfg):
    rep = watson_relation_check(
        ctx["kernel"],
        rho=float(cfg.get("rho", 1.0)),
        n_max=int(cfg.get("n_max", 6)),
        tol=tols["watson_relation"],
        table=ctx["table"],
    )
    out = rep.to_dict()
    out["ok"] = rep.ok
    return out


def _run_z2(ctx, tols, cfg):
    rep = z2_condition_check(
        ctx["kernel"], n_max=int(cfg.get("n_max", 6)), tol=tols["z2_condition"]
    )
    out = rep.to_dict()
    out["ok"] = rep.ok
    return out


def _run_cumulants(ctx, tols, cfg):
    kernel = ctx["kernel"]
    rho = float(cfg.get("rho", 1.0))
    count = int(cfg.get("samples", 100_000))
    seed = int(cfg["seed"])
    ana = analytic_cumulants(kernel, rho, 8)
    j = pair_functional(kernel, rho, count, seed, streams=(0, 1))
    mc = [float(kstat(j, n)) for n in (1, 2, 3)]
    noise = 5.0 * np.sqrt(kstat_variances(ana.values, count))
    rel = tols["cumulants"]
    rows = []
    ok = True
    for i in range(3):
        tol_i = max(rel[i] * abs(ana.values[i]), float(noise[i]))
        gap = abs(mc[i] - float(ana.values[i]))
        rows.append(
            {
                "order": i + 1,
                "analytic": float(ana.values[i]),
                "mc": mc[i],
                "gap": gap,
                "tolerance": tol_i,
            }
        )
        ok = ok and gap <= tol_i
    return {"ok": bool(ok), "rho": rho, "count": count, "seed": seed, "orders": rows}


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
    ok = True
    for i, (lam, rho) in enumerate(pairs):
        closed, spectral = mgf_watson(float(lam), float(rho))
        rel = abs(closed - spectral) / abs(closed)
        # the closed form is for E[exp(lambda^2 * J)]; MC must match that exponent
        j = pair_functional(kernel, float(rho), count, seed, streams=(2 * i, 2 * i + 1))
        mc = float(np.mean(np.exp(float(lam) ** 2 * j)))
        mc_rel = abs(mc - spectral) / abs(spectral)
        rows.append(
            {
                "lambda": float(lam),
                "rho": float(rho),
                "closed_form": closed,
                "spectral": spectral,
                "rel_gap": rel,
                "mc": mc,
                "mc_rel_gap": mc_rel,
            }
        )
        ok = ok and rel <= rel_tol and mc_rel <= mc_tol
    return {
        "ok": bool(ok),
        "count": count,
        "seed": seed,
        "tolerance": rel_tol,
        "mc_tolerance": mc_tol,
        "pairs": rows,
    }


ORACLE_SPECTRA = {
    # continuum eigenvalues and their multiplicities on [0, 1]
    "bridge": (lambda k: 1.0 / (np.pi**2 * k**2), 1),
    "watson": (lambda k: 1.0 / (4.0 * np.pi**2 * k**2), 2),
}


def _run_spectrum(ctx, tols, cfg, out_parts):
    kernel = ctx["kernel"]
    spectrum = eigendecompose(kernel)
    report = {
        "eigenvalues_top": [float(x) for x in spectrum.eigenvalues[:20]],
        "clusters_top": [list(c) for c in spectrum.clusters[:12]],
    }
    ok = True

    if kernel.name in ORACLE_SPECTRA and kernel.space.dim == 1 and not isinstance(
        kernel.space, TorusGrid
    ):
        oracle, mult = ORACLE_SPECTRA[kernel.name]
        rel_tol = tols["spectrum_eig"]
        rows, worst = [], 0.0
        for k in range(1, 11):
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
        report["eigenspace_invariance"] = {
            "max_residual": inv.max_residual,
            "tolerance": inv.tol,
            "ok": inv.ok,
        }
        ok = ok and inv.ok
        try:
            splits = canonical_decomposition(spectrum, ctx["table"])
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
    out_parts["spectrum_csv"] = spectrum_to_csv(spectrum, splits)
    report["ok"] = bool(ok)
    return report


def _run_torus_watson(ctx, tols, cfg):
    kernel, space = ctx["kernel"], ctx["space"]
    params = cfg["kernel"].get("params", {})
    cutoff = int(params.get("cutoff", max(1, (min(space.shape) - 1) // 2)))
    spec = fourier_kl(kernel.matrix[0], space, cutoff)
    count = int(cfg.get("samples", 20_000))
    seed = int(cfg["seed"])
    rep = torus_watson_check(
        spec,
        space,
        count,
        seed,
        stationarity_tol=tols["stationarity"],
        split_tol=tols["torus_split"],
    )
    rep["cutoff"] = cutoff
    rep["kernel_spec"] = spec.to_dict()
    return rep


# ---------------------------------------------------------------------------
# runner


def execute_checks(cfg: dict, tols: dict) -> tuple[dict, dict]:
    """Run requested checks (plus their gates) in canonical order."""
    space = build_space(cfg)
    kernel = build_kernel(cfg, space)
    if kernel.space is not space:
        space = kernel.space  # user_matrix kernels carry their own space
    table = character_table(space.action.group) if space.action is not None else None
    ctx = {"space": space, "kernel": kernel, "table": table}

    requested = list(cfg["checks"])
    for chk in list(requested):
        gate = DEPENDS.get(chk)
        if gate and gate not in requested:
            requested.append(gate)
    order = [c for c in CHECK_ORDER if c in requested]

    out_parts: dict = {}
    results: dict = {}
    for name in order:
        gate = DEPENDS.get(name)
        if gate and results.get(gate, {}).get("status") != "passed":
            results[name] = {"status": "skipped", "skipped_due_to": gate}
            continue
        try:
            if name == "invariance":
                rep = _run_invariance(ctx, tols)
            elif name == "stationarity":
                rep = _run_stationarity(ctx, tols)
            elif name == "decomposition":
                rep = _run_decomposition(ctx, tols)
            elif name == "spectrum":
                rep = _run_spectrum(ctx, tols, cfg, out_parts)
            elif name == "watson_relation":
                rep = _run_watson_relation(ctx, tols, cfg)
            elif name == "z2_condition":
                rep = _run_z2(ctx, tols, cfg)
            elif name == "cumulants":
                rep = _run_cumulants(ctx, tols, cfg)
            elif name == "mgf":
                rep = _run_mgf(ctx, tols, cfg)
            elif name == "duplication":
                rep = duplication_check(
                    {
                        "grid": _first_axis(cfg),
                        "samples": cfg.get("samples", 100_000),
                        "rho": cfg.get("rho", 1.0),
                        "seed": cfg["seed"],
                        "ks_tol": tols["duplication"],
                    }
                )
            elif name == "quadruplication":
                rep = quadruplication_check(
                    {
                        "grid": _first_axis(cfg),
                        "samples": cfg.get("samples", 50_000),
                        "rho": cfg.get("rho", 0.5),
                        "seed": cfg["seed"],
                        "ks_tol": tols["quadruplication"],
                    }
                )
            elif name == "torus_watson":
                rep = _run_torus_watson(ctx, tols, cfg)
            else:  # pragma: no cover - names are schema-bound
                raise ConfigError(f"unknown check {name}")
        except (KernelError, DecompositionError, ValueError) as exc:
            results[name] = {"status": "failed", "error": str(exc)}
            continue
        rep["status"] = "passed" if rep.get("ok") else "failed"
        if "seed" not in rep and name in MC_CHECKS:
            rep["seed"] = cfg.get("seed")
        results[name] = rep
    return results, out_parts


def _first_axis(cfg) -> int:
    n = cfg.get("grid", {}).get("n", 256)
    return int(n if isinstance(n, int) else n[0])


def _headline(name: str, rep: dict) -> str:
    if rep.get("status") == "skipped":
        return f"gate {rep['skipped_due_to']} did not pass"
    if "error" in rep:
        return rep["error"]
    if name == "invariance":
        return f"deviation={rep['deviation']:.3e} tol={rep['tolerance']:.1e}"
    if name == "stationarity":
        return f"spread={rep['spread']:.3e} tol={rep['tolerance']:.1e}"
    if name == "decomposition":
        return (
            f"sum_dev={rep['sum_deviation']:.3e} "
            f"cross={rep['max_cross_projection']:.3e} tol={rep['tolerance']:.1e}"
        )
    if name == "watson_relation":
        devs = [d for rec in rep["per_irrep"] for d in rec["cIII_dev"]]
        return f"max cIII dev={max(devs):.3e} tol={rep['tolerances']['cIII']:.1e}"
    if name == "z2_condition":
        vals = [abs(v) for v in rep["values"]]
        return f"max |value|={max(vals):.3e} tol={rep['tol']:.1e}"
    if name == "cumulants":
        worst = max(r["gap"] / r["tolerance"] for r in rep["orders"])
        return f"worst gap/tol={worst:.2f} seed={rep['seed']}"
    if name == "mgf":
        worst = max(r["rel_gap"] for r in rep["pairs"])
        mc = max(r["mc_rel_gap"] for r in rep["pairs"])
        return f"max rel gap={worst:.2e} (tol {rep['tolerance']:.1e}), mc={mc:.2e}"
    if name == "spectrum":
        parts = []
        if "oracle" in rep:
            parts.append(f"eig rel gap={rep['oracle']['max_rel_gap']:.2e}")
        if "eigenspace_invariance" in rep:
            parts.append(f"residual={rep['eigenspace_invariance']['max_residual']:.2e}")
        return ", ".join(parts) or "spectrum computed"
    if name in ("duplication", "quadruplication"):
        return (
            f"ks={rep['comparison']['ks_distance']:.4f} (tol {rep['ks_tol']:.4f}) "
            f"seed={rep['seed']}"
        )
    if name == "torus_watson":
        return (
            f"conventions={rep.get('conventions_satisfied', [])} "
            f"ks={rep.get('ks_parts', float('nan')):.4f} seed={rep['seed']}"
        )
    return ""


def _fmt(x) -> str:
    return repr(float(x))


def write_tables(results: dict, out_parts: dict, out_dir: Path) -> list[str]:
    """Per-check CSV tables; returns the list of files written."""
    written = []

    def emit(fname: str, header: str, rows: list[str]) -> None:
        path = out_dir / fname
        path.write_text("\n".join([header] + rows) + "\n")
        written.append(fname)

    if "spectrum_csv" in out_parts:
        (out_dir / "spectrum.csv").write_text(out_parts["spectrum_csv"])
        written.append("spectrum.csv")

    rep = results.get("watson_relation")
    if rep and rep.get("status") != "skipped" and "per_irrep" in rep:
        rows = []
        for rec in rep["per_irrep"]:
            for i, tr in enumerate(rec["traces"]):
                rows.append(
                    ",".join(
                        [
                            rec["label"],
                            str(i + 1),
                            _fmt(tr),
                            _fmt(rec["cumulants"][i]),
                            _fmt(rec["cII_dev"][i]),
                            _fmt(rec["cIII_dev"][i]),
                        ]
                    )
                )
        emit("watson_relation.csv", "irrep,n,trace,cumulant,cII_dev,cIII_dev", rows)

    rep = results.get("z2_condition")
    if rep and rep.get("status") != "skipped" and "values" in rep:
        rows = [
            ",".join([str(i + 1), _fmt(v), _fmt(rep["tol"])])
            for i, v in enumerate(rep["values"])
        ]
        emit("z2_condition.csv", "n,value,tol", rows)

    rep = results.get("cumulants")
    if rep and "orders" in rep:
        rows = [
            ",".join(
                [str(r["order"]), _fmt(r["analytic"]), _fmt(r["mc"]), _fmt(r["gap"]), _fmt(r["tolerance"])]
            )
            for r in rep["orders"]
        ]
        emit("cumulants.csv", "order,analytic,mc,gap,tol", rows)

    rep = results.get("mgf")
    if rep and "pairs" in rep:
        rows = [
            ",".join(
                [
                    _fmt(r["lambda"]),
                    _fmt(r["rho"]),
                    _fmt(r["closed_form"]),
                    _fmt(r["spectral"]),
                    _fmt(r["rel_gap"]),
                    _fmt(r["mc"]),
                    _fmt(r["mc_rel_gap"]),
                ]
            )
            for r in rep["pairs"]
        ]
        emit("mgf.csv", "lambda,rho,closed,spectral,rel_gap,mc,mc_rel_gap", rows)

    for name in ("duplication", "quadruplication"):
        rep = results.get(name)
        if rep and "comparison" in rep:
            gaps = rep["comparison"]["cumulant_gaps"]
            rows = [
                ",".join(
                    [
                        str(i + 1),
                        _fmt(rep["analytic_lhs"][i]),
                        _fmt(rep["analytic_rhs"][i]),
                        _fmt(gaps[i]),
                        _fmt(rep["cumulant_tol"][i]),
                    ]
                )
                for i in range(4)
            ]
            emit(f"{name}.csv", "order,analytic_lhs,analytic_rhs,mc_gap,tol", rows)

    rep = results.get("torus_watson")
    if rep and "energy_residuals" in rep:
        sat = set(rep["conventions_satisfied"])
        rows = [
            ",".join([key, _fmt(val), str(key in sat).lower()])
            for key, val in rep["energy_residuals"].items()
        ]
        emit("torus_conventions.csv", "convention,residual,satisfied", rows)
    return written


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_report(cfg, results, out_parts, out_dir: Path, tols, exit_code: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    formats = cfg.get("output", {}).get("formats", ["json", "csv"])
    tables = write_tables(results, out_parts, out_dir) if "csv" in formats else []

    report = {
        "config": cfg,
        "tolerances_effective": tols,
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "checks": results,
        "tables": tables,
        "ok": exit_code == 0,
    }
    if "json" in formats:
        (out_dir / "report.json").write_text(
            json.dumps(report, sort_keys=True, indent=1, default=_json_default)
        )

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


def run_command(args) -> int:
    if args.preset is None and args.config is None:
        print("config error: give a config file or --preset", file=sys.stderr)
        return 2
    try:
        cfg: dict = {}
        if args.preset is not None:
            if args.preset not in PRESETS:
                raise ConfigError(
                    f"unknown preset {args.preset!r} (see `invdecomp list-presets`)"
                )
            cfg.update(json.loads(json.dumps(PRESETS[args.preset])))
        if args.config is not None:
            overlay = load_config_file(args.config)
            for key, val in overlay.items():
                cfg[key] = val
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg.setdefault("output", {})["dir"] = args.out

        problems = validate_config(cfg)
        if problems:
            raise ConfigError("; ".join(problems))
        tols = resolve_tolerances(cfg, args.tol_scale)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        results, out_parts = execute_checks(cfg, tols)
    except (ConfigError, KernelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    failed = [n for n, r in results.items() if r.get("status") == "failed"]
    exit_code = 1 if failed else 0
    out_dir = Path(cfg.get("output", {}).get("dir") or f"out/{cfg.get('name', 'experiment')}")
    write_report(cfg, results, out_parts, out_dir, tols, exit_code)
    if failed:
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
    run_p.add_argument("--seed", type=int, default=None, help="seed override")
    run_p.add_argument("--preset", default=None, help="start from a named preset")
    run_p.add_argument(
        "--tol-scale", type=float, default=1.0, help="multiply all tolerances"
    )

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
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        problems = validate_config(cfg)
        if problems:
            for p in problems:
                print(f"config error: {p}", file=sys.stderr)
            return 2
        print("OK")
        return 0
    return run_command(args)


if __name__ == "__main__":
    sys.exit(main())
