"""Benchmark workloads: each one is a single `invdecomp run` config.

A workload turns the benchmark's ``--seed`` into the config that the run's
process receives; nothing else is passed to the program.  Each workload puts
most of its time in one layer and little or none in another, so that a
change to one layer moves one workload and leaves another unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Finding:
    """A check known to fail at the benchmark's first commit."""

    reason: str
    # True when the check's report fails for this reason and no other
    matches: Callable[[dict], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # the run's config, without its seed and output directory
    # check name -> Finding; such a check may pass, or fail for its recorded
    # reason; every other check must pass
    findings: dict = field(default_factory=dict)

    def make_config(self, seed: int, out_dir: str) -> dict:
        cfg = dict(self.config, name=self.name, output={"dir": out_dir})
        if "samples" in cfg:  # Monte Carlo checks take the seed
            cfg["seed"] = seed
        return cfg


_SPLIT_ERROR = re.compile(r"split into (\d+) dims \(expected (\d+)\), max residual (\S+)$")


def spectrum_residual_only(rep: dict) -> bool:
    """The spectrum check failed on eigenvector residuals alone.

    The report has no error, every watson eigenvalue matches its oracle
    within tolerance with multiplicity 2, and the eigenspace invariance
    residual is above its tolerance.  The canonical split either worked or
    found every cluster's dimension right and stopped only on a residual
    above the same tolerance.
    """
    oracle = rep.get("oracle", {})
    inv = rep.get("eigenspace_invariance", {})
    rows = oracle.get("rows", [])
    if (
        "error" in rep
        or not rows
        or not all(r["rel_gap"] <= oracle["tolerance"] and r["multiplicity"] == 2 for r in rows)
        or inv.get("ok") is not False
        or not inv["max_residual"] > inv["tolerance"]
    ):
        return False
    error = rep.get("canonical", {}).get("error")
    if error is None:
        return True
    split = _SPLIT_ERROR.search(error)
    return bool(split) and split[1] == split[2] and float(split[3]) > inv["tolerance"]


WORKLOADS = {
    w.name: w
    for w in (
        # The watson-duplication preset, serial.  Per-column Philox draws are
        # most of the run; with rho = 1 the second stream of each pair is
        # redundant.  Sample count and KS tolerance are the preset's.
        Workload(
            name="dup-1d-serial",
            config={
                "kernel": {"name": "watson"},
                "grid": {"kind": "interval", "n": 256},
                "rho": 1.0,
                "samples": 100_000,
                "checks": ["duplication"],
            },
        ),
        # Every analytic check on a 1024-point interval; draws no samples, so
        # RNG and factor-apply changes leave it unchanged.  Time goes to the
        # Kernel PSD check, contraction powers, weighted traces and spectral
        # code.  The z2 tolerance is the prop9-watson preset's.
        Workload(
            name="analytic-1d",
            config={
                "kernel": {"name": "watson"},
                "grid": {"kind": "interval", "n": 1024},
                "rho": 0.5,
                "n_max": 6,
                "checks": [
                    "invariance",
                    "decomposition",
                    "spectrum",
                    "watson_relation",
                    "z2_condition",
                ],
                "tolerances": {"z2_condition": 1e-6},
            },
            findings={
                "spectrum": Finding(
                    "eigenspace invariance residual ~1.1e-7 against tol 1e-8 at "
                    "m=1024, and the canonical split stops on a residual ~1.8e-8 "
                    "with every dimension right; the eigenvalue oracle gap 3.1e-4 passes",
                    spectrum_residual_only,
                ),
            },
        ),
        # The only workload that reaches the torus module: a dense m x m
        # cosine per dual vector, and a materialized ensemble with its two
        # parity parts, which set the peak memory.
        Workload(
            name="torus-2d",
            config={
                "kernel": {"name": "torus_watson", "params": {"cutoff": 10}},
                "grid": {"kind": "torus", "n": [32, 32]},
                "samples": 20_000,
                "checks": ["stationarity", "torus_watson"],
            },
        ),
    )
}

# Small configs that a traced run passes through the tracer in a process of
# their own.  A probe figure stands in only for a per-layer metric that the
# workload's own trace leaves at 0 (a layer the workload does not reach); it
# is never added to the workload's figures.  Their check statuses are not
# judged: their sample counts are far below what the KS tolerances need.
PROBES = (
    Workload(
        name="probe-analytic",
        config={
            "kernel": {"name": "watson"},
            "grid": {"kind": "interval", "n": 32},
            "rho": 0.5,
            "n_max": 4,
            "checks": ["invariance", "decomposition", "spectrum", "watson_relation", "z2_condition"],
        },
    ),
    Workload(
        name="probe-duplication",
        config={
            "kernel": {"name": "watson"},
            "grid": {"kind": "interval", "n": 16},
            "samples": 2000,
            "checks": ["duplication"],
        },
    ),
    Workload(
        name="probe-torus",
        config={
            "kernel": {"name": "torus_watson", "params": {"cutoff": 1}},
            "grid": {"kind": "torus", "n": [4, 4]},
            "samples": 2000,
            "checks": ["stationarity", "torus_watson"],
        },
    ),
)
