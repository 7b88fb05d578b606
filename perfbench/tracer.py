"""Per-layer spans recorded from outside the program.

``install`` wraps public functions of each invdecomp module and rebinds every
module-level name that refers to them, so that calls through names imported
elsewhere (``cli`` imports ``pair_functional``, ``cumulants`` imports
``weighted_traces``) are traced too.  Each thread keeps its own span stack:
a span's self time is its duration minus the durations of the spans it
called on the same thread.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
import time
from collections import defaultdict

# (module, attribute) -> span name; a dotted attribute is a method
SPANS = {
    ("invdecomp.cli", "main"): "cli.main",
    ("invdecomp.cli", "validate_config"): "cli.validate_s",
    ("invdecomp.cli", "write_report"): "cli.report_s",
    ("invdecomp.sampling", "pair_functional"): "sampling.pair_functional_s",
    ("invdecomp.sampling", "sample"): "sampling.sample_s",
    ("invdecomp.sampling", "covariance_factor"): "sampling.factor_s",
    ("invdecomp.sampling", "compare_distributions"): "sampling.stats_s",
    ("invdecomp.kernels", "Kernel.__post_init__"): "kernels.psd_check_s",
    ("invdecomp.kernels", "contract_power"): "kernels.contract_power_s",
    ("invdecomp.kernels", "weighted_traces"): "kernels.weighted_traces_s",
    ("invdecomp.kernels", "project_kernel"): "kernels.project_kernel_s",
    ("invdecomp.kernels", "check_invariance"): "kernels.check_invariance_s",
    ("invdecomp.spectral", "eigendecompose"): "spectral.eigendecompose_s",
    ("invdecomp.spectral", "canonical_decomposition"): "spectral.canonical_s",
    ("invdecomp.spectral", "check_eigenspace_invariance"): "spectral.invariance_s",
    ("invdecomp.cumulants", "analytic_cumulants"): "cumulants.analytic_s",
    ("invdecomp.cumulants", "watson_relation_check"): "cumulants.watson_relation_s",
    ("invdecomp.cumulants", "z2_condition_check"): "cumulants.z2_s",
    ("invdecomp.torus", "assemble_kernel"): "torus.assemble_s",
    ("invdecomp.torus", "torus_watson"): "torus.kernel_s",
    ("invdecomp.torus", "stationarity_spread"): "torus.stationarity_s",
    ("invdecomp.torus", "parity_decompose"): "torus.parity_s",
    ("invdecomp.torus", "torus_watson_check"): "torus.check_s",
    ("invdecomp.groups", "project_path"): "groups.project_path_s",
    ("invdecomp.groups", "character_table"): "groups.character_table_s",
}


class Tracer:
    """Self time and call count per span name, plus work counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.columns = 0  # normal columns drawn: count x streams
        self.apply_flop = 0.0  # 2 m^2 per column drawn
        self.dense_bytes = 0  # torus kernels, ensembles and parity parts

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_return=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with self._lock:
                    self.self_s[name] += dt - children[0]
                    self.calls[name] += 1
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    on_return(self, bound.arguments, result)
            return result

        return traced

    def metrics(self) -> dict:
        """Per-layer metrics of the traced run, as {name: (value, unit)}."""
        out = {}
        for name in SPANS.values():
            if name != "cli.main":
                out[name] = (self.self_s[name], "s")
        rng_apply = self.self_s["sampling.pair_functional_s"] + self.self_s["sampling.sample_s"]
        out["sampling.columns"] = (self.columns, "count")
        out["sampling.us_per_column"] = (
            1e6 * rng_apply / self.columns if self.columns else 0.0,
            "us",
        )
        out["sampling.factor_calls"] = (self.calls["sampling.factor_s"], "count")
        out["sampling.apply_gflop"] = (self.apply_flop / 1e9, "GFLOP")
        out["kernels.psd_checks"] = (self.calls["kernels.psd_check_s"], "count")
        out["torus.dense_bytes"] = (self.dense_bytes, "bytes")
        return out


def wrapper_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Median extra seconds one traced call costs over a bare call, timed here."""

    def noop(a, b=None):
        return a

    traced = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i, b=i)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(i, b=i)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _count_pair(tr: Tracer, a: dict, result) -> None:
    cols = a["count"] * len(a["streams"])
    tr.columns += cols
    tr.apply_flop += 2.0 * a["kernel"].size ** 2 * cols


def _count_sample(tr: Tracer, a: dict, result) -> None:
    tr.columns += a["count"]
    tr.apply_flop += 2.0 * a["kernel"].size ** 2 * a["count"]


def _count_kernel(tr: Tracer, a: dict, result) -> None:
    tr.dense_bytes += result.matrix.nbytes


def _count_parity(tr: Tracer, a: dict, result) -> None:
    tr.dense_bytes += a["ensemble"].samples.nbytes + sum(p.samples.nbytes for p in result)


ON_RETURN = {
    "sampling.pair_functional_s": _count_pair,
    "sampling.sample_s": _count_sample,
    "torus.assemble_s": _count_kernel,
    "torus.kernel_s": _count_kernel,
    "torus.parity_s": _count_parity,
}


def install(tracer: Tracer) -> None:
    """Wrap every span in SPANS, under every module-level name bound to it."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "invdecomp"]
    for (modname, attr), name in SPANS.items():
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), ON_RETURN.get(name)))
            continue
        orig = getattr(mod, attr)
        traced = tracer.wrap(name, orig, ON_RETURN.get(name))
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, traced)
