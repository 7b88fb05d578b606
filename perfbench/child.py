"""One process of a benchmark run; started by run.py, never by hand.

    python3 child.py MODE RESULT.json [ARG ...]

MODE is ``setup`` (import only, report machine facts), ``run`` (one
``invdecomp run`` of the config ARG), ``trace`` (the same with per-layer
spans, and the tracer's own overhead), ``probe`` (one traced run of each
config ARG, all under the same spans) or ``sweep`` (RNG and factor cost of
the public sampling calls at fixed sizes; ARG is the seed).
The import time stamp is taken first, so that the parent can measure set-up
from its own spawn time stamp on the same monotonic clock.
"""

import time

import invdecomp.cli as cli

IMPORTED_AT = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SWEEP_SIZES = (64, 256, 1024)
SWEEP_COLUMNS = 4096  # one sampling block
SWEEP_REPEATS = 3


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {
            k: os.environ.get(k)
            for k in ("INVDECOMP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def sweep(seed: int) -> dict:
    """Median factor time and per-column sample cost of the watson kernel at each size."""
    import numpy as np
    from invdecomp.kernels import builtin_kernel, make_interval_grid
    from invdecomp.sampling import covariance_factor, sample

    out = {}
    for m in SWEEP_SIZES:
        kernel = builtin_kernel("watson", make_interval_grid(m))
        times = []
        for _ in range(SWEEP_REPEATS):
            t0 = time.perf_counter()
            factor = covariance_factor(kernel)
            times.append(time.perf_counter() - t0)
        out[f"sampling.factor_s.m{m}"] = (statistics.median(times), "s")
        times = []
        for _ in range(SWEEP_REPEATS):
            t0 = time.perf_counter()
            ens = sample(kernel, SWEEP_COLUMNS, seed, factor=factor)
            times.append(time.perf_counter() - t0)
            if not np.all(np.isfinite(ens.samples)):
                raise RuntimeError(f"non-finite samples at m={m}")
        out[f"sampling.us_per_column.m{m}"] = (1e6 * statistics.median(times) / SWEEP_COLUMNS, "us")
    return out


def main() -> None:
    mode, result_path = sys.argv[1], Path(sys.argv[2])
    result = {"imported_at": IMPORTED_AT}
    if mode == "setup":
        result["facts"] = machine_facts()
    elif mode in ("run", "trace", "probe"):
        tracer = None
        if mode != "run":
            from tracer import Tracer, install, wrapper_cost_s

            tracer = Tracer()
            install(tracer)
        if mode == "probe":
            result["exit_codes"] = [cli.main(["run", cfg]) for cfg in sys.argv[3:]]
        else:
            cpu0, t0 = time.process_time(), time.perf_counter()
            result["exit_code"] = cli.main(["run", sys.argv[3]])
            result["run_s"] = time.perf_counter() - t0
            result["cpu_s"] = time.process_time() - cpu0
        if tracer is not None:
            result["layers"] = tracer.metrics()
        if mode == "trace":
            overhead = sum(tracer.calls.values()) * wrapper_cost_s()
            result["layers"]["trace_overhead_s"] = (overhead, "s")
    elif mode == "sweep":
        result["layers"] = sweep(int(sys.argv[3]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
