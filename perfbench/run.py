#!/usr/bin/env python3
"""Benchmark of the check runner, ``invdecomp run``, end to end and per layer.

One run of one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload dup-1d-serial --seed 1 --seconds 10 --trace 0

A set of runs, every workload interleaved round-robin over seeds
SEED..SEED+ROUNDS-1, then one traced run of each workload:

    python3 perfbench/run.py --rounds 10 --seed 1

Each invocation is one ``invdecomp run`` of the workload's config in a fresh
Python process (``child.py``), with one worker (``INVDECOMP_THREADS=1``) and
``OPENBLAS_NUM_THREADS=1``.  The process gets only the generated config.
With ``--trace 0`` a run repeats invocations until ``--seconds`` have passed
and at least two have been made, and reports, from outside the program:

- ``run_s``: median wall seconds of the ``cli.main(["run", ...])`` call;
- ``setup_s``: median seconds from spawning a process until ``invdecomp.cli``
  is imported, over the invocations and at least one import-only process
  (more are added up to SETUP_SAMPLES samples);
- ``peak_rss_mb``: the largest ``ru_maxrss`` of the run's processes;
- ``check_pass_ratio``: passed checks / checks attempted.  An invocation
  that crashes, times out, is rejected (exit 2), reports a check status
  other than expected, or writes a ``report.json`` whose digest (ignoring
  ``generated_at``) differs from the other invocations counts all of its
  checks as failed, and so does one whose digest no other invocation of the
  run matched.

With ``--trace 1`` a run makes one untraced and one traced invocation and a
size sweep of the sampling layer, and reports per-layer self times and
counts (``tracer.py``).  ``trace_overhead_s`` is the traced process's wrapper
calls times the cost of one wrapper call, timed in that process.  A separate
traced process runs the small PROBES configs; a probe figure is reported
only for a per-layer metric that the workload's own trace left at 0.

The last line of standard output is the JSON result; the lines above it say
what was run, the host drift (steal jiffies from /proc/stat and the time of
a fixed reference loop) and the machine facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

from workloads import PROBES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

RUN_DEADLINE_S = 165.0  # a run must end within 180 s
SETUP_SAMPLES = 3


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        INVDECOMP_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def steal_jiffies():
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def reference_loop_s() -> float:
    """Best of three timings of a fixed pure-Python loop: the host's own speed."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def spawn(mode: str, cwd: Path, deadline: float, *args: str) -> dict:
    """Run child.py in a fresh process; the result dict, or {"error": ...}."""
    result_path, log_path = cwd / f"{mode}-result.json", cwd / f"{mode}.log"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(result_path), *args]
    with open(log_path, "w") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": f"{mode} process timed out"}
        wall = time.perf_counter() - t_spawn
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text()[-2000:]
        return {"error": f"{mode} process exited {proc.returncode}: {tail}"}
    res = json.loads(result_path.read_text())
    res["setup_s"] = res["imported_at"] - t_spawn
    res["wall_s"] = wall
    return res


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "generated_at"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def invoke(w, seed: int, mode: str, cwd: Path, deadline: float) -> dict:
    """One `invdecomp run` of the workload, judged against its expected checks."""
    out = cwd / "out"
    shutil.rmtree(out, ignore_errors=True)
    cfg = w.make_config(seed, "out")
    (cwd / "config.json").write_text(json.dumps(cfg))
    inv = spawn(mode, cwd, deadline, "config.json")
    inv["passed_checks"] = 0
    inv["problems"] = [inv["error"]] if "error" in inv else []
    if inv["problems"]:
        return inv
    if inv["exit_code"] == 2:
        inv["problems"].append("config rejected (exit 2)")
        return inv
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        inv["problems"].append(f"no readable report.json: {exc}")
        return inv
    inv["digest"] = report_digest(report)
    inv["report_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    checks = {c: report["checks"].get(c, {}) for c in cfg["checks"]}
    statuses = {c: rep.get("status") for c, rep in checks.items()}
    inv["passed_checks"] = sum(s == "passed" for s in statuses.values())
    for check, status in statuses.items():
        finding = w.findings.get(check)
        if status == "passed" or (status == "failed" and finding and finding.matches(checks[check])):
            continue
        inv["problems"].append(f"check {check}: {status}")
    all_passed = inv["passed_checks"] == len(statuses)
    if inv["exit_code"] != (0 if all_passed else 1):
        inv["problems"].append(f"exit code {inv['exit_code']} does not match the check statuses")
    if report["config"].get("seed") != cfg.get("seed"):
        inv["problems"].append("report seed differs from the config seed")
    return inv


def settle(invs: list) -> None:
    """Fail each invocation whose report digest no other invocation matched."""
    digests = Counter(i["digest"] for i in invs if not i["problems"])
    for i in invs:
        if not i["problems"] and digests[i["digest"]] < 2:
            i["problems"].append("no other invocation of the workload wrote the same report.json")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(w, seed: int, seconds: float, cwd: Path, deadline: float):
    t0 = time.perf_counter()
    invs = []
    while True:
        invs.append(invoke(w, seed, "run", cwd, deadline))
        now = time.perf_counter()
        last = invs[-1].get("wall_s", 0.0)
        if (now - t0 >= seconds and len(invs) >= 2) or now + 1.5 * last + 10.0 > deadline:
            break
    settle(invs)
    timed = [i for i in invs if "run_s" in i]
    if not timed:
        raise SystemExit(f"{w.name}: no invocation finished: {invs[0]['problems']}")
    setups = [i["setup_s"] for i in timed]
    facts = None
    while facts is None or len(setups) < SETUP_SAMPLES:
        res = spawn("setup", cwd, deadline)
        if "error" in res:
            raise SystemExit(f"{w.name}: {res['error']}")
        setups.append(res["setup_s"])
        facts = res["facts"]
    failed = [i for i in invs if i["problems"]]
    n_checks = len(w.config["checks"])
    attempted_checks = n_checks * len(invs)
    passed_checks = sum(i["passed_checks"] for i in invs if not i["problems"])
    run_samples = [i["run_s"] for i in timed]
    print(f"invocations: {len(invs)}; run_s samples: {[round(x, 4) for x in run_samples]}")
    print(f"setup_s samples: {[round(x, 4) for x in setups]}")
    print(
        f"check_fail_ratio: {(attempted_checks - passed_checks) / attempted_checks:.4f} "
        f"({attempted_checks - passed_checks} of {attempted_checks} checks failed)"
    )
    print("machine " + json.dumps(facts, sort_keys=True))
    metrics = {
        "run_s": metric(statistics.median(run_samples), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(max(i["rss_mb"] for i in timed), "MB"),
        "check_pass_ratio": metric(passed_checks / attempted_checks, "ratio"),
    }
    return invs, failed, metrics


def run_traced(w, seed: int, cwd: Path, deadline: float):
    plain = invoke(w, seed, "run", cwd, deadline)
    traced = invoke(w, seed, "trace", cwd, deadline)
    settle([plain, traced])
    probe_configs = []
    for p in PROBES:
        path = cwd / f"{p.name}.json"
        path.write_text(json.dumps(p.make_config(seed, f"probe-out/{p.name}")))
        probe_configs.append(path.name)
    probe = spawn("probe", cwd, deadline, *probe_configs)
    sweep = spawn("sweep", cwd, deadline, str(seed))
    for i in (probe, sweep):
        i["problems"] = [i["error"]] if "error" in i else []
    if 2 in probe.get("exit_codes", []):
        probe["problems"].append(f"a probe config was rejected: exit codes {probe['exit_codes']}")
    invs = [plain, traced, probe, sweep]
    failed = [i for i in invs if i["problems"]]
    if "layers" not in traced or "run_s" not in plain or probe["problems"] or sweep["problems"]:
        raise SystemExit(f"{w.name}: traced run incomplete: {[i['problems'] for i in invs]}")
    layers = dict(traced["layers"])
    from_probes = sorted(
        k for k, (v, _) in layers.items() if v == 0 and probe["layers"].get(k, (0,))[0] != 0
    )
    layers.update((k, probe["layers"][k]) for k in from_probes)
    layers.update(sweep["layers"])
    layers["cli.run_cpu_s"] = (plain["cpu_s"], "s")
    layers["cli.report_bytes"] = (plain.get("report_bytes", 0), "bytes")
    spans = sorted(
        ((v, k) for k, (v, u) in traced["layers"].items() if u == "s" and k != "trace_overhead_s"),
        reverse=True,
    )
    print(f"untraced run_s {plain['run_s']:.4f}; traced run_s {traced['run_s']:.4f}")
    print(f"layers not on this workload's path, reported from the probes: {from_probes}")
    print("self time of the traced run, largest first:")
    for v, k in spans[:8]:
        print(f"  {k:32s} {v:9.4f} s  {100 * v / traced['run_s']:5.1f}%")
    metrics = {k: metric(v, u) for k, (v, u) in sorted(layers.items())}
    return invs, failed, metrics


def one_run(args) -> int:
    w = WORKLOADS[args.workload]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    print(f"workload {w.name} seed {args.seed} trace {args.trace}")
    WORK.mkdir(exist_ok=True)
    steal0, ref_loop = steal_jiffies(), reference_loop_s()
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{w.name}-") as tmp:
        if args.trace:
            invs, failed, metrics = run_traced(w, args.seed, Path(tmp), deadline)
        else:
            invs, failed, metrics = run_untraced(w, args.seed, args.seconds, Path(tmp), deadline)
    steal1 = steal_jiffies()
    host = {
        "ref_loop_s": ref_loop,
        "steal_jiffies": None if steal0 is None or steal1 is None else steal1 - steal0,
    }
    print("host " + json.dumps(host, sort_keys=True))
    for i in failed:
        print(f"FAILED: {'; '.join(i['problems'])}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not failed,
        "attempted": len(invs),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def sub_run(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout}\n{proc.stderr}")
    rec = json.loads(lines[-1])
    for line in lines:
        for key in ("host", "machine"):
            if line.startswith(key + " "):
                rec[key] = json.loads(line[len(key) + 1:])
    rec.update(workload=name, seed=seed, trace=trace)
    return rec


def run_set(args) -> int:
    """Every workload round-robin over seeds, then one traced run each."""
    bench_path = ROOT / "BENCHMARK.json"
    bounds = {}
    if bench_path.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(bench_path.read_text())["end_to_end"]}
    names = list(WORKLOADS)
    runs = []
    for r in range(args.rounds):
        for name in names:
            rec = sub_run(name, args.seed + r, args.seconds, 0)
            runs.append(rec)
            values = ", ".join(f"{k}={m['value']:.4f}" for k, m in rec["metrics"].items())
            print(f"round {r} {name}: {values}; host {rec['host']}", flush=True)
    traced = [sub_run(name, args.seed, args.seconds, 1) for name in names]

    print("machine " + json.dumps(runs[0]["machine"], sort_keys=True))
    print(f"\n{'workload':15s} {'metric':17s} {'unit':6s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for name in names:
        recs = [r for r in runs if r["workload"] == name]
        bad = sum(r["failed"] for r in recs)
        for key in recs[0]["metrics"]:
            vals = [r["metrics"][key]["value"] for r in recs]
            unit = recs[0]["metrics"][key]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{name:15s} {key:17s} {unit:6s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:7.3f} {bounds.get(key, float('nan')):6.2f}")
        print(f"{name:15s} runs {len(recs)}, incorrect {sum(not r['correct'] for r in recs)}, "
              f"failed invocations {bad}")
    for rec in traced:
        print(f"\ntraced {rec['workload']} (correct {rec['correct']}):")
        for key, m in rec["metrics"].items():
            print(f"  {key:34s} {m['value']:14.6g} {m['unit']}")

    out_dir = WORK / "sets"
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    path = out_dir / f"set-{stamp}.json"
    path.write_text(json.dumps({"runs": runs, "traced": traced}, indent=1))
    print(f"\nrecord: {path}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one run of this workload")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (first seed of a set)")
    parser.add_argument("--seconds", type=int, default=10, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=3, help="rounds of a set (no --workload)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "invdecomp" / "cli.py").is_file():
        print(f"no invdecomp sources under {SRC}", file=sys.stderr)
        return 2
    return one_run(args) if args.workload else run_set(args)


if __name__ == "__main__":
    sys.exit(main())
