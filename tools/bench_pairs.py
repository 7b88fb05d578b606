#!/usr/bin/env python3
"""Measure a change against its parent with the benchmark, in alternating pairs of runs.

Usage, from a checkout (PARENT and CHANGE are git revisions of this repository or directories):

    python3 tools/bench_pairs.py PARENT CHANGE [--pairs N] [--seconds S] [--seed K]
                                 [--workload W ...] [--out PATH]

Each side is copied into a scratch directory, ``parent`` and ``change``, two names of equal
length, without ``.git``, caches or compiled bytecode: a revision through ``git archive``, a
directory as its files stand.  For pair i (0 to N-1) and each workload W (by default every
workload of the parent's ``BENCHMARK.json``), both copies then run

    python3 perfbench/run.py --workload W --seed K+i --seconds S --trace 0

with ``PYTHONDONTWRITEBYTECODE=1``, so nothing is compiled and every run reads source; the
parent goes first in even pairs and the change in odd ones.  Peak RSS moves with the
compiled state (a compiled copy reads 1.3 to 2 MB lower, depending on the workload), so runs
read source, as a run in a fresh checkout does.

The record, written to PATH (or to stdout), holds both sides' revisions and the settings, and
per workload and metric each side's runs, median and quartiles (inclusive method), and
``change_better``: the pairs in which the change's value is better in the direction that
``BENCHMARK.json`` gives for that metric (a tie is not better).  Each run keeps its
``correct``, ``attempted`` and ``failed`` fields and its ``machine`` and ``host`` lines.  A
summary line per workload and metric goes to stderr:
``parent median -> change median [parent IQR] better/pairs``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")  # also the copies' directory names, of equal length
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", ".perfbench", ".pytest_cache", ".hypothesis", ".benchmarks"
)
RUN_TIMEOUT_S = 300  # perfbench/run.py ends a run within 180 s


def _git(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(cwd), *args], capture_output=True, timeout=120)


def materialize(source: str, dest: Path) -> dict:
    """Copy ``source``, a directory or a git revision of this repository, to ``dest``;
    returns what was copied."""
    path = Path(source)
    if path.is_dir():
        shutil.copytree(path, dest, ignore=SKIP)
        head = _git("rev-parse", "HEAD", cwd=path)
        status = _git("status", "--porcelain", cwd=path)
        return {
            "source": source,
            "kind": "directory",
            "commit": head.stdout.decode().strip() if head.returncode == 0 else None,
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
        }
    commit = _git("rev-parse", "--verify", f"{source}^{{commit}}")
    if commit.returncode != 0:
        raise SystemExit(f"{source}: neither a directory nor a git revision")
    tar = _git("archive", "--format=tar", commit.stdout.decode().strip())
    if tar.returncode != 0:
        raise SystemExit(f"git archive {source} failed: {tar.stderr.decode()}")
    dest.mkdir()
    kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, **kwargs)
    return {"source": source, "kind": "revision", "commit": commit.stdout.decode().strip()}


def bench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line, with its machine and host."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree.name}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    rec = json.loads(lines[-1])
    for line in lines:
        key = line.split(" ", 1)[0]
        if key in ("machine", "host"):
            rec[key] = json.loads(line[len(key) + 1 :])
    return rec


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def compare(pairs: list, better: dict) -> dict:
    """Per metric of one workload's ``pairs``: units, both sides' summaries, and the pairs
    in which the change is better."""
    out = {}
    for name, m in pairs[0]["parent"]["metrics"].items():
        sides = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        rec = {"unit": m["unit"], "better": better.get(name)}
        rec.update((s, summarize(v)) for s, v in sides.items())
        if name in better:
            sign = 1 if better[name] == "lower" else -1
            rec["change_better"] = sum(
                sign * (p - c) > 0 for p, c in zip(sides["parent"], sides["change"])
            )
        out[name] = rec
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="git revision or directory of the parent")
    parser.add_argument("change", help="git revision or directory of the change")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload")
    parser.add_argument("--seconds", type=int, default=2, help="measuring time of one run")
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i takes K+i")
    parser.add_argument("--workload", action="append", help="a workload to run (repeatable)")
    parser.add_argument("--out", type=Path, help="where to write the record (default: stdout)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1 or args.seed < 0:
        parser.error("--pairs and --seconds must be >= 1 and --seed >= 0")

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        revisions = {s: materialize(getattr(args, s), trees[s]) for s in SIDES}
        bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        runs: dict = {w: [] for w in workloads}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in workloads:
                pair = {"pair": i, "seed": args.seed + i, "first": order[0]}
                for s in order:
                    pair[s] = bench_run(trees[s], w, args.seed + i, args.seconds)
                runs[w].append(pair)
                print(f"pair {i} {w}: done", file=sys.stderr, flush=True)

    workload_records = {}
    for w, pairs in runs.items():
        metrics = compare(pairs, better)
        for pair in pairs:  # each run keeps correct, attempted, failed, machine and host
            for s in SIDES:
                del pair[s]["metrics"]
        workload_records[w] = {"metrics": metrics, "runs": pairs}
    record = {
        "parent": revisions["parent"],
        "change": revisions["change"],
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": args.seed,
        "env": {"PYTHONDONTWRITEBYTECODE": "1"},
        "workloads": workload_records,
    }
    for w, rec in record["workloads"].items():
        for name, m in rec["metrics"].items():
            p, c = m["parent"], m["change"]
            print(
                f"{w} {name}: {p['median']:.4g} -> {c['median']:.4g} {m['unit']} "
                f"[{p['q3'] - p['q1']:.3g}] {m.get('change_better', '-')}/{args.pairs}",
                file=sys.stderr,
            )
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
