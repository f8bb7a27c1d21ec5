#!/usr/bin/env python3
"""Benchmark trend file: medians of the end-to-end metrics of every workload.

For each workload and each of the seeds 1, 2 and 3, runs

    python3 perfbench/run.py --workload W --seed S --trace 0

in a fresh process at the benchmark's run length, so that every trend file
is taken the same way. It then writes one JSON file with the median of each
metric over the seeds, every run's value, the failed-op counts, and the
commit, Python, numpy and nproc that perfbench reports. It never passes
``--all``, which also rewrites BENCHMARK.json and perfbench/results/.
``--smoke`` runs seed 1 only, on tiny inputs and with no timed cycles beyond
the first; its file is not a trend point.
Exits 1 when a run fails or reports a failed op; the file is written anyway.

Usage: python scripts/bench.py --out BENCH_<n>.json [--smoke]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
sys.path.insert(0, str(RUN.parent))

import spec  # noqa: E402

SEEDS = (1, 2, 3)


def run_once(workload: str, seed: int, smoke: bool) -> tuple[dict, dict]:
    """The provenance and result objects of one untraced run."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if smoke:
        argv += ["--smoke", "--seconds", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    provenance = next(json.loads(line)["provenance"] for line in lines
                      if line.startswith('{"provenance"'))
    return provenance, json.loads(lines[-1])


def uncommitted_changes() -> bool | None:
    """Whether src/ or perfbench/ differ from the commit (None outside git):
    when they do, the commit alone does not name the measured code."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="trend file to write")
    parser.add_argument("--smoke", action="store_true",
                        help="seed 1 only, tiny inputs and no timed cycles")
    args = parser.parse_args()
    seeds = SEEDS[:1] if args.smoke else SEEDS

    ok, provenance, workloads = True, {}, {}
    for workload in spec.WORKLOADS:
        runs = {}
        for seed in seeds:
            try:
                provenance, runs[seed] = run_once(workload, seed, args.smoke)
            except (RuntimeError, subprocess.SubprocessError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                ok = False
                continue
            ok = ok and runs[seed]["failed"] == 0
        results = list(runs.values())
        metrics = {}
        for name, first in (results[0]["metrics"].items() if results else ()):
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {"median": statistics.median(values), "unit": first["unit"],
                             "values": values}
        workloads[workload] = {"seeds": list(runs),
                               "attempted": sum(r["attempted"] for r in results),
                               "failed": sum(r["failed"] for r in results),
                               "metrics": metrics}
        print(f"{workload}: {len(results)} runs, {workloads[workload]['failed']} of "
              f"{workloads[workload]['attempted']} ops failed", file=sys.stderr)
    report = {
        "commit": provenance.get("commit", "unknown"),
        "uncommitted_changes": uncommitted_changes(),
        "python": provenance.get("python"),
        "numpy": provenance.get("numpy"),
        "nproc": provenance.get("nproc"),
        "seconds": 0 if args.smoke else spec.RUN_SECONDS,
        "smoke": args.smoke,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
