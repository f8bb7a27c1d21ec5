#!/usr/bin/env python3
"""forestgen benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload canopy --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1

A workload run chooses its inputs from ``--seed``, sets up (import,
template library build/save/load, input files) several times, runs one
reference cycle of ops, then repeats op cycles until ``--seconds`` have
passed. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced cycles and prints the
per-layer metrics. The last line of stdout is the result object.

``--all`` runs every workload, untraced and traced, each in a fresh
process, prints every metric, writes the results under
``perfbench/results/`` and rewrites ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# one BLAS/OpenMP thread: the machine is small and the loop has one caller
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_REPS = 9
# seconds of one Calibration.sample() at the reference host speed
CALIBRATION_REF_S = 0.015
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import forestgen; "
                 "print(time.perf_counter() - t)")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    parser.add_argument("--spans", help="also write every span as JSON lines to this file")
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload is required unless --all is given")
    return args


def high_percentile(samples: list[float]) -> tuple[str, float] | None:
    """The highest of PERCENTILES with at least ten samples above it
    (nearest rank), or None when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in PERCENTILES:
        rank = max(1, -(-q * n // 100))  # ceil(q n / 100)
        if n - int(rank) >= 10:
            return f"p{q:g}", ordered[int(rank) - 1]
    return None


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    # no search for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    env.pop("GIT_DIR", None)
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, numpy_version: str, runner) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "threads": {v: os.environ[v] for v in _THREAD_VARS},
        "cycles": runner.cycles,
        "ops_attempted": runner.attempted,
        "ops_timed": {kind: len(samples) for kind, samples in runner.times.items()},
    }


def import_seconds() -> float:
    """``import forestgen`` in a fresh interpreter, as every CLI call pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


class Calibration:
    """A fixed mix of the work forestgen's ops do, none of it forestgen's
    code: scalar-sized numpy calls and draws in a Python loop, float
    formatting and parsing, and passes over a preallocated array.

    The host this benchmark was tuned on (2 shared vCPUs) runs the same code
    up to 1.8x slower for seconds to minutes at a time, and an op shares the
    slowdown of the moments around it. So the kernel runs right before and
    right after each timed op, and the op's time is divided by the mean of
    those two samples and multiplied by ``CALIBRATION_REF_S``: it reads as
    seconds at a reference host speed. A change to forestgen moves it in
    full, since this code never changes with it.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.points = rng.uniform(size=(300, 3))
        self.block = rng.uniform(size=(20_000, 4, 3))
        self.out = np.empty_like(self.block)
        self.samples: list[float] = []

    def sample(self) -> float:
        """Seconds of one run of the kernel."""
        np = self.np
        gc.collect()  # so the kernel pays for no garbage the op left behind
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        acc = 0.0  # the results are thrown away; only the time counts
        for i in range(200):
            c, s = math.cos(i * 0.01), math.sin(i * 0.01)
            r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            acc += float((self.points @ r.T).sum()) + rng.standard_exponential()
        text = "\n".join(f"vertex {x:.9g} {y:.9g} {z:.9g}" for x, y, z in self.block[:2000, 1])
        acc += sum(float(t) for t in text.split()[1::4])
        for _ in range(10):
            np.multiply(self.block, 1.5, out=self.out)
            acc += float(self.out.sum())
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


class Runner:
    """Set-ups and op cycles of one workload, with their timings and failures.

    ``times`` holds each untraced op's seconds; ``scaled`` the same seconds
    at the reference host speed (see Calibration), which the end-to-end
    metrics are medians of.
    """

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.ops = []
        self.attempted = self.failed = self.cycles = 0
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = {"setup_s": []}
        self.scaled: dict[str, list[float]] = {"setup_s": []}
        self.cycle_times: dict[bool, list[float]] = {False: [], True: []}
        # sha256 of each output of the last cycle run in the measured mode
        # (traced cycles when tracing), keyed "op kind:file name"
        self.output_hashes: dict[str, bytes] = {}
        self.calibration = Calibration()

    def tally(self, problems: list[str]):
        """Count one checked op or check; any problem fails it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def _record(self, kind: str, elapsed: float, before: float) -> float:
        """Store one sample of ``kind``; return the calibration sample after it."""
        after = self.calibration.sample()
        self.times[kind].append(elapsed)
        self.scaled[kind].append(elapsed * CALIBRATION_REF_S / ((before + after) / 2))
        return after

    def setup(self, reps: int):
        before = self.calibration.sample()
        for rep in range(reps):
            import_s = import_seconds()
            start = time.perf_counter()
            if self.tracer is None:
                self.wl.setup()
            else:
                self.tracer.op = (rep, "setup")
                with self.tracer.installed(), self.tracer.span("op.setup"):
                    self.wl.setup()
            before = self._record("setup_s", import_s + time.perf_counter() - start, before)
        self.ops = self.wl.ops()
        for op in self.ops:
            self.times[op.kind] = []
            self.scaled[op.kind] = []

    def cycle(self, index: int, traced: bool, record: bool):
        total = 0.0
        scale = record and not traced
        before = self.calibration.sample() if scale else None
        for op in self.ops:
            gc.collect()  # so no op pays for a collection the previous one set up
            start = time.perf_counter()
            try:
                if traced:
                    self.tracer.op = (index, op.kind)
                    with self.tracer.installed(), self.tracer.span(f"op.{op.kind}"):
                        result = op.run()
                else:
                    result = op.run()
                elapsed = time.perf_counter() - start
                found = op.check(result)
                if traced == (self.tracer is not None):
                    self.output_hashes.update((f"{op.kind}:{name}", hashlib.sha256(data).digest())
                                              for name, data in result.outputs.items())
            except Exception as exc:  # an op that raises is a failed op
                elapsed = time.perf_counter() - start
                found = [f"{op.kind}: raised {type(exc).__name__}: {exc}"]
            total += elapsed
            self.tally(found)
            if scale:
                before = self._record(op.kind, elapsed, before)
        if record:
            self.cycle_times[traced].append(total)

    def run(self, seconds: float):
        # reference cycle: warms caches, records the outputs later cycles must repeat
        self.cycle(-1, traced=False, record=False)
        self.tally(self.wl.roundtrip_problems())
        # traced runs alternate untraced and traced cycles, so the overhead
        # ratio compares cycles run under the same conditions
        min_cycles = 1 if self.tracer is None else 2
        start = time.perf_counter()
        while self.cycles < min_cycles or time.perf_counter() - start < seconds:
            self.cycle(self.cycles, traced=self.tracer is not None and self.cycles % 2 == 1,
                       record=True)
            self.cycles += 1


def end_to_end_metrics(runner, units: dict, ipp_reps: int) -> dict:
    """Medians of the scaled samples (see Calibration), and peak memory."""
    cal = runner.calibration.samples
    print(f"  calibration kernel: median {statistics.median(cal):.6g} s, min {min(cal):.6g} s, "
          f"n={len(cal)}, reference {CALIBRATION_REF_S} s")
    metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for kind, samples in runner.scaled.items():
        if kind not in units:
            continue
        median = statistics.median(samples)
        metrics[kind] = ipp_reps / median if kind == "ipp_reps_per_s" else median
        hi = high_percentile(samples)
        tail = f", {hi[0]} {hi[1]:.6g} s" if hi else ""
        print(f"  {kind}: {metrics[kind]:.6g} {units[kind]} (scaled median {median:.6g} s"
              f"{tail}, n={len(samples)}; unscaled median "
              f"{statistics.median(runner.times[kind]):.6g} s)")
    print(f"  peak_rss_mb: {metrics['peak_rss_mb']:.6g} MB")
    print(f"  fail_ratio: {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted} ops)")
    return metrics


def per_layer_metrics(runner, names: list[str]) -> dict:
    metrics = spans.layer_metrics(runner.tracer.spans, names)
    metrics["trace.overhead_ratio"] = (statistics.median(runner.cycle_times[True])
                                       / statistics.median(runner.cycle_times[False]))
    for label, prefixes in (
            ("tree+transform+lsystem", ("tree.", "transform.", "lsystem.")),
            ("min_distance_filter+scene_stats",
             ("ipp.min_distance_filter", "forest.scene_stats"))):
        share = spans.self_share(runner.tracer.spans, "scene_s", prefixes)
        print(f"  share of traced scene_s in {label} self time: {share:.3f}")
    return metrics


def run_workload(args) -> int:
    if not (SRC / "forestgen" / "__init__.py").is_file():
        print(f"error: forestgen sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    import forestgen
    if Path(forestgen.__file__).resolve().parent != SRC / "forestgen":
        print(f"error: imported forestgen from {forestgen.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy

    import workloads

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        wl = workloads.Workload(args.workload, args.seed, Path(tmp), smoke=args.smoke)
        wl.choose_scene_seed()
        runner = Runner(wl, spans.Tracer() if args.trace else None)
        runner.setup(SETUP_REPS)
        runner.run(spec.RUN_SECONDS if args.seconds is None else args.seconds)
    if args.trace:
        silent = spans.silent_layers(runner.tracer.spans, workloads.IDLE_LAYERS[args.workload])
        runner.tally([f"traced run: no calls recorded for {name}" for name in silent])

    print(json.dumps({"provenance": provenance(args, numpy.__version__, runner)}))
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed}: {runner.cycles} cycles, scene seed "
          f"{wl.scene_seed} ({wl.scene_trees} trees), output sha256 "
          f"{workloads.digest(runner.output_hashes)} (last {mode} cycle)")
    for problem in runner.problems[:20]:
        print(f"FAIL {problem}")
    units = {name: unit for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER}
    if args.trace:
        names = [name for name, *_ in spec.PER_LAYER]
        metrics = per_layer_metrics(runner, names)
        if args.spans:
            runner.tracer.dump(args.spans)
    else:
        names = [name for name, *_ in spec.END_TO_END]
        metrics = end_to_end_metrics(runner, units, wl.sizes.ipp_reps)
    missing = [name for name in names if name not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    report = {}
    ok = True
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--trace", str(trace)]
            if args.seconds is not None:
                argv += ["--seconds", str(args.seconds)]
            if args.smoke:
                argv.append("--smoke")
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            report.setdefault(name, {})["traced" if trace else "untraced"] = result
    print(f"{'workload':14s} {'metric':34s} {'value':>14s} unit")
    for name, modes in report.items():
        for mode in ("untraced", "traced"):
            for metric, v in modes.get(mode, {}).get("metrics", {}).items():
                print(f"{name:14s} {metric:34s} {v['value']:14.6g} {v['unit']}")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"bench-seed{args.seed}.json"
    out.write_text(json.dumps({"commit": git_commit(), "seed": args.seed, "results": report},
                              indent=2) + "\n")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    print(f"results: {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
