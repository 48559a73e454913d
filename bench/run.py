"""ufgkit benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload enum5 --seed 0 --seconds 20 --trace 0

Runs closed-loop batch jobs of the workload, one at a time in this
process, until their summed solve time reaches ``--seconds``.  Every job
gets fresh input objects and its output is checked outside the timed
region.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics ``setup_s`` (median over fresh
  processes that start Python, import ufgkit and build the inputs),
  ``solve_s`` (median job time) and ``peak_rss_mb``.
- ``--trace 1``: the per-layer metrics, from jobs run with every layer
  wrapped in spans (see ``spans.py``), alternating with untraced jobs
  that give ``trace.overhead_ratio``.

Lines before the last describe the environment and the samples.
See ``bench/README.md`` for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (the benchmark's own modules, beside this file)
import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402

SETUP_PROBES = 11

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = HERE.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
    }


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(rescaled, wall) times of fresh processes that import ufgkit and build the inputs."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        done = subprocess.run(cmd, check=True, capture_output=True, text=True)
        wall = perf_counter() - t0
        scale, spent = map(float, done.stdout.split())
        wall -= spent
        times.append((wall * scale, wall))
    return times


class Batch:
    """Closed-loop jobs of one workload, each checked as soon as it ends."""

    def __init__(self, wl, inp, ref):
        self.wl, self.inp, self.ref = wl, inp, ref
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0  # wall time of every job, failed ones too

    def job(self, rec=None) -> tuple[float, float] | None:
        """Run one job, traced into ``rec`` when given.

        Returns the solve time rescaled to the reference machine speed
        (see ``speed.py``) and the raw wall time, or None when the job
        raised or its output failed the check.
        """
        wl = self.wl
        prepared = wl.prepare(self.inp)
        gc.collect()
        self.attempted += 1
        t0 = perf_counter()
        try:
            with Speedometer() as speed, (nullcontext() if rec is None else spans.traced(rec)):
                t0 = perf_counter()
                out = wl.run(prepared)
                wall = perf_counter() - t0
        except Exception:
            self.elapsed += perf_counter() - t0
            traceback.print_exc()
            self.failed += 1
            return None
        wall -= speed.spent_s
        self.elapsed += wall
        try:
            ok = wl.check(self.inp, out, self.ref)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += 1
            return None
        return wall * speed.scale(), wall


def summarize(label: str, samples: list[float]) -> str:
    return (f"{label} samples={len(samples)} median={statistics.median(samples):.4f} "
            f"min={min(samples):.4f} max={max(samples):.4f}")


def end_to_end(args, batch) -> dict:
    setup = measure_setup(args.workload, args.seed)
    jobs = []
    while batch.elapsed < args.seconds:
        sample = batch.job()
        if sample:
            jobs.append(sample)
    if not jobs:
        raise SystemExit("error: every job failed")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    solve = [s for s, _ in jobs]
    setup_s = [s for s, _ in setup]
    print(summarize("solve_s", solve))
    print(summarize("solve wall s", [w for _, w in jobs]))
    print(summarize("setup_s", setup_s))
    print(summarize("setup wall s", [w for _, w in setup]))
    values = {
        "setup_s": statistics.median(setup_s),
        "solve_s": statistics.median(solve),
        "peak_rss_mb": peak_mb,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCHMARK["end_to_end"]}


def per_layer(args, batch) -> dict:
    """Untraced and traced jobs in turn, at least two of each."""
    plain, traced, layers = [], [], []
    turn = 0
    while batch.elapsed < args.seconds or turn < 4:
        if turn % 2 == 0:
            sample = batch.job()
            if sample:
                plain.append(sample)
        else:
            rec = spans.SpanRecorder()
            sample = batch.job(rec)
            if sample:
                traced.append(sample)
                layers.append(spans.layer_metrics(rec, jobs=1))
            del rec
        turn += 1
    if not plain or not traced:
        raise SystemExit("error: every untraced or every traced job failed")
    print(summarize("untraced solve_s", [s for s, _ in plain]))
    print(summarize("untraced solve wall s", [w for _, w in plain]))
    print(summarize("traced solve_s", [s for s, _ in traced]))
    values = {key: statistics.median(row[key] for row in layers) for key in layers[0]}
    values["trace.overhead_ratio"] = (
        statistics.median(s for s, _ in traced) / statistics.median(s for s, _ in plain)
    )
    values["solve.wall_s"] = statistics.median(w for _, w in plain)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCHMARK["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads.load_package()
    except ImportError as exc:
        print(f"error: cannot load ufgkit from this checkout: {exc}", file=sys.stderr)
        return 1
    wl = workloads.WORKLOADS[args.workload]
    inp = wl.inputs(args.seed)
    batch = Batch(wl, inp, wl.reference(inp, workloads.load_references()))

    print("env " + json.dumps(environment(args), sort_keys=True))
    metrics = (per_layer if args.trace else end_to_end)(args, batch)
    print(f"fail_ratio={batch.failed / batch.attempted:.4f} "
          f"({batch.failed} of {batch.attempted} checked outputs)")
    print(json.dumps({
        "correct": batch.failed == 0,
        "attempted": batch.attempted,
        "failed": batch.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
