"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/steadiness.py --workloads enum5,posets6 --runs 10 [--out FILE]

For every workload it runs ``run.py`` with seeds 0..runs-1 (one fresh
process each, one after another) and reports, per metric, the median of
the runs and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of that median.  With
``--out`` the per-run values, summaries and environment are written as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return env, json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    record = {"runs": {}, "summary": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.runs):
            env, result = one_run(workload, seed, args.seconds)
            results.append(result)
            record["env"] = {k: env[k] for k in ("python", "nproc", "commit", "seconds")}
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for key in results[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in results]
            summary[key] = {"median": statistics.median(values), "spread": spread(values)}
            print(f"  {workload} {key}: median={summary[key]['median']:.4g} "
                  f"spread={summary[key]['spread']:.3f} bound={bounds[key]}")
        record["runs"][workload] = {
            "seeds": list(range(args.runs)),
            "results": results,
        }
        record["summary"][workload] = summary
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
