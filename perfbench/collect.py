"""Repeat the benchmark over seeds and summarise every metric.

    python3 perfbench/collect.py [--trace-runs 3] [--output PATH]

Runs the command of BENCHMARK.json for every workload with seeds 1 to 10,
the workloads interleaved, and prints for each end-to-end metric its median,
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread as
a share of the median, next to the metric's bound.  ``--trace-runs`` adds
traced runs and the medians of the per-layer metrics.  With ``--output``
the summary, with the environment, is also written as JSON; that is how
``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
FIRST_SEED = 1


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return json.loads(lines[-1]), env


def summarise(results: list[dict], bounds: dict) -> dict:
    summary = {"runs": len(results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "all_correct": all(r["correct"] for r in results), "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary["metrics"][name] = {
            "unit": results[0]["metrics"][name]["unit"], "median": median,
            "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name), "values": values}
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--output", type=Path)
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    plain = {name: [] for name in names}
    traced = {name: [] for name in names}
    env = None
    for i in range(max(RUNS, args.trace_runs)):
        seed = FIRST_SEED + i
        for name in names:
            for trace, sink in ((0, plain), (1, traced)):
                if i < (args.trace_runs if trace else RUNS):
                    result, env = run_once(spec, name, seed, trace)
                    sink[name].append(result)
                    print(f"{name} seed {seed} trace {trace}: " + " ".join(
                        f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                        if not trace or k == "trace.overhead_pct"), flush=True)

    report = {"environment": env, "run_seconds": spec["run_seconds"],
              "first_seed": FIRST_SEED, "workloads": {}}
    for name in names:
        entry = report["workloads"][name] = {}
        if plain[name]:
            entry["end_to_end"] = summarise(plain[name], bounds)
            for metric, s in entry["end_to_end"]["metrics"].items():
                verdict = ("-" if metric == "setup_s" else
                           "ok" if s["spread"] < s["bound"] / 3 else "WIDE")
                print(f"{name:10s} {metric:12s} median {s['median']:12.6g} {s['unit']:4s} "
                      f"spread {s['spread']:.4f} bound {s['bound']} {verdict}")
        if traced[name]:
            layers = summarise(traced[name], {})
            entry["per_layer"] = {k: {"unit": v["unit"], "median": v["median"]}
                                  for k, v in layers["metrics"].items()}
    if args.output:
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
