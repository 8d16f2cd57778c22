"""doflab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 15 --trace 0

Run from anywhere; doflab is imported from ``src/`` next to this directory.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run and the tracing overhead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details (environment, report digests,
failures) go to ``.bench_out/`` and, in a traced run, the spans too.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter, process_time

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_LAUNCHES = 5
SETUP_CODE = "import doflab, doflab.cli; doflab.cli.build_parser()"


def import_cli():
    """``doflab.cli`` from this checkout's sources, or exit 1."""
    package = SRC / "doflab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no doflab sources at {package}")
    sys.path.insert(0, str(SRC))
    import doflab.cli
    if Path(doflab.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported doflab from {doflab.__file__}, not {package}")
    return doflab.cli


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup() -> list[dict]:
    """CPU and wall time of fresh interpreters that import doflab and build
    the parser, one entry per launch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    launches = []
    for _ in range(SETUP_LAUNCHES):
        cpu, wall = _children_cpu_s(), perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, timeout=60)
        launches.append({"cpu_s": _children_cpu_s() - cpu, "wall_s": perf_counter() - wall})
    return launches


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                    capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": commit,
    }


@dataclass
class Tally:
    """Ops attempted and failed, and the time they took, in one phase.

    Times are kept on two clocks: ``cpu`` is the CPU time of this process
    (all its threads), ``wall`` the elapsed time.  ``one_by_one`` says
    whether the workload's ops are timed one by one (see ``timings``).
    """

    one_by_one: bool = False
    attempted: int = 0
    failed: int = 0
    op_ms: dict[str, list[float]] = field(default_factory=lambda: {"cpu": [], "wall": []})
    cycle_s: dict[str, list[float]] = field(default_factory=lambda: {"cpu": [], "wall": []})
    cycle_ops: list[int] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    def timings(self, clock: str) -> dict[str, float]:
        """Median ops per second over cycles, and op latency.

        Where ops are timed one by one, ``op_p50_ms`` and ``op_p90_ms`` are
        quantiles of the single ops' times.  Elsewhere ``op_p50_ms`` is the
        median over cycles of the cycle's time per op: a lemma command runs
        many trials in one call, and a ``large-k`` cycle is one nsia and one
        zf op of very different cost, so a quantile of single samples would
        be set by whichever command sits in the middle.
        """
        pairs = list(zip(self.cycle_ops, self.cycle_s[clock]))
        timings = {"ops_per_s": statistics.median(n / s for n, s in pairs)}
        if self.one_by_one:
            p = statistics.quantiles(self.op_ms[clock], n=10, method="inclusive")
            timings.update(op_p50_ms=p[4], op_p90_ms=p[8])
        else:
            timings["op_p50_ms"] = statistics.median(s * 1e3 / n for n, s in pairs)
        return timings


def run_cycle(cli, ops: list[workloads.Op], tally: Tally, tracer=None) -> list[str]:
    """Run and check one cycle's ops in order; returns the report texts."""
    reports = []
    cycle = {"cpu": 0.0, "wall": 0.0}
    for op in ops:
        if tracer is not None:
            tracer.op_id = tally.attempted
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            wall, cpu = perf_counter(), process_time()
            rc = cli.run(op.argv)
            cpu, wall = process_time() - cpu, perf_counter() - wall
        reports.append(out.getvalue())
        failed, errors = workloads.check(op, rc, reports[-1], reports)
        tally.attempted += op.trials
        tally.failed += failed
        for clock, seconds in (("cpu", cpu), ("wall", wall)):
            cycle[clock] += seconds
            tally.op_ms[clock].append(seconds * 1e3 / op.trials)
        if errors and len(tally.failures) < 20:
            tally.failures.append({"argv": op.argv, "errors": errors,
                                   "stderr": err.getvalue()[-500:]})
    for clock, seconds in cycle.items():
        tally.cycle_s[clock].append(seconds)
    tally.cycle_ops.append(sum(op.trials for op in ops))
    return reports


def digests(ops: list[workloads.Op], reports: list[str]) -> dict:
    """SHA-256 of each report without its timestamp, and of all of them."""
    each = [hashlib.sha256(workloads.strip_timestamp(r).encode()).hexdigest()
            for r in reports]
    return {"all": hashlib.sha256("".join(each).encode()).hexdigest(),
            "ops": [{"argv": op.argv, "sha256": h} for op, h in zip(ops, each)]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    work = OUT / f"work-{args.workload}"
    work.mkdir(parents=True, exist_ok=True)
    setup = measure_setup() if not args.trace else []
    env = environment()

    def ops_of(index):
        return workloads.cycle(args.workload, args.seed, index, work)

    # Warm-up: the first cycle pays for page faults, lazy imports and the
    # first BLAS calls, none of which later ops see.
    warmup = Tally()
    run_cycle(cli, ops_of(-1), warmup)

    one_by_one = args.workload in workloads.TIMED_ONE_BY_ONE
    plain, traced, tracer = Tally(one_by_one=one_by_one), Tally(one_by_one=one_by_one), None
    first = None
    index, start = 0, perf_counter()
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    while index == 0 or perf_counter() - start < args.seconds:
        ops = ops_of(index)
        if tracer is None:
            reports = run_cycle(cli, ops, plain)
        else:
            # Each cycle runs untraced and traced, in alternating order, so
            # the overhead compares identical work.
            for on in ((False, True) if index % 2 == 0 else (True, False)):
                if on:
                    with tracer.active():
                        reports = run_cycle(cli, ops, traced, tracer)
                else:
                    reports = run_cycle(cli, ops, plain)
        if first is None:
            first = digests(ops, reports)
        index += 1

    attempted = warmup.attempted + plain.attempted + traced.attempted
    failed = warmup.failed + plain.failed + traced.failed
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
    cpu = plain.timings("cpu")
    wall = {"setup_s": statistics.median(s["wall_s"] for s in setup) if setup else None,
            **plain.timings("wall")}
    if tracer is None:
        # op_p90_ms is printed where it applies but is not a bounded metric:
        # only cli-small reports quantiles of single ops (TIMED_ONE_BY_ONE).
        metrics = {
            "setup_s": (statistics.median(s["cpu_s"] for s in setup), "s"),
            "ops_per_s": (cpu["ops_per_s"], "1/s"),
            "op_p50_ms": (cpu["op_p50_ms"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(traced.attempted)
        overhead = sum(traced.cycle_s["cpu"]) / sum(plain.cycle_s["cpu"]) - 1
        metrics["trace.overhead_pct"] = (100 * overhead, "%")
        tracer.write_spans(OUT / f"spans-{args.workload}.tsv")

    share = failed / attempted
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "cycles": index,
              "latency_samples": len(plain.op_ms["cpu"]), "setup_launches": setup,
              "op_p90_ms": cpu.get("op_p90_ms"), "wall_clock": wall,
              "failed_share": share, "reports_sha256_first_cycle": first,
              "failures": warmup.failures + plain.failures + traced.failures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  cycles {index}  "
          f"latency samples {len(plain.op_ms['cpu'])}")
    print("env " + json.dumps(env))
    print(f"reports_sha256 {first['all']}  (first cycle, {len(first['ops'])} reports)")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    if not tracer:
        print(f"{'op_p90_ms':44s} " + (f"{cpu['op_p90_ms']:14.6g} ms" if "op_p90_ms" in cpu else
                                      f"{'n/a':>14s} (single-op quantiles: cli-small only)"))
    for name, value in wall.items():
        if value is not None:
            print(f"{name + ' (wall clock)':44s} {value:14.6g} {units[name]}")
    print(f"{'failed_share':44s} {share:14.6g} ratio  ({failed} failed of {attempted} attempted)")
    for failure in detail["failures"][:5]:
        print("FAILED " + json.dumps(failure), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": detail["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
