"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For a tiny size of each workload it checks that every op passes, that a
deliberately wrong expectation is counted as a failed op, and that the
tracer records the layers the workload exercises, nests spans within
their own thread and restores every function it patched.  Exits 1 and
lists the problems if any check fails.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import run
import workloads
from tracer import Tracer

# Spans each tiny workload must record, including calls made through
# aliases (simulation.build_nsia) and from the lemma thread pool.
MUST_TRACE = {
    "cli-small": ("cli.run", "cli.build_parser", "cli.render_report",
                  "bounds.dof_outer_bound", "network.channel_set_to_dict",
                  "network.channel_set_from_dict", "kernel.slogdet"),
    "lemma-mc": ("simulation.monte_carlo_lemma1", "simulation.monte_carlo_lemma2",
                 "linalg.seeded_rng", "linalg.intersection_dim",
                 "schemes.build_nsia", "network.generate_channels"),
    "large-k": ("simulation.estimate_dof_slope", "schemes.build_nsia",
                "schemes.build_zf_precoders", "kernel.svd", "kernel.eigvalsh"),
}


def wrong_expectation(op: workloads.Op) -> workloads.Op:
    """A copy of ``op`` whose expected result is off by one."""
    expect = copy.deepcopy(op.expect)
    if "final_bound" in expect:
        expect["final_bound"] = str(int(expect["final_bound"]) + 1)
    if "passes" in expect:
        expect["passes"] += 1
    if "slope" in expect:
        expect["slope"][0] += 1
    return dataclasses.replace(op, expect=expect)


def check_workload(cli, name: str, work) -> list[str]:
    problems = []
    ops = workloads.cycle(name, 7, 0, work, tiny=True)
    good = run.Tally()
    run.run_cycle(cli, ops, good)
    if good.failed or not good.attempted:
        problems.append(f"{name}: {good.failed} of {good.attempted} ops failed: "
                        f"{good.failures}")

    bad = run.Tally()
    run.run_cycle(cli, [wrong_expectation(ops[0]), *ops[1:]], bad)
    if not bad.failed / bad.attempted > 0:
        problems.append(f"{name}: a wrong expectation left failed_share at 0")

    originals = {attr: getattr(cli, attr) for attr in ("run", "build_parser")}
    tracer = Tracer()
    traced = run.Tally()
    with tracer.active():
        run.run_cycle(cli, ops, traced, tracer)
    if any(getattr(cli, attr) is not fn for attr, fn in originals.items()):
        problems.append(f"{name}: tracer left doflab.cli patched")
    metrics = tracer.layer_metrics(traced.attempted)
    missing = [span for span in MUST_TRACE[name] if not metrics[f"{span}.calls"][0] > 0]
    if missing:
        problems.append(f"{name}: no spans for {missing}")
    if round(metrics["cli.run.calls"][0] * traced.attempted) != len(ops):
        problems.append(f"{name}: cli.run spans do not match the {len(ops)} ops run")
    thread_of = {span[0]: span[5] for span in tracer.spans}
    if any(span[4] != -1 and thread_of[span[4]] != span[5] for span in tracer.spans):
        problems.append(f"{name}: a span's parent belongs to another thread")
    if any(span[7] < 0 for span in tracer.spans):
        problems.append(f"{name}: negative self time")
    return problems


def main() -> int:
    cli = run.import_cli()
    work = run.OUT / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    problems = [p for name in workloads.WORKLOADS for p in check_workload(cli, name, work)]
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
