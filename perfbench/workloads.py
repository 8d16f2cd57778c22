"""The benchmark workloads: the argv each op hands to ``doflab.cli.run`` and
what its report must show.

A workload is a sequence of cycles.  Cycle ``index`` of a seed is a pure
function of ``(workload, seed, index)``, and every cycle has the same mix of
commands; only the channel and trial seeds differ.  A run repeats whole
cycles, so the latency quantiles of a run always sample the same mix.

Expectations come from the paper, not from doflab: both two-cell schemes
reach ``2*K*beta`` degrees of freedom, which is also the outer bound at the
two antenna profiles, and the lemmas hold in every trial.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cli-small", "lemma-mc", "large-k")
# Workloads whose op latency is a quantile of single ops.  The others report
# the median cycle time per op instead (see run.Tally.timings).
TIMED_ONE_BY_ONE = ("cli-small",)

# The CLI's default slope tolerances, restated so a changed default shows.
TOL_SLOPE = 0.03
MIN_R2 = 0.999
# The saturating baseline (random precoders, tx-heavy) must stay below this.
RANDOM_MAX_SLOPE = 0.5

# Trials per lemma command, chosen so that each of the three commands takes
# about a third of a cycle (about 0.6 s each on 2 cores at commit 44988e2).
LEMMA_TRIALS = (2500, 800, 200)
LARGE_K, LARGE_BETA = 32, 4

_TIMESTAMP = re.compile(r'\n  "timestamp": "[^"]*",')


@dataclass
class Op:
    """One ``cli.run`` invocation.  ``trials`` is the number of workload ops
    it performs: the Monte Carlo trials of a lemma command, else 1."""

    argv: list[str]
    expect: dict
    trials: int = 1


def strip_timestamp(report: str) -> str:
    """The report text without its ``timestamp`` line, the only field that
    may differ between two runs of the same flags and seed."""
    return _TIMESTAMP.sub("", report, count=1)


def cycle(workload: str, seed: int, index: int, work: Path,
          tiny: bool = False) -> list[Op]:
    """The ops of one cycle.  ``work`` holds the config and channel files the
    ops read and write; ``tiny`` shrinks the sizes for the self-test."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "cli-small":
        return _cli_small(rng, work)
    if workload == "lemma-mc":
        return _lemma_mc(rng, tiny)
    if workload == "large-k":
        return _large_k(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def _seed(rng: random.Random) -> list[str]:
    return ["--seed", str(rng.randrange(2 ** 31))]


def _slope(K: int, beta: int) -> dict:
    return {"slope": [2 * K * beta, TOL_SLOPE, MIN_R2], "decodable": True}


def _cli_small(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for K in (1, 2, 3, 4):
        for beta in (1, 2):
            dims = ["--K", str(K), "--beta", str(beta)]
            # tx-heavy: M = K*beta + beta, N = K*beta; rx-heavy the reverse.
            M, N = K * beta + beta, K * beta
            if (K + beta) % 2:
                M, N = N, M
            config = work / f"config-K{K}-b{beta}.json"
            config.write_text(json.dumps({
                "command": "slope", "scheme": ("zf", "nsia")[K % 2], "K": K,
                "beta": beta, "seed": rng.randrange(2 ** 31), "assert": True}))
            channels = str(work / f"channels-K{K}-b{beta}.json")
            ops += [
                Op(["bound", "--K", str(K), "--L", "2", "--M", str(M),
                    "--N", str(N)], {"final_bound": str(2 * K * beta)}),
                Op(["zf", *dims, *_seed(rng), "--assert"], {"decodable": True}),
                Op(["nsia", *dims, *_seed(rng), "--assert"], {"decodable": True}),
                Op(["slope", "--scheme", "zf", *dims, *_seed(rng), "--assert"],
                   _slope(K, beta)),
                Op(["slope", "--scheme", "nsia", *dims, *_seed(rng), "--assert"],
                   _slope(K, beta)),
                Op(["slope", "--scheme", "random", "--profile", "tx-heavy", *dims,
                    *_seed(rng), "--assert"], {"max_slope": RANDOM_MAX_SLOPE}),
                Op(["--config", str(config)], _slope(K, beta)),
                Op(["nsia", *dims, *_seed(rng), "--dump-channels", channels],
                   {"decodable": True}),
                Op(["nsia", "--channels", channels, "--assert"],
                   {"decodable": True, "replay_of": len(ops) + 7}),
            ]
    ops.append(Op(["sweep", "--K", "1:2", "--beta", "1", "--seeds",
                   str(rng.randrange(2 ** 31)), "--schemes", "both", "--assert"],
                  {"rows": [[K, 1, scheme, 2 * K] for K in (1, 2)
                            for scheme in ("zf", "nsia")]}))
    return ops


def _lemma_mc(rng: random.Random, tiny: bool) -> list[Op]:
    # --workers is never passed: the run uses the shipped default pool.
    trials = [max(2, t // 100) if tiny else t for t in LEMMA_TRIALS]
    commands = (["lemma1", "--m", "2", "--n", "4", "--l", "3"],
                ["lemma2", "--M", "2", "--N", "3"],
                ["lemma2", "--M", "2", "--N", "3", "--p-source", "nsia"])
    return [Op([*argv, "--trials", str(t), *_seed(rng)], {"passes": t}, trials=t)
            for argv, t in zip(commands, trials)]


def _large_k(rng: random.Random, tiny: bool) -> list[Op]:
    K, beta = (4, 1) if tiny else (LARGE_K, LARGE_BETA)
    dims = ["--K", str(K), "--beta", str(beta)]
    return [Op(["slope", "--scheme", scheme, *dims, *_seed(rng), "--assert"],
               _slope(K, beta)) for scheme in ("nsia", "zf")]


def check(op: Op, rc: int, report: str, earlier: list[str]) -> tuple[int, list[str]]:
    """Judge one op from its exit code and report text.

    Returns the number of failed workload ops (failed trials for a lemma
    command, else 0 or 1) and the reasons.  ``earlier`` holds the report
    texts of the cycle's previous ops, for replay comparisons.
    """
    if rc != 0:
        return op.trials, [f"exit code {rc}"]
    try:
        result = json.loads(report)["result"]
    except (ValueError, KeyError, TypeError):
        return op.trials, ["report is not a JSON document with a 'result'"]
    expect = op.expect
    errors = []
    if "final_bound" in expect and result.get("final_bound") != expect["final_bound"]:
        errors.append(f"final_bound {result.get('final_bound')!r}, "
                      f"expected {expect['final_bound']!r}")
    if "decodable" in expect:
        verdict = result.get("verification", result).get("decodable")
        if verdict is not expect["decodable"]:
            errors.append(f"decodable is {verdict!r}")
    if "slope" in expect:
        errors += _slope_errors(result, *expect["slope"])
    if "max_slope" in expect and not result.get("slope", float("inf")) <= expect["max_slope"]:
        errors.append(f"baseline slope {result.get('slope')} above {expect['max_slope']}")
    if "rows" in expect:
        rows = {(r["K"], r["beta"], r["scheme"]): r for r in result.get("rows", [])}
        wanted = {(K, beta, scheme): target for K, beta, scheme, target in expect["rows"]}
        if set(rows) != set(wanted):
            errors.append(f"sweep rows {sorted(rows)}, expected {sorted(wanted)}")
        for key in set(rows) & set(wanted):
            if rows[key]["decodable"] is not True:
                errors.append(f"sweep row {key} not decodable")
            errors += _slope_errors(rows[key], wanted[key], TOL_SLOPE, MIN_R2)
    if "replay_of" in expect:
        if strip_timestamp(report) != strip_timestamp(earlier[expect["replay_of"]]):
            errors.append("replayed report differs from the dumped run's report")
    if "passes" in expect:
        trials, passes = result.get("trials"), result.get("passes")
        if (trials != expect["passes"] or not isinstance(passes, int)
                or not 0 <= passes <= trials):
            return op.trials, errors + [f"{passes} of {trials} trials passed, "
                                        f"expected {expect['passes']} trials"]
        if passes < trials:
            return trials - passes, errors + [f"{trials - passes} of {trials} trials failed"]
    return (op.trials if errors else 0), errors


def _slope_errors(result: dict, target: float, tol: float, min_r2: float) -> list[str]:
    slope, r2 = result.get("slope"), result.get("r_squared")
    if not isinstance(slope, (int, float)) or not abs(slope - target) <= tol * target:
        return [f"slope {slope} not within {tol:.0%} of {target}"]
    if not isinstance(r2, (int, float)) or not r2 >= min_r2:
        return [f"r_squared {r2} below {min_r2}"]
    return []
