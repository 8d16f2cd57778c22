"""Batch command-line front end.

Every number in a report comes from a library operation; the CLI only
parses flags, wires modules together and serializes reports.  Exit codes:
0 success, 1 invalid input, 2 verification failure under --assert.

Importing this module and building its parser load only the standard
library, bounds and errors.  numpy and the numeric modules load at the
first numeric command, which is every command but ``bound`` (run), so
``bound``, ``--help``, a usage error and a config file refused before its
command runs never load numpy.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import bounds
from .bounds import NSIA, RANDOM, SCHEME_VARIANT, ZF
from .errors import DoflabError, InputError

# Most values a 'lo:hi' range (sweep's --K, --beta, --seeds) may list.
MAX_RANGE_VALUES = 10_000


def _load_numpy_on_one_blas_thread():
    """Load numpy with OpenBLAS started on one thread, unless numpy is
    already loaded or OPENBLAS_NUM_THREADS is set.

    run calls this before the first numeric command; nothing else in this
    module loads numpy.  OpenBLAS reads the variable when it loads and
    otherwise starts a worker per core, which spins for about 0.1 CPU-s
    before it idles; every command runs on one BLAS thread anyway
    (linalg.one_blas_thread).  The variable is set only while numpy loads:
    os.environ is restored as it was found, so child processes see it
    unchanged.  OpenBLAS reads an empty value as unset, and so does this.
    """
    previous = os.environ.get("OPENBLAS_NUM_THREADS")
    if "numpy" in sys.modules or previous:
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        if previous is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = previous


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract reserves
    # 2 for verification failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_int_range(text: str) -> list[int]:
    """'2' -> [2]; '1:3' -> [1, 2, 3]; '1,4,5' -> [1, 4, 5]; a 'lo:hi'
    range longer than MAX_RANGE_VALUES is refused before it is built."""
    text = text.strip()
    try:
        if "," in text:
            values = [int(p) for p in text.split(",")]
        elif ":" in text:
            lo, hi = (int(p) for p in text.split(":"))
            values = range(lo, hi + 1)
        else:
            values = [int(text)]
    except ValueError as exc:
        raise InputError(f"cannot parse integer range {text!r}") from exc
    if not values:
        raise InputError(f"integer range {text!r} is empty")
    # len() of a huge range overflows
    if isinstance(values, range) and values.stop - values.start > MAX_RANGE_VALUES:
        raise InputError(f"integer range {text!r} has more than "
                         f"{MAX_RANGE_VALUES} values")
    return list(values)


def parse_snr(text: str) -> SnrGrid:
    """'start:step:stop' in dB."""
    from .simulation import SnrGrid
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"SNR range must be start:step:stop, got {text!r}")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"cannot parse SNR range {text!r}") from exc
    return SnrGrid.from_range(start, step, stop)


def _fit_grid(args) -> SnrGrid:
    """The SNR grid of a slope fit, after refusing --tol-slope and
    --min-r2 values that would make the fit's verdict meaningless: a NaN
    fails every fit, and an infinite tolerance passes every one."""
    if not (math.isfinite(args.tol_slope) and args.tol_slope >= 0):
        raise InputError(f"--tol-slope must be finite and non-negative, "
                         f"got {args.tol_slope}")
    if not 0 <= args.min_r2 <= 1:  # also refuses NaN
        raise InputError(f"--min-r2 must be in [0, 1], got {args.min_r2}")
    return parse_snr(args.snr)


def _add_seed_flag(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (falls back to $DOFLAB_SEED, then 0)")


def _add_draw_flags(p: argparse.ArgumentParser):
    p.add_argument("--dist", choices=("complex-gaussian", "uniform-square"),
                   default="complex-gaussian")
    p.add_argument("--rel-rank-tol", type=float, default=1e-10)


def _add_scheme_flags(p: argparse.ArgumentParser):
    """A two-cell network at a scheme's antenna profile, drawn or replayed."""
    p.add_argument("--K", type=int, required=False, help="users per cell")
    p.add_argument("--beta", type=int, default=1, help="streams per user")
    _add_seed_flag(p)
    _add_draw_flags(p)
    p.add_argument("--channels", metavar="PATH",
                   help="replay channels from a JSON dump instead of "
                        "generating (its config replaces --K, --beta, "
                        "--seed, --dist and --rel-rank-tol)")
    p.add_argument("--dump-channels", metavar="PATH",
                   help="write the generated channels to this JSON file")


def _add_trial_flags(p: argparse.ArgumentParser):
    p.add_argument("--trials", type=int, default=1000)
    _add_seed_flag(p)
    _add_draw_flags(p)
    p.add_argument("--workers", type=int, default=None,
                   help="ignored; kept for existing scripts and configs "
                        "(trials run in stacked chunks)")


def _add_fit_flags(p: argparse.ArgumentParser):
    p.add_argument("--snr", default="60:10:100", metavar="START:STEP:STOP",
                   help="SNR grid in dB")
    p.add_argument("--tol-slope", type=float, default=0.03,
                   help="relative slope tolerance for --assert")
    p.add_argument("--min-r2", type=float, default=0.999)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The doflab argument parser, built on the first call and returned by
    every later one, so that in-process callers of ``run`` build it once.

    Callers only read it (parse, print usage or help, list its commands):
    since one parser serves every call in the process, a change made to it
    would leak into every later run.
    """
    parser = _Parser(prog="doflab",
                     description="Degrees-of-freedom bounds and alignment "
                                 "schemes for the multicell MIMO MAC")
    parser.add_argument("--config", metavar="PATH",
                        help="run the experiment described by a JSON config "
                             "file instead of flags")
    sub = parser.add_subparsers(dest="command")
    parser.commands = sub.choices  # subcommand name -> its parser

    p = sub.add_parser("bound", help="evaluate the DoF outer bound")
    for flag in ("--K", "--L", "--M", "--N"):
        p.add_argument(flag, type=int, required=True)

    _add_scheme_flags(sub.add_parser(
        ZF, help="build and verify transmit zero forcing"))
    _add_scheme_flags(sub.add_parser(
        NSIA, help="build and verify null-space alignment"))

    p = sub.add_parser("slope", help="fit the empirical DoF slope")
    p.add_argument("--scheme", choices=(ZF, NSIA, RANDOM), required=True)
    p.add_argument("--profile", choices=bounds.VARIANTS, default=None,
                   help="antenna profile: required for --scheme random; "
                        "zf and nsia take only their own")
    _add_scheme_flags(p)
    _add_fit_flags(p)

    p = sub.add_parser("lemma1", help="Monte Carlo product-rank check")
    for flag in ("--m", "--n", "--l"):
        p.add_argument(flag, type=int, required=True)
    _add_trial_flags(p)

    p = sub.add_parser("lemma2", help="Monte Carlo null/intersection check")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p-source", choices=("random", "nsia"), default="random")
    _add_trial_flags(p)

    p = sub.add_parser("sweep", help="bound/slope table over K, beta, seeds")
    p.add_argument("--K", default="1:3", help="range, e.g. 1:3 or 1,2,4")
    p.add_argument("--beta", default="1", help="range")
    p.add_argument("--seeds", default=None, help="range of channel seeds")
    p.add_argument("--schemes", choices=(ZF, NSIA, "both"),
                   default="both")
    _add_draw_flags(p)
    _add_fit_flags(p)

    for name, p in sub.choices.items():
        if name != "bound":  # a bound has no verdict to assert
            p.add_argument("--assert", action="store_true",
                           help="exit 2 when the report's verdict fails: "
                                "decodable, slope on target, every trial "
                                "passed")
        p.add_argument("--format", dest="output_format",
                       choices=("json", "csv"), default="json",
                       help="report format (csv is a lossy projection)")
        p.add_argument("--output", dest="output_path", default=None,
                       metavar="PATH",
                       help="write the report here instead of stdout")

    return parser


def config_to_argv(parser: argparse.ArgumentParser, doc) -> list[str]:
    """The command line of the experiment a config document describes.

    The document is a JSON object whose ``command`` names a subcommand and
    whose other keys are the ``dest`` names of that subcommand's flags.  A
    switch takes true or false, null leaves a flag at its default, and any
    other value is passed as ``--flag=value``, so a value that starts with
    "-" (a negative SNR) still parses.
    """
    if not isinstance(doc, dict):
        raise InputError(f"config must be a JSON object, got {type(doc).__name__}")
    if "command" not in doc:
        raise InputError("config is missing the 'command' key")
    command = doc["command"]
    if not isinstance(command, str) or command not in parser.commands:
        raise InputError(f"config 'command' must be one of "
                         f"{sorted(parser.commands)}, got {command!r}")
    flags = {action.dest: action for action in parser.commands[command]._actions
             if action.dest != "help"}
    unknown = set(doc) - set(flags) - {"command"}
    if unknown:
        raise InputError(f"unknown config keys for {command!r}: {sorted(unknown)}")
    argv = [command]
    for key, value in doc.items():
        if key == "command":
            continue
        flag = flags[key].option_strings[0]
        if flags[key].nargs == 0:  # a switch (store_true)
            if not isinstance(value, bool):
                raise InputError(f"config key {key!r} is a switch and takes "
                                 f"true or false, got {value!r}")
            if value:
                argv.append(flag)
        elif value is not None:
            argv.append(f"{flag}={value}")
    return argv


def _fallback_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("DOFLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"DOFLAB_SEED={env!r} is not an integer") from exc
    return 0


def _generate_channels(args, K: int, beta: int, variant: str, seed: int):
    from . import network
    from .linalg import Tolerance
    M, N = bounds.antenna_profile(K, beta, variant)
    return network.generate_channels(network.NetworkConfig(
        L=2, K=K, M=M, N=N, beta=beta, seed=seed, dist=args.dist,
        tol=Tolerance(args.rel_rank_tol)))


def _scheme_channel_set(args, variant: str):
    """Channels for a scheme command: generated at ``variant``'s antenna
    profile, or replayed from a dump that bounds.require_profile admits."""
    if args.channels and args.dump_channels:
        raise InputError("--channels and --dump-channels are mutually "
                         "exclusive: a replay writes no channel dump")
    from . import network
    if args.channels:
        with open(args.channels) as fh:
            cs = network.channel_set_from_dict(json.load(fh))
        bounds.require_profile(cs.config, variant)
        return cs
    if args.K is None:
        raise InputError("--K is required when --channels is not given")
    cs = _generate_channels(args, args.K, args.beta, variant,
                            _fallback_seed(args.seed))
    if args.dump_channels:
        text = json.dumps(network.channel_set_to_dict(cs), indent=2) + "\n"
        with open(args.dump_channels, "w") as fh:
            fh.write(text)
    return cs


def _evaluate(args, cs, scheme: str, grid: SnrGrid | None = None):
    """Build ``scheme`` (zf, nsia or random) on ``cs``, verify it and, given
    an SNR grid, fit its DoF slope.

    Returns ``(report, estimate, expected, ok)``, where ``expected`` is the
    outer bound of ``cs``'s config, 2*K*beta at either two-cell profile.
    Without a grid, ``ok`` is decodability and ``estimate`` and
    ``expected`` are None.  With one, a built scheme is fitted only when
    it is decodable (else ``estimate`` is None and ``ok`` False: a
    verdict, not an error) and must then fit within --tol-slope of
    ``expected`` with r² >= --min-r2; the random baseline is always fitted
    and must come within 0.5 of simulation.random_baseline_slope.
    """
    from . import schemes, simulation
    # looked up at call time, so that a patched module attribute (the
    # benchmark's tracer) is the one called
    builder = {ZF: schemes.build_zf_precoders, NSIA: schemes.build_nsia,
               RANDOM: simulation.random_precoders}[scheme]
    built = builder(cs)
    report = schemes.verify_scheme(built)
    if grid is None:
        return report, None, None, report.decodable
    cfg = cs.config
    expected = int(bounds.dof_outer_bound(cfg.K, cfg.L, cfg.M, cfg.N).final_bound)
    if scheme != RANDOM and not report.decodable:
        return report, None, expected, False
    estimate = simulation.estimate_dof_slope(built, grid, report=report)
    if scheme == RANDOM:
        target = simulation.random_baseline_slope(cfg)
        return report, estimate, expected, abs(estimate.slope - target) <= 0.5
    ok = (abs(estimate.slope - expected) <= args.tol_slope * expected
          and estimate.r_squared >= args.min_r2)
    return report, estimate, expected, ok


def _fit_doc(estimate, grid: SnrGrid) -> dict:
    """``estimate.to_dict()``, or for a scheme _evaluate did not fit the
    same keys with the grid's points and null rates and fit."""
    if estimate is not None:
        return estimate.to_dict()
    return {"snr_db": list(grid.points_db),
            "sum_rates": [None] * len(grid.points_db),
            "slope": None, "intercept": None, "r_squared": None}


# Each command has a runner, args -> (report document, verdict), and a CSV
# projection, (params, result) -> rows.  Every projection returns at least
# one row, and the first row's keys are the CSV columns.

def _run_bound(args):
    report = bounds.dof_outer_bound(args.K, args.L, args.M, args.N)
    doc = {"params": {"K": args.K, "L": args.L, "M": args.M, "N": args.N},
           "result": report.to_dict()}
    return doc, True


def _bound_rows(params, result):
    return [{**params, **{k: v for k, v in result.items()
                          if not k.endswith("_decimal")}}]


def _run_scheme(args):
    cs = _scheme_channel_set(args, SCHEME_VARIANT[args.command])
    report, _, _, ok = _evaluate(args, cs, args.command)
    doc = {"params": cs.config.to_dict(), "result": report.to_dict()}
    return doc, ok


def _scheme_rows(params, result):
    # one summary row, ranks flattened per cell
    row = {"scheme": result["scheme"], **params,
           "residual_interference": result["residual_interference"],
           "decodable": result["decodable"]}
    for entry in result["effective_rank"]:
        row[f"effective_rank_{entry['cell']}"] = entry["rank"]
    return [row]


def _run_slope(args):
    if args.scheme == RANDOM:
        variant = args.profile
        if variant is None:
            raise InputError("--profile is required with --scheme random")
    else:
        variant = SCHEME_VARIANT[args.scheme]
        if args.profile not in (None, variant):
            raise InputError(f"--scheme {args.scheme} runs at the {variant} "
                             f"profile, not --profile {args.profile}")
    grid = _fit_grid(args)
    cs = _scheme_channel_set(args, variant)
    report, estimate, expected, ok = _evaluate(args, cs, args.scheme, grid)
    doc = {"params": {**cs.config.to_dict(), "scheme": args.scheme},
           "result": {**_fit_doc(estimate, grid), "expected_slope": expected,
                      "verification": report.to_dict()}}
    return doc, ok


def _slope_rows(params, result):
    return [{"snr_db": db, "sum_rate": rate, "slope": result["slope"],
             "intercept": result["intercept"],
             "r_squared": result["r_squared"]}
            for db, rate in zip(result["snr_db"], result["sum_rates"])]


def _run_lemma(args):
    from . import simulation
    from .linalg import Tolerance
    seed = _fallback_seed(args.seed)
    if args.command == "lemma1":
        params = {"m": args.m, "n": args.n, "l": args.l, "trials": args.trials}
        monte_carlo, options = simulation.monte_carlo_lemma1, {}
    else:
        params = {"M": args.M, "N": args.N, "trials": args.trials}
        monte_carlo = simulation.monte_carlo_lemma2
        options = {"p_source": args.p_source}
    report = monte_carlo(*params.values(), seed, dist=args.dist,
                         tol=Tolerance(args.rel_rank_tol), **options)
    doc = {"params": {**params, **options, "seed": seed, "dist": args.dist,
                      "rel_rank_tol": args.rel_rank_tol},
           "result": report.to_dict()}
    return doc, report.all_passed


def _lemma_rows(params, result):
    return [{**{k: v for k, v in params.items() if k != "seed"},
             "passes": result["passes"], "all_passed": result["all_passed"]}]


def _run_sweep(args):
    ks = parse_int_range(args.K)
    betas = parse_int_range(args.beta)
    seeds = (parse_int_range(args.seeds) if args.seeds is not None
             else [_fallback_seed(None)])
    scheme_list = [ZF, NSIA] if args.schemes == "both" \
        else [args.schemes]
    grid = _fit_grid(args)
    rows = []
    ok = True
    for k, beta, scheme, seed in itertools.product(ks, betas, scheme_list, seeds):
        cs = _generate_channels(args, k, beta, SCHEME_VARIANT[scheme], seed)
        report, estimate, bound, row_ok = _evaluate(args, cs, scheme, grid)
        ok = ok and row_ok
        fit = _fit_doc(estimate, grid)
        rows.append({
            "K": k, "beta": beta, "scheme": scheme, "seed": seed,
            "bound": bound, "slope": fit["slope"],
            "r_squared": fit["r_squared"],
            "residual": report.residual_interference,
            "decodable": report.decodable,
        })
    doc = {"params": {"K": args.K, "beta": args.beta,
                      "seeds": args.seeds, "schemes": args.schemes,
                      "snr": args.snr, "dist": args.dist,
                      "rel_rank_tol": args.rel_rank_tol},
           "result": {"rows": rows}}
    return doc, ok


def _sweep_rows(params, result):
    return result["rows"]


_RUNNERS = {
    "bound": (_run_bound, _bound_rows),
    ZF: (_run_scheme, _scheme_rows),
    NSIA: (_run_scheme, _scheme_rows),
    "slope": (_run_slope, _slope_rows),
    "lemma1": (_run_lemma, _lemma_rows),
    "lemma2": (_run_lemma, _lemma_rows),
    "sweep": (_run_sweep, _sweep_rows),
}


def render_report(command: str, doc: dict, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(doc, indent=2) + "\n"
    _, csv_rows = _RUNNERS[command]
    rows = csv_rows(doc["params"], doc["result"])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            if args.command is not None:
                raise InputError("--config and a subcommand are mutually "
                                 "exclusive")
            with open(args.config) as fh:
                args = parser.parse_args(config_to_argv(parser, json.load(fh)))
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        runner, _ = _RUNNERS[args.command]
        if args.command == "bound":  # exact arithmetic: no numpy
            doc, ok = runner(args)
        else:
            _load_numpy_on_one_blas_thread()
            from .linalg import one_blas_thread
            with one_blas_thread():
                doc, ok = runner(args)
    except SystemExit as exc:
        # raised by argparse for usage errors (remapped to 1) and --help (0)
        return int(exc.code or 0)
    except (DoflabError, ValueError, IndexError, KeyError, OSError) as exc:
        # ValueError covers json.JSONDecodeError in a config file
        print(f"doflab: error: {exc}", file=sys.stderr)
        return 1

    report = {"command": args.command,
              "timestamp": datetime.now(timezone.utc).isoformat(),
              **doc}
    text = render_report(args.command, report, args.output_format)
    if args.output_path:
        try:
            with open(args.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"doflab: error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)

    if getattr(args, "assert", False) and not ok:
        print("doflab: verification failed", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
