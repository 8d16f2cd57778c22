"""Batch command-line front end.

Every number in a report comes from a library operation; the CLI only
parses flags, wires modules together and serializes reports.  Exit codes:
0 success, 1 invalid input, 2 verification failure under --assert.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone

from . import bounds, network, schemes, simulation
from .errors import DoflabError, InputError
from .linalg import Tolerance, one_blas_thread
from .network import NetworkConfig
from .simulation import SnrGrid

SCHEME_VARIANT = {schemes.ZF: bounds.TX_HEAVY, schemes.NSIA: bounds.RX_HEAVY}
SWEEP_COLUMNS = ["K", "beta", "scheme", "seed", "bound", "slope",
                 "r_squared", "residual", "decodable"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract reserves
    # 2 for verification failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_int_range(text: str) -> list[int]:
    """'2' -> [2]; '1:3' -> [1, 2, 3]; '1,4,5' -> [1, 4, 5]."""
    text = text.strip()
    try:
        if "," in text:
            values = [int(p) for p in text.split(",")]
        elif ":" in text:
            lo, hi = (int(p) for p in text.split(":"))
            values = list(range(lo, hi + 1))
        else:
            values = [int(text)]
    except ValueError as exc:
        raise InputError(f"cannot parse integer range {text!r}") from exc
    if not values:
        raise InputError(f"integer range {text!r} is empty")
    return values


def parse_snr(text: str) -> SnrGrid:
    """'start:step:stop' in dB."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"SNR range must be start:step:stop, got {text!r}")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"cannot parse SNR range {text!r}") from exc
    return SnrGrid.from_range(start, step, stop)


@dataclass
class ExperimentConfig:
    """One experiment as a JSON document; mirrors the command-line flags."""

    command: str
    K: "int | str | None" = None
    L: int | None = None
    M: int | None = None
    N: int | None = None
    beta: "int | str | None" = None
    seed: int | None = None
    seeds: "int | str | None" = None
    dist: str | None = None
    rel_rank_tol: float | None = None
    scheme: str | None = None
    schemes: str | None = None
    profile: str | None = None
    snr: str | None = None
    trials: int | None = None
    m: int | None = None
    n: int | None = None
    l: int | None = None
    p_source: str | None = None
    tol_slope: float | None = None
    min_r2: float | None = None
    workers: int | None = None
    channels: str | None = None
    dump_channels: str | None = None
    assert_checks: bool = False
    output_format: str | None = None
    output_path: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)} - {"assert_checks"}
        known |= {"assert"}
        unknown = set(doc) - known
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        if "command" not in doc:
            raise InputError("config is missing the 'command' key")
        doc = dict(doc)
        assert_checks = bool(doc.pop("assert", False))
        return cls(assert_checks=assert_checks, **doc)

    def to_argv(self) -> list[str]:
        argv = [self.command]
        flag_names = {"p_source": "--p-source", "tol_slope": "--tol-slope",
                      "min_r2": "--min-r2", "rel_rank_tol": "--rel-rank-tol",
                      "dump_channels": "--dump-channels",
                      "output_format": "--format", "output_path": "--output"}
        for f in fields(self):
            if f.name in ("command", "assert_checks"):
                continue
            value = getattr(self, f.name)
            if value is None:
                continue
            flag = flag_names.get(f.name, f"--{f.name}")
            argv += [flag, str(value)]
        if self.assert_checks:
            argv.append("--assert")
        return argv


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report format (csv is a lossy projection)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write the report here instead of stdout")


def _add_network_flags(p: argparse.ArgumentParser, with_scheme_dims: bool):
    if with_scheme_dims:
        p.add_argument("--K", type=int, required=False, help="users per cell")
        p.add_argument("--beta", type=int, default=1, help="streams per user")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (falls back to $DOFLAB_SEED, then 0)")
    p.add_argument("--dist", choices=("complex-gaussian", "uniform-square"),
                   default="complex-gaussian")
    p.add_argument("--rel-rank-tol", type=float, default=1e-10)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="doflab",
                     description="Degrees-of-freedom bounds and alignment "
                                 "schemes for the multicell MIMO MAC")
    parser.add_argument("--config", metavar="PATH",
                        help="run the experiment described by a JSON config "
                             "file instead of flags")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("bound", parents=[], help="evaluate the DoF outer bound")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    _add_output_flags(p)

    for name, help_text in ((schemes.ZF, "build and verify transmit zero forcing"),
                            (schemes.NSIA, "build and verify null-space alignment")):
        p = sub.add_parser(name, help=help_text)
        _add_network_flags(p, with_scheme_dims=True)
        p.add_argument("--channels", metavar="PATH",
                       help="replay channels from a JSON dump instead of "
                            "generating (overrides --K/--beta/--seed)")
        p.add_argument("--dump-channels", metavar="PATH",
                       help="write the generated channels to this JSON file")
        p.add_argument("--assert", dest="assert_checks", action="store_true",
                       help="exit 2 unless the scheme verifies decodable")
        _add_output_flags(p)

    p = sub.add_parser("slope", help="fit the empirical DoF slope")
    p.add_argument("--scheme", choices=(schemes.ZF, schemes.NSIA, "random"),
                   required=True)
    p.add_argument("--profile", choices=bounds.VARIANTS, default=None,
                   help="antenna profile for --scheme random")
    _add_network_flags(p, with_scheme_dims=True)
    p.add_argument("--snr", default="60:10:100", metavar="START:STEP:STOP",
                   help="SNR grid in dB")
    p.add_argument("--channels", metavar="PATH")
    p.add_argument("--dump-channels", metavar="PATH")
    p.add_argument("--assert", dest="assert_checks", action="store_true",
                   help="exit 2 when the slope misses its target")
    p.add_argument("--tol-slope", type=float, default=0.03,
                   help="relative slope tolerance for --assert")
    p.add_argument("--min-r2", type=float, default=0.999)
    _add_output_flags(p)

    p = sub.add_parser("lemma1", help="Monte Carlo product-rank check")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    _add_network_flags(p, with_scheme_dims=False)
    p.add_argument("--workers", type=int, default=None,
                   help="ignored; kept for existing scripts and configs "
                        "(trials run in stacked chunks)")
    p.add_argument("--assert", dest="assert_checks", action="store_true")
    _add_output_flags(p)

    p = sub.add_parser("lemma2", help="Monte Carlo null/intersection check")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--p-source", choices=("random", "nsia"), default="random")
    _add_network_flags(p, with_scheme_dims=False)
    p.add_argument("--workers", type=int, default=None,
                   help="ignored, as for lemma1")
    p.add_argument("--assert", dest="assert_checks", action="store_true")
    _add_output_flags(p)

    p = sub.add_parser("sweep", help="bound/slope table over K, beta, seeds")
    p.add_argument("--K", default="1:3", help="range, e.g. 1:3 or 1,2,4")
    p.add_argument("--beta", default="1", help="range")
    p.add_argument("--seeds", default=None, help="range of channel seeds")
    p.add_argument("--schemes", choices=(schemes.ZF, schemes.NSIA, "both"),
                   default="both")
    p.add_argument("--snr", default="60:10:100")
    p.add_argument("--dist", choices=("complex-gaussian", "uniform-square"),
                   default="complex-gaussian")
    p.add_argument("--rel-rank-tol", type=float, default=1e-10)
    p.add_argument("--tol-slope", type=float, default=0.03)
    p.add_argument("--min-r2", type=float, default=0.999)
    p.add_argument("--assert", dest="assert_checks", action="store_true")
    _add_output_flags(p)

    return parser


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


def _scheme_channel_set(args, variant: str):
    """Channels for a scheme command: replayed from a dump or generated."""
    if args.channels:
        with open(args.channels) as fh:
            cs = network.channel_set_from_dict(json.load(fh))
        return cs, cs.config.beta
    if args.K is None:
        raise InputError("--K is required when --channels is not given")
    M, N = bounds.antenna_profile(args.K, args.beta, variant)
    cfg = NetworkConfig(L=2, K=args.K, M=M, N=N, beta=args.beta,
                        seed=_fallback_seed(args.seed), dist=args.dist,
                        tol=Tolerance(args.rel_rank_tol))
    cs = network.generate_channels(cfg)
    if args.dump_channels:
        with open(args.dump_channels, "w") as fh:
            json.dump(network.channel_set_to_dict(cs), fh, indent=2)
            fh.write("\n")
    return cs, args.beta


def _build_scheme(cs, beta: int, scheme: str):
    if scheme == schemes.ZF:
        return None, schemes.build_zf_precoders(cs, beta)
    projectors, precoders = schemes.build_nsia(cs, beta)
    return projectors, precoders


def _run_bound(args):
    report = bounds.dof_outer_bound(args.K, args.L, args.M, args.N)
    doc = {"params": {"K": args.K, "L": args.L, "M": args.M, "N": args.N},
           "result": report.to_dict()}
    return doc, True


def _run_scheme(args):
    variant = SCHEME_VARIANT[args.command]
    cs, beta = _scheme_channel_set(args, variant)
    projectors, precoders = _build_scheme(cs, beta, args.command)
    report = schemes.verify_scheme(cs, precoders, projectors)
    doc = {"params": cs.config.to_dict(), "result": report.to_dict()}
    return doc, report.decodable


def _run_slope(args):
    if args.scheme == "random":
        variant = args.profile
        if variant is None:
            raise InputError("--profile is required with --scheme random")
    else:
        variant = SCHEME_VARIANT[args.scheme]
    cs, beta = _scheme_channel_set(args, variant)
    grid = parse_snr(args.snr)
    expected = bounds.converse_two_cell(cs.config.K, beta, variant)
    if args.scheme == "random":
        precoders = simulation.random_precoders(cs, beta, cs.config.seed)
        estimate = simulation.estimate_dof_slope(cs, precoders, grid,
                                                 interference_limited=True)
        scheme_report = schemes.verify_scheme(cs, precoders)
        ok = estimate.slope <= 0.5
    else:
        projectors, precoders = _build_scheme(cs, beta, args.scheme)
        scheme_report = schemes.verify_scheme(cs, precoders, projectors)
        estimate = simulation.estimate_dof_slope(cs, precoders, grid, projectors,
                                                 report=scheme_report)
        ok = (scheme_report.decodable
              and abs(estimate.slope - expected) <= args.tol_slope * expected
              and estimate.r_squared >= args.min_r2)
    doc = {"params": {**cs.config.to_dict(), "scheme": args.scheme},
           "result": {**estimate.to_dict(), "expected_slope": expected,
                      "verification": scheme_report.to_dict()}}
    return doc, ok


def _run_lemma1(args):
    report = simulation.monte_carlo_lemma1(
        args.m, args.n, args.l, args.trials, _fallback_seed(args.seed),
        dist=args.dist, tol=Tolerance(args.rel_rank_tol))
    doc = {"params": {"m": args.m, "n": args.n, "l": args.l,
                      "trials": args.trials, "seed": _fallback_seed(args.seed)},
           "result": report.to_dict()}
    return doc, report.all_passed


def _run_lemma2(args):
    report = simulation.monte_carlo_lemma2(
        args.M, args.N, args.trials, _fallback_seed(args.seed),
        p_source=args.p_source, dist=args.dist,
        tol=Tolerance(args.rel_rank_tol))
    doc = {"params": {"M": args.M, "N": args.N, "trials": args.trials,
                      "p_source": args.p_source,
                      "seed": _fallback_seed(args.seed)},
           "result": report.to_dict()}
    return doc, report.all_passed


def _run_sweep(args):
    ks = parse_int_range(str(args.K))
    betas = parse_int_range(str(args.beta))
    seeds = (parse_int_range(str(args.seeds)) if args.seeds is not None
             else [_fallback_seed(None)])
    scheme_list = [schemes.ZF, schemes.NSIA] if args.schemes == "both" \
        else [args.schemes]
    grid = parse_snr(args.snr)
    rows = []
    ok = True
    for k in ks:
        for beta in betas:
            for scheme in scheme_list:
                variant = SCHEME_VARIANT[scheme]
                bound = bounds.converse_two_cell(k, beta, variant)
                for seed in seeds:
                    M, N = bounds.antenna_profile(k, beta, variant)
                    cfg = NetworkConfig(L=2, K=k, M=M, N=N, beta=beta,
                                        seed=seed, dist=args.dist,
                                        tol=Tolerance(args.rel_rank_tol))
                    cs = network.generate_channels(cfg)
                    projectors, precoders = _build_scheme(cs, beta, scheme)
                    report = schemes.verify_scheme(cs, precoders, projectors)
                    estimate = simulation.estimate_dof_slope(
                        cs, precoders, grid, projectors, report=report)
                    row_ok = (report.decodable
                              and abs(estimate.slope - bound) <= args.tol_slope * bound
                              and estimate.r_squared >= args.min_r2)
                    ok = ok and row_ok
                    rows.append({
                        "K": k, "beta": beta, "scheme": scheme, "seed": seed,
                        "bound": bound, "slope": estimate.slope,
                        "r_squared": estimate.r_squared,
                        "residual": report.residual_interference,
                        "decodable": report.decodable,
                    })
    doc = {"params": {"K": args.K, "beta": args.beta,
                      "seeds": args.seeds, "schemes": args.schemes,
                      "snr": args.snr, "dist": args.dist},
           "result": {"rows": rows}}
    return doc, ok


_RUNNERS = {
    "bound": _run_bound,
    schemes.ZF: _run_scheme,
    schemes.NSIA: _run_scheme,
    "slope": _run_slope,
    "lemma1": _run_lemma1,
    "lemma2": _run_lemma2,
    "sweep": _run_sweep,
}


def _csv_rows(command: str, doc: dict) -> tuple[list[str], list[dict]]:
    params, result = doc["params"], doc["result"]
    if command == "sweep":
        return SWEEP_COLUMNS, result["rows"]
    if command == "slope":
        cols = ["snr_db", "sum_rate", "slope", "intercept", "r_squared"]
        rows = [{"snr_db": db, "sum_rate": rate, "slope": result["slope"],
                 "intercept": result["intercept"],
                 "r_squared": result["r_squared"]}
                for db, rate in zip(result["snr_db"], result["sum_rates"])]
        return cols, rows
    if command in ("lemma1", "lemma2"):
        row = {**{k: v for k, v in params.items() if k != "seed"},
               "passes": result["passes"], "all_passed": result["all_passed"]}
        return list(row), [row]
    if command == "bound":
        row = {**params, **{k: v for k, v in result.items()
                            if not k.endswith("_decimal")}}
        return list(row), [row]
    # zf / nsia: one summary row, ranks flattened per cell
    row = {"scheme": result["scheme"], **params,
           "residual_interference": result["residual_interference"],
           "decodable": result["decodable"]}
    for entry in result["effective_rank"]:
        row[f"effective_rank_{entry['cell']}"] = entry["rank"]
    return list(row), [row]


def render_report(command: str, doc: dict, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(doc, indent=2) + "\n"
    cols, rows = _csv_rows(command, doc)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
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
                print("doflab: error: --config and a subcommand are mutually "
                      "exclusive", file=sys.stderr)
                return 1
            try:
                with open(args.config) as fh:
                    cfg = ExperimentConfig.from_dict(json.load(fh))
            except (OSError, json.JSONDecodeError, TypeError, DoflabError) as exc:
                print(f"doflab: error: {exc}", file=sys.stderr)
                return 1
            args = parser.parse_args(cfg.to_argv())
    except SystemExit as exc:
        # raised by argparse for usage errors (remapped to 1) and --help (0)
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    try:
        with one_blas_thread():
            doc, ok = _RUNNERS[args.command](args)
    except (DoflabError, ValueError, IndexError, KeyError, OSError) as exc:
        print(f"doflab: error: {exc}", file=sys.stderr)
        return 1

    report = {"command": args.command,
              "timestamp": datetime.now(timezone.utc).isoformat(),
              **doc}
    text = render_report(args.command, report, args.format)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if getattr(args, "assert_checks", False) and not ok:
        print("doflab: verification failed", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
