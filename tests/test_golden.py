"""Golden reports: fixed-seed CLI reports stay byte-identical apart from
their ``timestamp`` line.

The files under ``tests/golden/`` hold the JSON reports with that line
removed (``<case>.json``), for the cases in CSV_CASES the CSV reports,
which have no timestamp (``<case>.csv``), and one ``--dump-channels`` file
(``dump-nsia.json``).  After a deliberate change of output, rewrite them
with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import json
import re
import sys
from pathlib import Path

import pytest

from doflab.cli import build_parser, run
from test_cli import COMMAND_DESTS

GOLDEN_DIR = Path(__file__).parent / "golden"
_TIMESTAMP = re.compile(r'\n  "timestamp": "[^"]*",')

# The loose-tolerance lemma cases make some trials fail (and, for lemma2,
# some channel draws get redrawn), so their pass counts pin individual
# verdicts rather than a trivial "all passed".
CASES = {
    "bound": ["bound", "--K", "2", "--L", "2", "--M", "3", "--N", "2"],
    "bound-three-cells": ["bound", "--K", "2", "--L", "3", "--M", "3", "--N", "4"],
    "zf": ["zf", "--K", "2", "--beta", "1", "--seed", "3"],
    "nsia": ["nsia", "--K", "2", "--beta", "2", "--seed", "3"],
    "slope-zf": ["slope", "--scheme", "zf", "--K", "2", "--beta", "1",
                 "--seed", "7"],
    "slope-nsia": ["slope", "--scheme", "nsia", "--K", "3", "--beta", "1",
                   "--seed", "7"],
    "slope-random": ["slope", "--scheme", "random", "--profile", "tx-heavy",
                     "--K", "2", "--seed", "7"],
    "sweep": ["sweep", "--K", "1:2", "--beta", "1:2", "--seeds", "0,1",
              "--schemes", "both"],
    "lemma1": ["lemma1", "--m", "2", "--n", "4", "--l", "3", "--trials", "300",
               "--seed", "1"],
    "lemma1-uniform-loose": ["lemma1", "--m", "2", "--n", "4", "--l", "3",
                             "--trials", "300", "--seed", "2",
                             "--dist", "uniform-square", "--rel-rank-tol", "0.2"],
    "lemma2-random": ["lemma2", "--M", "2", "--N", "3", "--trials", "300",
                      "--seed", "3"],
    "lemma2-random-loose": ["lemma2", "--M", "2", "--N", "3", "--trials", "300",
                            "--seed", "5", "--rel-rank-tol", "0.2"],
    "lemma2-nsia": ["lemma2", "--M", "2", "--N", "3", "--trials", "40",
                    "--seed", "4", "--p-source", "nsia"],
    "lemma2-nsia-two-users": ["lemma2", "--M", "4", "--N", "6", "--trials", "20",
                              "--seed", "4", "--p-source", "nsia",
                              "--dist", "uniform-square"],
    # 600 trials cross two chunk boundaries, and two cross-channel draws
    # come out degenerate and are redrawn on the one-trial path
    "lemma2-nsia-loose": ["lemma2", "--M", "2", "--N", "3", "--p-source", "nsia",
                          "--trials", "600", "--rel-rank-tol", "0.03",
                          "--seed", "1"],
}
# One case per CSV projection (slope has two: a built scheme and the
# random baseline).
CSV_CASES = ("bound", "zf", "nsia", "slope-zf", "slope-random", "lemma1",
             "lemma2-random", "sweep")
GOLDENS = ([(name, "json") for name in sorted(CASES)]
           + [(name, "csv") for name in CSV_CASES])
# The one --dump-channels file pinned byte for byte, of 'nsia --K 2 --seed 3'.
DUMP_GOLDEN = GOLDEN_DIR / "dump-nsia.json"


def report_without_timestamp(argv, path: Path, output_format: str = "json") -> str:
    assert run([*argv, "--format", output_format, "--output", str(path)]) == 0
    text = path.read_text()
    stripped, count = _TIMESTAMP.subn("", text, count=1)
    assert count == (1 if output_format == "json" else 0)
    return stripped


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert report_without_timestamp(CASES[name], tmp_path / "report.json") == expected


@pytest.mark.parametrize("name", CSV_CASES)
def test_csv_report_matches_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.csv").read_text()
    assert report_without_timestamp(CASES[name], tmp_path / "report.csv",
                                    "csv") == expected


def channel_dump(path: Path) -> str:
    assert run(["nsia", "--K", "2", "--seed", "3",
                "--dump-channels", str(path),
                "--output", str(path.with_suffix(".report"))]) == 0
    return path.read_text()


def test_channel_dump_matches_golden(tmp_path):
    assert channel_dump(tmp_path / "dump.json") == DUMP_GOLDEN.read_text()


def test_one_parser_serves_every_call_unchanged(tmp_path, capsys):
    # Every run in a process shares one parser, so none may leave it changed:
    # a usage error, --help, a config run and each golden report, in two
    # rounds of opposite order, must each give the same output every time.
    config = tmp_path / "zf-config.json"
    config.write_text(json.dumps({"command": "zf", "K": 2, "beta": 1, "seed": 3,
                                  "output_path": str(tmp_path / "config.json")}))

    def usage_error():
        assert run(["zf", "--K", "x"]) == 1
        return capsys.readouterr().err

    def help_text():
        assert run(["--help"]) == 0
        return capsys.readouterr().out

    def config_run():
        assert run(["--config", str(config)]) == 0
        return _TIMESTAMP.sub("", (tmp_path / "config.json").read_text(), count=1)

    def golden_run(name, output_format):
        return lambda: report_without_timestamp(
            CASES[name], tmp_path / f"report.{output_format}", output_format)

    steps = [("usage error", usage_error), ("help", help_text),
             ("config", config_run)]
    steps += [(f"{name}.{fmt}", golden_run(name, fmt)) for name, fmt in GOLDENS]
    expected = {f"{name}.{fmt}": (GOLDEN_DIR / f"{name}.{fmt}").read_text()
                for name, fmt in GOLDENS}
    expected["config"] = expected["zf.json"]
    parser = build_parser()
    for order in (steps, steps[::-1]):
        for key, step in order:
            text = step()
            assert text == expected.setdefault(key, text), key
    assert "invalid int value: 'x'" in expected["usage error"]
    assert build_parser() is build_parser() is parser
    dests = {name: sorted(action.dest for action in p._actions
                          if action.dest != "help")
             for name, p in parser.commands.items()}
    assert dests == COMMAND_DESTS


def main():
    import tempfile
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, output_format in GOLDENS:
            path = Path(tmp) / f"report.{output_format}"
            text = report_without_timestamp(CASES[name], path, output_format)
            (GOLDEN_DIR / f"{name}.{output_format}").write_text(text)
            print(f"wrote {name}.{output_format}", file=sys.stderr)
        DUMP_GOLDEN.write_text(channel_dump(Path(tmp) / "dump.json"))
        print(f"wrote {DUMP_GOLDEN.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
