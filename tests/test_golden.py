"""Golden reports: fixed-seed CLI reports stay byte-identical apart from
their ``timestamp`` line.

The files under ``tests/golden/`` hold the JSON reports with that line
removed (``<case>.json``) and, for the cases in CSV_CASES, the CSV reports,
which have no timestamp (``<case>.csv``).  After a deliberate change of
output, rewrite them with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import re
import sys
from pathlib import Path

import pytest

from doflab.cli import run

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
}
# One case per CSV projection (slope has two: a built scheme and the
# random baseline).
CSV_CASES = ("bound", "zf", "nsia", "slope-zf", "slope-random", "lemma1",
             "lemma2-random", "sweep")


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


def main():
    import tempfile
    GOLDEN_DIR.mkdir(exist_ok=True)
    goldens = [(name, "json") for name in sorted(CASES)]
    goldens += [(name, "csv") for name in CSV_CASES]
    with tempfile.TemporaryDirectory() as tmp:
        for name, output_format in goldens:
            path = Path(tmp) / f"report.{output_format}"
            text = report_without_timestamp(CASES[name], path, output_format)
            (GOLDEN_DIR / f"{name}.{output_format}").write_text(text)
            print(f"wrote {name}.{output_format}", file=sys.stderr)


if __name__ == "__main__":
    main()
