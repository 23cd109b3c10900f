#!/usr/bin/env python3
"""Regenerate the committed report fixtures in tests/fixtures/reports/.

Each fixture is the `--no-timestamp` JSON report of one subcommand, byte
for byte as the CLI prints it, and NUMPY_VERSION records the numpy that
printed them.  tests/test_report_fixtures.py compares fresh reports
against these files, so a change that moves any byte of these reports
regenerates them and says why in CHANGES.md.

Run from the repository root:  PYTHONPATH=src python3 tests/fixtures/generate_reports.py
"""

import contextlib
import io
import pathlib

import numpy as np

from flatpoly import cli

HERE = pathlib.Path(__file__).resolve().parent / "reports"

# argv without --no-timestamp; the file name is the argv joined by "_"
REPORTS = (
    ("riesz", "--primes", "2,3,5,2,3"),
    ("riesz", "--primes", "2,3,5,7", "--stages", "4"),
    ("riesz", "--primes", "2,3", "--scales", "1,3"),  # explicit scales that collide
    ("rankone", "--primes", "2,3,5,7,2"),
    # float reports: means over the mirrored |P| grid, Mahler measures, real-line quadrature
    ("flat", "--primes", "31,211,307", "--alpha", "1"),
    ("flat", "--primes", "31,211", "--alpha", "0.5"),
    ("realline", "--primes", "2,3,5", "--alpha", "0.5", "--kernel-s", "3"),
    ("realline", "--primes", "2,3", "--alpha", "1.5", "--kernel-s", "2.5"),
    ("realline", "--primes", "7", "--alpha", "1", "--kernel-s", "0.7"),  # s n mod 1 takes 10 values
    ("mahler", "--primes", "7,23"),
    ("beta", "--primes", "13,61"),
    ("singer", "--p", "1009"),
)
NUMPY_VERSION = HERE / "NUMPY_VERSION"


def fixture_name(argv):
    return "_".join(a.lstrip("-").replace(",", "-") for a in argv) + ".json"


def render(argv):
    """(exit code, stdout) of one report."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*argv, "--no-timestamp"])
    return code, buf.getvalue()


def main():
    HERE.mkdir(exist_ok=True)
    for argv in REPORTS:
        code, text = render(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        (HERE / fixture_name(argv)).write_bytes(text.encode("utf-8"))
        print(f"{fixture_name(argv)}: {len(text)} bytes")
    NUMPY_VERSION.write_text(np.__version__ + "\n")


if __name__ == "__main__":
    main()
