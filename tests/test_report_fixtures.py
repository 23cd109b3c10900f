"""The plan reports, byte for byte against tests/fixtures/reports/.

A change that moves a byte of these reports regenerates the fixtures with
tests/fixtures/generate_reports.py and explains each changed field in
CHANGES.md.  Every field of these reports is exact (integers, rationals
as strings, booleans), so the comparison holds on every numpy version.
"""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent / "fixtures" / "generate_reports.py"
_spec = importlib.util.spec_from_file_location("generate_reports", SCRIPT)
generate_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate_reports)


def test_every_fixture_has_a_report():
    names = {generate_reports.fixture_name(argv) for argv in generate_reports.REPORTS}
    assert names == {path.name for path in generate_reports.HERE.glob("*.json")}


@pytest.mark.parametrize("argv", generate_reports.REPORTS, ids=" ".join)
def test_report_bytes_equal_the_fixture(argv):
    code, text = generate_reports.render(argv)
    assert code == 0
    assert text.encode("utf-8") == (generate_reports.HERE / generate_reports.fixture_name(argv)).read_bytes()
