"""Reports byte for byte against tests/fixtures/reports/.

A change that moves a byte of these reports regenerates the fixtures with
tests/fixtures/generate_reports.py and explains each changed field in
CHANGES.md.

A fixture without a JSON float (the plan reports riesz and rankone, and
singer: integers, rationals as strings, booleans) is compared byte for
byte on every numpy version.  So is every fixture on the numpy version
recorded in NUMPY_VERSION.  Float fields (grid means, Mahler measures,
quadratures) come out of numpy's FFT and transcendental functions, whose
last bits may differ between numpy releases (pocketfft was rewritten for
numpy 2.0).  So on any other numpy a float report is compared as parsed
JSON: key order, exact values and types as they are, floats to a
relative tolerance of 1e-9 (absolute 1e-12 near zero), well inside every
tolerance the reports state.
"""

import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent / "fixtures" / "generate_reports.py"
_spec = importlib.util.spec_from_file_location("generate_reports", SCRIPT)
generate_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate_reports)

SAME_NUMPY = generate_reports.NUMPY_VERSION.read_text().strip() == np.__version__
FLOAT_FREE = ("riesz", "rankone", "singer")  # the subcommands whose reports hold no float


def _has_float(raw):
    """Whether the JSON text holds a float (NaN and infinities included)."""
    floats = []
    json.loads(raw, parse_float=floats.append, parse_constant=floats.append)
    return bool(floats)


def _assert_close(fresh, fixture, path="report"):
    """Exact values equal, floats within the cross-version tolerance."""
    if isinstance(fixture, float):
        assert isinstance(fresh, float), path
        assert math.isclose(fresh, fixture, rel_tol=1e-9, abs_tol=1e-12), (path, fresh, fixture)
    elif isinstance(fixture, dict):
        assert isinstance(fresh, dict) and list(fresh) == list(fixture), path
        for key, value in fixture.items():
            _assert_close(fresh[key], value, f"{path}.{key}")
    elif isinstance(fixture, list):
        assert isinstance(fresh, list) and len(fresh) == len(fixture), path
        for i, value in enumerate(fixture):
            _assert_close(fresh[i], value, f"{path}[{i}]")
    else:
        assert type(fresh) is type(fixture) and fresh == fixture, (path, fresh, fixture)


def test_every_fixture_has_a_report():
    names = {generate_reports.fixture_name(argv) for argv in generate_reports.REPORTS}
    assert names == {path.name for path in generate_reports.HERE.glob("*.json")}


@pytest.mark.parametrize("argv", generate_reports.REPORTS, ids=" ".join)
def test_report_bytes_equal_the_fixture(argv):
    code, text = generate_reports.render(argv)
    assert code == 0
    fixture = (generate_reports.HERE / generate_reports.fixture_name(argv)).read_bytes()
    if SAME_NUMPY or not _has_float(fixture):
        assert text.encode("utf-8") == fixture
    else:
        _assert_close(json.loads(text), json.loads(fixture))


@pytest.mark.parametrize("argv", generate_reports.REPORTS, ids=" ".join)
def test_float_free_reports_are_byte_gated_on_every_numpy(argv):
    fixture = (generate_reports.HERE / generate_reports.fixture_name(argv)).read_bytes()
    assert _has_float(fixture) == (argv[0] not in FLOAT_FREE)


def test_float_detection():
    assert not _has_float('{"p": 7, "r": ["1", "2"], "ok": true, "x": null}')
    for raw in ('{"v": 0.5}', '[1e-3]', '{"v": NaN}', '[-Infinity]', '{"a": {"b": [2.0]}}'):
        assert _has_float(raw), raw


def test_tolerant_comparison_separates_exact_fields_from_floats():
    _assert_close({"p": 7, "v": 0.5 + 1e-12, "ok": True}, {"p": 7, "v": 0.5, "ok": True})
    for fresh in ({"p": 7.0, "v": 0.5, "ok": True}, {"p": 7, "v": 0.5 + 1e-6, "ok": True},
                  {"p": 7, "v": 0.5, "ok": 1}, {"v": 0.5, "p": 7, "ok": True}):
        with pytest.raises(AssertionError):
            _assert_close(fresh, {"p": 7, "v": 0.5, "ok": True})
