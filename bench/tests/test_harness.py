"""Tests of the benchmark itself: output checks, tracer arithmetic and coverage.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import tracer
import workloads
from flatpoly import analysis, cli, poly, riesz, singer
from worker import run_tasks

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def task_named(workload, name):
    (task,) = [t for t in workloads.build(workload, seed=1) if t.name == name]
    return task


def shift_one_residue(construct):
    def corrupted(p, m=1, **kwargs):
        sset = construct(p, m, **kwargs)
        residues = sset.residues[:-1] + (sset.residues[-1] + 1,)
        return dataclasses.replace(sset, residues=residues, normalized=False)
    return corrupted


def numerator_plus_one(fn):
    def corrupted(*args, **kwargs):
        value = fn(*args, **kwargs)
        return Fraction(value.numerator + 1, value.denominator)
    return corrupted


def one_defect_coefficient_off(fn):
    def corrupted(sset):
        defect = fn(sset)
        coeffs = list(defect.coefficients)
        coeffs[0] = Fraction(coeffs[0].numerator + 1, coeffs[0].denominator)
        return dataclasses.replace(defect, coefficients=tuple(coeffs))
    return corrupted


def test_chain_task_passes_at_this_commit():
    result = run_tasks([task_named("exact", "chain p=7 m=2")])
    assert result["failed"] == 0, result["failures"]


@pytest.mark.parametrize("module, name, corrupt", [
    (singer, "construct_singer", shift_one_residue),
    (analysis, "l2_defect_sq_exact", numerator_plus_one),
    (poly, "defect_poly", one_defect_coefficient_off),
])
def test_corrupted_exact_output_fails_the_pass(monkeypatch, module, name, corrupt):
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    result = run_tasks([task_named("exact", "chain p=7 m=2")])
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_riesz_zero_coefficient_off_by_one_fails_the_pass(monkeypatch):
    def corrupted(plan, k, **kwargs):
        coeffs = riesz.partial_coeffs(plan, k, **kwargs)
        coeffs.coefficients[0] += 1
        return coeffs

    monkeypatch.setattr(cli, "partial_coeffs", corrupted)
    result = run_tasks([task_named("exact", "riesz --primes 2,3,5,7 --stages 4")])
    assert result["failed"] == 1
    assert "zero coefficient" in result["failures"][0]


def test_random_support_identities_hold_for_other_seeds():
    for seed in (2, 3):
        tasks = [t for t in workloads.build("exact", seed) if t.name.startswith("random support k=256")]
        assert run_tasks(tasks)["failed"] == 0


def span(name, parent, start, end, **attrs):
    return tracer.Span(name, name.split(".")[0], parent, start, end, attrs=attrs)


def test_self_time_on_a_nested_span_tree():
    spans = [
        span("cli.main", None, 0.0, 10.0),
        span("singer.construct_singer", 0, 1.0, 6.0, p=101, m=1),
        span("singer.canonical_field_spec", 1, 2.0, 3.0),
        span("singer.verify_perfect_difference", 1, 4.0, 5.0),
        span("poly.defect_poly", 0, 7.0, 9.0),
        span("poly.correlation_table", 4, 7.5, 8.5),
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 1.0, 1.0, 1.0, 1.0]
    m = tracer.layer_metrics(spans)
    assert (m["cli.self_s"], m["singer.self_s"], m["poly.self_s"]) == (3.0, 5.0, 2.0)
    assert (m["cli.calls"], m["singer.calls"], m["poly.calls"]) == (1, 3, 2)
    assert m["singer.construct_p101_s"] == 5.0 and m["singer.construct_p401_s"] == 0
    assert m["singer.verify_s"] == 1.0 and m["singer.field_spec_calls"] == 1
    assert m["singer.residues_scanned"] == 101**2 + 101 + 1
    assert m["poly.defect_poly_self_s"] == 1.0 and m["poly.correlation_s"] == 1.0


def test_tracer_spans_internal_calls_and_uninstalls():
    original = singer.construct_singer
    t = tracer.Tracer()
    t.install()
    try:
        singer.construct_singer(3)
    finally:
        t.uninstall()
    assert singer.construct_singer is original
    names = [s.name for s in t.spans]
    assert names[0] == "singer.construct_singer"
    assert {"singer.canonical_field_spec", "singer.normalize", "singer.verify_perfect_difference"} <= set(names)
    assert all(s.parent is not None for s in t.spans[1:])
    assert t.spans[0].attrs == {"p": 3, "m": 1}


@pytest.mark.parametrize("names", [
    [*singer.__all__, "not_a_function"],
    [n for n in singer.__all__ if n != "verify_perfect_difference"],
])
def test_tracer_coverage_is_loud(monkeypatch, names):
    monkeypatch.setattr(singer, "__all__", names)
    with pytest.raises(tracer.CoverageError):
        tracer.Tracer().install()


def test_benchmark_json_declares_exactly_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = [*tracer.layer_metrics([]), "cli.report_bytes", "trace_overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == emitted
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "max_task_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_untraced_worker_never_loads_the_tracer():
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "grid", "--seed", "1",
         "--spawned", repr(time.monotonic()), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["tracer_loaded"] is False and result["setup_s"] > 0


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
