"""Self-tests of the benchmark: span arithmetic, the reference comparison and
the tracer's view through by-name imports.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import asclt_lab.cli as cli  # noqa: E402
import asclt_lab.sequences as sequences  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402


def _span(name, start, end, parent, outer=None, work=0, key=None):
    lo, hi = outer or (start, end)
    return (name, start, end, parent, lo, hi, work, key)


def test_self_time_subtracts_children_outer_intervals():
    tree = [
        _span("cli.run", 0.0, 10.0, -1),
        _span("asclt.criteria_diagnostic", 1.0, 4.0, 0, outer=(0.9, 4.1)),
        _span("kernels.contraction_norm_sq", 2.0, 3.0, 1),
        _span("kernels.v2_prefix", 5.0, 6.0, 0),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx([10.0 - 3.2 - 1.0, 2.0, 1.0, 1.0])
    # Self times plus bookkeeping add up to the root's duration.
    assert sum(got) + 0.2 == pytest.approx(10.0)


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    tree = [
        _span("cli.run", 1.0, 5.0, -1),
        _span("asclt.ks_distance", 1.5, 2.5, 0, outer=(0.5, 2.5)),
        _span("asclt.ks_distance", 2.0, 3.0, 0),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(4.0 - 2.0)


def test_layer_metrics_count_calls_work_and_distinct_arguments():
    key = ("kernels.contraction_norm_sq", ("fgn", 2, 1, 4096))
    tree = [
        _span("cli.run", 0.0, 4.0, -1),
        _span("kernels.contraction_norm_sq", 0.5, 1.5, 0, work=4096, key=key),
        _span("kernels.contraction_norm_sq", 2.0, 3.0, 0, work=2048, key=key),
        _span("gaussian_sim.sample_stationary", 3.0, 3.5, 0, work=1000),
        _span("sequences.build_gseries", 3.5, 3.75, 0, work=1500),
    ]
    m = spans.layer_metrics(tree)
    assert m["kernels.contraction.calls"] == 2
    assert m["kernels.contraction.distinct"] == 1
    assert m["kernels.contraction.max_n"] == 4096
    assert m["kernels.contraction.self_s"] == pytest.approx(2.0)
    assert m["gaussian_sim.ns_per_point"] == pytest.approx(0.5e9 / 1000)
    assert m["sequences.rebuild_ratio"] == pytest.approx(1.5)
    assert m["cli.self_s"] == pytest.approx(4.0 - 2.75)
    assert set(m) | set(spans.TRACE_METRICS) == set(spans.METRICS)


def test_compare_allows_small_float_moves_only():
    ref = {"x": [1.0, 2.5], "n": 3, "verdict": "consistent", "ok": True, "z": math.nan,
           "failures": []}
    flat = reference.flatten(ref)

    def diff(**changes):
        return reference.compare(flat, reference.flatten({**ref, **changes}))

    assert reference.compare(flat, reference.flatten(json.loads(json.dumps(ref)))) == []
    assert diff(x=[1.0 * (1 + 1e-12), 2.5]) == []
    assert diff(x=[1.0 + 1e-6, 2.5])
    assert diff(n=4) and diff(n=3.0)
    assert diff(ok=1)
    assert diff(verdict="flagged")
    assert diff(x=[1.0]) and diff(x=[1.0, 2.5, 3.0])
    assert diff(failures=["replicate 0: ValueError"])
    assert reference.compare(flat, reference.flatten({k: v for k, v in ref.items() if k != "z"}))


def test_seed_free_leaves_are_the_floats_two_seeds_share():
    a = reference.flatten({"exact": [0.5, 0.25], "mc": 0.1, "n": 4, "seed": 1.0})
    b = reference.flatten({"exact": [0.5, 0.25], "mc": 0.2, "n": 4, "seed": 2.0})
    assert reference.seed_free(a, b) == ["$.exact[0]", "$.exact[1]"]


def test_check_run_gates_exit_code_failures_and_reference_report():
    doc = {"results": {"exact": 0.75, "mc": 0.25}, "failures": []}
    ref = {"exit_code": 0, "report": doc, "seed_free": ["$.results.exact"]}
    data = json.dumps(doc).encode()
    seed = reference.REFERENCE_SEED

    def run(other_seed, **results):
        report = {**doc, "results": {**doc["results"], **results}}
        return reference.check_run(ref, seed + other_seed, 0, json.dumps(report).encode())

    assert reference.check_run(ref, seed, 0, data) == []
    assert reference.check_run(ref, seed, 2, data)
    assert reference.check_run(ref, seed, 0, None)
    failing = json.dumps({**doc, "failures": ["replicate 3: ValueError"]}).encode()
    assert reference.check_run(ref, seed + 1, 0, failing)
    assert run(0, mc=0.5)
    # Away from the reference seed only seed-free leaves are compared.
    assert run(1, mc=0.5) == []
    assert run(1, exact=0.5)


def _run_sigma_limits(out: Path) -> bytes:
    cfg, errors = cli.validate_config({
        "schema_version": 1, "experiment": "sigma_limits", "out_dir": str(out),
    })
    assert not errors
    assert cli.run(cfg, echo=lambda line: None) in (0, 2)
    return (out / "report.json").read_bytes()


def test_tracer_sees_calls_through_by_name_imports(tmp_path):
    original, original_run = sequences.sigma_n_squared, cli.run
    assert cli.sigma_n_squared is original
    plain = _run_sigma_limits(tmp_path / "plain")

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sequences.sigma_n_squared is not original
        assert cli.sigma_n_squared is sequences.sigma_n_squared
        assert cli.run is not original_run
        report = _run_sigma_limits(tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert cli.sigma_n_squared is original and sequences.sigma_n_squared is original
    assert cli.run is original_run
    assert report == plain

    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.run"
    assert names.count("sequences.sigma_n_squared") == 3
    by_index = dict(enumerate(names))
    parents = {by_index[s[3]] for s in tracer.spans if s[0] == "sequences.sigma_n_squared"}
    assert parents == {"cli.run_experiment"}
    m = spans.layer_metrics(tracer.spans)
    assert m["cli.report_s"] > 0.0
    assert m["covariance.calls"] > 0
