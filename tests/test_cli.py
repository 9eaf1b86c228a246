"""Config validation, experiment orchestration, and report reproducibility."""

import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from asclt_lab import asclt, cli, kernels, malliavin, memo, sequences
from asclt_lab.asclt import (
    contraction_keys,
    contraction_values,
    criteria_diagnostic,
    exact_gaussian_delta_sq,
    il_delta_prefixes,
    il_from_prefixes,
    ks_distance,
    log_average_measure,
)
from asclt_lab.cli import (
    ConfigValidationError,
    list_experiments,
    load_config,
    main,
    validate_config,
)
from asclt_lab.covariance import fgn
from asclt_lab.gaussian_sim import MAX_N, sample_stationary
from asclt_lab.hermite import expand
from asclt_lab.kernels import contraction_norm_sq
from asclt_lab.malliavin import (
    cf_gap_bound,
    co1_check,
    co2_check,
    gebelein_check,
    lag_covariances,
    malliavin_sample,
)
from asclt_lab.sequences import (
    FbmScaled,
    GeneralF,
    HermiteVariation,
    build_gseries,
    geometric_grid,
)

SEED = 20240821


def _doc(experiment, **overrides):
    doc = {"schema_version": 1, "experiment": experiment}
    doc.update(overrides)
    return doc


def _errors_by_field(doc):
    cfg, errors = validate_config(doc)
    assert cfg is None
    return {e.field for e in errors}


def _capture_list():
    lines = []
    list_experiments(echo=lines.append)
    return lines


def test_list_catalog_stable_order():
    lines = _capture_list()
    names = [ln.split(" -> ")[0] for ln in lines if " -> " in ln]
    assert names == [
        "asclt_fbm",
        "asclt_hermite_sub",
        "asclt_hermite_crit",
        "asclt_general_f",
        "non_gaussian",
        "kernels_decay",
        "delta_exactness",
        "malliavin_bounds",
        "sigma_limits",
    ]
    assert lines == _capture_list()
    defaults = [ln for ln in lines if ln.strip().startswith("default:")]
    assert len(defaults) == len(names)
    for ln in defaults:
        json.loads(ln.split("default:", 1)[1])


def test_validate_critical_rational_check():
    assert "model.H" in _errors_by_field(
        _doc("asclt_hermite_crit", model={"H": 0.7, "q": 2})
    )
    cfg, errors = validate_config(_doc("asclt_hermite_crit", model={"H": 0.75, "q": 2}))
    assert errors == [] and cfg.model["H"] == 0.75
    cfg, errors = validate_config(
        _doc("asclt_hermite_crit", model={"H": 5.0 / 6.0, "q": 3})
    )
    assert errors == []


def test_validate_unknown_fields():
    assert "typo_field" in _errors_by_field(_doc("asclt_fbm", typo_field=1))
    assert "model.bogus" in _errors_by_field(_doc("asclt_fbm", model={"H": 0.5, "bogus": 1}))
    assert "tolerances.zmax" in _errors_by_field(
        _doc("asclt_fbm", tolerances={"zmax": 3.0})
    )
    assert "seeds.extra" in _errors_by_field(
        _doc("asclt_fbm", seeds={"master_seed": 1, "replicates": 10, "extra": 2})
    )


def test_validate_schema_and_experiment():
    assert "schema_version" in _errors_by_field(
        {"schema_version": 2, "experiment": "asclt_fbm"}
    )
    assert "experiment" in _errors_by_field({"schema_version": 1, "experiment": "nope"})
    assert "<root>" in _errors_by_field([1, 2])


def test_validate_field_types_and_ranges():
    assert "n_grid" in _errors_by_field(_doc("asclt_fbm", n_grid=[64, 64, 256]))
    assert "n_grid[1]" in _errors_by_field(_doc("asclt_fbm", n_grid=[64, 1]))
    assert "seeds.master_seed" in _errors_by_field(
        _doc("asclt_fbm", seeds={"master_seed": -1, "replicates": 10})
    )
    assert "workers" in _errors_by_field(_doc("asclt_fbm", workers=0))
    assert "n_max" in _errors_by_field(_doc("asclt_fbm", n_max=True))
    assert "t_grid[0]" in _errors_by_field(_doc("asclt_fbm", t_grid=[-1.0]))
    assert "model.H" in _errors_by_field(_doc("asclt_fbm", model={"H": 1.0}))


_ASCLT = ("asclt_fbm", "asclt_hermite_sub", "asclt_hermite_crit", "asclt_general_f")
_EXPERIMENT_NAMES = (*_ASCLT, "non_gaussian", "kernels_decay", "delta_exactness",
                     "malliavin_bounds", "sigma_limits")
# The model fields each experiment accepts.
_MODEL_FIELDS = {
    "asclt_fbm": {"H"},
    "delta_exactness": {"H"},
    "asclt_general_f": {"H", "f", "expansion_order"},
    **{e: {"H", "q"} for e in ("asclt_hermite_sub", "asclt_hermite_crit", "non_gaussian",
                               "kernels_decay", "malliavin_bounds", "sigma_limits")},
}
_FOREIGN_MODEL_VALUES = {"H": 0.3, "q": 2, "f": "arctan", "expansion_order": 9}
_MIN_REPLICATES = {**{e: 2 for e in _ASCLT}, "non_gaussian": 10, "delta_exactness": 100,
                   "malliavin_bounds": 100, "kernels_decay": 0, "sigma_limits": 0}
_NEEDS_T_GRID = (*_ASCLT, "delta_exactness", "malliavin_bounds")


def _seeds(replicates):
    return {"seeds": {"master_seed": SEED, "replicates": replicates}}


# (experiment, overrides of its defaults, the exact set of error fields);
# an empty set means the config validates.
_RULES = [
    # Model fields: each experiment refuses the fields it does not read.
    *[(e, {"model": {key: _FOREIGN_MODEL_VALUES[key]}}, {f"model.{key}"})
      for e in _EXPERIMENT_NAMES for key in sorted(set(_FOREIGN_MODEL_VALUES) - _MODEL_FIELDS[e])],
    ("asclt_general_f", {"model": {"f": "mystery"}}, {"model.f"}),
    # Regime gates.
    ("asclt_hermite_crit", {"model": {"H": 0.7, "q": 2}}, {"model.H"}),
    ("asclt_hermite_crit", {"model": {"H": 5 / 6, "q": 3}}, set()),
    ("asclt_hermite_sub", {"model": {"H": 0.8, "q": 2}}, {"model.H"}),
    ("asclt_hermite_sub", {"model": {"H": 0.75, "q": 2}}, {"model.H"}),
    ("malliavin_bounds", {"model": {"H": 0.8, "q": 2}}, {"model.H"}),
    ("non_gaussian", {"model": {"H": 0.3, "q": 2}}, {"model.H"}),
    ("non_gaussian", {"model": {"H": 0.75, "q": 2}}, {"model.H"}),
    ("sigma_limits", {"model": {"H": 0.9, "q": 2}}, {"model.H"}),
    ("sigma_limits", {"model": {"H": 0.3, "q": 2}}, set()),
    ("asclt_general_f", {"model": {"H": 0.6}}, {"model.H"}),
    ("asclt_general_f", {"model": {"H": 0.5}}, set()),
    ("asclt_fbm", {"model": {"H": 0.9}}, set()),
    ("delta_exactness", {"model": {"H": 0.3}}, set()),
    ("kernels_decay", {"model": {"H": 0.9, "q": 2}}, set()),
    # Minimum replicates.
    *[(e, _seeds(m - 1), {"seeds.replicates"}) for e, m in _MIN_REPLICATES.items() if m],
    *[(e, _seeds(m), set()) for e, m in _MIN_REPLICATES.items()],
    # A non-empty t_grid where the experiment has frequencies to read.
    *[(e, {"t_grid": []}, {"t_grid"} if e in _NEEDS_T_GRID else set())
      for e in _EXPERIMENT_NAMES],
    # Grid rules: at least two sizes, the first one usable by il, and no
    # size past n_max for the asclt family.
    *[(e, {"n_grid": [256]}, {"n_grid"}) for e in _ASCLT],
    *[(e, {"n_grid": [2, 256]}, {"n_grid[0]"}) for e in (*_ASCLT, "non_gaussian")],
    *[(e, {"n_grid": [4, 256]}, set()) for e in (*_ASCLT, "non_gaussian")],
    *[(e, {"n_grid": [256, 1024], "n_max": 512}, {"n_grid"}) for e in _ASCLT],
    *[(e, {"n_grid": [256, 1024], "n_max": 512}, set())
      for e in ("non_gaussian", "kernels_decay", "delta_exactness", "malliavin_bounds",
                "sigma_limits")],
    ("asclt_fbm", {"n_grid": [8192, 16384], "n_max": 16384}, {"n_grid"}),
    ("asclt_fbm", {"n_grid": [4096, 8192], "n_max": 8192}, {"n_grid"}),
    ("asclt_fbm", {"n_grid": [2048, 4096, 8192], "n_max": 8192}, set()),
    ("non_gaussian", {"n_max": 1000}, {"n_max"}),
    ("non_gaussian", {"n_max": 1024}, set()),
    ("delta_exactness", {"n_max": 8192}, {"n_max"}),
    ("delta_exactness", {"n_max": 4096}, set()),
    ("delta_exactness", {"n_max": 8192, **_seeds(50)}, {"n_max", "seeds.replicates"}),
    # The experiment rules run only on fields that are well-formed.
    ("asclt_hermite_sub", {"model": {"H": 0.8, "q": 2}, "n_grid": [256]}, {"model.H"}),
]


def _rule_id(case) -> str:
    """experiment:field=value,... with object fields flattened."""
    experiment, overrides, _ = case
    flat = {f"{k}.{kk}": vv for k, v in overrides.items() if isinstance(v, dict)
            for kk, vv in v.items() if kk != "master_seed"}
    flat.update({k: "/".join(map(str, v)) if isinstance(v, list) else v
                 for k, v in overrides.items() if not isinstance(v, dict)})
    return experiment + ":" + ",".join(f"{k}={v}" for k, v in flat.items())


@pytest.mark.parametrize("experiment,overrides,fields", _RULES, ids=map(_rule_id, _RULES))
def test_validation_rule_table(experiment, overrides, fields):
    cfg, errors = validate_config(_doc(experiment, **overrides))
    assert {e.field for e in errors} == fields
    assert (cfg is None) == bool(fields)


@pytest.mark.parametrize("experiment,key", [
    ("asclt_fbm", "z_max"), ("asclt_hermite_sub", "rel_zn"), ("asclt_hermite_crit", "z_max"),
    ("asclt_general_f", "rel_sigma"), ("non_gaussian", "ks_final_max"),
    ("kernels_decay", "z_max"), ("delta_exactness", "ks_final_max"),
    ("malliavin_bounds", "rel_zn"), ("sigma_limits", "ks_final_max"),
])
def test_tolerances_are_per_experiment(experiment, key):
    # A tolerance the experiment never reads is refused; its own are not.
    assert _errors_by_field(_doc(experiment, tolerances={key: 0.5})) == {f"tolerances.{key}"}
    own = cli._EXPERIMENTS[experiment].defaults["tolerances"]
    cfg, errors = validate_config(_doc(experiment, tolerances=dict(own)))
    assert errors == [] and cfg.tolerances == own


@pytest.mark.parametrize("experiment", _EXPERIMENT_NAMES)
def test_sizes_are_capped(experiment):
    # One step above each cap is refused at validation; nothing runs.
    assert _errors_by_field(_doc(experiment, n_max=(1 << 24) + 1)) == {"n_max"}
    assert _errors_by_field(_doc(experiment, n_grid=[64, (1 << 24) + 1])) == {"n_grid[1]"}
    assert _errors_by_field(_doc(experiment, n_grid=[64, 1 << 40])) == {"n_grid[1]"}
    assert _errors_by_field(_doc(experiment, **_seeds((1 << 20) + 1))) == {"seeds.replicates"}


def test_defaults_fill_in():
    cfg, errors = validate_config(_doc("asclt_fbm"))
    assert errors == []
    assert cfg.master_seed == SEED
    assert cfg.replicates == 100
    assert cfg.model == {"H": 0.5}
    assert cfg.out_dir == "runs/asclt_fbm"
    assert cfg.workers == 1
    assert cfg.tolerances == {"ks_final_max": 0.35}


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigValidationError) as exc:
        load_config(tmp_path / "missing.json")
    assert exc.value.errors[0].field == "<file>"
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(ConfigValidationError) as exc:
        load_config(bad)
    assert exc.value.errors[0].field == "<json>"
    assert "line 2" in exc.value.errors[0].reason


def _write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_main_validate_exit_codes(tmp_path, capsys):
    good = _write_config(tmp_path, "good.json", _doc("kernels_decay"))
    assert main(["validate", "--config", good]) == 0
    assert "ok: valid kernels_decay config" in capsys.readouterr().out
    bad = _write_config(
        tmp_path, "bad.json", _doc("asclt_hermite_crit", model={"H": 0.7, "q": 2})
    )
    assert main(["validate", "--config", bad]) == 1
    assert "model.H" in capsys.readouterr().err


def test_run_reports_identical_across_workers(tmp_path):
    doc = _doc(
        "delta_exactness",
        model={"H": 0.8},
        n_max=128,
        n_grid=[128],
        seeds={"master_seed": SEED, "replicates": 200},
        t_grid=[0.5, 1.0],
    )
    cfg_path = _write_config(tmp_path, "delta.json", doc)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["run", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(
        ["run", "--config", cfg_path, "--out", str(out2), "--workers", "2"]
    ) == 0
    r1 = (out1 / "report.json").read_bytes()
    r2 = (out2 / "report.json").read_bytes()
    assert r1 == r2
    meta1 = json.loads((out1 / "run_meta.json").read_text())
    meta2 = json.loads((out2 / "run_meta.json").read_text())
    assert meta1["workers"] == 1 and meta2["workers"] == 2
    # Peak memory of the run process and of its pool workers (none at w1
    # yet, so children may read 0 there).
    assert meta1["peak_rss_mb"] > 0 and meta2["peak_rss_children_mb"] > 0
    assert all(m["peak_rss_children_mb"] >= 0 for m in (meta1, meta2))

    report = json.loads(r1)
    assert report["verdict"] == "consistent"
    assert report["results"]["max_abs_z"] <= 4.0
    # The closed-form rows run alongside the replicates and merge in t order.
    assert [row["exact"] for row in report["results"]["rows"]] == [
        exact_gaussian_delta_sq(FbmScaled(0.8), 128, t) for t in (0.5, 1.0)
    ]
    assert "workers" not in report["config"]
    assert report["versions"]["asclt_lab"]
    csv_lines = (out1 / "delta.csv").read_text().splitlines()
    assert csv_lines[0] == "n,t,delta_sq_mc,delta_sq_exact,stderr"
    assert len(csv_lines) == 3


def test_run_seed_override(tmp_path):
    doc = _doc(
        "delta_exactness",
        n_max=64,
        n_grid=[64],
        seeds={"master_seed": SEED, "replicates": 150},
        t_grid=[1.0],
    )
    cfg_path = _write_config(tmp_path, "delta.json", doc)
    out = tmp_path / "seeded"
    assert main(
        ["run", "--config", cfg_path, "--out", str(out), "--seed", "7"]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seeds"]["master_seed"] == 7


def test_run_kernels_decay(tmp_path):
    doc = _doc("kernels_decay", n_grid=[64, 256, 1024], n_max=1024)
    cfg_path = _write_config(tmp_path, "kern.json", doc)
    out = tmp_path / "kern"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    rows = report["results"]["contractions"]
    assert len(rows) == 1 and rows[0]["fitted_slope"] < 0.0
    lines = (out / "contractions.csv").read_text().splitlines()
    assert lines[0] == "n,r,contraction_norm_sq"
    assert len(lines) == 4


def test_run_sigma_limits_verdicts(tmp_path):
    crit = _doc("sigma_limits", n_grid=[10000, 100000], n_max=100000)
    out = tmp_path / "crit"
    assert main(
        ["run", "--config", _write_config(tmp_path, "c.json", crit), "--out", str(out)]
    ) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["limit"] == pytest.approx(0.5625)
    assert report["results"]["monotone_approach"] is True
    assert report["results"]["within"] is False

    sub = _doc(
        "sigma_limits",
        model={"H": 0.3, "q": 2},
        n_grid=[1000, 10000],
        n_max=10000,
        tolerances={"rel_sigma": 0.01},
    )
    out = tmp_path / "sub"
    assert main(
        ["run", "--config", _write_config(tmp_path, "s.json", sub), "--out", str(out)]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["regime"] == "subcritical"
    assert report["results"]["final_rel_gap"] <= 0.01


def test_run_asclt_fbm_small(tmp_path):
    doc = _doc(
        "asclt_fbm",
        n_grid=[64, 256, 1024],
        n_max=1024,
        seeds={"master_seed": SEED, "replicates": 60},
        t_grid=[1.0],
        tolerances={"ks_final_max": 0.5},
    )
    out = tmp_path / "fbm"
    assert main(
        ["run", "--config", _write_config(tmp_path, "f.json", doc), "--out", str(out)]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    res = report["results"]
    assert res["ks"]["decreasing_overall"] is True
    assert res["il"]["in_verdict"] is True
    assert res["il"]["verdict"] == "consistent"
    assert res["criteria"]["verdict"] == "consistent"
    ks_lines = (out / "ks.csv").read_text().splitlines()
    assert ks_lines[0] == "n,seed,ks_distance"
    assert len(ks_lines) == 1 + 3 * 60


def test_run_non_gaussian_flagged(tmp_path):
    doc = _doc(
        "non_gaussian",
        n_max=1024,
        n_grid=[64, 256, 1024],
        seeds={"master_seed": SEED, "replicates": 15},
        t_grid=[1.0],
    )
    out = tmp_path / "ng"
    assert main(
        ["run", "--config", _write_config(tmp_path, "n.json", doc), "--out", str(out)]
    ) == 2
    report = json.loads((out / "report.json").read_text())
    res = report["results"]
    assert report["verdict"] == "flagged"
    assert res["criteria"]["verdict"] == "flagged"
    assert res["zn_moment"]["within"] is True
    assert res["il"]["in_verdict"] is False
    assert "separation" in res and res["separation"]["ratio"] > 0.0


def test_run_malliavin_bounds_small(tmp_path):
    doc = _doc(
        "malliavin_bounds",
        n_max=512,
        n_grid=[512],
        seeds={"master_seed": SEED, "replicates": 120},
        t_grid=[0.5, 1.0],
    )
    out = tmp_path / "mal"
    assert main(
        ["run", "--config", _write_config(tmp_path, "m.json", doc), "--out", str(out)]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    res = report["results"]
    assert abs(res["dg_norm"]["z"]) <= 4.0
    assert all(row["holds"] for row in res["cf_gap"])
    assert res["co1"]["violates_printed"] is True
    assert res["co2"]["violates_printed"] is True
    assert res["co2"]["violates_first_power"] is False
    assert all(row["holds"] for row in res["gebelein"]["rows"])
    assert (out / "cf_gap.csv").read_text().startswith("n,t,cf_gap_mc,cf_gap_bound")
    geb_lines = (out / "gebelein.csv").read_text().splitlines()
    assert geb_lines[0] == "lag,cov_mc,se,bound,holds"
    assert len(geb_lines) == 22


def test_run_overrides_are_validated(tmp_path, capsys):
    # Overrides go through validate_config: the 1..64 worker cap and the
    # non-negative seed rule hold as for config files. Each case is
    # rejected before any experiment (or worker process) starts.
    good = _write_config(tmp_path, "good.json", _doc("kernels_decay"))
    out = tmp_path / "never"
    cases = [
        (["--workers", "65"], "config error at 'workers': must be <= 64"),
        (["--workers", "0"], "config error at 'workers': must be >= 1"),
        (["--seed", "-1"], "config error at 'seeds.master_seed': must be >= 0"),
        (["--out", ""], "config error at 'out_dir'"),
    ]
    for extra, message in cases:
        assert main(["run", "--config", good, "--out", str(out), *extra]) == 1
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_bad_config_exit_one(tmp_path, capsys):
    bad = _write_config(tmp_path, "bad.json", _doc("delta_exactness", n_max=8192))
    assert main(["run", "--config", bad]) == 1
    assert "n_max" in capsys.readouterr().err


def _small_asclt(experiment, model, workers=1, replicates=6):
    cfg, errors = validate_config(_doc(
        experiment,
        model=model,
        n_max=256,
        n_grid=[16, 64, 256],
        seeds={"master_seed": SEED, "replicates": replicates},
        t_grid=[0.0, 0.5, 1.0],
        workers=workers,
    ))
    assert not errors
    return cfg


@pytest.mark.parametrize("rows", [1, 2, 5, 24, 120])
def test_column_median_equals_numpy_median(rows):
    """The sort-based median is np.median(axis=0) bit for bit, for odd and
    even counts, with ties (zeros included), values of mixed scales and a
    NaN column. No -0.0: the sort and np.median's partition may order it
    and +0.0 apart, and both callers pass distances or absolute values."""
    rng = np.random.default_rng(rows)
    a = rng.standard_normal((rows, 6)) * 10.0 ** rng.integers(-8, 8, size=(rows, 6))
    a[:, 4] = np.round(np.abs(a[:, 4]))
    a[:, 5] = a[0, 5]
    want = np.median(a, axis=0)
    assert cli._column_median(a).tobytes() == want.tobytes()
    a[rows // 2, 2] = np.nan
    with np.errstate(invalid="ignore"):
        want = np.median(a, axis=0)
    assert np.isnan(want[2])
    assert cli._column_median(a).tobytes() == want.tobytes()


def test_kernel_scan_is_a_registry_field(monkeypatch):
    # The critical boundedness scan runs where the registry entry asks for
    # it, whatever the experiment's name.
    assert [name for name, e in cli._EXPERIMENTS.items() if e.kernel_scan] == [
        "asclt_hermite_crit"]
    cfg = _small_asclt("asclt_hermite_sub", {"H": 0.3, "q": 2}, replicates=2)
    assert "kernel_log_bounded" not in cli.run_experiment(cfg).report
    monkeypatch.setitem(cli._EXPERIMENTS, "asclt_hermite_sub", dataclasses.replace(
        cli._EXPERIMENTS["asclt_hermite_sub"], kernel_scan=True))
    assert cli.run_experiment(cfg).report["kernel_log_bounded"]["n_grid"] == [64, 256]


def test_ks_worker_matches_per_prefix_builds():
    n_grid = (16, 257, 1000, 4096)
    cases = [
        (("general_f", 0.3, None, "arctan", 9), GeneralF(fgn(0.3), expand(np.arctan, qmax=9))),
        (("hermite", 0.3, 2, None, None), HermiteVariation(fgn(0.3), 2)),
        (("hermite", 0.75, 2, None, None), HermiteVariation(fgn(0.75), 2)),
        (("fbm", 0.5, None, None, None), FbmScaled(0.5)),
    ]
    for args, spec in cases:
        for rep in range(3):
            path = sample_stationary(spec.model, n_grid[-1], SEED, rep)
            expect = tuple(
                ks_distance(log_average_measure(build_gseries(path, spec, n))) for n in n_grid
            )
            assert cli._ks_prefix_worker((*args, n_grid, SEED, rep)) == expect


@pytest.mark.parametrize("args", [
    ("fbm", 0.5, None, None, None),
    ("hermite", 0.3, 2, None, None),
    ("general_f", 0.3, None, "arctan", 9),
])
def test_ks_worker_builds_one_series_per_replicate(monkeypatch, args):
    calls = []
    real = sequences.build_gseries

    def counting(path, spec, n=None):
        calls.append(n)
        return real(path, spec, n)

    monkeypatch.setattr(sequences, "build_gseries", counting)
    n_grid = (16, 257, 1000, 4096)
    for rep in range(3):
        assert len(cli._ks_prefix_worker((*args, n_grid, SEED, rep))) == len(n_grid)
    assert calls == [4096] * 3


@pytest.mark.parametrize("args", [
    ("hermite", 0.8, 2, None, None),
    ("general_f", 0.3, None, "arctan", 9),
], ids=["hermite", "general_f"])
def test_warm_replicates_stay_within_bytes_per_point(args):
    """A warm KS replicate and a warm il replicate at n = 2^16 allocate at
    most 80 and 56 bytes per point at their peak (traced by tracemalloc,
    which sees NumPy's array buffers): the path, its series and the measure,
    with the sampler's and the KS distance's temporaries bounded by their
    chunks."""
    n = 2**16
    n_grid = tuple(n >> k for k in range(5, -1, -1))
    cases = ((cli._ks_prefix_worker, (*args, n_grid, SEED), 80),
             (cli._il_worker, (*args, (0.0, 0.5, 1.0, 2.0), n_grid, SEED), 56))
    for worker, head, bound in cases:
        worker((*head, 0))  # warm: normalizer tables, spectrum root, plans
        tracemalloc.start()
        try:
            worker((*head, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= bound, (worker.__name__, peak / n)


@pytest.mark.parametrize("experiment,model,spec", [
    ("asclt_hermite_sub", {"H": 0.3, "q": 2}, HermiteVariation(fgn(0.3), 2)),
    ("asclt_general_f", {"H": 0.3, "f": "arctan", "expansion_order": 9},
     GeneralF(fgn(0.3), expand(np.arctan, qmax=9))),
])
def test_pooled_il_matches_serial_diagnostic(experiment, model, spec):
    t_grid, n_grid = (0.0, 0.5, 1.0), [16, 64, 256]
    # 6 replicates at n = 256 are one block (run in the parent), 300 are three.
    for replicates in (6, 300):
        expect = il_from_prefixes(t_grid, n_grid, [
            il_delta_prefixes(spec, t_grid, n_grid, SEED + cli._SEED_IL, rep)
            for rep in range(replicates)])
        for workers in (1, 2):
            cfg = _small_asclt(experiment, model, workers, replicates)
            with cli._Executor(workers) as ex:
                (prefixes,) = ex.run(cli._il_stage(cfg, n_grid))
            assert ex.failures == [] and list(prefixes) == list(range(replicates))
            assert il_from_prefixes(t_grid, n_grid, list(prefixes.values())) == expect


def _assert_same_outputs(out1, out2):
    """Every file two runs wrote, run_meta.json aside, byte for byte."""
    names = sorted(p.name for p in out1.iterdir() if p.name != "run_meta.json")
    assert names == sorted(p.name for p in out2.iterdir() if p.name != "run_meta.json")
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_asclt_reports_identical_across_workers(tmp_path):
    small = dict(n_max=256, n_grid=[16, 64, 256], seeds={"master_seed": SEED, "replicates": 6},
                 t_grid=[0.5, 1.0])
    for name, experiment, model, overrides in (
        ("sub", "asclt_hermite_sub", {"H": 0.3, "q": 2}, {}),
        ("sub_q3", "asclt_hermite_sub", {"H": 0.3, "q": 3}, {}),
        ("general_f", "asclt_general_f", {"H": 0.3, "f": "arctan", "expansion_order": 9}, {}),
        ("crit", "asclt_hermite_crit", {"H": 0.75, "q": 2}, {}),
        # Two lag-sum groups, (1, 3) and (2, 2), so two criteria tasks.
        ("crit_q4", "asclt_hermite_crit", {"H": 7 / 8, "q": 4}, {}),
        ("fbm", "asclt_fbm", {"H": 0.7}, {}),
        ("non_gaussian", "non_gaussian", {"H": 0.9, "q": 2},
         {"seeds": {"master_seed": SEED, "replicates": 10}, "t_grid": [1.0]}),
    ):
        doc = _doc(experiment, model=model, **{**small, **overrides})
        cfg_path = _write_config(tmp_path, f"{name}.json", doc)
        outs = [tmp_path / f"{name}-w{w}" for w in (1, 2)]
        for w, out in zip((1, 2), outs):
            assert main(["run", "--config", cfg_path, "--out", str(out),
                         "--workers", str(w)]) in (0, 2)
        _assert_same_outputs(*outs)


_CRITERIA_SPECS = [
    HermiteVariation(fgn(H), q)
    for q, Hs in ((2, (0.3, 0.75, 0.9)), (3, (0.3, 5 / 6, 0.9)), (4, (0.3, 7 / 8, 0.95)))
    for H in Hs
]


def test_pooled_criteria_matches_inline():
    assert sorted(spec.regime for spec in _CRITERIA_SPECS) == sorted(
        ["subcritical", "critical", "supercritical"] * 3)
    scan_ns = (64, 211, 256)
    expect = {}
    for spec in _CRITERIA_SPECS:
        keys = contraction_keys(spec, 256)
        values = dict(zip(keys, contraction_values(spec.model, keys)))
        expect[spec] = (criteria_diagnostic(spec, 256, values),
                        [contraction_norm_sq(spec.model, spec.q, 1, n).value * math.log(n)
                         for n in scan_ns])
    stages = [cli.Tasks(f"criteria {i}", functools.partial(cli._criteria_tasks, spec, 256, scan_ns))
              for i, spec in enumerate(_CRITERIA_SPECS)]
    # One task per (a, b) group of the spec's lag-sum keys.
    tasks = [len({key[:2] for key in contraction_keys(spec, 256, scan_ns)})
             for spec in _CRITERIA_SPECS]
    for workers in (1, 2):
        with cli._Executor(workers) as ex:
            assert list(ex.run(*stages)) == [expect[spec] for spec in _CRITERIA_SPECS]
        assert [entry["ok"] for entry in ex.log] == tasks


@pytest.mark.parametrize("q", [2, 4])
def test_each_lag_sum_key_is_evaluated_once(monkeypatch, q):
    # q = 4 has r = 1 and r = 3 on one key and a second (a, b) group, (2, 2);
    # the scan sizes 69 and 211 are also criteria grid points, 256 is not.
    calls, passes = [], []
    real_pass = kernels._bordering_pass

    def counting(model, q, r, n):
        calls.append((min(r, q - r), max(r, q - r), n))
        return contraction_norm_sq(model, q, r, n)

    def counting_pass(p, q, n):
        passes.append(n)
        return real_pass(p, q, n)

    monkeypatch.setattr(asclt, "contraction_norm_sq", counting)
    monkeypatch.setattr(kernels, "_bordering_pass", counting_pass)
    # An empty store, so that every pass of the run is counted.
    memo.clear()
    H = 1 - 1 / (2 * q)
    cfg, errors = validate_config(_doc(
        "asclt_hermite_crit", model={"H": H, "q": q}, n_max=256, n_grid=[16, 69, 211, 256],
        seeds={"master_seed": SEED, "replicates": 2}, t_grid=[1.0]))
    assert not errors
    art = cli.run_experiment(cfg)
    grid = [int(g) for g in geometric_grid(256) if g >= 2]
    keys = {(min(r, q - r), max(r, q - r), g) for r in range(1, q) for g in grid}
    keys |= {(1, q - 1, n) for n in (69, 211, 256)}
    assert len(keys) == (q // 2) * len(grid) + 1
    assert sorted(calls) == sorted(keys)
    assert calls == contraction_keys(HermiteVariation(fgn(H), q), 256, (69, 211, 256))
    # One pass per (a, b) group, to the group's largest n.
    groups = sorted({key[:2] for key in keys})
    assert passes == [max(n for *ab, n in keys if tuple(ab) == group) for group in groups]
    assert art.report["kernel_log_bounded"]["n_grid"] == [69, 211, 256]


def _small_malliavin(q=2, workers=1, replicates=100, t_grid=(1.0,)):
    cfg, errors = validate_config(_doc(
        "malliavin_bounds", model={"H": 0.3, "q": q}, n_max=256, n_grid=[256],
        seeds={"master_seed": SEED, "replicates": replicates}, t_grid=list(t_grid),
        workers=workers,
    ))
    assert not errors
    return cfg


def test_malliavin_reports_identical_across_workers(tmp_path):
    doc = _doc("malliavin_bounds", n_max=256, n_grid=[256], t_grid=[0.5, 1.0],
               seeds={"master_seed": SEED, "replicates": 100})
    cfg_path = _write_config(tmp_path, "m.json", doc)
    outs = [tmp_path / f"w{w}" for w in (1, 2)]
    for w, out in zip((1, 2), outs):
        assert main(["run", "--config", cfg_path, "--out", str(out), "--workers", str(w)]) == 0
    for name in ("report.json", "cf_gap.csv", "gebelein.csv", "summary.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_malliavin_replicate_failures_are_collected(monkeypatch):
    cfg = _small_malliavin(replicates=200, t_grid=(0.5, 1.0))

    def fail_odd(real):
        def fn(path, *args, **kwargs):
            if path.replicate_id % 2:
                raise RuntimeError("boom")
            return real(path, *args, **kwargs)
        return fn

    monkeypatch.setattr(cli, "malliavin_sample", fail_odd(malliavin_sample))
    monkeypatch.setattr(cli, "lag_covariances", fail_odd(lag_covariances))
    art = cli.run_experiment(cfg)
    odd = range(1, 200, 2)
    assert art.failures == (
        [f"malliavin replicate {r}: RuntimeError: boom" for r in odd]
        + [f"gebelein replicate {r}: RuntimeError: boom" for r in odd]
    )
    assert art.verdict == "flagged"
    spec = HermiteVariation(fgn(0.3), 2)
    survivors = [
        malliavin_sample(sample_stationary(spec.model, 256, SEED + cli._SEED_PATHS, r), spec,
                         with_d2g=False)
        for r in range(0, 200, 2)
    ]
    geb_survivors = [
        lag_covariances(sample_stationary(fgn(cli._GEBELEIN_H), 256, SEED + cli._SEED_GEBELEIN, r),
                        np.arctan, range(cli._GEBELEIN_MAX_LAG + 1))
        for r in range(0, 200, 2)
    ]
    res = art.report
    assert res["replicates"] == 100
    assert res["dg_norm"]["mean_over_q"] == float(
        np.array([r.dg_norm_sq for r in survivors]).mean() / 2)
    assert res["cf_gap"] == [
        {"t": g.t, "gap_mc": g.gap_mc, "gap_se": g.gap_se, "bound": g.bound,
         "holds": g.gap_mc <= g.bound + 4.0 * g.gap_se}
        for g in (cf_gap_bound(spec, survivors, t) for t in cfg.t_grid)
    ]
    for check in (co1_check(spec, survivors), co2_check(spec, survivors)):
        expect = dataclasses.asdict(check)
        del expect["name"]
        assert res[check.name] == expect
    geb = gebelein_check(geb_survivors, np.arctan, range(cli._GEBELEIN_MAX_LAG + 1))
    assert res["gebelein"]["rows"] == [dataclasses.asdict(row) for row in geb]


def test_d2g_trace_runs_once_per_path(monkeypatch):
    # q = 3: f'' depends on the path, so each replicate needs its own
    # weighted quartic trace; the three cf_gap rows and co2 share it.
    calls = []
    real = malliavin._weighted_quartic_trace

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(malliavin, "_weighted_quartic_trace", counting)
    art = cli.run_experiment(_small_malliavin(q=3, t_grid=(0.5, 1.0, 2.0)))
    assert art.failures == [] and len(art.report["cf_gap"]) == 3
    assert calls == [256] * 100


def test_il_replicate_failures_are_collected(monkeypatch, tmp_path):
    cfg = _small_asclt("asclt_hermite_sub", {"H": 0.3, "q": 2})

    def fail_odd(spec, t_grid, n_grid, seed, rep):
        if rep % 2:
            raise RuntimeError("boom")
        return il_delta_prefixes(spec, t_grid, n_grid, seed, rep)

    monkeypatch.setattr(cli, "il_delta_prefixes", fail_odd)
    art = cli.run_experiment(cfg)
    assert art.failures == [f"il replicate {r}: RuntimeError: boom" for r in (1, 3, 5)]
    spec = HermiteVariation(fgn(0.3), 2)
    survivors = [
        il_delta_prefixes(spec, cfg.t_grid, cfg.n_grid, SEED + cli._SEED_IL, r) for r in (0, 2, 4)
    ]
    expect = cli._il_to_dict(il_from_prefixes(cfg.t_grid, cfg.n_grid, survivors))
    assert {k: v for k, v in art.report["il"].items() if k != "in_verdict"} == expect
    assert art.report["ks"]["n_grid"] == [16, 64, 256]
    # Every in-verdict piece holds here, but failed replicates flag the run.
    assert all(p.ok is not False for p in art.pieces) and art.verdict == "flagged"
    assert cli.run(dataclasses.replace(cfg, out_dir=str(tmp_path)), echo=lambda line: None) == 1
    assert json.loads((tmp_path / "report.json").read_text())["verdict"] == "flagged"
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert summary[-4:] == [f"  failure: il replicate {r}: RuntimeError: boom" for r in (1, 3, 5)] + [
        "verdict: flagged"]


def test_ks_csv_names_replicate_ids_when_one_fails(monkeypatch, tmp_path):
    real = cli._ks_prefix_worker

    def fail_1(args):
        if args[-1] == 1:
            raise RuntimeError("boom")
        return real(args)

    monkeypatch.setattr(cli, "_ks_prefix_worker", fail_1)
    cfg = _small_asclt("asclt_hermite_sub", {"H": 0.3, "q": 2}, replicates=4)
    assert cli.run(dataclasses.replace(cfg, out_dir=str(tmp_path)), echo=lambda line: None) == 1
    assert json.loads((tmp_path / "report.json").read_text())["failures"] == [
        "ks replicate 1: RuntimeError: boom"]
    rows = (tmp_path / "ks.csv").read_text().splitlines()
    assert rows[0] == "n,seed,ks_distance"
    assert rows[1:] == [
        f"{n},{rep},{ks!r}" for rep in (0, 2, 3)
        for n, ks in zip(cfg.n_grid, real((*cli._spec_args(cfg), cfg.n_grid, SEED, rep)))]


def test_all_il_replicates_failing_reports_flagged_without_rows(monkeypatch, tmp_path):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "il_delta_prefixes", boom)
    cfg = _small_asclt("asclt_hermite_sub", {"H": 0.3, "q": 2})
    art = cli.run_experiment(cfg)
    assert art.report["il"]["rows"] == [] and art.report["il"]["sup_delta_sq"] == []
    assert art.report["il"]["verdict"] == "flagged"
    assert len(art.failures) == cfg.replicates
    assert all(f.startswith("il replicate ") for f in art.failures)
    doc = _doc("asclt_hermite_sub", n_max=256, n_grid=[16, 64, 256],
               seeds={"master_seed": SEED, "replicates": 6}, t_grid=[1.0])
    out = tmp_path / "failing"
    assert main(["run", "--config", _write_config(tmp_path, "f.json", doc),
                 "--out", str(out)]) == 1
    assert len(json.loads((out / "report.json").read_text())["failures"]) == 6


def _count_pools(monkeypatch) -> list:
    made = []
    real = concurrent.futures.ProcessPoolExecutor

    class Counting(real):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    return made


def _small(experiment, workers, **overrides):
    cfg, errors = validate_config(_doc(experiment, workers=workers, **overrides))
    assert not errors
    return cfg


def test_one_pool_per_run(monkeypatch):
    """Every runner with stages opens one pool at workers > 1 and none at 1;
    kernels_decay and sigma_limits run inline and open none."""
    made = _count_pools(monkeypatch)
    general_f = {"H": 0.3, "f": "arctan", "expansion_order": 9}
    seeds = {"master_seed": SEED, "replicates": 100}
    runs = [  # (config at a worker count, whether the run has pool stages)
        (lambda w: _small_asclt("asclt_general_f", general_f, w), True),
        (lambda w: _small("non_gaussian", w, n_max=256, n_grid=[16, 64, 256], seeds=seeds,
                          t_grid=[1.0]), True),
        (lambda w: _small("delta_exactness", w, n_max=128, n_grid=[128], seeds=seeds,
                          t_grid=[0.5]), True),
        (lambda w: _small_malliavin(workers=w), True),
        (lambda w: _small("kernels_decay", w, n_max=256, n_grid=[64, 256]), False),
        (lambda w: _small("sigma_limits", w, n_max=1000, n_grid=[100, 1000]), False),
    ]
    runners = {cli._EXPERIMENTS[make(1).experiment].runner for make, _ in runs}
    assert runners == {entry.runner for entry in cli._EXPERIMENTS.values()}
    for make, pooled in runs:
        for workers in (1, 2):
            made.clear()
            art = cli.run_experiment(make(workers))
            assert art.failures == []
            assert made == ([2] if workers == 2 and pooled else []), (make(1).experiment, workers)
            assert bool(art.stages) == pooled


def test_non_gaussian_failures_name_their_stage(monkeypatch, tmp_path):
    # Replicate 2 fails in zn and replicate 3 in both separation stages, in
    # blocks of 128 replicates (three per stage, so pooled at w2).
    real_zn, real_sep = cli._zn_worker, cli._sep_worker

    def zn(args):
        if args[-1] == 2:
            raise RuntimeError("boom")
        return real_zn(args)

    def sep(args):
        if args[-1] == 3:
            raise RuntimeError("boom")
        return real_sep(args)

    monkeypatch.setattr(cli, "_zn_worker", zn)
    monkeypatch.setattr(cli, "_sep_worker", sep)
    doc = _doc("non_gaussian", n_max=256, n_grid=[16, 64, 256], t_grid=[1.0],
               seeds={"master_seed": SEED, "replicates": 300})
    cfg_path = _write_config(tmp_path, "ng.json", doc)
    outs = [tmp_path / f"w{w}" for w in (1, 2)]
    codes = [main(["run", "--config", cfg_path, "--out", str(out), "--workers", str(w)])
             for w, out in zip((1, 2), outs)]
    assert codes == [1, 1]
    failures = json.loads((outs[0] / "report.json").read_text())["failures"]
    assert failures == ["zn replicate 2: RuntimeError: boom",
                        "separation_sup replicate 3: RuntimeError: boom",
                        "separation_sub replicate 3: RuntimeError: boom"]
    _assert_same_outputs(*outs)


def test_run_meta_logs_each_stage(monkeypatch, tmp_path):
    real = cli._ks_prefix_worker

    def fail_1(args):
        if args[-1] == 1:
            raise RuntimeError("boom")
        return real(args)

    monkeypatch.setattr(cli, "_ks_prefix_worker", fail_1)
    reports = []
    for workers in (1, 2):
        # 300 replicates at n = 256 are three blocks, pooled at w2.
        cfg = _small_asclt("asclt_hermite_sub", {"H": 0.3, "q": 2}, workers, replicates=300)
        out = tmp_path / f"w{workers}"
        assert cli.run(dataclasses.replace(cfg, out_dir=str(out)), echo=lambda line: None) == 1
        meta = json.loads((out / "run_meta.json").read_text())
        stages = meta["stages"]
        # Queue order: the criteria group (one (a, b) group of lag-sum keys),
        # then the il and KS maps.
        assert [(s["name"], s["kind"], s["ok"], s["failed"]) for s in stages] == [
            ("criteria", "tasks", 1, 0), ("il", "replicates", 300, 0), ("ks", "replicates", 299, 1)]
        assert all(set(s) == {"name", "kind", "queued_s", "collected_s", "ok", "failed"}
                   for s in stages)
        queued = [s["queued_s"] for s in stages]
        assert queued == sorted(queued) and queued[0] >= 0
        assert all(s["queued_s"] <= s["collected_s"] <= meta["elapsed_seconds"] for s in stages)
        assert meta["numpy"] == np.__version__
        assert meta["simd_baseline"] and all(isinstance(t, str) for t in meta["simd_dispatch"])
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1] and b"stages" not in reports[0]


def test_block_failure_is_reported_per_replicate_alike_across_workers(monkeypatch, tmp_path):
    # Replicate 37 sits inside the second 32-row block at n = 1024: that block
    # raises, is re-run one replicate at a time, and only 37 fails.
    real = cli.build_gseries

    def fail_37(path, spec, *args):
        if path.replicate_id <= 37 < path.replicate_id + len(np.atleast_2d(path.values)):
            raise RuntimeError("boom")
        return real(path, spec, *args)

    monkeypatch.setattr(cli, "build_gseries", fail_37)
    doc = _doc("delta_exactness", n_max=1024, n_grid=[1024], t_grid=[0.5, 1.0],
               seeds={"master_seed": SEED, "replicates": 100})
    cfg_path = _write_config(tmp_path, "d.json", doc)
    outs = [tmp_path / f"w{w}" for w in (1, 2)]
    codes = [main(["run", "--config", cfg_path, "--out", str(out), "--workers", str(w)])
             for w, out in zip((1, 2), outs)]
    assert codes == [1, 1]
    reports = [json.loads((out / "report.json").read_text()) for out in outs]
    assert reports[0]["failures"] == ["delta replicate 37: RuntimeError: boom"]
    _assert_same_outputs(*outs)
    cfg = load_config(cfg_path)
    stage = cli.Replicates("delta", "_delta_worker", (*cli._spec_args(cfg), 1024, (0.5, 1.0), SEED),
                           100, 1024)
    for workers in (1, 2):
        with cli._Executor(workers) as ex:
            (results,) = ex.run(stage)
        assert ex.failures == ["delta replicate 37: RuntimeError: boom"]
        assert list(results) == [rep for rep in range(100) if rep != 37]


def test_delta_exactness_counts_surviving_replicates(monkeypatch):
    # Replicate 5 fails: the report's count and every row average the 99
    # replicates that succeeded, at one worker and with a pool alike.
    real = cli._delta_worker

    def fail_5(args):
        first, count = args[-2:]
        if first <= 5 < first + count:
            raise RuntimeError("boom")
        return real(args)

    monkeypatch.setattr(cli, "_delta_worker", fail_5)
    for workers in (1, 2):
        cfg = _small("delta_exactness", workers, n_max=1024, n_grid=[1024], t_grid=[0.5, 1.0],
                     seeds={"master_seed": SEED, "replicates": 100})
        art = cli.run_experiment(cfg)
        assert art.failures == ["delta replicate 5: RuntimeError: boom"]
        assert art.report["replicates"] == 99
        head = (*cli._spec_args(cfg), 1024, (0.5, 1.0), SEED)
        vals = [real((*head, rep, 1))[0] for rep in range(100) if rep != 5]
        for i, row in enumerate(art.report["rows"]):
            assert row["mc"] == float((np.abs(np.array([v[i] for v in vals])) ** 2).mean())


def test_worker_tables_stay_within_the_per_point_budget():
    # The memo tables one KS, one il and one Malliavin worker call leave
    # behind at n = 2^14 fit the store's budget scaled from MAX_N to n.
    n = 1 << 14
    cfg = _small("asclt_general_f", 1, n_max=n, n_grid=[1024, 4096, n],
                 seeds={"master_seed": SEED, "replicates": 2})
    memo.clear()
    cli._ks_prefix_worker((*cli._spec_args(cfg), tuple(cfg.n_grid), SEED, 0))
    cli._il_worker((*cli._spec_args(cfg), tuple(cfg.t_grid), tuple(cfg.n_grid), SEED, 0))
    cli._malliavin_worker((cfg.model["H"], 2, n, SEED, 0, 1))
    assert 0 < memo.held_bytes() <= memo.CACHE_BYTES * n / MAX_N


def test_criteria_error_is_reported_alike_across_workers(monkeypatch, tmp_path, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("criteria boom")

    monkeypatch.setattr(cli, "criteria_diagnostic", boom)
    doc = _doc("asclt_hermite_sub", model={"H": 0.3, "q": 2}, n_max=256,
               n_grid=[16, 64, 256], seeds={"master_seed": SEED, "replicates": 6},
               t_grid=[1.0])
    cfg_path = _write_config(tmp_path, "c.json", doc)
    seen = []
    for w in (1, 2):
        code = main(["run", "--config", cfg_path, "--out", str(tmp_path / f"w{w}"),
                     "--workers", str(w)])
        seen.append((code, capsys.readouterr().err))
    assert seen[0] == seen[1] == (1, "error: criteria boom\n")


def test_contraction_error_is_reported_alike_across_workers(monkeypatch, tmp_path, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("contraction boom")

    monkeypatch.setattr(asclt, "contraction_norm_sq", boom)
    doc = _doc("asclt_hermite_crit", model={"H": 0.75, "q": 2}, n_max=256,
               n_grid=[16, 64, 256], seeds={"master_seed": SEED, "replicates": 6},
               t_grid=[1.0])
    cfg_path = _write_config(tmp_path, "c.json", doc)
    seen = []
    for w in (1, 2):
        out = tmp_path / f"w{w}"
        code = main(["run", "--config", cfg_path, "--out", str(out), "--workers", str(w)])
        seen.append((code, capsys.readouterr().err, (out / "report.json").exists()))
    assert seen[0] == seen[1] == (1, "error: contraction boom\n", False)


_FOOTPRINT_SCRIPT = """
import json, sys
import asclt_lab.cli as cli

heavy = ("scipy.special", "scipy.linalg", "numpy.ma")
out = {"import": [m for m in heavy if m in sys.modules]}
loaded = set(sys.modules)
codes = [cli.main(["run", "--config", c, "--out", c + ".out", "--workers", "1"])
         for c in sys.argv[1:]]
out["runs"] = [m for m in heavy if m in sys.modules]
out["new_numpy"] = sorted(m for m in set(sys.modules) - loaded if m.split(".")[0] == "numpy")
out["codes"] = codes
print(json.dumps(out))
"""


def test_runs_import_no_scipy_special_or_linalg(tmp_path):
    # A fresh interpreter: the test process itself has imported scipy. Nor
    # numpy.ma, which np.median would load: an asclt and a non_gaussian run
    # take their medians without it.
    seeds = {"master_seed": SEED, "replicates": 100}
    docs = {
        "f.json": _doc("asclt_general_f", n_max=256, n_grid=[16, 64, 256], t_grid=[1.0],
                       seeds={"master_seed": SEED, "replicates": 10}),
        "m.json": _doc("malliavin_bounds", n_max=256, n_grid=[256], t_grid=[0.5], seeds=seeds),
        "d.json": _doc("delta_exactness", n_max=256, n_grid=[256], t_grid=[1.0], seeds=seeds),
        "n.json": _doc("non_gaussian", n_max=256, n_grid=[16, 64, 256], t_grid=[1.0],
                       seeds={"master_seed": SEED, "replicates": 10}),
    }
    configs = [_write_config(tmp_path, name, doc) for name, doc in docs.items()]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT, *configs], env=env,
                          capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["import"] == [] and out["runs"] == []
    assert out["new_numpy"] == []
    assert all(code in (0, 2) for code in out["codes"])


# Every output file of all nine experiments at small sizes, pinned by sha256.
# Together with the across-worker tests above, this fixes the report format:
# the spec, model and expansion blocks, the criteria block, every CSV and the
# summary lines.
_PINNED_RUNS = {
    "asclt_fbm": dict(model={"H": 0.7}, n_max=256, n_grid=[16, 64, 256],
                      seeds={"master_seed": SEED, "replicates": 6}, t_grid=[0.0, 0.5, 1.0]),
    "asclt_hermite_sub": dict(model={"H": 0.3, "q": 2}, n_max=256, n_grid=[16, 64, 256],
                              seeds={"master_seed": SEED, "replicates": 6},
                              t_grid=[0.0, 0.5, 1.0]),
    "asclt_hermite_crit": dict(model={"H": 0.75, "q": 2}, n_max=256, n_grid=[16, 64, 256],
                               seeds={"master_seed": SEED, "replicates": 6},
                               t_grid=[0.0, 0.5, 1.0]),
    "asclt_general_f": dict(model={"H": 0.3, "f": "arctan", "expansion_order": 9}, n_max=256,
                            n_grid=[16, 64, 256], seeds={"master_seed": SEED, "replicates": 6},
                            t_grid=[0.0, 0.5, 1.0]),
    "non_gaussian": dict(model={"H": 0.9, "q": 2}, n_max=256, n_grid=[16, 64, 256],
                         seeds={"master_seed": SEED, "replicates": 10}, t_grid=[1.0]),
    "kernels_decay": dict(model={"H": 0.3, "q": 3}, n_max=1024, n_grid=[64, 256, 1024]),
    "delta_exactness": dict(model={"H": 0.8}, n_max=128, n_grid=[128], t_grid=[0.5, 1.0],
                            seeds={"master_seed": SEED, "replicates": 200}),
    "malliavin_bounds": dict(model={"H": 0.3, "q": 2}, n_max=256, n_grid=[256],
                             seeds={"master_seed": SEED, "replicates": 100},
                             t_grid=[0.5, 1.0]),
    "sigma_limits": dict(model={"H": 0.75, "q": 2}, n_max=10000, n_grid=[1000, 10000]),
}


def _pinned_outputs(tmp_path, workers: int) -> dict:
    """{experiment: (exit code, {file: sha256})} of one run per experiment."""
    got = {}
    for experiment, overrides in _PINNED_RUNS.items():
        cfg_path = _write_config(tmp_path, f"{experiment}.json", _doc(experiment, **overrides))
        out = tmp_path / f"{experiment}-w{workers}"
        code = main(["run", "--config", cfg_path, "--out", str(out), "--workers", str(workers)])
        got[experiment] = (code, {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "run_meta.json"})
    return got


_PINNED_BYTES = {
    "asclt_fbm": (2, {
        "ks.csv": "4fa8f3221e5c9b554b9ba5c7052d95b33ae443fabe1412180f739500a47c96a0",
        "report.json": "442a42861b959b9d8403d70a3621db8b443fefad0fe2f0afca434fc22f14b071",
        "summary.txt": "535a2343d6b2061cf817393525b40907e1da261df9cc550c38f671c07fe13e31",
    }),
    "asclt_hermite_sub": (0, {
        "ks.csv": "e2942ead0a50cf0132339eeb860da823c59424e2b595d1f7e8d94e96589c5e7d",
        "report.json": "b09007e2de8840b344c658f2f5a25fa6f3f74b8083e34ec1828b2fff59737b16",
        "summary.txt": "228cc5bc2d91d7d2ff3c1e7ae514d05306a0a1ab8f9b9eda5a8a1fde9f8a9ec0",
    }),
    "asclt_hermite_crit": (0, {
        "ks.csv": "9d995562082814e53216398a0ec1d6f0bd8a9553a8880387037256033157cbf6",
        "report.json": "d0b8cc277dd208f6116f22a9a5c8fcc5ca629becdf934ba83d047ad850c75188",
        "summary.txt": "d3a7c51cb1d64985c6ee679bdffe4b67fb715d60dc166d6d9ed01ff03139f7eb",
    }),
    "asclt_general_f": (2, {
        "ks.csv": "ff5a9051fe6ccad699d437f3e0f8abee6eac87bd45b420daa6015340f2c1cbec",
        "report.json": "05fa812106ea2fb1d7f02f8f52a1ebadb1baad5694371a026da8ca6f3e8a73b4",
        "summary.txt": "8c0545bf43f35fd4688613f4c6cf57e946a96aae08c52cfcdcb228ad72face3b",
    }),
    "non_gaussian": (2, {
        "report.json": "0944af661419b97a4cad4f5832f98c55d2a06abbd693b9b829d044b8de37ef5b",
        "summary.txt": "00cf6728bdc6dfd30d98d964c1f41d850f114a705502afde0daeecb4fa3c92dc",
        "zn_cauchy.csv": "ce6c87677b3be7ad3ba7f254c26a1d9fa0071200d858aeaecd8dc280b8147988",
    }),
    "kernels_decay": (0, {
        "contractions.csv": "6111c22dffd9d5e42e7b18ee51e5e3ce26665d1f3bf429ece1cce3e234af0de2",
        "report.json": "0eff36c304cbece2120180718d24edd40ca14a9caad1b38e31fb4b7cb95a175f",
        "summary.txt": "810aafcbad3a65cd2a1a659df18723d04fe1259ac2de34aa804dc0fb28cc78b4",
    }),
    "delta_exactness": (0, {
        "delta.csv": "9940fd95697d6c9c6aff00853e0c88ee3fcfa443d8ae018e2974e308c8fd8fb0",
        "report.json": "f6079ff692cbcca8a9f49d87cb6ca8f9609febd3acb7bbe217fb818c5c37f08b",
        "summary.txt": "194bfcc2fdf3fdf16d73a5eef629443539f0955162f4d33935a097e005c88304",
    }),
    "malliavin_bounds": (0, {
        "cf_gap.csv": "7cc0e7cd797ecdd916c0227fe0c55e2916a3bf1d55546c2a9bd98e935013c890",
        "gebelein.csv": "7b95510a3627d5d1069361239207954928b77e01bfa8d6bf217a9df1b93de3dc",
        "report.json": "48a2a124ade423b746fa0dd935aa164442d4d173787f0f04b7b200c418fb1813",
        "summary.txt": "8ffba13264a76a201fe0e98e46fac1bc44bb26cf5665bc3bee30e81e21110491",
    }),
    "sigma_limits": (2, {
        "report.json": "a849ef2ca8a76737a33af10bcbe431190517853e98e1201e717309cba1cdabae",
        "sigma.csv": "1595f5676a372e47e263701b66e713d12b22e0d61a2c973da0915bd626ac40af",
        "summary.txt": "f3cc814b4b74be1a49e5cdcc796f39bd951c9f380ea17b2d09ad030585609feb",
    }),
}


@pytest.mark.parametrize("workers", [1, 2])
def test_output_bytes_are_pinned(tmp_path, workers):
    assert _pinned_outputs(tmp_path, workers) == _PINNED_BYTES
