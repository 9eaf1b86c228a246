"""Experiment orchestration: JSON configs, seeded ensembles, report files.

A run is fully determined by its config document. At workers > 1 a run
opens one process pool that serves all of its stages: replicates, and the
deterministic stages that run alongside them. Replicate workers receive
primitive tuples naming a block of replicate ids (about 2^16 sampled points
per block) and rebuild their sequence spec locally; deterministic
tasks receive the spec or covariance model itself. All return plain numbers
or small records that the parent merges in submission order, so
report.json is byte-identical whatever the worker count. Machine facts
(timestamps, elapsed time, peak memory, worker count, output directory)
live in a separate run_meta.json and never touch the report.

Exit codes: 0 every verdict consistent, 2 at least one flagged, 1 error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import datetime
import functools
import itertools
import json
import math
import resource
import sys
import time
from collections.abc import Callable, Iterator
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np
import scipy
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

from . import __version__
from .asclt import (
    EXACT_DELTA_MAX_N,
    IlDiagnostic,
    contraction_keys,
    contraction_values,
    criteria_diagnostic,
    delta_stat,
    exact_delta_sq,
    harmonic_weighted_mean,
    il_delta_prefixes,
    il_from_exact,
    il_from_prefixes,
    ks_distance,
    log_average_measure,
)
from .covariance import fgn
from .gaussian_sim import MAX_N, block_rows, sample_ensemble, sample_fbm_grid, sample_stationary
from .hermite import expand, resolve_test_function
from .kernels import contraction_norm_sq
from .malliavin import (
    cf_gap_bound,
    co1_check,
    co2_check,
    d2g_depends_on_path,
    gebelein_check,
    lag_covariances,
    malliavin_sample,
)
from .sequences import (
    FbmScaled,
    GeneralF,
    HermiteVariation,
    build_gseries,
    gseries_prefixes,
    regime_for,
    sigma_limit,
    sigma_n_squared,
    zn_dyadic,
    zn_limit_second_moment,
    zn_second_moment,
)

SCHEMA_VERSION = 1

# Cap for the condition-series diagnostic; beyond this the fits stop moving
# but the contraction grids get expensive.
_CRITERIA_N_CAP = 1 << 12
# Dense il grids below this point are dominated by small-n transients.
_MIN_IL_N = 4
# Largest seeds.replicates: a replicate stage queues all of its blocks up front.
_MAX_REPLICATES = 1 << 20
# Derived seed offsets, one disjoint stream per diagnostic within a run.
_SEED_KS = 0
_SEED_IL = 1
_SEED_ZN = 2
_SEED_SEP_SUP = 3
_SEED_SEP_SUB = 4
_SEED_PATHS = 5
_SEED_GEBELEIN = 6
# Subcritical twin used as the contrast in the supercritical experiment.
_SEP_TWIN_H = 0.3
_GEBELEIN_H = 0.7
_GEBELEIN_MAX_LAG = 20
_KERNEL_BOUNDED_RATIO = 2.0
# Largest grid size for the critical boundedness scan; one contraction at
# 2^16 alone costs minutes, far past the desk budget.
_KERNEL_BOUNDED_MAX_N = 1 << 14


class ConfigError(ValueError):
    """A single bad config field; `field` identifies it dot-separated."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config error at '{field}': {message}")
        self.field = field
        self.reason = message


class ConfigValidationError(ValueError):
    """Everything wrong with one config document, collected."""

    def __init__(self, errors: list[ConfigError]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: dict
    n_max: int
    n_grid: tuple[int, ...]
    master_seed: int
    replicates: int
    t_grid: tuple[float, ...]
    tolerances: dict
    out_dir: str
    workers: int

    def canonical(self) -> dict:
        """Config echo for report.json; excludes out_dir and workers so the
        report stays byte-identical across relocations and worker counts."""
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "model": dict(self.model),
            "n_max": self.n_max,
            "n_grid": list(self.n_grid),
            "seeds": {"master_seed": self.master_seed, "replicates": self.replicates},
            "t_grid": list(self.t_grid),
            "tolerances": dict(self.tolerances),
        }


@dataclass(frozen=True)
class Piece:
    """One summary line and what it says about the verdict: ok is whether
    its check holds, None for an informational line that never gates it."""

    line: str
    ok: bool | None = None


@dataclass(frozen=True)
class RunArtifacts:
    report: dict
    csvs: dict[str, str]
    pieces: list[Piece]
    failures: list[str]
    stages: list[dict]  # run_meta.json's stage log

    @property
    def verdict(self) -> str:
        """A run is consistent when every in-verdict piece holds and no
        replicate failed."""
        held = all(p.ok for p in self.pieces if p.ok is not None)
        return "consistent" if held and not self.failures else "flagged"


# ---------------------------------------------------------------------------
# Experiment registry records. The entries, in the stable `list` order,
# follow the runners at the end of the module.


@dataclass(frozen=True)
class Experiment:
    """One experiment: its defaults, runner and validation rules. The keys
    of defaults["model"] and defaults["tolerances"] are the fields a config
    may set there; the other rules apply once every field is well-formed."""

    description: str
    defaults: dict
    runner: Callable[[ExperimentConfig, _Executor], tuple[dict, dict, list[Piece]]]
    spec: str = "hermite"  # the _build_spec kind of the model
    gate: Callable[[float, int | None], str | None] | None = None  # (H, q) -> why refused
    min_replicates: int = 0
    needs_t_grid: bool = False
    min_sizes: int = 1  # entries of n_grid
    min_first_n: int = 2  # smallest n_grid[0]
    grid_within_n_max: bool = False
    exact_sizes: int = 0  # entries of n_grid <= EXACT_DELTA_MAX_N
    n_max_power_of_two: bool = False
    n_max_cap: int | None = None
    kernel_scan: bool = False  # the critical contraction * log n boundedness scan


# Regime gates: an experiment only makes sense on its side of the boundary
# H = 1 - 1/(2q).


def _critical_gate(H: float, q: int) -> str | None:
    exact = (2 * q - 1) / (2 * q)
    if H != exact:
        return f"critical run needs H = 1 - 1/(2q) = {exact!r} exactly, got {H!r}"
    return None


def _regime_gate(*regimes: str):
    def gate(H: float, q: int) -> str | None:
        if regime_for(fgn(H), q) in regimes:
            return None
        return (f"needs the {' or '.join(regimes)} regime "
                f"(boundary H = 1 - 1/(2q) = {1 - 1 / (2 * q)} for q={q})")
    return gate


def _summable_gate(H: float, q: None) -> str | None:
    if H > 0.5:
        return "general functionals need an absolutely summable covariance (H <= 1/2)"
    return None


# ---------------------------------------------------------------------------
# Config loading and validation.


def _type_name(v) -> str:
    return type(v).__name__


def _check_int(doc, key, field, errors, minimum=None, maximum=None):
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        errors.append(ConfigError(field, f"expected an integer, got {_type_name(v)}"))
        return None
    if minimum is not None and v < minimum:
        errors.append(ConfigError(field, f"must be >= {minimum}, got {v}"))
        return None
    if maximum is not None and v > maximum:
        errors.append(ConfigError(field, f"must be <= {maximum}, got {v}"))
        return None
    return v


def _check_float(doc, key, field, errors, low=None, high=None, open_ends=False):
    v = doc.get(key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        errors.append(ConfigError(field, f"expected a number, got {_type_name(v)}"))
        return None
    v = float(v)
    if not math.isfinite(v):
        errors.append(ConfigError(field, "must be finite"))
        return None
    if low is not None and (v <= low if open_ends else v < low):
        errors.append(ConfigError(field, f"must be {'>' if open_ends else '>='} {low}"))
        return None
    if high is not None and (v >= high if open_ends else v > high):
        errors.append(ConfigError(field, f"must be {'<' if open_ends else '<='} {high}"))
        return None
    return v


def _merged_defaults(experiment: str, doc: dict) -> dict:
    base = _EXPERIMENTS[experiment].defaults
    merged = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "model": dict(base["model"]),
        "n_max": base["n_max"],
        "n_grid": list(base["n_grid"]),
        "seeds": dict(base["seeds"]),
        "t_grid": list(base["t_grid"]),
        "tolerances": dict(base["tolerances"]),
        "out_dir": f"runs/{experiment}",
        "workers": 1,
    }
    for key, value in doc.items():
        if key in ("model", "seeds", "tolerances") and isinstance(value, dict):
            merged[key] = {**merged[key], **value}
        else:
            merged[key] = value
    return merged


def _validate_model(entry: Experiment, model: dict, errors: list[ConfigError]):
    if not isinstance(model, dict):
        errors.append(ConfigError("model", f"expected an object, got {_type_name(model)}"))
        return
    allowed = entry.defaults["model"]
    for key in model:
        if key not in allowed:
            errors.append(ConfigError(f"model.{key}", "unknown field"))
    H = _check_float(model, "H", "model.H", errors, low=0.0, high=1.0, open_ends=True)
    q = None
    if "q" in allowed:
        q = _check_int(model, "q", "model.q", errors, minimum=2, maximum=10)
    if "f" in allowed:
        fname = model.get("f")
        if not isinstance(fname, str):
            errors.append(ConfigError("model.f", "expected a function name string"))
        else:
            try:
                resolve_test_function(fname)
            except ValueError as exc:
                errors.append(ConfigError("model.f", str(exc)))
    if "expansion_order" in allowed:
        _check_int(model, "expansion_order", "model.expansion_order", errors,
                   minimum=1, maximum=40)
    if entry.gate is None or H is None or ("q" in allowed and q is None):
        return
    reason = entry.gate(H, q)
    if reason:
        errors.append(ConfigError("model.H", reason))


def _rule_errors(entry: Experiment, n_max: int, n_grid: list[int], replicates: int,
                 t_grid: list[float]) -> list[ConfigError]:
    """The experiment's rules that relate well-formed fields."""
    errors = []
    if len(n_grid) < entry.min_sizes:
        errors.append(ConfigError("n_grid", f"trend needs at least {entry.min_sizes} sizes"))
    elif n_grid[0] < entry.min_first_n:
        errors.append(ConfigError("n_grid[0]", f"must be >= {entry.min_first_n}"))
    elif sum(n <= EXACT_DELTA_MAX_N for n in n_grid) < entry.exact_sizes:
        errors.append(ConfigError(
            "n_grid",
            f"needs at least {entry.exact_sizes} sizes <= {EXACT_DELTA_MAX_N} "
            "for the closed-form summability reference",
        ))
    if entry.grid_within_n_max and n_grid[-1] > n_max:
        errors.append(ConfigError("n_grid", f"entries must not exceed n_max = {n_max}"))
    if entry.n_max_power_of_two and n_max & (n_max - 1):
        errors.append(ConfigError("n_max", "must be a power of two (dyadic levels)"))
    if entry.n_max_cap is not None and n_max > entry.n_max_cap:
        errors.append(ConfigError("n_max", f"closed-form reference is capped at {entry.n_max_cap}"))
    if replicates < entry.min_replicates:
        errors.append(ConfigError(
            "seeds.replicates", f"needs at least {entry.min_replicates} replicates"))
    if entry.needs_t_grid and not t_grid:
        errors.append(ConfigError("t_grid", "needs at least one frequency"))
    return errors


def validate_config(doc) -> tuple[ExperimentConfig | None, list[ConfigError]]:
    """Validate one parsed JSON document; returns (config, errors)."""
    errors: list[ConfigError] = []
    if not isinstance(doc, dict):
        return None, [ConfigError("<root>", f"expected an object, got {_type_name(doc)}")]

    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.append(ConfigError(
            "schema_version", f"expected {SCHEMA_VERSION}, got {version!r}"
        ))
    experiment = doc.get("experiment")
    if experiment not in _EXPERIMENTS:
        errors.append(ConfigError(
            "experiment",
            f"unknown experiment {experiment!r}; one of {', '.join(_EXPERIMENTS)}",
        ))
        return None, errors

    known = {
        "schema_version", "experiment", "model", "n_max", "n_grid", "seeds",
        "t_grid", "tolerances", "out_dir", "workers",
    }
    for key in doc:
        if key not in known:
            errors.append(ConfigError(key, "unknown field"))

    entry = _EXPERIMENTS[experiment]
    merged = _merged_defaults(experiment, doc)
    _validate_model(entry, merged["model"], errors)

    n_max = _check_int(merged, "n_max", "n_max", errors, minimum=2, maximum=MAX_N)
    workers = _check_int(merged, "workers", "workers", errors, minimum=1, maximum=64)
    if not isinstance(merged["out_dir"], str) or not merged["out_dir"]:
        errors.append(ConfigError("out_dir", "expected a non-empty path string"))

    seeds = merged["seeds"]
    master_seed = replicates = None
    if not isinstance(seeds, dict):
        errors.append(ConfigError("seeds", f"expected an object, got {_type_name(seeds)}"))
    else:
        for key in seeds:
            if key not in ("master_seed", "replicates"):
                errors.append(ConfigError(f"seeds.{key}", "unknown field"))
        master_seed = _check_int(seeds, "master_seed", "seeds.master_seed", errors, minimum=0)
        replicates = _check_int(seeds, "replicates", "seeds.replicates", errors, minimum=0,
                                maximum=_MAX_REPLICATES)

    n_grid: list[int] = []
    raw_grid = merged["n_grid"]
    if not isinstance(raw_grid, list) or not raw_grid:
        errors.append(ConfigError("n_grid", "expected a non-empty array of integers"))
    else:
        ok = True
        for i, v in enumerate(raw_grid):
            if not isinstance(v, int) or isinstance(v, bool) or not 2 <= v <= MAX_N:
                errors.append(ConfigError(f"n_grid[{i}]", f"expected an integer in 2..{MAX_N}"))
                ok = False
        if ok:
            n_grid = list(raw_grid)
            if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
                errors.append(ConfigError("n_grid", "must be strictly increasing"))

    t_grid: list[float] = []
    raw_t = merged["t_grid"]
    if not isinstance(raw_t, list):
        errors.append(ConfigError("t_grid", "expected an array of numbers"))
    else:
        for i, v in enumerate(raw_t):
            t = _check_float({"t": v}, "t", f"t_grid[{i}]", errors, low=0.0)
            if t is not None:
                t_grid.append(t)

    tolerances = merged["tolerances"]
    if not isinstance(tolerances, dict):
        errors.append(ConfigError("tolerances", f"expected an object, got {_type_name(tolerances)}"))
        tolerances = {}
    else:
        for key in tolerances:
            if key not in entry.defaults["tolerances"]:
                errors.append(ConfigError(f"tolerances.{key}", "unknown field"))
            else:
                _check_float(tolerances, key, f"tolerances.{key}", errors, low=0.0, open_ends=True)

    # The experiment's own rules, once field-level errors are out of the way.
    if not errors:
        errors = _rule_errors(entry, n_max, n_grid, replicates, t_grid)

    if errors:
        return None, errors
    return (
        ExperimentConfig(
            experiment=experiment,
            model=dict(merged["model"]),
            n_max=n_max,
            n_grid=tuple(n_grid),
            master_seed=master_seed,
            replicates=replicates,
            t_grid=tuple(t_grid),
            tolerances=dict(tolerances),
            out_dir=merged["out_dir"],
            workers=workers,
        ),
        [],
    )


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a config file, merge `overrides` into it (object-valued fields
    field by field) and validate the result; raises ConfigValidationError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigValidationError([ConfigError("<file>", str(exc))]) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigValidationError(
            [ConfigError("<json>", f"line {exc.lineno}, column {exc.colno}: {exc.msg}")]
        ) from exc
    if isinstance(doc, dict):
        for key, value in (overrides or {}).items():
            if isinstance(value, dict) and isinstance(doc.get(key), dict):
                value = {**doc[key], **value}
            doc[key] = value
    cfg, errors = validate_config(doc)
    if errors:
        raise ConfigValidationError(errors)
    return cfg


# ---------------------------------------------------------------------------
# Replicate workers. Primitive-tuple arguments keep them picklable; every
# worker rebuilds its spec locally and returns plain values or small frozen
# records. The last argument is always the replicate id.


def _build_spec(kind: str, H: float, q: int | None, fname: str | None, order: int | None):
    if kind == "fbm":
        return FbmScaled(H)
    if kind == "hermite":
        return HermiteVariation(fgn(H), q)
    if kind == "general_f":
        return GeneralF(fgn(H), expand(resolve_test_function(fname), order))
    raise ValueError(f"unknown spec kind {kind!r}")


def _spec_args(cfg: ExperimentConfig) -> tuple:
    """_build_spec's arguments for the experiment's spec kind and model."""
    m = cfg.model
    return (_EXPERIMENTS[cfg.experiment].spec, m["H"], m.get("q"), m.get("f"),
            m.get("expansion_order"))


def _ks_prefix_worker(args):
    kind, H, q, fname, order, n_grid, seed, rep = args
    spec = _build_spec(kind, H, q, fname, order)
    path = sample_stationary(spec.model, n_grid[-1], seed, rep)
    return tuple(
        ks_distance(log_average_measure(g)) for g in gseries_prefixes(path, spec, n_grid)
    )


def _il_worker(args):
    kind, H, q, fname, order, t_grid, n_grid, seed, rep = args
    spec = _build_spec(kind, H, q, fname, order)
    return il_delta_prefixes(spec, t_grid, n_grid, seed, rep)


def _delta_worker(args):
    kind, H, q, fname, order, n, t_grid, seed, first, count = args
    spec = _build_spec(kind, H, q, fname, order)
    g = build_gseries(sample_ensemble(spec.model, n, seed, count, first), spec)
    return list(zip(*(delta_stat(g, t).tolist() for t in t_grid)))


def _malliavin_worker(args):
    H, q, n, seed, first, count = args
    spec = HermiteVariation(fgn(H), q)
    with_d2g = d2g_depends_on_path(spec)
    return [malliavin_sample(path, spec, with_d2g=with_d2g)
            for path in sample_ensemble(spec.model, n, seed, count, first)]


def _gebelein_worker(args):
    H, n, seed, first, count = args
    lags = range(_GEBELEIN_MAX_LAG + 1)
    return [lag_covariances(path, np.arctan, lags)
            for path in sample_ensemble(fgn(H), n, seed, count, first)]


def _zn_worker(args):
    H, q, n_top, levels, seed, rep = args
    grid = sample_fbm_grid(H, n_top, seed, rep)
    return tuple(zn_dyadic(grid, q, levels))


def _sep_worker(args):
    H, q, n, seed, rep = args
    spec = HermiteVariation(fgn(H), q)
    path = sample_stationary(spec.model, n, seed, rep)
    g = build_gseries(path, spec)
    return harmonic_weighted_mean(np.arctan(g.values))


# ---------------------------------------------------------------------------
# Stage records and the executor. A runner declares its pool work as stages;
# the run's executor alone queues them, collects them and blames failures.


@dataclass(frozen=True)
class Replicates:
    """A replicate map: the worker named `worker` over replicate ids
    0..count-1 in blocks of block_rows(n) ids, n the path length. The worker
    takes (*head, first, count) and returns one result per replicate, or with
    each=True takes (*head, id) and runs once per id. It is looked up in this
    module when a block runs, so a block pickles as plain data. `name`
    prefixes each failure; with required=True the run raises when every
    replicate fails."""

    name: str
    worker: str
    head: tuple
    count: int
    n: int
    each: bool = False
    required: bool = False


@dataclass(frozen=True)
class Tasks:
    """A deterministic group: start(submit) queues its tasks through
    submit(fn, *args), which returns a zero-argument callable giving that
    task's result, and returns the reducer, a zero-argument callable run in
    the parent. An error in a task or the reducer is the run's error."""

    name: str
    start: Callable


def _run_block(stage: Replicates, first: int, count: int) -> list[tuple[str, object]]:
    """stage's worker over replicate ids first..first+count-1, as one
    (status, payload) per replicate. A block that raises is re-run one
    replicate at a time, so each failure names its stage and its own
    replicate id, the same whatever the worker count."""
    worker = globals()[stage.worker]
    try:
        if stage.each:
            return [("ok", worker((*stage.head, rep))) for rep in range(first, first + count)]
        return [("ok", result) for result in worker((*stage.head, first, count))]
    except Exception as exc:  # noqa: BLE001 - reported per replicate
        if count == 1:
            return [("err", f"{stage.name} replicate {first}: {type(exc).__name__}: {exc}")]
    return [row for rep in range(first, first + count) for row in _run_block(stage, rep, 1)]


class _Executor:
    """Runs a run's stages. At workers > 1 one pool opens with the first
    stages and serves them all; at workers == 1, and for a replicate map of
    one block, a stage runs in the parent when it is collected. `failures`
    gathers every stage's failed replicates in queue order, and `log` holds
    one run_meta.json entry per stage: its name and kind, when it was queued
    and collected (seconds since the executor started), and its ok and
    failed counts (replicates of a map; tasks of a group, none failed)."""

    def __init__(self, workers: int):
        self.workers, self.pool, self.t0 = workers, None, time.monotonic()
        self.failures: list[str] = []
        self.log: list[dict] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown()

    def run(self, *stages) -> Iterator:
        """Queue every stage now, in order. Returns an iterator that collects
        each stage when its result is read, in queue order, so the parent
        can reduce one stage while the pool runs the next. A result is
        {replicate id: result} in id order for a map, the reducer's value
        for a group."""
        if self.workers > 1 and self.pool is None:
            self.pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.workers)
        pending = []
        for stage in stages:
            entry = {"name": stage.name, "kind": type(stage).__name__.lower(), "ok": 0, "failed": 0,
                     "queued_s": time.monotonic() - self.t0}
            self.log.append(entry)
            queue = self._queue_tasks if isinstance(stage, Tasks) else self._queue_map
            pending.append((entry, queue(stage, entry)))
        return self._collect(pending)

    def _collect(self, pending) -> Iterator:
        for entry, collect in pending:
            result = collect()
            entry["collected_s"] = time.monotonic() - self.t0
            yield result

    def _queue_tasks(self, stage: Tasks, entry: dict) -> Callable:
        def submit(fn, *args):
            entry["ok"] += 1
            if self.pool is None:
                return functools.partial(fn, *args)
            return self.pool.submit(fn, *args).result

        return stage.start(submit)

    def _queue_map(self, stage: Replicates, entry: dict) -> Callable:
        step = block_rows(stage.n)
        firsts = range(0, stage.count, step)
        counts = [min(step, stage.count - first) for first in firsts]
        block = functools.partial(_run_block, stage)
        if self.pool is None or len(firsts) <= 1:
            blocks = map(block, firsts, counts)  # runs when collected
        else:
            chunk = max(1, math.ceil(len(firsts) / (8 * self.workers)))
            # Submits every chunk now.
            blocks = self.pool.map(block, firsts, counts, chunksize=chunk)

        def collect() -> dict:
            results, failed = {}, []
            for first, rows in zip(firsts, blocks):
                for rep, (status, payload) in enumerate(rows, first):
                    if status == "ok":
                        results[rep] = payload
                    else:
                        failed.append(payload)
            entry.update(ok=len(results), failed=len(failed))
            if stage.required and not results:
                raise RuntimeError(f"all replicates failed; first: {failed[0]}")
            self.failures += failed
            return results

        return collect


def _il_stage(cfg: ExperimentConfig, n_grid) -> Replicates:
    """The Monte-Carlo il map: il_delta_prefixes of each replicate at seed
    offset _SEED_IL, which il_from_prefixes reduces."""
    return Replicates("il", "_il_worker", (*_spec_args(cfg), tuple(cfg.t_grid), tuple(n_grid),
                                           cfg.master_seed + _SEED_IL),
                      cfg.replicates, n_grid[-1], each=True)


def _criteria_tasks(spec, n_max: int, scan_ns, submit):
    """The criteria group's start at min(n_max, _CRITERIA_N_CAP). A
    HermiteVariation spec queues one contraction_values task per (a, b)
    group of its quartic lag-sum keys: the task runs one bordering pass to
    the group's largest n and reads every key of the group from it.
    criteria_diagnostic reduces the values in the parent, and the
    contraction * log n scan over scan_ns (empty unless critical) reads the
    same values. Other specs have no contractions and run as one task. The
    reducer gives (CriteriaReport, scan values)."""
    n_max = min(n_max, _CRITERIA_N_CAP)
    keys = contraction_keys(spec, n_max, scan_ns)
    if not keys:
        pending = submit(criteria_diagnostic, spec, n_max)
        return lambda: (pending(), [])
    groups = [tuple(group) for _, group in itertools.groupby(keys, key=lambda key: key[:2])]
    values = [(group, submit(contraction_values, spec.model, group)) for group in groups]

    def reduce():
        contractions = {}
        for group, pending in values:
            contractions.update(zip(group, pending()))
        scan = [contractions[(1, spec.q - 1, n)] * math.log(n) for n in scan_ns]
        return criteria_diagnostic(spec, n_max, contractions), scan

    return reduce


# ---------------------------------------------------------------------------
# Report pieces. This module alone decides the output format: report blocks
# are plain dicts, and every CSV goes through _csv.


def _csv(header: str, rows) -> str:
    """CSV text: integer and bool cells as integers, every other cell as
    repr(float(x))."""
    def cell(x) -> str:
        return str(int(x)) if isinstance(x, (int, np.integer, np.bool_)) else repr(float(x))
    return header + "\n" + "".join(",".join(map(cell, row)) + "\n" for row in rows)


def _spec_dict(spec) -> dict:
    model = {k: v for k, v in asdict(spec.model).items() if v is not None}
    if isinstance(spec, FbmScaled):
        return {"variant": "fbm_scaled", "H": spec.H}
    if isinstance(spec, HermiteVariation):
        return {"variant": "hermite_variation", "model": model, "q": spec.q,
                "regime": spec.regime}
    return {"variant": "general_f", "model": model, "expansion": asdict(spec.expansion)}


def _il_to_dict(il: IlDiagnostic) -> dict:
    return {
        "n_grid": list(il.n_grid),
        "verdict": il.verdict,
        "sup_delta_sq": [float(v) for v in il.sup_delta_sq],
        "rows": [
            {
                "t": row.t,
                "delta_sq": [float(v) for v in row.delta_sq],
                "partial_sums": [float(v) for v in row.partial_sums],
                "fitted_decay": row.fitted_decay,
                "verdict": row.verdict,
            }
            for row in il.rows
        ],
    }


def _column_median(rows: np.ndarray) -> np.ndarray:
    """np.median(rows, axis=0) from one sort: the middle entry of an odd
    count, the mean (a + b) / 2.0 of the two middle entries of an even one,
    NaN where a column holds one. The same bits for rows without -0.0, whose
    order against +0.0 the sort and np.median's partition may choose apart;
    the callers pass distances and absolute differences. np.median would
    load numpy.ma on its first call, a module no run needs otherwise."""
    s = np.sort(rows, axis=0)
    m = s.shape[0] // 2
    med = s[m] if s.shape[0] % 2 else (s[m - 1] + s[m]) / 2.0
    med[np.isnan(s[-1])] = np.nan  # the sort puts NaN last
    return med


def _ks_trend(cfg: ExperimentConfig, ks: dict) -> tuple[dict, Piece]:
    """Median trend over the grid of the replicates' KS rows; the verdict
    compares first to last and checks the final level, which tolerates
    mid-grid median ties."""
    medians = _column_median(np.array(list(ks.values())))
    final_max = float(cfg.tolerances["ks_final_max"])
    decreasing_overall = bool(medians[-1] < medians[0])
    within_final = bool(medians[-1] <= final_max)
    block = {
        "n_grid": list(cfg.n_grid),
        "medians": [float(v) for v in medians],
        "strictly_decreasing": bool(np.all(np.diff(medians) < 0)),
        "decreasing_overall": decreasing_overall,
        "final_median": float(medians[-1]),
        "final_max": final_max,
        "within_final": within_final,
    }
    line = (f"ks medians {', '.join(f'{v:.4f}' for v in medians)} "
            f"(final <= {final_max}: {'yes' if within_final else 'NO'})")
    return block, Piece(line, decreasing_overall and within_final)


# ---------------------------------------------------------------------------
# Experiment runners. Each returns its report blocks, CSVs, summary pieces
# and replicate failures; RunArtifacts.verdict reduces them.


def _run_asclt_family(cfg: ExperimentConfig, ex: _Executor) -> tuple[dict, dict, list[Piece]]:
    spec = _build_spec(*_spec_args(cfg))
    # FbmScaled uses the closed-form second moment, which is capped; the il
    # grid is trimmed to the cap there while KS keeps the full grid.
    exact_il = isinstance(spec, FbmScaled)
    il_grid = [n for n in cfg.n_grid if not exact_il or n <= EXACT_DELTA_MAX_N]
    kernel_grid = []
    if _EXPERIMENTS[cfg.experiment].kernel_scan:
        kernel_grid = [n for n in cfg.n_grid if 64 <= n <= _KERNEL_BOUNDED_MAX_N]
        if not kernel_grid:
            kernel_grid = [min(cfg.n_grid[-1], _KERNEL_BOUNDED_MAX_N)]

    # The deterministic stages go first so that they run alongside the
    # replicate fan-out; the exact il pass is one task per row block, which
    # bounds the fbm run.
    (crit_report, vals), il_out, ks = ex.run(
        Tasks("criteria", functools.partial(_criteria_tasks, spec, cfg.n_max, kernel_grid)),
        Tasks("exact_delta", functools.partial(exact_delta_sq, spec, cfg.t_grid, il_grid))
        if exact_il else _il_stage(cfg, il_grid),
        Replicates("ks", "_ks_prefix_worker",
                   (*_spec_args(cfg), tuple(cfg.n_grid), cfg.master_seed + _SEED_KS),
                   cfg.replicates, cfg.n_grid[-1], each=True))
    report: dict = {"spec": _spec_dict(spec)}
    if ks:
        report["ks"], ks_piece = _ks_trend(cfg, ks)
    else:
        ks_piece = Piece("ks trend: no successful replicates", False)
    pieces = [ks_piece]
    ks_csv = _csv("n,seed,ks_distance", [
        (n, rep, v) for rep, row in ks.items() for n, v in zip(cfg.n_grid, row)])

    if exact_il:
        il = il_from_exact(cfg.t_grid, il_grid, il_out)
    else:
        il = il_from_prefixes(cfg.t_grid, il_grid, list(il_out.values()))
    # The Monte Carlo decay-slope statistic sits within about one standard
    # error of its threshold at desk scale, so only the deterministic
    # closed-form reference participates in the verdict; the condition fits
    # below carry regime detection for the sampled cases.
    report["il"] = {**_il_to_dict(il), "in_verdict": exact_il}
    if exact_il:
        pieces.append(Piece(f"il summability (exact): {il.verdict}", il.verdict == "consistent"))
    else:
        pieces.append(Piece(f"il summability (mc): {il.verdict} [informational]"))

    report["criteria"] = asdict(crit_report)
    pieces.append(Piece(f"decay-condition fits: {crit_report.verdict}",
                        crit_report.verdict == "consistent"))

    if kernel_grid:
        bounded = bool(max(vals) <= _KERNEL_BOUNDED_RATIO * min(vals))
        report["kernel_log_bounded"] = {
            "n_grid": kernel_grid,
            "values": [float(v) for v in vals],
            "max_over_min": float(max(vals) / min(vals)),
            "bounded": bounded,
        }
        pieces.append(Piece(f"contraction * log n within ratio {max(vals) / min(vals):.3f} "
                            f"(bounded: {'yes' if bounded else 'NO'})", bounded))
    return report, {"ks.csv": ks_csv}, pieces


def _run_non_gaussian(cfg: ExperimentConfig, ex: _Executor) -> tuple[dict, dict, list[Piece]]:
    H, q = cfg.model["H"], cfg.model["q"]
    spec = HermiteVariation(fgn(H), q)
    report: dict = {"spec": _spec_dict(spec)}
    top = int(math.log2(cfg.n_max))
    levels = list(range(max(6, top - 6), top + 1, 2))
    sep_n = min(cfg.n_max, cfg.n_grid[-1])
    # Every stage is queued up front; the results merge below in report order.
    (crit_report, _), zrows, sup_vals, sub_vals, il_prefixes = ex.run(
        Tasks("criteria", functools.partial(_criteria_tasks, spec, cfg.n_max, ())),
        Replicates("zn", "_zn_worker", (H, q, cfg.n_max, tuple(levels), cfg.master_seed + _SEED_ZN),
                   cfg.replicates, cfg.n_max, each=True),
        Replicates("separation_sup", "_sep_worker", (H, q, sep_n, cfg.master_seed + _SEED_SEP_SUP),
                   cfg.replicates, sep_n, each=True),
        Replicates("separation_sub", "_sep_worker",
                   (_SEP_TWIN_H, q, sep_n, cfg.master_seed + _SEED_SEP_SUB),
                   cfg.replicates, sep_n, each=True),
        _il_stage(cfg, cfg.n_grid))

    # Deterministic second-moment convergence of the dyadic-level statistic.
    rel_zn = float(cfg.tolerances["rel_zn"])
    limit = zn_limit_second_moment(q, H)
    exact = zn_second_moment(q, H, cfg.n_max)
    moment_ok = abs(exact / limit - 1.0) <= rel_zn
    report["zn_moment"] = {
        "n": cfg.n_max,
        "exact": float(exact),
        "limit": float(limit),
        "rel_gap": float(abs(exact / limit - 1.0)),
        "within": bool(moment_ok),
    }
    pieces = [Piece(f"E[Z^2] at n={cfg.n_max}: {exact:.6f} vs limit {limit:.6f} "
                    f"({'within' if moment_ok else 'OUTSIDE'} {rel_zn:.0%})", moment_ok)]

    # Pathwise Cauchy behaviour across dyadic levels, one fBm grid per seed.
    med = []
    if zrows:
        diffs = np.abs(np.diff(np.array(list(zrows.values())), axis=1))
        med = _column_median(diffs)
        cauchy_ok = bool(np.all(np.diff(med) < 0))
        report["zn_cauchy"] = {
            "levels": levels,
            "median_abs_diff": [float(v) for v in med],
            "decreasing": cauchy_ok,
        }
        pieces.append(Piece(f"dyadic Cauchy medians {', '.join(f'{v:.5f}' for v in med)} "
                            f"(decreasing: {'yes' if cauchy_ok else 'NO'})", cauchy_ok))
    else:
        pieces.append(Piece("dyadic Cauchy: no successful replicates", False))

    # Across-seed spread of the log-averaged arctan mean, against the
    # subcritical twin; reported as evidence, not a verdict piece.
    if sup_vals and sub_vals:
        sup_std = float(np.std(np.array(list(sup_vals.values())), ddof=1))
        sub_std = float(np.std(np.array(list(sub_vals.values())), ddof=1))
        report["separation"] = {
            "n": sep_n,
            "sup_std": sup_std,
            "sub_twin_H": _SEP_TWIN_H,
            "sub_std": sub_std,
            "ratio": sup_std / sub_std,
        }
        pieces.append(Piece(f"across-seed std of log-averaged arctan mean: {sup_std:.4f} vs "
                            f"subcritical {sub_std:.4f} (ratio {sup_std / sub_std:.2f})"))

    il = il_from_prefixes(cfg.t_grid, cfg.n_grid, list(il_prefixes.values()))
    report["il"] = {**_il_to_dict(il), "in_verdict": False}
    pieces.append(Piece(f"il summability (mc): {il.verdict} [informational]"))

    # The deterministic condition fits gate the verdict too: the contraction
    # series here has no decaying envelope, so flagged is the expected
    # outcome, and the exit code reports it honestly.
    report["criteria"] = asdict(crit_report)
    pieces += [
        Piece(f"decay-condition fits: {crit_report.verdict}", crit_report.verdict == "consistent"),
        Piece("expected outcome: flagged (limit law is random, not Gaussian)"),
    ]
    csv = _csv("level_lo,level_hi,median_abs_diff", zip(levels, levels[1:], med))
    return report, {"zn_cauchy.csv": csv}, pieces


def _run_kernels_decay(cfg: ExperimentConfig, ex: _Executor) -> tuple[dict, dict, list[Piece]]:
    H, q = cfg.model["H"], cfg.model["q"]
    model = fgn(H)
    rows, cells, pieces = [], [], []
    for r in range(1, q):
        # Largest n first: its lag-sum pass then serves the whole grid.
        vals = [contraction_norm_sq(model, q, r, n).value for n in cfg.n_grid[::-1]][::-1]
        slope = float(np.polyfit(np.log(cfg.n_grid), np.log(vals), 1)[0])
        rows.append({
            "r": r,
            "n_grid": list(cfg.n_grid),
            "values": [float(v) for v in vals],
            "fitted_slope": slope,
        })
        cells += [(n, r, v) for n, v in zip(cfg.n_grid, vals)]
        pieces.append(Piece(f"r={r}: fitted decay slope {slope:.4f} "
                            f"({'negative' if slope < 0 else 'NOT negative'})", slope < 0.0))
    report = {"model": {"H": H, "q": q}, "contractions": rows}
    return report, {"contractions.csv": _csv("n,r,contraction_norm_sq", cells)}, pieces


def _run_delta_exactness(cfg: ExperimentConfig, ex: _Executor) -> tuple[dict, dict, list[Piece]]:
    spec = FbmScaled(cfg.model["H"])
    z_max = float(cfg.tolerances["z_max"])
    # The blocks of the closed-form pass are queued first so that they run
    # alongside the replicate fan-out.
    exact_sq, vals = ex.run(
        Tasks("exact_delta", functools.partial(exact_delta_sq, spec, cfg.t_grid, [cfg.n_max])),
        Replicates("delta", "_delta_worker",
                   (*_spec_args(cfg), cfg.n_max, tuple(cfg.t_grid), cfg.master_seed),
                   cfg.replicates, cfg.n_max, required=True))
    rows, pieces, worst = [], [], 0.0
    for i, t in enumerate(cfg.t_grid):
        sq = np.abs(np.array([v[i] for v in vals.values()])) ** 2
        mc = float(sq.mean())
        se = float(sq.std(ddof=1) / math.sqrt(len(sq)))
        exact = float(exact_sq[i, 0])
        z = 0.0 if se == 0.0 and mc == exact else (mc - exact) / se
        worst = max(worst, abs(z))
        rows.append({"t": t, "mc": mc, "exact": exact, "stderr": se, "z": float(z)})
        pieces.append(Piece(f"t={t}: mc {mc:.6f} vs exact {exact:.6f} (z = {z:+.2f})"))
    pieces.append(Piece(f"max |z| = {worst:.2f} (tolerance {z_max})", worst <= z_max))
    report = {
        "spec": _spec_dict(spec),
        "n": cfg.n_max,
        "replicates": cfg.replicates,
        "rows": rows,
        "max_abs_z": float(worst),
    }
    csv = _csv("n,t,delta_sq_mc,delta_sq_exact,stderr",
               [(cfg.n_max, r["t"], r["mc"], r["exact"], r["stderr"]) for r in rows])
    return report, {"delta.csv": csv}, pieces


def _run_malliavin_bounds(cfg: ExperimentConfig, ex: _Executor) -> tuple[dict, dict, list[Piece]]:
    H, q = cfg.model["H"], cfg.model["q"]
    spec = HermiteVariation(fgn(H), q)
    z_max = float(cfg.tolerances["z_max"])
    # Both fan-outs are queued up front; each worker reduces its path to
    # scalars, which merge below in replicate order. The Malliavin records
    # are reduced while the pool still runs the Gebelein map.
    geb_n = min(cfg.n_max, 2048)
    results = ex.run(
        Replicates("malliavin", "_malliavin_worker",
                   (H, q, cfg.n_max, cfg.master_seed + _SEED_PATHS), cfg.replicates, cfg.n_max,
                   required=True),
        Replicates("gebelein", "_gebelein_worker",
                   (_GEBELEIN_H, geb_n, cfg.master_seed + _SEED_GEBELEIN), cfg.replicates, geb_n))
    records = list(next(results).values())
    report: dict = {"spec": _spec_dict(spec), "n": cfg.n_max, "replicates": len(records)}

    dg = np.array([r.dg_norm_sq for r in records])
    mean = float(dg.mean() / q)
    se = float(dg.std(ddof=1) / q / math.sqrt(len(dg)))
    z = (mean - 1.0) / se
    report["dg_norm"] = {"mean_over_q": mean, "stderr": se, "z": float(z)}
    pieces = [Piece(f"mean ||DG||^2 / q = {mean:.5f} (z = {z:+.2f})", abs(z) <= z_max)]

    cf_rows = [cf_gap_bound(spec, records, t) for t in cfg.t_grid]
    holds = [r.gap_mc <= r.bound + 4.0 * r.gap_se for r in cf_rows]
    report["cf_gap"] = [
        {"t": r.t, "gap_mc": r.gap_mc, "gap_se": r.gap_se, "bound": r.bound, "holds": ok}
        for r, ok in zip(cf_rows, holds)
    ]
    pieces += [
        Piece(f"t={r.t}: cf gap {r.gap_mc:.5f} <= bound {r.bound:.5f} + 4se: "
              f"{'yes' if ok else 'NO'}", ok)
        for r, ok in zip(cf_rows, holds)
    ]

    # Fourth-moment prefactor checks, reported as printed and with the
    # first-power variant; printed-bound violations are findings, not run
    # failures, so they stay out of the verdict.
    for check in (co1_check(spec, records), co2_check(spec, records)):
        report[check.name] = {k: v for k, v in asdict(check).items() if k != "name"}
        pieces.append(Piece(
            f"{check.name}: mc {check.mc_mean:.4f}, printed bound {check.bound_as_printed:.4f}"
            + (" [VIOLATED as printed]" if check.violates_printed else "")))

    geb = gebelein_check(list(next(results).values()), np.arctan, range(_GEBELEIN_MAX_LAG + 1))
    geb_ok = all(row.holds for row in geb)
    report["gebelein"] = {"H": _GEBELEIN_H, "f": "arctan", "rows": [asdict(row) for row in geb]}
    pieces.append(Piece(f"gebelein holds at all lags 0..{_GEBELEIN_MAX_LAG}: "
                        f"{'yes' if geb_ok else 'NO'}", geb_ok))

    csvs = {
        "cf_gap.csv": _csv("n,t,cf_gap_mc,cf_gap_bound,dg4_mean,d2g_mean", [
            (r.n, r.t, r.gap_mc, r.bound, r.dg4_mean, r.d2g_mean) for r in cf_rows]),
        "gebelein.csv": _csv("lag,cov_mc,se,bound,holds", [astuple(row) for row in geb]),
    }
    return report, csvs, pieces


def _run_sigma_limits(cfg: ExperimentConfig, ex: _Executor) -> tuple[dict, dict, list[Piece]]:
    H, q = cfg.model["H"], cfg.model["q"]
    model = fgn(H)
    regime = regime_for(model, q)
    rel = float(cfg.tolerances["rel_sigma"])
    lim = sigma_limit(model, q)
    vals = [sigma_n_squared(model, q, n, regime) for n in cfg.n_grid]
    gaps = [abs(v - lim.value) for v in vals]
    monotone = bool(np.all(np.diff(gaps) < 0))
    final_gap = abs(vals[-1] / lim.value - 1.0)
    within = final_gap <= rel
    report = {
        "model": {"H": H, "q": q},
        "regime": regime,
        "n_grid": list(cfg.n_grid),
        "sigma_sq": [float(v) for v in vals],
        "limit": float(lim.value),
        "limit_remainder_bound": float(lim.remainder_bound),
        "final_rel_gap": float(final_gap),
        "rel_tolerance": rel,
        "monotone_approach": monotone,
        "within": bool(within),
    }
    pieces = [Piece(f"sigma_n^2 at n={n}: {v:.6f}") for n, v in zip(cfg.n_grid, vals)] + [
        Piece(f"certified limit {lim.value:.6f} (remainder <= {lim.remainder_bound:.2e})"),
        Piece(f"final rel gap {final_gap:.4f} vs tolerance {rel} "
              f"({'within' if within else 'OUTSIDE'}), monotone approach: "
              f"{'yes' if monotone else 'NO'}", within and monotone),
    ]
    return report, {"sigma.csv": _csv("n,sigma_sq", zip(cfg.n_grid, vals))}, pieces


_GRID_DEFAULT = [256, 1024, 4096, 16384, 65536]
# The asclt family: KS and il trends over a multi-point grid of usable sizes.
_TREND = dict(min_replicates=2, needs_t_grid=True, min_sizes=2, min_first_n=_MIN_IL_N,
              grid_within_n_max=True)

_EXPERIMENTS: dict[str, Experiment] = {
    "asclt_fbm": Experiment(
        "log-averaged CLT check for scaled fractional Brownian values",
        {
            "model": {"H": 0.5},
            "n_max": 4096,
            "n_grid": [256, 1024, 4096],
            "seeds": {"master_seed": 20240821, "replicates": 100},
            "t_grid": [0.5, 1.0, 2.0],
            "tolerances": {"ks_final_max": 0.35},
        },
        _run_asclt_family, spec="fbm", exact_sizes=2, **_TREND,
    ),
    "asclt_hermite_sub": Experiment(
        "log-averaged CLT check for subcritical Hermite variations",
        {
            "model": {"H": 0.3, "q": 2},
            "n_max": 65536,
            "n_grid": _GRID_DEFAULT,
            "seeds": {"master_seed": 20240821, "replicates": 120},
            "t_grid": [0.5, 1.0],
            "tolerances": {"ks_final_max": 0.35},
        },
        _run_asclt_family, gate=_regime_gate("subcritical"), **_TREND,
    ),
    "asclt_hermite_crit": Experiment(
        "log-averaged CLT check at the critical Hurst boundary",
        {
            "model": {"H": 0.75, "q": 2},
            "n_max": 65536,
            "n_grid": _GRID_DEFAULT,
            "seeds": {"master_seed": 20240821, "replicates": 120},
            "t_grid": [1.0],
            "tolerances": {"ks_final_max": 0.40},
        },
        _run_asclt_family, gate=_critical_gate, kernel_scan=True, **_TREND,
    ),
    "asclt_general_f": Experiment(
        "log-averaged CLT check for a nonlinear functional of fGn",
        {
            "model": {"H": 0.3, "f": "arctan", "expansion_order": 9},
            "n_max": 65536,
            "n_grid": _GRID_DEFAULT,
            "seeds": {"master_seed": 20240821, "replicates": 120},
            "t_grid": [0.5, 1.0],
            "tolerances": {"ks_final_max": 0.35},
        },
        _run_asclt_family, spec="general_f", gate=_summable_gate, **_TREND,
    ),
    "non_gaussian": Experiment(
        "supercritical contrast where the limit stays random",
        {
            "model": {"H": 0.9, "q": 2},
            "n_max": 16384,
            "n_grid": _GRID_DEFAULT,
            "seeds": {"master_seed": 20240821, "replicates": 50},
            "t_grid": [1.0],
            "tolerances": {"rel_zn": 0.02},
        },
        _run_non_gaussian, gate=_regime_gate("supercritical"), min_replicates=10,
        min_first_n=_MIN_IL_N, n_max_power_of_two=True,
    ),
    "kernels_decay": Experiment(
        "contraction-norm decay fits across grid sizes",
        {
            "model": {"H": 0.3, "q": 2},
            "n_max": 16384,
            "n_grid": [64, 256, 1024, 4096, 16384],
            "seeds": {"master_seed": 20240821, "replicates": 0},
            "t_grid": [],
            "tolerances": {},
        },
        _run_kernels_decay,
    ),
    "delta_exactness": Experiment(
        "Monte Carlo vs closed-form averaged characteristic-function gap",
        {
            "model": {"H": 0.8},
            "n_max": 1024,
            "n_grid": [1024],
            "seeds": {"master_seed": 20240821, "replicates": 5000},
            "t_grid": [0.5, 1.0, 2.0],
            "tolerances": {"z_max": 4.0},
        },
        _run_delta_exactness, spec="fbm", min_replicates=100, needs_t_grid=True,
        n_max_cap=EXACT_DELTA_MAX_N,
    ),
    "malliavin_bounds": Experiment(
        "derivative-norm, characteristic-function, and correlation-bound checks",
        {
            "model": {"H": 0.3, "q": 2},
            "n_max": 4096,
            "n_grid": [4096],
            "seeds": {"master_seed": 20240821, "replicates": 200},
            "t_grid": [0.5, 1.0, 2.0],
            "tolerances": {"z_max": 4.0},
        },
        _run_malliavin_bounds, gate=_regime_gate("subcritical"), min_replicates=100,
        needs_t_grid=True,
    ),
    "sigma_limits": Experiment(
        "variance normalizer convergence to its certified limit",
        {
            "model": {"H": 0.75, "q": 2},
            "n_max": 1000000,
            "n_grid": [10000, 100000, 1000000],
            "seeds": {"master_seed": 20240821, "replicates": 0},
            "t_grid": [],
            "tolerances": {"rel_sigma": 0.10},
        },
        _run_sigma_limits, gate=_regime_gate("subcritical", "critical"),
    ),
}


# ---------------------------------------------------------------------------
# Run orchestration and report emission.


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def render_report(artifacts: RunArtifacts, cfg: ExperimentConfig) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "config": cfg.canonical(),
        "results": artifacts.report,
        "failures": artifacts.failures,
        "verdict": artifacts.verdict,
        "versions": {
            "asclt_lab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"


def run_experiment(cfg: ExperimentConfig) -> RunArtifacts:
    """Run one experiment. Its runner hands every stage to one executor,
    which at workers > 1 opens one process pool that all of them share."""
    with _Executor(cfg.workers) as ex:
        report, csvs, pieces = _EXPERIMENTS[cfg.experiment].runner(cfg, ex)
    return RunArtifacts(report, csvs, pieces, ex.failures, ex.log)


def run(cfg: ExperimentConfig, echo=print) -> int:
    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.monotonic()
    artifacts = run_experiment(cfg)
    elapsed = time.monotonic() - t0

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(render_report(artifacts, cfg))
    for name, text in artifacts.csvs.items():
        (out / name).write_text(text)
    lines = [f"{cfg.experiment}:"]
    lines += [f"  {p.line}" for p in artifacts.pieces]
    if artifacts.failures:
        lines += [f"  failure: {f}" for f in artifacts.failures]
    lines.append(f"verdict: {artifacts.verdict}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    # Peak resident set sizes so far (Linux reports KiB): of this process,
    # which includes anything it ran before, and of its largest finished child.
    meta = {
        "started_utc": started.isoformat(),
        "elapsed_seconds": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "peak_rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "out_dir": str(out),
        "workers": cfg.workers,
        "stages": artifacts.stages,
        "numpy": np.__version__,
        # NumPy's baseline SIMD targets and the dispatch targets this CPU runs.
        "simd_baseline": list(__cpu_baseline__),
        "simd_dispatch": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
    }
    (out / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")

    for line in lines:
        echo(line)
    if artifacts.failures:
        return 1
    return 0 if artifacts.verdict == "consistent" else 2


def list_experiments(echo=print) -> None:
    """Catalog in registry order: name, role, canonical default config."""
    for name, entry in _EXPERIMENTS.items():
        echo(f"{name} -> {entry.description}")
        doc = _merged_defaults(name, {})
        doc.pop("out_dir")
        doc.pop("workers")
        echo(f"    default: {json.dumps(doc, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="asclt-lab",
        description="Numerical experiments on log-averaged limit behaviour "
        "of normalized Gaussian functionals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the config JSON")
    p_run.add_argument("--seed", type=int, default=None, help="override seeds.master_seed")
    p_run.add_argument("--workers", type=int, default=None, help="override worker count")
    p_run.add_argument("--out", default=None, help="override the output directory")
    sub.add_parser("list", help="print the experiment catalog and defaults")
    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("--config", required=True, help="path to the config JSON")

    args = parser.parse_args(argv)
    if args.command == "list":
        list_experiments()
        return 0

    # CLI overrides go through the same validation as the config file.
    overrides: dict = {}
    if args.command == "run":
        if args.seed is not None:
            overrides["seeds"] = {"master_seed": args.seed}
        if args.workers is not None:
            overrides["workers"] = args.workers
        if args.out is not None:
            overrides["out_dir"] = args.out
    try:
        cfg = load_config(args.config, overrides)
    except ConfigValidationError as exc:
        for err in exc.errors:
            print(str(err), file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"ok: valid {cfg.experiment} config")
        return 0

    try:
        return run(cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    with contextlib.suppress(KeyboardInterrupt):
        sys.exit(main())
