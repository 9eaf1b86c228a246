"""In-process span tracing of asclt_lab's public functions, and the per-layer
metrics derived from the spans.

A layer is one asclt_lab module. Each wrapped function is rebound in its
defining module and in every asclt_lab module that imported it by name
(``from .kernels import contraction_norm_sq``), so calls through either
binding are seen. Spans are kept in memory as

    (name, start, end, parent, outer_start, outer_end, work, key)

where [start, end] is the call itself and [outer_start, outer_end] also
covers the tracer's own bookkeeping. A span's self time is its duration
minus the union of its children's outer intervals, so bookkeeping is
charged to no layer; the traced-minus-untraced wall time shows its cost.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time

import numpy as np

PACKAGE = "asclt_lab"
# Layer (an asclt_lab module, also the metric prefix) -> wrapped functions.
LAYERS = {
    "covariance": ("rho_many", "abs_rho_power_sum", "abs_rho_power_tail",
                   "signed_rho_power_sum"),
    "gaussian_sim": ("sample_stationary", "sample_ensemble", "sample_fbm_grid"),
    "hermite": ("hermite_eval", "evaluate_expansion", "expand"),
    "sequences": ("build_gseries", "cross_covariance", "sigma_n_squared", "sigma_limit",
                  "zn_dyadic", "zn_second_moment", "zn_cross_moment",
                  "zn_limit_second_moment"),
    "kernels": ("contraction_norm_sq", "v2_prefix", "hermite_sum_variance", "pair_lag_sum"),
    "malliavin": ("dg_norm_sq", "d2g_contraction_norm_sq", "malliavin_sample",
                  "cf_gap_bound", "co1_check", "co2_check", "gebelein_check"),
    "asclt": ("log_average_measure", "ks_distance", "delta_stat", "delta_stat_prefixes",
              "exact_gaussian_delta_sq", "il_series_diagnostic", "criteria_diagnostic"),
    "cli": ("run", "run_experiment", "render_report"),
}

# Functions whose distinct argument tuples are counted.
_KEYED = {"covariance.rho_many", "covariance.abs_rho_power_sum",
          "covariance.abs_rho_power_tail", "covariance.signed_rho_power_sum",
          "kernels.contraction_norm_sq", "kernels.v2_prefix"}
_SAMPLE = 64


def _work(name, args, kwargs, result):
    """Size of one call: lags for rho_many, points for samplers, series and
    Hermite evaluations, n for contractions."""
    if name == "covariance.rho_many":
        return int(np.size(args[1] if len(args) > 1 else kwargs["lags"]))
    if name == "gaussian_sim.sample_stationary":
        return int(result.n)
    if name in ("hermite.hermite_eval", "hermite.evaluate_expansion"):
        return int(np.size(args[1] if len(args) > 1 else kwargs["x"]))
    if name == "sequences.build_gseries":
        return int(result.n)
    if name == "kernels.contraction_norm_sq":
        return int(args[3] if len(args) > 3 else kwargs["n"])
    return 0


def fingerprint(obj):
    """Hashable stand-in for an argument. Arrays are reduced to shape, dtype
    and up to 64 evenly spaced elements plus the last one, which tells apart
    every array the lab passes (lag ranges and paths) without hashing them
    whole."""
    if obj is None or isinstance(obj, (bool, int, float, complex, str)):
        return obj
    if isinstance(obj, np.ndarray):
        flat = obj.reshape(-1)
        step = max(1, flat.size // _SAMPLE)
        sample = flat[::step].tobytes() + flat[-1:].tobytes()
        return ("ndarray", obj.shape, obj.dtype.str, sample)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, (tuple, list)):
        return (type(obj).__name__,) + tuple(fingerprint(v) for v in obj)
    if isinstance(obj, dict):
        return ("dict",) + tuple(sorted((k, fingerprint(v)) for k, v in obj.items()))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            fingerprint(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    return (type(obj).__name__, id(obj))


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._rebound: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keyed = name in _KEYED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_start = clock()
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, outer_start, end, 0, None)
                raise
            end = clock()
            stack.pop()
            key = (name, fingerprint((args, kwargs))) if keyed else None
            work = _work(name, args, kwargs, result)
            spans[idx] = (name, start, end, parent, outer_start, clock(), work, key)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function and rebind it wherever it is bound by
        name inside the package."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for mod_name, names in LAYERS.items():
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules + [home]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its direct children's outer
    intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[4], s[5]))
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s[1]
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, s[2])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[2] - s[1]) - covered)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times from one traced run."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    keys: dict[str, set] = {}
    self_s: dict[str, float] = {}
    duration: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + s[6]
        self_s[name] = self_s.get(name, 0.0) + st
        duration[name] = duration.get(name, 0.0) + (s[2] - s[1])
        if s[7] is not None:
            keys.setdefault(name, set()).add(s[7])
    max_n = max((s[6] for s in spans if s[0] == "kernels.contraction_norm_sq"), default=0)

    def total(table, *names):
        return sum(table.get(n, 0) for n in names)

    def layer(mod):
        return [n for n in calls if n.startswith(mod + ".")]

    def distinct(*names):
        return len(set().union(*(keys.get(n, set()) for n in names)))

    cov = layer("covariance")
    points = work.get("gaussian_sim.sample_stationary", 0)
    gaussian_self = total(self_s, *layer("gaussian_sim"))
    hermite = layer("hermite")
    gseries_points = work.get("sequences.build_gseries", 0)
    lag_sum = ("kernels.hermite_sum_variance", "kernels.pair_lag_sum")
    return {
        "covariance.calls": total(calls, *cov),
        "covariance.lags": work.get("covariance.rho_many", 0),
        "covariance.distinct": distinct(*cov),
        "covariance.self_s": total(self_s, *cov),
        "gaussian_sim.paths": calls.get("gaussian_sim.sample_stationary", 0),
        "gaussian_sim.points": points,
        "gaussian_sim.self_s": gaussian_self,
        "gaussian_sim.ns_per_point": 1e9 * gaussian_self / points if points else 0.0,
        "hermite.calls": total(calls, *hermite),
        "hermite.points": total(work, *hermite),
        "hermite.self_s": total(self_s, *hermite),
        "sequences.gseries": calls.get("sequences.build_gseries", 0),
        "sequences.gseries_points": gseries_points,
        "sequences.rebuild_ratio": gseries_points / points if points else 0.0,
        "sequences.self_s": total(self_s, *layer("sequences")),
        "kernels.contraction.calls": calls.get("kernels.contraction_norm_sq", 0),
        "kernels.contraction.distinct": distinct("kernels.contraction_norm_sq"),
        "kernels.contraction.max_n": max_n,
        "kernels.contraction.self_s": self_s.get("kernels.contraction_norm_sq", 0.0),
        "kernels.v2_prefix.calls": calls.get("kernels.v2_prefix", 0),
        "kernels.v2_prefix.distinct": distinct("kernels.v2_prefix"),
        "kernels.v2_prefix.self_s": self_s.get("kernels.v2_prefix", 0.0),
        "kernels.lag_sum.calls": total(calls, *lag_sum),
        "kernels.lag_sum.self_s": total(self_s, *lag_sum),
        "malliavin.dg.calls": calls.get("malliavin.dg_norm_sq", 0),
        "malliavin.d2g.calls": calls.get("malliavin.d2g_contraction_norm_sq", 0),
        "malliavin.d2g.self_s": self_s.get("malliavin.d2g_contraction_norm_sq", 0.0),
        "malliavin.self_s": total(self_s, *layer("malliavin")),
        "asclt.ks.calls": calls.get("asclt.ks_distance", 0),
        "asclt.ks.self_s": total(self_s, "asclt.ks_distance", "asclt.log_average_measure"),
        "asclt.delta.self_s": total(self_s, "asclt.delta_stat", "asclt.delta_stat_prefixes"),
        "asclt.exact_delta.self_s": self_s.get("asclt.exact_gaussian_delta_sq", 0.0),
        "asclt.criteria.self_s": self_s.get("asclt.criteria_diagnostic", 0.0),
        "asclt.self_s": total(self_s, *layer("asclt")),
        "cli.self_s": total(self_s, *layer("cli")),
        "cli.report_s": duration.get("cli.render_report", 0.0),
    }


# The traced run's own cost, added by the benchmark next to the layers.
TRACE_METRICS = ("trace.wall_s", "trace.overhead_s")


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_point"):
        return "ns"
    if name.endswith("ratio"):
        return "ratio"
    return "n" if name.endswith("max_n") else "count"


METRICS = tuple(layer_metrics([])) + TRACE_METRICS
