"""Normalized functional sequences built from a single Gaussian path.

Three families share one interface: scaled fractional Brownian motion
B_k / k^H on integer times, Hermite power variations V_k = sum_i H_q(X_i)
under the three normalization regimes, and general centered functionals
given by a Hermite expansion. All normalizers are exact lag sums, never
Monte Carlo estimates.

Indexing convention: partial sums are 1-based, and grid increment number i
(i = 0..n-1) maps to the stationary term X_{i+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .covariance import (
    CovarianceModel,
    DivergentTailError,
    fgn,
    power_tail_summable,
    signed_rho_power_sum,
)
from .gaussian_sim import FbmGrid, GaussianPath, PathEnsemble
from .hermite import (
    ConstantFunctionError,
    HermiteExpansion,
    evaluate_expansion,
    hermite_eval,
)
from .kernels import (
    _lag_weighted_prefix,
    _powers,
    _v2_build,
    hermite_sum_variance,
    pair_lag_sum,
    v2_prefix,
)
from .memo import CACHE_BYTES, prefix_cache

REGIMES = ("subcritical", "critical", "supercritical")

_CRITICAL_TOL = 1e-12
_DEGENERATE_TOL = 1e-12
_CROSS_MOMENT_CELLS = 1 << 22


class RegimeError(ValueError):
    """Regime label inconsistent with (q, H), or operation undefined there."""


class NormalizationError(ValueError):
    """A variance normalizer is zero or indistinguishable from zero."""


def regime_for(model: CovarianceModel, q: int) -> str:
    """Classify (model, q) against the boundary H = 1 - 1/(2q).

    Non-fgn models always count as subcritical (finitely supported or iid
    covariances are summable to every power). fgn with H = 1/2 is iid and
    also subcritical even though it sits on the q = 1 boundary.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if model.kind != "fgn" or model.H == 0.5:
        return "subcritical"
    boundary = 1.0 - 1.0 / (2.0 * q)
    if abs(model.H - boundary) <= _CRITICAL_TOL:
        return "critical"
    return "subcritical" if model.H < boundary else "supercritical"


@dataclass(frozen=True)
class FbmScaled:
    """G_k = B_k / k^H, built from unit-lag fBm increments."""

    H: float

    def __post_init__(self):
        if not 0.0 < float(self.H) < 1.0:
            raise ValueError(f"H must be in (0, 1), got {self.H}")

    @property
    def model(self) -> CovarianceModel:
        return fgn(self.H)


@dataclass(frozen=True)
class HermiteVariation:
    """G_k built from V_k = sum_{i<=k} H_q(X_i), normalization per regime."""

    model: CovarianceModel
    q: int
    regime: str | None = None

    def __post_init__(self):
        if int(self.q) != self.q or self.q < 1:
            raise ValueError("q must be an integer >= 1")
        inferred = regime_for(self.model, self.q)
        if self.regime is None:
            object.__setattr__(self, "regime", inferred)
        elif self.regime not in REGIMES:
            raise RegimeError(f"unknown regime {self.regime!r}; use one of {REGIMES}")
        elif self.regime != inferred:
            raise RegimeError(
                f"regime {self.regime!r} does not match {inferred!r} "
                f"for q={self.q} and this model"
            )


@dataclass(frozen=True)
class GeneralF:
    """G_k from V_k = sum_{i<=k} (f(X_i) - E f(N)), f given by its expansion."""

    model: CovarianceModel
    expansion: HermiteExpansion

    def __post_init__(self):
        if self.expansion.rank < 1:
            raise ConstantFunctionError(
                "expansion has no nonconstant Hermite component"
            )
        if not power_tail_summable(self.model, 1):
            raise DivergentTailError(
                "sum |rho(r)| diverges for this model; general functionals "
                "need an absolutely summable covariance (fgn requires H <= 1/2)"
            )


SequenceSpec = FbmScaled | HermiteVariation | GeneralF


@dataclass(frozen=True, eq=False)
class GSeries:
    """All prefixes G_1..G_n from one path, plus the divisors applied.

    sigmas[k-1] is the exact deterministic normalizer that divides the
    running sum to produce values[k-1]. sigma_tail_rel bounds the relative
    error of the truncated-expansion normalizer (zero except for GeneralF
    with a nonzero expansion tail). Built from a PathEnsemble, values is
    (B, n), one series per row, and replicate_id is that of the first row.
    """

    spec: SequenceSpec
    n: int
    values: np.ndarray
    sigmas: np.ndarray
    master_seed: int
    replicate_id: int
    sigma_tail_rel: float = 0.0


def _check_normalizers(v2: np.ndarray, scale: np.ndarray) -> None:
    bad = np.nonzero(v2 <= _DEGENERATE_TOL * scale)[0]
    if bad.size:
        raise NormalizationError(
            f"E[V_k^2] vanishes at k = {int(bad[0]) + 1}; "
            "the normalized sequence is undefined"
        )


@prefix_cache(CACHE_BYTES)  # path-independent and prefix-stable, like v2_prefix
def _general_f_prefix_var(model, expansion, n):
    """sum_q c_q^2 E[V_k^2] of order q, for k = 1..n. Each order's table is
    built, added and dropped: only the sum is kept, since no run reads the
    tables of single orders of a GeneralF."""
    c = expansion.coeffs
    v2 = np.zeros(n)
    for order in range(1, expansion.qmax + 1):
        if c[order] != 0.0:
            term = _v2_build(model, order, n)
            term *= c[order] ** 2
            v2 += term
    return v2


def _v2_table(spec: HermiteVariation | GeneralF, n: int) -> np.ndarray:
    """E[V_k^2] for k = 1..n, the one normalizer table of a spec: build_gseries,
    malliavin's N_n^2 and the cross-covariance diagonals all read it."""
    if isinstance(spec, HermiteVariation):
        return v2_prefix(spec.model, spec.q, n)
    return _general_f_prefix_var(spec.model, spec.expansion, n)


@prefix_cache(CACHE_BYTES)  # path-independent and prefix-stable
def _k_power(H: float, n: int) -> np.ndarray:
    """k^H for k = 1..n, the FbmScaled divisors."""
    return np.arange(1, n + 1, dtype=np.float64) ** H


@prefix_cache(CACHE_BYTES)  # path-independent and prefix-stable
def _tail_window(model: CovarianceModel, q: int, n: int) -> np.ndarray:
    """sum_{|r|<k} (k - |r|) |rho(r)|^q for k = 1..n."""
    return _lag_weighted_prefix(np.abs(_powers(model, q, n)))


def _tail_rel(spec: SequenceSpec, n: int) -> float:
    """GSeries.sigma_tail_rel of a length-n build of spec. Orders beyond qmax
    add at most tail_bound * sum_{|r|<n} (n-|r|)|rho|^(qmax+1) to E[V_n^2],
    because |rho| <= 1 makes |rho|^q decreasing in q."""
    if not isinstance(spec, GeneralF) or spec.expansion.tail_bound <= 0.0:
        return 0.0
    window = float(_tail_window(spec.model, spec.expansion.qmax + 1, n)[n - 1])
    return spec.expansion.tail_bound * window / float(_v2_table(spec, n)[n - 1])


def build_gseries(
    path: GaussianPath | PathEnsemble, spec: SequenceSpec, n: int | None = None
) -> GSeries:
    """Compute G_1..G_n from a path whose model matches the spec.

    Partial sums and their variance normalizers are cumulative and every
    other step is elementwise, so the result for n is bit-identical to the
    length-n prefix of any longer run on the same path (see
    gseries_prefixes), and a PathEnsemble gives the series of all its rows
    at once, each row bit-identical to its own path's.
    """
    if not isinstance(path, (GaussianPath, PathEnsemble)):
        raise TypeError("build_gseries expects a GaussianPath or a PathEnsemble")
    if n is None:
        n = path.n
    if n < 1 or n > path.n:
        raise ValueError(f"n must be in 1..{path.n}, got {n}")
    if path.model != spec.model:
        raise ValueError("path model does not match the sequence spec model")

    x = path.values[..., :n]
    k = np.arange(1, n + 1, dtype=np.float64)

    if isinstance(spec, FbmScaled):
        sig = _k_power(spec.H, n)
        g = np.cumsum(x, axis=-1)
        g /= sig
    elif isinstance(spec, HermiteVariation):
        v = np.cumsum(hermite_eval(spec.q, x), axis=-1)
        if spec.regime == "supercritical":
            sig = k ** (1.0 - spec.q * (1.0 - spec.model.H))
        else:
            v2 = _v2_table(spec, n)
            _check_normalizers(v2, math.factorial(spec.q) * k)
            sig = np.sqrt(v2)
        g = v / sig
    elif isinstance(spec, GeneralF):
        f = evaluate_expansion(spec.expansion.coeffs, x)
        f -= spec.expansion.mean
        v = np.cumsum(f, axis=-1)
        v2 = _v2_table(spec, n)
        _check_normalizers(v2, max(spec.expansion.var_fN, 1.0) * k)
        sig = np.sqrt(v2)
        g = v / sig
    else:
        raise TypeError(f"unknown sequence spec: {type(spec).__name__}")

    g.setflags(write=False)
    sig.setflags(write=False)
    return GSeries(
        spec=spec,
        n=int(n),
        values=g,
        sigmas=sig,
        master_seed=path.master_seed,
        replicate_id=path.replicate_id,
        sigma_tail_rel=_tail_rel(spec, n),
    )


def gseries_prefixes(path: GaussianPath, spec: SequenceSpec, n_grid) -> list[GSeries]:
    """build_gseries(path, spec, n) for every n of an increasing n_grid, bit
    for bit: one build at n_grid[-1], sliced. Each prefix's sigma_tail_rel
    comes from the normalizer table sliced at its own n."""
    n_grid = [int(n) for n in n_grid]
    full = build_gseries(path, spec, n_grid[-1])
    return [
        replace(full, n=n, values=full.values[..., :n], sigmas=full.sigmas[:n],
                sigma_tail_rel=_tail_rel(spec, n))
        for n in n_grid
    ]


def sigma_n_squared(
    model: CovarianceModel, q: int, n: int, regime: str | None = None
) -> float:
    """q! sum_{|r|<n} (1 - |r|/n) rho(r)^q, divided by log n when critical.

    The regime is regime_for(model, q); an explicit regime must agree with
    it, so a critical model is never read without its 1/log n."""
    derived = regime_for(model, q)
    if regime is None:
        regime = derived
    elif regime not in REGIMES:
        raise RegimeError(f"unknown regime {regime!r}; use one of {REGIMES}")
    elif regime != derived:
        raise RegimeError(
            f"regime {regime!r} does not match {derived!r} for q={q} and this model"
        )
    if regime == "supercritical":
        raise RegimeError(
            "supercritical sums use deterministic k-power scaling, "
            "not a variance normalizer"
        )
    if n < 1:
        raise ValueError("n must be >= 1")
    base = hermite_sum_variance(model, q, n) / n
    if regime == "critical":
        if n < 2:
            raise ValueError("critical normalization needs n >= 2")
        return base / math.log(n)
    return base


@dataclass(frozen=True)
class SigmaLimit:
    value: float
    remainder_bound: float
    regime: str


def sigma_limit(model: CovarianceModel, q: int) -> SigmaLimit:
    """Limit of sigma_n^2: the tail-certified series sum, or the critical
    closed form 2 q! (1 - 1/q)^q (1 - 1/(2q))^q for fgn on the boundary."""
    reg = regime_for(model, q)
    fact = math.factorial(q)
    if reg == "supercritical":
        raise RegimeError(
            f"sum rho^{q} diverges (H > 1 - 1/(2q)); no Gaussian-limit variance"
        )
    if reg == "critical":
        val = 2.0 * fact * (1.0 - 1.0 / q) ** q * (1.0 - 1.0 / (2.0 * q)) ** q
        return SigmaLimit(value=val, remainder_bound=0.0, regime="critical")
    ts = signed_rho_power_sum(model, q)
    val = fact * ts.value
    bound = fact * ts.remainder_bound
    if val - bound <= _DEGENERATE_TOL:
        raise NormalizationError(
            f"limit variance {val:.6e} is not positive beyond the certified "
            f"remainder {bound:.1e}"
        )
    return SigmaLimit(value=val, remainder_bound=bound, regime="subcritical")


def cross_covariance(spec: SequenceSpec, k: int, l: int) -> float:
    """Exact E[G_k G_l], about 1 at k = l for every sigma-normalized spec.
    The pair sum is read from pair_lag_sum, the diagonals from _v2_table."""
    k, l = int(k), int(l)
    if k < 1 or l < 1:
        raise ValueError("indices must be >= 1")
    if k > l:
        k, l = l, k
    if isinstance(spec, FbmScaled):
        h2 = 2.0 * spec.H
        num = 0.5 * (k**h2 + l**h2 - float(l - k) ** h2)
        return num / (k**spec.H * l**spec.H)
    if isinstance(spec, HermiteVariation):
        if spec.regime == "supercritical":
            raise RegimeError(
                "supercritical sequences are not unit-normalized; "
                "use zn_cross_moment for second moments"
            )
        num = math.factorial(spec.q) * pair_lag_sum(spec.model, (spec.q,), k, l)[0]
    elif isinstance(spec, GeneralF):
        # sum_q c_q^2 q! sum_{i<=k, j<=l} rho(i-j)^q, in increasing order q.
        c = spec.expansion.coeffs
        orders = [order for order in range(1, spec.expansion.qmax + 1) if c[order] != 0.0]
        num = 0.0
        for order, lag_sum in zip(orders, pair_lag_sum(spec.model, orders, k, l)):
            num += c[order] ** 2 * math.factorial(order) * lag_sum
    else:
        raise TypeError(f"unknown sequence spec: {type(spec).__name__}")
    v2 = _v2_table(spec, l)
    return num / math.sqrt(v2[k - 1] * v2[l - 1])


def _require_supercritical(q: int, H: float) -> None:
    if regime_for(fgn(H), q) != "supercritical":
        raise RegimeError(
            f"self-similar limits need H > 1 - 1/(2q) = {1.0 - 1.0 / (2 * q)}, "
            f"got H = {H}"
        )


def zn_dyadic(grid: FbmGrid, q: int, levels) -> np.ndarray:
    """Z_n = n^(q(1-H)-1) sum_k H_q(n^H increments) at n = 2^J per level J.

    All levels aggregate the same path, so consecutive values expose the
    almost-sure Cauchy behavior.
    """
    _require_supercritical(q, grid.H)
    out = np.empty(len(levels))
    for i, level in enumerate(levels):
        j = int(level)
        if j < 0:
            raise ValueError("level exponent must be >= 0")
        n = 1 << j
        z = float(n) ** grid.H * grid.increments(n)
        total = float(np.sum(hermite_eval(q, z)))
        out[i] = float(n) ** (q * (1.0 - grid.H) - 1.0) * total
    return out


def zn_second_moment(q: int, H: float, n: int) -> float:
    """Exact E[Z_n^2] = n^(2q(1-H)-2) q! sum_{|r|<n} (n-|r|) rho(r)^q."""
    _require_supercritical(q, H)
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(n) ** (2.0 * q * (1.0 - H) - 2.0) * hermite_sum_variance(
        fgn(H), q, n
    )


def zn_cross_moment(q: int, H: float, n: int, m: int) -> float:
    """Exact E[Z_n Z_m] by the full double sum over both dyadic levels.

    Increment covariances come straight from the fBm covariance surface, so
    the levels need not be nested. Cost is O(nm); guarded at 2^22 cells.
    """
    _require_supercritical(q, H)
    if n < 1 or m < 1:
        raise ValueError("levels must be >= 1")
    if n * m > _CROSS_MOMENT_CELLS:
        raise ValueError(f"n*m = {n * m} exceeds the {_CROSS_MOMENT_CELLS} budget")
    h2 = 2.0 * H
    a = (np.arange(n, dtype=np.float64) / n)[:, None]
    b = ((np.arange(n, dtype=np.float64) + 1.0) / n)[:, None]
    c = (np.arange(m, dtype=np.float64) / m)[None, :]
    d = ((np.arange(m, dtype=np.float64) + 1.0) / m)[None, :]
    cov = 0.5 * (
        np.abs(b - c) ** h2
        + np.abs(a - d) ** h2
        - np.abs(b - d) ** h2
        - np.abs(a - c) ** h2
    )
    cov *= float(n) ** H * float(m) ** H
    scale = (float(n) * float(m)) ** (q * (1.0 - H) - 1.0)
    return scale * math.factorial(q) * float(np.sum(cov**q))


def zn_limit_second_moment(q: int, H: float) -> float:
    """lim E[Z_n^2] = q! H^q (2H-1)^q * 2 / ((1-a)(2-a)), a = (2-2H)q."""
    _require_supercritical(q, H)
    a = (2.0 - 2.0 * H) * q
    return (
        math.factorial(q)
        * (H * (2.0 * H - 1.0)) ** q
        * 2.0
        / ((1.0 - a) * (2.0 - a))
    )


def geometric_grid(n: int) -> np.ndarray:
    """Distinct indices floor(1.25^i) <= n, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ks: list[int] = []
    v = 1.0
    while True:
        k = math.floor(v)
        if k > n:
            break
        if not ks or k != ks[-1]:
            ks.append(k)
        v *= 1.25
    return np.array(ks, dtype=np.int64)
