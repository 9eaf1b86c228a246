"""Pathwise Malliavin functionals for normalized partial-sum sequences.

For G_n = (1/N_n) sum_k f(X_k) the derivative lives on the basis (eps_k):
DG_n has components f'(X_k)/N_n, so ||DG_n||^2 is a Toeplitz quadratic form,
and ||D^2G_n (x)_1 D^2G_n||^2 is a quartic lag sum weighted by f''(X_k),

    tr((TR)^2) = sum_{k,j} b_k b_j (R D R)_{kj}^2,
    T = D R D, D = diag(b), b_k = f''(X_k), R = Toeplitz(rho),

evaluated exactly by blocked FFT Toeplitz applies (the dense matmul is the
test oracle). When f'' is constant (b = c), the trace is c^4 tr(R^4), the
kernel quartic lag sum, read at n from the bordering pass of `kernels`,
which runs once per model. The fourth-moment inequalities are evaluated
exactly as printed (fractional exponents included) alongside the
first-power variants, and violations are reported, not corrected.

The ensemble checks are map-reduce: `malliavin_sample` reduces one path to
the scalars the checks need (||DG_n||^2, G_n, and the D^2G contraction
when f'' depends on the path), computed once each, and `cf_gap_bound`,
`co1_check` and `co2_check` reduce those records; `lag_covariances` and
`gebelein_check` do the same for the correlation-bound sweep. The map runs
where the path is sampled, so only the scalars travel, and its
path-independent parts are shared: the Toeplitz spectrum of ||DG_n||^2 is
cached per (model, n), and N_n^2 is read from the spec's normalizer table
in `sequences`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceModel, abs_rho_power_sum, rho_many
from .gaussian_sim import GaussianPath
from .hermite import _quad_rule, derivative_coeffs, evaluate_expansion, hermite_eval
from .kernels import (
    _lag_sum_prefix,
    _toeplitz_apply,
    _toeplitz_columns,
    _toeplitz_spectrum,
)
from .memo import cache
from .sequences import (
    FbmScaled,
    HermiteVariation,
    RegimeError,
    SequenceSpec,
    _v2_table,
    build_gseries,
)

__all__ = [
    "MalliavinSample",
    "LagCovariances",
    "CfGap",
    "MomentBoundCheck",
    "GebeleinRow",
    "dg_norm_sq",
    "d2g_contraction_norm_sq",
    "malliavin_sample",
    "d2g_depends_on_path",
    "lag_covariances",
    "cf_gap_bound",
    "co1_check",
    "co2_check",
    "gebelein_check",
]

_MIN_CF_REPLICATES = 100
_TRACE_BLOCK_COLS = 128
_QUAD_NODES = 200


@dataclass(frozen=True)
class MalliavinSample:
    spec: SequenceSpec
    n: int
    dg_norm_sq: float
    g_n: float
    d2g_contraction_norm_sq: float | None


def _check_path(path: GaussianPath, spec: SequenceSpec) -> None:
    if path.model != spec.model:
        raise ValueError("path model does not match the sequence spec model")


def _normalizer_sq(spec: SequenceSpec, n: int) -> float:
    """N_n^2, the squared divisor applied to the raw partial sum."""
    if isinstance(spec, FbmScaled):
        return float(n) ** (2.0 * spec.H)
    if isinstance(spec, HermiteVariation) and spec.regime == "supercritical":
        return float(n) ** (2.0 * (1.0 - spec.q * (1.0 - spec.model.H)))
    return float(_v2_table(spec, n)[n - 1])


@cache  # path-independent: once per (model, n)
def _covariance_spectrum(model: CovarianceModel, n: int) -> np.ndarray:
    """Size-2n circulant spectrum of Toeplitz(rho(0..n-1)), for ||DG||^2."""
    return _toeplitz_spectrum(rho_many(model, np.arange(n)), n)


def _first_derivative_field(spec: SequenceSpec, x: np.ndarray) -> np.ndarray:
    """f'(X_k) pathwise; FbmScaled is the identity map, derivative 1."""
    if isinstance(spec, FbmScaled):
        return np.ones_like(x)
    if isinstance(spec, HermiteVariation):
        return spec.q * hermite_eval(spec.q - 1, x)
    return evaluate_expansion(derivative_coeffs(spec.expansion), x)


def _second_derivative_field(spec: SequenceSpec, x: np.ndarray) -> np.ndarray:
    if isinstance(spec, FbmScaled):
        return np.zeros_like(x)
    if isinstance(spec, HermiteVariation):
        if spec.q == 1:
            return np.zeros_like(x)
        return spec.q * (spec.q - 1) * hermite_eval(spec.q - 2, x)
    d1 = derivative_coeffs(spec.expansion)
    if d1.size <= 1:
        return np.zeros_like(x)
    d2 = d1[1:] * np.arange(1, d1.size)
    return evaluate_expansion(d2, x)


def _second_derivative_constant(spec: SequenceSpec) -> float | None:
    """The value of f'' when it does not depend on the path, else None."""
    if isinstance(spec, FbmScaled):
        return 0.0
    if isinstance(spec, HermiteVariation):
        if spec.q == 1:
            return 0.0
        if spec.q == 2:
            return 2.0
        return None
    d1 = derivative_coeffs(spec.expansion)
    if d1.size <= 1:
        return 0.0
    d2 = d1[1:] * np.arange(1, d1.size)
    if np.all(d2[1:] == 0.0):
        return float(d2[0])
    return None


def dg_norm_sq(path: GaussianPath, spec: SequenceSpec) -> float:
    """Pathwise ||DG_n||^2, exact over all lags.

    For FbmScaled this is identically 1: the sequence is a unit-variance
    element of the first chaos.
    """
    if isinstance(spec, FbmScaled):
        return 1.0
    _check_path(path, spec)
    n = path.n
    b = _first_derivative_field(spec, path.values)
    u = _toeplitz_apply(_covariance_spectrum(spec.model, n), b[:, None], n)[:, 0]
    val = float(b @ u) / _normalizer_sq(spec, n)
    return max(val, 0.0)


def _weighted_quartic_trace(g: np.ndarray, b: np.ndarray, n: int) -> float:
    # tr((TR)^2) = sum_{k,j} b_k b_j (RDR)_{kj}^2 with T = D R D, a block of
    # _TRACE_BLOCK_COLS columns of R D R at a time by FFT Toeplitz applies.
    spec = _toeplitz_spectrum(g, n)
    total = 0.0
    for start in range(0, n, _TRACE_BLOCK_COLS):
        cols = np.arange(start, min(start + _TRACE_BLOCK_COLS, n))
        m = b[:, None] * _toeplitz_columns(g, cols, n)
        w = _toeplitz_apply(spec, m, n)
        total += float(b @ (w * w) @ b[cols])
    return total


def _constant_d2g_norm_sq(spec: SequenceSpec, n: int) -> float:
    """||D^2G_n (x)_1 D^2G_n||^2 when f'' is a constant c, the same on every
    path: tr((TR)^2) = c^4 tr(R^4), which is >= 0."""
    const = _second_derivative_constant(spec)
    raw = const**4 * float(_lag_sum_prefix(spec.model, 1, 1, n)[n - 1]) if const else 0.0
    return raw / _normalizer_sq(spec, n) ** 2


def d2g_contraction_norm_sq(path: GaussianPath, spec: SequenceSpec) -> float:
    """Pathwise ||D^2G_n (x)_1 D^2G_n||^2, the full quartic sum, exact."""
    if isinstance(spec, FbmScaled):
        return 0.0
    _check_path(path, spec)
    n = path.n
    if _second_derivative_constant(spec) is not None:
        return _constant_d2g_norm_sq(spec, n)
    b = _second_derivative_field(spec, path.values)
    raw = _weighted_quartic_trace(rho_many(spec.model, np.arange(n)), b, n)
    return max(raw, 0.0) / _normalizer_sq(spec, n) ** 2


def d2g_depends_on_path(spec: SequenceSpec) -> bool:
    """Whether ||D^2G_n (x)_1 D^2G_n||^2 varies with the path (f'' not
    constant); when it does not, the reducers evaluate it once."""
    return _second_derivative_constant(spec) is None


def malliavin_sample(
    path: GaussianPath, spec: SequenceSpec, with_d2g: bool = True
) -> MalliavinSample:
    """||DG_n||^2, the terminal value G_n and, with with_d2g,
    ||D^2G_n (x)_1 D^2G_n||^2 of one path, each computed once."""
    return MalliavinSample(
        spec=spec,
        n=path.n,
        dg_norm_sq=dg_norm_sq(path, spec),
        g_n=float(build_gseries(path, spec).values[-1]),
        d2g_contraction_norm_sq=d2g_contraction_norm_sq(path, spec) if with_d2g else None,
    )


def _quad_fourth_moment(spec: SequenceSpec, which: str) -> float:
    nodes, weights = _quad_rule(_QUAD_NODES)
    field = (
        _first_derivative_field(spec, nodes)
        if which == "first"
        else _second_derivative_field(spec, nodes)
    )
    return float(np.sum(weights * field**4))


def _ensemble_stats(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, se


def _validate_ensemble(records: list[MalliavinSample], spec: SequenceSpec) -> int:
    if not records:
        raise ValueError("empty replicate ensemble")
    n = records[0].n
    for r in records:
        if r.n != n:
            raise ValueError("replicates must share a common length")
        if r.spec != spec:
            raise ValueError("sample spec does not match the sequence spec")
    return n


@dataclass(frozen=True)
class CfGap:
    t: float
    n: int
    replicates: int
    gap_mc: float
    gap_se: float
    bound: float
    dg4_mean: float
    d2g_mean: float


def _d2g_values(spec: SequenceSpec, records: list[MalliavinSample], n: int) -> np.ndarray:
    if not d2g_depends_on_path(spec):
        # f'' does not depend on the path; one evaluation serves them all.
        return np.array([_constant_d2g_norm_sq(spec, n)])
    if any(r.d2g_contraction_norm_sq is None for r in records):
        raise ValueError("samples need the D^2G contraction (with_d2g)")
    return np.array([r.d2g_contraction_norm_sq for r in records])


def cf_gap_bound(spec: SequenceSpec, records: list[MalliavinSample], t: float) -> CfGap:
    """Monte-Carlo |E e^{itG_n} - e^{-t^2/2}| against the derivative bound
    (|t|/2) sqrt(10) E[||D^2G (x)_1 D^2G||^2]^{1/4} E[||DG||^4]^{1/4}.

    The |t||1 - E[G_n^2]| term vanishes because every sigma-normalized spec
    has E[G_n^2] = 1 exactly. records are `malliavin_sample`s of the replicates.
    """
    if isinstance(spec, HermiteVariation) and spec.regime == "supercritical":
        raise RegimeError("the Gaussian cf bound needs a unit-normalized sequence")
    if len(records) < _MIN_CF_REPLICATES:
        raise ValueError(f"need at least {_MIN_CF_REPLICATES} replicates")
    n = _validate_ensemble(records, spec)

    gvals = np.array([r.g_n for r in records])
    phases = np.exp(1j * t * gvals)
    target = math.exp(-t * t / 2.0)
    gap = float(abs(phases.mean() - target))
    m = len(records)
    se = math.sqrt(
        (phases.real.var(ddof=1) + phases.imag.var(ddof=1)) / m
    )

    dg4 = np.array([r.dg_norm_sq for r in records]) ** 2
    dg4_mean = float(dg4.mean())
    d2g_mean = float(_d2g_values(spec, records, n).mean())
    bound = 0.5 * abs(t) * math.sqrt(10.0) * d2g_mean**0.25 * dg4_mean**0.25
    return CfGap(
        t=float(t),
        n=n,
        replicates=m,
        gap_mc=gap,
        gap_se=se,
        bound=bound,
        dg4_mean=dg4_mean,
        d2g_mean=d2g_mean,
    )


@dataclass(frozen=True)
class MomentBoundCheck:
    name: str
    mc_mean: float
    mc_se: float
    bound_as_printed: float
    bound_first_power: float
    violates_printed: bool
    violates_first_power: bool


def _flag(mean: float, se: float, bound: float) -> bool:
    return mean > bound + 4.0 * se


def co1_check(spec: SequenceSpec, records: list[MalliavinSample]) -> MomentBoundCheck:
    """E||DG_n||^4 against (1/sigma_n^4)(E f'(N)^4)^{1/4} (sum |rho|)^2.

    The fractional exponent is kept exactly as printed; the first-power
    variant is what a four-factor Hoelder argument yields.
    """
    n = _validate_ensemble(records, spec)
    vals = np.array([r.dg_norm_sq for r in records]) ** 2
    mean, se = _ensemble_stats(vals)
    fourth = _quad_fourth_moment(spec, "first")
    sigma4 = (_normalizer_sq(spec, n) / n) ** 2
    rho_sum = abs_rho_power_sum(spec.model, 1).value
    printed = fourth**0.25 * rho_sum**2 / sigma4
    first = fourth * rho_sum**2 / sigma4
    return MomentBoundCheck(
        name="co1",
        mc_mean=mean,
        mc_se=se,
        bound_as_printed=printed,
        bound_first_power=first,
        violates_printed=_flag(mean, se, printed),
        violates_first_power=_flag(mean, se, first),
    )


def co2_check(spec: SequenceSpec, records: list[MalliavinSample]) -> MomentBoundCheck:
    """E||D^2G_n (x)_1 D^2G_n||^2 against the printed 1/n bound.

    Printed form: (E f''(N)^4)^{1/4} ||rho||_inf (sum |rho|)^3 / (sigma_n^4 n)
    with ||rho||_inf = 1. The first-power variant is tight for iid at q = 2.
    """
    n = _validate_ensemble(records, spec)
    vals = _d2g_values(spec, records, n)
    mean, se = _ensemble_stats(vals)
    fourth = _quad_fourth_moment(spec, "second")
    sigma4 = (_normalizer_sq(spec, n) / n) ** 2
    rho_sum = abs_rho_power_sum(spec.model, 1).value
    printed = fourth**0.25 * rho_sum**3 / (sigma4 * n)
    first = fourth * rho_sum**3 / (sigma4 * n)
    return MomentBoundCheck(
        name="co2",
        mc_mean=mean,
        mc_se=se,
        bound_as_printed=printed,
        bound_first_power=first,
        violates_printed=_flag(mean, se, printed),
        violates_first_power=_flag(mean, se, first),
    )


@dataclass(frozen=True)
class GebeleinRow:
    lag: int
    cov_mc: float
    se: float
    bound: float
    holds: bool


def _quad_mean_var(f) -> tuple[float, float]:
    """E f(N) and Var f(N) by Gauss-Hermite quadrature."""
    nodes, weights = _quad_rule(_QUAD_NODES)
    fn = np.asarray(f(nodes), dtype=float)
    mu = float(np.sum(weights * fn))
    return mu, float(np.sum(weights * (fn - mu) ** 2))


def _check_lags(lags, n: int) -> tuple[int, ...]:
    lags = tuple(int(r) for r in lags)
    if any(r < 0 or r >= n for r in lags):
        raise ValueError("lags must satisfy 0 <= r < n")
    return lags


@dataclass(frozen=True)
class LagCovariances:
    """One replicate of the correlation-bound sweep: covs[j] estimates
    Cov(f(X_i), f(X_{i+lags[j]}))."""

    model: CovarianceModel
    n: int
    lags: tuple[int, ...]
    covs: tuple[float, ...]


def lag_covariances(path: GaussianPath, f, lags) -> LagCovariances:
    """Per lag r, the mean over positions of (f(X_i) - mu)(f(X_{i+r}) - mu),
    centred at the exact quadrature mean mu = E f(N), so it is unbiased."""
    n = path.n
    lags = _check_lags(lags, n)
    mu, _ = _quad_mean_var(f)
    centered = np.asarray(f(path.values), dtype=float) - mu
    covs = tuple(float(centered[: n - r] @ centered[r:]) / (n - r) for r in lags)
    return LagCovariances(model=path.model, n=n, lags=lags, covs=covs)


def gebelein_check(records: list[LagCovariances], f, lags) -> list[GebeleinRow]:
    """|Cov(f(X_i), f(X_{i+r}))| <= |rho(r)| Var f(N), Monte Carlo per lag.

    records are `lag_covariances` of the replicates at these lags; the
    cross-replicate spread of the per-replicate estimates gives the
    standard error.
    """
    if not records:
        raise ValueError("empty replicate ensemble")
    model, n = records[0].model, records[0].n
    lags = _check_lags(lags, n)
    if any(r.model != model or r.n != n or r.lags != lags for r in records):
        raise ValueError("replicates must share one model, length and lag set")
    _, var = _quad_mean_var(f)
    per_rep = np.array([r.covs for r in records])
    rows = []
    rho_vals = np.abs(rho_many(model, np.array(lags)))
    for j, r in enumerate(lags):
        mean, se = _ensemble_stats(per_rep[:, j])
        bound = float(rho_vals[j]) * var
        rows.append(
            GebeleinRow(
                lag=r,
                cov_mc=mean,
                se=se,
                bound=bound,
                holds=abs(mean) <= bound + 4.0 * se,
            )
        )
    return rows
