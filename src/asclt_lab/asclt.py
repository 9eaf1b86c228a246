"""Log-averaged empirical measures and almost-sure CLT diagnostics.

The measurement layer: weighted empirical measures of a normalized series,
exact Kolmogorov distances to the target law, the log-averaged
characteristic-function statistic with its Monte-Carlo and closed-form
Gaussian second moments, and numerical summability diagnostics for the
averaging criteria. Verdicts are trend evidence, never proofs: a series
whose partial sums flatten on a finite grid is reported "consistent",
anything else "flagged".

The standard normal CDF is `_ndtr`, a NumPy transcription of the Cephes
`ndtr`/`erf`/`erfc` (Moshier, *Methods and Programs for Mathematical
Functions*, 1989) that `scipy.special.ndtr` also evaluates, so a run needs
no compiled special-function library.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceModel, abs_rho_power_sum
from .gaussian_sim import sample_stationary
from .kernels import contraction_norm_sq
from .malliavin import _normalizer_sq, _quad_fourth_moment
from .memo import CACHE_BYTES, prefix_cache
from .sequences import (
    FbmScaled,
    GeneralF,
    GSeries,
    HermiteVariation,
    SequenceSpec,
    build_gseries,
    cross_covariance,
    geometric_grid,
)

__all__ = [
    "LogAveragedMeasure",
    "IlRow",
    "IlDiagnostic",
    "ConditionDiagnostic",
    "CriteriaReport",
    "DEFAULT_T_GRID",
    "log_average_measure",
    "ks_distance",
    "harmonic_weighted_mean",
    "delta_stat",
    "delta_stat_prefixes",
    "exact_delta_sq",
    "exact_gaussian_delta_sq",
    "il_series_diagnostic",
    "il_delta_prefixes",
    "il_from_exact",
    "il_from_prefixes",
    "il_from_rows",
    "contraction_keys",
    "contraction_values",
    "criteria_diagnostic",
]

DEFAULT_T_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
EXACT_DELTA_MAX_N = 1 << 12
# Sorted atoms per step of ks_distance: long enough that _ndtr's fixed cost
# per call stays small, short enough that no temporary is path-length.
_KS_CHUNK = 1 << 14
# Rows per block of the exact Delta pass (at most 2^18 entries at the cap),
# and the width of the fixed column chunks its row sums are built from.
_EXACT_DELTA_ROWS = (1 << 18) // EXACT_DELTA_MAX_N
_EXACT_DELTA_SPAN = 128
# Fit-based verdict thresholds, pilot-calibrated on grids up to 2^16.
# The averaged second moment decays only logarithmically in the healthy
# cases, so the slope gate is scale-dependent: -0.08 splits the unit-variance
# specs (slopes -0.10 to -0.25) from the non-Gaussian-limit ones (-0.05 to
# -0.06); much longer horizons would flatten the healthy slopes too and
# flag conservatively.
_IL_DECAY_MIN = 0.08
_FIT_ALPHA_MIN = 0.02


# ---------------------------------------------------------------------------
# Log-averaged measures and Kolmogorov distance.


@dataclass(frozen=True)
class LogAveragedMeasure:
    """Atoms (G_k, w_k) with w_k = (1/k) / sum_{j<=n} 1/j, sorted by value."""

    values: np.ndarray
    weights: np.ndarray
    n: int


def log_average_measure(g: GSeries) -> LogAveragedMeasure:
    """The probability measure of the atoms G_k under weights 1/k. Atoms are
    sorted by NumPy's default (unstable) sort; tied values may come out in
    any order, and ks_distance treats each run of ties as one jump."""
    n = g.n
    if n < 2:
        raise ValueError("need n >= 2 atoms")
    raw = _inverse_k(n)
    order = np.argsort(g.values)
    values = g.values[order]
    weights = raw[order]
    weights /= float(raw.sum())
    values.flags.writeable = False
    weights.flags.writeable = False
    return LogAveragedMeasure(values, weights, n)


# Cephes ndtr.c coefficients: erfc = exp(-x^2) P(x)/Q(x) for 1 <= x < 8 and
# R(x)/S(x) for x >= 8; erf = x T(x^2)/U(x^2) for |x| < 1. Q, S and U are
# monic, their leading 1 omitted (p1evl).
_NDTR_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_NDTR_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_NDTR_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_NDTR_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_NDTR_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_NDTR_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _erfc_tail(z: np.ndarray) -> np.ndarray:
    """Cephes erfc for z >= 1: exp(-z^2) P/Q below 8 and R/S from 8 on,
    0 once -z^2 < -MAXLOG. NaN fails every comparison and stays NaN."""
    minus_sq = -z * z
    out = np.zeros_like(z)
    live = ~(minus_sq < -_MAXLOG)
    zl = z[live]
    e = np.exp(minus_sq[live])
    near = zl < 8.0
    for sel, num, den in ((near, _NDTR_P, _NDTR_Q), (~near, _NDTR_R, _NDTR_S)):
        if sel.any():
            zs = zl[sel]
            y = e[sel]
            y *= _polevl(zs, num)
            y /= _p1evl(zs, den)
            e[sel] = y
    out[live] = e
    return out


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, Cephes `ndtr` branch for branch.

    With x = a/sqrt(2): |x| < 1 goes through erf(x); otherwise erfc(|x|)
    gives the lower tail and its complement the upper one. NaN maps to NaN
    and -inf, +inf to 0, 1. Each branch is evaluated only on its own points,
    in place where the operation order allows it (the same roundings).
    """
    x = np.asarray(a, dtype=float) * math.sqrt(0.5)
    out = np.empty_like(x)
    mid = (x > -1.0) & (x < 1.0)  # |x| < 1
    xm = x[mid]
    zz = xm * xm
    y = _polevl(zz, _NDTR_T)
    y *= xm
    y /= _p1evl(zz, _NDTR_U)
    y *= 0.5
    y += 0.5
    out[mid] = y
    tail = ~mid
    if tail.any():
        xt = x[tail]
        half = _erfc_tail(np.abs(xt))
        half *= 0.5
        upper = xt > 0.0
        half[upper] = 1.0 - half[upper]
        out[tail] = half
    return out


def ks_distance(m: LogAveragedMeasure) -> float:
    """Exact sup-distance between the measure's CDF and the N(0, 1) CDF.

    The weighted empirical CDF is a step function, so the sup is attained
    at a jump point, approached from the left or the right; both one-sided
    values are compared at every jump. Each run of ties is one jump, at the
    end of the run, where the CDF is the running sum of the weights; just
    before the jump it is the CDF after the previous one.

    The atoms are read _KS_CHUNK at a time, so no temporary is longer than a
    chunk. The running sum carries over from chunk to chunk in the order of
    one np.cumsum of all the weights, so every value is the same bits as in
    one pass over the whole measure.
    """
    values, weights = m.values, m.weights
    size = values.size
    below = 0.0  # the CDF just before the chunk's first jump
    total = 0.0  # the running sum of the weights before the chunk
    gaps = []
    for start in range(0, size, _KS_CHUNK):
        stop = min(start + _KS_CHUNK, size)
        cdf = weights[start:stop].copy()
        cdf[0] += total
        np.cumsum(cdf, out=cdf)
        total = float(cdf[-1])
        # A run ends where the next atom differs; the last run at the end.
        ends = np.empty(stop - start, dtype=bool)
        np.not_equal(values[start:stop - 1], values[start + 1:stop], out=ends[:-1])
        ends[-1] = stop == size or values[stop - 1] != values[stop]
        hi = cdf[ends]
        if not hi.size:
            continue
        phi = _ndtr(values[start:stop][ends])
        gap = np.subtract(phi, hi, out=cdf[:hi.size])  # against the CDF after
        np.abs(gap, out=gap)
        gap[0] = np.maximum(gap[0], abs(phi[0] - below))  # and before each jump
        lo = np.subtract(phi[1:], hi[:-1], out=phi[1:])
        np.maximum(gap[1:], np.abs(lo, out=lo), out=gap[1:])
        below = float(hi[-1])
        gaps.append(gap.max())
    return float(np.max(gaps))


def harmonic_weighted_mean(values: np.ndarray) -> float:
    """Mean of values[k-1] under weights 1/k, normalized to mass one."""
    values = np.asarray(values, dtype=float)
    w = 1.0 / np.arange(1.0, values.size + 1.0)
    return float((w @ values) / w.sum())


# ---------------------------------------------------------------------------
# The log-averaged characteristic-function statistic.


@prefix_cache(CACHE_BYTES)
def _inverse_k(n: int) -> np.ndarray:
    """1/k for k = 1..n."""
    return 1.0 / np.arange(1.0, n + 1.0)


def _phases(g: np.ndarray, t: float) -> np.ndarray:
    """e^{itg} as cos(tg) + i sin(tg), written into one complex array: with
    glibc the same bits as np.exp(1j * t * g), at about half the cost. The
    argument is the imaginary part of NumPy's complex product, which adds
    (1j * t).real * 0.0 to t * g and so may turn -0.0 into +0.0."""
    a = 1j * t
    y = np.multiply(g, a.imag)
    y += a.real * 0.0
    out = np.empty(y.shape, dtype=complex)
    np.cos(y, out=out.real)
    np.sin(y, out=out.imag)
    return out


def delta_stat(g: GSeries, t: float):
    """(1/log n) sum_{k<=n} (1/k)(e^{itG_k} - e^{-t^2/2}).

    A complex for one series; for a block series (values of shape (B, n))
    the array of the B rows' values, each bit-identical to its row alone:
    the exponential and the weighting are elementwise and each row is summed
    on its own. Dividing a complex by k + 0j is, in NumPy, a multiplication
    by 1/k, so the weights are one cached row of 1/k."""
    n = g.n
    if n < 2:
        raise ValueError("need n >= 2")
    terms = _phases(g.values, t)
    terms -= math.exp(-t * t / 2.0)
    terms *= _inverse_k(n)
    total = np.sum(terms, axis=-1) / math.log(n)
    return complex(total) if total.ndim == 0 else total


def delta_stat_prefixes(g: GSeries, t: float, n_grid) -> np.ndarray:
    """delta_stat of every prefix in n_grid, one cumulative pass."""
    n_grid = [int(n) for n in n_grid]
    if any(n < 2 or n > g.n for n in n_grid):
        raise ValueError("prefix sizes must lie in 2..n")
    inverse_k = _inverse_k(g.n)
    phases = _phases(g.values, t)
    phases *= inverse_k
    cum_phase = np.cumsum(phases, out=phases)
    cum_w = np.cumsum(inverse_k)
    idx = np.array(n_grid) - 1
    target = math.exp(-t * t / 2.0)
    return (cum_phase[idx] - target * cum_w[idx]) / np.log(np.array(n_grid, dtype=float))


def _exact_delta_rows(H: float, ts, ns, lo: int, hi: int) -> np.ndarray:
    """Rows k = lo..hi-1 of the exact Delta pass: for each t of ts and n of
    ns, r_k(n) = sum_{l=k}^{n} w_kl (e^{c_kl t^2} - 1)/(kl), with w = 1 on
    the diagonal and 2 above it, and c_kl = E[G_k G_l] from the gathered
    tables m^{2H} and m^H; shape (len(ts), hi - lo, len(ns)), zero where
    k > n.

    Columns are summed in fixed chunks of _EXACT_DELTA_SPAN, aligned on
    multiples of it: one pairwise sum per (row, chunk), a running sum of
    the chunks that end at or before n, and the sum of the chunk that holds n
    up to n. So r_k(n) is the same bits for every lo, hi and grid that
    contain k and n."""
    span = _EXACT_DELTA_SPAN
    c0 = (lo - 1) // span * span + 1
    width = -(-(max(ns) - c0 + 1) // span) * span
    m = np.arange(c0 + width, dtype=float)
    m2h = m ** (2.0 * H)  # gathered below: no pow per entry
    mh = m**H
    k = np.arange(lo, hi)
    l = np.arange(c0, c0 + width)
    d = l - k[:, None]
    cov = m2h[k][:, None] + m2h[l]
    cov -= m2h[np.abs(d)]
    cov *= 0.5
    cov /= np.multiply.outer(mh[k], mh[l])
    weight = np.sign(d).astype(float)
    weight += 1.0
    weight /= np.multiply.outer(m[k], m[l])
    out = np.zeros((len(ts), hi - lo, len(ns)))
    term = np.empty_like(cov)
    for i, t in enumerate(ts):
        np.multiply(cov, t * t, out=term)
        np.expm1(term, out=term)
        term *= weight
        chunks = term.reshape(hi - lo, -1, span).sum(axis=-1)
        full = np.cumsum(chunks, axis=1)
        for j, n in enumerate(ns):
            if n < lo:
                continue
            a = (n - c0) // span * span  # start of the chunk that holds n
            part = term[:, a : n - c0 + 1].sum(axis=1)
            out[i, :, j] = part if a == 0 else full[:, a // span - 1] + part
    return out


def exact_delta_sq(spec: SequenceSpec, t_grid, n_grid, submit=functools.partial):
    """Closed-form E|delta_n(t)|^2 for a jointly Gaussian unit-variance series,
    every t of t_grid and n of n_grid from one pass:
    (e^{-t^2}/log^2 n) sum_{k,l<=n} (e^{E[G_k G_l] t^2} - 1)/(kl).

    The summand is symmetric, so the pass runs over the upper triangle
    k <= l of the rows k = 1..max(n_grid), in blocks of _EXACT_DELTA_ROWS
    rows. submit(fn, *args) starts one block and returns a zero-argument
    callable giving its result (default: run when collected), so the blocks
    can be pool tasks. Each block gives the row sums r_k(n) of
    _exact_delta_rows, and the sum over k is math.fsum, so every entry is
    the same bits however it is asked: alone, within any grid, and whatever
    the block split or worker count. Returns a zero-argument callable giving
    the (len(t_grid), len(n_grid)) array.

    Only the scaled-increment-sum spec is jointly Gaussian; the pass is
    quadratic in n, which caps n at 2^12.
    """
    if not isinstance(spec, FbmScaled):
        raise ValueError("exact second moment requires the jointly Gaussian spec")
    t_grid = [float(t) for t in t_grid]
    n_grid = [int(n) for n in n_grid]
    if min(n_grid) < 2:
        raise ValueError("need n >= 2")
    if max(n_grid) > EXACT_DELTA_MAX_N:
        raise ValueError(f"double sum capped at n = {EXACT_DELTA_MAX_N}")
    ts = tuple(t for t in t_grid if t != 0.0)
    n_max = max(n_grid)
    blocks = [submit(_exact_delta_rows, spec.H, ts, tuple(n_grid), lo,
                     min(lo + _EXACT_DELTA_ROWS, n_max + 1))
              for lo in range(1, n_max + 1, _EXACT_DELTA_ROWS)] if ts else []

    def collect() -> np.ndarray:
        out = np.zeros((len(t_grid), len(n_grid)))
        sums = iter(np.concatenate([block() for block in blocks], axis=1) if ts else ())
        for row, t in zip(out, t_grid):
            if t != 0.0:
                r = next(sums)  # r_k(n) of every row k, shape (max(n_grid), len(n_grid))
                damp = math.exp(-t * t)
                row[:] = [damp * math.fsum(r[:, j]) / math.log(n) ** 2
                          for j, n in enumerate(n_grid)]
        return out

    return collect


def exact_gaussian_delta_sq(spec: SequenceSpec, n: int, t: float) -> float:
    """exact_delta_sq at one n and t."""
    return float(exact_delta_sq(spec, (t,), (n,))()[0, 0])


# ---------------------------------------------------------------------------
# Summability diagnostics.


@dataclass(frozen=True)
class IlRow:
    t: float
    delta_sq: tuple[float, ...]
    summand: tuple[float, ...]
    partial_sums: tuple[float, ...]
    fitted_decay: float | None
    verdict: str


@dataclass(frozen=True)
class IlDiagnostic:
    n_grid: tuple[int, ...]
    rows: tuple[IlRow, ...]
    sup_delta_sq: tuple[float, ...]
    verdict: str


def _loglog_fit(x, y) -> tuple[float, float]:
    """Least-squares slope and intercept of log y against log x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


def _il_row(t: float, n_grid, delta_sq: np.ndarray) -> IlRow:
    n_arr = np.asarray(n_grid, dtype=float)
    summand = delta_sq / (n_arr * np.log(n_arr))
    gaps = np.diff(np.concatenate(([n_grid[0] - 1], n_arr)))
    gaps[0] = max(gaps[0], 1.0)
    partial = np.cumsum(summand * gaps)
    if t == 0.0 or np.all(delta_sq == 0.0):
        return IlRow(float(t), tuple(delta_sq), tuple(summand), tuple(partial), None, "consistent")
    slope, _ = _loglog_fit(n_arr, np.maximum(delta_sq, 1e-300))
    decaying = slope < -_IL_DECAY_MIN and delta_sq[-1] < delta_sq[0]
    return IlRow(
        float(t),
        tuple(delta_sq),
        tuple(summand),
        tuple(partial),
        slope,
        "consistent" if decaying else "flagged",
    )


def il_from_rows(n_grid, rows) -> IlDiagnostic:
    """The diagnostic from its rows, one per t: sup over t and overall
    verdict; no rows (every replicate failed) is flagged."""
    sup = np.max(np.array([r.delta_sq for r in rows]), axis=0) if rows else ()
    verdict = "consistent" if rows and all(r.verdict == "consistent" for r in rows) else "flagged"
    return IlDiagnostic(tuple(n_grid), tuple(rows), tuple(sup), verdict)


def il_delta_prefixes(
    spec: SequenceSpec, t_grid, n_grid, master_seed: int, replicate_id: int
) -> np.ndarray:
    """One Monte-Carlo replicate of the il diagnostic: delta_stat_prefixes on
    n_grid for every t (zeros at t = 0) from the path of (master_seed,
    replicate_id) at n_grid[-1]; shape (len(t_grid), len(n_grid))."""
    path = sample_stationary(spec.model, n_grid[-1], master_seed, replicate_id)
    g = build_gseries(path, spec)
    out = np.zeros((len(t_grid), len(n_grid)), dtype=complex)
    for i, t in enumerate(t_grid):
        if t != 0.0:
            out[i] = delta_stat_prefixes(g, t, n_grid)
    return out


def il_from_prefixes(t_grid, n_grid, prefixes) -> IlDiagnostic:
    """Reduce per-replicate il_delta_prefixes, in replicate order, to the
    diagnostic: the mean of |delta|^2 per t and n."""
    n_grid = [int(n) for n in n_grid]
    if not prefixes:
        return il_from_rows(n_grid, ())
    rows = []
    for i, t in enumerate(t_grid):
        if t == 0.0:
            rows.append(_il_row(t, n_grid, np.zeros(len(n_grid))))
            continue
        sq = np.abs(np.array([p[i] for p in prefixes])) ** 2
        rows.append(_il_row(t, n_grid, sq.mean(axis=0)))
    return il_from_rows(n_grid, rows)


def il_from_exact(t_grid, n_grid, delta_sq) -> IlDiagnostic:
    """The exact il diagnostic from exact_delta_sq's (len(t_grid),
    len(n_grid)) array."""
    return il_from_rows(n_grid, [_il_row(t, n_grid, row) for t, row in zip(t_grid, delta_sq)])


def il_series_diagnostic(spec: SequenceSpec, t_grid=DEFAULT_T_GRID, n_grid=None) -> IlDiagnostic:
    """Trend diagnostic for the averaged-summability criterion: the summand
    E|delta_n(t)|^2 / (n log n) on a geometric n-grid, its grid partial sums,
    and a fitted decay exponent per t, from the exact second moment (jointly
    Gaussian specs only). Numerical evidence only; the Monte-Carlo
    counterpart is il_from_prefixes over il_delta_prefixes replicates.
    """
    if n_grid is None:
        n_grid = [n for n in geometric_grid(EXACT_DELTA_MAX_N) if n >= 4]
    n_grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    if n_grid[0] < 2:
        raise ValueError("n_grid entries must be >= 2")
    return il_from_exact(t_grid, n_grid, exact_delta_sq(spec, t_grid, n_grid)())


# ---------------------------------------------------------------------------
# Condition-by-condition criteria diagnostics.


@dataclass(frozen=True)
class ConditionDiagnostic:
    name: str
    fitted_alpha: float | None
    fitted_C: float | None
    partial_sums: tuple[float, ...]
    verdict: str
    applicable: bool
    detail: str


@dataclass(frozen=True)
class CriteriaReport:
    n_max: int
    conditions: tuple[ConditionDiagnostic, ...]
    verdict: str


def _interp_series(grid, vals, n_max: int) -> np.ndarray:
    """Power-law interpolation of positive grid values onto 1..n_max."""
    full = np.arange(1.0, n_max + 1.0)
    return np.exp(np.interp(np.log(full), np.log(np.asarray(grid, float)), np.log(vals)))


def _single_sum_condition(
    name: str, grid, vals: np.ndarray, n_max: int, inner_power: float, detail: str
) -> ConditionDiagnostic:
    """Series sum_n (1/(n log^2 n)) sum_{k<=n} a_k^{inner_power} / k with a_k
    power-law interpolated from the grid; verdict from the fitted decay of a_k."""
    if np.all(vals == 0.0):
        zeros = tuple(np.zeros(len(grid)))
        return ConditionDiagnostic(name, None, None, zeros, "consistent", True, detail)
    slope, intercept = _loglog_fit(grid, vals)
    a = _interp_series(grid, vals, n_max)
    k = np.arange(1.0, n_max + 1.0)
    inner = np.cumsum(a**inner_power / k)
    n = np.arange(2.0, n_max + 1.0)
    series = np.cumsum(inner[1:] / (n * np.log(n) ** 2))
    idx = np.array([g - 2 for g in grid if g >= 2])
    alpha = -slope
    verdict = "consistent" if alpha >= _FIT_ALPHA_MIN else "flagged"
    return ConditionDiagnostic(
        name,
        alpha,
        math.exp(intercept),
        tuple(series[idx]),
        verdict,
        True,
        detail,
    )


def _pair_grid(grid) -> list[tuple[int, int]]:
    pairs = []
    for i, k in enumerate(grid):
        for l in grid[i + 1 :]:
            if l > k:
                pairs.append((k, l))
    return pairs


def _envelope_condition(
    name: str, pairs, covs: np.ndarray, n_max: int, scale: float, detail: str
) -> ConditionDiagnostic:
    """Fit |cov| <= C (k/l)^alpha on the pair grid and sum the enveloped
    series sum_n (1/(n log^3 n)) [sum_k 1/k^2 + 2C sum_{k<l} (k/l)^alpha/(kl)]."""
    ratios = np.array([k / l for k, l in pairs])
    mags = np.abs(covs)
    keep = mags > 1e-300
    slope, _ = _loglog_fit(ratios[keep], mags[keep])
    alpha = max(slope, 0.0)
    env_c = float(np.max(mags / ratios**alpha))
    k = np.arange(1.0, n_max + 1.0)
    diag = np.cumsum(scale / k**2)
    inner_k = np.cumsum(k ** (alpha - 1.0))
    off = np.cumsum(np.concatenate(([0.0], inner_k[:-1])) / k ** (1.0 + alpha))
    inner = diag + 2.0 * env_c * off
    n = np.arange(2.0, n_max + 1.0)
    series = np.cumsum(inner[1:] / (n * np.log(n) ** 3))
    grid_ns = sorted({l for _, l in pairs})
    idx = np.array([g - 2 for g in grid_ns])
    verdict = "consistent" if slope >= _FIT_ALPHA_MIN else "flagged"
    return ConditionDiagnostic(
        name,
        float(slope),
        env_c,
        tuple(series[idx]),
        verdict,
        True,
        detail,
    )


def _not_applicable(name: str, detail: str) -> ConditionDiagnostic:
    return ConditionDiagnostic(name, None, None, (), "flagged", False, detail)


_NPR_NAME = "second_derivative_contraction"
_COV_NAME = "cross_covariance"
_KERNEL_NAME = "kernel_contraction"
_INNER_NAME = "kernel_inner"


def _npr_constant(q: int, r: int) -> float:
    return (
        q**4
        * (q - 1) ** 4
        * math.factorial(r - 1) ** 2
        * math.comb(q - 2, r - 1) ** 4
        * math.factorial(2 * q - 2 - 2 * r)
    )


def _criteria_grid(n_max: int):
    return [g for g in geometric_grid(n_max) if g >= 2]


def _lag_sum_key(q: int, r: int, n) -> tuple[int, int, int]:
    return (min(r, q - r), max(r, q - r), int(n))


def contraction_keys(spec: SequenceSpec, n_max: int, scan_ns=()) -> list[tuple[int, int, int]]:
    """The distinct quartic lag-sum keys (a, b, n), a = min(r, q - r) and
    b = max(r, q - r), whose contraction norms criteria_diagnostic(spec,
    n_max) reduces, together with the order-1 key at every n of scan_ns (the
    critical boundedness scan). Grouped by (a, b), largest n first in each
    group: one bordering pass per (a, b) gives S at every n of its group, and
    reading the largest n first runs that pass once. Empty unless spec is a
    HermiteVariation: no other spec has contractions.
    """
    if not isinstance(spec, HermiteVariation):
        return []
    q = spec.q
    keys = {_lag_sum_key(q, r, g) for r in range(1, q) for g in _criteria_grid(n_max)}
    keys |= {_lag_sum_key(q, 1, n) for n in scan_ns}
    return sorted(keys, key=lambda key: (key[0], key[1], -key[2]))


def contraction_values(model: CovarianceModel, keys) -> list[float]:
    """||f_n (x)_r f_n||^2 for each lag-sum key (a, b, n) of order q = a + b,
    in order. A key gives the same float for r = a and r = b: both orders
    share the lag sum S and the normalizer E[V_n^2]."""
    return [contraction_norm_sq(model, a + b, a, n).value for a, b, n in keys]


def criteria_diagnostic(
    spec: SequenceSpec, n_max: int = EXACT_DELTA_MAX_N, contractions=None
) -> CriteriaReport:
    """Numerical evidence for the four averaging conditions: decay of the
    second-derivative contraction (fourth root inside a log^2 series), the
    cross-covariance double series under a log^3 weight, and their fixed-
    chaos kernel forms. Fits and partial sums on geometric grids; verdicts
    are consistency flags, not proofs.

    This is the reduce step. For a HermiteVariation spec it reads the kernel
    contraction norms from `contractions`, a mapping from every key of
    contraction_keys(spec, n_max) to its contraction_values entry (the CLI
    computes those values as one pool task per (a, b) group), and raises
    ValueError without it. The cross covariances E[G_k G_l] come from
    sequences.cross_covariance on the pair grid, each pair once, shared by
    both envelope conditions.
    """
    grid = _criteria_grid(n_max)
    conditions: list[ConditionDiagnostic] = []

    supercritical = isinstance(spec, HermiteVariation) and spec.regime == "supercritical"
    if not supercritical:
        _normalizer_sq(spec, grid[-1])  # the largest n first: every other n reads a slice
    # Kernel contraction norms per order r, shared by both fixed-chaos series.
    per_order = {}
    if isinstance(spec, HermiteVariation):
        if contractions is None:
            raise ValueError("a HermiteVariation needs contractions=, the "
                             "contraction_values of its contraction_keys")
        per_order = {
            r: np.array([contractions[_lag_sum_key(spec.q, r, g)] for g in grid])
            for r in range(1, spec.q)
        }

    # second-derivative contraction series
    if isinstance(spec, FbmScaled):
        conditions.append(
            _single_sum_condition(
                _NPR_NAME, grid, np.zeros(len(grid)), n_max, 0.25,
                "second derivative vanishes identically",
            )
        )
    elif isinstance(spec, HermiteVariation):
        vals = sum(
            (_npr_constant(spec.q, r) * c for r, c in per_order.items()),
            np.zeros(len(grid)),
        )
        conditions.append(
            _single_sum_condition(
                _NPR_NAME, grid, vals, n_max, 0.25,
                "kernel-contraction route, exact at q = 2",
            )
        )
    else:
        rho_sum = abs_rho_power_sum(spec.model, 1).value
        fourth = _quad_fourth_moment(spec, "second")
        vals = np.array(
            [fourth * rho_sum**3 * g / _normalizer_sq(spec, g) ** 2 for g in grid]
        )
        conditions.append(
            _single_sum_condition(
                _NPR_NAME, grid, vals, n_max, 0.25,
                "first-power fourth-moment bound",
            )
        )

    # cross-covariance double series
    if supercritical:
        conditions.append(
            _not_applicable(_COV_NAME, "not applicable: no unit-variance normalization")
        )
    else:
        pairs = _pair_grid(grid)
        covs = np.array([cross_covariance(spec, k, l) for k, l in pairs])
        conditions.append(
            _envelope_condition(
                _COV_NAME, pairs, covs, n_max, 1.0, "ratio-power envelope fit"
            )
        )

    # kernel contraction series, fixed chaos only
    if isinstance(spec, FbmScaled):
        conditions.append(
            _single_sum_condition(
                _KERNEL_NAME, grid, np.zeros(len(grid)), n_max, 1.0,
                "first chaos has no nontrivial contractions",
            )
        )
    elif isinstance(spec, GeneralF):
        conditions.append(
            _not_applicable(_KERNEL_NAME, "not applicable: mixed chaos orders")
        )
    else:
        per_r = {r: np.sqrt(c) for r, c in per_order.items()}
        fits = {r: _loglog_fit(grid, v)[0] for r, v in per_r.items()}
        vals = np.sum(np.array(list(per_r.values())), axis=0)
        detail = "slowest contraction order r = %d; per-order decay %s" % (
            max(fits, key=fits.get),
            {r: round(s, 4) for r, s in fits.items()},
        )
        conditions.append(
            _single_sum_condition(_KERNEL_NAME, grid, vals, n_max, 1.0, detail)
        )

    # kernel inner-product double series
    if supercritical:
        conditions.append(
            _not_applicable(_INNER_NAME, "not applicable: no unit-variance normalization")
        )
    elif isinstance(spec, GeneralF):
        conditions.append(
            _not_applicable(_INNER_NAME, "not applicable: mixed chaos orders")
        )
    else:
        q = 1 if isinstance(spec, FbmScaled) else spec.q
        conditions.append(
            _envelope_condition(
                _INNER_NAME, pairs, covs / math.factorial(q), n_max, 1.0 / math.factorial(q),
                "cross covariance divided by q!",
            )
        )

    applicable = [c for c in conditions if c.applicable]
    verdict = "consistent" if all(c.verdict == "consistent" for c in applicable) else "flagged"
    return CriteriaReport(n_max, tuple(conditions), verdict)

