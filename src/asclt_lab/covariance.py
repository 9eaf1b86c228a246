"""Stationary unit-variance autocovariance models.

Three model kinds are supported:

* ``fgn(H)``: autocovariance of unit-lag increments of fractional Brownian
  motion with Hurst index ``H in (0, 1)``,

      rho(r) = ((|r|+1)^(2H) + (|r|-1)^(2H) - 2|r|^(2H)) / 2,

  with the large-lag behaviour rho(r) ~ H(2H-1) |r|^(2H-2).
* ``iid``: rho(0) = 1 and rho(r) = 0 otherwise (identical to ``fgn(0.5)``).
* ``table``: an explicit finite, symmetric table of lag covariances with
  rho(0) = 1 and zero outside the listed lags.

Large fgn lags are evaluated through the even binomial series of the second
difference rather than by direct subtraction, so values stay accurate to a
few ulp out to arbitrarily large ``|r|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CovarianceModel",
    "DivergentTailError",
    "TailSum",
    "fgn",
    "iid",
    "table",
    "rho_many",
    "abs_rho_power_tail",
    "abs_rho_power_sum",
    "signed_rho_power_sum",
    "power_tail_summable",
    "symmetric_toeplitz",
]


class DivergentTailError(ValueError):
    """The requested lag-power series sum_r |rho(r)|^q diverges."""


# |r| above this uses the binomial series; below it the direct second
# difference loses at most ~r^2 * eps, i.e. < 1e-12 relative.
_SERIES_CUTOFF = 32
_SERIES_TERMS = 9
_SUM_CHUNK = 1 << 21
# Summed fgn tails stop once the certified remainder is below _TAIL_TOL of
# the value, or at lag _TAIL_CUTOFF_MAX.
_TAIL_TOL = 1e-12
_TAIL_CUTOFF_MAX = 1 << 24


@dataclass(frozen=True)
class CovarianceModel:
    """Immutable description of a stationary correlation sequence."""

    kind: str
    H: float | None = None
    values: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self):
        if self.kind == "fgn":
            if self.H is None or not (0.0 < self.H < 1.0):
                raise ValueError(f"fgn requires 0 < H < 1, got {self.H}")
            if self.values is not None:
                raise ValueError("fgn model takes no lag table")
        elif self.kind == "iid":
            if self.H is not None or self.values is not None:
                raise ValueError("iid model takes no parameters")
        elif self.kind == "table":
            if self.H is not None:
                raise ValueError("table model takes no H")
            tab = dict(self.values or ())
            if tab.get(0) != 1.0:
                raise ValueError("table model must define rho(0) = 1")
            if any((not isinstance(k, int)) or k < 0 for k in tab):
                raise ValueError("table lags must be nonnegative integers")
            if any(abs(v) > 1.0 for v in tab.values()):
                raise ValueError("correlations must lie in [-1, 1]")
            object.__setattr__(
                self, "values", tuple(sorted(tab.items()))
            )
        else:
            raise ValueError(f"unknown covariance kind {self.kind!r}")


def fgn(H: float) -> CovarianceModel:
    return CovarianceModel(kind="fgn", H=float(H))


def iid() -> CovarianceModel:
    return CovarianceModel(kind="iid")


def table(values) -> CovarianceModel:
    """Build a table model from a {lag: rho} mapping or (lag, rho) pairs."""
    if isinstance(values, dict):
        items = values.items()
    else:
        items = values
    return CovarianceModel(kind="table", values=tuple((int(k), float(v)) for k, v in items))


def _fgn_series_coeffs(two_h: float) -> np.ndarray:
    # Even generalized binomial coefficients C(2H, 2k), k = 1.._SERIES_TERMS.
    coeffs = np.empty(_SERIES_TERMS)
    c = 1.0
    for j in range(1, 2 * _SERIES_TERMS + 1):
        c *= (two_h - j + 1) / j
        if j % 2 == 0:
            coeffs[j // 2 - 1] = c
    return coeffs


def _rho_fgn(H: float, lags: np.ndarray) -> np.ndarray:
    r = np.abs(lags.astype(float))
    two_h = 2.0 * H
    out = np.empty_like(r)

    small = r <= _SERIES_CUTOFF
    if np.any(small):
        rs = r[small]
        out[small] = 0.5 * (
            (rs + 1.0) ** two_h + np.abs(rs - 1.0) ** two_h - 2.0 * rs**two_h
        )
    if not np.all(small):
        rl = r[~small]
        u2 = 1.0 / (rl * rl)
        coeffs = _fgn_series_coeffs(two_h)
        acc = np.zeros_like(rl)
        for c in coeffs[::-1]:
            acc = acc * u2 + c
        out[~small] = rl**two_h * (acc * u2)
    return out


def rho_many(model: CovarianceModel, lags) -> np.ndarray:
    """Vectorized autocovariance at integer lags."""
    lags = np.asarray(lags)
    if model.kind == "fgn":
        return _rho_fgn(model.H, lags)
    if model.kind == "iid":
        return (lags == 0).astype(float)
    out = np.zeros(lags.shape, dtype=float)
    for k, v in model.values:
        out[np.abs(lags) == k] = v
    return out


def symmetric_toeplitz(col) -> np.ndarray:
    """The n x n matrix T[i, j] = col[|i - j|], copied from the windows
    of one length-(2n - 1) buffer rather than gathered by an index array."""
    col = np.asarray(col)
    n = col.size
    full = np.concatenate([col[:0:-1], col])  # full[n - 1 + d] = col[|d|]
    # Row i is full[n - 1 - i : 2n - 1 - i], the window starting at n - 1 - i.
    return np.lib.stride_tricks.sliding_window_view(full, n)[::-1].copy()


def power_tail_summable(model: CovarianceModel, q: int) -> bool:
    """Whether sum_r |rho(r)|^q is finite."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if model.kind != "fgn" or model.H == 0.5:
        return True
    if model.H < 0.5:
        return True
    return (2.0 - 2.0 * model.H) * q > 1.0


@dataclass(frozen=True)
class TailSum:
    """A partial sum plus a rigorous bound on everything beyond the cutoff."""

    value: float
    remainder_bound: float
    cutoff: int


def _fgn_envelope_tail(H: float, q: int, R: int) -> float:
    # |rho(r)| <= H|2H-1| (r-1)^(2H-2) for r >= 2 (second-difference integral
    # representation), hence sum_{r>R} |rho|^q <= K^q (R-1)^(1-s) / (s-1)
    # with s = (2-2H)q > 1. One-sided.
    K = H * abs(2.0 * H - 1.0)
    s = (2.0 - 2.0 * H) * q
    return K**q * (R - 1.0) ** (1.0 - s) / (s - 1.0)


def _summed_fgn_tail(model, q, m, tol, cutoff_max, signed):
    H = model.H
    R = max(4, 2 * m + 2, 4096)
    total = 0.0
    lo = m + 1
    while True:
        R = min(R, cutoff_max)
        for start in range(lo, R + 1, _SUM_CHUNK):
            stop = min(start + _SUM_CHUNK, R + 1)
            vals = _rho_fgn(H, np.arange(start, stop))
            total += float(np.sum(vals**q) if signed else np.sum(np.abs(vals) ** q))
        lo = R + 1
        bound = 2.0 * _fgn_envelope_tail(H, q, R)
        if bound <= tol * (2.0 * abs(total) + bound) or R >= cutoff_max:
            return TailSum(2.0 * total, bound, R)
        R *= 4


def abs_rho_power_tail(model: CovarianceModel, q: int, m: int) -> TailSum:
    """Certified sum_{|r| > m} |rho(r)|^q.

    Returns the directly summed value up to an adaptive cutoff together with
    an integral-comparison bound on the neglected remainder. Raises
    DivergentTailError when the series diverges, i.e. for fgn with H > 1/2
    and (2-2H)q <= 1.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if not power_tail_summable(model, q):
        raise DivergentTailError(
            f"sum |rho|^{q} diverges for fgn(H={model.H}): (2-2H)q <= 1"
        )
    if model.kind == "iid" or (model.kind == "fgn" and model.H == 0.5):
        return TailSum(0.0, 0.0, m)
    if model.kind == "table":
        val = 2.0 * sum(abs(v) ** q for k, v in model.values if k > m)
        return TailSum(val, 0.0, max(k for k, _ in model.values))
    if q == 1 and model.H < 0.5:
        # All off-origin terms are negative and the second difference
        # telescopes: sum_{|r|>m} |rho(r)| = (m+1)^{2H} - m^{2H} exactly.
        two_h = 2.0 * model.H
        return TailSum((m + 1.0) ** two_h - float(m) ** two_h, 0.0, m)
    return _summed_fgn_tail(model, q, m, _TAIL_TOL, _TAIL_CUTOFF_MAX, signed=False)


def abs_rho_power_sum(model: CovarianceModel, q: int) -> TailSum:
    """Certified sum over all integer lags of |rho(r)|^q (includes r = 0)."""
    t = abs_rho_power_tail(model, q, 0)
    return TailSum(t.value + 1.0, t.remainder_bound, t.cutoff)


def signed_rho_power_sum(model: CovarianceModel, q: int) -> TailSum:
    """Certified sum over all integer lags of rho(r)^q, signs kept."""
    if not power_tail_summable(model, q):
        raise DivergentTailError(
            f"sum rho^{q} is not absolutely summable for fgn(H={model.H})"
        )
    if model.kind == "iid" or (model.kind == "fgn" and model.H == 0.5):
        return TailSum(1.0, 0.0, 0)
    if model.kind == "table":
        val = 1.0 + 2.0 * sum(v**q for k, v in model.values if k > 0)
        return TailSum(val, 0.0, max(k for k, _ in model.values))
    if q == 1 and model.H < 0.5:
        # Telescoping: partial sums over |r| <= R equal (R+1)^{2H} - R^{2H},
        # which tends to 0. The full signed series sums to 0 exactly.
        return TailSum(0.0, 0.0, 0)
    t = _summed_fgn_tail(model, q, 0, _TAIL_TOL, _TAIL_CUTOFF_MAX, signed=True)
    return TailSum(t.value + 1.0, t.remainder_bound, t.cutoff)
