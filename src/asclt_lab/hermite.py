"""Probabilists' Hermite polynomials and chaos expansions of test functions.

Conventions: weight e^{-x^2/2}, recurrence H_{q+1}(x) = x H_q(x) - q H_{q-1}(x),
so E[H_p(N) H_q(N)] = delta_{pq} q! for a standard normal N. A function f with
E[f(N)^2] < infinity expands as f = sum_q c_q H_q with q! c_q = E[f(N) H_q(N)];
coefficients here are computed by Gauss quadrature exact for polynomial
integrands up to the node budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import numpy.polynomial  # noqa: F401  (loaded at import, not on the first call)

__all__ = [
    "MAX_ORDER",
    "ConstantFunctionError",
    "HermiteExpansion",
    "hermite_eval",
    "hermite_design_matrix",
    "expand",
    "derivative_coeffs",
    "evaluate_expansion",
    "resolve_test_function",
]

MAX_ORDER = 60
_MAX_QMAX = 40
_NEGATIVE_TAIL_SLACK = 1e-8


class ConstantFunctionError(ValueError):
    """f has no Hermite component of order >= 1 (excluded: constant f)."""


def hermite_eval(q: int, x):
    """H_q at a scalar or array argument."""
    if q < 0 or q > MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}, got {q}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if q == 0:
        return prev if prev.ndim else float(prev)
    cur = x.copy()
    for k in range(1, q):
        prev, cur = cur, x * cur - k * prev
    return cur if cur.ndim else float(cur)


def hermite_design_matrix(qmax: int, x: np.ndarray) -> np.ndarray:
    """Rows H_0(x)..H_qmax(x); one recurrence pass for all orders."""
    if qmax < 0 or qmax > MAX_ORDER:
        raise ValueError(f"qmax must be in 0..{MAX_ORDER}")
    x = np.asarray(x, dtype=float)
    out = np.empty((qmax + 1,) + x.shape)
    out[0] = 1.0
    if qmax >= 1:
        out[1] = x
    for k in range(1, qmax):
        out[k + 1] = x * out[k] - k * out[k - 1]
    return out


@lru_cache(maxsize=32)
def _quad_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # hermegauss integrates against e^{-x^2/2} with total mass sqrt(2*pi);
    # renormalize to the standard normal density.
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class HermiteExpansion:
    coeffs: tuple[float, ...]
    qmax: int
    rank: int
    var_fN: float
    tail_bound: float

    @property
    def mean(self) -> float:
        return self.coeffs[0]


def expand(f: Callable[[np.ndarray], np.ndarray], qmax: int) -> HermiteExpansion:
    """Hermite coefficients of f by Gauss quadrature on 2*qmax + 16 nodes, so
    every pairwise product H_p H_q with p, q <= qmax stays inside the
    exactness budget of the rule.
    """
    if qmax < 0 or qmax > _MAX_QMAX:
        raise ValueError(f"qmax must be in 0..{_MAX_QMAX}")
    x, w = _quad_rule(2 * qmax + 16)
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        fx = np.broadcast_to(fx, x.shape).astype(float)
    if not np.all(np.isfinite(fx)):
        raise ValueError("f is not finite on the quadrature nodes")
    hmat = hermite_design_matrix(qmax, x)

    coeffs = np.empty(qmax + 1)
    fact = 1.0
    for q in range(qmax + 1):
        if q > 0:
            fact *= q
        coeffs[q] = math.fsum(w * fx * hmat[q]) / fact

    mean = coeffs[0]
    var = math.fsum(w * (fx - mean) ** 2)
    facts = np.array([math.factorial(q) for q in range(qmax + 1)], dtype=float)
    captured = float(np.sum(coeffs[1:] ** 2 * facts[1:]))
    tail = var - captured
    if tail < -_NEGATIVE_TAIL_SLACK * max(1.0, abs(var)):
        raise ValueError(
            f"captured chaos variance exceeds Var f(N) by {-tail:.3e}: "
            "reduce qmax"
        )
    tail = max(tail, 0.0)

    # Relative to the function scale, with an absolute floor so quadrature
    # round-off on a constant f does not masquerade as rank 1.
    rank_tol = 1e-10 * math.sqrt(max(var, 0.0)) + 1e-13 * max(1.0, abs(mean))
    rank = _first_active_order(coeffs, rank_tol)
    return HermiteExpansion(
        coeffs=tuple(float(c) for c in coeffs),
        qmax=qmax,
        rank=rank if rank is not None else 0,
        var_fN=float(var),
        tail_bound=float(tail),
    )


def _first_active_order(coeffs, rank_tol) -> int | None:
    for q in range(1, len(coeffs)):
        if abs(coeffs[q]) > rank_tol:
            return q
    return None


def derivative_coeffs(exp: HermiteExpansion) -> np.ndarray:
    """Coefficients of f' in the Hermite basis: H_q' = q H_{q-1}."""
    c = np.asarray(exp.coeffs)
    q = np.arange(1, c.size)
    return c[1:] * q


def evaluate_expansion(coeffs, x) -> np.ndarray:
    """sum_q coeffs[q] H_q(x), elementwise: each output depends on its own x
    alone, so its bits do not depend on the shape or length of x. H_q runs
    by the recurrence of hermite_design_matrix, with the same roundings, and
    the nonzero terms c_q H_q are added in increasing q."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size - 1 > MAX_ORDER:
        raise ValueError(f"at most {MAX_ORDER + 1} coefficients")
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    nonzero = np.flatnonzero(coeffs)
    if not nonzero.size:
        return out
    tmp = np.empty(x.shape)
    prev, cur = np.zeros(x.shape), np.ones(x.shape)  # H_{q-1}, H_q; H_{-1} = 0
    for q in range(int(nonzero[-1]) + 1):
        if q:
            # x H_{q-1} - (q-1) H_{q-2}, in place with the same roundings.
            prev *= -(q - 1)
            prev += np.multiply(x, cur, out=tmp)
            prev, cur = cur, prev
        if coeffs[q] != 0.0:
            out += np.multiply(cur, coeffs[q], out=tmp)
    return out


def resolve_test_function(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Named CLI test functions: square, quartic, arctan, hermite:q."""
    if name == "square":
        return lambda x: np.asarray(x) ** 2
    if name == "quartic":
        return lambda x: np.asarray(x) ** 4
    if name == "arctan":
        return np.arctan
    if name.startswith("hermite:"):
        q = int(name.split(":", 1)[1])
        return lambda x: hermite_eval(q, x)
    raise ValueError(f"unknown test function {name!r}")
