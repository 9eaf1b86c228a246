"""Discrete Wiener-chaos kernel algebra for f_n = N_n^{-1} sum_k eps_k^{otimes q}.

The ambient (non-orthonormal) scalar product is <eps_k, eps_l> = rho(k-l).
With N_n = sqrt(E V_n^2), where V_n is the unnormalized Hermite sum, every
regime shares the same kernel normalization: q! ||f_n||^2 = 1.

The contraction norm reduces to a quartic lag sum

    S(q, r, n) = sum_{i,j,k,l} rho(k-l)^r rho(i-j)^r rho(k-i)^{q-r} rho(l-j)^{q-r}
               = tr((P Q)^2),  P = Toeplitz(rho^r), Q = Toeplitz(rho^{q-r}),

so ||f_n (x)_r f_n||^2 = S / (E V_n^2)^2. The production evaluator walks
the rows of PQ through its Toeplitz displacement structure (Kailath & Sayed,
SIAM Review 1995): exact in O(n^2) time and O(n) memory, seeded by two
Toeplitz matrix-vector products. Two oracles check it: an O(n^4) brute force
(n <= 12) and the O(n^3) dense matmul.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.fft  # noqa: F401  (loaded at import, not on the first call)

from .covariance import CovarianceModel, model_to_json, rho_many, symmetric_toeplitz
from .memo import CACHE_BYTES, byte_bounded_cache

__all__ = [
    "ContractionResult",
    "DenseKernel",
    "KernelStats",
    "hermite_sum_variance",
    "v2_prefix",
    "contraction_norm_sq",
    "kernel_inner",
    "compute_kernel_stats",
    "kernel_stats_to_json",
    "dense_kernel",
    "diagonal_kernel",
    "dense_contract",
    "dense_inner",
    "dense_norm_sq",
    "gram_matrix",
]

_BRUTEFORCE_MAX_N = 12
_DENSE_COEFF_BUDGET = 10**6


def hermite_sum_variance(model: CovarianceModel, q: int, n: int) -> float:
    """E[V_n^2] = q! sum_{|r|<n} (n - |r|) rho(r)^q, exact in O(n)."""
    if q < 1 or n < 1:
        raise ValueError("q and n must be >= 1")
    p = rho_many(model, np.arange(1, n)) ** q
    acc = n + 2.0 * float(np.sum((n - np.arange(1, n)) * p))
    return math.factorial(q) * acc


@byte_bounded_cache(CACHE_BYTES)
def v2_prefix(model: CovarianceModel, q: int, n: int) -> np.ndarray:
    """E[V_k^2] for k = 1..n in one O(n) pass; cached per (model, q, n) and
    returned read-only, since every replicate shares the same normalizers."""
    if q < 1 or n < 1:
        raise ValueError("q and n must be >= 1")
    p = rho_many(model, np.arange(1, n)) ** q
    cs1 = np.concatenate([[0.0], np.cumsum(p)])          # sum_{r<=m} rho^q
    cs2 = np.concatenate([[0.0], np.cumsum(np.arange(1, n) * p)])
    k = np.arange(1, n + 1, dtype=float)
    return math.factorial(q) * (k + 2.0 * (k * cs1[: n] - cs2[: n]))


@dataclass(frozen=True)
class ContractionResult:
    value: float              # ||f_n (x)_r f_n||^2
    raw_sum: float            # the quartic lag sum S
    method: str


def _powers(model, s: int, n: int) -> np.ndarray:
    """rho(m)^s for m = 0..n-1."""
    return rho_many(model, np.arange(n)) ** s


@byte_bounded_cache(CACHE_BYTES)
def _lag_power_table(model: CovarianceModel, q: int, size: int) -> np.ndarray:
    """rho(m)^q for m = 0..size-1, shared by every pair_lag_sum whose lags
    fit; sizes are powers of two so the criteria pair grids need few."""
    return _powers(model, q, size)


def _contract_sum_bruteforce(pr: np.ndarray, pqr: np.ndarray, n: int) -> float:
    full_r = np.concatenate([pr[::-1], pr[1:]])     # index by lag + (n-1)
    full_q = np.concatenate([pqr[::-1], pqr[1:]])
    off = n - 1
    total = 0.0
    for k in range(n):
        for l in range(n):
            a = full_r[k - l + off]
            if a == 0.0:
                continue
            for i in range(n):
                b = full_q[k - i + off]
                if b == 0.0:
                    continue
                for j in range(n):
                    total += a * full_r[i - j + off] * b * full_q[l - j + off]
    return total


def _contract_sum_dense(pr: np.ndarray, pqr: np.ndarray, n: int) -> float:
    P = symmetric_toeplitz(pr)
    Q = symmetric_toeplitz(pqr)
    M = P @ Q
    return float(np.sum(M * M.T))


def _toeplitz_spectrum(g: np.ndarray, n: int) -> np.ndarray:
    # Size-2n circulant embedding of the symmetric Toeplitz with first col g.
    col = np.zeros(2 * n)
    col[:n] = g
    col[n + 1:] = g[1:][::-1]
    return np.fft.rfft(col)


def _toeplitz_apply(spec: np.ndarray, X: np.ndarray, n: int) -> np.ndarray:
    Xp = np.zeros((2 * n, X.shape[1]))
    Xp[:n] = X
    return np.fft.irfft(np.fft.rfft(Xp, axis=0) * spec[:, None], n=2 * n, axis=0)[:n]


def _toeplitz_columns(g: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    full = np.concatenate([g[::-1], g[1:]])
    idx = np.arange(n)[:, None] - cols[None, :] + (n - 1)
    return full[idx]


def _toeplitz_matvec(g: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    return _toeplitz_apply(_toeplitz_spectrum(g, n), x[:, None], n)[:, 0]


def _displacement_rows(p: np.ndarray, q: np.ndarray, n: int):
    """Rows of M = PQ, each as a view of one length-2n-1 buffer.

    D[n-1+d] holds M[k, k+d], so row k is D[n-1-k : 2n-1-k]. Stepping to
    row k+1 adds p(k+1) q(j) - p(n-1-k) q(n-j) to every entry (j >= 1)
    and seeds the entering diagonal with M[k+1, 0] = (P q)[k+1].
    """
    D = np.empty(2 * n - 1)
    D[n - 1:] = _toeplitz_matvec(q, p, n)       # M[0, :] = (Q p)^T
    col = _toeplitz_matvec(p, q, n)             # M[:, 0] = P q
    q_up, q_down = q[1:], q[:0:-1]
    yield D[n - 1:]
    for k in range(n - 1):
        lo = n - 2 - k
        tail = D[lo + 1: lo + n]
        tail += p[k + 1] * q_up
        tail -= p[n - 1 - k] * q_down
        D[lo] = col[k + 1]
        yield D[lo: lo + n]


def _contract_sum(pr: np.ndarray, pqr: np.ndarray, n: int) -> float:
    """S = tr((PQ)^2) = sum_k <(PQ)[k, :], (QP)[k, :]>, exact in O(n^2)
    time and O(n) memory from the Toeplitz displacement structure of PQ.

    Row sums use einsum rather than BLAS dot products, so the value does
    not depend on the BLAS thread count.
    """
    if np.array_equal(pr, pqr):
        # QP = (PQ)^T = PQ when P = Q.
        return float(sum(np.einsum("i,i->", m, m) for m in _displacement_rows(pr, pr, n)))
    return float(
        sum(
            np.einsum("i,i->", m, w)
            for m, w in zip(_displacement_rows(pr, pqr, n), _displacement_rows(pqr, pr, n))
        )
    )


@lru_cache(maxsize=256)
def _quartic_lag_sum(model: CovarianceModel, a: int, b: int, n: int) -> float:
    """S for P = Toeplitz(rho^a), Q = Toeplitz(rho^b), a <= b.

    S is symmetric in (a, b), so contraction orders r and q - r, the
    criteria fits, the boundedness scans and the constant-f'' Malliavin
    trace all share one evaluation per (model, a, b, n).
    """
    pa = _powers(model, a, n)
    return _contract_sum(pa, pa if a == b else _powers(model, b, n), n)


def contraction_norm_sq(
    model: CovarianceModel, q: int, r: int, n: int, method: str = "auto"
) -> ContractionResult:
    """||f_n (x)_r f_n||^2.

    method: "auto" or its alias "lagsum" (the exact O(n^2) displacement
    evaluator), or "bruteforce" (the O(n^4) oracle, n <= 12).
    """
    if not 1 <= r <= q - 1:
        raise ValueError(f"r must be in 1..q-1, got r={r}, q={q}")
    if n < 1:
        raise ValueError("n must be >= 1")
    den = hermite_sum_variance(model, q, n) ** 2
    if method == "bruteforce":
        if n > _BRUTEFORCE_MAX_N:
            raise ValueError(f"bruteforce capped at n={_BRUTEFORCE_MAX_N}")
        S = _contract_sum_bruteforce(_powers(model, r, n), _powers(model, q - r, n), n)
    elif method in ("auto", "lagsum"):
        S = _quartic_lag_sum(model, min(r, q - r), max(r, q - r), n)
        method = "lagsum"
    else:
        raise ValueError(f"unknown method {method!r}")
    return ContractionResult(S / den, S, method)


def pair_lag_sum(model: CovarianceModel, q: int, k: int, l: int) -> float:
    """sum_{i<=k, j<=l} rho(i-j)^q via lag multiplicities, O(k+l)."""
    k, l = int(k), int(l)
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    if q < 1:
        raise ValueError("q must be >= 1")
    lags = np.arange(-(l - 1), k)
    counts = np.minimum(k, l + lags) - np.maximum(1, 1 + lags) + 1
    size = 1 << (max(k, l) - 1).bit_length()
    return float(np.sum(counts * _lag_power_table(model, q, size)[np.abs(lags)]))


def kernel_inner(model: CovarianceModel, q: int, k: int, l: int) -> float:
    """<f_k, f_l> = (E V_k^2 E V_l^2)^{-1/2} sum_{i<=k, j<=l} rho(i-j)^q."""
    den = math.sqrt(
        hermite_sum_variance(model, q, k) * hermite_sum_variance(model, q, l)
    )
    return pair_lag_sum(model, q, k, l) / den


@dataclass(frozen=True)
class KernelStats:
    model: CovarianceModel
    q: int
    n: int
    sigma_n: float
    contraction_norms: dict[int, float]
    inner: dict[tuple[int, int], float] | None
    method: str


def compute_kernel_stats(
    model: CovarianceModel,
    q: int,
    n: int,
    method: str = "auto",
    pair_grid: list[tuple[int, int]] | None = None,
) -> KernelStats:
    norms: dict[int, float] = {}
    used = method
    for r in range(1, q):
        res = contraction_norm_sq(model, q, r, n, method=method)
        norms[r] = res.value
        used = res.method
    inner = None
    if pair_grid is not None:
        inner = {(k, l): kernel_inner(model, q, k, l) for k, l in pair_grid}
    sigma_n = math.sqrt(hermite_sum_variance(model, q, n) / n)
    return KernelStats(model, q, n, sigma_n, norms, inner, used)


def kernel_stats_to_json(stats: KernelStats) -> str:
    return json.dumps(
        {
            "model": json.loads(model_to_json(stats.model)),
            "q": stats.q,
            "n": stats.n,
            "sigma_n": stats.sigma_n,
            "contraction_norms": {str(r): v for r, v in stats.contraction_norms.items()},
            "inner": (
                None
                if stats.inner is None
                else [[k, l, v] for (k, l), v in sorted(stats.inner.items())]
            ),
            "method": stats.method,
        },
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# Dense test-scale kernels under the Gram metric.


def gram_matrix(model: CovarianceModel, dim: int) -> np.ndarray:
    return symmetric_toeplitz(rho_many(model, np.arange(dim)))


@dataclass(frozen=True, eq=False)
class DenseKernel:
    """Order-q tensor over indices {1..dim} with metric <e_k,e_l> = rho(k-l).

    Constructed kernels are symmetrized; contraction outputs are kept raw
    (they are only block-symmetric), which is what the norm identities use.
    """

    model: CovarianceModel
    q: int
    coeffs: np.ndarray

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0] if self.q > 0 else 0


def _symmetrize(t: np.ndarray) -> np.ndarray:
    q = t.ndim
    if q <= 1:
        return t
    acc = np.zeros_like(t)
    for perm in itertools.permutations(range(q)):
        acc += np.transpose(t, perm)
    return acc / math.factorial(q)


def dense_kernel(model: CovarianceModel, coeffs) -> DenseKernel:
    t = np.asarray(coeffs, dtype=float)
    q = t.ndim
    if t.size > _DENSE_COEFF_BUDGET:
        raise ValueError("dense kernel exceeds the test-scale budget")
    if q >= 1 and len(set(t.shape)) != 1:
        raise ValueError("coefficient tensor must be cubical")
    return DenseKernel(model, q, _symmetrize(t))


def diagonal_kernel(model: CovarianceModel, q: int, n: int) -> DenseKernel:
    """f_n as a dense tensor: (E V_n^2)^{-1/2} sum_k e_k^{otimes q}."""
    t = np.zeros((n,) * q)
    idx = (np.arange(n),) * q
    t[idx] = 1.0 / math.sqrt(hermite_sum_variance(model, q, n))
    return DenseKernel(model, q, t)


def _apply_gram(t: np.ndarray, G: np.ndarray, axes: list[int]) -> np.ndarray:
    for ax in axes:
        t = np.moveaxis(np.tensordot(t, G, axes=([ax], [0])), -1, ax)
    return t


def dense_contract(f: DenseKernel, g: DenseKernel, r: int) -> DenseKernel | float:
    """f (x)_r g: contract the last r slots of f with the first r of g."""
    if f.model != g.model:
        raise ValueError("kernels live over different covariance models")
    if not 0 <= r <= min(f.q, g.q):
        raise ValueError(f"r must be in 0..min(p,q), got {r}")
    if f.q and g.q and f.dim != g.dim:
        raise ValueError("kernels have different index sets")
    out_order = f.q + g.q - 2 * r
    if f.dim ** max(out_order, 1) > _DENSE_COEFF_BUDGET:
        raise ValueError("contraction output exceeds the test-scale budget")
    if r == 0:
        t = np.tensordot(f.coeffs, g.coeffs, axes=0)
        return DenseKernel(f.model, out_order, t)
    G = gram_matrix(f.model, f.dim)
    gg = _apply_gram(g.coeffs, G, list(range(r)))
    t = np.tensordot(f.coeffs, gg, axes=(list(range(f.q - r, f.q)), list(range(r))))
    if out_order == 0:
        return float(t)
    return DenseKernel(f.model, out_order, t)


def dense_inner(f: DenseKernel, g: DenseKernel) -> float:
    """<f, g> under the full Gram metric (orders must match)."""
    if f.q != g.q:
        raise ValueError("inner product needs kernels of equal order")
    if f.q == 0:
        return float(f.coeffs * g.coeffs)
    G = gram_matrix(f.model, f.dim)
    gg = _apply_gram(g.coeffs, G, list(range(g.q)))
    return float(np.tensordot(f.coeffs, gg, axes=f.q))


def dense_norm_sq(f: DenseKernel) -> float:
    return dense_inner(f, f)
