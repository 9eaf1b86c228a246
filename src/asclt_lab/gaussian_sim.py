"""Exact sampling of stationary Gaussian sequences and fBm on dyadic grids.

Sampling is exact in distribution: stationary paths come from circulant
embedding of the covariance (eigenvalues by FFT, size M = 2(n-1)), with a
dense Cholesky fallback for short paths or failed embeddings. A path is the
real inverse FFT (`irfft`) of the half spectrum sqrt(lam_j) xi_j, j = 0..M/2,
so only M/2 + 1 complex coefficients are built per path. All randomness is
derived from a counter-based generator keyed by (master_seed, replicate_id),
and uniform-to-normal conversion is pinned to an explicit polar or inverse
transform built on the raw 64-bit stream, so identical seed tuples give
bit-identical paths on any platform and under any call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  (loaded at import, not on the first path)
import numpy.random  # noqa: F401  (loaded at import, not on the first path)

from .covariance import CovarianceModel, rho_many, symmetric_toeplitz
from .memo import CACHE_BYTES, byte_bounded_cache

__all__ = [
    "EmbeddingError",
    "NormalStream",
    "GaussianPath",
    "FbmGrid",
    "sample_stationary",
    "sample_ensemble",
    "sample_fbm_grid",
    "empirical_autocovariance",
]

# Minimum pairs of uniforms consumed per polar rejection block. The block
# schedule is a deterministic function of the request sizes, so it is part
# of the reproducibility contract; do not change without versioning.
_POLAR_MIN_PAIRS = 256
_CHOLESKY_MAX_N = 2048
_EIGEN_CLAMP = -1e-10


class EmbeddingError(RuntimeError):
    """The covariance admits no valid sampler (embedding and fallback failed)."""


class NormalStream:
    """Deterministic standard-normal stream for one (master_seed, replicate_id).

    Uniforms are built from the raw Philox 64-bit output as
    ((word >> 11) + 0.5) * 2^-53, strictly inside (0, 1). The normal
    transform is pinned by `method`:

    * "polar": Marsaglia polar rejection in blocks sized by the remaining
      request; leftovers are buffered, never discarded.
    * "inverse": one uniform per normal through the inverse normal CDF.
    """

    def __init__(self, master_seed: int, replicate_id: int, method: str = "polar"):
        if method not in ("polar", "inverse"):
            raise ValueError(f"unknown normal method {method!r}")
        self.method = method
        self._bg = np.random.Philox(
            np.random.SeedSequence([int(master_seed), int(replicate_id)])
        )
        self._buf: list[np.ndarray] = []
        self._buffered = 0

    def _uniforms(self, count: int) -> np.ndarray:
        raw = self._bg.random_raw(count)
        return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def _polar_block(self, pairs: int) -> np.ndarray:
        v = 2.0 * self._uniforms(2 * pairs) - 1.0
        v1, v2 = v[0::2], v[1::2]
        s = v1 * v1 + v2 * v2
        keep = (s > 0.0) & (s < 1.0)
        s = s[keep]
        f = np.sqrt(-2.0 * np.log(s) / s)
        out = np.empty(2 * s.size)
        out[0::2] = v1[keep] * f
        out[1::2] = v2[keep] * f
        return out

    def normals(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0:
            return np.empty(0)
        if self.method == "inverse":
            # Imported on use: no default run draws inverse normals, and
            # scipy.special is slow to import.
            from scipy.special import ndtri

            return ndtri(self._uniforms(n))
        while self._buffered < n:
            # Acceptance rate is pi/4, i.e. ~1.57 normals per pair.
            shortfall = n - self._buffered
            pairs = max(_POLAR_MIN_PAIRS, (7 * shortfall) // 10 + 16)
            block = self._polar_block(pairs)
            self._buf.append(block)
            self._buffered += block.size
        flat = np.concatenate(self._buf) if len(self._buf) > 1 else self._buf[0]
        out, rest = flat[:n], flat[n:]
        self._buf = [rest]
        self._buffered = rest.size
        return out.copy()


@dataclass(frozen=True, eq=False)
class GaussianPath:
    model: CovarianceModel
    n: int
    values: np.ndarray
    master_seed: int
    replicate_id: int


@dataclass(frozen=True, eq=False)
class FbmGrid:
    """B^H on {k/N, k=0..N}, scaled so B^H_1 has unit variance."""

    H: float
    N: int
    values: np.ndarray
    master_seed: int
    replicate_id: int

    def increments(self, n: int) -> np.ndarray:
        """B^H_{(k+1)/n} - B^H_{k/n} for k = 0..n-1; n must divide N."""
        if n < 1 or self.N % n != 0:
            raise ValueError(f"level {n} does not divide grid size {self.N}")
        return np.diff(self.values[:: self.N // n])


@byte_bounded_cache(CACHE_BYTES)
def _embedding_eigenvalues(model: CovarianceModel, n: int) -> np.ndarray:
    # First row of the size-2(n-1) circulant:
    # rho(0), ..., rho(n-1), rho(n-2), ..., rho(1).
    head = rho_many(model, np.arange(n))
    c = np.concatenate([head, head[-2:0:-1]])
    lam = np.fft.fft(c).real
    bad = lam.min()
    if bad < _EIGEN_CLAMP:
        raise EmbeddingError(
            f"circulant embedding not nonnegative: min eigenvalue {bad:.3e}"
        )
    lam[lam < 0.0] = 0.0
    return lam


def _synthesize_circulant(lam: np.ndarray, draws: np.ndarray, n: int) -> np.ndarray:
    # Half of the Hermitian spectral noise: d[0] -> xi_0, d[1] -> xi_{M/2},
    # then pairs (d[2j], d[2j+1]) -> (Re, Im)/sqrt(2) of xi_j, j = 1..M/2-1.
    # irfft supplies the conjugate half xi_{M-j} = conj(xi_j) itself.
    M = lam.size
    half = M // 2
    xi = np.empty(half + 1, dtype=complex)
    xi[0] = draws[0]
    xi[half] = draws[1]
    xi[1:half].real = draws[2::2]
    xi[1:half].imag = draws[3::2]
    xi[1:half] /= math.sqrt(2.0)
    x = np.fft.irfft(np.sqrt(lam[: half + 1]) * xi, n=M)
    return x[:n] * math.sqrt(M)


@byte_bounded_cache(CACHE_BYTES)
def _cholesky_factor(model: CovarianceModel, n: int) -> np.ndarray:
    sigma = symmetric_toeplitz(rho_many(model, np.arange(n)))
    for jitter in (0.0, 1e-12):
        try:
            return np.linalg.cholesky(sigma + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            continue
    raise EmbeddingError(
        f"covariance is not positive definite for n={n} (jitter 1e-12 failed)"
    )


def sample_stationary(
    model: CovarianceModel,
    n: int,
    master_seed: int,
    replicate_id: int,
    method: str | None = None,
    normal_method: str = "polar",
) -> GaussianPath:
    """Exact N(0, Toeplitz(rho)) path of length n, deterministic per seed tuple.

    method: None picks circulant embedding with Cholesky fallback (n <= 2048);
    "circulant" or "cholesky" force the route.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    stream = NormalStream(master_seed, replicate_id, normal_method)
    values = _sample_values(model, n, stream, method)
    return GaussianPath(model, n, values, int(master_seed), int(replicate_id))


def _sample_values(model, n, stream, method):
    if n == 1:
        return stream.normals(1)
    if method == "cholesky":
        return _cholesky_factor(model, n) @ stream.normals(n)
    try:
        lam = _embedding_eigenvalues(model, n)
    except EmbeddingError:
        if method == "circulant" or n > _CHOLESKY_MAX_N:
            raise
        return _cholesky_factor(model, n) @ stream.normals(n)
    return _synthesize_circulant(lam, stream.normals(lam.size), n)


def sample_ensemble(
    model: CovarianceModel,
    n: int,
    master_seed: int,
    replicates: int,
    first_replicate: int = 0,
    method: str | None = None,
    normal_method: str = "polar",
) -> list[GaussianPath]:
    """Paths for replicate_id = first..first+replicates-1, in order."""
    return [
        sample_stationary(model, n, master_seed, r, method, normal_method)
        for r in range(first_replicate, first_replicate + replicates)
    ]


def sample_fbm_grid(
    H: float,
    N: int,
    master_seed: int,
    replicate_id: int,
    normal_method: str = "polar",
) -> FbmGrid:
    """fBm on the dyadic grid {k/N}: exact fGn increments scaled by N^{-H}."""
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError(f"N must be a power of two, got {N}")
    if N > 1 << 24:
        raise ValueError("grid size capped at 2^24")
    from .covariance import fgn

    path = sample_stationary(fgn(H), N, master_seed, replicate_id,
                             normal_method=normal_method)
    values = np.empty(N + 1)
    values[0] = 0.0
    np.cumsum(path.values, out=values[1:])
    values *= float(N) ** (-H)
    return FbmGrid(float(H), N, values, int(master_seed), int(replicate_id))


def empirical_autocovariance(paths: list[GaussianPath], r: int) -> tuple[float, float]:
    """Cross-replicate unbiased estimate of E[X_1 X_{1+r}] and its s.e."""
    if not paths:
        raise ValueError("empty ensemble")
    n = paths[0].n
    model = paths[0].model
    r = abs(int(r))
    if r >= n:
        raise ValueError(f"lag {r} out of range for n={n}")
    for p in paths:
        if p.n != n or p.model != model:
            raise ValueError("ensemble mixes models or lengths")
    per = np.array(
        [float(np.dot(p.values[: n - r], p.values[r:])) / (n - r) for p in paths]
    )
    est = float(per.mean())
    se = float(per.std(ddof=1) / math.sqrt(per.size)) if per.size > 1 else math.inf
    return est, se
