"""Exact sampling of stationary Gaussian sequences and fBm on dyadic grids.

Sampling is exact in distribution: stationary paths come from circulant
embedding of the covariance (eigenvalues by FFT, size M = 2(n-1)), with a
dense Cholesky fallback for short paths or failed embeddings. A path is the
real inverse FFT (`irfft`) of the half spectrum sqrt(lam_j) xi_j, j = 0..M/2,
so only M/2 + 1 complex coefficients are built per path. All randomness is
derived from a counter-based generator keyed by (master_seed, replicate_id),
and uniform-to-normal conversion is pinned to an explicit Marsaglia polar
transform built on the raw 64-bit stream, so identical seed tuples give
bit-identical paths on any platform and under any call order.

Replicates are sampled in blocks: `sample_ensemble` draws block_rows(n)
paths at a time as the rows of one C-contiguous (B, n) array, with one
row-wise polar transform per step and one 2-D `irfft` per block, so the
per-call overhead of NumPy is paid once per block instead of once per path.
Every row is bit-identical to `sample_stationary` of its replicate id,
which is the one-row case: each row draws its own Philox words under the
pinned block schedule, and the elementwise steps and the row transforms
round the same in a row of a block as in a single path (tests pin these
NumPy facts). A row whose first polar block falls short continues from its
own stream. The Cholesky route stays one matrix-vector product per row,
because a block matrix product would sum in another order and round
differently.

The working set of a block is bounded: the polar transform draws and
transforms each row's words _POLAR_CHUNK pairs at a time, writing the
accepted normals into the draws buffer, and a fresh row stops drawing once
it holds the normals it needs (its stream is thrown away, so the words it
skips were never used). The draws buffer has two spare entries per row, so
the half spectrum is formed in place of the draws. A circulant block of more
than one row works in a per-process workspace that the next block of the
same shape reuses, so its arrays are not page-faulted in again for every
block; the operations are the same, and so are the bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  (loaded at import, not on the first path)
import numpy.random  # noqa: F401  (loaded at import, not on the first path)

from .covariance import CovarianceModel, rho_many, symmetric_toeplitz
from .memo import cache

__all__ = [
    "EmbeddingError",
    "NormalStream",
    "GaussianPath",
    "PathEnsemble",
    "FbmGrid",
    "sample_stationary",
    "sample_ensemble",
    "sample_fbm_grid",
    "block_rows",
    "MAX_N",
]

# Minimum pairs of uniforms consumed per polar rejection block. The block
# schedule is a deterministic function of the request sizes, so it is part
# of the reproducibility contract; do not change without versioning.
_POLAR_MIN_PAIRS = 256
# Pairs of raw words one polar step draws and transforms per row. Each
# element is transformed on its own, so the step width moves no bits; it
# only bounds the raw words and the polar temporaries.
_POLAR_CHUNK = 1 << 13
_CHOLESKY_MAX_N = 2048
_EIGEN_CLAMP = -1e-10
# Points per replicate block: B = max(1, 2^16 // M) rows for the embedding
# size M, with M at least one minimal polar block, so a block's working
# arrays stay near 2^16 elements however short the paths are.
_BLOCK_POINTS = 1 << 16
# Largest path or dyadic grid a sampler accepts.
MAX_N = 1 << 24


class EmbeddingError(RuntimeError):
    """The covariance admits no valid sampler (embedding and fallback failed)."""


class NormalStream:
    """Deterministic standard-normal stream for one (master_seed, replicate_id).

    Uniforms are built from the raw Philox 64-bit output as
    ((word >> 11) + 0.5) * 2^-53, rounded as that float64 formula: they lie
    in (0, 1], and the words whose top 53 bits are all set give u = 1
    exactly, whose pair the polar test rejects (s >= 1). They are turned into
    normals by Marsaglia polar rejection in blocks sized by the remaining
    request; leftovers are buffered, never discarded.
    """

    def __init__(self, master_seed: int, replicate_id: int):
        self._bg = np.random.Philox(
            np.random.SeedSequence([int(master_seed), int(replicate_id)])
        )
        self._buf: list[np.ndarray] = []
        self._buffered = 0

    def _polar_block(self, pairs: int) -> np.ndarray:
        out = np.empty((1, 2 * pairs))
        return out[0, :_polar_fill([self._bg], out, pairs)[0]]

    def normals(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0:
            return np.empty(0)
        while self._buffered < n:
            block = self._polar_block(_polar_pairs(n - self._buffered))
            self._buf.append(block)
            self._buffered += block.size
        flat = np.concatenate(self._buf) if len(self._buf) > 1 else self._buf[0]
        out, rest = flat[:n], flat[n:]
        self._buf = [rest]
        self._buffered = rest.size
        return out.copy()


def _polar_pairs(shortfall: int) -> int:
    # Acceptance rate is pi/4, i.e. ~1.57 normals per pair.
    return max(_POLAR_MIN_PAIRS, (7 * shortfall) // 10 + 16)


class _Workspace:
    """The arrays one process reuses across its replicate blocks of one
    shape (rows, M): the raw Philox words and the polar temporaries of one
    polar step, the draws (M + 2 per row, the half spectrum in place) and
    the irfft output. Blocks that allocate these afresh page-fault them in
    again each time, since glibc hands large freed arrays back to the
    kernel."""

    def __init__(self, rows: int, M: int):
        pairs = rows * min(_POLAR_CHUNK, _polar_pairs(M))
        self.shape = (rows, M)
        self.raw = np.empty(2 * pairs, dtype=np.uint64)
        self.sq = np.empty(pairs)
        self.scratch = np.empty(pairs)
        self.keep = np.empty(pairs, dtype=bool)
        self.inside = np.empty(pairs, dtype=bool)
        self.accepted = np.empty(pairs, dtype=complex)
        self.draws = np.empty((rows, M + 2))
        self.x = np.empty((rows, M))


_WORKSPACE: _Workspace | None = None


def _workspace(rows: int, M: int) -> _Workspace | None:
    """The process's workspace for blocks of rows paths at embedding size M:
    the one the last block used if it has this shape, else a new one that
    replaces it. A one-row block (one path of sample_stationary, and every
    path longer than 2^14 points) gets none and keeps nothing, so a process
    that samples long paths holds no more memory between them than before."""
    global _WORKSPACE
    if rows == 1:
        return None
    if _WORKSPACE is None or _WORKSPACE.shape != (rows, M):
        _WORKSPACE = _Workspace(rows, M)
    return _WORKSPACE


def _part(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading entries of a flat workspace array, as an array of shape."""
    return buf[:math.prod(shape)].reshape(shape)


def _polar_rows(raw: np.ndarray, ws: _Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Marsaglia polar transform of each row of raw Philox words, shape
    (B, 2 * pairs), worked in place through a float64 view of raw. Returns
    the accepted normals of all rows, row after row, and each row's count of
    them; with a workspace every temporary and the returned normals live in
    its arrays, which the next step overwrites.

    A uniform is ((word >> 11) + 0.5) * 2^-53 and v = 2u - 1. The steps run
    in that order, except that the scalings by 2^-53 and by 2 are one
    multiplication by 2^-52, which is exact; so every value rounds as in the
    formula, whatever the number of rows. The accepted pairs are compressed
    once and s = v1^2 + v2^2 is formed again from them, the same bits."""
    def temp(name: str, shape: tuple[int, ...]) -> np.ndarray | None:
        return None if ws is None else _part(getattr(ws, name), shape)

    half = (raw.shape[0], raw.shape[1] // 2)
    np.right_shift(raw, np.uint64(11), out=raw)
    v = raw.view(np.float64)
    # Rounds as the formula: a shifted word of 2^52 or more plus 0.5 rounds
    # to even, and the top word gives u = 1, v = 1 and a rejected pair.
    np.add(raw, 0.5, out=v)
    v *= 2.0**-52
    v -= 1.0
    pair = v.view(complex)  # (v1, v2) of each pair as one element
    s = np.multiply(pair.real, pair.real, out=temp("sq", half))
    s += np.multiply(pair.imag, pair.imag, out=temp("scratch", half))
    keep = np.greater(s, 0.0, out=temp("keep", half))
    keep &= np.less(s, 1.0, out=temp("inside", half))
    counts = np.count_nonzero(keep, axis=1)
    total = (int(counts.sum()),)
    acc = np.compress(keep.reshape(-1), pair.reshape(-1), out=temp("accepted", total))
    s = np.multiply(acc.real, acc.real, out=temp("scratch", total))
    s += np.multiply(acc.imag, acc.imag, out=temp("sq", total))
    f = np.log(s, out=temp("sq", total))
    f *= -2.0
    f /= s
    np.sqrt(f, out=f)
    out = acc.view(np.float64)
    out.reshape(-1, 2)[...] *= f[:, None]
    return out, 2 * counts


def _polar_fill(gens: list[np.random.Philox], out: np.ndarray, pairs: int,
                ws: _Workspace | None = None) -> list[int]:
    """Normals from up to `pairs` pairs of raw words of each Philox
    generator, into its row of out: each step draws _POLAR_CHUNK pairs of
    the rows that are not full, transforms them in one _polar_rows call and
    appends each row's accepted normals, as many as still fit. A row stops
    drawing once it is full. Returns each row's count of normals."""
    width = out.shape[1]
    got = [0] * len(gens)
    live = list(range(len(gens)))
    for start in range(0, pairs, _POLAR_CHUNK):
        words = 2 * min(_POLAR_CHUNK, pairs - start)
        raw = [gens[i].random_raw(words) for i in live]
        raw = (raw[0][None] if len(raw) == 1 else
               np.stack(raw, out=None if ws is None else _part(ws.raw, (len(raw), words))))
        flat, accepted = _polar_rows(raw, ws)
        at = 0
        for i, count in zip(live, accepted.tolist()):
            take = min(count, width - got[i])
            out[i, got[i]:got[i] + take] = flat[at:at + take]
            got[i] += take
            at += count
        live = [i for i in live if got[i] < width]
        if not live:
            break
    return got


def _block_normals(streams: list[NormalStream], count: int, out: np.ndarray,
                   ws: _Workspace | None = None) -> np.ndarray:
    """Row i of out[:, :count] becomes streams[i].normals(count), for fresh
    streams: the rows share the polar steps of their first blocks, and a row
    that falls short continues from its own stream. Returns out."""
    got = _polar_fill([stream._bg for stream in streams], out[:, :count],
                      _polar_pairs(count), ws)
    for row, stream, have in zip(out, streams, got):
        if have < count:
            stream._buf, stream._buffered = [row[:have].copy()], have
            row[:count] = stream.normals(count)
    return out


@dataclass(frozen=True, eq=False)
class GaussianPath:
    model: CovarianceModel
    n: int
    values: np.ndarray
    master_seed: int
    replicate_id: int


@dataclass(frozen=True, eq=False)
class PathEnsemble(Sequence):
    """Paths of replicate ids replicate_id, replicate_id + 1, ... as the rows
    of one C-contiguous array; indexing gives the GaussianPath of a row."""

    model: CovarianceModel
    n: int
    values: np.ndarray
    master_seed: int
    replicate_id: int

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        j = range(len(self))[i]
        return GaussianPath(self.model, self.n, self.values[j], self.master_seed,
                            self.replicate_id + j)


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


@cache
def _spectrum_root(model: CovarianceModel, n: int) -> np.ndarray:
    """sqrt(lam_j) for j = 0..M/2, the half of the embedding spectrum that
    the synthesis reads; M = 2(n - 1)."""
    return np.sqrt(_embedding_eigenvalues(model, n)[:n])


def _synthesize_circulant(root: np.ndarray, buf: np.ndarray, n: int, out=None,
                          ws: _Workspace | None = None) -> np.ndarray:
    # Half of the Hermitian spectral noise of each row, formed in place of
    # its draws: buf is (M + 2,) for one path or (B, M + 2) for a block, one
    # path per row, with the M draws first. d[0] -> xi_0, d[1] -> xi_{M/2},
    # then pairs (d[2j], d[2j+1]) -> (Re, Im)/sqrt(2) of xi_j, j = 1..M/2-1,
    # which already sit where the complex view of buf holds xi_j. irfft
    # supplies the conjugate half xi_{M-j} = conj(xi_j) itself. root is
    # _spectrum_root, and a workspace holds the irfft output.
    half = root.size - 1
    M = 2 * half
    buf[..., M] = buf[..., 1]
    buf[..., M + 1] = 0.0
    buf[..., 1] = 0.0
    xi = buf.view(complex)
    xi[..., 1:half] /= math.sqrt(2.0)
    xi *= root
    x = np.fft.irfft(xi, n=M, out=None if ws is None else ws.x)
    return np.multiply(x[..., :n], math.sqrt(M), out=out)


@cache
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


def block_rows(n: int) -> int:
    """Paths per replicate block at length n: 2^16 // M rows, at least one,
    for the embedding size M = 2(n-1), or one minimal polar block of raw
    words when that is longer. 32 at n = 1024, 1 at n = 2^16."""
    return max(1, _BLOCK_POINTS // max(2 * (n - 1), 2 * _POLAR_MIN_PAIRS))


def _route(model: CovarianceModel, n: int, method: str | None):
    """("single" | "cholesky" | "circulant", the Cholesky factor or the spectrum root)."""
    if n == 1:
        return "single", None
    if method == "cholesky":
        return "cholesky", _cholesky_factor(model, n)
    try:
        return "circulant", _spectrum_root(model, n)
    except EmbeddingError:
        if method == "circulant" or n > _CHOLESKY_MAX_N:
            raise
        return "cholesky", _cholesky_factor(model, n)


def sample_stationary(
    model: CovarianceModel,
    n: int,
    master_seed: int,
    replicate_id: int,
    method: str | None = None,
) -> GaussianPath:
    """Exact N(0, Toeplitz(rho)) path of length n, deterministic per seed tuple.

    method: None picks circulant embedding with Cholesky fallback (n <= 2048);
    "circulant" or "cholesky" force the route.
    """
    return sample_ensemble(model, n, master_seed, 1, replicate_id, method)[0]


def sample_ensemble(
    model: CovarianceModel,
    n: int,
    master_seed: int,
    replicates: int,
    first_replicate: int = 0,
    method: str | None = None,
) -> PathEnsemble:
    """Paths for replicate_id = first..first+replicates-1, in order, as the
    rows of one (replicates, n) array, sampled block_rows(n) rows at a time.
    Row i is bit for bit sample_stationary(..., first_replicate + i, ...)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if replicates < 0:
        raise ValueError("replicates must be >= 0")
    route, factor = _route(model, n, method)
    step = block_rows(n)
    if replicates <= step:  # one block: its own array, nothing to copy into
        ids = range(first_replicate, first_replicate + replicates)
        values = _sample_block(route, factor, master_seed, ids, n)
    else:
        values = np.empty((replicates, n))
        for lo in range(0, replicates, step):
            ids = range(first_replicate + lo, first_replicate + min(lo + step, replicates))
            _sample_block(route, factor, master_seed, ids, n, values[lo:lo + step])
    return PathEnsemble(model, n, values, int(master_seed), int(first_replicate))


def _sample_block(route, factor, master_seed, ids, n, out=None):
    """The (len(ids), n) paths of replicate ids, into out if given."""
    if not ids:
        return np.empty((0, n))
    streams = [NormalStream(master_seed, r) for r in ids]
    if route == "circulant":
        M = 2 * (factor.size - 1)
        ws = _workspace(len(ids), M)
        draws = np.empty((len(ids), M + 2)) if ws is None else ws.draws
        return _synthesize_circulant(factor, _block_normals(streams, M, draws, ws), n, out, ws)
    draws = _block_normals(streams, n, np.empty((len(ids), n)))
    if route == "cholesky":
        draws = np.array([factor @ z for z in draws])
    if out is None:
        return draws
    out[:] = draws
    return out


def sample_fbm_grid(
    H: float,
    N: int,
    master_seed: int,
    replicate_id: int,
) -> FbmGrid:
    """fBm on the dyadic grid {k/N}: exact fGn increments scaled by N^{-H}."""
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError(f"N must be a power of two, got {N}")
    if N > MAX_N:
        raise ValueError(f"grid size capped at {MAX_N}")
    from .covariance import fgn

    path = sample_stationary(fgn(H), N, master_seed, replicate_id)
    values = np.empty(N + 1)
    values[0] = 0.0
    np.cumsum(path.values, out=values[1:])
    values *= float(N) ** (-H)
    return FbmGrid(float(H), N, values, int(master_seed), int(replicate_id))
