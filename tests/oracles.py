"""Reference implementations the tests check the production evaluators
against: math.fsum and exact-integer lag sums of rho^q, a Neumaier running
sum, the dense and math.fsum closed-form Delta second moment, brute-force
and dense quartic lag sums, the dense Gram-metric
kernel algebra, the design-matrix Hermite expansion, a full-width polar
stream and half-spectrum synthesis, the one-pass KS distance, and pathwise
and ensemble references. No run uses them."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from asclt_lab.covariance import CovarianceModel, rho_many, symmetric_toeplitz
from asclt_lab.asclt import LogAveragedMeasure, _ndtr
from asclt_lab.gaussian_sim import GaussianPath, _spectrum_root
from asclt_lab.hermite import evaluate_expansion, hermite_design_matrix
from asclt_lab.kernels import (
    ContractionResult,
    _powers,
    _toeplitz_apply,
    _toeplitz_spectrum,
    hermite_sum_variance,
    pair_lag_sum,
)
from asclt_lab.malliavin import _first_derivative_field, _normalizer_sq, dg_norm_sq
from asclt_lab.sequences import FbmScaled, HermiteVariation, SequenceSpec

BRUTEFORCE_MAX_N = 12
DENSE_COEFF_BUDGET = 10**6


def rho(model: CovarianceModel, r: int) -> float:
    """Autocovariance at a single integer lag."""
    return float(rho_many(model, np.array([r]))[0])


def rho_asymptotic(H: float, r: int) -> float:
    """Leading large-lag term H(2H-1)|r|^(2H-2); rejects r = 0."""
    if r == 0:
        raise ValueError("asymptotic form is undefined at lag 0")
    return H * (2.0 * H - 1.0) * abs(r) ** (2.0 * H - 2.0)


# ---------------------------------------------------------------------------
# Hermite expansions.


def evaluate_expansion_design(coeffs, x) -> np.ndarray:
    """sum_q coeffs[q] H_q(x) as one BLAS product of the coefficients with
    the (qmax + 1) x n design matrix; its rounding of an entry may depend
    on the length of x."""
    coeffs = np.asarray(coeffs, dtype=float)
    hmat = hermite_design_matrix(coeffs.size - 1, np.asarray(x, dtype=float))
    return np.tensordot(coeffs, hmat, axes=(0, 0))


# ---------------------------------------------------------------------------
# Lag sums of rho^q and the E[V_k^2] normalizer.


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Veltkamp: x = hi + lo exactly, each with at most 26 significant bits,
    # so an integer below 2^26 times either part is exact.
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def pair_fsum(model: CovarianceModel, q: int, k: int, l: int) -> float:
    """sum_{i<=k, j<=l} rho(i-j)^q: math.fsum of the float terms rho(r)^q
    (NumPy's pow), each times its count of j with 1 <= j <= l and
    1 <= j + r <= k, exactly, so the sum is rounded once (k, l < 2^26)."""
    lags = np.arange(-(l - 1), k)
    counts = (np.minimum(l, k - lags) - np.maximum(1, 1 - lags) + 1).astype(float)
    hi, lo = _split(rho_many(model, lags) ** q)
    return math.fsum(np.concatenate([counts * hi, counts * lo]).tolist())


def v2_fsum(model: CovarianceModel, q: int, k: int) -> float:
    """E[V_k^2] = q! (k + 2 sum_{0<r<k} (k - r) rho(r)^q): the fsum of the
    exact terms, rounded once, then multiplied by q!."""
    r = np.arange(1, k)
    hi, lo = _split(rho_many(model, r) ** q)
    w = 2.0 * (k - r)
    return math.factorial(q) * math.fsum([float(k)] + (w * hi).tolist() + (w * lo).tolist())


def v2_exact_prefix(model: CovarianceModel, q: int, n: int) -> np.ndarray:
    """v2_fsum(model, q, k) for every k = 1..n in one O(n) pass: the terms
    rho(r)^q as integers in units of 2^-1100 (exact for every float), the
    running sums A = sum rho^q and B = sum r rho^q kept exactly, and each
    k + 2 (k A - B) rounded once by Python's correctly rounded int division."""
    unit = 1 << 1100
    out = np.empty(n)
    a = b = 0
    for k, p in enumerate((rho_many(model, np.arange(1, n + 1)) ** q).tolist(), 1):
        out[k - 1] = math.factorial(q) * (((k * unit) + 2 * (k * a - b)) / unit)
        num, den = p.as_integer_ratio()
        a += num * (unit // den)
        b += k * num * (unit // den)
    return out


def neumaier_prefix_sums(x: np.ndarray) -> np.ndarray:
    """Prefix sums of x by a Neumaier running sum, one element at a time."""
    out = np.empty_like(x)
    total = carry = 0.0
    for i, v in enumerate(x.tolist()):
        t = total + v
        if abs(total) >= abs(v):
            carry += (total - t) + v
        else:
            carry += (v - t) + total
        total = t
        out[i] = total + carry
    return out


# ---------------------------------------------------------------------------
# The closed-form second moment E|delta_n(t)|^2 of the scaled fBm spec.

FSUM_DELTA_MAX_N = 64


def exact_delta_sq_dense(H: float, n: int, ts) -> list[float]:
    """E|delta_n(t)|^2 for each t of ts as the lab first evaluated it: the
    full n x n matrix of (e^{c_kl t^2} - 1)/(kl), 1024 rows at a time, with
    pow per entry and NumPy's pairwise sums, times e^{-t^2}/log^2 n."""
    l = np.arange(1.0, n + 1.0)
    totals = [0.0] * len(ts)
    for start in range(0, n, 1024):
        k = l[start : start + 1024]
        cov = 0.5 * (k[:, None] ** (2.0 * H) + l[None, :] ** (2.0 * H)
                     - np.abs(k[:, None] - l[None, :]) ** (2.0 * H))
        cov /= k[:, None] ** H * l[None, :] ** H
        for i, t in enumerate(ts):
            totals[i] += float((np.expm1(cov * (t * t)) / (k[:, None] * l[None, :])).sum())
    return [math.exp(-t * t) * total / math.log(n) ** 2 for t, total in zip(ts, totals)]


def exact_delta_sq_fsum(H: float, n: int, t: float) -> float:
    """E|delta_n(t)|^2 by brute force: math.fsum of the n^2 summands
    (e^{c_kl t^2} - 1)/(kl), each in Python floats, rounded once, then
    times e^{-t^2}/log^2 n; n <= FSUM_DELTA_MAX_N."""
    if n > FSUM_DELTA_MAX_N:
        raise ValueError(f"brute force capped at n = {FSUM_DELTA_MAX_N}")
    terms = []
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            c = 0.5 * (k ** (2 * H) + l ** (2 * H) - abs(k - l) ** (2 * H)) / (k**H * l**H)
            terms.append(math.expm1(c * t * t) / (k * l))
    return math.exp(-t * t) * math.fsum(terms) / math.log(n) ** 2


# ---------------------------------------------------------------------------
# The quartic lag sum and the contraction norm.


def contract_sum_bruteforce(pr: np.ndarray, pqr: np.ndarray, n: int) -> float:
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


def contract_sum_dense(pr: np.ndarray, pqr: np.ndarray, n: int) -> float:
    P = symmetric_toeplitz(pr)
    Q = symmetric_toeplitz(pqr)
    M = P @ Q
    return float(np.sum(M * M.T))


def contraction_bruteforce(model: CovarianceModel, q: int, r: int, n: int) -> ContractionResult:
    """||f_n (x)_r f_n||^2 from the O(n^4) brute force, n <= 12."""
    if n > BRUTEFORCE_MAX_N:
        raise ValueError(f"bruteforce capped at n={BRUTEFORCE_MAX_N}")
    S = contract_sum_bruteforce(_powers(model, r, n), _powers(model, q - r, n), n)
    return ContractionResult(S / hermite_sum_variance(model, q, n) ** 2, S)


def kernel_inner(model: CovarianceModel, q: int, k: int, l: int) -> float:
    """<f_k, f_l> = (E V_k^2 E V_l^2)^{-1/2} sum_{i<=k, j<=l} rho(i-j)^q."""
    den = math.sqrt(
        hermite_sum_variance(model, q, k) * hermite_sum_variance(model, q, l)
    )
    return pair_lag_sum(model, (q,), k, l)[0] / den


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
    if t.size > DENSE_COEFF_BUDGET:
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
    if f.dim ** max(out_order, 1) > DENSE_COEFF_BUDGET:
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


# ---------------------------------------------------------------------------
# Pathwise and ensemble references.


def toeplitz_matvec(g: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Toeplitz(g) @ x through the size-2n circulant embedding."""
    return _toeplitz_apply(_toeplitz_spectrum(g, n), x[:, None], n)[:, 0]


def dl_inverse_pairing(path: GaussianPath, spec: SequenceSpec) -> float:
    """Pathwise <DG_n, -D L^{-1} G_n>; its mean is E[G_n^2] = 1.

    Fixed chaos q divides the inverse generator by q, so the pairing is
    ||DG_n||^2 / q. Mixed expansions drop one q factor per chaos order:
    the second field uses coefficient c_q on H_{q-1} instead of q c_q.
    """
    if isinstance(spec, FbmScaled):
        return 1.0
    if isinstance(spec, HermiteVariation):
        return dg_norm_sq(path, spec) / spec.q
    n = path.n
    x = path.values
    u = _first_derivative_field(spec, x)
    w = evaluate_expansion(np.asarray(spec.expansion.coeffs[1:]), x)
    rw = toeplitz_matvec(rho_many(spec.model, np.arange(n)), w, n)
    return float(u @ rw) / _normalizer_sq(spec, n)


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


def polar_normals_full_width(master_seed: int, replicate_id: int, count: int) -> np.ndarray:
    """NormalStream(master_seed, replicate_id).normals(count) of a fresh
    stream, written out plainly: each polar block draws all its raw words at
    once, u = ((word >> 11) + 0.5) * 2^-53, v = 2u - 1, and an accepted pair
    (0 < s < 1) gives v sqrt(-2 log(s) / s), blocks of
    max(256, 7 * shortfall // 10 + 16) pairs until count normals are in."""
    bg = np.random.Philox(np.random.SeedSequence([int(master_seed), int(replicate_id)]))
    blocks, have = [], 0
    while have < count:
        pairs = max(256, (7 * (count - have)) // 10 + 16)
        u = ((bg.random_raw(2 * pairs) >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53
        v = (2.0 * u - 1.0).reshape(-1, 2)
        s = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
        ok = (s > 0.0) & (s < 1.0)
        v, s = v[ok], s[ok]
        blocks.append((v * np.sqrt(-2.0 * np.log(s) / s)[:, None]).reshape(-1))
        have += blocks[-1].size
    return np.concatenate(blocks)[:count]


def sample_stationary_full_width(model: CovarianceModel, n: int, master_seed: int,
                                 replicate_id: int) -> np.ndarray:
    """The circulant path of (master_seed, replicate_id) from full-width
    draws and a half spectrum built in a fresh array: xi_0 = d[0],
    xi_{M/2} = d[1], xi_j = (d[2j] + i d[2j+1]) / sqrt(2) scaled by
    sqrt(lam_j), then irfft; n >= 2 on the circulant route."""
    root = _spectrum_root(model, n)
    half = root.size - 1
    M = 2 * half
    d = polar_normals_full_width(master_seed, replicate_id, M)
    xi = np.empty(half + 1, dtype=complex)
    xi[0] = d[0]
    xi[half] = d[1]
    xi[1:half] = d[2:].view(complex)
    xi[1:half] /= math.sqrt(2.0)
    xi *= root
    return np.fft.irfft(xi, n=M)[:n] * math.sqrt(M)


def grouped_cdf(values: np.ndarray, weights: np.ndarray):
    """Jump points of sorted `values` with the CDF just after and just
    before each jump; each run of ties is one jump, as in `np.unique`."""
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    # A run ends where the next one starts; the last run ends at the end.
    hi = np.cumsum(weights)[np.roll(first, -1)]
    lo = np.concatenate(([0.0], hi[:-1]))
    return values[first], hi, lo


def ks_distance_one_pass(m: LogAveragedMeasure) -> float:
    """The KS distance of a log-averaged measure in one pass over full-length
    arrays: both one-sided gaps at every jump point of grouped_cdf."""
    uniq, hi, lo = grouped_cdf(m.values, m.weights)
    phi = _ndtr(uniq)
    return float(np.maximum(np.abs(hi - phi), np.abs(lo - phi)).max())
