"""Sampler exactness: the synthesis map itself, not just MC moments."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import toeplitz

from asclt_lab import gaussian_sim
from asclt_lab.covariance import fgn, iid, rho_many, table
from asclt_lab.gaussian_sim import (
    EmbeddingError,
    NormalStream,
    PathEnsemble,
    _cholesky_factor,
    _embedding_eigenvalues,
    _route,
    _spectrum_root,
    _synthesize_circulant,
    block_rows,
    sample_ensemble,
    sample_fbm_grid,
    sample_stationary,
)
from oracles import (
    empirical_autocovariance,
    polar_normals_full_width,
    sample_stationary_full_width,
)

SEED = 20240817

# MA(2) with coefficients (1, 0.5, 0.25), normalized to unit variance.
MA2 = table({0: 1.0, 1: 0.625 / 1.3125, 2: 0.25 / 1.3125})

# Table whose spectral density is negative at theta = 2*pi/3: valid entries,
# no valid Gaussian process.
NON_PSD = table({0: 1.0, 1: 0.9, 2: 0.8})

# No valid process either, but Toeplitz(rho) is positive definite up to
# n = 5, so short paths take the Cholesky fallback.
FALLBACK = table({0: 1.0, 1: 0.6, 2: 0.05})


def test_bit_reproducibility():
    a = sample_stationary(fgn(0.7), 257, SEED, 3)
    b = sample_stationary(fgn(0.7), 257, SEED, 3)
    assert np.array_equal(a.values, b.values)
    c = sample_stationary(fgn(0.7), 257, SEED, 4)
    assert not np.array_equal(a.values, c.values)
    d = sample_stationary(fgn(0.7), 257, SEED + 1, 3)
    assert not np.array_equal(a.values, d.values)


def test_stream_moments():
    z = NormalStream(SEED, 0).normals(200_000)
    n = z.size
    assert abs(z.mean()) <= 4.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) <= 4.0 * math.sqrt(2.0 / n)
    kurt = np.mean(z**4)
    assert abs(kurt - 3.0) <= 4.0 * math.sqrt(96.0 / n)


def test_stream_buffering_is_call_shape_dependent_but_deterministic():
    s1 = NormalStream(SEED, 7)
    first = np.concatenate([s1.normals(3), s1.normals(5)])
    s2 = NormalStream(SEED, 7)
    again = np.concatenate([s2.normals(3), s2.normals(5)])
    assert np.array_equal(first, again)


def test_circulant_map_reproduces_toeplitz_covariance_exactly():
    """Probe the linear synthesis map with unit vectors: T T' = Toeplitz(rho)."""
    for model in (iid(), fgn(0.3), fgn(0.75), table({0: 1.0, 1: 0.25})):
        n = 9
        root = _spectrum_root(model, n)
        M = _embedding_eigenvalues(model, n).size
        assert M == 2 * (n - 1) == 2 * (root.size - 1)
        # Each unit vector in a draws buffer with the two spare entries.
        T = np.column_stack([_synthesize_circulant(root, np.eye(M, M + 2)[j], n)
                             for j in range(M)])
        want = toeplitz(rho_many(model, np.arange(n)))
        assert np.allclose(T @ T.T, want, atol=1e-12)


def _synthesize_full_spectrum(lam, draws, n):
    """Oracle: complex ifft of the full Hermitian vector sqrt(lam) xi."""
    M = lam.size
    half = M // 2
    xi = np.empty(M, dtype=complex)
    xi[0] = draws[0]
    xi[half] = draws[1]
    xi[1:half] = (draws[2::2] + 1j * draws[3::2]) / math.sqrt(2.0)
    xi[half + 1:] = np.conj(xi[half - 1:0:-1])
    return (np.fft.ifft(np.sqrt(lam) * xi) * math.sqrt(M)).real[:n]


@pytest.mark.parametrize("model", [fgn(0.3), fgn(0.75), iid(), MA2],
                         ids=["fgn0.3", "fgn0.75", "iid", "ma2"])
def test_half_spectrum_synthesis_matches_full_spectrum_oracle(model):
    for n in (2, 3, 9, 1025, 3072, 2**16):
        lam = _embedding_eigenvalues(model, n)
        draws = NormalStream(SEED, n).normals(lam.size)
        want = _synthesize_full_spectrum(lam, draws, n)
        buf = np.empty(lam.size + 2)
        buf[:lam.size] = draws
        got = _synthesize_circulant(_spectrum_root(model, n), buf, n)
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), n


def test_embedding_eigenvalues_match_explicit_dft():
    model, n = fgn(0.7), 6
    lam = _embedding_eigenvalues(model, n)
    head = rho_many(model, np.arange(n))
    c = np.concatenate([head, head[-2:0:-1]])
    M = c.size
    for j in range(M):
        direct = sum(c[r] * math.cos(2 * math.pi * j * r / M) for r in range(M))
        assert lam[j] == pytest.approx(direct, abs=1e-10)


def test_fgn_embedding_nonnegative_across_h_grid():
    for H in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for n in (2**8, 2**14):
            lam = _embedding_eigenvalues(fgn(H), n)
            assert lam.min() >= 0.0, (H, n)
    for H in (0.1, 0.3, 0.75, 0.9):
        lam = _embedding_eigenvalues(fgn(H), 2**20)
        assert lam.min() >= 0.0, H


def test_non_psd_table_rejected():
    with pytest.raises(EmbeddingError):
        sample_stationary(NON_PSD, 64, SEED, 0)
    with pytest.raises(EmbeddingError):
        sample_stationary(NON_PSD, 64, SEED, 0, method="circulant")
    with pytest.raises(EmbeddingError):
        sample_stationary(NON_PSD, 64, SEED, 0, method="cholesky")


def test_cholesky_factor_exact():
    n = 16
    L = _cholesky_factor(fgn(0.7), n)
    want = toeplitz(rho_many(fgn(0.7), np.arange(n)))
    assert np.allclose(L @ L.T, want, atol=1e-10)
    a = sample_stationary(fgn(0.7), n, SEED, 1, method="cholesky")
    b = sample_stationary(fgn(0.7), n, SEED, 1, method="cholesky")
    assert np.array_equal(a.values, b.values)


def test_both_routes_match_rho_statistically():
    # Same distribution through either sampler: autocovariance at lags 0, 1.
    n, reps = 64, 10_000
    want = rho_many(fgn(0.75), np.arange(2))
    for method in ("circulant", "cholesky"):
        paths = sample_ensemble(fgn(0.75), n, SEED, reps, method=method)
        for r in (0, 1):
            est, se = empirical_autocovariance(paths, r)
            assert abs(est - want[r]) <= 4.0 * se, (method, r)


def test_mc_autocovariance_iid_small():
    paths = sample_ensemble(iid(), 4, SEED, 3000)
    for r in range(3):
        est, se = empirical_autocovariance(paths, r)
        target = 1.0 if r == 0 else 0.0
        assert abs(est - target) <= 4.0 * se


def test_empirical_autocovariance_hand_oracle():
    p1 = sample_stationary(iid(), 3, SEED, 0)
    p2 = sample_stationary(iid(), 3, SEED, 1)
    object.__setattr__(p1, "values", np.array([1.0, 2.0, 2.0]))
    object.__setattr__(p2, "values", np.array([0.0, 1.0, -1.0]))
    est, se = empirical_autocovariance([p1, p2], 1)
    assert est == pytest.approx(1.25, abs=1e-15)  # mean of 3 and -0.5
    assert se == pytest.approx(1.75, abs=1e-12)
    with pytest.raises(ValueError):
        empirical_autocovariance([], 0)
    with pytest.raises(ValueError):
        empirical_autocovariance([p1], 3)


def test_fbm_grid_shape_and_aggregation():
    g = sample_fbm_grid(0.8, 2**10, SEED, 5)
    assert g.values[0] == 0.0
    assert g.values.size == 2**10 + 1
    fine = g.increments(2**10)
    assert np.array_equal(fine, np.diff(g.values))
    coarse = g.increments(2**7)
    blocks = fine.reshape(2**7, 8).sum(axis=1)
    assert np.allclose(coarse, blocks, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        g.increments(3)
    with pytest.raises(ValueError):
        sample_fbm_grid(0.8, 1000, SEED, 0)  # not a power of two
    with pytest.raises(ValueError):
        sample_fbm_grid(0.8, 2**25, SEED, 0)


def test_fbm_unit_time_variance_mc():
    # Self-similarity: E[(B^H_1)^2] = 1 for any H.
    vals = np.array(
        [sample_fbm_grid(0.9, 2**10, SEED, r).values[-1] for r in range(1500)]
    )
    m = np.mean(vals**2)
    se = np.std(vals**2, ddof=1) / math.sqrt(vals.size)
    assert abs(m - 1.0) <= 4.0 * se


def test_single_point_path():
    p = sample_stationary(fgn(0.3), 1, SEED, 0)
    assert p.values.shape == (1,)
    assert np.isfinite(p.values).all()


def test_block_rows_follow_the_embedding_size():
    assert [block_rows(n) for n in (1024, 2048, 4096, 1 << 16)] == [32, 16, 8, 1]
    # Short paths are bounded by one minimal polar block of raw words.
    assert block_rows(1) == block_rows(2) == block_rows(257) == 128
    assert all(block_rows(n) >= 1 for n in (1, 3, 1 << 20))


_BLOCK_CASES = [
    (fgn(0.3), None, (1, 2, 3, 1024, 2049)),
    (fgn(0.8), None, (1, 2, 3, 1024, 2049)),
    (iid(), None, (1, 2, 3, 1024, 2049)),
    (MA2, None, (2, 3, 1024, 2049)),
    (MA2, "cholesky", (2, 3, 1024)),
    (FALLBACK, None, (3, 5)),
]


@pytest.mark.parametrize("model,method,ns", _BLOCK_CASES,
                         ids=["fgn0.3", "fgn0.8", "iid", "ma2", "ma2-cholesky", "fallback"])
def test_ensemble_rows_equal_single_paths(monkeypatch, model, method, ns):
    """Every row of every block, the ragged last one included, is bit for
    bit the path of its own replicate id."""
    for n in ns:
        expect_route = "cholesky" if method == "cholesky" or model is FALLBACK else "circulant"
        assert _route(model, n, method)[0] == ("single" if n == 1 else expect_route)
        for rows in (1, 2, 7, 32):
            monkeypatch.setattr(gaussian_sim, "block_rows", lambda n, rows=rows: rows)
            ens = sample_ensemble(model, n, SEED, 2 * rows + 3, 11, method)
            assert isinstance(ens, PathEnsemble) and ens.values.shape == (2 * rows + 3, n)
            assert ens.values.flags.c_contiguous
            for i, path in enumerate(ens):
                assert path.replicate_id == 11 + i
                want = sample_stationary(model, n, SEED, 11 + i, method)
                assert np.array_equal(path.values, want.values), (n, rows, i)
    monkeypatch.undo()
    ens = sample_ensemble(fgn(0.3), 16, SEED, 5, 2)
    assert len(ens) == 5 and len(ens[1:3]) == 2 and ens[-1].replicate_id == 6
    assert len(sample_ensemble(fgn(0.3), 16, SEED, 0)) == 0


def test_workspace_blocks_equal_fresh_blocks(monkeypatch):
    """Consecutive blocks through one process workspace are bit for bit the
    blocks built in fresh arrays; the returned paths never alias it, and a
    one-row block keeps none."""
    model, n = fgn(0.8), 1024
    cases = [(32, 0), (32, 32), (7, 64), (32, 71)]  # a new shape, then the first again
    monkeypatch.setattr(gaussian_sim, "_workspace", lambda rows, M: None)
    fresh = [sample_ensemble(model, n, SEED, rows, first).values for rows, first in cases]
    monkeypatch.undo()
    gaussian_sim._WORKSPACE = None
    spaces = []
    for (rows, first), want in zip(cases, fresh):
        got = sample_ensemble(model, n, SEED, rows, first).values
        assert np.array_equal(got, want), (rows, first)
        ws = gaussian_sim._WORKSPACE
        assert ws.shape == (rows, 2 * (n - 1))
        assert not any(np.shares_memory(got, a) for a in vars(ws).values()
                       if isinstance(a, np.ndarray))
        spaces.append(ws)
    assert spaces[0] is spaces[1] and spaces[2] is not spaces[1]
    sample_stationary(model, 2**16, SEED, 0)
    assert gaussian_sim._WORKSPACE is spaces[3]
    assert gaussian_sim._workspace(1, 2 * (2**16 - 1)) is None


def test_short_first_polar_block_continues_from_own_stream(monkeypatch):
    """A row whose first polar block has fewer normals than it needs draws
    the rest from its own stream, as NormalStream does for one path; also
    when that block takes several polar steps (n = 70,000)."""
    real = gaussian_sim._polar_rows
    short = []

    def quarter(raw, ws=None):
        # Keep the first quarter of each row's accepted normals, row-wise,
        # so one row and a block of rows see the same first blocks.
        flat, accepted = real(raw, ws)
        kept = 2 * (accepted // 8)
        starts = np.concatenate([[0], np.cumsum(accepted)[:-1]])
        short.append(raw.shape)
        return np.concatenate([flat[a:a + k] for a, k in zip(starts, kept)]), kept

    plain = sample_stationary(fgn(0.7), 1024, SEED, 3).values
    monkeypatch.setattr(gaussian_sim, "_polar_rows", quarter)
    for n, rows, count in ((1024, None, 9), (2049, None, 9), (70_000, 3, 4)):
        if rows:
            monkeypatch.setattr(gaussian_sim, "block_rows", lambda n, rows=rows: rows)
        ens = sample_ensemble(fgn(0.7), n, SEED, count, 3)
        for i, path in enumerate(ens):
            assert np.array_equal(path.values, sample_stationary(fgn(0.7), n, SEED, 3 + i).values)
    assert max(r for r, _ in short) == 9
    assert (3, 2 * gaussian_sim._POLAR_CHUNK) in short  # a long block's full step
    assert not np.array_equal(sample_stationary(fgn(0.7), 1024, SEED, 3).values, plain)


def test_long_paths_equal_full_width_oracle(monkeypatch):
    """Paths longer than one polar step are bit for bit the paths of the
    full-width stream and synthesis oracle: one-row paths, rows of blocks of
    two and three paths, and the same blocks built in fresh arrays."""
    model = fgn(0.8)
    for n in (2**14 + 1, 70_000, 2**16):
        for rep in (0, 5):
            got = sample_stationary(model, n, SEED, rep).values
            assert np.array_equal(got, sample_stationary_full_width(model, n, SEED, rep)), (n, rep)
    for n, rows in ((20_000, 2), (70_000, 3)):
        monkeypatch.setattr(gaussian_sim, "block_rows", lambda n, rows=rows: rows)
        gaussian_sim._WORKSPACE = None
        block = sample_ensemble(model, n, SEED, rows + 1, 2).values
        assert gaussian_sim._WORKSPACE.shape == (rows, 2 * (n - 1))
        monkeypatch.setattr(gaussian_sim, "_workspace", lambda rows, M: None)
        fresh = sample_ensemble(model, n, SEED, rows + 1, 2).values
        monkeypatch.undo()
        assert np.array_equal(block, fresh), n
        for i, row in enumerate(block):
            assert np.array_equal(row, sample_stationary(model, n, SEED, 2 + i).values), (n, i)
            assert np.array_equal(row, sample_stationary_full_width(model, n, SEED, 2 + i))


def test_stream_equals_full_width_oracle():
    """NormalStream draws as the full-width polar oracle, for requests of
    one and of many polar steps."""
    for count in (1, 513, 2 * gaussian_sim._POLAR_CHUNK + 7, 200_000):
        got = NormalStream(SEED, count).normals(count)
        assert np.array_equal(got, polar_normals_full_width(SEED, count, count)), count


def test_polar_rejects_the_top_word():
    """u = ((word >> 11) + 0.5) * 2^-53 rounds as float64: the top word
    gives u = 1 exactly, so v = 1 and its pair has s >= 1 and is rejected.
    With v2 = 0 (word 2^63: 2^52 + 0.5 rounds to even), s is exactly 1."""
    top = np.uint64(2**64 - 1)
    assert ((top >> np.uint64(11)) + 0.5) * 2.0**-53 == 1.0
    raw = np.array([[top, 2**63, 2**63, 2**62]], dtype=np.uint64)
    normals, counts = gaussian_sim._polar_rows(raw.copy())
    assert counts.tolist() == [2]
    v2 = -0.5 + 2.0**-53  # the accepted pair is (0, v2)
    s = v2 * v2
    f = math.sqrt(-2.0 * math.log(s) / s)
    assert normals.tolist() == [0.0, v2 * f]


@pytest.mark.parametrize("M", [2046, 4094, 8190, 131070])
def test_numpy_irfft_rows_equal_one_dimensional(M):
    """The block synthesis rests on this: a 2-D irfft transforms each row
    exactly as the 1-D irfft transforms it alone."""
    rng = np.random.default_rng(M)
    rows = 3 if M > 10_000 else 9
    xi = rng.normal(size=(rows, M // 2 + 1)) + 1j * rng.normal(size=(rows, M // 2 + 1))
    block = np.fft.irfft(xi, n=M)
    for i in range(rows):
        assert np.array_equal(block[i], np.fft.irfft(xi[i], n=M)), (M, i)


def test_numpy_row_sum_and_cumsum_equal_one_dimensional():
    """Row reductions of a C-contiguous block equal the 1-D ones: pairwise
    sums of real and complex rows and sequential cumulative sums."""
    rng = np.random.default_rng(5)
    for n in (1, 7, 129, 1024, 2049, 4096):
        x = rng.normal(size=(5, n)) * 10.0 ** rng.integers(-8, 8, size=(5, n))
        z = x + 1j * rng.normal(size=(5, n))
        sums, csums, zsums = x.sum(axis=-1), np.cumsum(x, axis=-1), np.sum(z, axis=-1)
        for i in range(5):
            assert sums[i] == np.sum(x[i]) and zsums[i] == np.sum(z[i]), n
            assert np.array_equal(csums[i], np.cumsum(x[i])), n


def test_numpy_complex_division_by_real_is_multiplication_by_inverse():
    """(a + bi) / (k + 0i) is computed as (a + bi) * (1/k), which lets the
    block reduction weight by one cached row of 1/k."""
    rng = np.random.default_rng(6)
    k = np.arange(1.0, 4097.0)
    z = np.exp(1j * rng.normal(size=4096) * 50.0) - 0.6
    assert np.array_equal(z / k, z * (1.0 / k))
    w = z.copy()
    w *= 1.0 / k
    assert np.array_equal(z / k, w)


def test_frozen_stream_regression():
    """First draws are pinned; a change means the draw schedule moved."""
    got = NormalStream(12345, 0).normals(4)
    want = np.array(FROZEN_POLAR_12345_0)
    assert np.array_equal(got, want)


# Captured from the first released implementation; see the regression test.
FROZEN_POLAR_12345_0 = [
    -0.9481813333365934,
    1.8327046343911957,
    -2.3610815836471573,
    1.3750138684547684,
]
