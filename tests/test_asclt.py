"""Log-averaged measures, Kolmogorov distances, and summability diagnostics."""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from asclt_lab import asclt, cli
from asclt_lab.asclt import (
    LogAveragedMeasure,
    contraction_keys,
    contraction_values,
    criteria_diagnostic,
    delta_stat,
    delta_stat_prefixes,
    exact_delta_sq,
    exact_gaussian_delta_sq,
    harmonic_weighted_mean,
    il_delta_prefixes,
    il_from_prefixes,
    il_series_diagnostic,
    ks_distance,
    log_average_measure,
)
from asclt_lab.covariance import fgn
from asclt_lab.gaussian_sim import sample_ensemble, sample_stationary
from asclt_lab.hermite import expand
from asclt_lab.sequences import FbmScaled, GeneralF, GSeries, HermiteVariation, build_gseries

import oracles

SEED = 20240821
GRID16 = [2**8, 2**10, 2**12, 2**14, 2**16]


def _measure(n=64, H=0.6, seed=SEED, rep=0):
    p = sample_stationary(fgn(H), n, seed, rep)
    return log_average_measure(build_gseries(p, FbmScaled(H)))


def test_measure_harmonic_weights():
    p = sample_stationary(fgn(0.5), 2, SEED, 0)
    m = log_average_measure(build_gseries(p, FbmScaled(0.5)))
    assert m.n == 2 and m.values.size == 2
    assert sorted(m.weights) == pytest.approx([1.0 / 3.0, 2.0 / 3.0])
    assert abs(float(m.weights.sum()) - 1.0) <= 1e-12
    assert np.all(np.isfinite(m.values))
    assert np.all(np.diff(m.values) >= 0.0)


def test_measure_large_mass_exact():
    m = _measure(n=4096)
    assert abs(float(m.weights.sum()) - 1.0) <= 1e-12


def test_measure_validation():
    p = sample_stationary(fgn(0.5), 2, SEED, 0)
    g = build_gseries(p, FbmScaled(0.5), n=1)
    with pytest.raises(ValueError):
        log_average_measure(g)


def test_ks_single_atom_at_zero():
    single = LogAveragedMeasure(np.array([0.0]), np.array([1.0]), 1)
    assert ks_distance(single) == 0.5


def test_ks_brute_force_oracle():
    m = _measure(n=1000, H=0.6, rep=2)
    exact = ks_distance(m)
    # scan grid includes the jump points and their left approaches
    grid = np.sort(
        np.concatenate([np.linspace(-10.0, 10.0, 100_000), m.values, m.values - 1e-9])
    )
    pos = np.searchsorted(m.values, grid, side="right")
    cdf = np.where(pos == 0, 0.0, np.cumsum(m.weights)[pos - 1])
    brute = float(np.max(np.abs(cdf - ndtr(grid))))
    assert abs(exact - brute) <= 1e-9
    assert exact >= brute - 1e-15


def test_grouped_cdf_matches_unique_with_ties():
    rng = np.random.default_rng(11)
    for size in (1, 2, 5, 1000):
        values = np.sort(np.round(rng.standard_normal(size), 1))
        weights = rng.random(size)
        uniq, counts = np.unique(values, return_counts=True)
        cum = np.cumsum(weights)
        want_hi = cum[np.cumsum(counts) - 1]
        got_uniq, got_hi, got_lo = oracles.grouped_cdf(values, weights)
        assert np.array_equal(got_uniq, uniq)
        assert np.array_equal(got_hi, want_hi)
        assert np.array_equal(got_lo, np.concatenate(([0.0], want_hi[:-1])))


def _ks_cases(rng):
    """(values, weights) of sorted atoms: sizes around multiples of the KS
    chunk, runs of ties straddling a chunk boundary, one run spanning a whole
    chunk, all atoms tied, and rounded draws with many ties."""
    K = asclt._KS_CHUNK
    for n in (1, 2, 3, 1000, K - 1, K, K + 1, 2 * K + 5, 3 * K + 777):
        yield np.sort(rng.standard_normal(n)), rng.random(n)
        yield np.sort(np.round(rng.standard_normal(n), 1)), rng.random(n)
    for lo, hi in ((K - 3, K + 5), (K - 1, K + 1), (K, K + 2), (K - 1, 2 * K + 1), (1, 3 * K)):
        values = np.sort(rng.standard_normal(3 * K + 10))
        values[lo:hi] = values[lo]
        yield values, rng.random(values.size)
    yield np.full(2 * K + 3, 0.25), rng.random(2 * K + 3)
    yield np.sort(np.round(rng.standard_normal(4 * K), 0)), rng.random(4 * K)


def test_ks_chunks_match_one_pass_oracle():
    """The chunked KS distance is bit for bit the one-pass oracle's, on
    harmonic and on random weights, and on the prefixes of a 2^16 series."""
    rng = np.random.default_rng(31)
    for values, weights in _ks_cases(rng):
        inverse_k = 1.0 / np.arange(1.0, values.size + 1.0)
        for w in (weights / weights.sum(), rng.permutation(inverse_k) / inverse_k.sum()):
            m = LogAveragedMeasure(values, w, values.size)
            assert ks_distance(m) == oracles.ks_distance_one_pass(m), values.size
    path = sample_stationary(fgn(0.8), 2**16, SEED, 4)
    spec = HermiteVariation(fgn(0.8), 2)
    for n in (2**16 - 1, 2**16):
        m = log_average_measure(build_gseries(path, spec, n))
        assert ks_distance(m) == oracles.ks_distance_one_pass(m), n


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_ks_with_ties_matches_fsum_step_cdf():
    """Tied atoms (values rounded to one decimal, or to integers) against a
    brute-force step CDF: at each distinct value v, the mass of atoms <= v
    and of atoms < v, each an fsum of 1/k over the fsum of all 1/k."""
    rng = np.random.default_rng(23)
    spec = FbmScaled(0.5)
    for n, decimals in ((2, 0), (7, 0), (100, 1), (1000, 1), (2048, 0)):
        values = np.round(rng.standard_normal(n) * 1.5, decimals)
        g = GSeries(spec, n, values, np.ones(n), SEED, 0)
        inv = [1.0 / k for k in range(1, n + 1)]
        total = math.fsum(inv)
        brute = 0.0
        for v in np.unique(values):
            phi = float(ndtr(v))
            hi = math.fsum(w for w, x in zip(inv, values) if x <= v) / total
            lo = math.fsum(w for w, x in zip(inv, values) if x < v) / total
            brute = max(brute, abs(hi - phi), abs(lo - phi))
        m = log_average_measure(g)
        assert np.all(np.diff(m.values) >= 0.0)
        assert abs(ks_distance(m) - brute) <= 1e-13, (n, decimals)


def test_phases_bit_equal_complex_exp():
    """_phases, which delta_stat and delta_stat_prefixes use, gives the bits
    of np.exp(1j * t * g), signed zeros and |t g| up to 1e5 included."""
    rng = np.random.default_rng(29)
    g = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300],
        rng.standard_normal(20_000) * 4.0,
        rng.uniform(-2.5e4, 2.5e4, 20_000),
    ])
    for t in (0.0, -0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 3.7, -1.5):
        want = np.exp(1j * t * g)
        got = asclt._phases(g, t)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), t
    p = sample_stationary(fgn(0.3), 4096, SEED, 6)
    for spec in (FbmScaled(0.3), HermiteVariation(fgn(0.3), 2)):
        series = build_gseries(p, spec)
        k = np.arange(1.0, 4097.0)
        for t in (0.5, 2.0):
            terms = np.exp(1j * t * series.values) - math.exp(-t * t / 2.0)
            direct = np.sum(terms / k) / math.log(4096)
            assert delta_stat(series, t) == complex(direct)
            cum = np.cumsum(np.exp(1j * t * series.values) / k)
            grid = [2, 3, 100, 4096]
            idx = np.array(grid) - 1
            want = (cum[idx] - math.exp(-t * t / 2.0) * np.cumsum(1.0 / k)[idx]) / np.log(grid)
            assert np.array_equal(delta_stat_prefixes(series, t, grid), want)


def test_ndtr_matches_scipy_cephes():
    # Bit-equal where Cephes takes erf (no exp); elsewhere NumPy's exp may
    # round differently from libm's by an ulp, which stays within 4 ulp.
    edge = math.sqrt(2.0 * asclt._MAXLOG)  # -x^2/2 < -MAXLOG below -edge
    rng = np.random.default_rng(5)
    x = np.concatenate([
        rng.uniform(-40.0, 40.0, 1_000_000),
        np.linspace(-40.0, 40.0, 80_001),
        [-edge, np.nextafter(-edge, 0.0), np.nextafter(-edge, -np.inf), edge],
        [math.sqrt(2.0), -math.sqrt(2.0), np.nextafter(math.sqrt(2.0), 0.0)],
        [8.0 * math.sqrt(2.0), -8.0 * math.sqrt(2.0), 5e-324, -5e-324],
    ])
    got, want = asclt._ndtr(x), ndtr(x)
    inner = np.abs(x) < math.sqrt(2.0)
    assert np.array_equal(got[inner], want[inner])
    assert _ulps(got[~inner], want[~inner]).max() <= 4.0
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -38.0, -40.0])
    assert np.array_equal(asclt._ndtr(specials), ndtr(specials), equal_nan=True)


def test_ndtr_accuracy_against_mpmath():
    # Relative error against 40-digit mpmath.ncdf is no worse than
    # scipy.special.ndtr's own on the same points, up to 4 eps.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = np.random.default_rng(9)
    for lo, hi in ((-5.0, 5.0), (-20.0, -5.0), (-37.5, -20.0)):
        x = np.concatenate([np.linspace(lo, hi, 1000, endpoint=False), rng.uniform(lo, hi, 1000)])
        exact = np.array([float(mpmath.ncdf(mpmath.mpf(float(v)))) for v in x])
        ours = np.max(np.abs(asclt._ndtr(x) - exact) / exact)
        theirs = np.max(np.abs(ndtr(x) - exact) / exact)
        assert ours <= theirs + 4 * np.finfo(float).eps, (lo, hi, ours, theirs)


def test_harmonic_weighted_mean_manual():
    assert harmonic_weighted_mean(np.array([3.0, 6.0])) == pytest.approx(
        (3.0 + 3.0) / 1.5, rel=1e-12
    )


def test_delta_zero_frequency_is_zero():
    p = sample_stationary(fgn(0.5), 16, SEED, 3)
    g = build_gseries(p, FbmScaled(0.5))
    assert delta_stat(g, 0.0) == 0j


def test_delta_exact_brute_force_iid():
    # E[G_k G_l] = sqrt(min/max) for the scaled iid partial sums
    n, t = 4, 1.0
    brute = 0.0
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            rho = math.sqrt(min(k, l) / max(k, l))
            brute += math.exp(-t * t) * math.expm1(rho * t * t) / (k * l)
    brute /= math.log(n) ** 2
    assert exact_gaussian_delta_sq(FbmScaled(0.5), n, t) == pytest.approx(brute, abs=1e-14)


def test_delta_exact_validation():
    assert exact_gaussian_delta_sq(FbmScaled(0.8), 16, 0.0) == 0.0
    with pytest.raises(ValueError):
        exact_gaussian_delta_sq(HermiteVariation(fgn(0.3), 2), 16, 1.0)
    with pytest.raises(ValueError):
        exact_gaussian_delta_sq(FbmScaled(0.8), 2**13, 1.0)
    with pytest.raises(ValueError):
        exact_gaussian_delta_sq(FbmScaled(0.8), 1, 1.0)
    with pytest.raises(ValueError):
        exact_delta_sq(FbmScaled(0.8), (1.0,), (16, 2**12 + 1))


def test_exact_delta_matches_dense_and_fsum_oracles():
    """The one-pass evaluator against the full-matrix evaluation it replaced
    and, at n <= 64, a math.fsum brute force: relative 1e-13, a bound fixed
    before the test was written."""
    ns, ts = (2, 3, 64, 256, 1024, 4096), (0.0, 0.5, 1.0, 2.0)
    for H in (0.2, 0.5, 0.8):
        got = exact_delta_sq(FbmScaled(H), ts, ns)()
        assert got.shape == (len(ts), len(ns))
        for j, n in enumerate(ns):
            dense = oracles.exact_delta_sq_dense(H, n, ts)
            for i, t in enumerate(ts):
                want = [dense[i]]
                if n <= oracles.FSUM_DELTA_MAX_N:
                    want.append(oracles.exact_delta_sq_fsum(H, n, t))
                for w in want:
                    if t == 0.0:
                        assert got[i, j] == 0.0 == w
                    else:
                        assert abs(got[i, j] - w) <= 1e-13 * w, (H, n, t)


def test_exact_delta_bits_do_not_depend_on_grid_or_block_split(monkeypatch):
    """Each entry is the same bits asked alone, within any grid of n and t,
    and whatever the row blocks, including blocks that straddle an n and
    the column chunks."""
    spec, ts, ns = FbmScaled(0.7), (0.5, 0.0, 2.0, 1.0), (300, 2, 129, 128, 3, 257)
    alone = {(t, n): exact_gaussian_delta_sq(spec, n, t) for t in ts for n in ns}
    for rows in (1, 7, 64, 100, 301):
        monkeypatch.setattr(asclt, "_EXACT_DELTA_ROWS", rows)
        for grid_t, grid_n in ((ts, ns), (ts[2:], ns[:3]), ((1.0,), (257, 300))):
            got = exact_delta_sq(spec, grid_t, grid_n)()
            for i, t in enumerate(grid_t):
                for j, n in enumerate(grid_n):
                    assert got[i, j] == alone[t, n], (rows, t, n)


def test_exact_delta_blocks_run_through_submit():
    """submit starts each row block (a pool task in a run) when the pass is
    asked for, and the blocks are collected only when the result is."""
    started = []

    def submit(fn, *args):
        started.append(args[3:])
        return functools.partial(fn, *args)

    pending = exact_delta_sq(FbmScaled(0.5), (1.0, 2.0), (100, 200), submit)
    rows = asclt._EXACT_DELTA_ROWS
    assert started == [(lo, min(lo + rows, 201)) for lo in range(1, 201, rows)]
    assert np.array_equal(pending(), exact_delta_sq(FbmScaled(0.5), (1.0, 2.0), (100, 200))())
    assert exact_delta_sq(FbmScaled(0.5), (0.0,), (100,), submit)()[0, 0] == 0.0
    assert len(started) == len(range(1, 201, rows))  # t = 0 alone starts no block


def test_exact_delta_memory_stays_small():
    """The n = 4096 pass at three t grows the peak RSS of a fresh process by
    at most 32 MB (the full-matrix evaluation took about 160 MB)."""
    code = (
        "import resource\n"
        "from asclt_lab.asclt import exact_delta_sq\n"
        "from asclt_lab.sequences import FbmScaled\n"
        "exact_delta_sq(FbmScaled(0.8), (1.0,), (8,))()\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "exact_delta_sq(FbmScaled(0.8), (0.5, 1.0, 2.0), (256, 1024, 4096))()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)\n"
    )
    src = str(Path(asclt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert int(out.stdout) <= 32 * 1024, out.stdout


def test_delta_prefixes_match_direct():
    p = sample_stationary(fgn(0.7), 512, SEED, 4)
    spec = FbmScaled(0.7)
    g = build_gseries(p, spec)
    pref = delta_stat_prefixes(g, 1.5, [16, 64, 512])
    for n, val in zip([16, 64, 512], pref):
        direct = delta_stat(build_gseries(p, spec, n=n), 1.5)
        assert val == pytest.approx(direct, rel=1e-10)
    with pytest.raises(ValueError):
        delta_stat_prefixes(g, 1.0, [1, 16])


def test_block_series_and_delta_equal_per_path_bit_for_bit():
    """A PathEnsemble's series and delta_stat rows equal those of each path
    built and reduced alone."""
    for spec, n in ((FbmScaled(0.8), 1024), (FbmScaled(0.3), 2049),
                    (HermiteVariation(fgn(0.3), 2), 1024),
                    (GeneralF(fgn(0.3), expand(np.arctan, qmax=9)), 1023)):
        ens = sample_ensemble(spec.model, n, SEED + 2, 37, 4)
        block = build_gseries(ens, spec)
        assert block.values.shape == (37, n) and block.replicate_id == 4
        for t in (0.5, 1.0, 2.0):
            rows = delta_stat(block, t)
            assert rows.shape == (37,)
            for i, path in enumerate(ens):
                g = build_gseries(path, spec)
                assert np.array_equal(block.values[i], g.values)
                assert np.array_equal(block.sigmas, g.sigmas)
                one = delta_stat(g, t)
                assert isinstance(one, complex) and rows[i] == one, (spec, t, i)
                assert block.sigma_tail_rel == g.sigma_tail_rel


def test_delta_mc_matches_exact_and_triangle():
    n = 2**10
    spec = FbmScaled(0.8)
    g = build_gseries(sample_ensemble(fgn(0.8), n, SEED + 1, 5000), spec)
    # |e^{itG} - cf| <= 2 termwise, so |delta| <= (1/log n) sum 2/k.
    triangle = 2.0 * float(np.sum(1.0 / np.arange(1.0, n + 1.0))) / math.log(n)
    for t in (0.5, 1.0, 2.0):
        per = delta_stat(g, t)
        sq = np.abs(per) ** 2
        exact = exact_gaussian_delta_sq(spec, n, t)
        assert abs(sq.mean() - exact) <= 4.0 * sq.std(ddof=1) / math.sqrt(sq.size)
        assert np.all(np.abs(per) <= triangle)


def test_delta_ensemble_stats_and_validation(monkeypatch):
    # The delta_exactness reducer is the Monte-Carlo E|delta_n(t)|^2
    # estimator: the mean of |delta|^2 over the replicates and its s.e.
    n, spec = 32, FbmScaled(0.6)
    cfg, errors = cli.validate_config({
        "schema_version": 1, "experiment": "delta_exactness", "model": {"H": 0.6},
        "n_max": n, "n_grid": [n], "seeds": {"master_seed": SEED, "replicates": 100},
        "t_grid": [1.0]})
    assert not errors
    (row,) = cli.run_experiment(cfg).report["rows"]
    sq = np.abs(delta_stat(build_gseries(sample_ensemble(fgn(0.6), n, SEED, 100), spec), 1.0)) ** 2
    assert row["mc"] == float(sq.mean())
    assert row["stderr"] == float(sq.std(ddof=1) / math.sqrt(100))
    assert row["exact"] == exact_gaussian_delta_sq(spec, n, 1.0)
    assert row["z"] == (row["mc"] - row["exact"]) / row["stderr"]

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "delta_stat", boom)
    with pytest.raises(RuntimeError, match="all replicates failed"):
        cli.run_experiment(cfg)


def test_il_exact_fbm_consistent():
    il = il_series_diagnostic(FbmScaled(0.5), (0.0, 0.5, 1.0, 2.0))
    assert il.verdict == "consistent"
    zero_row = il.rows[0]
    assert zero_row.fitted_decay is None
    assert all(v == 0.0 for v in zero_row.delta_sq)
    one = il.rows[2]
    assert one.fitted_decay < -0.08
    # partial sums flatten: the last grid increment is tiny next to the first
    first = one.partial_sums[1] - one.partial_sums[0]
    last = one.partial_sums[-1] - one.partial_sums[-2]
    assert last < 0.1 * first
    sup = np.max(np.array([r.delta_sq for r in il.rows]), axis=0)
    assert tuple(sup) == il.sup_delta_sq


def _il_mc(spec, t_grid, n_grid, master_seed, replicates):
    prefixes = [il_delta_prefixes(spec, t_grid, n_grid, master_seed, rep)
                for rep in range(replicates)]
    return il_from_prefixes(t_grid, n_grid, prefixes)


def test_il_supercritical_flagged():
    il = _il_mc(HermiteVariation(fgn(0.9), 2), (1.0,), GRID16, SEED + 10, 120)
    assert il.verdict == "flagged"
    # second moment stays bounded away from zero across the grid
    assert min(il.rows[0].delta_sq) >= 0.2


def test_il_subcritical_consistent_mc():
    il = _il_mc(HermiteVariation(fgn(0.3), 2), (1.0,), GRID16, SEED + 10, 120)
    assert il.verdict == "consistent"


def test_il_validation():
    with pytest.raises(ValueError):
        il_series_diagnostic(FbmScaled(0.5), (1.0,), n_grid=[16, 16, 64])
    with pytest.raises(ValueError):
        il_series_diagnostic(HermiteVariation(fgn(0.3), 2), (1.0,), n_grid=[4, 16])


def _criteria(spec, n_max):
    keys = contraction_keys(spec, n_max)
    return criteria_diagnostic(spec, n_max, dict(zip(keys, contraction_values(spec.model, keys))))


def test_criteria_needs_contractions_for_hermite():
    with pytest.raises(ValueError, match="contractions"):
        criteria_diagnostic(HermiteVariation(fgn(0.3), 2), 256)


def test_criteria_fbm():
    rep = criteria_diagnostic(FbmScaled(0.3))
    assert rep.verdict == "consistent"
    by_name = {c.name: c for c in rep.conditions}
    cov = by_name["cross_covariance"]
    assert 0.25 <= cov.fitted_alpha <= 0.55
    assert 0.5 <= cov.fitted_C <= 1.5
    assert by_name["second_derivative_contraction"].verdict == "consistent"
    assert by_name["kernel_inner"].fitted_alpha == pytest.approx(cov.fitted_alpha)
    assert all(c.applicable for c in rep.conditions)


def test_criteria_hermite_subcritical():
    rep = _criteria(HermiteVariation(fgn(0.3), 2), 2**11)
    assert rep.verdict == "consistent"
    by_name = {c.name: c for c in rep.conditions}
    assert 0.3 <= by_name["kernel_contraction"].fitted_alpha <= 0.7
    assert 0.8 <= by_name["second_derivative_contraction"].fitted_alpha <= 1.2
    assert all(c.applicable and c.verdict == "consistent" for c in rep.conditions)
    sums = by_name["kernel_contraction"].partial_sums
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_criteria_supercritical_flagged():
    rep = _criteria(HermiteVariation(fgn(0.9), 2), 2**11)
    assert rep.verdict == "flagged"
    by_name = {c.name: c for c in rep.conditions}
    assert by_name["kernel_contraction"].verdict == "flagged"
    assert not by_name["cross_covariance"].applicable
    assert not by_name["kernel_inner"].applicable


def test_criteria_general_f():
    spec = GeneralF(fgn(0.3), expand(np.arctan, 9))
    rep = criteria_diagnostic(spec, n_max=2**10)
    assert rep.verdict == "consistent"
    by_name = {c.name: c for c in rep.conditions}
    assert not by_name["kernel_contraction"].applicable
    assert by_name["cross_covariance"].verdict == "consistent"
    assert by_name["second_derivative_contraction"].verdict == "consistent"
