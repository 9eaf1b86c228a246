"""Pathwise Malliavin functionals: oracles, identities, and bound checks."""

import io
import math

import numpy as np
import pytest

from asclt_lab.covariance import fgn, iid, rho_many
from asclt_lab.gaussian_sim import sample_ensemble, sample_stationary
from asclt_lab.hermite import expand
from asclt_lab.kernels import contraction_norm_sq, hermite_sum_variance
from asclt_lab.malliavin import (
    MalliavinSample,
    _weighted_quartic_trace,
    cf_gap_bound,
    cf_rows_to_csv,
    co1_check,
    co2_check,
    d2g_contraction_norm_sq,
    dg_norm_sq,
    dg_norm_sq_truncated,
    dl_inverse_pairing,
    gebelein_check,
    malliavin_sample,
)
from asclt_lab.sequences import FbmScaled, GeneralF, HermiteVariation, RegimeError

SEED = 20240821


def test_quartic_trace_matches_brute_force():
    # sum_{k,l,i,j} b_k b_l b_i b_j rho(k-l) rho(i-j) rho(k-i) rho(l-j)
    rng = np.random.default_rng(0)
    n = 10
    g = rho_many(fgn(0.3), np.arange(n))
    b = rng.normal(size=n)
    brute = 0.0
    for k in range(n):
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    brute += (
                        b[k] * b[l] * b[i] * b[j]
                        * g[abs(k - l)] * g[abs(i - j)]
                        * g[abs(k - i)] * g[abs(l - j)]
                    )
    assert _weighted_quartic_trace(g, b, n) == pytest.approx(brute, rel=1e-12)


def test_quartic_trace_fft_matches_dense():
    # n above the dense cutoff exercises the blocked Toeplitz-FFT route
    rng = np.random.default_rng(1)
    n = 600
    g = rho_many(fgn(0.3), np.arange(n))
    b = rng.normal(size=n)
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    R = g[idx]
    M = R @ (b[:, None] * R)
    dense = float(b @ (M * M) @ b)
    assert _weighted_quartic_trace(g, b, n) == pytest.approx(dense, rel=1e-12)


def test_fbm_scaled_is_first_chaos():
    spec = FbmScaled(0.7)
    p = sample_ensemble(fgn(0.7), 64, SEED, 1)[0]
    assert dg_norm_sq(p, spec) == 1.0
    assert d2g_contraction_norm_sq(p, spec) == (0.0, 0.0)
    assert dl_inverse_pairing(p, spec) == 1.0
    assert dg_norm_sq_truncated(p, spec, 5) == (1.0, 0.0)


def test_dg_mean_is_chaos_order():
    for model in (iid(), fgn(0.3)):
        spec = HermiteVariation(model, 2)
        paths = sample_ensemble(model, 256, SEED + 5, 5000)
        vals = np.array([dg_norm_sq(p, spec) for p in paths])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 2.0) <= 4.0 * se


def test_dg_fourth_moment_iid_analytic():
    # ||DG||^2 = (2/n) sum X_k^2, so E||DG||^4 = 4(1 + 2/n)
    n = 64
    spec = HermiteVariation(iid(), 2)
    paths = sample_ensemble(iid(), n, SEED, 400)
    vals = np.array([dg_norm_sq(p, spec) for p in paths]) ** 2
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 4.0 * (1.0 + 2.0 / n)) <= 4.0 * se


def test_variance_identity_monte_carlo():
    spec = HermiteVariation(iid(), 2)
    paths = sample_ensemble(iid(), 64, SEED, 400)
    vals = np.array([dl_inverse_pairing(p, spec) for p in paths])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) <= 4.0 * se


def test_pairing_general_f_mean_one():
    spec = GeneralF(fgn(0.3), expand(np.arctan, 9))
    paths = sample_ensemble(fgn(0.3), 256, SEED + 7, 600)
    vals = np.array([dl_inverse_pairing(p, spec) for p in paths])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) <= 4.0 * se


def test_pairing_fixed_chaos_is_scaled_gradient():
    spec = HermiteVariation(fgn(0.6), 3)
    p = sample_ensemble(fgn(0.6), 128, SEED, 1)[0]
    assert dl_inverse_pairing(p, spec) == dg_norm_sq(p, spec) / 3


def test_d2g_quadratic_hermite_is_deterministic():
    # f'' = 2 for q = 2, so the contraction reduces to the kernel quartic sum;
    # n = 1024 lies above the dense trace cutoff.
    model = fgn(0.3)
    spec = HermiteVariation(model, 2)
    for n in (512, 1024):
        p = sample_ensemble(model, n, SEED, 1)[0]
        val, bound = d2g_contraction_norm_sq(p, spec)
        assert bound == 0.0
        assert val == pytest.approx(
            16.0 * contraction_norm_sq(model, 2, 1, n).value, rel=1e-12
        )


def test_d2g_constant_second_derivative_matches_blocked_trace():
    # The constant-f'' route (kernel displacement evaluator) against the
    # blocked Toeplitz-FFT weighted trace, above the dense trace cutoff.
    n = 600
    for model in (fgn(0.3), fgn(0.75)):
        spec = HermiteVariation(model, 2)
        p = sample_ensemble(model, n, SEED, 1)[0]
        g = rho_many(model, np.arange(n))
        blocked = _weighted_quartic_trace(g, np.full(n, 2.0), n)
        want = blocked / hermite_sum_variance(model, 2, n) ** 2
        assert d2g_contraction_norm_sq(p, spec)[0] == pytest.approx(want, rel=1e-12)


def test_d2g_vanishes_for_first_chaos():
    spec = HermiteVariation(fgn(0.6), 1)
    p = sample_ensemble(fgn(0.6), 64, SEED, 1)[0]
    assert d2g_contraction_norm_sq(p, spec) == (0.0, 0.0)


def test_d2g_truncation_certified():
    model = fgn(0.3)
    spec = HermiteVariation(model, 2)
    p = sample_ensemble(model, 256, SEED, 1)[0]
    exact, _ = d2g_contraction_norm_sq(p, spec)
    last = math.inf
    for L in (1, 4, 16, 64):
        val, bound = d2g_contraction_norm_sq(p, spec, L=L)
        assert abs(val - exact) <= bound
        assert bound < last
        last = bound
    # no lag dropped once L reaches n-1: value exact, bound zero
    for L in (255, 256):
        val, bound = d2g_contraction_norm_sq(p, spec, L=L)
        assert bound == 0.0
        assert val == pytest.approx(exact, rel=1e-12)


def test_dg_truncation_certified():
    model = fgn(0.3)
    spec = HermiteVariation(model, 2)
    p = sample_ensemble(model, 256, SEED, 1)[0]
    exact = dg_norm_sq(p, spec)
    val, bound = dg_norm_sq_truncated(p, spec, 16)
    assert abs(val - exact) <= bound
    assert bound > 0.0


def test_lag_cutoff_validation():
    spec = HermiteVariation(fgn(0.3), 2)
    p = sample_ensemble(fgn(0.3), 64, SEED, 1)[0]
    with pytest.raises(ValueError):
        d2g_contraction_norm_sq(p, spec, L=0)
    with pytest.raises(ValueError):
        d2g_contraction_norm_sq(p, spec, L=65)
    with pytest.raises(ValueError):
        dg_norm_sq_truncated(p, spec, 0)


def test_co1_printed_exponent_is_violated_for_iid():
    # E||DG||^4 -> 4 while the printed constant is 48^{1/4}/4; the
    # first-power constant 48/4 = 12 holds comfortably.
    spec = HermiteVariation(iid(), 2)
    paths = sample_ensemble(iid(), 64, SEED, 400)
    chk = co1_check(spec, paths)
    assert chk.bound_as_printed == pytest.approx(48.0**0.25 / 4.0, rel=1e-12)
    assert chk.bound_first_power == pytest.approx(12.0, rel=1e-12)
    assert chk.violates_printed
    assert not chk.violates_first_power


def test_co2_first_power_is_tight_for_iid():
    # deterministic value 4/n equals the first-power constant exactly
    n = 64
    spec = HermiteVariation(iid(), 2)
    paths = sample_ensemble(iid(), n, SEED, 120)
    chk = co2_check(spec, paths)
    assert chk.mc_mean == pytest.approx(4.0 / n, rel=1e-12)
    assert chk.mc_se == 0.0
    assert chk.bound_first_power == pytest.approx(4.0 / n, rel=1e-12)
    assert chk.violates_printed
    assert not chk.violates_first_power


def test_d2g_decay_rate_fgn():
    # q = 2 makes the value replicate-free; fitted slope must be near -1
    model = fgn(0.3)
    spec = HermiteVariation(model, 2)
    ns = [2**8, 2**10, 2**12]
    vals = []
    for n in ns:
        p = sample_stationary(model, n, SEED, 0)
        vals.append(d2g_contraction_norm_sq(p, spec)[0])
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert -1.2 <= slope <= -0.8


def test_cf_gap_within_bound_fgn():
    model = fgn(0.3)
    spec = HermiteVariation(model, 2)
    paths = sample_ensemble(model, 2**12, SEED + 1, 200)
    res = cf_gap_bound(spec, paths, 1.0)
    assert res.gap_mc <= res.bound + 4.0 * res.gap_se
    assert res.replicates == 200 and res.n == 2**12


def test_cf_gap_zero_frequency():
    spec = HermiteVariation(iid(), 2)
    paths = sample_ensemble(iid(), 64, SEED, 100)
    res = cf_gap_bound(spec, paths, 0.0)
    assert res.gap_mc == 0.0
    assert res.bound == 0.0


def test_cf_gap_fbm_bound_is_zero():
    # exact first chaos: both derivative terms vanish, gap is pure MC noise
    spec = FbmScaled(0.7)
    paths = sample_ensemble(fgn(0.7), 128, SEED + 3, 300)
    res = cf_gap_bound(spec, paths, 0.5)
    assert res.bound == 0.0
    assert res.gap_mc <= 4.0 * res.gap_se


def test_cf_bound_monotone_in_t():
    spec = HermiteVariation(iid(), 2)
    paths = sample_ensemble(iid(), 64, SEED, 100)
    bounds = [cf_gap_bound(spec, paths, t).bound for t in (0.5, 1.0, 2.0)]
    assert bounds[0] < bounds[1] < bounds[2]


def test_cf_gap_validation():
    spec = HermiteVariation(iid(), 2)
    paths = sample_ensemble(iid(), 64, SEED, 99)
    with pytest.raises(ValueError):
        cf_gap_bound(spec, paths, 1.0)
    sup = HermiteVariation(fgn(0.9), 2)
    sup_paths = sample_ensemble(fgn(0.9), 64, SEED, 100)
    with pytest.raises(RegimeError):
        cf_gap_bound(sup, sup_paths, 1.0)
    with pytest.raises(ValueError):
        cf_gap_bound(spec, sup_paths, 1.0)


def test_gebelein_arctan_holds():
    paths = sample_ensemble(fgn(0.7), 2048, SEED + 4, 200)
    rows = gebelein_check(paths, np.arctan, range(21))
    assert len(rows) == 21
    assert all(r.holds for r in rows)
    # lag 0 bound is Var f(N) itself and the sample variance sits on it
    assert rows[0].cov_mc == pytest.approx(rows[0].bound, rel=0.05)


def test_gebelein_lag_validation():
    paths = sample_ensemble(fgn(0.7), 32, SEED, 10)
    with pytest.raises(ValueError):
        gebelein_check(paths, np.arctan, [32])
    with pytest.raises(ValueError):
        gebelein_check([], np.arctan, [0])


def test_malliavin_sample_wiring():
    model = fgn(0.3)
    spec = HermiteVariation(model, 2)
    p = sample_ensemble(model, 128, SEED, 1)[0]
    s = malliavin_sample(p, spec, L=16)
    assert isinstance(s, MalliavinSample)
    assert s.n == 128 and s.L == 16
    assert s.dg_norm_sq == dg_norm_sq(p, spec)
    assert s.truncation_bound > 0.0
    lean = malliavin_sample(p, spec, with_d2g=False)
    assert lean.d2g_contraction_norm_sq is None
    assert lean.truncation_bound == 0.0


def test_cf_rows_csv():
    spec = HermiteVariation(iid(), 2)
    paths = sample_ensemble(iid(), 64, SEED, 100)
    rows = [cf_gap_bound(spec, paths, t) for t in (0.5, 1.0)]
    buf = io.StringIO()
    cf_rows_to_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,t,cf_gap_mc,cf_gap_bound,dg4_mean,d2g_mean"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "64" and float(first[1]) == 0.5
