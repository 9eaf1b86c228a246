"""Pathwise Malliavin functionals: oracles, identities, and bound checks."""

import math

import numpy as np
import pytest

from asclt_lab.covariance import abs_rho_power_sum, fgn, iid, rho_many
from asclt_lab.gaussian_sim import sample_ensemble, sample_stationary
from asclt_lab.hermite import _quad_rule, expand
from asclt_lab import kernels, malliavin, sequences
from asclt_lab.kernels import contraction_norm_sq, hermite_sum_variance
from asclt_lab.malliavin import (
    _QUAD_NODES,
    CfGap,
    GebeleinRow,
    MalliavinSample,
    MomentBoundCheck,
    _ensemble_stats,
    _flag,
    _normalizer_sq,
    _quad_fourth_moment,
    _second_derivative_constant,
    _weighted_quartic_trace,
    cf_gap_bound,
    co1_check,
    co2_check,
    d2g_contraction_norm_sq,
    d2g_depends_on_path,
    dg_norm_sq,
    gebelein_check,
    lag_covariances,
    malliavin_sample,
)
from asclt_lab.sequences import FbmScaled, GeneralF, HermiteVariation, RegimeError, build_gseries
from oracles import dl_inverse_pairing, toeplitz_matvec

SEED = 20240821


def _records(paths, spec):
    return [malliavin_sample(p, spec, with_d2g=d2g_depends_on_path(spec)) for p in paths]


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


def test_dg_path_independent_work_is_cached(monkeypatch):
    """Over 50 paths, N_n^2 builds one E[V_k^2] table, read by every path (the
    second build is hermite_sum_variance's own, which keeps no table), and
    the Toeplitz spectrum is cached read-only; ||DG||^2 is bit-equal to the
    uncached evaluation. N_n^2 of a GeneralF is entry n of the spec-level
    table that normalizes its series."""
    builds = []
    real = kernels._lag_weighted_prefix

    def counting(p):
        builds.append(p.size)
        return real(p)

    monkeypatch.setattr(kernels, "_lag_weighted_prefix", counting)
    spec, n = HermiteVariation(fgn(0.37), 2), 301
    paths = sample_ensemble(spec.model, n, SEED + 13, 50)
    got = [dg_norm_sq(p, spec) for p in paths]
    assert builds == [n]
    assert _normalizer_sq(spec, n) == hermite_sum_variance(spec.model, 2, n)
    for p, value in zip(paths, got):
        b = 2.0 * p.values
        u = toeplitz_matvec(rho_many(spec.model, np.arange(n)), b, n)
        assert value == max(float(b @ u) / _normalizer_sq(spec, n), 0.0)
    assert builds == [n, n]
    spectrum = malliavin._covariance_spectrum(spec.model, n)
    assert not spectrum.flags.writeable
    assert malliavin._covariance_spectrum(spec.model, n) is spectrum
    general = GeneralF(fgn(0.37), expand(np.arctan, qmax=9))
    assert _normalizer_sq(general, n) == sequences._v2_table(general, n)[-1]


def test_fbm_scaled_is_first_chaos():
    spec = FbmScaled(0.7)
    p = sample_ensemble(fgn(0.7), 64, SEED, 1)[0]
    assert dg_norm_sq(p, spec) == 1.0
    assert d2g_contraction_norm_sq(p, spec) == 0.0
    assert dl_inverse_pairing(p, spec) == 1.0


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
        val = d2g_contraction_norm_sq(p, spec)
        assert val == pytest.approx(
            16.0 * contraction_norm_sq(model, 2, 1, n).value, rel=1e-12
        )


def test_d2g_constant_second_derivative_matches_blocked_trace():
    # The constant-f'' route (kernel bordering lag-sum pass) against the
    # blocked Toeplitz-FFT weighted trace, above the dense trace cutoff.
    n = 600
    for model in (fgn(0.3), fgn(0.75)):
        spec = HermiteVariation(model, 2)
        p = sample_ensemble(model, n, SEED, 1)[0]
        g = rho_many(model, np.arange(n))
        blocked = _weighted_quartic_trace(g, np.full(n, 2.0), n)
        want = blocked / hermite_sum_variance(model, 2, n) ** 2
        assert d2g_contraction_norm_sq(p, spec) == pytest.approx(want, rel=1e-12)


def test_d2g_vanishes_for_first_chaos():
    spec = HermiteVariation(fgn(0.6), 1)
    p = sample_ensemble(fgn(0.6), 64, SEED, 1)[0]
    assert d2g_contraction_norm_sq(p, spec) == 0.0


def test_co1_printed_exponent_is_violated_for_iid():
    # E||DG||^4 -> 4 while the printed constant is 48^{1/4}/4; the
    # first-power constant 48/4 = 12 holds comfortably.
    spec = HermiteVariation(iid(), 2)
    paths = sample_ensemble(iid(), 64, SEED, 400)
    chk = co1_check(spec, _records(paths, spec))
    assert chk.bound_as_printed == pytest.approx(48.0**0.25 / 4.0, rel=1e-12)
    assert chk.bound_first_power == pytest.approx(12.0, rel=1e-12)
    assert chk.violates_printed
    assert not chk.violates_first_power


def test_co2_first_power_is_tight_for_iid():
    # deterministic value 4/n equals the first-power constant exactly
    n = 64
    spec = HermiteVariation(iid(), 2)
    paths = sample_ensemble(iid(), n, SEED, 120)
    chk = co2_check(spec, _records(paths, spec))
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
        vals.append(d2g_contraction_norm_sq(p, spec))
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert -1.2 <= slope <= -0.8


def test_cf_gap_within_bound_fgn():
    model = fgn(0.3)
    spec = HermiteVariation(model, 2)
    paths = sample_ensemble(model, 2**12, SEED + 1, 200)
    res = cf_gap_bound(spec, _records(paths, spec), 1.0)
    assert res.gap_mc <= res.bound + 4.0 * res.gap_se
    assert res.replicates == 200 and res.n == 2**12


def test_cf_gap_zero_frequency():
    spec = HermiteVariation(iid(), 2)
    paths = sample_ensemble(iid(), 64, SEED, 100)
    res = cf_gap_bound(spec, _records(paths, spec), 0.0)
    assert res.gap_mc == 0.0
    assert res.bound == 0.0


def test_cf_gap_fbm_bound_is_zero():
    # exact first chaos: both derivative terms vanish, gap is pure MC noise
    spec = FbmScaled(0.7)
    paths = sample_ensemble(fgn(0.7), 128, SEED + 3, 300)
    res = cf_gap_bound(spec, _records(paths, spec), 0.5)
    assert res.bound == 0.0
    assert res.gap_mc <= 4.0 * res.gap_se


def test_cf_bound_monotone_in_t():
    spec = HermiteVariation(iid(), 2)
    paths = sample_ensemble(iid(), 64, SEED, 100)
    records = _records(paths, spec)
    bounds = [cf_gap_bound(spec, records, t).bound for t in (0.5, 1.0, 2.0)]
    assert bounds[0] < bounds[1] < bounds[2]


def test_cf_gap_validation():
    spec = HermiteVariation(iid(), 2)
    paths = sample_ensemble(iid(), 64, SEED, 99)
    with pytest.raises(ValueError):
        cf_gap_bound(spec, _records(paths, spec), 1.0)
    sup = HermiteVariation(fgn(0.9), 2)
    sup_records = _records(sample_ensemble(fgn(0.9), 64, SEED, 100), sup)
    with pytest.raises(RegimeError):
        cf_gap_bound(sup, sup_records, 1.0)
    with pytest.raises(ValueError):
        cf_gap_bound(spec, sup_records, 1.0)
    with pytest.raises(ValueError):
        malliavin_sample(paths[0], sup)
    # Samples of another q are refused, not mixed with this spec's constants.
    q3 = HermiteVariation(iid(), 3)
    q3_paths = sample_ensemble(iid(), 64, SEED, 100)
    q3_records = _records(q3_paths, q3)
    for reducer in (co1_check, co2_check):
        with pytest.raises(ValueError, match="spec"):
            reducer(spec, q3_records)
    with pytest.raises(ValueError, match="spec"):
        cf_gap_bound(spec, q3_records, 1.0)
    with pytest.raises(ValueError, match="spec"):
        co2_check(q3, _records(q3_paths, spec))
    # A path-dependent f'' needs the contraction on every sample.
    lean = [malliavin_sample(p, q3, with_d2g=False) for p in q3_paths]
    for reducer in (lambda records: cf_gap_bound(q3, records, 1.0),
                    lambda records: co2_check(q3, records)):
        with pytest.raises(ValueError, match="D\\^2G"):
            reducer(lean)


def test_gebelein_arctan_holds():
    paths = sample_ensemble(fgn(0.7), 2048, SEED + 4, 200)
    records = [lag_covariances(p, np.arctan, range(21)) for p in paths]
    rows = gebelein_check(records, np.arctan, range(21))
    assert len(rows) == 21
    assert all(r.holds for r in rows)
    # lag 0 bound is Var f(N) itself and the sample variance sits on it
    assert rows[0].cov_mc == pytest.approx(rows[0].bound, rel=0.05)


def test_gebelein_lag_validation():
    paths = sample_ensemble(fgn(0.7), 32, SEED, 10)
    with pytest.raises(ValueError):
        lag_covariances(paths[0], np.arctan, [32])
    records = [lag_covariances(p, np.arctan, [0, 31]) for p in paths]
    with pytest.raises(ValueError):
        gebelein_check(records, np.arctan, [32])
    with pytest.raises(ValueError):
        gebelein_check(records, np.arctan, [0, 30])
    with pytest.raises(ValueError):
        gebelein_check([], np.arctan, [0])


def test_malliavin_sample_wiring():
    model = fgn(0.3)
    spec = HermiteVariation(model, 2)
    p = sample_ensemble(model, 128, SEED, 1)[0]
    s = malliavin_sample(p, spec)
    assert isinstance(s, MalliavinSample)
    assert s.n == 128
    assert s.dg_norm_sq == dg_norm_sq(p, spec)
    assert s.g_n == build_gseries(p, spec).values[-1]
    assert s.d2g_contraction_norm_sq == d2g_contraction_norm_sq(p, spec)
    lean = malliavin_sample(p, spec, with_d2g=False)
    assert lean.d2g_contraction_norm_sq is None


# Oracle: the path-based ensemble checks as they were before the per-path
# map, each quantity recomputed from the paths themselves.
def _oracle_d2g_mean(spec, paths):
    if _second_derivative_constant(spec) is not None:
        return d2g_contraction_norm_sq(paths[0], spec)
    return float(np.array([d2g_contraction_norm_sq(p, spec) for p in paths]).mean())


def _oracle_cf_gap_bound(spec, paths, t):
    n = paths[0].n
    gvals = np.array([build_gseries(p, spec).values[-1] for p in paths])
    phases = np.exp(1j * t * gvals)
    gap = abs(phases.mean() - math.exp(-t * t / 2.0))
    m = len(paths)
    se = math.sqrt((phases.real.var(ddof=1) + phases.imag.var(ddof=1)) / m)
    dg4_mean = float((np.array([dg_norm_sq(p, spec) for p in paths]) ** 2).mean())
    d2g_mean = _oracle_d2g_mean(spec, paths)
    bound = 0.5 * abs(t) * math.sqrt(10.0) * d2g_mean**0.25 * dg4_mean**0.25
    return CfGap(float(t), n, m, gap, se, bound, dg4_mean, d2g_mean)


def _oracle_moment_check(name, vals, fourth, sigma4, rho_sum, power, n_div):
    mean, se = _ensemble_stats(vals)
    printed = fourth**0.25 * rho_sum**power / (sigma4 * n_div)
    first = fourth * rho_sum**power / (sigma4 * n_div)
    return MomentBoundCheck(name, mean, se, printed, first,
                            _flag(mean, se, printed), _flag(mean, se, first))


def _oracle_co_checks(spec, paths):
    n = paths[0].n
    sigma4 = (_normalizer_sq(spec, n) / n) ** 2
    rho_sum = abs_rho_power_sum(spec.model, 1).value
    dg4 = np.array([dg_norm_sq(p, spec) for p in paths]) ** 2
    if _second_derivative_constant(spec) is not None:
        d2g = np.array([d2g_contraction_norm_sq(paths[0], spec)])
    else:
        d2g = np.array([d2g_contraction_norm_sq(p, spec) for p in paths])
    co1 = _oracle_moment_check(
        "co1", dg4, _quad_fourth_moment(spec, "first"), sigma4, rho_sum, 2, 1)
    co2 = _oracle_moment_check(
        "co2", d2g, _quad_fourth_moment(spec, "second"), sigma4, rho_sum, 3, n)
    return co1, co2


def _oracle_gebelein(paths, f, lags):
    n = paths[0].n
    nodes, weights = _quad_rule(_QUAD_NODES)
    fn = np.asarray(f(nodes), dtype=float)
    mu = float(np.sum(weights * fn))
    var = float(np.sum(weights * (fn - mu) ** 2))
    per_rep = np.empty((len(paths), len(lags)))
    for i, p in enumerate(paths):
        centered = np.asarray(f(p.values), dtype=float) - mu
        for j, r in enumerate(lags):
            m = n - r
            per_rep[i, j] = float(centered[:m] @ centered[r:]) / m
    rho_vals = np.abs(rho_many(paths[0].model, np.array(lags)))
    rows = []
    for j, r in enumerate(lags):
        mean, se = _ensemble_stats(per_rep[:, j])
        bound = float(rho_vals[j]) * var
        rows.append(GebeleinRow(r, mean, se, bound, abs(mean) <= bound + 4.0 * se))
    return rows


@pytest.mark.parametrize("spec,n", [
    (HermiteVariation(fgn(0.3), 2), 1024),
    (HermiteVariation(fgn(0.3), 3), 128),     # path-dependent f'', dense trace
    (FbmScaled(0.3), 256),
])
def test_reducers_match_path_based_oracle(spec, n):
    paths = sample_ensemble(spec.model, n, SEED + 11, 100)
    records = _records(paths, spec)
    for t in (0.5, 1.0, 2.0):
        assert cf_gap_bound(spec, records, t) == _oracle_cf_gap_bound(spec, paths, t)
    assert (co1_check(spec, records), co2_check(spec, records)) == _oracle_co_checks(spec, paths)


def test_gebelein_reducer_matches_path_based_oracle():
    lags = list(range(21))
    paths = sample_ensemble(fgn(0.7), 512, SEED + 12, 40)
    records = [lag_covariances(p, np.arctan, lags) for p in paths]
    assert gebelein_check(records, np.arctan, lags) == _oracle_gebelein(paths, np.arctan, lags)
