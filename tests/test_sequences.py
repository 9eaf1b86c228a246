"""Normalized sequence construction against hand oracles and Monte Carlo."""

import math

import numpy as np
import pytest

from asclt_lab.covariance import (
    DivergentTailError,
    fgn,
    iid,
    rho_many,
    table,
)
from asclt_lab.gaussian_sim import (
    GaussianPath,
    sample_ensemble,
    sample_fbm_grid,
    sample_stationary,
)
from asclt_lab.hermite import ConstantFunctionError, expand
from asclt_lab import kernels, sequences
from asclt_lab.asclt import _pair_grid
from asclt_lab.kernels import _powers, hermite_sum_variance, pair_lag_sum, v2_prefix
from asclt_lab.covariance import abs_rho_power_sum
from asclt_lab.sequences import (
    FbmScaled,
    GeneralF,
    HermiteVariation,
    NormalizationError,
    RegimeError,
    build_gseries,
    cross_covariance,
    geometric_grid,
    gseries_prefixes,
    regime_for,
    sigma_limit,
    sigma_n_squared,
    zn_cross_moment,
    zn_dyadic,
    zn_limit_second_moment,
    zn_second_moment,
)
from oracles import pair_fsum, v2_fsum

SEED = 20240821


def _path(model, values):
    vals = np.asarray(values, dtype=float)
    return GaussianPath(model, vals.size, vals, 0, 0)


def test_regime_classification():
    assert regime_for(fgn(0.3), 2) == "subcritical"
    assert regime_for(fgn(0.75), 2) == "critical"
    assert regime_for(fgn(0.9), 2) == "supercritical"
    assert regime_for(fgn(1.0 - 1.0 / 6.0), 3) == "critical"
    assert regime_for(iid(), 5) == "subcritical"
    assert regime_for(table({0: 1.0, 1: 0.4}), 2) == "subcritical"
    # H = 1/2 sits on the q = 1 boundary but the covariance is degenerate iid.
    assert regime_for(fgn(0.5), 1) == "subcritical"


def test_spec_validation():
    with pytest.raises(RegimeError):
        HermiteVariation(fgn(0.75), 2, "subcritical")
    with pytest.raises(RegimeError):
        HermiteVariation(fgn(0.3), 2, "supercritical")
    with pytest.raises(RegimeError):
        HermiteVariation(iid(), 2, "critical")
    with pytest.raises(RegimeError):
        HermiteVariation(fgn(0.3), 2, "bogus")
    with pytest.raises(ValueError):
        HermiteVariation(fgn(0.3), 0)
    with pytest.raises(ValueError):
        FbmScaled(1.2)
    assert HermiteVariation(fgn(0.9), 2).regime == "supercritical"

    quartic = expand(lambda x: x**4, qmax=6)
    with pytest.raises(DivergentTailError):
        GeneralF(fgn(0.7), quartic)
    constant = expand(lambda x: 0.0 * x + 5.0, qmax=4)
    with pytest.raises(ConstantFunctionError):
        GeneralF(fgn(0.3), constant)


def test_fbm_scaled_manual_values():
    # B = (1, -1, 2); H = 0.5 divides by sqrt(k).
    path = _path(fgn(0.5), [1.0, -2.0, 3.0])
    gs = build_gseries(path, FbmScaled(0.5))
    expect = [1.0, -1.0 / math.sqrt(2.0), 2.0 / math.sqrt(3.0)]
    assert np.allclose(gs.values, expect, rtol=0, atol=1e-15)
    assert np.allclose(gs.sigmas, np.sqrt([1.0, 2.0, 3.0]), rtol=0, atol=1e-15)


def test_hermite_variation_iid_manual_values():
    # V_k = sum (x^2 - 1), E[V_k^2] = 2k.
    path = _path(iid(), [0.5, -1.0, 2.0])
    gs = build_gseries(path, HermiteVariation(iid(), 2))
    v = np.cumsum([0.5**2 - 1.0, 0.0, 3.0])
    assert np.allclose(gs.values, v / np.sqrt(2.0 * np.arange(1, 4)), atol=1e-15)


def test_supercritical_scaling_manual():
    # q=2, H=0.9: G_k = k^{-0.8} V_k with no variance normalizer.
    path = _path(fgn(0.9), [1.0, 0.0, -1.0])
    gs = build_gseries(path, HermiteVariation(fgn(0.9), 2))
    v = np.cumsum([0.0, -1.0, 0.0])
    k = np.arange(1, 4, dtype=float)
    assert np.allclose(gs.values, v * k**-0.8, atol=1e-15)
    assert np.allclose(gs.sigmas, k**0.8, atol=1e-15)


def test_critical_normalizer_is_sqrt_prefix_variance():
    paths = sample_ensemble(fgn(0.75), 128, SEED, 1)
    gs = build_gseries(paths[0], HermiteVariation(fgn(0.75), 2))
    import asclt_lab.hermite as hm

    v = np.cumsum(hm.hermite_eval(2, paths[0].values))
    expect = v / np.sqrt(v2_prefix(fgn(0.75), 2, 128))
    assert np.array_equal(gs.values, expect)


def test_prefix_consistency_bitwise():
    arctan = expand(np.arctan, qmax=9)
    specs = [
        FbmScaled(0.75),
        HermiteVariation(fgn(0.75), 2),
        HermiteVariation(fgn(0.75), 3),  # supercritical for q = 3
        GeneralF(fgn(0.3), arctan),
    ]
    for spec in specs:
        p = sample_ensemble(spec.model, 512, SEED, 1)[0]
        full = build_gseries(p, spec)
        part = build_gseries(p, spec, n=200)
        assert np.array_equal(full.values[:200], part.values)
        assert np.array_equal(full.sigmas[:200], part.sigmas)


def test_degenerate_normalizer_rejected():
    # rho(1) = -1 makes V_2 = X_1 + X_2 + ... cancel exactly at q = 1.
    model = table({0: 1.0, 1: -1.0})
    path = _path(model, [0.1, 0.2, 0.3])
    with pytest.raises(NormalizationError):
        build_gseries(path, HermiteVariation(model, 1))


def test_general_f_square_matches_pure_q2():
    model = fgn(0.3)
    path = sample_ensemble(model, 512, SEED, 1)[0]
    square = expand(lambda x: x**2, qmax=6)
    gf = build_gseries(path, GeneralF(model, square))
    hv = build_gseries(path, HermiteVariation(model, 2))
    assert np.allclose(gf.values, hv.values, rtol=1e-10, atol=1e-12)
    assert gf.sigma_tail_rel <= 1e-12


def test_general_f_model_mismatch_rejected():
    square = expand(lambda x: x**2, qmax=6)
    path = sample_ensemble(fgn(0.4), 32, SEED, 1)[0]
    with pytest.raises(ValueError):
        build_gseries(path, GeneralF(fgn(0.3), square))


def _cesaro_variance(model, q, n):
    """Var(V_n)/n without any regime normalization."""
    return hermite_sum_variance(model, q, n) / n


def test_sigma_n_squared_values():
    assert sigma_n_squared(iid(), 2, 17) == pytest.approx(2.0, abs=1e-14)
    # Critical: divide the same Cesaro sum by log n; the regime is derived.
    sub = _cesaro_variance(fgn(0.75), 2, 1000)
    crit = sigma_n_squared(fgn(0.75), 2, 1000)
    assert crit == pytest.approx(sub / math.log(1000.0), rel=1e-14)
    assert sigma_n_squared(fgn(0.75), 2, 1000, "critical") == crit
    assert sigma_n_squared(fgn(0.3), 2, 1000) == _cesaro_variance(fgn(0.3), 2, 1000)
    with pytest.raises(ValueError):
        sigma_n_squared(fgn(0.75), 2, 1, "critical")
    with pytest.raises(RegimeError):
        sigma_n_squared(fgn(0.9), 2, 100, "supercritical")
    with pytest.raises(RegimeError):
        sigma_n_squared(fgn(0.9), 2, 100)
    # An explicit regime that disagrees with the model is refused.
    with pytest.raises(RegimeError):
        sigma_n_squared(fgn(0.75), 2, 1000, "subcritical")
    with pytest.raises(RegimeError):
        sigma_n_squared(fgn(0.3), 2, 1000, "critical")
    with pytest.raises(RegimeError):
        sigma_n_squared(fgn(0.3), 2, 1000, "sideways")


def test_sigma_n_squared_approaches_limit():
    lim = sigma_limit(fgn(0.3), 2)
    v = sigma_n_squared(fgn(0.3), 2, 10_000)
    assert abs(v / lim.value - 1.0) < 0.02


def test_sigma_limit_values():
    assert sigma_limit(iid(), 3).value == pytest.approx(6.0, abs=1e-14)
    crit = sigma_limit(fgn(0.75), 2)
    # 2 * 2! * (1/2)^2 * (3/4)^2
    assert crit.value == pytest.approx(0.5625, abs=1e-15)
    assert crit.regime == "critical"
    with pytest.raises(RegimeError):
        sigma_limit(fgn(0.9), 2)
    # rho summing to exactly zero has no positive limit variance.
    with pytest.raises(NormalizationError):
        sigma_limit(table({0: 1.0, 1: -0.5}), 1)


def test_sigma_limit_matches_deep_direct_sum():
    lim = sigma_limit(fgn(0.3), 2)
    r = np.arange(1, 2_000_001)
    deep = 2.0 * (1.0 + 2.0 * float(np.sum(rho_many(fgn(0.3), r) ** 2)))
    assert lim.value == pytest.approx(deep, rel=1e-10)
    assert lim.remainder_bound < 1e-10 * lim.value


def test_cross_covariance_closed_forms():
    assert cross_covariance(FbmScaled(0.5), 1, 4) == pytest.approx(0.5, abs=1e-15)
    assert cross_covariance(HermiteVariation(iid(), 2), 2, 8) == pytest.approx(
        0.5, abs=1e-15
    )
    arctan = expand(np.arctan, qmax=9)
    for spec in (
        FbmScaled(0.3),
        HermiteVariation(fgn(0.6), 2),
        GeneralF(fgn(0.3), arctan),
    ):
        assert cross_covariance(spec, 7, 7) == pytest.approx(1.0, abs=1e-12)
        assert cross_covariance(spec, 3, 11) == pytest.approx(
            cross_covariance(spec, 11, 3), abs=1e-15
        )
    with pytest.raises(RegimeError):
        cross_covariance(HermiteVariation(fgn(0.9), 2), 2, 4)


def test_cross_covariance_against_bruteforce():
    model, q, k, l = fgn(0.6), 2, 7, 11
    num = math.factorial(q) * pair_fsum(model, q, k, l)
    den = math.sqrt(v2_fsum(model, q, k) * v2_fsum(model, q, l))
    spec = HermiteVariation(model, q)
    assert cross_covariance(spec, k, l) == pytest.approx(num / den, rel=1e-13)


def test_general_f_cross_covariance_matches_per_order_loop():
    """The pair sum keeps the explicit loop's summation order over the
    orders, and the diagonals are read from the spec's normalizer table."""
    spec = GeneralF(fgn(0.3), expand(np.arctan, qmax=9))
    c = spec.expansion.coeffs
    v2 = sequences._v2_table(spec, 1000)
    for k, l in ((1, 1), (2, 9), (9, 2), (5, 5), (17, 64), (300, 1000)):
        a, b = min(k, l), max(k, l)
        num = 0.0
        for order in range(1, spec.expansion.qmax + 1):
            if c[order] != 0.0:
                num += c[order] ** 2 * math.factorial(order) * pair_lag_sum(
                    spec.model, (order,), a, b)[0]
        assert cross_covariance(spec, k, l) == num / math.sqrt(v2[a - 1] * v2[b - 1])


def test_hermite_cross_covariance_computes_each_normalizer_once(monkeypatch):
    """Over the criteria pair grid, asked at the largest n first as
    criteria_diagnostic does, the E[V_k^2] table is built once, and each
    value is bit-equal to the formula with the normalizers of
    hermite_sum_variance."""
    builds = []
    real = kernels._v2_chunks

    def counting(model, q, n):
        builds.append(n)
        return real(model, q, n)

    monkeypatch.setattr(kernels, "_v2_chunks", counting)
    model = fgn(0.61)  # no other test builds this table
    spec = HermiteVariation(model, 2)
    grid = [int(g) for g in geometric_grid(1024) if g >= 2]
    sequences._v2_table(spec, grid[-1])
    pairs = _pair_grid(grid)
    got = [cross_covariance(spec, k, l) for k, l in pairs]
    assert builds == [grid[-1]]
    for (k, l), value in zip(pairs, got):
        den = math.sqrt(hermite_sum_variance(model, 2, k) * hermite_sum_variance(model, 2, l))
        assert value == 2 * pair_lag_sum(model, (2,), k, l)[0] / den


def test_general_f_prefix_variance_is_cached_read_only():
    # One read-only table per spec: v2_prefix itself for a Hermite
    # variation, the c_q^2-weighted sum of the order tables for GeneralF.
    spec = GeneralF(fgn(0.3), expand(np.arctan, qmax=9))
    c = spec.expansion.coeffs
    expect = np.zeros(1000)
    for order in range(1, spec.expansion.qmax + 1):
        if c[order] != 0.0:
            expect += c[order] ** 2 * v2_prefix(spec.model, order, 1000)
    v2 = sequences._v2_table(spec, 1000)
    assert not v2.flags.writeable
    assert np.array_equal(v2, expect)
    assert sequences._v2_table(spec, 1000) is v2
    hv = HermiteVariation(fgn(0.3), 2)
    assert sequences._v2_table(hv, 1000) is v2_prefix(hv.model, 2, 1000)


def test_fbm_covariance_decay_bound():
    # |E[G_k G_l]| <= (k/l)^H for H < 1/2, k <= l.
    spec = FbmScaled(0.3)
    ks = geometric_grid(1 << 12)
    for i, k in enumerate(ks):
        for l in ks[i:]:
            e = abs(cross_covariance(spec, int(k), int(l)))
            assert e <= (k / l) ** 0.3 * (1.0 + 1e-12)


def test_subcritical_covariance_decay_bound():
    # |E[G_k G_l]| <= q! (sum_r |rho|^q) max_m(m / E[V_m^2]) * sqrt(k/l):
    # each of the k rows of the double sum is at most the full |rho|^q series.
    model, q = fgn(0.3), 2
    nmax = 1 << 12
    v2 = v2_prefix(model, q, nmax)
    c = (
        math.factorial(q)
        * abs_rho_power_sum(model, q).value
        * float(np.max(np.arange(1, nmax + 1) / v2))
    )
    spec = HermiteVariation(model, q)
    ks = geometric_grid(nmax)
    for i, k in enumerate(ks):
        for l in ks[i:]:
            e = abs(cross_covariance(spec, int(k), int(l)))
            assert e <= c * math.sqrt(k / l) * (1.0 + 1e-12)


def test_mc_normalization_iid_q2():
    paths = sample_ensemble(iid(), 64, SEED, 10_000)
    spec = HermiteVariation(iid(), 2)
    gn = np.array([build_gseries(p, spec).values[-1] for p in paths])
    m = gn.mean()
    se_mean = gn.std(ddof=1) / math.sqrt(gn.size)
    assert abs(m) <= 4.0 * se_mean
    v = gn.var(ddof=1)
    m4 = float(np.mean((gn - m) ** 4))
    se_var = math.sqrt((m4 - (gn.size - 3) / (gn.size - 1) * v * v) / gn.size)
    assert abs(v - 1.0) <= 4.0 * se_var


def test_mc_normalization_critical():
    paths = sample_ensemble(fgn(0.75), 4096, SEED, 2000)
    spec = HermiteVariation(fgn(0.75), 2)
    gn = np.array([build_gseries(p, spec).values[-1] for p in paths])
    v = gn.var(ddof=1)
    m4 = float(np.mean((gn - gn.mean()) ** 4))
    se_var = math.sqrt((m4 - (gn.size - 3) / (gn.size - 1) * v * v) / gn.size)
    assert abs(v - 1.0) <= 4.0 * se_var


def test_mc_cross_covariance():
    model = fgn(0.3)
    spec = HermiteVariation(model, 2)
    paths = sample_ensemble(model, 256, SEED + 1, 2000)
    series = [build_gseries(p, spec) for p in paths]
    for k, l in [(16, 64), (64, 256), (5, 200)]:
        prod = np.array([g.values[k - 1] * g.values[l - 1] for g in series])
        exact = cross_covariance(spec, k, l)
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean() - exact) <= 4.0 * se


def test_mc_normalization_fbm():
    paths = sample_ensemble(fgn(0.75), 32, SEED + 2, 2000)
    spec = FbmScaled(0.75)
    g = np.array([build_gseries(p, spec).values[-1] for p in paths])
    v = g.var(ddof=1)
    m4 = float(np.mean((g - g.mean()) ** 4))
    se_var = math.sqrt((m4 - (g.size - 3) / (g.size - 1) * v * v) / g.size)
    assert abs(v - 1.0) <= 4.0 * se_var


def test_zn_second_moment_increasing_toward_limit():
    vals = [zn_second_moment(2, 0.9, 1 << j) for j in range(6, 15, 2)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < 2.16 for v in vals)
    assert abs(vals[-1] / 2.16 - 1.0) < 0.02


def test_zn_limit_arithmetic():
    # 2! * (0.9*0.8)^2 * 2 / (0.6*1.6) = 2.16
    assert zn_limit_second_moment(2, 0.9) == pytest.approx(2.16, rel=1e-12)
    with pytest.raises(RegimeError):
        zn_limit_second_moment(2, 0.75)


def test_zn_cross_moment_symmetry_and_consistency():
    assert zn_cross_moment(2, 0.9, 16, 64) == pytest.approx(
        zn_cross_moment(2, 0.9, 64, 16), rel=1e-12
    )
    assert zn_cross_moment(2, 0.9, 64, 64) == pytest.approx(
        zn_second_moment(2, 0.9, 64), rel=1e-10
    )
    with pytest.raises(ValueError):
        zn_cross_moment(2, 0.9, 1 << 12, 1 << 12)


def test_zn_dyadic_values_and_errors():
    grid = sample_fbm_grid(0.9, 1 << 6, SEED, 0)
    import asclt_lab.hermite as hm

    z = zn_dyadic(grid, 2, [2, 3])
    for zi, j in zip(z, (2, 3)):
        n = 1 << j
        inc = float(n) ** 0.9 * grid.increments(n)
        manual = float(n) ** (2 * 0.1 - 1.0) * float(np.sum(hm.hermite_eval(2, inc)))
        assert zi == pytest.approx(manual, rel=1e-14)
    with pytest.raises(RegimeError):
        zn_dyadic(grid, 5, [2])  # H = 0.9 is exactly critical for q = 5
    with pytest.raises(ValueError):
        zn_dyadic(grid, 2, [7])  # 2^7 > N
    bad = sample_fbm_grid(0.6, 1 << 4, SEED, 0)
    with pytest.raises(RegimeError):
        zn_dyadic(bad, 2, [2])


def test_zn_dyadic_cauchy_trend():
    # Deterministic given the seed: dyadic refinements settle down.
    js = list(range(3, 10))
    diffs = []
    for rep in range(30):
        grid = sample_fbm_grid(0.9, 1 << 10, SEED + 3, rep)
        z = zn_dyadic(grid, 2, js)
        diffs.append(np.abs(np.diff(z)))
    med = np.median(np.array(diffs), axis=0)
    assert (med[-2] + med[-1]) / 2.0 < 0.75 * (med[0] + med[1]) / 2.0


def test_geometric_grid():
    assert geometric_grid(20).tolist() == [1, 2, 3, 4, 5, 7, 9, 11, 14, 18]
    assert geometric_grid(1).tolist() == [1]
    ks = geometric_grid(10_000)
    assert np.all(np.diff(ks) > 0) and ks[-1] <= 10_000
    with pytest.raises(ValueError):
        geometric_grid(0)


def test_gseries_immutable():
    path = _path(iid(), [0.5, -1.0, 2.0])
    gs = build_gseries(path, HermiteVariation(iid(), 2))
    with pytest.raises(ValueError):
        gs.values[0] = 7.0


def test_gseries_prefixes_match_per_prefix_builds():
    # Odd sizes included: the slices must match a build at every n, not only
    # at the powers of two the default grids use.
    specs = [
        GeneralF(fgn(0.3), expand(np.arctan, qmax=9)),
        HermiteVariation(fgn(0.3), 2),
        HermiteVariation(fgn(0.75), 2),
        HermiteVariation(fgn(0.9), 2),
        FbmScaled(0.7),
    ]
    for n_grid in ([4, 7, 64, 257, 1000, 1023, 4096], [2, 3, 7, 31, 257, 1023, 3467]):
        for spec in specs:
            for rep in range(3):
                path = sample_stationary(spec.model, n_grid[-1], SEED, rep)
                for n, g in zip(n_grid, gseries_prefixes(path, spec, n_grid)):
                    ref = build_gseries(path, spec, n)
                    assert g.n == n and g.spec == spec
                    assert np.array_equal(g.values, ref.values), (spec, rep, n)
                    assert np.array_equal(g.sigmas, ref.sigmas), (spec, rep, n)
                    assert g.sigma_tail_rel == ref.sigma_tail_rel
                    assert (g.master_seed, g.replicate_id) == (SEED, rep)
                    assert not g.values.flags.writeable


def test_normalizer_tables_are_prefix_stable():
    # The cached tables answer a short n by slicing a longer table, so a
    # table computed afresh at n must equal the first n entries of one
    # computed afresh at N (the uncached functions, via __wrapped__).
    N = 1 << 14
    ns = (1, 2, 3, 7, 31, 257, 1023, 3467, N)
    arctan = expand(np.arctan, qmax=9)
    ma = table({0: 1.0, 1: 0.5, 2: 0.2})
    for model in (fgn(0.3), fgn(0.5), fgn(0.75), fgn(0.9), iid(), ma):
        for q in (1, 2, 3, 5, 9):
            full = v2_prefix.__wrapped__(model, q, N)
            for n in ns:
                assert np.array_equal(v2_prefix.__wrapped__(model, q, n), full[:n]), (model, q, n)
    for model in (fgn(0.2), fgn(0.3), ma):
        full = sequences._general_f_prefix_var.__wrapped__(model, arctan, N)
        for n in ns:
            part = sequences._general_f_prefix_var.__wrapped__(model, arctan, n)
            assert np.array_equal(part, full[:n]), (model, n)
        # The GeneralF tail window, at the order above arctan's qmax and at
        # an odd order, where |rho|^q keeps no sign.
        for q in (10, 11):
            full = sequences._tail_window.__wrapped__(model, q, N)
            for n in ns:
                part = sequences._tail_window.__wrapped__(model, q, n)
                assert np.array_equal(part, full[:n]), (model, q, n)
    # The rho^q chain, whose lags are taken in chunks, at every q up to 40.
    M = 3 * (1 << 16) + 5
    for model in (fgn(0.3), fgn(0.9), ma):
        for q in range(1, 41):
            full = _powers(model, q, M)
            for n in (1, 2, 257, 1 << 16, (1 << 16) + 1):
                assert np.array_equal(_powers(model, q, n), full[:n]), (model, q, n)
    for H in (0.2, 0.5, 0.7, 0.9):
        full = sequences._k_power.__wrapped__(H, N)
        for n in ns:
            assert np.array_equal(sequences._k_power.__wrapped__(H, n), full[:n]), (H, n)
