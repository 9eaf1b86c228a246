"""End-to-end acceptance checklist, one verdict line per numbered check.

Run with `pytest tests/test_acceptance.py -s` to see every [PASS]/[FAIL]
line; without -s, pytest still shows the lines for failing checks.

Three checks (04b, 06, 09c) assert tolerance/scale pairings that the
measured asymptotics cannot reach at the stated sample sizes. They fail by
design rather than being loosened; the inline comments give the measured
numbers and the scale at which each would turn green.
"""

import json

import numpy as np
import pytest

from asclt_lab.asclt import (
    delta_stat,
    exact_gaussian_delta_sq,
    harmonic_weighted_mean,
    ks_distance,
    log_average_measure,
)
from asclt_lab.cli import main as cli_main
from asclt_lab.covariance import fgn, iid
from asclt_lab.gaussian_sim import sample_ensemble, sample_fbm_grid, sample_stationary
from asclt_lab.kernels import contraction_norm_sq
from asclt_lab.malliavin import cf_gap_bound, gebelein_check, lag_covariances, malliavin_sample
from asclt_lab.sequences import (
    FbmScaled,
    HermiteVariation,
    build_gseries,
    regime_for,
    sigma_limit,
    sigma_n_squared,
    zn_dyadic,
    zn_second_moment,
)
from oracles import (
    contraction_bruteforce,
    dense_contract,
    dense_inner,
    dense_kernel,
    dense_norm_sq,
    empirical_autocovariance,
    rho,
)

ASEED = 20240821
ORACLE_MODELS = (iid(), fgn(0.3), fgn(0.75))
TREND_GRID = (1 << 12, 1 << 16, 1 << 20)
TREND_SEEDS = 20


def _seed(check: int) -> int:
    return ASEED + 1000 + check


def _verdict(label: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


def _ks_medians(spec, master_seed):
    ks = np.empty((TREND_SEEDS, len(TREND_GRID)))
    for rep in range(TREND_SEEDS):
        path = sample_stationary(spec.model, TREND_GRID[-1], master_seed, rep)
        for j, n in enumerate(TREND_GRID):
            g = build_gseries(path, spec, n=n)
            ks[rep, j] = ks_distance(log_average_measure(g))
    return np.median(ks, axis=0)


def test_a01_sampler_autocovariance():
    worst = 0.0
    for H in (0.3, 0.5, 0.7, 0.9):
        model = fgn(H)
        paths = sample_ensemble(model, 1 << 12, _seed(1), 2000)
        for r in range(6):
            mean, se = empirical_autocovariance(paths, r)
            worst = max(worst, abs((mean - rho(model, r)) / se))
    assert _verdict(
        "01 sampler autocovariance",
        worst <= 4.0,
        f"max |z| = {worst:.3f} over H in (0.3,0.5,0.7,0.9), lags 0..5 (limit 4)",
    )


def test_a02_contraction_brute_oracle():
    worst = 0.0
    for model in ORACLE_MODELS:
        for q in (2, 3):
            for r in range(1, q):
                for n in (3, 5, 9, 12):
                    bf = contraction_bruteforce(model, q, r, n)
                    ls = contraction_norm_sq(model, q, r, n)
                    worst = max(worst, abs(ls.value - bf.value))
    assert _verdict(
        "02 lag-sum vs brute-force contraction",
        worst <= 1e-10,
        f"max |diff| = {worst:.2e} over q in (2,3), all r, 3 models, n <= 12",
    )


def test_a03_contraction_identity():
    rng = np.random.default_rng(_seed(3))
    worst = 0.0
    for model in ORACLE_MODELS:
        for _ in range(100):
            f = dense_kernel(model, rng.standard_normal((5, 5)))
            g = dense_kernel(model, rng.standard_normal((5, 5)))
            lhs = dense_norm_sq(dense_contract(f, g, 1))
            rhs = dense_inner(dense_contract(f, f, 1), dense_contract(g, g, 1))
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    assert _verdict(
        "03 contraction pairing identity",
        worst <= 1e-10,
        f"max rel diff = {worst:.2e} over 100 random pairs x 3 models",
    )


def test_a04a_subcritical_variance_limit():
    lim = sigma_limit(fgn(0.3), 2)
    v = sigma_n_squared(fgn(0.3), 2, 10**5)
    rel = abs(v - lim.value) / lim.value
    assert _verdict(
        "04a subcritical variance limit",
        rel <= 0.01,
        f"sigma_n^2(1e5) = {v:.8f} vs certified limit {lim.value:.8f} "
        f"(rel {rel:.2e}, band 1%)",
    )


def test_a04b_critical_variance_band():
    # Measured: 0.768913 / 0.727629 / 0.700108 against the 0.5625 limit.
    # The gap decays like ~1.9/log n, so the 10% band needs n ~ 1e14; at the
    # stated n = 1e6 the gap is 24.5% and this check fails. The monotone
    # half holds.
    model = fgn(0.75)
    regime = regime_for(model, 2)
    vals = [sigma_n_squared(model, 2, n, regime) for n in (10**4, 10**5, 10**6)]
    limit = sigma_limit(model, 2).value
    gaps = [abs(v - limit) for v in vals]
    monotone = gaps[0] > gaps[1] > gaps[2]
    rel = gaps[-1] / limit
    ok = monotone and rel <= 0.10
    assert _verdict(
        "04b critical variance band",
        ok,
        f"sigma_n^2 = {vals[0]:.6f}/{vals[1]:.6f}/{vals[2]:.6f} -> limit "
        f"{limit} (monotone {monotone}, final rel gap {rel:.4f}, band 10%)",
    )


def test_a05_weighted_cf_statistic_exactness():
    worst = 0.0
    for H in (0.2, 0.5, 0.8):
        spec = FbmScaled(H)
        # One block of 500 series at a time; each row's delta equals its
        # path's own.
        blocks = [build_gseries(sample_ensemble(spec.model, 1 << 10, _seed(5), 500, first), spec)
                  for first in range(0, 5000, 500)]
        for t in (0.5, 1.0, 2.0):
            sq = np.abs(np.concatenate([delta_stat(g, t) for g in blocks])) ** 2
            stderr = sq.std(ddof=1) / np.sqrt(sq.size)
            exact = exact_gaussian_delta_sq(spec, 1 << 10, t)
            worst = max(worst, abs((float(sq.mean()) - exact) / float(stderr)))
    assert _verdict(
        "05 averaged-cf second moment, MC vs exact",
        worst <= 4.0,
        f"max |z| = {worst:.3f} over H in (0.2,0.5,0.8), t in (0.5,1,2), "
        f"5000 replicates (limit 4)",
    )


def test_a06_ks_trend_scaled_fbm():
    # H=0.2 and H=0.5 pass both halves (finals 0.160 and 0.170). For H=0.8
    # the medians still decrease strictly but the final one is ~0.295 at
    # n = 2^20 (0.3028 +/- 0.020 with 100 seeds, 0.2686 at 2^22): the 0.25
    # ceiling is first reachable near n = 2^24, so this check fails.
    finals = {}
    ok = True
    for H in (0.2, 0.5, 0.8):
        med = _ks_medians(FbmScaled(H), _seed(6))
        finals[H] = med[-1]
        ok = ok and bool(np.all(np.diff(med) < 0)) and med[-1] <= 0.25
    assert _verdict(
        "06 weighted-KS trend, scaled fbm",
        ok,
        "final medians "
        + ", ".join(f"H={H}: {v:.4f}" for H, v in finals.items())
        + " (strict decrease + final <= 0.25 for each H)",
    )


def test_a07_ks_trend_subcritical():
    med = _ks_medians(HermiteVariation(fgn(0.3), 2), _seed(7))
    trend_ok = bool(np.all(np.diff(med) < 0)) and med[-1] <= 0.25
    ns = [1 << k for k in range(6, 15)]
    vals = [contraction_norm_sq(fgn(0.3), 2, 1, n).value for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(vals), 1)[0])
    assert _verdict(
        "07 weighted-KS trend, subcritical order-2 sums",
        trend_ok and slope < 0.0,
        f"medians {med[0]:.4f}/{med[1]:.4f}/{med[2]:.4f}, "
        f"contraction decay slope {slope:.4f}",
    )


def test_a08_critical_boundedness_and_trend():
    ns = [1 << k for k in range(8, 15)]
    scaled = [
        contraction_norm_sq(fgn(0.75), 2, 1, n).value * np.log(n) for n in ns
    ]
    ratio = max(scaled) / min(scaled)
    med = _ks_medians(HermiteVariation(fgn(0.75), 2), _seed(8))
    assert _verdict(
        "08 critical contraction boundedness + KS trend",
        ratio <= 2.0 and bool(np.all(np.diff(med) < 0)),
        f"contraction*log n in [{min(scaled):.4f}, {max(scaled):.4f}] "
        f"(ratio {ratio:.3f}), medians {med[0]:.4f}/{med[1]:.4f}/{med[2]:.4f}",
    )


def test_a09a_supercritical_second_moment():
    v = zn_second_moment(2, 0.9, 1 << 14)
    rel = abs(v - 2.16) / 2.16
    assert _verdict(
        "09a supercritical second moment",
        rel <= 0.02,
        f"E[Z^2] at n=2^14 = {v:.6f} vs 2.16 (rel {rel:.2e}, band 2%)",
    )


def test_a09b_dyadic_cauchy_decrease():
    levels = [8, 10, 12, 14, 16]
    diffs = []
    for rep in range(50):
        grid = sample_fbm_grid(0.9, 1 << 16, _seed(9) + 1, rep)
        z = zn_dyadic(grid, 2, levels)
        diffs.append(np.abs(np.diff(z)))
    med = np.median(np.array(diffs), axis=0)
    assert _verdict(
        "09b dyadic Cauchy decrease",
        bool(np.all(np.diff(med) < 0)),
        "median |Z_{2^(J+2)} - Z_{2^J}| = "
        + "/".join(f"{m:.4f}" for m in med)
        + " over 50 seeds",
    )


def test_a09c_regime_spread_separation():
    # Measured ratio ~1.06 at this seed (1.19 at another): the subcritical
    # spread decays only like 1/sqrt(log n), so a 5x gap needs n ~ 1e10 and
    # this check fails at n = 2^16. Direction (ratio > 1, growing in n) is
    # correct.
    stds = {}
    for name, H in (("sup", 0.9), ("sub", 0.3)):
        spec = HermiteVariation(fgn(H), 2)
        vals = []
        for rep in range(50):
            path = sample_stationary(spec.model, 1 << 16, _seed(9), rep)
            vals.append(harmonic_weighted_mean(np.arctan(build_gseries(path, spec).values)))
        stds[name] = float(np.std(vals, ddof=1))
    ratio = stds["sup"] / stds["sub"]
    assert _verdict(
        "09c regime spread separation",
        ratio >= 5.0,
        f"across-seed std sup {stds['sup']:.4f} vs sub {stds['sub']:.4f} "
        f"at n=2^16 (ratio {ratio:.3f}, required >= 5)",
    )


def test_a10_derivative_identities():
    spec = HermiteVariation(fgn(0.3), 2)
    paths = sample_ensemble(fgn(0.3), 1 << 12, _seed(10), 200)
    records = [malliavin_sample(p, spec, with_d2g=False) for p in paths]
    vals = np.array([r.dg_norm_sq / 2 for r in records])
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    z = (vals.mean() - 1.0) / se
    cf_ok = True
    for t in (0.5, 1.0, 2.0):
        gap = cf_gap_bound(spec, records, t)
        cf_ok = cf_ok and gap.gap_mc <= gap.bound + 4.0 * gap.gap_se
    rows = gebelein_check(
        [lag_covariances(p, np.arctan, range(21))
         for p in sample_ensemble(fgn(0.7), 1 << 11, _seed(10) + 1, 200)],
        np.arctan,
        range(21),
    )
    geb_ok = all(r.holds for r in rows)
    assert _verdict(
        "10 derivative-norm and cf-gap identities",
        abs(z) <= 4.0 and cf_ok and geb_ok,
        f"|DG|^2/q z = {z:.3f}, cf gaps within bound: {cf_ok}, "
        f"correlation-bound rows 0..20 hold: {geb_ok}",
    )


def test_a11_report_reproducibility(tmp_path):
    doc = {
        "schema_version": 1,
        "experiment": "delta_exactness",
        "model": {"H": 0.8},
        "n_max": 128,
        "n_grid": [128],
        "seeds": {"master_seed": ASEED, "replicates": 200},
        "t_grid": [1.0],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        rc = cli_main(
            ["run", "--config", str(cfg), "--out", str(out),
             "--workers", str(workers)]
        )
        assert rc == 0
        outs.append((out / "report.json").read_bytes())
    assert _verdict(
        "11 report reproducibility across worker counts",
        outs[0] == outs[1],
        f"report.json byte-identical for workers 1 vs 2 "
        f"({len(outs[0])} bytes)",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-v"]))
