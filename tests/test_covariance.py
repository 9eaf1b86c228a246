"""Covariance model oracles: closed forms, telescoping identities, tails."""

from __future__ import annotations

import decimal
import math

import numpy as np
import pytest

from asclt_lab.covariance import (
    CovarianceModel,
    DivergentTailError,
    _summed_fgn_tail,
    abs_rho_power_sum,
    abs_rho_power_tail,
    fgn,
    iid,
    power_tail_summable,
    rho_many,
    signed_rho_power_sum,
    symmetric_toeplitz,
    table,
)
from oracles import rho, rho_asymptotic

H_GRID = [0.1, 0.25, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99]


def direct_second_difference(H: float, r: int) -> float:
    # Textbook form, evaluated naively; loses precision for large r.
    return 0.5 * (
        (r + 1.0) ** (2 * H) + abs(r - 1.0) ** (2 * H) - 2.0 * float(r) ** (2 * H)
    )


def highprec_rho(H: float, r: int) -> float:
    # 60-digit oracle via decimal exp/ln, immune to cancellation.
    decimal.getcontext().prec = 60
    two_h = decimal.Decimal(2) * decimal.Decimal(repr(H))

    def p(x: int) -> decimal.Decimal:
        if x == 0:
            return decimal.Decimal(0)
        return (two_h * decimal.Decimal(x).ln()).exp()

    val = (p(r + 1) + p(abs(r - 1)) - 2 * p(r)) / 2
    return float(val)


def test_rho_at_zero_is_one():
    for H in H_GRID:
        assert rho(fgn(H), 0) == 1.0
    assert rho(iid(), 0) == 1.0
    assert rho(table({0: 1.0, 2: -0.3}), 0) == 1.0


def test_half_hurst_vanishes_off_zero():
    assert rho(fgn(0.5), 3) == 0.0
    assert np.all(rho_many(fgn(0.5), np.arange(1, 200)) == 0.0)
    # Large lags go through the series branch and must still be exactly 0.
    assert rho(fgn(0.5), 10**6) == 0.0


def test_lag_one_closed_forms():
    assert rho(fgn(0.75), 1) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-14)
    assert rho(fgn(0.3), 1) == pytest.approx(2.0**-0.4 - 1.0, abs=1e-14)
    # General identity rho(1) = 2^{2H-1} - 1.
    for H in H_GRID:
        assert rho(fgn(H), 1) == pytest.approx(2.0 ** (2 * H - 1) - 1.0, abs=1e-13)


def test_symmetry_exact():
    lags = np.unique(np.logspace(0, 4, 40).astype(int))
    for model in (iid(), fgn(0.3), fgn(0.75), table({0: 1.0, 1: 0.2, 5: -0.1})):
        assert np.all(rho_many(model, lags) == rho_many(model, -lags))


def test_iid_matches_half_hurst_exactly():
    lags = np.arange(-50, 51)
    assert np.array_equal(rho_many(iid(), lags), rho_many(fgn(0.5), lags))


def test_negative_correlations_below_half():
    for H in (0.1, 0.3, 0.45):
        vals = rho_many(fgn(H), np.arange(1, 2000))
        assert np.all(vals < 0.0)


def test_series_branch_against_highprec_oracle():
    """Large-lag evaluation must agree with a 60-digit reference."""
    for H in (0.1, 0.3, 0.6, 0.75, 0.9, 0.99):
        for r in (33, 64, 1000, 10**6):
            got = rho(fgn(H), r)
            want = highprec_rho(H, r)
            assert got == pytest.approx(want, rel=1e-13), (H, r)


def test_series_branch_continuity_with_direct():
    # Around the branch switch both evaluations are accurate.
    for H in (0.2, 0.7, 0.9):
        for r in range(30, 40):
            assert rho(fgn(H), r) == pytest.approx(
                direct_second_difference(H, r), rel=5e-12
            )


def test_telescoping_partial_sums():
    """sum_{|r|<=R} rho(r) = (R+1)^{2H} - R^{2H}, any H."""
    for H in (0.1, 0.3, 0.4, 0.75):
        for R in (10, 1000, 10**5):
            direct = 1.0 + 2.0 * float(np.sum(rho_many(fgn(H), np.arange(1, R + 1))))
            ident = (R + 1.0) ** (2 * H) - float(R) ** (2 * H)
            assert direct == pytest.approx(ident, rel=1e-11, abs=1e-9)


def test_zero_sum_at_million_lags():
    # Partial sums telescope, so the full window sum is evaluated exactly.
    R = 10**6
    for H in (0.1, 0.2, 0.25):
        window = (R + 1.0) ** (2 * H) - float(R) ** (2 * H)
        assert abs(window) <= 1e-3, H
    # Slower decay: above the hard threshold at this R but still shrinking.
    for H in (0.3, 0.4):
        windows = [
            (R_ + 1.0) ** (2 * H) - float(R_) ** (2 * H) for R_ in (10**4, 10**5, R)
        ]
        assert windows[0] > windows[1] > windows[2] > 0.0


def test_asymptotic_frozen_value():
    assert rho_asymptotic(0.9, 10) == pytest.approx(
        0.72 * 10.0**-0.2, abs=1e-15
    )
    assert rho_asymptotic(0.9, 10) == pytest.approx(0.4542892880257392, abs=1e-13)


def test_asymptotic_ratio_near_one():
    for H in (0.6, 0.75, 0.9):
        for r in (100, 316, 1000, 10**4, 10**9):
            ratio = rho(fgn(H), r) / rho_asymptotic(H, r)
            assert 0.99 <= ratio <= 1.01, (H, r)


def test_asymptotic_rejects_zero_lag_and_half():
    with pytest.raises(ValueError):
        rho_asymptotic(0.75, 0)
    assert rho_asymptotic(0.5, 7) == 0.0


def test_summability_classification():
    assert power_tail_summable(fgn(0.3), 1)
    assert power_tail_summable(fgn(0.7), 2)  # (2-1.4)*2 = 1.2 > 1
    assert not power_tail_summable(fgn(0.75), 2)  # boundary: exactly 1
    assert not power_tail_summable(fgn(0.9), 1)
    assert not power_tail_summable(fgn(0.9), 2)
    assert power_tail_summable(iid(), 1)


def test_divergent_tail_errors():
    with pytest.raises(DivergentTailError):
        abs_rho_power_tail(fgn(0.9), 1, 0)
    with pytest.raises(DivergentTailError):
        abs_rho_power_tail(fgn(0.75), 2, 10)
    with pytest.raises(DivergentTailError):
        signed_rho_power_sum(fgn(0.9), 2)


def test_iid_tail_is_zero():
    t = abs_rho_power_tail(iid(), 2, 0)
    assert t.value == 0.0 and t.remainder_bound == 0.0


def test_q1_tail_closed_form():
    # Two-sided |rho| tail for H < 1/2 telescopes exactly.
    H = 0.3
    for m in (0, 1, 10, 1000):
        t = abs_rho_power_tail(fgn(H), 1, m)
        assert t.value == pytest.approx(
            (m + 1.0) ** (2 * H) - float(m) ** (2 * H), abs=1e-15
        )
        assert t.remainder_bound == 0.0
    # Cross-check by direct summation to 10^6 plus the exact remaining tail.
    m = 10
    direct = 2.0 * float(np.sum(np.abs(rho_many(fgn(H), np.arange(m + 1, 10**6)))))
    remaining = (10.0**6) ** (2 * H) - (10.0**6 - 1.0) ** (2 * H)
    t = abs_rho_power_tail(fgn(H), 1, m)
    assert t.value == pytest.approx(direct + remaining, abs=1e-9)


def test_q1_signed_sum_is_zero():
    t = signed_rho_power_sum(fgn(0.3), 1)
    assert t.value == 0.0 and t.remainder_bound == 0.0


def test_abs_sum_h_below_half_q1_is_two():
    t = abs_rho_power_sum(fgn(0.42), 1)
    assert t.value == pytest.approx(2.0, abs=1e-14)


def test_tail_decreasing_in_m():
    vals = [abs_rho_power_tail(fgn(0.3), 2, m).value for m in (0, 10, 100)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_tail_consistency_head_plus_tail():
    # tail(0) = 2*sum_{1..m}|rho|^q + tail(m), within certified remainders.
    model, q, m = fgn(0.6), 3, 50
    head = 2.0 * float(np.sum(np.abs(rho_many(model, np.arange(1, m + 1))) ** 3))
    t0 = abs_rho_power_tail(model, q, 0)
    tm = abs_rho_power_tail(model, q, m)
    slack = t0.remainder_bound + tm.remainder_bound + 1e-13
    assert abs(t0.value - (head + tm.value)) <= slack


def test_remainder_bound_is_sound():
    # Force an early cutoff, then check the bound covers the missing mass.
    model, q = fgn(0.55), 4
    coarse = _summed_fgn_tail(model, q, 0, 1e-30, 8192, signed=False)
    assert coarse.cutoff == 8192
    deep = 2.0 * float(
        np.sum(np.abs(rho_many(model, np.arange(1, 2 * 10**6))) ** q)
    )
    assert deep >= coarse.value - 1e-15
    assert deep - coarse.value <= coarse.remainder_bound


def test_signed_equals_abs_plus_origin_for_positive_rho():
    # H > 1/2: every rho(r) > 0, so the signed and absolute sums agree.
    s = signed_rho_power_sum(fgn(0.6), 3)
    a = abs_rho_power_tail(fgn(0.6), 3, 0)
    assert s.value == pytest.approx(1.0 + a.value, rel=1e-12)


def test_table_model_lookup_and_support():
    m = table({0: 1.0, 1: 0.25, 3: -0.5})
    assert rho(m, 1) == 0.25
    assert rho(m, -3) == -0.5
    assert rho(m, 2) == 0.0
    assert rho(m, 100) == 0.0
    t = abs_rho_power_tail(m, 2, 1)
    assert t.value == pytest.approx(2 * 0.25, abs=1e-15)  # only lag 3 survives


def test_table_model_validation():
    with pytest.raises(ValueError):
        table({1: 0.5})  # missing rho(0)=1
    with pytest.raises(ValueError):
        table({0: 1.0, 2: 1.5})  # |rho| > 1
    with pytest.raises(ValueError):
        CovarianceModel(kind="fgn", H=1.0)
    with pytest.raises(ValueError):
        CovarianceModel(kind="sparse")


def test_symmetric_toeplitz_matches_scipy():
    from scipy.linalg import toeplitz

    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 2048):
        for col in (rho_many(fgn(0.7), np.arange(n)), rng.standard_normal(n)):
            got = symmetric_toeplitz(col)
            assert np.array_equal(got, toeplitz(col)), n
            assert got.flags.c_contiguous and got.flags.writeable
