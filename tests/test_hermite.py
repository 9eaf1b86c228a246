"""Hermite evaluation and expansion against Gaussian-moment oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from asclt_lab.covariance import fgn
from asclt_lab.hermite import (
    ConstantFunctionError,
    _first_active_order,
    _quad_rule,
    derivative_coeffs,
    evaluate_expansion,
    expand,
    hermite_design_matrix,
    hermite_eval,
    resolve_test_function,
)
from asclt_lab.sequences import GeneralF
from oracles import evaluate_expansion_design


def test_low_order_values():
    assert hermite_eval(1, 2.0) == 2.0
    assert hermite_eval(2, 2.0) == 3.0
    assert hermite_eval(3, 2.0) == 2.0  # 8 - 6
    assert hermite_eval(0, -7.3) == 1.0


def test_closed_forms_on_grid():
    x = np.linspace(-10.0, 10.0, 401)
    assert np.allclose(hermite_eval(1, x), x, atol=1e-12)
    assert np.allclose(hermite_eval(2, x), x**2 - 1.0, atol=1e-12)
    assert np.allclose(hermite_eval(3, x), x**3 - 3.0 * x, atol=1e-12)
    assert np.allclose(hermite_eval(4, x), x**4 - 6.0 * x**2 + 3.0, atol=1e-11)


def test_order_bounds():
    with pytest.raises(ValueError):
        hermite_eval(61, 0.0)
    with pytest.raises(ValueError):
        hermite_eval(-1, 0.0)
    assert np.isfinite(hermite_eval(60, 3.0))


def test_design_matrix_matches_single_orders():
    x = np.linspace(-4, 4, 17)
    m = hermite_design_matrix(8, x)
    for q in range(9):
        assert np.array_equal(m[q], hermite_eval(q, x))


def test_orthonormality_under_quadrature():
    """Normalized: |E[(H_p/sqrt(p!)) (H_q/sqrt(q!))] - delta_pq| <= 1e-10.

    The raw moments E[H_p H_q] reach 20! ~ 2.4e18, where a 1e-10 absolute
    bound is below one ulp; the scale-free statement is the testable one.
    """
    qmax = 20
    x, w = _quad_rule(2 * qmax + 16)
    hmat = hermite_design_matrix(qmax, x)
    norms = np.array([math.sqrt(math.factorial(q)) for q in range(qmax + 1)])
    for p in range(qmax + 1):
        for q in range(p, qmax + 1):
            raw = math.fsum(w * hmat[p] * hmat[q])
            normed = raw / (norms[p] * norms[q])
            want = 1.0 if p == q else 0.0
            assert abs(normed - want) <= 1e-10, (p, q)


def test_expand_pure_hermite():
    exp = expand(lambda x: hermite_eval(3, x), qmax=5)
    c = np.array(exp.coeffs)
    assert c[3] == pytest.approx(1.0, abs=1e-12)
    mask = np.ones(6, dtype=bool)
    mask[3] = False
    assert np.all(np.abs(c[mask]) <= 1e-12)
    assert exp.rank == 3


def test_expand_square():
    exp = expand(lambda x: x**2, qmax=4)
    assert exp.coeffs[0] == pytest.approx(1.0, abs=1e-13)
    assert exp.coeffs[2] == pytest.approx(1.0, abs=1e-13)
    assert abs(exp.coeffs[1]) <= 1e-13 and abs(exp.coeffs[3]) <= 1e-13
    assert exp.var_fN == pytest.approx(2.0, rel=1e-12)  # Var(N^2) = 2
    assert exp.tail_bound <= 1e-10
    assert exp.rank == 2


def test_expand_quartic_gaussian_moments():
    # x^4 = 3 H_0 + 6 H_2 + H_4; Var = 96 from E N^8 = 105.
    exp = expand(lambda x: x**4, qmax=6)
    assert exp.coeffs[0] == pytest.approx(3.0, rel=1e-12)
    assert exp.coeffs[2] == pytest.approx(6.0, rel=1e-12)
    assert exp.coeffs[4] == pytest.approx(1.0, rel=1e-11)
    assert exp.var_fN == pytest.approx(96.0, rel=1e-12)
    assert exp.tail_bound <= 1e-8


def test_expand_arctan_parseval():
    exp = expand(np.arctan, qmax=20)
    facts = np.array([math.factorial(q) for q in range(21)], dtype=float)
    captured = float(np.sum((np.asarray(exp.coeffs) ** 2 * facts)[1:]))
    assert captured <= exp.var_fN + 1e-12
    assert abs(exp.var_fN - captured) <= max(1e-8, exp.tail_bound + 1e-12)
    assert exp.rank == 1
    # Odd function: even coefficients vanish.
    even = [abs(exp.coeffs[q]) for q in range(0, 21, 2)]
    assert max(even) <= 1e-10


def test_even_function_has_no_odd_coeffs():
    exp = expand(lambda x: x**4, qmax=9)
    odd = [abs(exp.coeffs[q]) for q in range(1, 10, 2)]
    assert max(odd) <= 1e-10


def test_rank_of_centered_quartic():
    exp = expand(lambda x: x**4 - 3.0, qmax=6)
    assert abs(exp.coeffs[0]) <= 1e-12
    assert exp.rank == 2


def test_constant_function_rejected():
    exp = expand(lambda x: np.full_like(x, 5.0), qmax=4)
    assert exp.rank == 0
    with pytest.raises(ConstantFunctionError):
        GeneralF(fgn(0.3), exp)


def test_rank_with_explicit_tolerance():
    exp = expand(lambda x: 1e-6 * x + hermite_eval(2, x), qmax=4)
    assert exp.rank == 1
    assert _first_active_order(exp.coeffs, 1e-8) == 1
    assert _first_active_order(exp.coeffs, 1e-3) == 2


def test_non_finite_f_rejected():
    with pytest.raises(ValueError):
        expand(lambda x: np.where(np.abs(x) > 5.0, np.nan, x), qmax=4)


def test_derivative_coeffs():
    exp = expand(lambda x: x**2, qmax=4)
    d = derivative_coeffs(exp)
    # f' = 2x = 2 H_1: index p holds the H_p coefficient of f'.
    assert d[1] == pytest.approx(2.0, abs=1e-12)
    assert abs(d[0]) <= 1e-12 and abs(d[2]) <= 1e-12
    exp4 = expand(lambda x: x**4, qmax=6)
    d4 = derivative_coeffs(exp4)
    assert d4[1] == pytest.approx(12.0, rel=1e-11)  # 4x^3 = 4 H_3 + 12 H_1
    assert d4[3] == pytest.approx(4.0, rel=1e-11)


def test_evaluate_expansion_round_trip():
    f = lambda x: 0.5 * x**2 + 0.25 * x
    exp = expand(f, qmax=6)
    x = np.linspace(-3, 3, 31)
    assert np.allclose(evaluate_expansion(exp.coeffs, x), f(x), atol=1e-11)


def test_evaluate_expansion_matches_design_matrix_oracle():
    # Bound fixed before the test was written: |got - oracle| <= 1e-12 *
    # sum_q |c_q H_q(x)| at every x, orders up to 20, |x| <= 8. Both sides
    # share the recurrence's H_q; only the order of the sum differs.
    rng = np.random.default_rng(31)
    x = np.concatenate([np.linspace(-8.0, 8.0, 4001), rng.uniform(-8.0, 8.0, 4000),
                        [0.0, -0.0, 8.0, -8.0]])
    cases = [np.asarray(expand(np.arctan, qmax=9).coeffs), np.zeros(4), np.array([2.5])]
    for qmax in (1, 2, 5, 9, 14, 20):
        for _ in range(3):
            c = rng.standard_normal(qmax + 1) / np.sqrt(
                [math.factorial(q) for q in range(qmax + 1)])
            c[rng.random(qmax + 1) < 0.3] = 0.0  # zero coefficients are skipped
            cases.append(c)
    for c in cases:
        got = evaluate_expansion(c, x)
        want = evaluate_expansion_design(c, x)
        scale = np.abs(c[:, None] * hermite_design_matrix(c.size - 1, x)).sum(axis=0)
        assert got.shape == x.shape
        assert np.all(np.abs(got - want) <= 1e-12 * scale), c.size


def test_evaluate_expansion_is_elementwise():
    # Each output depends on its own x alone: prefixes, 2-D blocks and
    # scalars give the bits of the full evaluation.
    c = expand(np.arctan, qmax=9).coeffs
    x = np.random.default_rng(37).standard_normal(3467) * 2.0
    full = evaluate_expansion(c, x)
    for n in (1, 2, 3, 7, 31, 257, 1023, 3467):
        assert np.array_equal(evaluate_expansion(c, x[:n]), full[:n]), n
    block = evaluate_expansion(c, x[:3400].reshape(34, 100))
    assert np.array_equal(block.ravel(), full[:3400])
    assert evaluate_expansion(c, x[5]) == full[5]


def test_resolve_test_function():
    x = np.array([0.5, -1.0])
    assert np.array_equal(resolve_test_function("square")(x), x**2)
    assert np.array_equal(resolve_test_function("quartic")(x), x**4)
    assert np.allclose(resolve_test_function("arctan")(x), np.arctan(x))
    assert np.allclose(
        resolve_test_function("hermite:3")(x), hermite_eval(3, x)
    )
    with pytest.raises(ValueError):
        resolve_test_function("cubic")
