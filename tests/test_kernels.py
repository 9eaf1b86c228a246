"""Kernel algebra: the bordering lag-sum pass against brute-force and dense
oracles, plus the dense Gram-metric kernel identities of those oracles."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asclt_lab import kernels
from asclt_lab.covariance import fgn, iid, rho_many, table
from asclt_lab.kernels import (
    _bordering_pass,
    _lag_sum_prefix,
    _pass_table_size,
    _powers,
    _prefix_sums,
    contraction_norm_sq,
    hermite_sum_variance,
    pair_lag_sum,
    v2_prefix,
)
from asclt_lab.sequences import geometric_grid
from oracles import (
    contract_sum_bruteforce,
    contract_sum_dense,
    contraction_bruteforce,
    dense_contract,
    dense_inner,
    dense_kernel,
    dense_norm_sq,
    diagonal_kernel,
    gram_matrix,
    kernel_inner,
    neumaier_prefix_sums,
    rho,
    v2_exact_prefix,
    v2_fsum,
)

MODELS = [iid(), fgn(0.3), fgn(0.75)]
# MA(2) autocorrelation, so Toeplitz(rho^s) is positive semidefinite.
TABLE = table({0: 1.0, 1: 0.5, 2: 0.2})
# Fixed before the oracle tests were written: the lag-sum evaluator must
# match the dense matmul to this relative accuracy.
DENSE_REL_TOL = 1e-12


def test_hermite_sum_variance_iid():
    for q in (1, 2, 3):
        for n in (1, 7, 100):
            assert hermite_sum_variance(iid(), q, n) == math.factorial(q) * n


# Fixed before the oracle test was written: every E[V_k^2] table entry is
# within this relative distance of the once-rounded sum of its float terms.
V2_REL_TOL = 1e-14
V2_CASES = [(fgn(H), q) for H, q in ((0.3, 1), (0.3, 2), (0.3, 3), (0.75, 2), (0.9, 1),
                                      (0.9, 2), (0.6, 3), (0.3, 9))] + [(iid(), 3), (TABLE, 2)]


@pytest.mark.parametrize("model, q", V2_CASES,
                         ids=[f"{m.kind}{m.H or ''}-q{q}" for m, q in V2_CASES])
def test_v2_table_matches_fsum_oracle(model, q):
    table_ = v2_prefix.__wrapped__(model, q, 1 << 20)
    exact = v2_exact_prefix(model, q, 4096)
    assert np.max(np.abs(table_[:4096] / exact - 1.0)) <= V2_REL_TOL
    for k in (1, 2, 37, 4096):
        assert exact[k - 1] == v2_fsum(model, q, k)
    for k in (65537, 1 << 20):
        assert abs(table_[k - 1] / v2_fsum(model, q, k) - 1.0) <= V2_REL_TOL, k


def test_v2_prefix_matches_scalar_calls():
    # hermite_sum_variance builds the same prefix-stable table to n.
    model, q = fgn(0.75), 2
    pref = v2_prefix(model, q, 40)
    for k in (1, 2, 3, 17, 40):
        assert hermite_sum_variance(model, q, k) == pref[k - 1]
    with pytest.raises(ValueError):
        hermite_sum_variance(model, q, 0)


SINGLE_READ_MODELS = [fgn(H) for H in (0.3, 0.5, 0.75, 0.9)] + [iid(), TABLE]


@pytest.mark.parametrize("model", SINGLE_READ_MODELS,
                         ids=[f"{m.kind}{m.H or ''}" for m in SINGLE_READ_MODELS])
def test_single_read_is_bit_equal_to_table_entry(model):
    # hermite_sum_variance streams the chunks that the table joins, carrying
    # both compensated prefix sums across chunk boundaries. Its value must be
    # the bits of the table entry, and of the two prefix sums taken over the
    # whole of rho^q in one call each.
    chunk = kernels._POWER_CHUNK
    ns = (1, chunk - 1, chunk, chunk + 1, 2 * chunk, 3 * chunk + 5)
    for q in (1, 2, 3, 4):
        table_ = v2_prefix.__wrapped__(model, q, ns[-1])
        p = _powers(model, q, ns[-1])
        p[1:] *= 2.0
        whole = math.factorial(q) * _prefix_sums(_prefix_sums(p)[0])[0]
        assert np.array_equal(table_, whole), q
        for n in ns:
            assert hermite_sum_variance(model, q, n) == table_[n - 1], (q, n)


def test_single_read_memory_is_per_chunk():
    # One read at 2^22 holds O(_POWER_CHUNK) temporaries, not a table: at
    # most 4 bytes per point under tracemalloc.
    n = 1 << 22
    tracemalloc.start()
    try:
        hermite_sum_variance(fgn(0.75), 2, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n, peak / n


def test_powers_match_pow():
    # The square-and-multiply chain rounds (q - 1) products at most, against
    # one rounding for pow; subnormal powers are compared absolutely.
    for model in (fgn(0.3), fgn(0.9), TABLE, iid()):
        rho_ = rho_many(model, np.arange(5000))
        for q in range(1, 41):
            np.testing.assert_allclose(_powers(model, q, 5000), rho_**q,
                                       rtol=q * 2.3e-16, atol=1e-300)


def test_v2_prefix_cache_is_read_only():
    model, q = fgn(0.3), 3
    first = v2_prefix(model, q, 50)
    expect = first.copy()
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    with pytest.raises(ValueError):
        first += 1.0
    again = v2_prefix(model, q, 50)
    assert again is first
    assert np.array_equal(again, expect)


def test_pair_lag_sum_matches_explicit_double_sum():
    # Pairs of different sizes share power-of-two tables, in both orders.
    pairs = [(1, 1), (1, 7), (7, 1), (3, 5), (5, 3), (8, 8), (9, 4), (4, 13), (13, 13)]
    for model in (fgn(0.3), fgn(0.8), iid(), TABLE):
        for q in (1, 2, 3):
            for k, l in pairs:
                direct = math.fsum(
                    rho(model, i - j) ** q for i in range(1, k + 1) for j in range(1, l + 1)
                )
                got = pair_lag_sum(model, (q,), k, l)[0]
                assert got == pytest.approx(direct, rel=1e-13, abs=1e-15), (model, q, k, l)
                assert pair_lag_sum(model, (q,), k, l)[0] == got


def test_pair_lag_sum_orders_share_one_lag_build():
    # Several orders from one lags/counts build give, bit for bit, the floats
    # of one call per order, in any order of the orders.
    orders = (1, 3, 5, 7, 9)
    for model in (fgn(0.3), fgn(0.8), TABLE):
        for k, l in ((1, 1), (1, 9), (9, 1), (37, 100), (100, 37), (1000, 1000), (65, 4097)):
            got = pair_lag_sum(model, orders, k, l)
            assert got == tuple(pair_lag_sum(model, (q,), k, l)[0] for q in orders)
            assert pair_lag_sum(model, orders[::-1], k, l) == got[::-1]
    with pytest.raises(ValueError):
        pair_lag_sum(fgn(0.3), (), 2, 3)
    with pytest.raises(ValueError):
        pair_lag_sum(fgn(0.3), (1, 0), 2, 3)


def test_pair_lag_sum_accepts_grid_integers():
    grid = geometric_grid(300)
    assert grid.dtype == np.int64
    for k, l in ((grid[3], grid[-1]), (grid[-1], grid[-1]), (grid[-2], grid[5])):
        assert pair_lag_sum(fgn(0.3), (2,), k, l) == pair_lag_sum(fgn(0.3), (2,), int(k), int(l))


def test_bruteforce_iid_value():
    res = contraction_bruteforce(iid(), 2, 1, 4)
    assert res.value == pytest.approx(1.0 / 16.0, abs=1e-15)
    assert res.raw_sum == pytest.approx(4.0, abs=1e-13)
    # 1/(4n) for any n in the iid q=2 case.
    res8 = contraction_bruteforce(iid(), 2, 1, 8)
    assert res8.value == pytest.approx(1.0 / 32.0, abs=1e-15)


def test_lagsum_equals_bruteforce_on_oracle_grid():
    for model in MODELS:
        for q in (2, 3):
            for r in range(1, q):
                for n in (3, 5, 9, 12):
                    bf = contraction_bruteforce(model, q, r, n)
                    ls = contraction_norm_sq(model, q, r, n)
                    assert ls.value == pytest.approx(bf.value, abs=1e-10), (
                        model.kind, q, r, n,
                    )


@pytest.mark.parametrize("model", MODELS + [TABLE], ids=lambda m: f"{m.kind}-{m.H}")
def test_lagsum_matches_dense(model):
    # Every (q, r) on small and mid n; at n = 2^11 the exponent pairs
    # r <= q - r, since r and q - r share one evaluation.
    cases = [(n, q, r) for n in (1, 2, 3, 64, 257) for q in (2, 3, 4) for r in range(1, q)]
    cases += [(2048, q, r) for q in (2, 3, 4) for r in range(1, q) if r <= q - r]
    for n, q, r in cases:
        dense = contract_sum_dense(_powers(model, r, n), _powers(model, q - r, n), n)
        got = contraction_norm_sq(model, q, r, n).raw_sum
        assert got == pytest.approx(dense, rel=DENSE_REL_TOL), (n, q, r)


@st.composite
def _ma_tables(draw):
    """Autocorrelation of a random MA filter: always a valid covariance."""
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6)))
    energy = float(a @ a)
    if energy < 1e-3:
        a, energy = np.ones(1), 1.0
    lags = {k: float(np.clip(a[: a.size - k] @ a[k:] / energy, -1.0, 1.0))
            for k in range(1, a.size)}
    return table({0: 1.0, **lags})


def _one_pass(model, a, b, n):
    """S(1..n) from a fresh bordering pass, bypassing the pass cache."""
    size = _pass_table_size(n)
    pa = _powers(model, a, size)
    return _bordering_pass(pa, None if a == b else _powers(model, b, size), n)


@pytest.mark.parametrize("model", [fgn(0.3), fgn(0.75), fgn(0.9), iid(), TABLE],
                         ids=lambda m: f"{m.kind}-{m.H}")
def test_one_pass_matches_bruteforce_at_every_n(model):
    for q in (2, 3, 4):
        for r in range(1, q):
            S = _one_pass(model, r, q - r, 12)
            for n in range(1, 13):
                want = contract_sum_bruteforce(_powers(model, r, n), _powers(model, q - r, n), n)
                assert S[n - 1] == pytest.approx(want, rel=1e-12), (q, r, n)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    model=_ma_tables(),
    qr=st.integers(2, 4).flatmap(lambda q: st.tuples(st.just(q), st.integers(1, q - 1))),
    n=st.integers(1, 256),
)
def test_bordering_pass_matches_dense_on_random_tables(model, qr, n):
    # Every prefix of one pass, each against its own dense matmul.
    q, r = qr
    S = _one_pass(model, r, q - r, n)
    for k in range(1, n + 1):
        dense = contract_sum_dense(_powers(model, r, k), _powers(model, q - r, k), k)
        assert S[k - 1] == pytest.approx(dense, rel=DENSE_REL_TOL), k
    assert contraction_norm_sq(model, q, r, n).raw_sum == S[n - 1]


@pytest.mark.parametrize("model, a, b", [(fgn(0.75), 1, 1), (fgn(0.3), 1, 3)])
def test_pass_prefixes_do_not_depend_on_pass_length(model, a, b):
    # A value read from a longer pass equals a pass to its own n, so cached
    # reads cannot depend on which other keys a run needs.
    long = _one_pass(model, a, b, 3072)
    for n in (1, 2, 3, 7, 64, 257, 1000):
        assert np.array_equal(long[:n], _one_pass(model, a, b, n)), n


def test_lag_sum_prefix_runs_one_pass_for_smaller_n(monkeypatch):
    runs = []

    def counting(p, q, n):
        runs.append(n)
        return _bordering_pass(p, q, n)

    monkeypatch.setattr(kernels, "_bordering_pass", counting)
    model = fgn(0.6125)  # used by no other test, so no pass is held yet
    first = _lag_sum_prefix(model, 1, 2, 200)
    assert not first.flags.writeable
    values = [contraction_norm_sq(model, 3, r, n).raw_sum for n in (200, 150, 3) for r in (1, 2)]
    assert runs == [200]
    assert values == [first[199]] * 2 + [first[149]] * 2 + [first[2]] * 2
    contraction_norm_sq(model, 3, 1, 201)
    assert runs == [200, 201]


def test_failed_pass_caches_nothing(monkeypatch):
    def boom(p, q, n):
        raise RuntimeError("pass boom")

    model = fgn(0.6375)  # used by no other test, so no pass is held yet
    held = _lag_sum_prefix(model, 1, 1, 50)
    expect = held.copy()
    monkeypatch.setattr(kernels, "_bordering_pass", boom)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="pass boom"):
            contraction_norm_sq(model, 2, 1, 51)
    # The held pass still answers n <= 50 (a new pass would raise).
    assert _lag_sum_prefix(model, 1, 1, 50) is held
    assert np.array_equal(held, expect)


def test_running_sum_stays_within_one_rounding_of_fsum():
    # Increments alike in size, as the lag-sum increments are; a plain
    # cumulative sum drifts by several ulp here.
    x = np.random.default_rng(5).uniform(0.9, 1.1, 1 << 14)
    prefixes = _prefix_sums(x)[0]
    for n in (10, 100, 1000, 4096, 10000, 1 << 14):
        assert prefixes[n - 1] == pytest.approx(math.fsum(x[:n].tolist()), rel=2.3e-16), n


def test_prefix_sums_bit_equal_neumaier_loop():
    # The vectorized TwoSum errors are the exact errors a Neumaier loop
    # carries, so the two agree bit for bit, here over both signs and
    # magnitudes 1e-10..1e10 as well as over like-sized terms.
    rng = np.random.default_rng(11)
    wide = rng.standard_normal(1 << 14) * 10.0 ** rng.integers(-10, 11, 1 << 14)
    for x in (wide, rng.uniform(0.9, 1.1, 1 << 14)):
        assert np.array_equal(_prefix_sums(x)[0], neumaier_prefix_sums(x))


_BLAS_THREADS_SCRIPT = """
from hashlib import sha256
from asclt_lab.covariance import fgn
from asclt_lab.kernels import _lag_sum_prefix, contraction_norm_sq
print(contraction_norm_sq(fgn(0.75), 2, 1, 2048).raw_sum.hex(),
      sha256(_lag_sum_prefix(fgn(0.3), 1, 2, 2048).tobytes()).hexdigest())
"""


def test_lag_sum_bits_do_not_depend_on_blas_threads():
    src = str(Path(kernels.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_contraction_symmetry_in_r():
    # S(q, r) = S(q, q-r): the trace identity is symmetric under swapping P, Q.
    a = contraction_norm_sq(fgn(0.3), 3, 1, 100)
    b = contraction_norm_sq(fgn(0.3), 3, 2, 100)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_method_guards():
    with pytest.raises(ValueError):
        contraction_bruteforce(iid(), 2, 1, 13)
    with pytest.raises(ValueError):
        contraction_norm_sq(iid(), 2, 0, 8)
    with pytest.raises(ValueError):
        contraction_norm_sq(iid(), 2, 2, 8)
    with pytest.raises(ValueError):
        contraction_norm_sq(iid(), 2, 1, 0)


def test_kernel_inner_diagonal_is_inverse_factorial():
    # q! <f_n, f_n> = 1 in every regime.
    for model in MODELS:
        for q in (2, 3):
            for n in (1, 5, 64):
                got = kernel_inner(model, q, n, n)
                assert got == pytest.approx(1.0 / math.factorial(q), rel=1e-12)


def test_kernel_inner_iid_closed_form():
    assert kernel_inner(iid(), 2, 2, 8) == pytest.approx(0.25, abs=1e-14)
    # General iid identity: min(k,l)/sqrt(kl)/q!.
    for q, k, l in [(2, 3, 27), (3, 4, 9)]:
        want = min(k, l) / math.sqrt(k * l) / math.factorial(q)
        assert kernel_inner(iid(), q, k, l) == pytest.approx(want, rel=1e-13)


def test_kernel_inner_matches_bruteforce_double_sum():
    model, q, k, l = fgn(0.6), 2, 7, 11
    num = 0.0
    for i in range(1, k + 1):
        for j in range(1, l + 1):
            num += rho(model, i - j) ** q
    want = num / math.sqrt(
        hermite_sum_variance(model, q, k) * hermite_sum_variance(model, q, l)
    )
    assert kernel_inner(model, q, k, l) == pytest.approx(want, rel=1e-13)


def test_subcritical_contraction_norm_decays():
    ns = [2**e for e in range(6, 11)]
    vals = [contraction_norm_sq(fgn(0.3), 2, 1, n).value for n in ns]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert slope < 0.0


# --- dense kernels -----------------------------------------------------------


def test_dense_kernel_symmetrized():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5))
    f = dense_kernel(fgn(0.7), a)
    assert np.allclose(f.coeffs, (a + a.T) / 2.0)


def test_dense_contract_orders():
    rng = np.random.default_rng(8)
    f = dense_kernel(iid(), rng.standard_normal((4, 4)))
    g = dense_kernel(iid(), rng.standard_normal((4, 4)))
    t = dense_contract(f, g, 0)
    assert t.q == 4
    s = dense_contract(f, g, 2)
    assert isinstance(s, float)
    assert s == pytest.approx(dense_inner(f, g), rel=1e-12)
    mid = dense_contract(f, g, 1)
    assert mid.q == 2


def test_dense_tensor_product_norm_iid_disjoint_supports():
    # Disjointly supported factors under iid metric: ||f (x) g||^2 = ||f||^2 ||g||^2.
    a = np.zeros((6, 6))
    a[0, 1] = a[1, 0] = 1.0
    b = np.zeros((6, 6))
    b[3, 4] = b[4, 3] = 2.0
    f = dense_kernel(iid(), a)
    g = dense_kernel(iid(), b)
    t = dense_contract(f, g, 0)
    assert dense_norm_sq(t) == pytest.approx(
        dense_norm_sq(f) * dense_norm_sq(g), rel=1e-12
    )


def test_contr_identity_random_pairs():
    """||f (x)_1 g||^2 = <f (x)_1 f, g (x)_1 g> for order-2 kernels."""
    rng = np.random.default_rng(20240817)
    for model in MODELS + [fgn(0.7)]:
        for _ in range(25):
            f = dense_kernel(model, rng.standard_normal((5, 5)))
            g = dense_kernel(model, rng.standard_normal((5, 5)))
            lhs = dense_norm_sq(dense_contract(f, g, 1))
            rhs = dense_inner(dense_contract(f, f, 1), dense_contract(g, g, 1))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_diagonal_dense_kernel_matches_lag_machinery():
    """The dense route and the lag-sum route agree on f_n itself."""
    for model in (iid(), fgn(0.7)):
        q, n = 2, 5
        f = diagonal_kernel(model, q, n)
        assert math.factorial(q) * dense_norm_sq(f) == pytest.approx(
            1.0, abs=1e-12
        )
        got = dense_norm_sq(dense_contract(f, f, 1))
        want = contraction_bruteforce(model, q, 1, n).value
        assert got == pytest.approx(want, rel=1e-11)


def test_dense_inner_vs_kernel_inner():
    model, q = fgn(0.6), 2
    fk = diagonal_kernel(model, q, 3)
    fl_ = diagonal_kernel(model, q, 7)
    # Embed f_3 into dimension 7 to share the index set.
    t = np.zeros((7, 7))
    t[:3, :3] = fk.coeffs
    fk7 = dense_kernel(model, t)
    assert dense_inner(fk7, fl_) == pytest.approx(
        kernel_inner(model, q, 3, 7), rel=1e-12
    )


def test_gram_matrix_values():
    G = gram_matrix(fgn(0.75), 3)
    assert G[0, 0] == 1.0
    assert G[0, 1] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-14)
    assert np.allclose(G, G.T)


def test_dense_guards():
    rng = np.random.default_rng(9)
    f = dense_kernel(iid(), rng.standard_normal((4, 4)))
    g = dense_kernel(fgn(0.3), rng.standard_normal((4, 4)))
    with pytest.raises(ValueError):
        dense_contract(f, g, 1)  # different models
    h = dense_kernel(iid(), rng.standard_normal((5, 5)))
    with pytest.raises(ValueError):
        dense_contract(f, h, 1)  # different dims
    with pytest.raises(ValueError):
        dense_contract(f, f, 3)  # r > min order
    with pytest.raises(ValueError):
        dense_kernel(iid(), rng.standard_normal((3, 4)))
