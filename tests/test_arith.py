import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibrecount import arith
from oracles import (c0_euler_product, c0_shanks, moebius,
                     ramanujan_sum_direct, two_squares_decomposition)


def trial_division(m):
    """Independent factorization oracle."""
    m = abs(m)
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return tuple(sorted(out.items()))


def test_factor_examples():
    assert arith.factor(60).factors == ((2, 2), (3, 1), (5, 1))
    assert arith.factor(60).sign == 1
    assert arith.factor(-9).factors == ((3, 2),)
    assert arith.factor(-9).sign == -1
    assert arith.factor(10**6 + 3).factors == trial_division(10**6 + 3)


def test_factor_zero_rejected():
    with pytest.raises(arith.DomainError):
        arith.factor(0)


@given(st.integers(-10**6, 10**6).filter(lambda m: m != 0))
def test_factor_roundtrip(m):
    fz = arith.factor(m)
    prod = fz.sign
    for p, e in fz.factors:
        assert arith.is_prime(p)
        prod *= p**e
    assert prod == m


@pytest.fixture
def empty_prime_table(monkeypatch):
    """factor() from an empty prime table, as in a fresh process."""
    monkeypatch.setattr(arith, "_PRIMES", np.zeros(0, dtype=np.int64))
    monkeypatch.setattr(arith, "_PRIME_LIMIT", 1)


def test_factor_matches_trial_division(empty_prime_table):
    # the table grows only to the trial bound, sqrt(16) = 4 here
    assert arith.factor(16).factors == ((2, 4),)
    assert arith._PRIME_LIMIT <= 8
    for m in range(1, 10**4 + 1):
        assert arith.factor(m).factors == trial_division(m)
    assert arith._PRIME_LIMIT <= 2 * math.isqrt(10**4)


def test_factor_table_is_factor():
    # the sieve the global-local check reads, over the check's range
    table = arith.factor_table(10**5)
    assert len(table) == 10**5 + 1 and table[0] == ()
    for m in range(1, 10**5 + 1):
        assert table[m] == arith.factor(m).factors


def test_factor_needs_no_primality_test_below_trial_limit(empty_prime_table,
                                                         monkeypatch):
    # a cofactor left when p*p > n is prime without a Miller-Rabin run
    def refuse(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(arith, "is_prime", refuse)
    assert arith.factor(2 * 99991).factors == ((2, 1), (99991, 1))
    assert arith.factor(99991**2).factors == ((99991, 2),)


def test_factor_large_semiprime(empty_prime_table):
    p, q = 1000003, 1000033
    assert arith.factor(p * q).factors == ((p, 1), (q, 1))


def test_conic_soluble_global_examples():
    assert arith.conic_soluble_global(2) == 1
    assert arith.conic_soluble_global(3) == 0
    assert arith.conic_soluble_global(45) == 1  # 45 = 36 + 9, v_3 even
    assert arith.conic_soluble_global(-4) == 0
    with pytest.raises(arith.DomainError):
        arith.conic_soluble_global(0)


def only_1mod4(r):
    """Whether every prime factor of r > 0 is 1 mod 4, from factor(r)."""
    return all(p % 4 == 1 for p, _ in arith.factor(r).factors)


def _check_decomposition(m):
    soluble = arith.conic_soluble_global(m)
    try:
        t, k, r = two_squares_decomposition(m)
        assert m == 2**t * k**2 * r
        assert only_1mod4(r)
        for p, _ in (arith.factor(k).factors if k > 1 else ()):
            assert p % 4 == 3
        assert soluble == 1
    except arith.DomainError:
        assert soluble == 0


def test_two_squares_decomposition_characterizes_indicator():
    for m in range(1, 10**4 + 1):
        _check_decomposition(m)


@given(st.integers(1, 10**5))
def test_two_squares_decomposition_sampled(m):
    _check_decomposition(m)


ONLY_1MOD4 = arith.only_1mod4_sieve(10**6)


def test_only_1mod4_examples():
    assert ONLY_1MOD4[1] and ONLY_1MOD4[65] and not ONLY_1MOD4[6]
    assert not ONLY_1MOD4[0]
    # every r against its factorization, and a short sieve is a prefix
    want = [only_1mod4(r) for r in range(1, 5001)]
    assert ONLY_1MOD4[1:5001].tolist() == want
    assert np.array_equal(arith.only_1mod4_sieve(5000), ONLY_1MOD4[:5001])


@given(st.integers(1, 1000), st.integers(1, 1000))
def test_only_1mod4_completely_multiplicative(m, k):
    assert ONLY_1MOD4[m * k] == (ONLY_1MOD4[m] and ONLY_1MOD4[k])
    assert ONLY_1MOD4[m * k] == only_1mod4(m * k)


def test_ramanujan_examples():
    assert arith.ramanujan_sum(1, 5) == 1
    assert arith.ramanujan_sum(9, 3) == -3
    assert arith.ramanujan_sum(4, 2) == -2


@given(st.integers(1, 120), st.integers(0, 200))
def test_ramanujan_formula_vs_direct(q, a):
    direct = ramanujan_sum_direct(q, a)
    exact = arith.ramanujan_sum(q, a)
    assert abs(direct - exact) < 1e-9 * max(q, 1)
    assert abs(direct.imag) < 1e-9 * max(q, 1)


def test_conic_soluble_local_examples():
    assert arith.conic_soluble_local(7, 2) == 0
    assert arith.conic_soluble_local(9, 3) == 1
    assert arith.conic_soluble_local(3, 5) == 1
    assert arith.conic_soluble_local(5, math.inf) == 1
    assert arith.conic_soluble_local(-5, math.inf) == 0
    with pytest.raises(arith.DomainError):
        arith.conic_soluble_local(0, 3)
    with pytest.raises(arith.DomainError):
        arith.conic_soluble_local(5, 6)
    with pytest.raises(arith.DomainError):  # no factor among the witnesses
        arith.conic_soluble_local(5, 73 * 79)


def test_is_prime_table_lookup_equals_miller_rabin(monkeypatch):
    arith.prime_sieve(2 * 10**4)
    lookup = [arith.is_prime(n) for n in range(2 * 10**4)]
    monkeypatch.setattr(arith, "_PRIMES", np.zeros(0, dtype=np.int64))
    assert lookup == [arith.is_prime(n) for n in range(2 * 10**4)]


def test_sieves_refuse_past_sieve_max_before_allocating():
    # a limit past SIEVE_MAX refuses before a table of limit + 1 entries
    # is allocated: the prime table, and mu, which reads the primes first
    tracemalloc.start()
    try:
        for sieve in (arith.prime_sieve, arith.moebius_sieve):
            with pytest.raises(arith.BudgetExceededError,
                               match="memory budget"):
                sieve(arith.SIEVE_MAX + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_landau_constants():
    consts = arith.landau_constants()
    assert 0.7625 <= consts.landau_K <= 0.7660
    assert consts.landau_K * math.sqrt(2) * consts.c0 == pytest.approx(
        1.0, abs=1e-15)
    assert 0 < consts.c0_error <= 8 * math.ulp(consts.c0)
    # the stated C0 lies in the bracket of its product over the primes to
    # 10^6, and matches Shanks' zeta recursion to the last digits
    lower, upper = c0_euler_product(10**6)
    assert lower <= consts.c0 <= upper
    assert abs(consts.c0 - c0_shanks()) <= 1e-15


def test_mertens_examples():
    assert arith.mertens_3mod4(4) == pytest.approx(2 / 3)
    p3 = arith.mertens_3mod4(10**3)
    p6 = arith.mertens_3mod4(10**6)
    ratio = p3 / p6
    expect = math.sqrt(math.log(10**6) / math.log(10**3))
    assert abs(ratio - expect) / expect < 0.02


def test_residue_class_parts():
    assert arith.residue_class_parts(60) == (5, 3)
    assert arith.residue_class_parts(1) == (1, 1)
    assert arith.residue_class_parts(325) == (325, 1)


def test_phi_tau_moebius():
    assert arith.euler_phi(9) == 6
    assert arith.euler_phi(1) == 1
    mu = arith.moebius_sieve(200)
    for m in range(1, 201):
        assert moebius(m) == int(mu[m])
