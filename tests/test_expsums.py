import math
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibrecount import arith, blocks, constant, expsums, padic, verify
from fibrecount.blocks import BudgetExceededError
from fibrecount.forms import Form, Instance
from oracles import (arc_factor_row_truncated, birch_sum_single,
                     birch_table_scan, gcd_phase_sum, local_series_odd,
                     local_series_two, qsum_fallback_error)
from strategies import instances, mirrored
from test_counting import CHUNK_ARRAYS, _dense, _peak


@pytest.fixture(scope="module")
def split_squares():
    # f1 = x0^2, f2 = x1^2: one-dimensional Gauss sums in each slot
    return Instance(f1=Form(2, 2, ((1, (2, 0)),)),
                    f2=Form(2, 2, ((1, (0, 2)),)),
                    n=2, d=2, label="split-squares")


def test_birch_sum_small(split_squares):
    def birch(a1, a2, q):
        return expsums.birch_sum_table(split_squares, q)[a1 % q, a2 % q]

    assert birch(0, 0, 1) == 1
    assert abs(birch(1, 1, 2)) < 1e-12
    # sum over x0 of e(x0^2/3) is the quadratic Gauss sum 1+2e(1/3) = i sqrt3
    assert birch(1, 0, 3) == pytest.approx(3j * math.sqrt(3), abs=1e-9)


def test_birch_table_matches_literal(four_squares):
    q = 9
    S = expsums.birch_sum_table(four_squares, q)
    for (a1, a2) in ((1, 0), (2, 5), (4, 4)):
        lit = birch_sum_single(four_squares, a1, a2, q)
        assert S[a1, a2] == pytest.approx(lit, abs=1e-7)
    assert np.abs(S - birch_table_scan(four_squares, q)).max() <= 1e-9 * q ** 4


def test_birch_identities_read_the_served_tables(monkeypatch):
    # the check passes without the scan, and a block product that drops
    # the multiplicity of a repeated block fails it
    def refuse(*args):
        raise AssertionError("scanned (Z/q)^n")

    expsums._birch_table.cache_clear()
    monkeypatch.setattr(expsums, "joint_value_distribution", refuse)
    assert verify._birch_identity_check(blocks.DEFAULT_BUDGET)[0]
    real = expsums.block_tables
    monkeypatch.setattr(expsums, "block_tables", lambda *args: [
        (M, 1) for M, _ in real(*args)])
    expsums._birch_table.cache_clear()
    try:
        passed, measured, _ = verify._birch_identity_check(
            blocks.DEFAULT_BUDGET)
    finally:
        expsums._birch_table.cache_clear()
    assert not passed and "orthogonality gap" in measured \
        and "at q=2 " in measured


# ---------------------------------------------------------------------------
# stationary phase tables against the scan
# ---------------------------------------------------------------------------

# (p, m) with p = 2 up to m = 4
TABLE_GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
              (5, 1), (5, 2), (7, 1), (7, 2)]


@settings(max_examples=80)
@given(instances(), st.sampled_from(TABLE_GRID))
def test_fuzz_phase_table_equals_scan(inst, pm):
    p, m = pm
    assume(p ** (m * inst.n) <= 10**5)  # keeps the scan small
    assert np.array_equal(padic._phase_table(inst, p, m, 10**9),
                          expsums.joint_value_distribution(inst, p ** m))


def test_phase_table_quartic(quartic):
    # d = 4: the class of 0 takes M mod p^(m-4) from m = 5 on
    for p, top in ((2, 6), (3, 5)):
        for m in range(1, top + 1):
            assert np.array_equal(
                padic._phase_table(quartic, p, m, 10**9),
                expsums.joint_value_distribution(quartic, p ** m))


@pytest.mark.parametrize("scale", [1, 4])
def test_phase_table_rank_one(linked, scale):
    # f2 = 3 f1: no class has a Jacobian of rank 2, so every class waits
    # for the linear Taylor step at 2k >= m; at scale 4 the Jacobian
    # vanishes mod 4 as well
    def scaled(c):
        return Form(4, 2, tuple((c * scale * a, e)
                                for a, e in linked.f1.monomials))

    inst = Instance(f1=scaled(1), f2=scaled(3), n=4, d=2, label="rank-one")
    for p, top in ((2, 5), (3, 3), (5, 2)):
        for m in range(1, top + 1):
            assert np.array_equal(
                padic._phase_table(inst, p, m, 10**9),
                expsums.joint_value_distribution(inst, p ** m))


@pytest.mark.parametrize("p,m", [(3, 4), (7, 2)])
def test_phase_table_working_set(p, m):
    # the working set _phase_table states: its key buffer holds WORK_BLOCK
    # values here, and beside it a lift chunk of at most 7^4 = 2401
    # classes (their coordinates and a dozen per-class arrays, under 0.35
    # MiB), M, one bincount of p^(2m) and the broadcast terms of one key
    # chunk stay under two WORK_BLOCK arrays more.  Forming each key
    # chunk through fresh temporaries peaked at 1.79 and 1.82 MiB
    inst = _dense(0)
    padic._phase_table(inst, p, m, 10**9)  # warm
    assert _peak(lambda: padic._phase_table(inst, p, m, 10**9)) \
        < CHUNK_ARRAYS


def test_phase_distribution_joins_by_crt(linked, quartic):
    for inst in (linked, quartic):
        for q in (6, 12, 15):
            assert np.array_equal(
                expsums._phase_distribution(inst, q, 10**9),
                expsums.joint_value_distribution(inst, q))


def test_one_block_tables_never_scan(linked, monkeypatch):
    # 8 and 27 are the least powers of 2 and 3 whose phase tables lift a
    # class past level 1 (at 4 and 9 every class is resolved at level 1)
    def refuse(*args):
        raise AssertionError("scanned (Z/q)^n")

    expsums._birch_table.cache_clear()
    for q in (8, 27):
        with monkeypatch.context() as mp:
            mp.setattr(blocks, "residue_table", refuse)
            mp.setattr(expsums, "residue_table", refuse)
            phase = expsums.birch_sum_table(linked, q)
        assert np.array_equal(phase, birch_table_scan(linked, q))


def test_phase_table_refusals(linked):
    # the level-1 scan of 199^4 classes exceeds the budget, 2^14 is past
    # the exact float64 range at n = 4, and in one variable 2^31 is past
    # the exact int64 range of the lattice arithmetic
    with pytest.raises(BudgetExceededError, match="lift candidates"):
        expsums.birch_sum_table(linked, 199, budget=10**6)
    with pytest.raises(BudgetExceededError, match="float64"):
        expsums.birch_sum_table(linked, 2 ** 14)
    square = Form(1, 2, ((1, (2,)),))
    line = Instance(f1=square, f2=square, n=1, d=2, label="one-variable")
    with pytest.raises(BudgetExceededError, match="int64"):
        expsums.birch_sum_table(line, 2 ** 31)


def test_tables_past_the_budget_are_refused_before_allocation(four_squares):
    # one-variable blocks pass the q^(block size) volume check and stay in
    # the exact ranges, so only the q^2 entries of a table refuse: on the
    # block path, and on the phase path at a composite q (its prime-power
    # tables fit) and at a prime (its one table does not)
    square = Form(1, 2, ((1, (2,)),))
    line = Instance(f1=square, f2=square, n=1, d=2, label="one-variable")
    tracemalloc.start()
    try:
        for inst, q in ((four_squares, 60000), (line, 60000), (line, 17321)):
            with pytest.raises(BudgetExceededError,
                               match=f"a {q} x {q} table exceeds"):
                expsums.birch_sum_table(inst, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**7
    # the q-sum keeps every table to Q: 1 + 4 + 9 entries at Q = 3
    with pytest.raises(BudgetExceededError, match="keeps 14 table entries"):
        expsums.singular_series(four_squares, 3, budget=13)
    assert expsums.singular_series(four_squares, 3, budget=14).shells


def test_birch_conjugation(four_squares):
    q = 7
    S = expsums.birch_sum_table(four_squares, q)
    for a1 in range(q):
        for a2 in range(q):
            assert S[(q - a1) % q, (q - a2) % q] == \
                pytest.approx(np.conj(S[a1, a2]), abs=1e-9)


def test_twisted_sum_plain():
    assert expsums.twisted_two_squares_row(10, 1)[0] == pytest.approx(7.0)
    # every a1 of the row against the sum by its definition
    x, q = 200, 12
    sums = {a * a + b * b for a in range(15) for b in range(15)}
    ms = np.array([m for m in range(1, x + 1) if m in sums])
    row = expsums.twisted_two_squares_row(x, q)
    for a1 in range(q):
        want = np.exp(2j * np.pi * a1 * ms / q).sum()
        assert abs(row[a1] - want) <= 1e-9


def test_arc_factor_anchor_and_tail():
    # the closed form against the truncated (k, t) sum, within both errors
    for q in range(1, 61):
        row, err = expsums.arc_factor_row(q)
        trunc, tail = arc_factor_row_truncated(q, 2.0**20)
        assert np.abs(row - trunc).max() <= tail + err
    consts = arith.landau_constants()
    anchor, tail = expsums.arc_factor_row(1)
    exact = 1 / (2 * consts.c0**2)
    assert abs(anchor[0] - exact) <= 1e-15 * exact
    assert 0 < tail <= 1e-5 * exact


def test_arc_representatives_match_geometric_enumeration():
    # buckets of the finite representatives against w = 2^t k^2 with t, and
    # the exponents of the primes 3 mod 4 dividing q, run far into the tails
    for q in range(1, 121):
        fq = arith.factor(q).factors if q > 1 else ()
        ws = [1 << t for t in range(64)]
        for p, _e in fq:
            if p % 4 == 3:
                ws = [w * p ** (2 * j) for w in ws for j in range(24)]
        want, got = {}, {}
        for w in ws:
            g = gcd(w, q)
            key = (g, (w // g) % 4)
            want[key] = want.get(key, 0.0) + g / w
        for w, x in expsums._arc_representatives(q, fq):
            g = gcd(w, q)
            key = (g, (w // g) % 4)
            got[key] = got.get(key, 0.0) + g * x
        assert got.keys() == want.keys()
        for key, x in want.items():
            assert got[key] == pytest.approx(x, rel=1e-12)


def test_arc_factor_conjugation():
    for q in (3, 4, 8, 12):
        row, _ = expsums.arc_factor_row(q)
        for a1 in range(q):
            assert row[(q - a1) % q] == pytest.approx(np.conj(row[a1]),
                                                      abs=1e-12)


def test_arc_factor_bounded_by_series():
    for q in range(1, 51):
        # every term of the series is bounded by its a1 = 0 value
        row, _ = expsums.arc_factor_row(q)
        assert np.abs(row).max() <= row[0].real + 1e-12


def test_gcd_phase_sum_values():
    assert gcd_phase_sum(0, 1, 1) == pytest.approx(1.0)
    # l = 0 is excluded since gcd(0, p) = p != 1; every unit term carries
    # the weight (1 - 1/p)^(-1)
    for p, a in ((5, 1), (7, 3), (11, 2)):
        expect = -(1 - 1 / p) ** -1
        assert gcd_phase_sum(a, p, 1) == pytest.approx(expect, abs=1e-9)


def test_gcd_phase_sum_matches_literal_loop():
    def vp(m, p):
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        return v

    def literal(a, q, k):
        qfactors = [(p, vp(q, p)) for p in range(2, q + 1)
                    if q % p == 0 and all(p % r for r in range(2, p))]
        out = 0j
        for l in range(q):
            if (gcd(l, q) if l else q) != gcd(k * k, q):
                continue
            w = 1.0
            if l != 0:  # l = 0 has infinite valuation everywhere: weight 1
                for p, e in qfactors:
                    if vp(l, p) < e:
                        w *= p / (p - 1)
            out += w * np.exp(-2j * np.pi * a * l / q)
        return out

    for (a, q, k) in ((1, 9, 3), (2, 12, 2), (0, 8, 1), (3, 18, 3), (1, 5, 1)):
        assert gcd_phase_sum(a, q, k) == pytest.approx(literal(a, q, k),
                                                       abs=1e-9)


def test_gcd_phase_sum_kappa_saturation(four_squares):
    # once k^2 is divisible by q the constraint pins l = 0 and the sum is 1
    assert gcd_phase_sum(5, 9, 3) == pytest.approx(1.0)
    assert gcd_phase_sum(5, 9, 9) == pytest.approx(1.0)


def test_local_series_odd_truncation_base(four_squares):
    # the m = 0 shell is s0 = 1/(1 - 3^-2), the oracle's full kappa-series;
    # cut there, the factor's error is that shell, never 0
    ser = expsums.local_series(four_squares, 3, 0)
    assert ser.value == pytest.approx(9 / 8)
    assert ser.error_bound == pytest.approx(9 / 8)


def test_local_series_odd_shells_decay(four_squares):
    ser = expsums.local_series(four_squares, 3, 3)
    mags = [abs(s) for s in ser.shells[1:]]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    assert ser.error_kind == "heuristic"


def test_local_series_two_base_shell(four_squares):
    ser = expsums.local_series(four_squares, 2, 6)
    assert ser.shells[0].real == pytest.approx(0.5, abs=1e-9)


def test_local_series_tails_are_exact(four_squares, bilinear):
    # the truncated factors are exact rationals, as the oracle's series
    # with their kappa- and t-tails summed are
    values = (
        (expsums.local_series(four_squares, 3, 2), 137 / 72),
        (expsums.local_series(four_squares, 2, 6), 123 / 64),
        (expsums.local_series(bilinear, 2, 6), 375 / 256),
    )
    for ser, exact in values:
        assert abs(ser.value - exact) <= 1e-12


def _assert_local_series_match_the_oracle(inst, shells):
    for p, m_max in shells:
        got = expsums.local_series(inst, p, m_max)
        want = local_series_two(inst, m_max) if p == 2 \
            else local_series_odd(inst, p, m_max)
        assert len(got.shells) == len(want.shells) == m_max + 1
        for m, (a, b) in enumerate(zip(got.shells, want.shells)):
            assert abs(a - b) <= 1e-12, (inst, p, m, a, b)


def test_local_series_match_the_oracle(demo, four_squares, bilinear):
    # the prime-power q-terms against the (kappa, m) and (t, rho) series,
    # to every shell of constant.SERIES_SHELLS
    shells = tuple(constant.SERIES_SHELLS.items())
    for inst in (demo, four_squares, bilinear, _dense(0)):
        _assert_local_series_match_the_oracle(inst, shells)


@given(st.one_of(instances(), mirrored()))
def test_local_series_match_the_oracle_fuzz(inst):
    _assert_local_series_match_the_oracle(
        inst, ((2, 6), (3, 3), (7, 2)))


def test_local_series_refuses_1_mod_4(four_squares):
    # route 1 reads its factor at p = 1 mod 4 from padic
    with pytest.raises(arith.DomainError):
        expsums.local_series(four_squares, 5, 1)


def test_singular_series_first_term(four_squares):
    consts = arith.landau_constants()
    s = expsums.singular_series(four_squares, Q=1)
    assert s.value.real == pytest.approx(1 / (2 * consts.c0**2), abs=5e-3)
    s12 = expsums.singular_series(four_squares, Q=12)
    assert abs(s12.value.imag) < 1e-6


def test_singular_series_lambda0_tail_is_heuristic():
    # 14 squares split 7 + 7 with sigma bound 0: lambda0 = 1/8, and the tail
    # C Q^-lambda0 / lambda0 extrapolates C from the computed terms
    def diagonal(signs):
        return Form(14, 2, tuple((s, tuple(2 * (j == i) for j in range(14)))
                                 for i, s in enumerate(signs)))

    inst = Instance(f1=diagonal([1] * 14), f2=diagonal([1] * 7 + [-1] * 7),
                    n=14, d=2, label="squares-7-7", sigma_bound=0)
    lam = inst.lambda0()
    assert lam == 0.125
    Q = 6
    ser = expsums.singular_series(inst, Q)
    C = max(abs(t) * q ** (1 + lam) for q, t in enumerate(ser.shells, 1))
    assert ser.error_kind == "heuristic"
    assert ser.error_bound == pytest.approx(C * Q ** -lam / lam, rel=1e-12)


def test_singular_series_fallback_error_is_the_last_quarter(four_squares):
    # four_squares' sigma bound gives lambda0 < 0, so the error is the mass
    # of the terms with q > 3Q/4
    assert four_squares.lambda0() < 0
    for Q in (8, 10):
        ser = expsums.singular_series(four_squares, Q)
        assert ser.error_bound == pytest.approx(
            qsum_fallback_error(ser.shells), rel=1e-12)


def test_singular_series_factored_structure(four_squares):
    fac = constant.euler_products(four_squares, p_max=5)[0]
    parts = fac.shells[0]
    assert set(parts) == {"2", "3", "5"}
    prod = parts["2"].value * parts["3"].value * parts["5"].value
    assert fac.value == pytest.approx(prod)
