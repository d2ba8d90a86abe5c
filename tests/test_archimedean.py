import math
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibrecount import archimedean, blocks
from fibrecount.arith import BudgetExceededError, DomainError
from fibrecount.forms import Form, Instance
from oracles import (cbc_lattice_errors, embedded_lattice_merit, lattice_error,
                     lattice_errors, uniform_chunk)


def test_linear_slab_oracle():
    # f2 = t0 cuts the box in a flat slab: the restricted surface density
    # is exactly 2^(n-1) = 8 (f1 = sum of squares is nonnegative)
    f1 = Form(4, 2, tuple((1, tuple(2 * (i == j) for j in range(4)))
                          for i in range(4)))
    f2 = Form(4, 1, ((1, (1, 0, 0, 0)),))
    # a degree-1 f2 is no valid Instance; real_density reads f1, f2 and n
    slab = types.SimpleNamespace(f1=f1, f2=f2, n=4)
    est = archimedean.real_density(slab, samples=2 * 10**5, seed=5)
    assert abs(est.value.real - 8.0) <= 4 * est.std_error + 1e-9


def test_real_density_dual_estimators(bilinear):
    shell = archimedean.real_density(bilinear, samples=3 * 10**5, seed=2)
    fiber = archimedean.real_density_coarea(bilinear, samples=3 * 10**5,
                                            seed=2)
    sigma = math.hypot(shell.std_error, fiber.std_error)
    assert abs(shell.value.real - fiber.value.real) <= 3 * sigma


def test_real_density_frozen_value(four_squares):
    # quadrature oracle: J = int g(c)^2 dc over [0, 2] with g the density
    # of x^2+y^2 on [-1,1]^2: g = pi for c <= 1, pi - 4 acos(1/sqrt(c))
    # beyond; numerically 11.0904
    est = archimedean.real_density(four_squares, samples=10**6, seed=0)
    assert est.value.real == pytest.approx(11.0904, abs=max(
        5 * est.std_error, 0.08))


def test_determinism_and_box_max_independence(four_squares):
    a = archimedean.real_density(four_squares, samples=10**5, seed=42)
    b = archimedean.real_density(four_squares, samples=10**5, seed=42)
    assert a.value == b.value and a.rows == b.rows
    # J reads only f1, f2 and n: another label and no sigma bound
    other = Instance(f1=four_squares.f1, f2=four_squares.f2, n=4, d=2,
                     label="wide")
    c = archimedean.real_density(other, samples=10**5, seed=42)
    assert c.value == a.value


def test_shell_levels_consistent_with_extrapolation(four_squares):
    est = archimedean.real_density(four_squares, samples=10**6, seed=0)
    j0 = est.value.real
    # recover the fitted slope from the two extreme levels
    (e_a, j_a, se_a, _), (e_b, j_b, se_b, _) = est.rows[0], est.rows[-1]
    slope = (j_a - j_b) / (e_a - e_b)
    for (eps, j, se, _n) in est.rows:
        fitted = j0 + slope * eps
        assert abs(j - fitted) <= 3 * se


def test_golden_mc_values(four_squares, bilinear):
    # exact reprs pin the sample streams (keys, chunk sizes, partial last
    # chunks) and the float evaluation order of every estimator
    assert repr(archimedean.real_density(four_squares, samples=20000,
                                         seed=5).csv_rows()) == repr([
        "0.1,10.876,0.193880455952,20000,5",
        "0.05,10.86,0.201225023295,40000,5",
        "0.025,10.94,0.205581990943,80000,5",
        "0.0125,11.204,0.209836698173,160000,5",
        "0,11.0964271567,0.177005454092,300000,5"])
    # 40000 samples: the last level draws 320000 points, one full chunk of
    # 2^18 and a partial one
    assert repr(archimedean.real_density(four_squares, samples=40000,
                                         seed=5).csv_rows()) == repr([
        "0.1,10.878,0.137104806261,40000,5",
        "0.05,10.864,0.142311871606,80000,5",
        "0.025,11.014,0.145841776508,160000,5",
        "0.0125,11.09,0.147633540185,320000,5",
        "0,11.06587732,0.124986020481,600000,5"])
    # 300000 samples: 16 shifts of 4096 lattice points
    est = archimedean.real_density_coarea(bilinear, samples=300000, seed=0)
    assert (repr(est.value), repr(est.std_error)) == \
        ("(16.00127531291951+0j)", "0.014162589955703605")


def test_an_infinite_j_is_refused(quartic, demo):
    # n <= d: dA/|grad f2| ~ r^(n-d-1) dr at the cone point, so J diverges
    # (quartic: n = 3, d = 4; demo: n = d = 2)
    for inst in (quartic, demo):
        for estimator in (archimedean.real_density,
                          archimedean.real_density_coarea):
            with pytest.raises(DomainError, match="J is infinite"):
                estimator(inst, samples=3000)


def test_every_estimator_refuses_few_samples(four_squares):
    for estimate in (archimedean.real_density,
                     archimedean.real_density_coarea):
        for samples in (0, 999):
            with pytest.raises(DomainError, match="at least 1000 samples"):
                estimate(four_squares, samples=samples)


def test_every_estimator_refuses_work_beyond_its_budget(four_squares):
    # the shell estimator draws 15 times its samples, the lattice rule
    # does at most `samples` chart solves; both refuse before drawing
    for estimate, work in ((archimedean.real_density, 15000),
                           (archimedean.real_density_coarea, 1000)):
        with pytest.raises(BudgetExceededError,
                           match=f"{work} Monte Carlo evaluations"):
            estimate(four_squares, samples=1000, budget=work - 1)
        assert estimate(four_squares, samples=1000, budget=work).samples \
            <= work
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            archimedean.real_density(four_squares, samples=10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


# exact J: four_squares by the quadrature oracle of
# test_real_density_frozen_value; bilinear, f2 = t0 t1 - t2 t3, from the
# density g(c) = 2 log(1/|c|) of t0 t1 on [-1,1]^2:
# J = int_{-1}^{1} g(c)^2 dc = 8 int_0^1 log(c)^2 dc = 16
EXACT_J = {"four-squares": 11.0903549, "bilinear": 16.0}


def test_coarea_keeps_the_half_where_f1_is_nonnegative(four_squares):
    # t0 -> -t0 keeps f2 = 0 and flips the sign of f1 = t0 t1, so the
    # restricted density is half of four_squares' J
    half = Instance(f1=Form(4, 2, ((1, (1, 1, 0, 0)),)), f2=four_squares.f2,
                    n=4, d=2, label="half")
    est = archimedean.real_density_coarea(half, samples=2 * 10**5, seed=7)
    assert abs(est.value.real - EXACT_J["four-squares"] / 2) \
        <= 4 * est.std_error


def test_roots_in_box_match_numpy_roots():
    # the real-arithmetic paths of degrees 1 and 2 and the companion
    # matrices of degrees 3 and 4, column by column against np.roots;
    # column c has its top c mod 5 coefficients zeroed (degree 4 to 0)
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-1.0, 1.0, (5, 500))
    for c in range(500):
        coeffs[5 - c % 5:, c] = 0.0
    cols, roots = archimedean._roots_in_box(coeffs)
    for c in range(500):
        want = [r.real for r in np.roots(coeffs[::-1, c])
                if abs(r.imag) <= 1e-9 and abs(r.real) <= 1.0]
        assert np.allclose(np.sort(roots[cols == c]), np.sort(want),
                           rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("name", sorted(EXACT_J))
def test_coarea_is_calibrated(name, four_squares, bilinear):
    # over seeds fixed in advance, the estimates centre on the exact J,
    # and their spread matches the reported error of the 16 shift estimates
    inst = {"four-squares": four_squares, "bilinear": bilinear}[name]
    ests = [archimedean.real_density_coarea(inst, samples=10**5, seed=s)
            for s in range(1000, 1030)]
    values = np.array([e.value.real for e in ests])
    spread = values.std(ddof=1)
    reported = float(np.median([e.std_error for e in ests]))
    assert abs(values.mean() - EXACT_J[name]) <= 4 * spread / math.sqrt(30)
    assert 0.5 <= spread / reported <= 2.0
    assert reported <= 0.03


@pytest.mark.parametrize("n", [3, 4, 16])
@pytest.mark.parametrize("m", [1000, 4097, (1 << 14) + 1, 1 << 18])
def test_blocked_draw_is_the_uniform_draw(m, n):
    # 2u - 1 from rng.random, block by block, is uniform(-1, 1) bit for bit;
    # every block is a view of one reused buffer, so it is copied here
    drawn, buffers = [], set()
    for b in archimedean._blocks(7, 12, 3, m, n):
        assert b.flags.c_contiguous and b.shape[0] == n \
            and b.size <= blocks.WORK_BLOCK
        buffers.add(b.ctypes.data)
        drawn.append(b.copy())
    assert len(buffers) == 1
    drawn = np.concatenate(drawn, axis=1)
    want = np.ascontiguousarray(uniform_chunk(7, 12, 3, m, n))
    assert drawn.shape == (n, m)
    assert drawn.tobytes() == want.tobytes()


# real_density(four_squares, samples=300000, seed=0).csv_rows(): levels of
# 2, 3, 5 and 10 chunks, each with a partial last chunk
GOLDEN_300K = [
    "0.1,10.8218666667,0.049954530498,300000,0",
    "0.05,10.9589333333,0.0521748840205,600000,0",
    "0.025,11.0666666667,0.0533765103004,1200000,0",
    "0.0125,11.076,0.0538747089087,2400000,0",
    "0,11.1233043561,0.0456595447728,4500000,0"]


@pytest.mark.parametrize("threads,block", [(1, None), (2, None), (3, None),
                                           (2, 4097)])
def test_real_density_ignores_threads_and_blocks(four_squares, monkeypatch,
                                                  threads, block):
    if block is not None:
        monkeypatch.setattr(blocks, "WORK_BLOCK", block)
    est = archimedean.real_density(four_squares, samples=300000,
                                   threads=threads)
    assert est.csv_rows() == GOLDEN_300K


def test_real_density_memory_follows_the_blocks(four_squares):
    # at 2^15 samples the last level is one chunk of 2^18 points, whose
    # coordinates take 8 MB; its task holds one block of them at a time
    tracemalloc.start()
    try:
        archimedean.real_density(four_squares, samples=1 << 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**18


def test_coarea_ignores_work_block(bilinear, monkeypatch):
    # 300000 samples: 16 shifts of 4096 points; blocks of 333 points cut a
    # shift into 12 full blocks and a partial one
    whole = archimedean.real_density_coarea(bilinear, samples=300000)
    monkeypatch.setattr(blocks, "WORK_BLOCK", 1000)
    cut = archimedean.real_density_coarea(bilinear, samples=300000)
    assert cut.samples == whole.samples
    assert cut.value.real == pytest.approx(whole.value.real, rel=1e-12)
    assert cut.std_error == pytest.approx(whole.std_error, rel=1e-9)


@given(st.integers(-2**80, -1) | st.just(0) | st.integers(2**63, 2**80),
       st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.integers(1, 9))
def test_python_philox_is_numpys(seed, stream, chunk, k):
    # k up to 9 crosses the four-word block twice
    key = np.array([seed % 2**64, stream << 32 | chunk], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key)).random(k)
    got = archimedean._uniforms(seed, stream, chunk, k)
    assert np.array(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("samples", [1000, 20000, 10**5, 1 << 18])
def test_coarea_counts_the_chart_solves_it_does(four_squares, samples):
    # 16 shifts of N points and n = 4 charts, N the largest power of 2
    # that keeps the solves within `samples`
    est = archimedean.real_density_coarea(four_squares, samples=samples)
    N = est.samples // 64
    assert est.samples <= samples < 2 * est.samples and N & (N - 1) == 0


def test_lattice_entries_minimise_their_figure_of_merit():
    # entry j of the pinned generating vector is the construction's choice
    # given the entries before it, so a mistyped entry fails
    z, orders = archimedean._LATTICE, range(3, 17)
    best = {m: cbc_lattice_errors(m, len(z)) for m in orders}
    assert z[0] == 1
    for j in range(1, len(z)):
        merit = embedded_lattice_merit(z[:j], orders, best)
        assert merit[(z[j] - 1) // 2] <= merit.min() * (1 + 1e-9)


@pytest.mark.parametrize("m", [3, 6])
def test_fast_lattice_errors_match_their_definition(m):
    # candidate d of lattice_errors is z = 5^d mod 2^m
    z = archimedean._LATTICE
    for s in range(3):
        fast = lattice_errors(z[:s], m)
        want = [lattice_error(z[:s] + (pow(5, d, 2**m),), m)
                for d in range(len(fast))]
        assert np.allclose(fast, want, rtol=1e-12, atol=0.0)


def test_real_density_pool_is_shut_down(four_squares):
    before = threading.active_count()
    archimedean.real_density(four_squares, samples=20000, threads=2)
    assert threading.active_count() == before
