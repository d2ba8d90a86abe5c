import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fibrecount import arith, blocks, constant, expsums, padic
from fibrecount.blocks import BudgetExceededError
from fibrecount.forms import Form, Instance
from oracles import block_masses, tree_masses
from strategies import instances


def test_tau_bilinear_level1(bilinear):
    # mod 3: #{x0 x1 = c} is 5 for c = 0 and 2 otherwise, so the count of
    # x0 x1 = x2 x3 is 25 + 4 + 4 = 33
    dens = padic.hypersurface_density(bilinear, 3, 1)
    assert dens.raw_count == 33
    assert dens.density == pytest.approx(33 / 27)


def test_tau_bilinear_level2_brute_force(bilinear):
    q = 9
    count = 0
    for x in itertools.product(range(q), repeat=4):
        if (x[0] * x[1] - x[2] * x[3]) % q == 0:
            count += 1
    dens = padic.hypersurface_density(bilinear, 3, 2)
    assert dens.raw_count == count


def test_soluble_equals_tau_at_1mod4(four_squares):
    for N in (1, 2, 3):
        tau = padic.hypersurface_density(four_squares, 5, N)
        ell = padic.soluble_density(four_squares, 5, N)
        assert ell.density == tau.density
        assert ell.raw_count == tau.raw_count
        assert ell.kind == "ell"
        assert ell.undecided_fraction == 0.0


def test_soluble_le_tau(four_squares):
    for (p, N) in ((3, 3), (2, 4)):
        tau = padic.hypersurface_density(four_squares, p, N)
        ell = padic.soluble_density(four_squares, p, N)
        assert ell.density <= tau.density + 1e-12
        assert ell.density_low <= ell.density


def test_soluble_density_vs_direct_oracle(four_squares):
    # independent full-box oracle at p = 3, N = 3 with no extra lifting:
    # undecided residues (f1 = 0 mod 27) counted as soluble
    p, N = 3, 3
    q = p**N
    idx = np.arange(q**4)
    cols = [(idx // q**i) % q for i in range(4)]
    f2 = (cols[0]**2 + cols[1]**2 - cols[2]**2 - cols[3]**2) % q
    f1 = (cols[0]**2 + cols[1]**2 + cols[2]**2 + cols[3]**2) % q
    sols = f2 == 0
    f1s = f1[sols]
    soluble = 0
    for v in f1s.tolist():
        if v == 0:
            soluble += 1
        else:
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            soluble += 1 - (e % 2)
    oracle = soluble / p ** (N * 3)
    _, sol, und = padic._phase(four_squares, p, N, N, True,
                               blocks.DEFAULT_BUDGET)
    assert float(Fraction(sol + und, p ** (N * 3))) == \
        pytest.approx(oracle, abs=1e-12)


def test_undecided_fraction_vanishes(four_squares):
    # the saturated set alternates in size with the parity of the level
    # (squares mod 3^N gain a digit every other level), so the honest
    # monotone statement is along N -> N+2 within each parity class
    fracs = []
    for N in (1, 2, 3, 4, 5):
        count, _, und = padic._phase(four_squares, 3, N, N, True,
                                     blocks.DEFAULT_BUDGET)
        fracs.append(und / count)
    assert fracs[2] < fracs[0] and fracs[4] < fracs[2]
    assert fracs[3] < fracs[1]
    assert fracs[4] < 1e-3


def test_dyadic_classification(four_squares):
    ell = padic.soluble_density(four_squares, 2, 5)
    assert 0 < ell.density_low <= ell.density
    # at p = 2 the odd part mod 4 needs two spare bits, so some nonzero
    # residues stay undecided
    assert ell.undecided_fraction > 0


@given(st.sampled_from([2, 3, 7, 11]), st.integers(1, 8), st.data())
def test_classify_f1_against_the_scalar_rule(p, level, data):
    # decided residues get conic_soluble_local's verdict; undecided are
    # exactly those whose valuation saturates the level (p = 2: the odd
    # part mod 4 needs two spare bits)
    x = data.draw(st.lists(st.integers(0, p ** level - 1), min_size=1,
                           max_size=50))
    sol, und = padic._classify_f1(np.array(x, dtype=np.int64), p, level)
    saturated = level - 1 if p == 2 else level
    for value, s, u in zip(x, sol.tolist(), und.tolist()):
        v = arith.valuation(value, p) if value else level
        assert u == (v >= saturated)
        if not u:
            assert s == bool(arith.conic_soluble_local(value, p))


def test_tamagawa_relation(four_squares):
    # the local product's ratio at p is tau_p / lambda_p: the density
    # weighted by (1 - p^-(n-d)) / (1 - 1/p), against (1 - 1/p)^(-1/2)
    nd = four_squares.n - four_squares.d
    ratios = constant.euler_products(four_squares, p_max=7)[1].shells[0]
    for p in (3, 5, 7):
        ell = constant.local_density(four_squares, p).value.real
        back = ratios[str(p)] * (1 - 1 / p) ** -0.5 * (1 - 1 / p) \
            / (1 - p ** -nd)
        assert back == pytest.approx(ell, rel=1e-12)
    # at 5 the density is the limit 6/5 and lambda_5 = (4/5)^(-1/2)
    assert ratios["5"] == pytest.approx((24 / 25) / (4 / 5) * (6 / 5)
                                        / math.sqrt(5 / 4), rel=1e-12)


def test_orthogonality_links_counts_to_birch(four_squares, bilinear, linked):
    # linked has one block, so its tables are stationary phase tables
    for inst in (four_squares, bilinear, linked):
        for q in (3, 9, 4, 8, 5):
            if q == 1:
                continue
            p = 3 if q in (3, 9) else (2 if q in (4, 8) else 5)
            N = round(math.log(q, p))
            dens = padic.hypersurface_density(inst, p, N)
            S = expsums.birch_sum_table(inst, q)
            lhs = complex(S[0, :].sum()) / q**inst.n
            rhs = dens.raw_count / q ** (inst.n - 1)
            assert lhs.real == pytest.approx(rhs, abs=1e-9)
            assert abs(lhs.imag) < 1e-9


def test_local_product_cauchy_and_drift(four_squares):
    vals = [constant.euler_products(four_squares, p_max=pm)[1].value.real
            for pm in (13, 23, 37)]
    gaps = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert gaps[1] < gaps[0]
    assert all(v > 0 for v in vals)
    # without the weight and the convergence factor the partial products
    # drift monotonically upward
    levels = {2: 4, 3: 3, 5: 3, 7: 2, 11: 2, 13: 2, 17: 1}
    drift = []
    for pm in (5, 11, 17):
        prod = 1.0
        for p, N in levels.items():
            if p > pm:
                break
            ell = padic.soluble_density(four_squares, p, N)
            prod *= ell.density / (1 - 1 / p)
        drift.append(prod)
    assert drift[0] < drift[1] < drift[2]


def test_budget_refusal(linked):
    # the level-1 scan of 199^4 residues exceeds the budget
    with pytest.raises(BudgetExceededError):
        padic.hypersurface_density(linked, 199, 2, budget=10**6)


def test_block_budget_refusal(four_squares):
    # four one-variable blocks do not shrink the level-1 scan: 199^4
    # residues exceed the budget at every level, while 31^4 fit under it
    for level in (2, 3):
        with pytest.raises(BudgetExceededError,
                           match="1568239201 lift candidates"):
            padic.hypersurface_density(four_squares, 199, level,
                                       budget=10**6)
    assert padic.hypersurface_density(four_squares, 31, 2,
                                      budget=10**6).raw_count > 0


def test_refusal_comes_before_allocation(four_squares):
    # 139^4 level-1 classes exceed the default budget; the fibre density
    # must refuse there, without building tables of 139^4 residues first
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match="373301041 lift candidates"):
            padic.soluble_density(four_squares, 139, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**7


def test_phase_refuses_a_level_over_the_budget(cone):
    # At p = 3, N = 2 and top = 7, levels 3 and 4 lift 162 and 486
    # candidates, and at level 4 (2k >= top) every class is resolved: a
    # budget of 10^3 reaches full depth, one of 10^2 refuses level 3
    padic._phase(cone, 3, 2, 7, True, 10**3)
    with pytest.raises(BudgetExceededError,
                       match="level 3 at p=3: 162 lift candidates"):
        padic._phase(cone, 3, 2, 7, True, 10**2)


def test_no_lift_past_the_linear_level(cone, monkeypatch):
    # once 2k >= top, f1 mod p^top is linear on the lifts of a class mod
    # p^k, so its verdict is a closed form: at p = 3, N = 2, top = 7 no
    # class is lifted past level max(N, ceil(top / 2)) = 4
    levels = []
    real = padic._lifts

    def record(inst, p, level, parents, budget):
        levels.append(level)
        return real(inst, p, level, parents, budget)

    monkeypatch.setattr(padic, "_lifts", record)
    padic._phase(cone, 3, 2, 7, True, blocks.DEFAULT_BUDGET)
    assert max(levels) == 4


def test_int64_range_refused_by_both_phase_paths():
    # products of residues mod p^top must stay below INT64_SAFE = 2^62:
    # at p = 3, 3^38 < 2^62 <= 3^40, so top 19 is accepted and 20 refused
    x2 = Form(1, 2, ((1, (2,)),))
    one = Instance(f1=x2, f2=x2, n=1, d=2, label="one")
    beyond = r"p\^20 at p=3 is beyond the exact int64 range"
    # x^2 = 0 mod 3^19 iff x = 0 mod 3^10
    assert padic.hypersurface_density(one, 3, 19).raw_count == 3 ** 9
    assert padic.soluble_density(one, 3, 17).level == 17
    for call in (lambda: padic.hypersurface_density(one, 3, 20),
                 lambda: padic._phase(one, 3, 17, 20, True,
                                      blocks.DEFAULT_BUDGET),
                 lambda: padic._phase_table(one, 3, 20,
                                            blocks.DEFAULT_BUDGET)):
        with pytest.raises(BudgetExceededError, match=beyond):
            call()


def test_density_reads_two_phase_calls(linked):
    # the density at N is _phase at N refined LIFT_EXTRA = 2 levels, and
    # its stabilization flag compares it with _phase at N - 1 refined one
    # level, each mass over its classes mod p^top
    budget, n = blocks.DEFAULT_BUDGET, linked.n
    ell = padic.soluble_density(linked, 3, 3)
    _, sol, und = padic._phase(linked, 3, 3, 5, True, budget)
    _, sp, up = padic._phase(linked, 3, 2, 3, True, budget)
    dens = Fraction(sol + und, 3 ** (2 * n + 3 * (n - 1)))
    prev = Fraction(sp + up, 3 ** (n + 2 * (n - 1)))
    assert (ell.raw_count, ell.density) == (sol + und, float(dens))
    assert ell.stabilized == \
        (abs(dens - prev) <= padic.STABLE_REL_TOL * dens)


# ---------------------------------------------------------------------------
# stationary phase against the lift tree
# ---------------------------------------------------------------------------

# the (p, N, levels past N) grid of the block fuzz, and tau_f2 at p = 5
PHASE_GRID = [(2, 1, 2, True), (2, 2, 1, True), (2, 3, 0, True),
              (3, 1, 2, True), (3, 2, 1, True), (7, 1, 1, True),
              (5, 1, 0, False), (5, 2, 0, False), (5, 3, 0, False)]


@settings(max_examples=40)
@given(instances(), st.sampled_from(PHASE_GRID))
def test_fuzz_phase_equals_tree(inst, pNef):
    # at every level, refined as the density (e) and as its stabilization
    # level (min(e, 1)) are
    p, N, e, fibre = pNef
    assume(p ** (inst.n * (N + e)) <= 10**6)  # keeps the full tree small
    for k in range(1, N + 1):
        for extra in {e, min(e, 1)}:
            assert padic._phase(inst, p, k, k + extra, fibre, 10**9) == \
                tree_masses(inst, p, k, extra, fibre, 10**9)


@settings(max_examples=40)
@given(instances(), st.sampled_from(PHASE_GRID[:6]),
       st.sampled_from([10, 100, 1000]))
def test_fuzz_phase_bracket_inside_the_tree(inst, pNef, small_budget):
    # the phase path lifts a subset of the tree's candidates, so it refuses
    # only where the tree does, and wherever the tree answers it returns
    # the tree's masses, at the density's level and at its stabilization
    # level
    p, N, e, fibre = pNef
    assume(p ** (inst.n * (N + e)) <= 10**6)
    for k, extra in [(N, e)] + [(N - 1, min(e, 1))] * (N >= 2):
        try:
            tc, ts, tu = tree_masses(inst, p, k, extra, fibre,
                                     small_budget)
        except BudgetExceededError:
            continue
        assert padic._phase(inst, p, k, k + extra, fibre, small_budget) == \
            (tc, ts, tu)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_phase_equals_blocks(four_squares, bilinear, p):
    # at levels the tree reaches slowly (p = 3) or not at all (p = 7),
    # against the exact join of two half tables
    N, budget = constant.level_for(p), blocks.DEFAULT_BUDGET
    for inst in (four_squares, bilinear):
        phase = padic._phase(inst, p, N, N + 2, True, budget)
        assert phase == block_masses(inst, p, N, 2)


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow,
                                                   HealthCheck.filter_too_much])
@given(instances(min_n=3))
def test_fuzz_tau_limit_is_the_tree_extrapolation(inst):
    # where every nonzero point of f2 = 0 mod p is smooth, D_N = S +
    # r D_(N-2) from level 1 on, r = p^(2-n): the two-level extrapolation
    # of the lift tree's masses, (D_N - r D_(N-2)) / (1 - r) with D_0 = 1,
    # is the limit exactly.  Few generated f2 qualify, hence the filter;
    # none with n <= d = 2, where there is no limit, so none is drawn
    n = inst.n
    good = [p for p in (2, 3, 5, 7, 13) if p ** (2 * n) <= 5 * 10**6
            and padic.tau_limit(inst, p) is not None]
    assume(good)
    for p in good:
        r = Fraction(1, p ** (n - 2))
        D = {0: Fraction(1)}
        for N in (1, 2, 3):
            if p ** (N * n) <= 5 * 10**6:
                D[N] = Fraction(tree_masses(inst, p, N, 0, False, 10**9)[0],
                                p ** (N * (n - 1)))
        for N in set(D) - {0, 1}:
            assert padic.tau_limit(inst, p) == (D[N] - r * D[N - 2]) / (1 - r)


def test_tau_limit_only_where_every_nonzero_point_is_smooth(four_squares,
                                                           demo):
    # (p + 1) / p on four_squares; none at p = 2 (every partial 2 x_i
    # vanishes mod 2), at n <= 2 (demo has r = 1 and no limit) or where p
    # divides the Hessian's determinant (a nonzero x with H x = 0 mod p
    # lies on f2 = 0 and is singular there)
    assert [padic.tau_limit(four_squares, p) for p in (3, 5, 13)] == \
        [Fraction(4, 3), Fraction(6, 5), Fraction(14, 13)]
    assert padic.tau_limit(four_squares, 2) is None
    assert padic.tau_limit(demo, 5) is None
    f2 = Form(4, 2, four_squares.f2.monomials[:3] + ((-5, (0, 0, 0, 2)),))
    degenerate = Instance(f1=four_squares.f1, f2=f2, n=4, d=2)
    assert padic.tau_limit(degenerate, 5) is None
    assert padic.tau_limit(degenerate, 13) is not None


def test_tau_limit_at_p2_and_past_quadrics(bilinear):
    # the limit holds wherever the nonzero points mod p are smooth: at
    # p = 2 on bilinear (its two-level extrapolation is 3/2 at N = 2, 3
    # and 4), and for d = 4, where the zero class repeats the density four
    # levels down, r = p^(d-n)
    assert padic.tau_limit(bilinear, 2) == Fraction(3, 2)
    x4 = [tuple(4 * (j == i) for j in range(5)) for i in range(5)]
    f1 = Form(5, 4, tuple((1, e) for e in x4))
    f2 = Form(5, 4, tuple((1 if i < 4 else -1, e) for i, e in enumerate(x4)))
    inst = Instance(f1=f1, f2=f2, n=5, d=4, label="quartic5")
    for p, limit in ((3, Fraction(40, 27)), (5, Fraction(16, 125)),
                     (7, Fraction(400, 343))):
        assert padic.tau_limit(inst, p) == limit
        r = Fraction(1, p)

        def D(N):
            return Fraction(padic.hypersurface_density(inst, p, N).raw_count,
                            p ** (4 * N))

        for N in (5, 6, 7):
            assert (D(N) - r * D(N - 4)) / (1 - r) == limit


def test_phase_quartic_homogeneity(quartic):
    # d = 4: the zero class recurses from level top to top - 4
    for p, e, levels in ((2, 2, 3), (3, 2, 3), (7, 1, 2)):
        for N in range(1, levels + 1):
            for extra, fibre in ((e, True), (min(e, 1), True), (0, False)):
                phase = padic._phase(quartic, p, N, N + extra, fibre, 10**8)
                assert phase == tree_masses(quartic, p, N, extra, fibre,
                                            10**8)


def test_phase_serves_one_block(linked):
    # stationary phase serves a single block too, with the tree's masses
    # where the tree reaches full depth: both _phase calls of the density
    # (level N refined 2 levels, N - 1 refined 1) are the tree's
    assert len(blocks.variable_blocks(linked)) == 1
    budget = blocks.DEFAULT_BUDGET
    for p, N in ((2, 4), (3, 3)):
        for level, extra in ((N, 2), (N - 1, 1)):
            assert padic._phase(linked, p, level, level + extra, True,
                                budget) == \
                tree_masses(linked, p, level, extra, True, budget)


def test_csv_row(four_squares):
    dens = padic.hypersurface_density(four_squares, 3, 2)
    assert padic.LocalDensity.csv_header() == \
        "p,kind,level,raw_count,density,stabilized,undecided_fraction"
    assert dens.csv_row().startswith("3,tau_f2,2,")
