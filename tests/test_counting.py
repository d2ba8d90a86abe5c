import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fibrecount import arith, blocks, counting
from fibrecount.arith import DomainError
from fibrecount.blocks import BudgetExceededError
from fibrecount.forms import Form, Instance, parse_instance
from oracles import two_squares_parity_sieve
from strategies import pair

KINDS = ((False, False), (True, False), (True, True))  # (zero, primitive)


def test_box_count_demo(demo):
    # the four points (+-1, +-1); the origin never counts
    assert counting.count_soluble_fibre_points(demo, 1) == 4
    assert counting.count_soluble_fibre_points(
        demo, 1, include_zero_fibres=True) == 4
    assert counting.count_soluble_fibre_points(demo, 0) == 0


def test_box_count_monotone_and_even(demo, bilinear):
    prev = 0
    for P in range(1, 8):
        cnt = counting.count_soluble_fibre_points(bilinear, P)
        assert cnt >= prev
        assert cnt % 2 == 0  # x -> -x symmetry, even degree
        prev = cnt


def test_projective_demo(demo):
    rec = counting.projective_count(demo, 1)
    assert rec.raw_count == 2  # (1:1) and (1:-1)
    rec3 = counting.projective_count(demo, 3)
    assert rec3.raw_count == 2


def test_projective_paths_agree(four_squares, bilinear):
    for inst in (four_squares, bilinear):
        for t in (3, 6, 9):
            direct = counting.projective_count(inst, t, method="direct")
            moeb = counting.projective_count(inst, t, method="moebius")
            assert direct.raw_count == moeb.raw_count


def _unmirrored(bilinear):
    """bilinear with f2 = x0 x1 - 2 x2 x3: its halves do not mirror, so
    its split count keeps the two-table join."""
    return Instance(f1=bilinear.f1, f2=Form(4, 2, (
        (1, pair(4, 0, 1)), (-2, pair(4, 2, 3)))), n=4, d=2)


def test_split_matches_slab(four_squares, bilinear, monkeypatch):
    # the shipped configs' halves mirror, so they join one table with
    # itself; _unmirrored keeps the two-table join
    unmirrored = _unmirrored(bilinear)
    budget = blocks.DEFAULT_BUDGET
    built = []
    half_table = counting._half_table

    def recording(*args):
        built.append(args[1])
        return half_table(*args)

    monkeypatch.setattr(counting, "_half_table", recording)
    for inst, tables in ((four_squares, 1), (bilinear, 1), (unmirrored, 2)):
        for P in (2, 5, 7):
            for incl in (False, True):
                built.clear()
                assert counting._count_split(inst, P, incl, budget) == \
                    counting._count_slab(inst, P, incl, budget, 1)
                assert len(built) == tables


def test_slab_is_the_one_forced_method(linked):
    # 'slab' forces the scan; every other path is reached through
    # _count_box only
    slab = counting._count_slab(linked, 2, False, blocks.DEFAULT_BUDGET, 1)
    assert counting.count_soluble_fibre_points(linked, 2) == slab
    assert counting.count_soluble_fibre_points(linked, 2,
                                               method="slab") == slab
    with pytest.raises(DomainError, match="unknown method"):
        counting.count_soluble_fibre_points(linked, 2, method="split")


def test_mobius_residual_zero(demo, bilinear):
    for inst in (demo, bilinear):
        for t in (1, 2, 3, 7, 12):
            assert counting.mobius_residual(inst, t) == 0


def test_moebius_sum_skips_cancelled_radii(demo, monkeypatch):
    # at t = 100 the weights mu(l) of the radii 100 // l cancel at 2 and 7
    radii = []
    count = counting.count_soluble_fibre_points

    def recording(inst, P, **kw):
        radii.append(P)
        return count(inst, P, **kw)

    monkeypatch.setattr(counting, "count_soluble_fibre_points", recording)
    assert counting.mobius_residual(demo, 100) == 0
    assert radii and 2 not in radii and 7 not in radii
    mu = arith.moebius_sieve(100)
    for P in (2, 7):
        assert sum(int(mu[l]) for l in range(1, 101) if 100 // l == P) == 0


def test_moebius_sum_refuses_before_the_sieve(bilinear, monkeypatch):
    # the radius t (weight mu(1) = 1) is counted first, so a box over the
    # budget refuses before mu(1..t) is built and summed
    def sieve(limit):
        raise AssertionError("the sieve ran before the refusal")

    monkeypatch.setattr(counting, "moebius_sieve", sieve)
    with pytest.raises(BudgetExceededError, match="box volume"):
        counting.projective_count(bilinear, 4 * 10**7, method="moebius")


def test_half_table_slabs_merge(four_squares, bilinear, monkeypatch):
    # the counts of many small box chunks merge to the one-chunk table, and
    # the slab scan counts the same over them
    halves = ([0], [0, 1], [0, 1, 2])
    insts = (four_squares, bilinear)

    def scans():
        return [counting._count_slab(inst, 6, zero, 10**6, 1, primitive=prim)
                for inst in insts
                for zero, prim in ((False, False), (True, False), (True, True))]

    whole = [counting._half_table(inst, h, 9, 10**6)
             for inst in insts for h in halves]
    one_chunk = scans()
    monkeypatch.setattr(blocks, "WORK_BLOCK", 40)
    slabs = [counting._half_table(inst, h, 9, 10**6)
             for inst in insts for h in halves]
    for got, want in zip(slabs, whole):
        assert all((a == b).all() for a, b in zip(got, want))
    assert scans() == one_chunk
    assert counting._count_split(bilinear, 9, False, 10**6) == \
        counting._count_slab(bilinear, 9, False, 10**6, 1)


def test_half_table_memory_follows_the_slabs(four_squares):
    # 2001^2 points: the whole-box table held six int64 arrays over them
    tracemalloc.start()
    try:
        counting._half_table(four_squares, [0, 1], 1000,
                             blocks.DEFAULT_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * 2001**2


# ---------------------------------------------------------------------------
# the quadric path against the slab scan
# ---------------------------------------------------------------------------

def _quadric_equals_slab(inst, P):
    for zero, prim in KINDS:
        assert counting._count_quadric(inst, P, zero, 10**7, prim) == \
            counting._count_slab(inst, P, zero, 10**7, 1, prim)


def _form(n, *monos):
    """A quadratic form in n variables from (coeff, i, j) for c x_i x_j."""
    return Form(n, 2, tuple((c, pair(n, i, j)) for c, i, j in monos))


@pytest.mark.parametrize("a", [-3, -2, 2, 3])
def test_quadric_roots_divisible_by_2a(a):
    # a x2^2 + (x0 - 2 x1) x2 + x0^2 - 3 x0 x1: a root counts only when 2a
    # divides -B +- s
    f2 = _form(3, (a, 2, 2), (1, 0, 2), (-2, 1, 2), (1, 0, 0), (-3, 0, 1))
    f1 = _form(3, (1, 0, 0), (2, 1, 1), (1, 1, 2), (-1, 2, 2))
    inst = Instance(f1=f1, f2=f2, n=3, d=2)
    assert counting._quadric_parts(inst)[:2] == (2, a)
    for P in (5, 13):
        _quadric_equals_slab(inst, P)


@pytest.mark.parametrize("c", [1, -3])
def test_quadric_double_roots(c):
    # c (x0 + x1)^2: the discriminant vanishes at every x', and the one
    # root x1 = -x0 must count once
    f2 = _form(3, (c, 0, 0), (2 * c, 0, 1), (c, 1, 1))
    f1 = _form(3, (1, 0, 0), (1, 2, 2), (1, 0, 2))
    inst = Instance(f1=f1, f2=f2, n=3, d=2)
    for P in (1, 4, 9):
        _quadric_equals_slab(inst, P)


def _dense(seed):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "dense.py"
    spec = importlib.util.spec_from_file_location("dense", path)
    dense = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dense)
    return parse_instance(dense.dense_config(seed))


def test_quadric_on_the_shipped_instances(four_squares, linked):
    # four_squares has no B term; the dense instances have every monomial
    for P in (5, 13):
        _quadric_equals_slab(four_squares, P)
    _quadric_equals_slab(linked, 9)
    for seed in (0, 1, 2):
        _quadric_equals_slab(_dense(seed), 13)


def test_quadric_path_never_scans_the_box(linked, monkeypatch):
    box = counting._count_slab(linked, 20, False, blocks.DEFAULT_BUDGET, 1)
    vectors = counting._count_slab(linked, 20, True, blocks.DEFAULT_BUDGET,
                                   1, primitive=True)

    def refuse(*args):
        raise AssertionError("scanned [-P,P]^n")

    with monkeypatch.context() as mp:
        mp.setattr(counting, "_count_slab", refuse)
        assert counting.count_soluble_fibre_points(linked, 20) == box
        assert counting.projective_count(
            linked, 20, method="direct").raw_count == vectors // 2


def test_auto_takes_moebius_exactly_where_the_blocks_split(bilinear,
                                                           monkeypatch):
    # one block: the direct count, no Moebius sum; several blocks: the
    # Moebius sum of split box counts, no quadric or slab scan
    def refuse(*args):
        raise AssertionError("a path auto must not take")

    dense = _dense(0)
    want = counting.projective_count(dense, 60, method="direct").raw_count
    with monkeypatch.context() as mp:
        mp.setattr(counting, "_moebius_sum", refuse)
        assert counting.projective_count(dense, 60).raw_count == want
    want = counting.projective_count(bilinear, 40, method="moebius").raw_count
    with monkeypatch.context() as mp:
        mp.setattr(counting, "_count_quadric", refuse)
        mp.setattr(counting, "_count_slab", refuse)
        assert counting.projective_count(bilinear, 40).raw_count == want


def test_quadric_budget_refusal(linked):
    # 101^3 scanned points exceed 10^4; the slab scan the refusal passes to
    # refuses too, so the message is the slab's
    with pytest.raises(BudgetExceededError, match="budget"):
        counting._count_quadric(linked, 50, False, 10**4)
    with pytest.raises(BudgetExceededError, match="box volume"):
        counting.count_soluble_fibre_points(linked, 50, budget=10**4)
    # without a square term in f2 there is nothing to solve for
    bilinear = Instance(f1=linked.f1, f2=_form(4, (1, 0, 1), (-1, 2, 3)),
                        n=4, d=2)
    with pytest.raises(DomainError, match="square term"):
        counting._count_quadric(bilinear, 3, False, 10**4)


def test_quadric_square_test_at_the_edge():
    # below 2^52 the float64 root of a square is exact, which the kernel's
    # root s relies on; just past 2^52 the root of k^2 - 1 rounds up to k
    ks = np.array(list(range(40)) + list(range(2**26 - 3, 2**26)),
                  dtype=np.int64)
    assert np.array_equal(np.sqrt(ks * ks).astype(np.int64), ks)
    past = np.array([(2**26 + j) ** 2 - 1 for j in (1, 2, 3)], dtype=np.int64)
    assert all(np.sqrt(past.astype(np.float64)) == 2**26 + np.arange(1, 4))
    # f2 = a x1^2 - x2^2 + x0 x3 - a x3^2, a = 2^25 - 1, solved for x3:
    # the discriminant bound (2a + 1)^2 sits just below 2^52, and over
    # P = 1 the discriminants x0^2 + 4a^2 x1^2 - 4a x2^2 include (2a)^2,
    # (2a)^2 + 1, (2a - 1)^2 and (2a - 1)^2 - 1: the squares give their
    # roots and the others none, as the slab scan finds
    a = 2**25 - 1
    f2 = _form(4, (a, 1, 1), (-1, 2, 2), (1, 0, 3), (-a, 3, 3))
    f1 = _form(4, (1, 0, 0), (1, 1, 1), (1, 2, 2), (1, 3, 3))
    inst = Instance(f1=f1, f2=f2, n=4, d=2)
    want = counting._count_slab(inst, 1, False, 10**4, 1)
    assert counting._count_quadric(inst, 1, False, 10**4) == want == 14


def test_quadric_refuses_inexact_discriminants(monkeypatch):
    # (|B|_1^2 + 4 |a| |C|_1) P^2 = (9 + 2^43) P^2 passes 2^52 at P = 23;
    # the refusal comes before any box chunk, and the public path passes
    # to the slab scan
    f2 = _form(3, (2**40, 2, 2), (3, 0, 2), (1, 0, 0), (-1, 1, 1))
    f1 = _form(3, (1, 0, 0), (1, 1, 1), (1, 2, 2))
    inst = Instance(f1=f1, f2=f2, n=3, d=2)
    _quadric_equals_slab(inst, 22)

    def refuse(*args, **kw):
        raise AssertionError("built a box chunk")

    with monkeypatch.context() as mp:
        mp.setattr(counting, "box", refuse)
        with pytest.raises(BudgetExceededError, match=r"2\^52"):
            counting._count_quadric(inst, 23, False, 10**7)
    assert counting.count_soluble_fibre_points(inst, 23) == \
        counting._count_slab(inst, 23, False, blocks.DEFAULT_BUDGET, 1)
    # without C the bound takes |C|_1 as 1, so that 2a stays in int64
    huge = Instance(f1=f1, f2=_form(3, (2**70, 2, 2), (1, 0, 2)), n=3, d=2)
    with pytest.raises(BudgetExceededError, match=r"2\^52"):
        counting._count_quadric(huge, 1, False, 10**7)


def test_quadric_memory_follows_the_chunks(linked, monkeypatch):
    # 121^3 scanned points: one chunk over all of them held more than five
    # int64 arrays of their size; small chunks count the same
    tracemalloc.start()
    try:
        counting._count_quadric(linked, 60, True, 10**7, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * 121**3
    want = [counting._count_quadric(linked, 9, zero, 10**7, prim)
            for zero, prim in KINDS]
    monkeypatch.setattr(blocks, "WORK_BLOCK", 40)
    assert [counting._count_quadric(linked, 9, zero, 10**7, prim)
            for zero, prim in KINDS] == want


def _peak(fn) -> int:
    """The tracemalloc peak of fn(), in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the working set of counting's kernels, from their design: a half table
# holds 16 bytes (a key and a count) per distinct pair, and while it
# merges a chunk 9 more (the new keys and counts beside the old counts,
# and np.insert's mask); a chunk holds three int64 arrays of WORK_BLOCK
# values, in the build and in the join alike
CHUNK_ARRAYS = 3 * 8 * blocks.WORK_BLOCK


def test_split_join_memory_follows_the_tables(bilinear):
    # a key and a count per distinct pair of each half table, and the
    # chunk's three WORK_BLOCK arrays: the halves mirror, so the one
    # table built in place of two also covers its merge.  The shared
    # sieve is built first: it is no part of the count's working memory
    halves = blocks.balanced_halves(blocks.variable_blocks(bilinear))
    pairs = sum(len(counting._half_table(bilinear, h, 300,
                                         blocks.DEFAULT_BUDGET)[0])
                for h in halves)
    arith.two_squares_sieve(4 * 300**2)
    peak = _peak(lambda: counting.count_soluble_fibre_points(
        bilinear, 300, include_zero_fibres=True))
    assert peak < 16 * pairs + CHUNK_ARRAYS


def test_mirrored_split_memory_is_one_table(bilinear):
    # bilinear's halves mirror, so the split holds one half table and
    # merges into it.  Building table B as well, while A is held, peaked
    # above this bound
    half_a, _ = blocks.balanced_halves(blocks.variable_blocks(bilinear))
    keys_a = counting._half_table(bilinear, half_a, 300,
                                  blocks.DEFAULT_BUDGET)[0]
    arith.two_squares_sieve(4 * 300**2)
    peak = _peak(lambda: counting.count_soluble_fibre_points(
        bilinear, 300, include_zero_fibres=True))
    assert peak < 25 * len(keys_a) + CHUNK_ARRAYS


@pytest.mark.parametrize("name", ["bilinear", "unmirrored"])
def test_half_table_working_set(bilinear, name):
    # each build holds its table, its merge and the chunk's arrays, and
    # the split adds the tables it holds: table A while B is built, when
    # the halves do not mirror.  np.unique on whole chunks and the
    # arrays of a chunk dropped only after the merge held more
    inst = bilinear if name == "bilinear" else _unmirrored(bilinear)
    arith.two_squares_sieve(8 * 300**2)
    halves = blocks.balanced_halves(blocks.variable_blocks(inst))
    if counting._mirrored(inst, *halves):
        halves = halves[:1]
    built = [len(counting._half_table(inst, h, 300,
                                      blocks.DEFAULT_BUDGET)[0])
             for h in halves]
    for h, pairs in zip(halves, built):
        assert _peak(lambda: counting._half_table(
            inst, h, 300, blocks.DEFAULT_BUDGET)) < 25 * pairs + CHUNK_ARRAYS
    held = 16 * sum(built[:-1])
    assert _peak(lambda: counting.count_soluble_fibre_points(
        inst, 300, include_zero_fibres=True)) < \
        held + 25 * built[-1] + CHUNK_ARRAYS


def test_quadric_working_set(linked):
    # three buffers of WORK_BLOCK values serve every chunk, and the
    # chunk's masks and the points of one root stay under one WORK_BLOCK
    # array more; fresh arrays for each temporary of each chunk held
    # more.  The sieve is built first, by the count itself
    counting._count_quadric(linked, 60, True, 10**7, True)
    peak = _peak(lambda: counting._count_quadric(linked, 60, True, 10**7,
                                                 True))
    assert peak < 4 * 8 * blocks.WORK_BLOCK


def test_moebius_sum_builds_one_table_per_radius(bilinear, monkeypatch):
    # 23 radii at t = 300, each a split count of mirrored halves
    calls = []
    half_table = counting._half_table

    def recording(*args):
        calls.append(args[2])
        return half_table(*args)

    monkeypatch.setattr(counting, "_half_table", recording)
    assert counting.projective_count(bilinear, 300).raw_count == 2006400
    assert len(calls) == len(set(calls)) == 23


def test_split_refuses_keys_past_int64(four_squares, monkeypatch):
    # four_squares times 2^30: at P = 2 the packed keys would pass 2^62,
    # so a sum of two could leave int64.  The split refuses before it
    # scans a box chunk, and the count passes to the slab scan
    f1, f2 = (Form(4, 2, tuple((c << 30, e) for c, e in f.monomials))
              for f in (four_squares.f1, four_squares.f2))
    inst = Instance(f1=f1, f2=f2, n=4, d=2)

    def refuse(*args, **kw):
        raise AssertionError("built a box chunk")

    with monkeypatch.context() as mp:
        mp.setattr(counting, "box", refuse)
        with pytest.raises(BudgetExceededError, match="packed keys"):
            counting._count_split(inst, 2, False, blocks.DEFAULT_BUDGET)
    for zero in (False, True):
        assert counting.count_soluble_fibre_points(
            inst, 2, include_zero_fibres=zero) == counting._count_slab(
            inst, 2, zero, blocks.DEFAULT_BUDGET, 1) > 0


def test_parallel_determinism(four_squares):
    a, b = (counting._count_slab(four_squares, 6, False,
                                 blocks.DEFAULT_BUDGET, threads)
            for threads in (1, 4))
    assert a == b


def test_budget_refusal(four_squares):
    with pytest.raises(BudgetExceededError, match="budget"):
        counting._count_slab(four_squares, 50, False, 10**4, 1)
    with pytest.raises(BudgetExceededError):
        counting.projective_count(four_squares, 50, method="direct",
                                  budget=10**4)


def test_one_sieve_serves_every_limit(four_squares, bilinear):
    for inst in (four_squares, bilinear):
        for P in (3, 6, 9, 12):
            counting._count_split(inst, P, False, blocks.DEFAULT_BUDGET)
            counting._count_slab(inst, P, False, blocks.DEFAULT_BUDGET, 1)
    table = arith._SIEVE
    limits = (10, 300, len(table) - 1)
    assert all(np.shares_memory(arith.two_squares_sieve(m), table)
               for m in limits)
    assert arith._SIEVE is table
    primes = arith.prime_sieve(30)
    assert primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert np.shares_memory(primes, arith._PRIMES)


def test_two_squares_count():
    assert counting.two_squares_count(10) == 7  # 1,2,4,5,8,9,10
    x = 2000
    assert counting.two_squares_count(x) == \
        int(two_squares_parity_sieve(x)[1:].sum())


def test_a_sieve_past_its_maximum_is_refused(monkeypatch):
    # refused before anything is built: the shared table stays as it was,
    # and progression_count(4 * 10^9, ...) allocates no 4 GB sieve
    table = arith._SIEVE
    tracemalloc.start()
    try:
        for refused, arg in ((arith.two_squares_sieve, arith.SIEVE_MAX + 1),
                             (counting.two_squares_count, arith.SIEVE_MAX + 1),
                             (arith.only_1mod4_sieve, arith.SIEVE_MAX + 1)):
            with pytest.raises(BudgetExceededError, match="memory budget"):
                refused(arg)
        with pytest.raises(BudgetExceededError, match="memory budget"):
            counting.progression_count(4 * 10**9, 1, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5
    assert arith._SIEVE is table
    # a table grown geometrically stops at SIEVE_MAX + 1 entries
    monkeypatch.setattr(arith, "SIEVE_MAX", 1000)
    monkeypatch.setattr(arith, "_SIEVE", np.zeros(1, dtype=bool))
    arith.two_squares_sieve(600)
    assert len(arith._SIEVE) == 601
    assert np.array_equal(arith.two_squares_sieve(900),
                          two_squares_parity_sieve(900))
    assert len(arith._SIEVE) == 1001  # not the 1201 that doubling gives


def test_two_squares_sieve_matches_the_oracles_exhaustively(monkeypatch):
    # the sieve marks a^2 + b^2; the oracles factor each m, or sieve by
    # valuation parities.  ok[0] is False: 0 is no value of the indicator
    x = 10**4
    sieve = arith.two_squares_sieve(x)
    assert not sieve[0]
    assert sieve[1:].tolist() == [bool(arith.conic_soluble_global(m))
                                  for m in range(1, x + 1)]
    assert np.array_equal(sieve, two_squares_parity_sieve(x))
    # across the geometric rebuilds of a fresh table
    monkeypatch.setattr(arith, "_SIEVE", np.zeros(1, dtype=bool))
    for limit in (1, 2, 50, 51, 3000, 10**5):
        assert np.array_equal(arith.two_squares_sieve(limit),
                              two_squares_parity_sieve(limit))
        assert not arith._SIEVE.flags.writeable


def test_theta_above_the_sieve_range():
    # a value past 2e8 switches every value to factorization: compare with
    # conic_soluble_global on both sides of the switch, and on small values
    # with the sieve path
    limit = arith.SIEVE_MAX
    small = np.array([0, -1, -5, 1, 2, 3, 9, 21, 45, 0, 3, 9], dtype=np.int64)
    r = 14143  # r^2 just above the limit
    big = np.array([limit - 5, limit - 1, limit, limit + 1, r * r, r * r + 1,
                    2 * r * r, 3 * r * r, -limit - 1, limit + 1, 9 * limit],
                   dtype=np.int64)
    values = np.concatenate([small, big])
    got = counting._theta_of_values(values)
    want = [v > 0 and bool(arith.conic_soluble_global(v))
            for v in values.tolist()]
    assert got.tolist() == want
    assert np.array_equal(got[:len(small)], counting._theta_of_values(small))


def test_progression_count():
    assert counting.progression_count(100, 1, 4) == 15
    with pytest.raises(DomainError, match="multiple of 4"):
        counting.progression_count(100, 1, 6)
    with pytest.raises(DomainError, match="coprime"):
        counting.progression_count(100, 2, 4)
    with pytest.raises(DomainError, match="1 mod 4"):
        counting.progression_count(100, 3, 4)
    with pytest.raises(DomainError, match="at least Q"):
        counting.progression_count(3, 1, 4)


def test_count_record_csv(demo):
    rec = counting.projective_count(demo, 5)
    assert counting.CountRecord.csv_header() == \
        "label,t,raw_count,normalized,include_zero"
    row = rec.csv_row()
    assert row.startswith("demo-pair,5,2,")
    assert row.count(",") == 4
