"""Variable blocks, residue tables, and every block path against its
oracle.

The differential tests generate small instances (strategies.instances)
and compare each block path with the reference path of its layer: the
slab scan for counting, the scan of (Z/q)^n (oracles.birch_table_scan)
for Birch tables.  The Birch-table fuzz calls the block computation
itself, so it runs on a single block too.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibrecount import archimedean, blocks, counting, expsums, padic
from fibrecount.blocks import BudgetExceededError
from fibrecount.forms import Form, Instance
from oracles import birch_table_scan, tree_masses
from strategies import instances, mirrored, pair


# ---------------------------------------------------------------------------
# blocks and halves
# ---------------------------------------------------------------------------

def test_blocks_of_the_shipped_instances(four_squares, bilinear, linked):
    assert blocks.variable_blocks(four_squares) == [(0,), (1,), (2,), (3,)]
    assert blocks.variable_blocks(bilinear) == [(0, 1), (2, 3)]
    assert len(blocks.variable_blocks(linked)) == 1
    b = blocks.variable_blocks(bilinear)[1]
    assert blocks.restrict(bilinear.f2, b) == Form(2, 2, ((-1, (1, 1)),))


def test_unused_variable_is_a_zero_block():
    inst = Instance(f1=Form(2, 2, ((1, (2, 0)),)),
                    f2=Form(2, 2, ((3, (2, 0)),)), n=2, d=2)
    free = blocks.variable_blocks(inst)[1]
    assert free == (1,)
    assert blocks.restrict(inst.f1, free) is None
    assert blocks.restrict(inst.f2, free) is None
    table = blocks.residue_table(None, None, 1, 5, 10**6)
    assert table[0, 0] == 5 and table.sum() == 5


@pytest.mark.parametrize("chunk", [1, 3, 7, 50, blocks.WORK_BLOCK])
def test_box_covers_the_box_once(chunk, monkeypatch):
    # small chunks reach the leading scalars, which no workload does (for
    # n = 4 that needs an axis over 128 long)
    monkeypatch.setattr(blocks, "WORK_BLOCK", chunk)
    for axis in (np.arange(-3, 4), np.arange(5)):
        for n in range(1, 5):
            points = []
            for cols in blocks.box(axis, n):
                grid = np.broadcast_arrays(*cols)
                assert grid[0].size <= max(chunk, len(axis))
                points += zip(*(g.ravel().tolist() for g in grid))
            assert points == list(itertools.product(axis.tolist(), repeat=n))


def test_a_tiny_working_block_changes_nothing(four_squares, bilinear,
                                             linked, monkeypatch):
    # every hot loop cut into blocks of 40 values gives the same counts,
    # Monte Carlo rows, p-adic masses and Birch tables
    def results():
        expsums._birch_table.cache_clear()
        budget, counts = blocks.DEFAULT_BUDGET, []
        for zero in (False, True):
            counts += [counting._count_split(four_squares, 7, zero, budget),
                       counting._count_split(bilinear, 7, zero, budget),
                       counting.count_soluble_fibre_points(linked, 7, zero),
                       counting._count_slab(linked, 7, zero, budget, 1)]
        counts.append(counting.projective_count(linked, 7,
                                                method="direct").raw_count)
        rows = archimedean.real_density(linked, samples=2000).csv_rows()
        masses = [padic.soluble_density(linked, p, 3).raw_count
                  for p in (2, 3)]
        masses.append(tree_masses(linked, 2, 3, 2, True, budget))
        table = expsums.birch_sum_table(bilinear, 6).tobytes()
        return counts, rows, masses, table

    want = results()
    monkeypatch.setattr(blocks, "WORK_BLOCK", 40)
    assert results() == want


def _diagonal(n):
    f = Form(n, 2, tuple((1, pair(n, i, i)) for i in range(n)))
    return Instance(f1=f, f2=f, n=n, d=2, label="diagonal")


def test_balanced_halves(four_squares, bilinear):
    assert blocks.balanced_halves(blocks.variable_blocks(four_squares)) == \
        ([0, 1], [2, 3])
    assert blocks.balanced_halves(blocks.variable_blocks(bilinear)) == \
        ([0, 1], [2, 3])
    sized = [tuple(range(a, b))
             for a, b in ((0, 3), (3, 4), (4, 6), (6, 7), (7, 9))]
    half_a, half_b = blocks.balanced_halves(sized)
    assert (len(half_a), len(half_b)) == (4, 5) and 0 in half_a
    assert sorted(half_a + half_b) == list(range(9))


def test_many_blocks_are_packed_at_once():
    # thirty one-variable blocks: the packing must not try 2^29 subsets
    inst = _diagonal(30)
    half_a, half_b = blocks.balanced_halves(blocks.variable_blocks(inst))
    assert len(half_a) == len(half_b) == 15
    with pytest.raises(BudgetExceededError):
        counting.count_soluble_fibre_points(inst, 2, budget=10**6)


# ---------------------------------------------------------------------------
# block paths against their oracles on generated instances
# ---------------------------------------------------------------------------

@given(st.one_of(instances(), mirrored()), st.integers(1, 3), st.booleans())
def test_fuzz_split_equals_slab(inst, P, incl):
    # also in blocks of 8 values, where the join takes one A key a slice
    # and its pair chunks cut the longer runs of B (of A's own rows, when
    # the halves mirror)
    budget = blocks.DEFAULT_BUDGET
    slab = counting._count_slab(inst, P, incl, budget, 1)
    assert counting.count_soluble_fibre_points(
        inst, P, include_zero_fibres=incl) == slab
    if len(blocks.variable_blocks(inst)) >= 2:
        assert counting._count_split(inst, P, incl, budget) == slab
        with mock.patch.object(blocks, "WORK_BLOCK", 8):
            assert counting._count_split(inst, P, incl, budget) == slab


@given(instances(), st.integers(1, 6),
       st.sampled_from([(False, False), (True, False), (True, True)]))
def test_fuzz_quadric_equals_slab(inst, P, kind):
    assume(counting._quadric_parts(inst) is not None)
    zero, prim = kind
    assert counting._count_quadric(inst, P, zero, 10**6, prim) == \
        counting._count_slab(inst, P, zero, 10**6, 1, prim)


@given(instances(), st.integers(2, 12))
def test_fuzz_block_birch_table(inst, q):
    block = expsums._block_table(inst, q, 10**6)
    scan = birch_table_scan(inst, q)
    assert np.abs(block - scan).max() <= 1e-9 * q ** inst.n


@settings(max_examples=30)
@given(instances(), st.integers(1, 6))
def test_fuzz_mobius_residual(inst, t):
    assert counting.mobius_residual(inst, t) == 0


# ---------------------------------------------------------------------------
# the shipped instances
# ---------------------------------------------------------------------------

def test_block_soluble_density_reaches_full_depth(four_squares):
    # at p = 7 the tree's second refinement past level 2 exceeds the
    # default budget, so it refuses; stationary phase lifts only the
    # classes its rule leaves and answers on the same budget (its masses
    # equal the exact join of the half tables: test_phase_equals_blocks)
    assert len(blocks.variable_blocks(four_squares)) == 4
    budget = blocks.DEFAULT_BUDGET
    with pytest.raises(BudgetExceededError, match="level 4 at p=7"):
        tree_masses(four_squares, 7, 2, 2, True, budget)
    count, sol, und = padic._phase(four_squares, 7, 2, 4, True, budget)
    assert count > 0 and sol > 0 and und >= 0


def test_block_path_reaches_p11(four_squares):
    # stationary phase counts the level-2 solutions at p = 11 as the lift
    # tree does
    tree = tree_masses(four_squares, 11, 2, 0, False, blocks.DEFAULT_BUDGET)
    count, sol, und = padic._phase(four_squares, 11, 2, 4, True,
                                   blocks.DEFAULT_BUDGET)
    assert count == tree[0] == 1931281
    assert 0 < sol and sol + und <= count * 11 ** 8


def test_block_paths_take_the_instance_blocks(four_squares, linked):
    # birch_sum_table takes the block product on an instance of several
    # blocks and stationary phase on one block, within budgets (the q^2
    # entries of a table of four_squares, 3^4 lift candidates of linked)
    # far below the q^4 of a scan
    assert np.array_equal(expsums.birch_sum_table(four_squares, 6, 36),
                          expsums._block_table(four_squares, 6, 36))
    phase = expsums._phase_distribution(linked, 9, 100)
    assert np.array_equal(expsums.birch_sum_table(linked, 9, 100),
                          np.conj(np.fft.fft2(phase.astype(np.float64))))
