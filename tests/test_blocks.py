"""Variable blocks, exact joins, and every block path against its oracle.

The differential tests generate small instances (strategies.instances)
and compare each block path with the direct path of the same layer.  They
call the block computations themselves, so on a single block they still
join one table and classify it.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibrecount import blocks, counting, expsums, padic
from fibrecount.counting import BudgetExceededError
from fibrecount.forms import Form, Instance
from strategies import instances, pair


def _bracket(inst, p, N, e, budget, method="auto"):
    """Exact (low, high) soluble densities from the two conventions."""
    out = []
    for as_soluble in (False, True):
        d = padic.soluble_density(inst, p, N, lift_extra=e,
                                  undecided_as_soluble=as_soluble,
                                  budget=budget, method=method)
        out.append(Fraction(d.raw_count,
                            d.mass_scale * p ** (N * (inst.n - 1))))
    return tuple(out)


# ---------------------------------------------------------------------------
# blocks and joins
# ---------------------------------------------------------------------------

def test_blocks_of_the_shipped_instances(four_squares, bilinear, linked):
    assert [b.vars for b in blocks.variable_blocks(four_squares)] == \
        [(0,), (1,), (2,), (3,)]
    assert [b.vars for b in blocks.variable_blocks(bilinear)] == \
        [(0, 1), (2, 3)]
    assert len(blocks.variable_blocks(linked)) == 1
    g = blocks.variable_blocks(bilinear)[1]
    assert g.g2 == Form(2, 2, ((-1, (1, 1)),))


def test_unused_variable_is_a_zero_block():
    inst = Instance(f1=Form(2, 2, ((1, (2, 0)),)),
                    f2=Form(2, 2, ((3, (2, 0)),)), n=2, d=2, box_max_m=1)
    free = blocks.variable_blocks(inst)[1]
    assert free.vars == (1,) and free.g1 is None and free.g2 is None
    table = blocks.residue_table(free, 5, 5, 5, 10**6)
    assert table[0, 0] == 5 and table.sum() == 5


def _diagonal(n):
    f = Form(n, 2, tuple((1, pair(n, i, i)) for i in range(n)))
    return Instance(f1=f, f2=f, n=n, d=2, box_max_m=n, label="diagonal")


def test_balanced_halves(four_squares, bilinear):
    assert blocks.balanced_halves(blocks.variable_blocks(four_squares)) == \
        ([0, 1], [2, 3])
    assert blocks.balanced_halves(blocks.variable_blocks(bilinear)) == \
        ([0, 1], [2, 3])
    sized = [blocks.Block(tuple(range(a, b)), None, None)
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


def _cyclic_oracle(x, y):
    out = np.zeros(x.shape, dtype=object)
    for i in itertools.product(*map(range, x.shape)):
        for j in itertools.product(*map(range, y.shape)):
            k = tuple((a + b) % s for a, b, s in zip(i, j, x.shape))
            out[k] += int(x[i]) * int(y[j])
    return out


@pytest.mark.parametrize("scale", [10, 2**24])
def test_convolve_is_exact(scale):
    # odd, prime-power and mixed shapes; (2, 53) and (1, 199) are lengths
    # at which pocketfft may run Bluestein's algorithm
    rng = np.random.default_rng(7)
    for shape in [(9, 3), (9, 4), (25, 5), (7, 49), (11, 11), (13, 13),
                  (6, 9), (2, 53), (1, 199)]:
        x = rng.integers(0, scale, shape).astype(np.int64)
        y = rng.integers(0, scale, shape).astype(np.int64)
        if scale > 10:
            # y keeps 16 entries, so the joined mass stays in the exact
            # range; one digit would still break the rounding bound
            y.flat[rng.permutation(y.size)[16:]] = 0
            assert blocks.fft_error_factor(shape, 1) * \
                np.linalg.norm(x) * np.linalg.norm(y) > 0.5
        want = _cyclic_oracle(x, y)
        assert (blocks.convolve(x, y) == want).all()
        assert (blocks.convolve(x, y, zero_column=True) == want[:, 0]).all()


def test_join_takes_powers():
    for shape in [(3, 4), (5, 9)]:
        x = np.arange(np.prod(shape), dtype=np.int64).reshape(shape)
        y = np.ones(shape, dtype=np.int64)
        cube = _cyclic_oracle(_cyclic_oracle(x, x), x)
        assert (blocks.join([(x, 3)]) == cube[:, 0]).all()
        assert (blocks.join([(x, 3), (y, 1)])
                == _cyclic_oracle(cube, y)[:, 0]).all()
        assert (blocks.join([(y, 1)]) == y[:, 0]).all()


def test_transform_plans():
    # the passes pocketfft runs, and Bluestein's 11-smooth inner length
    assert blocks._radices(2187) == [3] * 7
    assert blocks._radices(1000) == [8, 5, 5, 5]
    assert blocks._radices(14641) == [11] * 4
    assert blocks._radices(96) == [8, 4, 3]
    assert blocks._smooth_size(397) == 400


def test_convolve_refuses_the_inexact_range():
    x = np.full((2, 2), 2**31, dtype=np.int64)
    with pytest.raises(BudgetExceededError, match="exact range"):
        blocks.convolve(x, x)


# ---------------------------------------------------------------------------
# block paths against their oracles on generated instances
# ---------------------------------------------------------------------------

@given(instances(), st.integers(1, 3), st.booleans())
def test_fuzz_split_equals_slab(inst, P, incl):
    slab = counting.count_soluble_fibre_points(
        inst, P, include_zero_fibres=incl, method="slab")
    assert counting.count_soluble_fibre_points(
        inst, P, include_zero_fibres=incl) == slab
    if len(blocks.variable_blocks(inst)) >= 2:
        assert counting.count_soluble_fibre_points(
            inst, P, include_zero_fibres=incl, method="split") == slab


@given(instances(), st.integers(2, 12))
def test_fuzz_block_birch_table(inst, q):
    block = expsums._block_table(inst, q, 10**6)
    direct = expsums.birch_sum_table(inst, q, method="direct")
    assert np.abs(block - direct).max() <= 1e-9 * q ** inst.n


@given(instances(), st.sampled_from([(2, 1), (2, 3), (3, 2), (5, 1),
                                     (5, 2), (7, 1)]))
def test_fuzz_block_tau_counts(inst, pN):
    p, N = pN
    for k in range(1, N + 1):  # (count, count, 0) without the fibre condition
        assert padic._block_masses(inst, p, k, 0, False, 10**6) == \
            padic._tree_masses(inst, p, k, 0, False, padic.DEFAULT_BUDGET)[0]


@settings(max_examples=40)
@given(instances(), st.sampled_from([(2, 1, 2), (2, 2, 1), (2, 3, 0),
                                     (3, 1, 2), (3, 2, 1), (7, 1, 1)]),
       st.sampled_from([10, 100, 1000]))
def test_fuzz_block_soluble_density(inst, pNe, small_budget):
    p, N, e = pNe
    assume(p ** (inst.n * (N + e)) <= 10**6)  # keeps the full tree small
    # (count, soluble, undecided) masses in the units p^(-n e)
    count, sol, und = padic._block_masses(inst, p, N, e, True, 10**9)
    assert padic._tree_masses(inst, p, N, e, True, 10**9)[0] == \
        (count, sol, und)
    try:  # a small budget may stop the tree early: its bracket is wider
        tree = padic._tree_masses(inst, p, N, e, True, small_budget)[0]
    except BudgetExceededError:
        return
    assert tree[0] == count
    assert tree[1] <= sol <= sol + und <= tree[1] + tree[2]


@settings(max_examples=40)
@given(instances(), st.sampled_from([(2, 2, 2), (2, 3, 1), (2, 4, 0),
                                     (3, 2, 1), (3, 3, 0), (7, 2, 1)]),
       st.sampled_from([100, 10**9]))
def test_fuzz_tree_stabilization_masses(inst, pNe, budget):
    # the one-pass tree classifies the level-(N-1) solutions it holds; that
    # must equal a tree of its own one level lower
    p, N, e = pNe
    assume(p ** (inst.n * (N + e)) <= 10**6)
    try:
        prev = padic._tree_masses(inst, p, N, e, True, budget)[1]
    except BudgetExceededError:
        return
    assert prev == padic._tree_masses(inst, p, N - 1, min(e, 1), True,
                                      budget)[0]


@settings(max_examples=30)
@given(instances(), st.integers(1, 6))
def test_fuzz_mobius_residual(inst, t):
    assert counting.mobius_residual(inst, t) == 0


# ---------------------------------------------------------------------------
# the shipped instances
# ---------------------------------------------------------------------------

def test_block_soluble_density_reaches_full_depth(four_squares):
    # at p = 7 the tree stops early on the default budget; auto (stationary
    # phase, whose masses equal the block path's: test_phase_equals_blocks)
    # reaches full depth, so its bracket lies inside the tree's
    assert blocks.path_for(four_squares, "auto") == "block"
    block = _bracket(four_squares, 7, 2, 2, padic.DEFAULT_BUDGET)
    tree = _bracket(four_squares, 7, 2, 2, padic.DEFAULT_BUDGET, "direct")
    assert tree[0] == block[0] and block[1] < tree[1]


def test_block_path_reaches_p11(four_squares):
    # the join of 14641 x 121 tables fits the transform cap at its natural
    # length; it counts the level-2 solutions as the lift tree does, and
    # its masses are the stationary phase's
    count, sol, und = padic._block_masses(four_squares, 11, 2, 2, True,
                                          padic.DEFAULT_BUDGET)
    tree = padic._tree_masses(four_squares, 11, 2, 0, False,
                              padic.DEFAULT_BUDGET)[0]
    assert count == tree[0] == 1931281
    assert 0 < sol and sol + und <= count * 11 ** 8
    assert padic._phase_masses(four_squares, 11, 2, 2, True,
                               padic.DEFAULT_BUDGET)[0] == (count, sol, und)


def test_block_paths_take_the_instance_blocks(four_squares, linked):
    assert blocks.path_for(four_squares, "auto") == "block"
    assert blocks.path_for(linked, "auto") == "direct"
    assert blocks.path_for(four_squares, "direct") == "direct"
    with pytest.raises(ValueError, match="unknown method"):
        blocks.path_for(linked, "block")
