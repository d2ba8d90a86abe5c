"""Variable blocks: the factorization every layer shares.

Two variables interact when some monomial of f1 or f2 contains both.  The
connected components of this interaction graph are the instance's blocks;
no monomial straddles two of them, so on x = (x_b)_b

  f1(x) = sum_b g1_b(x_b),   f2(x) = sum_b g2_b(x_b)

with g_b the restriction of f to the block b.  A variable that occurs in no
monomial is a block of its own with both restrictions zero.  Every complete
sum over a box that is a product of per-block boxes then factors:

* the joint value distribution of (f1, f2) is the convolution of the
  per-block distributions (cyclic when the values are taken mod q);
* an exponential sum e((a1 f1 + a2 f2)/q) is the product of the per-block
  sums, because e(.) is additive.

counting and expsums take their block paths when an instance has at least
two blocks (expsums through block_tables, one residue table per distinct
block).  Otherwise counting keeps its direct path and expsums takes
padic's stationary phase, its one other path.  The oracles the other
paths are tested against are counting's slab scan and, for the Birch
tables, the scan of (Z/q)^n in joint_value_distribution, which no library
path calls.  padic has no block path: stationary phase serves every
instance there, and its reference, the lift tree, lives with the tests.

box() is the one enumeration of a complete box: residue tables, and the
half tables, quadric scans and slab counts of counting, scan it chunk by
chunk.  pool_map runs independent chunks, the slab scan's box chunks
and the shell estimator's, on the calling thread and on plain threads it
starts and joins, one for each further worker, never more workers than
tasks or CPUs the process may run on; J runs on the calling thread.

WORK_BLOCK is the one working-block size of every hot loop: no array a
loop works through at a time holds more than WORK_BLOCK values, unless an
axis of the box or the table a chunk is counted into is longer.  It
bounds the box chunks, the slices of the first table (WORK_BLOCK / 16
keys) and the pair chunks in the join of counting's split count, padic's
lift candidates (WORK_BLOCK / n of them, n coordinates each) and
archimedean's Monte Carlo blocks (WORK_BLOCK / n points).  The one other
size is the 2^18-point Monte Carlo chunk, which defines the random
streams.  counting.py states the working set of each of its kernels.

DEFAULT_BUDGET, the enumeration volume one operation may scan or lift, is
the default budget of every layer, and BudgetExceededError (defined in
arith, beside DomainError) the refusal of each.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .arith import BudgetExceededError
from .forms import Form, Instance

# Values per working array (512 KB of int64 or float64).  Measured on a
# 2-CPU VM with 2 MB of L2 per core: the Monte Carlo blocks are fastest at
# 2^14-2^15 points of 4 coordinates, and the box, quadric and pair loops
# gain little past 2^16 points (CHANGES.md).
WORK_BLOCK = 1 << 16
DEFAULT_BUDGET = 3 * 10**8


@dataclass(frozen=True)
class Block:
    """One block of variables and the restrictions of (f1, f2) to it.

    g1, g2 are forms in len(vars) variables, or None where the form has no
    monomial in the block (the restriction is then identically zero).
    """

    vars: tuple
    g1: Form | None
    g2: Form | None

    @property
    def n(self) -> int:
        return len(self.vars)


def restrict(f: Form, block) -> Form | None:
    """f restricted to the variables in block, or None if no monomial of f
    lives there."""
    pos = {v: i for i, v in enumerate(block)}
    monos = []
    for coeff, exps in f.monomials:
        if all(e == 0 or i in pos for i, e in enumerate(exps)):
            sub = [0] * len(block)
            for i, e in enumerate(exps):
                if e:
                    sub[pos[i]] = e
            monos.append((coeff, tuple(sub)))
    if not monos:
        return None
    return Form(n_vars=len(block), degree=f.degree, monomials=tuple(monos))


def variable_blocks(inst: Instance) -> list:
    """Blocks of inst, ordered by their smallest variable."""
    parent = list(range(inst.n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for f in (inst.f1, inst.f2):
        for _, exps in f.monomials:
            idx = [i for i, e in enumerate(exps) if e]
            for a, b in zip(idx, idx[1:]):
                parent[find(a)] = find(b)
    comps: dict[int, list] = {}
    for i in range(inst.n):
        comps.setdefault(find(i), []).append(i)
    return [Block(tuple(c), restrict(inst.f1, c), restrict(inst.f2, c))
            for c in comps.values()]


def balanced_halves(blocks) -> tuple:
    """Variables of the blocks packed into two halves, the larger as small
    as possible (so its box, (2P+1)^size, is as small as possible).

    Only the block sizes matter: a subset sum over them, with the first
    block in half A, reaches at most n sums, each kept with the block that
    first reached it."""
    sizes = [b.n for b in blocks]
    total = sum(sizes)
    came = {sizes[0]: None}  # sum of half A -> (previous sum, block added)
    for i, s in enumerate(sizes[1:], start=1):
        for prev in list(came):
            came.setdefault(prev + s, (prev, i))
    size_a = min((s for s in came if s < total),
                 key=lambda s: (max(s, total - s), s))
    in_a = [False] * len(blocks)
    in_a[0] = True
    while came[size_a] is not None:
        size_a, i = came[size_a]
        in_a[i] = True
    half_a = sorted(v for b, a in zip(blocks, in_a) if a for v in b.vars)
    half_b = sorted(v for b, a in zip(blocks, in_a) if not a for v in b.vars)
    return half_a, half_b


# ---------------------------------------------------------------------------
# chunk pools
# ---------------------------------------------------------------------------

def pool_map(fn, tasks, threads: int) -> list:
    """[fn(task) for task in tasks], in task order, on at most `threads`
    workers and never more than there are tasks or CPUs the process may
    run on.  Worker w runs tasks w, w + workers, ...: the calling thread
    is worker 0, and the others run on threads it starts and joins.  On
    more than one worker every task runs, and the exception of the
    lowest-indexed failing task is raised."""
    tasks = list(tasks)
    workers = max(1, min(threads, len(tasks), len(os.sched_getaffinity(0))))
    if workers == 1:
        return [fn(task) for task in tasks]
    results, errors = [None] * len(tasks), {}

    def work(first):
        for i in range(first, len(tasks), workers):
            try:
                results[i] = fn(tasks[i])
            except Exception as exc:
                errors[i] = exc

    pool = [threading.Thread(target=work, args=(w,))
            for w in range(1, workers)]
    for thread in pool:
        thread.start()
    try:
        work(0)
    finally:
        for thread in pool:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


# ---------------------------------------------------------------------------
# box scans and residue tables
# ---------------------------------------------------------------------------

def box(axis: np.ndarray, n: int, limit: int | None = None):
    """axis^n in itertools.product order, in chunks of n columns that
    broadcast to the chunk's grid of at most max(limit, len(axis)) points
    (limit defaults to WORK_BLOCK).

    The trailing variables are whole axes, the one before them a slice of
    the axis and any leading ones scalars, so each monomial is a product of
    1-d factors and only the sums span the grid."""
    m = len(axis)
    limit = max(WORK_BLOCK if limit is None else limit, m)
    inner = 0  # trailing whole axes
    while inner < n - 1 and m ** (inner + 1) <= limit:
        inner += 1
    rows = min(m, limit // m ** inner)
    whole = [axis.reshape([m if j == i else 1 for j in range(inner + 1)])
             for i in range(1, inner + 1)]
    for lead in itertools.product(axis, repeat=n - inner - 1):
        for start in range(0, m, rows):
            part = axis[start:start + rows].reshape([-1] + [1] * inner)
            yield list(lead) + [part] + whole


def refuse_table(modulus: int, budget: int) -> None:
    """Refuses a modulus x modulus table past budget entries."""
    if modulus * modulus > budget:
        raise BudgetExceededError(f"a {modulus} x {modulus} table exceeds "
                                  f"budget {budget}")


def residue_table(block: Block, modulus: int, budget: int) -> np.ndarray:
    """T[u, v] = #{x mod modulus : g1(x) = u, g2(x) = v mod modulus}.

    The box (Z/modulus)^n is scanned in box chunks, one bincount each.
    """
    n = block.n
    if modulus ** n > budget:
        raise BudgetExceededError(
            f"block volume {modulus}^{n} = {modulus ** n} exceeds budget "
            f"{budget}")
    refuse_table(modulus, budget)

    def residues(g, cols):
        return 0 if g is None else g.evaluate_batch_mod(cols, modulus)

    table = np.zeros(modulus * modulus, dtype=np.int64)
    # a chunk as large as the table its bincount fills, if that is larger
    for cols in box(np.arange(modulus, dtype=np.int64), n,
                    limit=max(WORK_BLOCK, modulus * modulus)):
        key = np.broadcast_to(residues(block.g1, cols) * modulus
                              + residues(block.g2, cols),
                              np.broadcast_shapes(*map(np.shape, cols)))
        table += np.bincount(key.ravel(), minlength=modulus * modulus)
    return table.reshape(modulus, modulus)


def block_tables(inst: Instance, modulus: int, budget: int) -> list:
    """(residue_table mod modulus, multiplicity) per distinct block of
    inst: blocks with equal restrictions share one table."""
    groups: dict = {}
    for b in variable_blocks(inst):
        key = (b.g1, b.g2)
        if key in groups:
            groups[key][1] += 1
        else:
            groups[key] = [residue_table(b, modulus, budget), 1]
    return [tuple(g) for g in groups.values()]
