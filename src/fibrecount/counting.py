"""Brute-force ground truth: box counts, projective counts, two-squares counts.

Counting conventions (fixed across the library):

* count_soluble_fibre_points(inst, P) counts NONZERO integer vectors x in
  [-P,P]^n with f2(x) = 0, f1(x) != 0 and a soluble fibre.  With
  include_zero_fibres it additionally counts nonzero x with
  f1(x) = f2(x) = 0 (their fibres contain (0:0:1)).  The origin is never
  counted: it belongs to no projective point, and including it would break
  the exact Moebius identity below.

* projective_count(inst, t) counts projective base points of height <= t
  with a soluble fibre, i.e. half the number of primitive vectors: by the
  Moebius sum below on an instance with several variable blocks, whose
  box counts then take the split path, and directly otherwise.

* The two are tied by exact Moebius inversion:
  2 * projective_count(t) = sum_{l<=t} mu(l) * count(floor(t/l), zero=True),
  an integer identity with no error term.  One sum (_moebius_sum) serves
  projective_count(method='moebius') and mobius_residual, which returns
  the difference and must be identically zero.

Box counts take one of three paths, tried in this order by one
dispatcher (_count_box), which serves count_soluble_fibre_points and the
direct projective count; a path refused by the budget passes to the next.
The budget bounds the points a path scans.

* split: on an instance with several variable blocks (see blocks.py) the
  blocks are packed into two halves of balanced size, the distinct
  (f2, f1) value pairs of each half are tabulated over its sub-box, and
  the halves are joined on f2-parts that sum to zero (meet in the
  middle).  When the halves mirror (the second's f2-part is the first's
  negated, its f1-part the same, as on every shipped config) the second
  table is the first with v2 negated, so one table is built and joined
  with itself.  The largest box it scans is the larger half's: (2P+1)^2
  points instead of (2P+1)^4 on four_squares.  It has no gcd test, so
  primitive counts skip it.
* quadric: when d = 2 and f2 has a square term a x_k^2, f2 is quadratic
  in x_k, so only the other n - 1 coordinates are scanned and x_k is
  solved for: the float64 square root of the discriminant, exact for a
  square below 2^52, gives the integer roots.  (2P+1)^(n-1) points, on
  one thread.
* slab: the whole box [-P,P]^n in box chunks (blocks.box), on `threads`
  threads.  It is the oracle the other two paths are tested against.

The direct projective count is the box count with a gcd filter.

Every path works through blocks of at most blocks.WORK_BLOCK values: box
chunks, and the slices and pair chunks of the split's join.  Besides its
tables of distinct pairs (one when the halves mirror, two otherwise),
each kernel holds a stated set of WORK_BLOCK arrays:

* a half-table build: a chunk's keys, and the values and monomials of
  one form.  The keys are sorted in place and the chunk dropped before
  its distinct pairs merge into the table, whose merge holds the new keys
  and counts beside the old counts.
* the split's join: a pair chunk's partners, f1 values and one gathered
  term; then the partners, keys and weights of the pairs that count.
* the quadric scan: three buffers allocated once per call and reused for
  every chunk, the discriminants, B, and the monomials of either form,
  which then hold the float square roots; and the points of one root.
* the slab scan: a chunk's f2 values and monomials, on each thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blocks
from .arith import (SIEVE_MAX, DomainError, conic_soluble_global,
                    moebius_sieve, only_1mod4_sieve, two_squares_sieve)
from .blocks import (BudgetExceededError, balanced_halves, box, pool_map,
                     restrict, variable_blocks)
from .forms import Instance


# ---------------------------------------------------------------------------
# sieve counts
# ---------------------------------------------------------------------------

def two_squares_count(x: int) -> int:
    """#{1 <= m <= x : m is a sum of two squares}."""
    if x < 1:
        raise DomainError("x must be positive")
    return int(two_squares_sieve(x)[1:x + 1].sum())


def progression_count(z: int, a: int, Q: int) -> int:
    """#{r <= z : r = a mod Q, every prime factor of r is 1 mod 4}.

    Hypotheses of the underlying sieve asymptotic are enforced: Q must be a
    multiple of 4, gcd(a,Q) = 1, a = 1 mod 4 and z >= Q.
    """
    if Q % 4 != 0:
        raise DomainError("Q must be a multiple of 4")
    if math.gcd(a, Q) != 1:
        raise DomainError("a must be coprime to Q")
    if a % 4 != 1:
        raise DomainError("a must be 1 mod 4")
    if z < Q:
        raise DomainError("z must be at least Q")
    ok = only_1mod4_sieve(z)
    return int(ok[a % Q::Q][: (z - a % Q) // Q + 1].sum())


# ---------------------------------------------------------------------------
# box enumeration
# ---------------------------------------------------------------------------

@dataclass
class CountRecord:
    """One row of counting output."""

    label: str
    t: int
    raw_count: int
    normalized: float
    include_zero: bool

    @classmethod
    def of(cls, inst: Instance, t: int, raw_count: int,
           include_zero: bool) -> "CountRecord":
        """The row of raw_count at height t, normalized by
        sqrt(log t) / t^(n-d); NaN below t = 2, where log t is too small."""
        normalized = (raw_count * math.sqrt(math.log(t))
                      / t ** (inst.n - inst.d) if t >= 2 else float("nan"))
        return cls(label=inst.label, t=t, raw_count=raw_count,
                   normalized=normalized, include_zero=include_zero)

    @staticmethod
    def csv_header() -> str:
        return "label,t,raw_count,normalized,include_zero"

    def csv_row(self) -> str:
        return (f"{self.label},{self.t},{self.raw_count},"
                f"{self.normalized:.12g},{str(self.include_zero).lower()}")


def _theta_of_values(values: np.ndarray) -> np.ndarray:
    """Vectorized soluble-fibre indicator; values <= 0 give False.

    Uses the two-squares sieve when the value range is modest, otherwise
    factors each distinct positive value once (f1-values repeat heavily on
    symmetric boxes).
    """
    out = np.zeros(len(values), dtype=bool)
    pos = values > 0
    if not pos.any():
        return out
    positive = values[pos]
    vmax = int(positive.max())
    if vmax <= SIEVE_MAX:
        out[pos] = two_squares_sieve(vmax)[positive]
        return out
    distinct, inverse = np.unique(positive, return_inverse=True)
    ok = np.array([conic_soluble_global(v) for v in distinct.tolist()],
                  dtype=bool)
    out[pos] = ok[inverse]
    return out


def _packing(inst: Instance, P: int) -> tuple:
    """(b1, b2): the value pair (v2, v1) of either half packs into the
    int64 key (v2 + b2) (2 b1 + 1) + v1 + b1, as 1-d keys sort far faster
    than rows.  Refused where keys reach 2^62: a sum of two stays in int64."""
    b1, b2 = (f.coeff_norm() * max(P, 1) ** inst.d + 1
              for f in (inst.f1, inst.f2))
    if (2 * b2 + 1) * (2 * b1 + 1) >= 2**62:
        raise BudgetExceededError("value range too wide for packed keys")
    return b1, b2


def _half_table(inst: Instance, half, P: int, budget: int):
    """Distinct (f2, f1) value pairs of the half's parts over its box, with
    multiplicities: sorted keys (_packing), so grouped by f2, and counts.

    The box is scanned in box chunks (blocks.box) up to the origin, each
    point counted twice and the origin once: d is even, so g(-x) = g(x),
    and -x lies as far after the origin in the box's product order as x
    lies before it.  Each chunk's keys are sorted in place and its
    distinct pairs counted; the chunk is dropped, and the pairs the table
    already holds add to its counts, the others are inserted.  So memory
    follows the distinct pairs, not the box: the table, and either the
    chunk's three WORK_BLOCK arrays (its keys, and the values and
    monomials of one form) or the merge."""
    nb = len(half)
    if (2 * P + 1) ** nb > budget:
        raise BudgetExceededError(
            f"sub-box volume {(2*P+1)**nb} exceeds budget {budget}")
    b1, b2 = _packing(inst, P)
    g1, g2 = restrict(inst.f1, half), restrict(inst.f2, half)
    keys = None
    todo = ((2 * P + 1) ** nb + 1) // 2  # the points up to the origin
    for cols in box(np.arange(-P, P + 1, dtype=np.int64), nb):
        key = (g2.evaluate_batch(cols, P) if g2 else
               np.zeros(np.broadcast_shapes(*map(np.shape, cols)), np.int64))
        key += b2
        key *= 2 * b1 + 1
        key += b1
        if g1:
            key += g1.evaluate_batch(cols, P)
        key = key.ravel()[:todo]
        todo -= len(key)
        key.sort()
        head = np.empty(len(key) + 1, dtype=bool)  # where each run starts
        head[0] = head[-1] = True
        np.not_equal(key[1:], key[:-1], out=head[1:-1])
        new = key[head[:-1]]
        del key  # the chunk goes before the merge
        cnt = np.diff(np.flatnonzero(head))
        del head
        cnt *= 2
        if keys is None:
            keys, counts = new, cnt
        else:  # add to the pairs seen before, and insert the others
            at = np.searchsorted(keys, new)
            seen = at < len(keys)
            seen[seen] = keys[at[seen]] == new[seen]
            counts[at[seen]] += cnt[seen]
            fresh = ~seen
            at, new, cnt = at[fresh], new[fresh], cnt[fresh]
            del seen, fresh
            keys = np.insert(keys, at, new)
            counts = np.insert(counts, at, cnt)
            del at
        del new, cnt  # before the next chunk
        if not todo:
            break
    counts[np.searchsorted(keys, b2 * (2 * b1 + 1) + b1)] -= 1  # the origin
    return keys, counts


def _mirrored(inst: Instance, half_a, half_b) -> bool:
    """Whether half B's table is half A's with v2 negated: the halves have
    the same size and the same f1 restriction, and opposite f2
    restrictions (monomials compared as sorted tuples)."""
    def terms(f, half, sign=1):
        g = restrict(f, half)
        return sorted((exps, sign * c) for c, exps in g.monomials) if g else []

    return (len(half_a) == len(half_b)
            and terms(inst.f1, half_a) == terms(inst.f1, half_b)
            and terms(inst.f2, half_a, -1) == terms(inst.f2, half_b))


def _count_split(inst: Instance, P: int, include_zero_fibres: bool,
                 budget: int) -> int:
    """Meet in the middle over two halves of the variable blocks: every pair
    of half points with f2-parts summing to 0 is a point of f2 = 0.

    The partners of an A key are the B keys in the row of f2-part -v2, and
    a key plus a partner's key is f1 plus a constant of the two rows.  When
    the halves mirror (_mirrored), B is A with v2 negated, so only A is
    built and joined with itself: the partners of an A key are the A keys
    of its own row, and only the pairs j >= i are walked, j > i weighted
    by 2.  A is walked in slices of WORK_BLOCK / 16 keys, their pairs
    formed in chunks of at most WORK_BLOCK (or one key's row).  A chunk
    is classified from its f1 values first, and only the pairs that count
    are weighed, by the counts of their two keys; in the mirrored join a
    key's pair with itself weighs 1.  So besides the tables the join holds
    three WORK_BLOCK arrays: the partners, the f1 values and one more (a
    gathered term, or the positive values _theta_of_values looks up), and
    then the partners, keys and weights of the pairs that count.  It needs
    at least two blocks.
    """
    b1, b2 = _packing(inst, P)  # refused before any table is built
    width = 2 * b1 + 1
    half_a, half_b = balanced_halves(variable_blocks(inst))
    mirrored = _mirrored(inst, half_a, half_b)
    ka, ca = _half_table(inst, half_a, P, budget)
    kb, cb = (ka, ca) if mirrored else _half_table(inst, half_b, P, budget)
    total, step = 0, max(1, blocks.WORK_BLOCK // 16)
    for first in range(0, len(ka), step):
        keys = ka[first:first + step]
        rows = keys - keys % width  # where each key's row (v2 + b2) starts
        if mirrored:  # the partners of key i: i and the rest of its row
            partner = rows
            lo = np.arange(first, first + len(keys))
        else:  # where B's row -v2 starts
            partner = 2 * b2 * width - rows
            lo = np.searchsorted(kb, partner)
        run = np.searchsorted(kb, partner + width) - lo
        lead = keys - rows - partner - 2 * b1  # f1 = lead[i] + a partner key
        csum = np.cumsum(run)
        start = 0
        while start < len(keys):
            # keys [start, stop) make at most WORK_BLOCK pairs (or one run)
            base = csum[start - 1] if start else 0
            stop = max(int(np.searchsorted(csum, base + blocks.WORK_BLOCK,
                                           "right")), start + 1)
            reps = run[start:stop]
            heads = csum[start:stop] - reps - base  # each run's first pair
            # key i of the slice pairs with the run lo[i], lo[i] + 1, ...
            ib = np.repeat(lo[start:stop] - heads, reps)
            ib += np.arange(len(ib))
            f1v = kb[ib]
            f1v += np.repeat(lead[start:stop], reps)
            hit = _theta_of_values(f1v)
            if include_zero_fibres:
                hit |= f1v == 0
            del f1v  # only the pairs that count are weighed
            ia = np.repeat(np.arange(first + start, first + stop), reps)[hit]
            ib = ib[hit]
            del hit
            w = cb[ib]
            if mirrored:  # (i, j) with j > i stands for (j, i) too
                once = ib == ia
            del ib
            w *= ca[ia]
            total += int(w.sum())
            if mirrored:
                total += int(w.sum()) - int(w[once].sum())
            del ia, w  # before the next chunk's pairs
            start = stop
    return total - int(include_zero_fibres)  # the origin


def _soluble_points(inst: Instance, pts, P: int, include_zero_fibres: bool,
                    primitive: bool) -> int:
    """How many of the points pts (n columns, all on f2 = 0, coordinates in
    [-P,P]) have a soluble fibre, or f1 = 0 with include_zero_fibres; with
    primitive only points with gcd 1 count."""
    if primitive:
        g = np.zeros(len(pts[0]), dtype=np.int64)
        for c in pts:  # np.gcd is the gcd of the absolute values
            np.gcd(g, c, out=g)
        prim = g == 1
        del g
        pts = [c[prim] for c in pts]
    if not len(pts[0]):
        return 0
    v1 = inst.f1.evaluate_batch(pts, P)
    hits = _theta_of_values(v1)
    if include_zero_fibres:
        hits |= v1 == 0
    return int(hits.sum())


def _count_slab(inst: Instance, P: int, include_zero_fibres: bool,
                budget: int, threads: int, primitive: bool = False) -> int:
    """Scan the box [-P,P]^n in box chunks (blocks.box).

    Counts x in [-P,P]^n with f2(x) = 0 and a soluble fibre (or f1(x) = 0
    with include_zero_fibres).  The box count drops the origin; with
    primitive only x with gcd(x) = 1 count.  This is the oracle the split
    and quadric paths are tested against.
    """
    n = inst.n
    est = (2 * P + 1) ** n
    if est > budget:
        raise BudgetExceededError(
            f"box volume {est} exceeds budget {budget}; "
            f"estimated cost ~{est} evaluations")

    def chunk_count(cols) -> int:
        v2 = inst.f2.evaluate_batch(cols, P)
        at = np.nonzero(v2 == 0)
        pts = [np.broadcast_to(c, v2.shape)[at] for c in cols]
        return _soluble_points(inst, pts, P, include_zero_fibres, primitive)

    total = sum(pool_map(chunk_count,
                         box(np.arange(-P, P + 1, dtype=np.int64), n),
                         threads))
    # the origin lies on f2 = 0 with f1 = 0; it has no gcd of 1
    return total - int(include_zero_fibres and not primitive)


def _quadric_parts(inst: Instance):
    """(k, a, B, C) with f2 = a x_k^2 + B(x') x_k + C(x') (Form.powers_of),
    where k is the last variable whose square appears in f2 and x' the
    other n - 1 variables; B (degree 1) and C (degree 2) are Forms over
    x', or 0 where f2 has no such monomial.  None unless d = 2, n >= 2 and
    f2 has a square term."""
    squares = [exps.index(2) for _, exps in inst.f2.monomials if 2 in exps]
    if inst.d != 2 or inst.n < 2 or not squares:
        return None
    k = max(squares)
    const, lin, a = inst.f2.powers_of(k)
    return k, a, lin, const


def _count_quadric(inst: Instance, P: int, include_zero_fibres: bool,
                   budget: int, primitive: bool = False) -> int:
    """The box count of _count_slab, scanning (2P+1)^(n-1) points.

    With f2 = a x_k^2 + B(x') x_k + C(x') (_quadric_parts), the points of
    f2 = 0 over x' are the integer roots x_k = (-B +- s) / (2a) where the
    discriminant B^2 - 4aC is a square s^2: a root counts when 2a divides
    its numerator and |x_k| <= P, a double root (s = 0) once.  x' is
    scanned in box chunks (blocks.box), on one thread, through three
    buffers allocated once per call as long as the largest chunk: the
    discriminants, B, and the monomials of either form, which then hold
    the float square roots.  The points of f2 = 0 a chunk holds are
    counted one root at a time.

    Refused with BudgetExceededError, before any array is built, when the
    (2P+1)^(n-1) scanned points exceed the budget, or when the
    discriminant bound (|B|_1^2 + 4|a| |C|_1) P^2 reaches 2^52, past which
    the float64 square test is not exact (|C|_1 counts as 1 when C is
    absent).
    """
    parts = _quadric_parts(inst)
    if parts is None:
        raise DomainError("the quadric path needs d = 2, n >= 2 and a "
                          "square term in f2")
    k, a, lin, const = parts
    est = (2 * P + 1) ** (inst.n - 1)
    if est > budget:
        raise BudgetExceededError(
            f"scan volume {est} exceeds budget {budget}")
    norm_b = lin.coeff_norm() if lin else 0
    norm_c = const.coeff_norm() if const else 1  # 2aP must fit int64 too
    bound = (norm_b ** 2 + 4 * abs(a) * norm_c) * P * P
    if bound >= 2**52:
        raise BudgetExceededError(
            f"discriminants may reach {bound} >= 2^52, past the exact "
            "float64 square root")
    size = min(est, max(blocks.WORK_BLOCK, 2 * P + 1))  # the largest chunk
    discs, bs, scratch = (np.empty(size, dtype=np.int64) for _ in range(3))
    total = 0
    for cols in box(np.arange(-P, P + 1, dtype=np.int64), inst.n - 1):
        shape = np.broadcast_shapes(*map(np.shape, cols))
        m = math.prod(shape)
        disc = discs[:m]  # flat, and evaluated over the chunk's grid
        if const:
            const.evaluate_batch(cols, P, out=disc.reshape(shape),
                                 scratch=scratch)
        else:
            disc.fill(0)
        disc *= -4 * a
        if lin:
            lin.evaluate_batch(cols, P, out=bs[:m].reshape(shape),
                               scratch=scratch)
            np.multiply(bs[:m], bs[:m], out=scratch[:m])
            disc += scratch[:m]
        # r = floor(sqrt(disc)) in float64, and disc is a square iff r^2 =
        # disc: below 2^52 disc, r and r^2 are exact, and so is the root
        # of a square, which s takes; a negative disc meets r = 0
        r = scratch[:m].view(np.float64)
        np.maximum(disc, 0, out=r)
        np.sqrt(r, out=r)
        np.floor(r, out=r)
        np.multiply(r, r, out=r)
        at = np.flatnonzero(r == disc)
        s = np.sqrt(disc[at]).astype(np.int64)
        neg_b = -bs[at] if lin else 0
        for sign in (1, -1):  # the points of each root in turn
            root, rem = np.divmod(neg_b + sign * s, 2 * a)
            keep = (rem == 0) & (np.abs(root) <= P)
            if sign < 0:  # the second root, unless it is the first again
                keep &= s > 0
            pts = [np.broadcast_to(col, shape).flat[at[keep]] for col in cols]
            pts.insert(k, root[keep])
            total += _soluble_points(inst, pts, P, include_zero_fibres,
                                     primitive)
    # the origin is the double root at x' = 0, as in _count_slab
    return total - int(include_zero_fibres and not primitive)


def _count_box(inst: Instance, P: int, include_zero_fibres: bool,
               budget: int, threads: int, primitive: bool = False) -> int:
    """The box count by the first path that applies and fits the budget:
    split (not for primitive counts), quadric, then the slab scan."""
    if not primitive and len(variable_blocks(inst)) >= 2:
        try:
            return _count_split(inst, P, include_zero_fibres, budget)
        except BudgetExceededError:
            pass
    if _quadric_parts(inst) is not None:
        try:
            return _count_quadric(inst, P, include_zero_fibres, budget,
                                  primitive)
        except BudgetExceededError:
            pass
    return _count_slab(inst, P, include_zero_fibres, budget, threads,
                       primitive)


def count_soluble_fibre_points(inst: Instance, P: int,
                               include_zero_fibres: bool = False,
                               budget: int = blocks.DEFAULT_BUDGET,
                               threads: int = 1,
                               method: str = "auto") -> int:
    """#{x in [-P,P]^n, x != 0 : f2(x)=0 and the fibre is soluble}.

    Without include_zero_fibres only x with f1(x) != 0 and soluble conic
    count; with it, x with f1(x) = 0 also count.  The origin never counts.

    method 'auto' takes the first path of _count_box that applies and
    fits the budget; 'slab' forces the scan.  budget bounds the points a
    path scans; threads applies to the slab scan only.
    """
    if P < 0:
        raise DomainError("P must be non-negative")
    if P == 0:
        return 0
    if method == "slab":
        return _count_slab(inst, P, include_zero_fibres, budget, threads)
    if method != "auto":
        raise DomainError(f"unknown method {method!r}")
    return _count_box(inst, P, include_zero_fibres, budget, threads)


def _moebius_sum(inst: Instance, t: int, budget: int, threads: int) -> int:
    """sum_{l<=t} mu(l) * count(floor(t/l), zero=True), which is twice the
    projective count; each distinct radius floor(t/l) is counted once, and
    a radius whose weights cancel to 0 not at all.  The radius t (l = 1)
    goes first: a box over the budget refuses before the sieve is built."""
    def count(P: int) -> int:
        return count_soluble_fibre_points(
            inst, P, include_zero_fibres=True, budget=budget, threads=threads)

    total = count(t)
    mu = moebius_sieve(t)
    weights: dict[int, int] = {}
    for l in range(2, t + 1):
        if mu[l]:
            weights[t // l] = weights.get(t // l, 0) + int(mu[l])
    return total + sum(w * count(P) for P, w in weights.items() if w)


def projective_count(inst: Instance, t: int,
                     budget: int = blocks.DEFAULT_BUDGET, threads: int = 1,
                     method: str = "auto") -> CountRecord:
    """Projective base points of height <= t with a soluble fibre.

    Counts +-pairs of primitive vectors y in [-t,t]^n with f2(y) = 0 and
    (f1(y) = 0 or a soluble conic).  method 'direct' counts them with a
    gcd test, by the quadric path or the slab scan (_count_box); 'moebius'
    sums mu(l) * box counts.  'auto' picks moebius on an instance with
    several variable blocks, whose box counts then take the split path,
    and direct otherwise.
    """
    if t < 1:
        raise DomainError("t must be positive")
    if method == "auto":
        method = "moebius" if len(variable_blocks(inst)) >= 2 else "direct"
    if method == "direct":
        vectors = _count_box(inst, t, True, budget, threads, primitive=True)
    elif method == "moebius":
        vectors = _moebius_sum(inst, t, budget, threads)
    else:
        raise DomainError(f"unknown method {method!r}")
    if vectors % 2 != 0:
        raise AssertionError("primitive vector count must be even")
    return CountRecord.of(inst, t, vectors // 2, include_zero=True)


def mobius_residual(inst: Instance, t: int,
                    budget: int = blocks.DEFAULT_BUDGET,
                    threads: int = 1) -> int:
    """Exact integer residual of the Moebius identity; always 0.

    #{primitive y in [-t,t]^n on f2 = 0 with f1(y) = 0 or a soluble conic}
    - sum_{l<=t} mu(l) * count(floor(t/l), zero=True).  The identity is
    crossed by two summations and two kernels: the primitive vectors come
    from the slab scan with its gcd test (_count_slab), the Moebius sum
    from count_soluble_fibre_points, whose auto path is split or quadric
    wherever either applies.
    """
    return (_count_slab(inst, t, True, budget, threads, primitive=True)
            - _moebius_sum(inst, t, budget, threads))
