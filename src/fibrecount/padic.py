"""Local densities by residue counting with lift trees.

tau_f2(p) is the density of solutions of f2 = 0 mod p^N, normalized by
p^(N(n-1)).  soluble_density additionally requires the fibre conic
x0^2 + x1^2 = f1(t) x2^2 to have a point over the p-adics.  One routine
computes both: tau_f2 is the fibre density with the fibre condition off,
as it is at p = 1 mod 4, where the condition is vacuous.

A residue class t mod p^N only pins f1(t) mod p^N, so classes whose f1
residue has saturated valuation cannot be classified at level N.  Those
classes are refined by lifting t (not the f2 condition) a few more levels,
splitting each class into p^n children of equal mass; classes still
undecided at the ceiling are bracketed: counted as soluble by default
(genuine f1 = 0 fibres are soluble through (0:0:1)), with the insoluble
convention and the undecided mass reported so the bracket is visible.
Above the cone point the refinement can branch without deciding anything,
so it also stops early, keeping the bracket, when a further level would
exceed the budget.

Two paths compute the same masses.  The direct path is the lift tree.  One
generator (_lifts) yields, in chunks, the candidates parent + p^(k-1) x
mod p^k of a set of residues mod p^(k-1), and it alone checks the budget.
One pass over levels 1..N keeps only solution residues, never the full
p^(N n) box; it classifies the level-N solutions as they stream past and
the level-(N-1) ones it holds (for the stabilization flag), and refines
undecided classes through the same generator.  On an instance with several
variable blocks (see blocks.py) the block path convolves per-block residue
tables instead: the joint (f1 mod p^(N+e), f2 mod p^N) tables over
x mod p^(N+e), e = lift_extra, whose f1 residues are classified once at
level N+e (the f2 tables alone with the fibre condition off).  A decision
at a shallower level is never undone at a deeper one, so the block path
equals the tree whenever the tree reaches full depth; it never stops early,
so where the tree does, its bracket lies inside the tree's.  The tables are
joined by an exact cyclic convolution at their own shape (blocks.convolve);
on four_squares the largest join in local_product, 14641 x 121 at p = 11,
fits.  Where a block table exceeds the budget, or a join the transform cap
or the exact range, 'auto' falls back to the tree.  One memo, keyed by all
of its arguments, holds the masses (_masses).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import DomainError, is_prime, prime_sieve
from .blocks import block_tables, join, path_for
from .counting import BudgetExceededError
from .expsums import TruncatedValue
from .forms import Instance

DEFAULT_BUDGET = 3 * 10**8
_CHUNK_ROWS = 1 << 21
STABLE_REL_TOL = 0.01


@dataclass(frozen=True)
class LocalDensity:
    """Residue-count density at one prime and level."""

    p: int
    level: int
    raw_count: int
    density: float
    stabilized: bool
    kind: str
    undecided_fraction: float = 0.0
    density_low: float = 0.0
    density_high: float = 0.0
    prev_density: float = 0.0
    mass_scale: int = 1

    @staticmethod
    def csv_header() -> str:
        return "p,kind,level,raw_count,density,stabilized,undecided_fraction"

    def csv_row(self) -> str:
        return (f"{self.p},{self.kind},{self.level},{self.raw_count},"
                f"{self.density:.12g},{str(self.stabilized).lower()},"
                f"{self.undecided_fraction:.6g}")


@dataclass
class LocalFactor:
    """Weighted local density against its convergence factor."""

    p: int
    tau_p: float
    lambda_p: float
    ratio: float


def _lifts(inst: Instance, p: int, level: int, parents: np.ndarray,
           budget: int):
    """Chunks of the lift candidates parent + p^(level-1) * x mod p^level,
    x in (Z/p)^n, of the residues mod p^(level-1) in parents.

    Level 1 lifts the single parent 0, i.e. scans the box mod p.  Refuses
    (BudgetExceededError) before the first chunk when the candidates exceed
    the budget.
    """
    n = inst.n
    width = p ** n
    if len(parents) * width > budget:
        raise BudgetExceededError(
            f"level {level} at p={p}: {len(parents) * width} lift candidates "
            f"exceed budget {budget}")
    step = p ** (level - 1)
    for start in range(0, width, _CHUNK_ROWS):
        idx = np.arange(start, min(start + _CHUNK_ROWS, width), dtype=np.int64)
        offs = step * np.stack([(idx // p**i) % p for i in range(n)], axis=1)
        rows = max(1, _CHUNK_ROWS // len(offs))
        for i in range(0, len(parents), rows):
            yield (parents[i:i + rows, None, :] + offs).reshape(-1, n)


def _cols(pts: np.ndarray) -> list:
    return [pts[:, j] for j in range(pts.shape[1])]


def _solutions(inst: Instance, p: int, level: int, parents: np.ndarray,
               budget: int):
    """Chunks of the solutions of f2 = 0 mod p^level above parents."""
    q = p ** level
    for cand in _lifts(inst, p, level, parents, budget):
        yield cand[inst.f2.evaluate_batch_mod(_cols(cand), q,
                                              reduced=True) == 0]


def _classify_f1(values: np.ndarray, p: int, level: int):
    """Masks (soluble, undecided) of residues f1 mod p^level; the rest are
    insoluble.

    p = 3 mod 4: decided iff v_p < level, soluble iff v_p even.
    p = 2: decided iff v_2 <= level-2, soluble iff odd part is 1 mod 4.
    """
    v = np.zeros(len(values), dtype=np.int64)
    rem = values.copy()
    nonzero = rem != 0
    active = nonzero.copy()
    while active.any():
        div = active & (rem % p == 0)
        rem[div] //= p
        v[div] += 1
        active = div
    if p == 2:
        decided = nonzero & (v <= level - 2)
        return decided & (rem % 4 == 1), ~decided
    return nonzero & (v % 2 == 0), ~nonzero


def _classify(inst: Instance, p: int, level: int, chunks, lift_extra: int,
              fibre: bool, budget: int):
    """(count, soluble, undecided) masses of the solutions mod p^level that
    the chunks hold, in units p^(-n lift_extra).

    Without fibre every solution is soluble and the chunks are only
    counted.  With it, classes left undecided by f1 mod p^level are lifted
    (t, not the f2 condition) up to lift_extra more levels; each child of a
    class at depth k weighs p^(n (lift_extra - k)).  Refinement stops
    early, keeping the bracket, where a level would exceed the budget: it
    is precision, not correctness.
    """
    if not fibre:
        count = sum(len(pts) for pts in chunks)
        return count, count, 0

    def weight(depth: int) -> int:
        return p ** (inst.n * (lift_extra - depth))

    def scan(chunks, depth: int):
        """Tallies the soluble classes in chunks at level + depth; returns
        the number of classes and the undecided ones."""
        nonlocal soluble
        k = level + depth
        seen, undecided = 0, []
        for pts in chunks:
            seen += len(pts)
            values = inst.f1.evaluate_batch_mod(_cols(pts), p ** k,
                                                reduced=True)
            sol, und = _classify_f1(values, p, k)
            soluble += int(sol.sum()) * weight(depth)
            undecided.append(pts[und])
        return seen, np.concatenate(undecided)

    soluble = depth = 0
    count, cur = scan(chunks, 0)
    while depth < lift_extra and len(cur):
        try:  # _lifts refuses before its first chunk, so nothing is tallied
            _, cur_next = scan(_lifts(inst, p, level + depth + 1, cur, budget),
                               depth + 1)
        except BudgetExceededError:
            break
        depth += 1
        cur = cur_next
    return count, soluble, len(cur) * weight(depth)


def _tree_masses(inst: Instance, p: int, N: int, lift_extra: int,
                 fibre: bool, budget: int):
    """(count, soluble, undecided) at level N, and at level N-1 (lift_extra
    at most 1) for the stabilization flag, by the lift tree.

    One pass: level 1 lifts the class of 0, the last level is scanned in
    chunks, never materialized, and the level-(N-1) solutions it lifts from
    are classified as they are, not lifted again from level 1.
    """
    sols = np.zeros((1, inst.n), dtype=np.int64)
    for k in range(1, N):
        sols = np.concatenate(list(_solutions(inst, p, k, sols, budget)))
    cur = _classify(inst, p, N, _solutions(inst, p, N, sols, budget),
                    lift_extra, fibre, budget)
    if N < 2:
        return cur, None
    return cur, _classify(inst, p, N - 1, [sols], min(lift_extra, 1), fibre,
                          budget)


def _block_masses(inst: Instance, p: int, N: int, lift_extra: int,
                  fibre: bool, budget: int):
    """(count, soluble, undecided) of the level-N solutions by blocks.

    Convolves the per-block tables of (f1 mod p^(N+e), f2 mod p^N) over
    x mod p^(N+e), e = lift_extra, and classifies f1 once at level N+e.  A
    decision at a shallower level is never undone at a deeper one, so the
    masses equal the lift tree's whenever the tree reaches full depth.
    Masses are in units p^(-n e), as _classify's.  Without fibre the tables
    hold f2 alone and every solution is soluble.
    """
    top = p ** (N + lift_extra)
    col = join(block_tables(inst, top, top if fibre else 1, p ** N, budget))
    count = int(col.sum()) // p ** (inst.n * lift_extra)
    if not fibre:
        return count, count, 0
    sol, und = _classify_f1(np.arange(top, dtype=np.int64), p,
                            N + lift_extra)
    return count, int(col[sol].sum()), int(col[und].sum())


@functools.lru_cache(maxsize=None)
def _masses(inst: Instance, p: int, N: int, lift_extra: int, fibre: bool,
            budget: int, path: str):
    """The masses at levels N and N-1 (None when N = 1): by blocks on the
    block path, by the lift tree on the direct path or where a block table
    or join exceeds the budget.  The memo's key is every argument, so a
    cached value is the one a fresh call would return."""
    if path == "block":
        try:
            return (_block_masses(inst, p, N, lift_extra, fibre, budget),
                    _block_masses(inst, p, N - 1, min(lift_extra, 1), fibre,
                                  budget) if N >= 2 else None)
        except BudgetExceededError:
            pass
    return _tree_masses(inst, p, N, lift_extra, fibre, budget)


def _density(inst: Instance, p: int, N: int, kind: str, lift_extra: int,
             undecided_as_soluble: bool, budget: int,
             method: str) -> LocalDensity:
    """The density of kind 'tau_f2' or 'ell', stabilization in exact
    rationals."""
    if N < 1:
        raise DomainError("level must be positive")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    fibre = kind == "ell" and p % 4 != 1
    if not fibre:
        lift_extra = 0
    (count, soluble, und), prev_masses = _masses(
        inst, p, N, lift_extra, fibre, budget, path_for(inst, method))
    unit = p ** (inst.n * lift_extra)
    denom = unit * p ** (N * (inst.n - 1))
    raw = soluble + (und if undecided_as_soluble else 0)
    dens = Fraction(raw, denom)
    prev = Fraction(0)
    if prev_masses is not None:
        _, sp, up = prev_masses
        prev = Fraction(sp + (up if undecided_as_soluble else 0),
                        p ** (inst.n * min(lift_extra, 1)
                              + (N - 1) * (inst.n - 1)))
    return LocalDensity(
        p=p, level=N, raw_count=raw, density=float(dens),
        stabilized=(prev_masses is not None
                    and abs(dens - prev) <= STABLE_REL_TOL * dens),
        kind=kind, undecided_fraction=und / (count * unit) if count else 0.0,
        density_low=float(Fraction(soluble, denom)),
        density_high=float(Fraction(soluble + und, denom)),
        prev_density=float(prev), mass_scale=unit)


def hypersurface_density(inst: Instance, p: int, N: int,
                         budget: int = DEFAULT_BUDGET,
                         method: str = "auto") -> LocalDensity:
    """Exact density of f2 = 0 mod p^N among residues, kind 'tau_f2'.

    method 'direct' counts by the lift tree; 'auto' convolves the
    per-block distributions of f2 mod p^N instead when the instance has at
    least two blocks and their tables and joins fit the budget.
    """
    return _density(inst, p, N, "tau_f2", 0, True, budget, method)


def soluble_density(inst: Instance, p: int, N: int,
                    lift_extra: int = 2,
                    undecided_as_soluble: bool = True,
                    budget: int = DEFAULT_BUDGET,
                    method: str = "auto") -> LocalDensity:
    """Density of t mod p^N with f2(t) = 0 mod p^N and a soluble fibre.

    kind 'ell'.  For p = 1 mod 4 the fibre condition is vacuous and the
    result equals hypersurface_density at every level.  Otherwise residues
    whose f1-valuation saturates are refined up to lift_extra extra levels
    and the remaining undecided mass is reported and bracketed.

    method 'direct' refines by the lift tree, which stops early (keeping a
    wider bracket) where a level would exceed the budget; 'auto' instead
    joins the per-block tables, which always reach full depth, when the
    instance has at least two blocks and the tables and joins fit.
    """
    return _density(inst, p, N, "ell", lift_extra, undecided_as_soluble,
                    budget, method)


def tamagawa_factor(inst: Instance, p: int, N: int,
                    lift_extra: int = 2,
                    budget: int = DEFAULT_BUDGET) -> LocalFactor:
    """Weighted local density tau_p and its convergence factor lambda_p.

    tau_p = (1 - p^-(n-d)) / (1 - 1/p) * soluble density;
    lambda_p = (1 - 1/p)^(-1/2).
    """
    dens = soluble_density(inst, p, N, lift_extra=lift_extra, budget=budget)
    w = (1.0 - p ** (-(inst.n - inst.d))) / (1.0 - 1.0 / p)
    tau_p = w * dens.density
    lam = (1.0 - 1.0 / p) ** -0.5
    return LocalFactor(p=p, tau_p=tau_p, lambda_p=lam, ratio=tau_p / lam)


DEFAULT_LEVELS = {2: 6, 3: 5, 5: 3, 7: 2, 11: 2, 13: 2}


def level_for(p: int) -> int:
    """The level of the local densities at p: DEFAULT_LEVELS, else 1."""
    return DEFAULT_LEVELS.get(p, 1)


def local_product(inst: Instance, p_max: int = 13,
                  lift_extra: int = 2,
                  budget: int = DEFAULT_BUDGET) -> TruncatedValue:
    """prod_{p <= p_max} tau_p / lambda_p with a heuristic tail estimate.

    The tail fits |log(tau_p/lambda_p)| ~ C/p^2 on the computed primes and
    integrates beyond p_max.  When the actual log-factors decay more slowly
    (small n), the fit underestimates the tail; the per-prime factors are
    returned in shells so the drift is visible.
    """
    factors = []
    value = 1.0
    for p in [int(r) for r in prime_sieve(p_max)]:
        f = tamagawa_factor(inst, p, level_for(p),
                            lift_extra=lift_extra, budget=budget)
        factors.append(f)
        value *= f.ratio
    logs = np.array([abs(math.log(f.ratio)) for f in factors if f.ratio > 0])
    ps = np.array([float(f.p) for f in factors if f.ratio > 0])
    if len(ps):
        C = float((logs * ps**-2).sum() / (ps**-4).sum())
        tail_log = C * sum(1.0 / q**2 for q in range(p_max + 1, 10 * p_max)
                           if is_prime(q))
    else:
        tail_log = 0.0
    err = abs(value) * (math.exp(tail_log) - 1.0)
    return TruncatedValue(
        value=complex(value),
        truncation_params={"p_max": p_max,
                           "levels": {f.p: level_for(f.p)
                                      for f in factors}},
        error_bound=float(err), error_kind="heuristic", shells=factors)
