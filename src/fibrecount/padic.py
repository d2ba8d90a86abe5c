"""Local densities by residue counting with lift trees.

tau_f2(p) is the density of solutions of f2 = 0 mod p^N, normalized by
p^(N(n-1)).  soluble_density additionally requires the fibre conic
x0^2 + x1^2 = f1(t) x2^2 to have a point over the p-adics.

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

Two paths compute the same counts.  The direct path is the lift tree.  One
generator (_lifts) yields, in chunks, the candidates parent + p^(k-1) x
mod p^k of a set of residues mod p^(k-1), and it alone checks the budget;
level 1 lifts the single class 0.  One pass over levels 1..N keeps only
solution residues, never the full p^(N n) box, and scans the last level in
chunks without materializing it.  The fibre densities classify the level-N
solutions as they stream past and the level-(N-1) solutions the pass
already holds (for the stabilization flag), and refine undecided classes
through the same generator.  On an instance with several variable blocks (see
blocks.py) the block path convolves per-block residue tables instead: the
f2 distributions mod p^N for tau_f2, and the joint (f1 mod p^(N+e),
f2 mod p^N) tables over x mod p^(N+e), e = lift_extra, for the fibre
densities, whose f1 residues are classified once at level N+e.  A decision
at a shallower level is never undone at a deeper one, so the block path
equals the tree whenever the tree reaches full depth; it never stops early,
so where the tree does, its bracket lies inside the tree's.  Where a block
table or join exceeds the budget, 'auto' falls back to the tree.
"""

from __future__ import annotations

import copy
import math
import threading
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

_DENSITY_LOCK = threading.Lock()
_DENSITY_CACHE: dict[tuple, "LocalDensity"] = {}


@dataclass
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


def _lift_tree(inst: Instance, p: int, N: int, budget: int):
    """The lift tree of f2 = 0 up to level N, in one pass.

    Returns the solution counts at levels 1..N-1, the solutions mod p^(N-1)
    (the class of 0 when N = 1), and the level-N solutions as a generator of
    chunks: the last level is scanned, never materialized.
    """
    sols = np.zeros((1, inst.n), dtype=np.int64)
    counts = []
    for k in range(1, N):
        sols = np.concatenate(list(_solutions(inst, p, k, sols, budget)))
        counts.append(len(sols))
    return counts, sols, _solutions(inst, p, N, sols, budget)


def solution_counts(inst: Instance, p: int, N: int,
                    budget: int = DEFAULT_BUDGET):
    """Counts of solutions of f2 = 0 mod p^k for k = 1..N, and the
    solutions mod p^(N-1) (level N is scanned, not materialized)."""
    counts, sols, top = _lift_tree(inst, p, N, budget)
    return counts + [sum(len(chunk) for chunk in top)], sols


def hypersurface_density(inst: Instance, p: int, N: int,
                         budget: int = DEFAULT_BUDGET,
                         method: str = "auto") -> LocalDensity:
    """Exact density of f2 = 0 mod p^N among residues, kind 'tau_f2'.

    method 'direct' counts by the lift tree; 'auto' convolves the
    per-block distributions of f2 mod p^N instead when the instance has at
    least two blocks and their tables and joins fit the budget.
    """
    if N < 1:
        raise DomainError("level must be positive")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    path = path_for(inst, method)
    key = (inst.config_hash(), "tau", p, N, budget, path)
    with _DENSITY_LOCK:
        hit = _DENSITY_CACHE.get(key)
    if hit is not None:
        return copy.copy(hit)
    counts = None
    if path == "block":
        try:
            counts = [_block_zero_count(inst, p, k, budget)
                      for k in range(max(N - 1, 1), N + 1)]
        except BudgetExceededError:
            pass
    if counts is None:
        counts, _ = solution_counts(inst, p, N, budget)
    dens = Fraction(counts[-1], p ** (N * (inst.n - 1)))
    prev = (Fraction(counts[-2], p ** ((N - 1) * (inst.n - 1)))
            if N >= 2 else Fraction(0))
    stab = N >= 2 and abs(dens - prev) <= STABLE_REL_TOL * dens
    out = LocalDensity(p=p, level=N, raw_count=counts[-1],
                       density=float(dens), stabilized=bool(stab),
                       kind="tau_f2", density_low=float(dens),
                       density_high=float(dens), prev_density=float(prev))
    with _DENSITY_LOCK:
        _DENSITY_CACHE[key] = copy.copy(out)
    return out


def _block_zero_count(inst: Instance, p: int, level: int, budget: int) -> int:
    """#{x mod p^level : f2(x) = 0}, the f2 distributions of the blocks
    convolved."""
    q = p ** level
    return int(join(block_tables(inst, q, 1, q, budget))[0])


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
              budget: int):
    """(count, soluble, undecided) masses of the solutions mod p^level that
    the chunks hold, in units p^(-n lift_extra).

    Classes left undecided by f1 mod p^level are lifted (t, not the f2
    condition) up to lift_extra more levels; each child of a class at depth
    k weighs p^(n (lift_extra - k)).  Refinement stops early, keeping the
    bracket, where a level would exceed the budget: it is precision, not
    correctness.
    """
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
                 budget: int):
    """(count, soluble, undecided) at level N, and at level N-1 (lift_extra
    at most 1) for the stabilization flag, by the lift tree.

    One pass: the level-(N-1) solutions that level N lifts from are
    classified as they are, not lifted again from level 1.
    """
    _counts, sols, top = _lift_tree(inst, p, N, budget)
    cur = _classify(inst, p, N, top, lift_extra, budget)
    if N < 2:
        return cur, None
    return cur, _classify(inst, p, N - 1, [sols], min(lift_extra, 1), budget)


def _block_masses(inst: Instance, p: int, N: int, lift_extra: int,
                  budget: int):
    """(count, soluble, undecided) of the level-N solutions by blocks.

    Convolves the per-block tables of (f1 mod p^(N+e), f2 mod p^N) over
    x mod p^(N+e), e = lift_extra, and classifies f1 once at level N+e.  A
    decision at a shallower level is never undone at a deeper one, so the
    masses equal the lift tree's whenever the tree reaches full depth.
    Masses are in units p^(-n e), as _classify's.
    """
    top, q2 = p ** (N + lift_extra), p ** N
    col = join(block_tables(inst, top, top, q2, budget))
    sol, und = _classify_f1(np.arange(top, dtype=np.int64), p,
                            N + lift_extra)
    count = int(col.sum()) // p ** (inst.n * lift_extra)
    return count, int(col[sol].sum()), int(col[und].sum())


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
    if N < 1:
        raise DomainError("level must be positive")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p % 4 == 1:
        base = hypersurface_density(inst, p, N, budget, method)
        base.kind = "ell"
        return base
    path = path_for(inst, method)
    key = (inst.config_hash(), "ell", p, N, lift_extra, undecided_as_soluble,
           budget, path)
    with _DENSITY_LOCK:
        hit = _DENSITY_CACHE.get(key)
    if hit is not None:
        return copy.copy(hit)
    masses = None
    if path == "block":
        try:
            masses = (_block_masses(inst, p, N, lift_extra, budget),
                      _block_masses(inst, p, N - 1, min(lift_extra, 1),
                                    budget) if N >= 2 else None)
        except BudgetExceededError:
            pass
    if masses is None:
        masses = _tree_masses(inst, p, N, lift_extra, budget)
    (count, soluble, und_mass), prev_masses = masses
    unit = p ** (inst.n * lift_extra)
    denom = unit * p ** (N * (inst.n - 1))
    lo = Fraction(soluble, denom)
    hi = Fraction(soluble + und_mass, denom)
    chosen = hi if undecided_as_soluble else lo
    raw = soluble + (und_mass if undecided_as_soluble else 0)
    total_mass = count * unit
    und_frac = und_mass / total_mass if total_mass else 0.0
    prev = 0.0
    stab = False
    if prev_masses is not None:
        _cp, sp, up = prev_masses
        pden = p ** (inst.n * min(lift_extra, 1) + (N - 1) * (inst.n - 1))
        prev = float(Fraction(sp + (up if undecided_as_soluble else 0), pden))
        stab = abs(float(chosen) - prev) <= STABLE_REL_TOL * float(chosen)
    out = LocalDensity(p=p, level=N, raw_count=raw, density=float(chosen),
                       stabilized=bool(stab), kind="ell",
                       undecided_fraction=float(und_frac),
                       density_low=float(lo), density_high=float(hi),
                       prev_density=prev, mass_scale=unit)
    with _DENSITY_LOCK:
        _DENSITY_CACHE[key] = copy.copy(out)
    return out


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


def level_for(p: int, schedule: dict | None = None) -> int:
    sched = {**DEFAULT_LEVELS, **(schedule or {})}
    return sched.get(p, 2 if p <= 13 else 1)


def local_product(inst: Instance, p_max: int = 13,
                  level_schedule: dict | None = None,
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
        f = tamagawa_factor(inst, p, level_for(p, level_schedule),
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
                           "levels": {f.p: level_for(f.p, level_schedule)
                                      for f in factors}},
        error_bound=float(err), error_kind="heuristic", shells=factors)
