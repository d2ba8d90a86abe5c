"""Local densities by residue counting and p-adic stationary phase.

tau_f2(p) is the density of solutions of f2 = 0 mod p^N, normalized by
p^(N(n-1)).  soluble_density additionally requires the fibre conic
x0^2 + x1^2 = f1(t) x2^2 to have a point over the p-adics.  One routine
computes both: tau_f2 is the fibre density with the fibre condition off,
as it is at p = 1 mod 4, where the condition is vacuous.

A residue class t mod p^N only pins f1(t) mod p^N, so classes whose f1
residue has saturated valuation cannot be classified at level N.  Those
classes are refined by lifting t (not the f2 condition) a few more levels,
LIFT_EXTRA = e, splitting each class into p^n children of equal mass;
classes still undecided at level N+e are bracketed: counted as soluble
(genuine f1 = 0 fibres are soluble through (0:0:1)), with the bracket
(density_low, density) and the undecided mass reported.
A decision at a shallower level is never undone at a deeper one, so the
masses at full depth are counts over t mod p^(N+e) with f2 = 0 mod p^N,
f1 classified at level N+e.

One generator (_lifts) yields, in chunks, the candidates parent +
p^(k-1) x mod p^k of a set of residues mod p^(k-1), and it alone checks
the budget.  The masses come from p-adic stationary phase (_phase): a
class x mod p^k whose Jacobian of (f1, f2) has elementary divisors below
p^k spreads (f1, f2) uniformly over a coset of a lattice (Igusa, An
Introduction to the Theory of Local Zeta Functions, 2000; Denef, Sem.
Bourbaki 741, 1991), so its masses are a closed form; only the singular
classes are lifted, through _lifts, and the class of 0 follows from
homogeneity.  A level over the budget, the level-1 scan of p^n classes
and the refinement beyond N included, refuses (BudgetExceededError), so
the budget never changes a mass.  Its reference is the lift tree of the
tests (tests/oracles.py), which lifts every solution class: the phase
path returns the tree's masses wherever the tree answers.  A density
calls _phase twice, at its level N and at N-1 for the stabilization flag,
and keeps nothing between calls.

The rule has a second consumer: _phase_table gives the joint value
distribution of (f1, f2) mod p^m, the input of expsums' Birch tables on a
one-block instance, in closed form on the classes whose Jacobian has rank
2 (the rank-2 test and the pivot of f2's row, _jacobian, are shared
with _phase_level) and on every class from level m/2 on, where Taylor's
formula is linear mod p^m.

Both Euler products of the leading constant read these densities, or
their exact limit tau_limit where n > d and every nonzero solution of
f2 = 0 mod p is smooth; constant.py assembles them and fixes the level
read at each prime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import blocks
from .arith import DomainError, is_prime
from .blocks import BudgetExceededError
from .forms import INT64_SAFE, Form, Instance

STABLE_REL_TOL = 0.01
LIFT_EXTRA = 2  # levels past N at which soluble_density classifies f1


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

    @staticmethod
    def csv_header() -> str:
        return "p,kind,level,raw_count,density,stabilized,undecided_fraction"

    def csv_row(self) -> str:
        return (f"{self.p},{self.kind},{self.level},{self.raw_count},"
                f"{self.density:.12g},{str(self.stabilized).lower()},"
                f"{self.undecided_fraction:.6g}")


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
    per = max(1, blocks.WORK_BLOCK // n)  # candidates of n coordinates
    for start in range(0, width, per):
        idx = np.arange(start, min(start + per, width), dtype=np.int64)
        offs = step * np.stack([(idx // p**i) % p for i in range(n)], axis=1)
        rows = max(1, per // len(offs))
        for i in range(0, len(parents), rows):
            yield (parents[i:i + rows, None, :] + offs).reshape(-1, n)


def _cols(pts: np.ndarray) -> list:
    return [pts[:, j] for j in range(pts.shape[1])]


def _solutions(inst: Instance, p: int, level: int, parents: np.ndarray,
               budget: int):
    """Chunks of the solutions of f2 = 0 mod p^level above parents."""
    q = p ** level
    for cand in _lifts(inst, p, level, parents, budget):
        yield cand[inst.f2.evaluate_batch_mod(_cols(cand), q) == 0]


def _classify_f1(values: np.ndarray, p: int, level: int):
    """Masks (soluble, undecided) of residues f1 mod p^level; the rest are
    insoluble.

    p = 3 mod 4: decided iff v_p < level, soluble iff v_p even.
    p = 2: decided iff v_2 <= level-2, soluble iff odd part is 1 mod 4.
    """
    v = _valuation(values, p, level)
    if p == 2:
        decided = v <= level - 2
        return decided & ((values >> v) % 4 == 1), ~decided
    return (v < level) & (v % 2 == 0), v == level


def _valuation(x: np.ndarray, p: int, cap: int) -> np.ndarray:
    """v_p of residues in [0, p^cap), with v_p(0) = cap."""
    return sum((x % p ** i == 0).astype(np.int64) for i in range(1, cap + 1))


def _gradient_mod(f: Form, cols: list, p: int, top: int) -> tuple:
    """The partials of f at the columns mod p^top, one row per variable,
    and their valuations (top where a partial is 0 mod p^top)."""
    g = np.stack([d.evaluate_batch_mod(cols, p ** top)
                  if d is not None else np.zeros(len(cols[0]), np.int64)
                  for d in map(f.partial, range(f.n_vars))])
    return g, _valuation(g, p, top)


def _jacobian(inst: Instance, cols: list, p: int, top: int, k: int) -> tuple:
    """The rank-2 form of the rule of _phase at classes mod p^k.

    Returns (e1, vm, ok, g2, us, inv): e1 and vm the least valuations of
    an entry and of a 2 x 2 minor of the Jacobian mod p^top (top where all
    are 0), so its elementary divisors are p^e1 | p^(vm - e1); ok marks
    the classes the rule resolves, vm < top and vm - e1 < k.  The pivot of
    f2's row is its entry w* = p^g2 unit of least valuation g2, us the f1
    entry u* of its column and inv = unit^(phi(p^top) - 1) = unit^-1 mod
    p^top.  All is exact in int64 for p^(2 top) < INT64_SAFE.
    """
    q = p ** top
    u, vu = _gradient_mod(inst.f1, cols, p, top)
    w, vw = _gradient_mod(inst.f2, cols, p, top)
    vm = np.full(len(cols[0]), top, dtype=np.int64)
    for i, j in itertools.combinations(range(inst.n), 2):
        vm = np.minimum(vm, _valuation((u[i] * w[j] - u[j] * w[i]) % q,
                                       p, top))
    g2, star = vw.min(axis=0), vw.argmin(axis=0)
    e1 = np.minimum(vu.min(axis=0), g2)
    at = np.arange(len(star))
    inv, base = np.ones_like(g2), w[star, at] // np.power(p, g2)
    e = p ** (top - 1) * (p - 1) - 1
    while e:
        if e & 1:
            inv = inv * base % q
        base = base * base % q
        e >>= 1
    return e1, vm, (vm < top) & (vm - e1 < k), g2, u[star, at], inv


def _check_int64_range(p: int, top: int) -> None:
    """Refuses top where the products of residues mod p^top that the rule
    forms, p^(2 top), leave the exact int64 range."""
    if p ** (2 * top) >= INT64_SAFE:
        raise BudgetExceededError(
            f"p^{top} at p={p} is beyond the exact int64 range of the "
            "stationary phase")


def _coset_split(p: int, top: int, a: int, j: int) -> tuple:
    """(soluble, undecided) counts, by _classify_f1 at level top, among the
    p^(top-j) residues a + p^j z mod p^top, j <= top.

    Off p^j Z every residue has a's valuation v < j and shares its verdict,
    except at p = 2 with v = j - 1, where the odd part runs through both
    classes mod 4.  The multiples of p^j are 0 and (p-1) p^(top-v-1)
    residues of each valuation j <= v < top: a finite geometric sum.
    """
    size = p ** (top - j)
    if j == top or a % p ** j:
        if p == 2 and j < top and a % 2 ** j == 2 ** (j - 1):
            return size // 2, 0
        sol, und = _classify_f1(np.array([a % p ** top]), p, top)
        return size * int(sol[0]), size * int(und[0])
    if p == 2:  # valuation top - 1 and 0 stay undecided
        return sum(2 ** (top - v - 2) for v in range(j, top - 1)), 2
    return sum((p - 1) * p ** (top - v - 1)
               for v in range(j, top) if v % 2 == 0), 1


def _phase_level(inst: Instance, p: int, k: int, N: int, top: int,
                 fibre: bool, cur: np.ndarray):
    """(count, soluble, undecided) of the classes cur mod p^k that the rule
    of _phase resolves, and the mask of the classes it leaves to lift.

    On the rows R of J (f1 alone once f2 = 0 mod p^N holds on the class,
    f2 alone without the fibre condition, else both), a resolved class
    spreads R(f) uniformly over R(f)(x) + p^k L.  Its lifts with f2 = 0
    mod p^N are the fraction p^-m of them, and on those f1 is uniform on a
    coset a0 + p^J mod p^top, whose split _coset_split gives.  Gradients
    and minors are taken mod p^top, in int64 since p^(2 top) <
    INT64_SAFE; a valuation that reaches top is unknown, so its class is
    lifted.
    """
    n, q = inst.n, p ** top
    cols = _cols(cur)
    c1 = inst.f1.evaluate_batch_mod(cols, q) if fibre else None
    if fibre and k >= N:  # f2 = 0 mod p^N holds on every lift
        g1 = _gradient_mod(inst.f1, cols, p, top)[1].min(axis=0)
        # from 2k >= top on, f1 mod p^top is linear on the lifts (Taylor)
        ok, hit = (g1 < k) | (2 * k >= top), np.ones(len(cur), dtype=bool)
        m, J, a0 = np.zeros(len(cur), np.int64), k + g1, c1
    else:
        if fibre:
            _, vm, ok, g2, us, inv = _jacobian(inst, cols, p, top, k)
        else:
            g2 = _gradient_mod(inst.f2, cols, p, top)[1].min(axis=0)
            ok = g2 < k
        c2 = inst.f2.evaluate_batch_mod(cols, q)
        s = np.minimum(k + g2, N)
        hit, m = c2 % p ** s == 0, N - s
    if fibre and k < N:
        # L = <(p^a, 0), (u*, w*)> with (u*, w*) the column of f2's pivot
        # (_jacobian); the f2 slice fixes t mod p^m
        t0 = -(c2 // np.power(p, np.minimum(k + g2, top))) * inv
        t0 %= np.power(p, m)
        J = k + np.minimum(vm - g2, m + _valuation(us, p, top))
        a0 = c1 + p ** k * ((t0 * us) % p ** (top - k))
    sel = ok & hit
    count = sol = und = 0
    if k < N:
        for mm, cnt in zip(*np.unique(m[sel], return_counts=True)):
            count += int(cnt) * p ** (n * (N - k) - int(mm))
    if fibre:
        J = np.minimum(J, top)[sel]
        key = np.stack([J, a0[sel] % np.power(p, J), m[sel]], axis=1)
        for (j, a, mm), cnt in zip(*np.unique(key, axis=0,
                                              return_counts=True)):
            ns, nu = _coset_split(p, top, int(a), int(j))
            each = int(cnt) * p ** (n * (top - k) - int(mm) - (top - int(j)))
            sol, und = sol + each * ns, und + each * nu
    return count, sol, und, ~ok


def _phase(inst: Instance, p: int, N: int, top: int, fibre: bool,
           budget: int):
    """(count, soluble, undecided) of the solutions mod p^N, with f1
    classified at level top, by stationary phase (N = 0: no f2 condition).

    Rule.  Let x be a class mod p^k, f = (f1, f2) and J = J(x) the 2 x n
    Jacobian (the row of f2 alone without the fibre condition, of f1 alone
    once f2 = 0 mod p^N holds on the class).  Taylor's formula with the
    integral coefficients d^a f / a! gives
      f(x + p^k y) = f(x) + p^k (J y + p^k R(y)),   R integral.
    Let p^e1 | p^e2 be the elementary divisors of L = J Z_p^n: e1 the least
    valuation of an entry, e1 + e2 that of a 2 x 2 minor (of the row, for
    one row).  If k > e2 then p^k Z_p^2 lies in p^(e2+1) Z_p^2, inside pL,
    so p^k R(y) lies in pL.  Write J = U D V in Smith form (U, V
    unimodular); in z = V y the map y -> (f(x + p^k y) - f(x)) / p^k is
    U D (z_1 + p a(z), z_2 + p b(z)) with a, b integral.  For fixed z_3..n,
    (z_1, z_2) -> (z_1 + p a, z_2 + p b) is an isometry of Z_p^2 onto
    itself, so it preserves Haar measure: f is uniformly distributed on
    f(x) + p^k L over the class.  (J(x') = J(x) + p^k M keeps the same
    elementary divisors on the class, so the test does not depend on the
    representative.)  Every count over the lifts of a resolved class is
    then a measure on that coset; _phase_level evaluates it.

    Classes not resolved are lifted one level through _lifts, keeping
    f2 = 0 mod p^min(k, N); from level N on, classes whose f1 verdict is
    decided are tallied whole, and at level top the rest stay undecided
    (_classify_f1).  Once f2 = 0 mod p^N holds and 2k >= top, f1 mod p^top
    is linear on the lifts of a class (the terms past the first are 0 mod
    p^2k), so the rule resolves every class and none is lifted past level
    max(N, ceil(top/2)).  The zero class goes by homogeneity: f(p y) = p^d f(y)
    with d even moves v_p(f1) by d and keeps its odd part, so no verdict
    changes, and its masses are those at (N - d, top - d), times the
    p^(n (d-1)) lifts of each class.  A level over the budget refuses.
    Masses count classes: count those mod p^N, the others those mod
    p^top.
    """
    n, d = inst.n, inst.d
    _check_int64_range(p, top)
    if top > d:
        zc, zs, zu = _phase(inst, p, max(N - d, 0), top - d, fibre, budget)
        scale = p ** (n * (d - 1))
        count = zc * scale if N > d else p ** (n * max(N - 1, 0))
        sol, und = zs * scale, zu * scale
    else:  # every lift of 0 has f1 = 0 mod p^top and f2 = 0 mod p^N
        count, sol, und = p ** (n * max(N - 1, 0)), 0, p ** (n * (top - 1))

    def lift(level, parents):  # f2 = 0 mod p^level is kept up to level N
        return np.concatenate(list(
            _solutions(inst, p, level, parents, budget) if level <= N
            else _lifts(inst, p, level, parents, budget)))

    cur = lift(1, np.zeros((1, n), dtype=np.int64))
    cur = cur[cur.any(axis=1)]
    k = 1
    while len(cur):
        if k == N:
            count += len(cur)
        if k >= N:
            if not fibre:
                break
            sol_k, und_k = _classify_f1(
                inst.f1.evaluate_batch_mod(_cols(cur), p ** k), p, k)
            sol += int(sol_k.sum()) * p ** (n * (top - k))
            cur = cur[und_k]
            if k == top:
                und += len(cur)
                break
        c, s, u, rest = _phase_level(inst, p, k, N, top, fibre, cur)
        count, sol, und, cur = count + c, sol + s, und + u, cur[rest]
        if not len(cur):
            break
        cur = lift(k + 1, cur)
        k += 1
    return (count, sol, und) if fibre else (count, count, 0)


def _phase_table(inst: Instance, p: int, m: int, budget: int) -> np.ndarray:
    """M[u, v] = #{x mod p^m : (f1, f2)(x) = (u, v) mod p^m}, m >= 1, by
    the rule of _phase in its rank-2 form (_jacobian).

    A class x mod p^k with f(x + p^k y) = f(x) + p^k J y mod p^m spreads
    its p^(n(m-k)) lifts mod p^m evenly over the coset f(x) + p^k L + p^m
    Z^2, L = J Z^n.  That holds where the rule resolves the class (e2 < k)
    and, for any J, where 2k >= m, as the terms of Taylor's formula past
    the first are then 0 mod p^m; so no class is lifted past level
    ceil(m/2).  The lattice has the Hermite basis (a, 0), (b, c):
      c = p^min(k + g2, m), g2 the least valuation in f2's row,
      a c = p^(min(k + e1, m) + min(k + e2, m)),
      (b, c) = p^k unit^-1 (u*, w*), w* = p^g2 unit the entry of least
      valuation in f2's row and u* the f1 entry of its column.
    The other classes are lifted through _lifts, whose budget bounds the
    candidates.  The class of 0 goes by homogeneity: x = p y gives f(x) =
    p^d f(y), so it adds p^(n(d-1)) M_(m-d) on the multiples of p^d, or
    p^(n(m-1)) at (0, 0) when m <= d.  Refused where p^(2m) leaves the
    exact int64 range, or where its p^(2m) entries exceed the budget.

    Besides M and the table M_(m-d) it adds in, the working set is one
    lift chunk (_lifts: at most WORK_BLOCK coordinates) and what _spread
    derives from it: the gradients of _jacobian, about a dozen per-class
    arrays, and one int64 key buffer, allocated per lift chunk as long as
    its largest key chunk: at most WORK_BLOCK values, or one class's
    (p^m/a)(p^m/c) keys where those are more.  Each key chunk is formed in
    place there and counted by one bincount of p^(2m) entries.  A lift chunk's arrays, its buffer among
    them, are dropped before the next chunk is lifted: a buffer kept for
    the whole call held the largest key chunk through every later
    Jacobian.
    """
    n, q = inst.n, p ** m
    _check_int64_range(p, m)
    blocks.refuse_table(q, budget)
    M = np.zeros((q, q), dtype=np.int64)
    if m > inst.d:
        step = p ** inst.d
        M[::step, ::step] = (p ** (n * (inst.d - 1))
                             * _phase_table(inst, p, m - inst.d, budget))
    else:
        M[0, 0] = p ** (n * (m - 1))
    flat = M.reshape(-1)
    cur, k = np.zeros((1, n), dtype=np.int64), 1
    while len(cur):
        rest = []
        for pts in _lifts(inst, p, k, cur, budget):
            if k == 1:
                pts = pts[pts.any(axis=1)]
            rest.append(_spread(inst, p, m, k, pts, flat))
        cur, k = np.concatenate(rest), k + 1
    return M


def _spread(inst: Instance, p: int, m: int, k: int, pts: np.ndarray,
            flat: np.ndarray) -> np.ndarray:
    """Adds to flat, the table mod p^m of _phase_table, the lifts of the
    classes mod p^k in pts that the rule resolves, each class's keys
    (c1 + i + (b mod a) j, c2 + c j) mod p^m for i = 0, a, ..., p^m - a
    and j < p^m/c, in key chunks formed in one buffer; returns the
    others."""
    n, q = inst.n, p ** m
    cols = _cols(pts)
    e1, vm, ok, g2, us, inv = _jacobian(inst, cols, p, m, k)
    ok |= 2 * k >= m
    # the Hermite basis of each resolved class's lattice
    b = (us * inv % q) * p ** k % q
    e2 = np.where(vm < m, vm - e1, m)  # vm = m: e2 >= m - k
    ce = np.minimum(k + g2, m)
    ae = np.minimum(k + e1, m) + np.minimum(k + e2, m) - ce
    c1 = inst.f1.evaluate_batch_mod(cols, q)
    c2 = inst.f2.evaluate_batch_mod(cols, q)
    groups, size = [], 0  # per lattice shape, its classes
    for a_exp, c_exp in set(zip(ae[ok].tolist(), ce[ok].tolist())):
        idx = np.flatnonzero(ok & (ae == a_exp) & (ce == c_exp))
        row = q // p ** a_exp * (q // p ** c_exp)  # the keys of a class
        rows = max(1, blocks.WORK_BLOCK // row)  # the classes of a chunk
        groups.append((a_exp, c_exp, idx, rows))
        size = max(size, min(rows, len(idx)) * row)
    buf = np.empty(size, dtype=np.int64)
    for a_exp, c_exp, idx, rows in groups:
        a, c = p ** a_exp, p ** c_exp
        mass = p ** (n * (m - k) + a_exp + c_exp - 2 * m)
        i = np.arange(0, q, a)[:, None]
        j = np.arange(q // c)
        for s in range(0, len(idx), rows):
            r = idx[s:s + rows, None, None]
            key = buf[:len(r) * len(i) * len(j)]
            key = key.reshape(len(r), len(i), len(j))
            np.add(c1[r] + i, b[r] % a * j, out=key)
            np.remainder(key, q, out=key)
            np.multiply(key, q, out=key)
            np.add(key, (c2[r] + c * j) % q, out=key)
            counts = np.bincount(key.reshape(-1), minlength=q * q)
            counts *= mass
            flat += counts
    return pts[~ok]


def _density(inst: Instance, p: int, N: int, kind: str,
             budget: int) -> LocalDensity:
    """The density of kind 'tau_f2' or 'ell', stabilization in exact
    rationals: the masses of level N, and of N - 1 for the flag, each by
    one call of _phase."""
    if N < 1:
        raise DomainError("level must be positive")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    fibre = kind == "ell" and p % 4 != 1
    extra = LIFT_EXTRA if fibre else 0

    def masses(level: int, extra: int) -> tuple:
        """(count, soluble, undecided, denominator) at the level, every
        mass in classes mod p^(level + extra)."""
        count, sol, und = _phase(inst, p, level, level + extra, fibre, budget)
        unit = p ** (inst.n * extra)
        return count * unit, sol, und, unit * p ** (level * (inst.n - 1))

    count, soluble, und, denom = masses(N, extra)
    raw = soluble + und
    dens = Fraction(raw, denom)
    prev = Fraction(0)
    if N >= 2:
        _, sp, up, dp = masses(N - 1, min(extra, 1))
        prev = Fraction(sp + up, dp)
    return LocalDensity(
        p=p, level=N, raw_count=raw, density=float(dens),
        stabilized=N >= 2 and abs(dens - prev) <= STABLE_REL_TOL * dens,
        kind=kind, undecided_fraction=und / count if count else 0.0,
        density_low=float(Fraction(soluble, denom)))


def hypersurface_density(inst: Instance, p: int, N: int,
                         budget: int = blocks.DEFAULT_BUDGET) -> LocalDensity:
    """Exact density of f2 = 0 mod p^N among residues, kind 'tau_f2'."""
    return _density(inst, p, N, "tau_f2", budget)


def soluble_density(inst: Instance, p: int, N: int,
                    budget: int = blocks.DEFAULT_BUDGET) -> LocalDensity:
    """Density of t mod p^N with f2(t) = 0 mod p^N and a soluble fibre.

    kind 'ell'.  For p = 1 mod 4 the fibre condition is vacuous and the
    result equals hypersurface_density at every level.  Otherwise residues
    whose f1-valuation saturates are refined up to LIFT_EXTRA extra levels
    and the remaining undecided mass is reported and bracketed.  A level
    of the refinement over the budget refuses, as a level <= N does.
    """
    return _density(inst, p, N, "ell", budget)


def tau_limit(inst: Instance, p: int,
              budget: int = blocks.DEFAULT_BUDGET) -> Fraction | None:
    """The limit of tau_f2(p) as the level grows, exactly, where n > d and
    every nonzero solution of f2 = 0 mod p is smooth (a partial of f2 is a
    unit there: the classes the rule of _phase resolves at level 1); None
    elsewhere.

    There every nonzero solution mod p lifts to p^(n-1) solutions a level
    (Hensel), and the class of 0 repeats the density d levels down, scaled
    by r = p^(d-n) (homogeneity).  So from level 1 on
    D_N = (N1 - 1) / p^(n-1) + r D_(N-d), with N1 the level-1 raw_count,
    and the limit is its fixed point (N1 - 1) / (p^(n-1) - p^(d-1)).
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    n, d = inst.n, inst.d
    if n <= d:
        return None
    sols = np.concatenate(list(_solutions(
        inst, p, 1, np.zeros((1, n), dtype=np.int64), budget)))
    sols = sols[sols.any(axis=1)]
    if _gradient_mod(inst.f2, _cols(sols), p, 1)[1].min(axis=0).any():
        return None
    return Fraction(len(sols), p ** (n - 1) - p ** (d - 1))
