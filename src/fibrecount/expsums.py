"""Complete exponential sums and the twisted two-squares machinery.

Objects:

* birch_sum_table: the complete sums of e((a1*f1(x) + a2*f2(x))/q) over
  x mod q for every (a1, a2) at once.  Evaluated through the joint value
  distribution of (f1, f2) mod q and a 2-d FFT, which is exact up to float
  rounding.  On an instance with several variable blocks (see blocks.py)
  the table is the product of the per-block tables, each built from a
  q^(block size) scan instead of q^n.  On a one-block instance the
  distribution mod each prime power of q is padic's stationary phase
  table, and the prime powers are joined by CRT, so no (Z/q)^n is
  scanned.  Each instance has that one path.  The scan of the whole box,
  joint_value_distribution, is the oracle the tests compare both paths
  with; no library path calls it.

* arc_factor_row(q): each F(a1, q), a1 mod q, the constant in front of
  x/sqrt(log x) in the asymptotic of sum_{m<=x, m a sum of two squares}
  e(a1*m/q), divided by the universal sqrt(2)*C0.  It is a double sum over
  pairs (k, t) with 2^t*k^2 interacting with q through gcds, an indicator
  restricting the residue l mod q, and a local product over primes
  p = 3 mod 4 dividing q.  The (k, t) sum has a closed form: C0^-2 times
  finitely many local terms at 2 and at the primes p = 3 mod 4 dividing q,
  so the only error is that of C0.  Conventions that matter: gcd(0, q) = q,
  and the residue congruence is taken to a modulus gcd(4, q/gcd(l,q)) which
  may be 1 (vacuous).

* singular_series: the q-sum of the terms t(q), q^-n times the birch sums
  against conjugated arc factors (_q_term).  local_series reads the same
  terms at the powers of one prime p = 2 or p = 3 mod 4: t is
  multiplicative, so the factor of the q-sum at p is the sum of its
  prime-power terms, truncated at the shell m_max its caller names.  The
  product of these factors, which converges far better when the q-sum
  terms do not decay (small n), is assembled in constant.py
  (euler_products), which also states where each factor stops.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import gcd, log, sqrt

import numpy as np

from . import blocks, padic
from .arith import (DomainError, factor, landau_constants, only_1mod4_sieve,
                    two_squares_sieve, valuation)
from .blocks import (Block, BudgetExceededError, block_tables, residue_table,
                     variable_blocks)
from .forms import Instance


@dataclass
class TruncatedValue:
    """A truncated numerical value and its error.

    error_kind 'heuristic' means error_bound extrapolates computed shells;
    'exact' means the value is an exact limit, with error_bound 0.
    """

    value: complex
    error_bound: float
    error_kind: str
    shells: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Birch sums
# ---------------------------------------------------------------------------

def joint_value_distribution(inst: Instance, q: int) -> np.ndarray:
    """M[u, v] = #{x mod q : f1(x) = u, f2(x) = v (mod q)}, by scanning the
    whole box (Z/q)^n: the oracle of the block and phase paths of
    birch_sum_table."""
    return residue_table(Block(tuple(range(inst.n)), inst.f1, inst.f2),
                         q, blocks.DEFAULT_BUDGET)


def birch_sum_table(inst: Instance, q: int,
                    budget: int = blocks.DEFAULT_BUDGET) -> np.ndarray:
    """All S_{(a1,a2),q} at once as a (q, q) complex array.

    S[a1, a2] = sum_{u,v} M[u,v] e((a1 u + a2 v)/q) = conj(FFT2(M)).  The
    table is the product of the per-block tables (see _block_table) when
    the instance has at least two blocks, and otherwise takes M from
    stationary phase (_phase_distribution).  budget bounds the q^2 entries
    of every table, q^(block size) per block on the block path and the
    lift candidates of each level on the phase path.  The tables are
    memoized and read-only.
    """
    return _birch_table(inst, q, budget)


@functools.lru_cache(maxsize=None)
def _birch_table(inst: Instance, q: int, budget: int) -> np.ndarray:
    """birch_sum_table, memoized: the key is every argument, so a cached
    table is the one a fresh call would build."""
    if q == 1:
        S = np.ones((1, 1), dtype=np.complex128)
    elif len(variable_blocks(inst)) >= 2:
        S = _block_table(inst, q, budget)
    else:
        M = _phase_distribution(inst, q, budget)
        S = np.conj(np.fft.fft2(M.astype(np.float64)))
    S.setflags(write=False)
    return S


def _phase_distribution(inst: Instance, q: int, budget: int) -> np.ndarray:
    """The joint value distribution without the scan: padic's stationary phase
    table mod each prime power p^e of q, joined by CRT,
      M_q[u, v] = prod over p^e of M_(p^e)[u mod p^e, v mod p^e].
    Refused for q^n >= 2^53, so every count is exact as a float64, and
    where a table exceeds the budget."""
    if q ** inst.n >= 2 ** 53:
        raise BudgetExceededError(
            f"{q}^{inst.n} residues exceed the exact float64 range")
    tables = [(p ** e, padic._phase_table(inst, p, e, budget))
              for p, e in factor(q).factors]
    blocks.refuse_table(q, budget)
    r = np.arange(q)
    M = np.ones((q, q), dtype=np.int64)
    for pe, T in tables:
        M *= T[np.ix_(r % pe, r % pe)]
    return M


def _block_table(inst: Instance, q: int, budget: int) -> np.ndarray:
    """The Birch table as the product of the per-block tables
    conj(FFT2(M_b)), exact because e(.) is additive over disjoint blocks."""
    tables = block_tables(inst, q, budget)  # each refuses q^2 > budget
    S = np.ones((q, q), dtype=np.complex128)
    for M, count in tables:
        S *= np.conj(np.fft.fft2(M.astype(np.float64))) ** count
    return S


def _primitive_colsums(S: np.ndarray, q: int) -> np.ndarray:
    """T[a1] = sum over a2 with gcd(a1, a2, q) = 1 of S[a1, a2]."""
    if q == 1:
        return np.array([1.0 + 0.0j])
    aa = np.arange(q)
    G = np.gcd(np.gcd.outer(aa, aa), q)
    return (S * (G == 1)).sum(axis=1)


# ---------------------------------------------------------------------------
# the arc factor
# ---------------------------------------------------------------------------

def _padic_weight_3mod4(ell: int, q: int, fq) -> float:
    """prod over p = 3 mod 4 with v_p(q) > v_p(ell) of (1 - 1/p)^(-1)."""
    out = 1.0
    for p, e in fq:
        if p % 4 != 3:
            continue
        v = valuation(ell, p) if ell else e + 1  # v_p(0) infinite
        if v < e:
            out *= p / (p - 1.0)
    return out


def _arc_representatives(q: int, fq) -> list[tuple[int, float]]:
    """Finitely many (w, weight) pairs whose bucket sums equal those of
    the weights 1/w over all w = 2^t k^2, k built from the primes
    p = 3 mod 4 that divide q (the other primes of k give the C0 factor
    in arc_factor_row).

    The bucket (gcd(w, q), (w/gcd) mod 4) of w depends only on
    min(t, v_2(q) + 2) and, at each such p, on min(v_p(k), ceil(v_p(q)/2)),
    so the terms with t >= v_2(q) + 2, and those with
    v_p(k) >= ceil(v_p(q)/2), are geometric tails, each summed into its
    first term.
    """
    v2 = dict(fq).get(2, 0)
    reps = [(1 << t, 2.0 ** -t) for t in range(v2 + 2)]
    reps.append((1 << (v2 + 2), 2.0 ** -(v2 + 1)))
    for p, e in fq:
        if p % 4 != 3:
            continue
        top = (e + 1) // 2
        local = [(p ** (2 * j), p ** (-2.0 * j)) for j in range(top)]
        local.append((p ** (2 * top), p ** (-2.0 * top) / (1.0 - p ** -2.0)))
        reps = [(w * pw, x * px) for w, x in reps for pw, px in local]
    return reps


def arc_factor_row(q: int) -> tuple[np.ndarray, float]:
    """Arc factors for all a1 in [0, q), summed over every (k, t).

    Returns (values, tail_bound).  The values are exact apart from C0,
    which enters as C0^-2; landau_constants() states C0 to within its
    c0_error of a few ulps, and every value is at most values[0] in
    absolute value, so tail_bound, values[0] times the relative error of
    C0^-2, is at the level of rounding.
    """
    if q < 1:
        raise DomainError("q must be positive")
    fq = factor(q).factors
    consts = landau_constants()

    # l-side coefficient ingredients, fixed per q
    h_arr = np.array([gcd(l, q) if l else q for l in range(q)], dtype=np.int64)
    lcm4 = np.array([4 * (q // h) // gcd(4, q // h) for h in h_arr.tolist()],
                    dtype=np.int64)
    m4 = np.array([gcd(4, q // h) for h in h_arr.tolist()], dtype=np.int64)
    lred = np.array([(l // h) if l else 0 for l, h in enumerate(h_arr.tolist())],
                    dtype=np.int64)
    weight3 = np.array([_padic_weight_3mod4(l, q, fq) for l in range(q)])

    # w = 2^t k^2 bucketed by (gcd(w, q), (w/gcd) mod 4)
    bucket: dict[tuple[int, int], float] = {}
    for w, x in _arc_representatives(q, fq):
        g1 = gcd(w, q)
        key = (g1, (w // g1) % 4)
        bucket[key] = bucket.get(key, 0.0) + g1 * x

    values = np.zeros(q, dtype=np.complex128)
    ls = np.arange(q)
    varpi = only_1mod4_sieve(q)  # varpi[r]: every prime of r is 1 mod 4
    for (g1, rho), wsum in sorted(bucket.items()):
        # where g1 divides l it divides h = gcd(l, q) too, and h // g1 >= 1
        ok = (ls % g1 == 0) & ((rho - lred) % m4 == 0) & varpi[h_arr // g1]
        coef = np.where(ok, weight3 / (h_arr * lcm4), 0.0)
        # sum_l coef[l] e(a1 l / q) for every a1 at once
        values += wsum * np.conj(np.fft.fft(coef))
    # the primes of k prime to q enter as squares, which are 1 mod 4, and
    # sum to prod_{p not | q} (1 - p^-2)^-1 = C0^-2 prod_{p | q} (1 - p^-2)
    scale = 1.0 / consts.c0 ** 2
    for p, _e in fq:
        if p % 4 == 3:
            scale *= 1.0 - p ** -2.0
    values *= scale
    # C0 lies within c0_error of c0, so the true C0^-2 differs from the one
    # used here by at most this relative amount
    inflate = (consts.c0 / (consts.c0 - consts.c0_error)) ** 2 - 1.0
    return values, float(values[0].real) * inflate


def twisted_two_squares_row(x: int, q: int) -> np.ndarray:
    """sum_{m <= x, m a sum of two squares} e(a1 m / q) for every a1 in
    [0, q).

    The m of the two-squares sieve are counted in their classes mod q
    once, and the phases a1 r mod q are reduced exactly in integers.
    """
    if x < 1:
        raise DomainError("x must be positive")
    if q < 1:
        raise DomainError("q must be positive")
    counts = np.bincount(np.flatnonzero(two_squares_sieve(x)) % q,
                         minlength=q)
    r = np.arange(q, dtype=np.int64)
    return (counts * np.exp(2j * np.pi * (np.outer(r, r) % q / q))).sum(axis=1)


def empirical_twisted_row(x: int, q: int) -> tuple:
    """(emp, pred) for every a1 in [0, q): emp is twisted_two_squares_row
    scaled by sqrt(log x)/x, pred = sqrt(2) C0 F(a1, q) its limit as x
    grows."""
    if x < 2:
        raise DomainError("x must be at least 2 (log x too small below)")
    row, _ = arc_factor_row(q)
    emp = twisted_two_squares_row(x, q) * (sqrt(log(x)) / x)
    return emp, sqrt(2) * landau_constants().c0 * row


# ---------------------------------------------------------------------------
# the singular series: its q-terms, their sum and their local factors
# ---------------------------------------------------------------------------

def _q_term(inst: Instance, q: int, budget: int) -> complex:
    """The q-th term of the singular series,
    t(q) = q^-n sum over primitive a mod q of S_{a,q} conj(F(a1, q))."""
    S = birch_sum_table(inst, q, budget)
    T = _primitive_colsums(S, q)
    F, _ = arc_factor_row(q)
    return complex((T * np.conj(F)).sum() / q ** inst.n)


def local_series(inst: Instance, p: int, m_max: int,
                 budget: int = blocks.DEFAULT_BUDGET) -> TruncatedValue:
    """Local factor of the singular series at p = 2 or a prime p = 3 mod 4,
    in shells m <= m_max.

    The q-terms t(q) are multiplicative, t(ab) t(1) = t(a) t(b) for coprime
    a and b (Birch 1962), so the q-sum is t(1) times the product over p of
    sum_m t(p^m) / t(1).  Here shell m is
      s0 * t(p^m) / t(1),
    with s0 = 1/2 at p = 2 and (1 - p^-2)^-1 at p = 3 mod 4: t(1) =
    1/(2 C0^2) is the product of these s0 over all primes (s0 = 1 at
    p = 1 mod 4), so the factors multiply to the q-sum.  Refused at
    p = 1 mod 4, whose factor route 1 reads from padic.  The error is the
    magnitude of the last shell, not a bound (heuristic).
    """
    if p != 2 and p % 4 != 3:
        raise DomainError("p must be 2 or 3 mod 4")
    s0 = 0.5 if p == 2 else 1.0 / (1.0 - p ** -2.0)
    t1 = _q_term(inst, 1, budget)
    shells = [s0 * _q_term(inst, p ** m, budget) / t1
              for m in range(m_max + 1)]
    return TruncatedValue(value=complex(sum(shells)),
                          error_bound=abs(shells[-1]),
                          error_kind="heuristic", shells=shells)


def singular_series(inst: Instance, Q: int,
                    budget: int = blocks.DEFAULT_BUDGET) -> TruncatedValue:
    """Truncated q-sum: sum_{q<=Q} q^-n sum_{primitive a} S_{a,q} *
    conj(F(a1, q)), F the arc factors of arc_factor_row(q).

    The per-q terms are recorded as shells.  When the instance carries a
    sigma bound with positive decay exponent lambda0, the error is the tail
    C * Q^(-lambda0) / lambda0, with C = max |t(q)| q^(1 + lambda0) over
    the computed terms: an extrapolation, so heuristic.  Otherwise it is
    the mass of the last quarter of terms, heuristic too.
    At small n the terms need not decay at all; the factored evaluation
    (constant.euler_products) is then the meaningful one, and
    this sum is reported with its honest non-decaying error estimate.
    Refused where its tables, which the Birch memo keeps, hold more than
    budget entries together.
    """
    if Q < 1:
        raise DomainError("Q must be positive")
    entries = Q * (Q + 1) * (2 * Q + 1) // 6  # sum of q^2 over the tables
    if entries > budget:
        raise BudgetExceededError(f"the q-sum to Q = {Q} keeps {entries} "
                                  f"table entries, beyond budget {budget}")
    terms = [_q_term(inst, q, budget) for q in range(1, Q + 1)]
    lam = inst.lambda0()
    if lam is not None and lam > 0:
        C = max(abs(t) * (i + 1) ** (1 + lam) for i, t in enumerate(terms))
        err = C * Q ** (-lam) / lam
    else:
        err = float(sum(abs(t) for t in terms[3 * Q // 4:]))
    return TruncatedValue(
        value=complex(sum(terms)),
        error_bound=err, error_kind="heuristic", shells=terms)
