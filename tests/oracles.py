"""Reference computations that the tests compare the library against.

Each one computes a quantity straight from its definition, or by the
truncated sum that the library replaced with a closed form.  They are
slow and used by no library code.
"""

from __future__ import annotations

import math
from math import gcd

import numpy as np

from fibrecount.archimedean import _chunk_rng
from fibrecount.arith import (DomainError, factor, prime_sieve, ramanujan_sum,
                              valuation)
from fibrecount.blocks import (DEFAULT_BUDGET, Block, BudgetExceededError,
                               balanced_halves, residue_table, restrict,
                               variable_blocks)
from fibrecount.expsums import (TruncatedValue, _padic_weight_3mod4,
                                _primitive_colsums, birch_sum_table,
                                joint_value_distribution)
from fibrecount.forms import INT64_SAFE, Form, FormError, Instance
from fibrecount.padic import _classify_f1, _cols, _lifts, _solutions

_CHUNK = 1 << 21


def birch_sum_single(inst: Instance, a1: int, a2: int, q: int,
                     budget: int = DEFAULT_BUDGET) -> complex:
    """One Birch sum by literal chunked summation."""
    n = inst.n
    total = q ** n
    if total > budget:
        raise BudgetExceededError(f"q^n = {total} exceeds budget {budget}")
    acc = 0.0 + 0.0j
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        cols = [(idx // q**i) % q for i in range(n)]
        u = inst.f1.evaluate_batch_mod(cols, q)
        v = inst.f2.evaluate_batch_mod(cols, q)
        acc += np.exp(2j * np.pi * ((a1 * u + a2 * v) % q) / q).sum()
    return complex(acc)


def birch_table_scan(inst: Instance, q: int) -> np.ndarray:
    """The Birch table conj(FFT2(M)) of the scan of (Z/q)^n, M the joint
    value distribution: the oracle of expsums.birch_sum_table."""
    M = joint_value_distribution(inst, q)
    return np.conj(np.fft.fft2(M.astype(np.float64)))


def block_masses(inst: Instance, p: int, N: int, e: int) -> tuple:
    """(count, soluble, undecided) of the solutions of f2 = 0 mod p^N with
    f1 classified at level N + e, in the units of padic's masses, from the
    residue tables of two balanced halves of the variable blocks.

    Each table counts x mod p^(N+e) by (f1 mod p^(N+e), f2 mod p^N): the
    residue table with its f2 axis folded from p^(N+e) to p^N.  One
    float64 matrix product pairs the f2 residues v and -v of the halves,
    and the cyclic diagonals of the product add their f1 residues.  Every
    entry and partial sum is a nonnegative integer at most the total mass
    p^(n (N+e)), so below 2^53 the floats are exact.
    """
    q1, q2 = p ** (N + e), p ** N
    assert p ** (inst.n * (N + e)) < 2**53
    a, b = (residue_table(Block(tuple(h), restrict(inst.f1, h),
                                restrict(inst.f2, h)), q1, 2**53)
            .reshape(q1, q1 // q2, q2).sum(axis=1).astype(np.float64)
            for h in balanced_halves(variable_blocks(inst)))
    prod = a @ b[:, -np.arange(q2) % q2].T
    u = np.arange(q1)
    col = prod[u[:, None], (u - u[:, None]) % q1].sum(axis=0).astype(np.int64)
    sol, und = _classify_f1(np.arange(q1, dtype=np.int64), p, N + e)
    return (int(col.sum()) // p ** (inst.n * e), int(col[sol].sum()),
            int(col[und].sum()))


def tree_masses(inst: Instance, p: int, N: int, lift_extra: int,
                fibre: bool, budget: int) -> tuple:
    """(count, soluble, undecided) at level N by the lift tree, in the
    units of padic's masses: the reference of its stationary phase.

    Levels 1..N keep the solutions of f2 = 0, level 1 lifting the class of
    0, and the last level is scanned in chunks, never materialized.
    Without fibre every solution is soluble.  With it, classes left
    undecided by f1 mod p^N are lifted (t, not the f2 condition) up to
    lift_extra more levels, each child of a class at depth k weighing
    p^(n (lift_extra - k)).  A level over the budget refuses.
    """
    sols = np.zeros((1, inst.n), dtype=np.int64)
    for k in range(1, N):
        sols = np.concatenate(list(_solutions(inst, p, k, sols, budget)))
    chunks = _solutions(inst, p, N, sols, budget)
    if not fibre:
        count = sum(len(pts) for pts in chunks)
        return count, count, 0

    def weight(depth: int) -> int:
        return p ** (inst.n * (lift_extra - depth))

    def scan(chunks, depth: int):
        """Tallies the soluble classes in chunks at level N + depth;
        returns the number of classes and the undecided ones."""
        nonlocal soluble
        seen, undecided = 0, []
        for pts in chunks:
            seen += len(pts)
            values = inst.f1.evaluate_batch_mod(_cols(pts), p ** (N + depth))
            sol, und = _classify_f1(values, p, N + depth)
            soluble += int(sol.sum()) * weight(depth)
            undecided.append(pts[und])
        return seen, np.concatenate(undecided)

    soluble = depth = 0
    count, cur = scan(chunks, 0)
    while depth < lift_extra and len(cur):
        depth += 1
        _, cur = scan(_lifts(inst, p, N + depth, cur, budget), depth)
    return count, soluble, len(cur) * weight(depth)


def evaluate_batch(form: Form, cols, bound: int) -> np.ndarray:
    """Form.evaluate_batch by the plain loop: each monomial a fresh array,
    its coefficient times the columns one factor at a time in variable
    order, and the monomials summed in their listed order onto zeros."""
    if form.coeff_norm() * (max(bound, 1) ** form.degree) >= INT64_SAFE:
        raise FormError("values may overflow int64")
    shape = np.broadcast_shapes(*(np.shape(c) for c in cols))
    total = np.zeros(shape, dtype=np.int64)
    for coeff, exps in form.monomials:
        term = np.asarray(coeff, dtype=np.int64)
        for c, e in zip(cols, exps):
            for _ in range(e):
                term = term * c
        total = total + term
    return total


def uniform_chunk(seed: int, stream: int, index: int, m: int,
                  n: int) -> np.ndarray:
    """The m points of a Monte Carlo chunk drawn in one piece, as the
    coordinate rows of rng.uniform(-1, 1, (m, n))."""
    return _chunk_rng(seed, stream, index).uniform(-1.0, 1.0, (m, n)).T


def moebius(m: int) -> int:
    """The Moebius function of m > 0 from the factorization of m."""
    if m < 1:
        raise DomainError("argument must be positive")
    if m == 1:
        return 1
    out = 1
    for _, e in factor(m).factors:
        if e > 1:
            return 0
        out = -out
    return out


def ramanujan_sum_direct(q: int, a: int) -> complex:
    """Ramanujan sum by its definition: sum of e(ax/q) over units x mod q."""
    if q < 1:
        raise DomainError("q must be positive")
    xs = np.arange(q)
    units = np.gcd(xs, q) == 1
    return complex(np.exp(2j * np.pi * a * xs[units] / q).sum())


def two_squares_decomposition(m: int) -> tuple[int, int, int]:
    """Write m > 0 uniquely as 2**t * k**2 * r with every prime of k
    congruent to 3 mod 4 and every prime of r congruent to 1 mod 4 --
    possible exactly when conic_soluble_global(m) = 1."""
    if m < 1:
        raise DomainError("argument must be a positive integer")
    t = valuation(m, 2)
    k = 1
    r = 1
    for p, e in factor(m).factors:
        if p == 2:
            continue
        if p % 4 == 3:
            if e % 2 == 1:
                raise DomainError(f"{m} has odd valuation at {p}")
            k *= p ** (e // 2)
        else:
            r *= p ** e
    return t, k, r


def two_squares_parity_sieve(limit: int) -> np.ndarray:
    """ok[0..limit], ok[m] iff m > 0 is a sum of two squares, by valuation
    parities: for every prime p = 3 mod 4 and every odd exponent e, the m
    with v_p(m) exactly e are removed.  The library's two_squares_sieve
    marks the sums a^2 + b^2 instead."""
    ok = np.ones(limit + 1, dtype=bool)
    ok[0] = False
    primes = prime_sieve(limit)
    for p in primes[primes % 4 == 3].tolist():
        pe = p
        while pe <= limit:
            view = ok[pe::pe]
            keep = view[p - 1::p].copy()  # v_p >= e+1: survive this exponent
            view[:] = False
            view[p - 1::p] = keep
            if pe > limit // (p * p):
                break
            pe *= p * p  # next odd exponent
    return ok


def c0_euler_product(cutoff: int = 10**6) -> tuple[float, float]:
    """(lower, upper) bracket of C0 = prod over p = 3 mod 4 of
    (1 - p^-2)^(1/2) from its product over the primes up to cutoff.

    The truncated product exceeds the limit, and the log of the dropped
    factors is at least -sum_{p > cutoff} p^-2 / 2 >= -1/(2 (cutoff - 1)).
    """
    primes = prime_sieve(cutoff)
    p3 = primes[primes % 4 == 3].astype(np.float64)
    upper = float(math.exp(0.5 * np.log1p(-1.0 / p3**2).sum()))
    return upper * math.exp(-1.0 / (2 * (cutoff - 1))), upper


# B_2j / (2j)! for j = 1..8
_BERNOULLI_TERMS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600,
                    1 / 47900160, -691 / 1307674368000,
                    1 / 74724249600, -3617 / 10670622842880000)


def hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) = sum_{k >= 0} (k + a)^-s for s > 1, 0 < a <= 1, by
    Euler-Maclaurin after 32 terms, its remainder below 1e-20."""
    x = 32 + a
    parts = [(k + a) ** -s for k in range(32)]
    parts += [x ** (1 - s) / (s - 1), x ** -s / 2]
    rising = s  # s (s + 1) ... (s + 2j - 2)
    for j, b in enumerate(_BERNOULLI_TERMS, start=1):
        parts.append(b * rising * x ** (-s - 2 * j + 1))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return math.fsum(parts)


def c0_shanks() -> float:
    """C0 = A(2)^(1/2) from Shanks' recursion for A(s) = prod over
    p = 3 mod 4 of (1 - p^-s):

        A(s)^2 = A(2s) L(s, chi4) / ((1 - 2^-s) zeta(s)),

    the Euler products of zeta(s) and L(s, chi4) = 4^-s (zeta(s, 1/4) -
    zeta(s, 3/4)) divided.  It starts from A(64) = 1, within 3^-64."""
    A = 1.0
    for s in (32, 16, 8, 4, 2):
        L = 4.0 ** -s * (hurwitz_zeta(s, 0.25) - hurwitz_zeta(s, 0.75))
        A = math.sqrt(A * L / ((1 - 2.0 ** -s) * hurwitz_zeta(s, 1.0)))
    return math.sqrt(A)


def _ks_3mod4(limit: int) -> np.ndarray:
    """Integers k <= limit all of whose prime factors are 3 mod 4."""
    good = np.ones(limit + 1, dtype=bool)
    good[0] = False
    for p in prime_sieve(limit):
        if p % 4 != 3:
            good[int(p)::int(p)] = False
    return np.nonzero(good)[0]


def arc_factor_row_truncated(q: int, U: float) -> tuple[np.ndarray, float]:
    """Arc factors for all a1 in [0, q) at truncation 2^t k^2 <= U.

    Returns (values, tail_bound).  The tail bound is rigorous: every
    dropped (k, t) term is at most P(q)/(2^t k^2) in absolute value, where
    P(q) is the local product over p = 3 mod 4 dividing q, and the dropped
    (k, t) mass is at most 4/sqrt(U) + 2/floor(sqrt(U)).
    """
    if q < 1:
        raise DomainError("q must be positive")
    if U < 4:
        raise DomainError("U must be at least 4")
    fq = factor(q).factors if q > 1 else ()

    # l-side coefficient ingredients, fixed per q
    h_arr = np.array([gcd(l, q) if l else q for l in range(q)], dtype=np.int64)
    lcm4 = np.array([4 * (q // h) // gcd(4, q // h) for h in h_arr.tolist()],
                    dtype=np.int64)
    m4 = np.array([gcd(4, q // h) for h in h_arr.tolist()], dtype=np.int64)
    lred = np.array([(l // h) if l else 0 for l, h in enumerate(h_arr.tolist())],
                    dtype=np.int64)
    weight3 = np.array([_padic_weight_3mod4(l, q, fq) for l in range(q)])

    # (k, t) pairs bucketed by (gcd(w, q), (w/gcd) mod 4)
    ks = _ks_3mod4(math.isqrt(int(U)))
    bucket: dict[tuple[int, int], float] = {}
    t = 0
    while True:
        lim = U / (1 << t)
        if lim < 1:
            break
        sel = ks[ks.astype(np.float64) ** 2 <= lim]
        if len(sel) == 0:
            break
        w = (sel.astype(np.int64) ** 2) << t
        for wi in w.tolist():
            g1 = gcd(wi, q)
            key = (g1, (wi // g1) % 4)
            bucket[key] = bucket.get(key, 0.0) + g1 / wi
        t += 1

    values = np.zeros(q, dtype=np.complex128)
    ls = np.arange(q)
    for (g1, rho), wsum in sorted(bucket.items()):
        ok = (ls % g1 == 0)
        varpi_ok = np.array([all(p % 4 == 1 for p, _ in
                                 factor(int(h) // g1).factors)
                             if o and h % g1 == 0 else 0
                             for o, h in zip(ok.tolist(), h_arr.tolist())],
                            dtype=np.float64)
        cong = (rho - lred) % m4 == 0
        coef = np.where(ok & cong, varpi_ok * weight3 / (h_arr * lcm4), 0.0)
        # sum_l coef[l] e(a1 l / q) for every a1 at once
        values += wsum * np.conj(np.fft.fft(coef))
    s = math.isqrt(int(U))
    pmax = 1.0
    for p, _e in fq:
        if p % 4 == 3:
            pmax *= p / (p - 1.0)
    tail = pmax * (4.0 * s / U + 2.0 / max(s - 1, 1))
    return values, tail


# ---------------------------------------------------------------------------
# the local factors of the singular series as (kappa, m) and (t, rho) series,
# derived apart from the q-terms that expsums.local_series reads
# ---------------------------------------------------------------------------

def gcd_phase_sum(a: int, q: int, k: int) -> complex:
    """sum over l in [0, q) with gcd(l, q) = gcd(k^2, q) of
    e(-a l / q) * prod over primes p with v_p(q) > v_p(l) of (1-1/p)^(-1).

    gcd(0, q) = q, and the product runs over ALL primes with the stated
    valuation gap (not only p = 3 mod 4).

    Closed form: with g = gcd(k^2, q), v_p(l) < v_p(q) holds exactly when
    p^e does not divide g (p^e || q), so the weight is one constant w(g) on
    the summed l = g u, u a unit mod q/g, and the phases sum to the
    Ramanujan sum c_(q/g)(a).
    """
    if q < 1:
        raise DomainError("q must be positive")
    g = gcd(k * k, q)
    w = 1.0
    for p, e in factor(q).factors:
        if g % p ** e:
            w *= p / (p - 1.0)
    return complex(w * ramanujan_sum(q // g, a))


def local_series_odd(inst: Instance, p: int, m_max: int,
                     budget: int = DEFAULT_BUDGET) -> TruncatedValue:
    """Local factor of the singular series at a prime p = 3 mod 4.

    Double series over shells (kappa, m):
      gcd(p^(2 kappa), p^m) / p^(2 kappa + m(n+1))
        * sum over primitive (a1, a2) mod p^m of S_{a, p^m} W_{a1, p^m}(p^kappa),
    truncated at m <= m_max.  For 2 kappa >= m the gcd is p^m and W no
    longer depends on kappa, so the kappa-sum from ceil(m/2) on is a
    geometric series with ratio p^-2, summed exactly.  Shells are recorded
    per m; the error is the magnitude of the last shell (heuristic).
    """
    if p % 4 != 3:
        raise DomainError("p must be 3 mod 4")
    n = inst.n
    geometric = 1.0 / (1.0 - p ** -2.0)
    shells = []
    total = 0.0 + 0.0j
    for m in range(m_max + 1):
        q = p ** m
        S = birch_sum_table(inst, q, budget)
        T = _primitive_colsums(S, q)
        shell = 0.0 + 0.0j
        top = (m + 1) // 2
        for kappa in range(top + 1):
            gk = p ** min(2 * kappa, m)
            W = np.array([gcd_phase_sum(a1, q, p ** kappa) for a1 in range(q)])
            coef = gk / p ** (2 * kappa + m * (n + 1))
            if kappa == top:
                coef *= geometric
            shell += coef * complex((W * T).sum())
        shells.append(complex(shell))
        total += shell
    err = abs(shells[-1]) if len(shells) > 1 else 0.0
    return TruncatedValue(
        value=complex(total),
        error_bound=err, error_kind="heuristic", shells=shells)


def local_series_two(inst: Instance, rho_max: int,
                     budget: int = DEFAULT_BUDGET) -> TruncatedValue:
    """Dyadic local factor of the singular series, shells rho <= rho_max.

    (1/4) * sum over shells (t, rho) of 2^(-t-rho*n) times the primitive
    phase sum with the carry indicator v_2(b1) >= rho - t - 2 and the
    extra phase e(-b1 2^(t-rho)).  For t >= rho the indicator always holds
    and the phase is 1, so the t-sum from rho on is 2^(1-rho-rho*n) times
    the full phase sum, added exactly.  Shells recorded per rho.
    """
    n = inst.n
    shells = []
    total = 0.0 + 0.0j
    for rho in range(rho_max + 1):
        q = 2 ** rho
        S = birch_sum_table(inst, q, budget)
        T = _primitive_colsums(S, q)
        b1 = np.arange(q)
        v2 = np.array([valuation(int(b), 2) if b else rho for b in b1],
                      dtype=np.int64)
        shell = 2.0 ** (1 - rho - rho * n) * complex(T.sum())
        for t in range(rho):
            mask = v2 >= rho - t - 2
            phase = np.exp(-2j * np.pi * ((b1 << t) % q) / q)
            shell += 2.0 ** (-t - rho * n) * complex((phase * T)[mask].sum())
        shell /= 4.0
        shells.append(complex(shell))
        total += shell
    err = abs(shells[-1]) if len(shells) > 1 else 0.0
    return TruncatedValue(
        value=complex(total),
        error_bound=err, error_kind="heuristic", shells=shells)


# ---------------------------------------------------------------------------
# the figure of merit of archimedean._LATTICE
# ---------------------------------------------------------------------------

def _bernoulli2(x):
    return x * x - x + 1.0 / 6.0


def _powers_of_5(m: int) -> np.ndarray:
    """5^d mod 2^m for d < 2^(m-2): with their negatives, the odd residues
    mod 2^m (m >= 3)."""
    out = np.ones(1 << (m - 2), dtype=np.int64)
    k, step = 1, 5
    while k < len(out):
        out[k:2 * k] = out[:k] * step % (1 << m)
        step = step * step % (1 << m)
        k *= 2
    return out


def lattice_error(z, m: int) -> float:
    """Squared worst-case error, averaged over random shifts, of the rank-1
    lattice rule with generating vector z and N = 2^m points in the
    unanchored Sobolev space of first-order mixed smoothness with unit
    product weights: -1 + (1/N) sum_k prod_j (1 + B2({k z_j / N})), with B2
    the Bernoulli polynomial x^2 - x + 1/6 (Dick, Kuo and Sloan, Acta
    Numerica 22, 2013)."""
    N = 1 << m
    k = np.arange(N, dtype=np.int64)
    prod = np.ones(N)
    for zj in z:
        prod *= 1.0 + _bernoulli2(k * zj % N / N)
    return float(prod.mean()) - 1.0


def lattice_errors(prefix, m: int) -> np.ndarray:
    """lattice_error(prefix + (5^d mod 2^m,), m) for every d < 2^(m-2), by
    fast component-by-component evaluation: k = 2^v u with u odd, and on
    the odd u mod 2^(m-v) = +-5^b the sum over k is a cyclic correlation
    in b, taken by FFT.  B2({x}) is even in x, so z and -z tie."""
    N = 1 << m
    k = np.arange(N, dtype=np.int64)
    prod = np.ones(N)
    for zj in prefix:
        prod *= 1.0 + _bernoulli2(k * zj % N / N)
    # k = 0, N/2 and N/4, 3N/4 give the same B2 value for every odd z
    total = prod.sum() + prod[0] / 6.0 - prod[N // 2] / 12.0 \
        - (prod[N // 4] + prod[3 * N // 4]) / 48.0
    out = np.full(N // 4, total)
    for v in range(m - 2):
        q = 1 << (m - v)
        pw = _powers_of_5(m - v)
        weight = prod[pw << v] + prod[(q - pw) << v]
        kernel = _bernoulli2(pw / q)
        corr = np.fft.irfft(np.conj(np.fft.rfft(weight))
                            * np.fft.rfft(kernel), len(pw))
        out += np.tile(corr, N // 4 // len(pw))
    return out / N - 1.0


def cbc_lattice_errors(m: int, s: int) -> list:
    """lattice_error of the component-by-component rule built for N = 2^m
    alone, in each dimension 1..s (its first entry is 1)."""
    z, errors = [1], [lattice_error([1], m)]
    for _ in range(1, s):
        e = lattice_errors(z, m)
        d = int(np.argmin(e))
        z.append(int(_powers_of_5(m)[d]))
        errors.append(float(e[d]))
    return errors


def embedded_lattice_merit(prefix, ms, best: dict) -> np.ndarray:
    """The merit of each odd candidate z < 2^(max(ms) - 1) as the next
    entry of an embedded lattice sequence (Cools, Kuo and Nuyens, SIAM J.
    Sci. Comput. 28, 2006): the largest ratio over N = 2^m, m in ms, of
    lattice_error(prefix + (z,), m) to best[m][len(prefix)], the error of
    the rule built for that N alone.  Entry i is candidate 2 i + 1."""
    cand = np.arange(1, 1 << (max(ms) - 1), 2, dtype=np.int64)
    worst = np.zeros(len(cand))
    for m in ms:
        pw = _powers_of_5(m)
        dlog = np.zeros(1 << m, dtype=np.int64)
        dlog[pw] = dlog[(1 << m) - pw] = np.arange(len(pw))
        ratio = lattice_errors(prefix, m) / best[m][len(prefix)]
        np.maximum(worst, ratio[dlog[cand % (1 << m)]], out=worst)
    return worst


def first_order_error(c: float, factors) -> float:
    """|c| times the sum of |error / value| over (value, error) factors of
    c, a zero value adding nothing: first-order propagation of a
    product's error."""
    return abs(c) * math.fsum(abs(e / v) for v, e in factors if v != 0)


def local_product_tail(ratios, p_max: int) -> float:
    """The local product's heuristic tail error from its (p, ratio) pairs:
    C fitted by least squares to |log ratio| ~ C / p^2 over the positive
    ratios, the log-tail C * sum of q^-2 over the primes q in
    (p_max, 10 p_max), and |product| * (exp(log-tail) - 1)."""
    fit = [(p, abs(math.log(r))) for p, r in ratios if r > 0]
    x = np.array([[float(p) ** -2] for p, _ in fit])
    C = np.linalg.lstsq(x, np.array([y for _, y in fit]), rcond=None)[0][0]
    primes = [q for q in prime_sieve(10 * p_max).tolist()
              if p_max < q < 10 * p_max]
    tail = C * math.fsum(q ** -2.0 for q in primes)
    return abs(math.prod(r for _, r in ratios)) * math.expm1(tail)


def qsum_fallback_error(terms) -> float:
    """The q-sum's error where no sigma bound gives decay: the mass
    sum |t(q)| of the last quarter of the Q = len(terms) terms, q > 3Q/4."""
    Q = len(terms)
    return math.fsum(abs(t) for q, t in enumerate(terms, 1) if 4 * q > 3 * Q)
