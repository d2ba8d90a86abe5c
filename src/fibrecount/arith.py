"""Exact integer arithmetic: factorization, solubility indicators, sieves,
constants.

Everything here is deterministic and reentrant.  The only shared state is
two read-only tables, each replaced only by a longer one: the prime table
and the two-squares sieve.

The central indicator is conic_soluble_global(m): whether the conic
x0^2 + x1^2 = m*x2^2 has a rational point.  For m > 0 this is the classical
sum-of-two-squares condition (every prime p = 3 mod 4 divides m to an even
power); for m < 0 there is no real point.  conic_soluble_local gives the
same answer place by place, and the product over all places recovers the
global indicator.

The same indicator over a whole range is two_squares_sieve(limit), which
marks every a^2 + b^2 <= limit; the tests check it against
conic_soluble_global at every m and against a valuation-parity sieve
(tests/oracles.py).  only_1mod4_sieve(limit) marks the integers whose
prime factors are all 1 mod 4.  A sieve of any kind, the prime table
included, longer than SIEVE_MAX is refused with BudgetExceededError
before any allocation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from math import gcd

import numpy as np

_PRIME_LOCK = threading.Lock()
_PRIMES = np.zeros(0, dtype=np.int64)  # all primes <= _PRIME_LIMIT
_PRIME_LIMIT = 1
_SMALL_TRIAL_LIMIT = 10**6
SIEVE_MAX = 2 * 10**8  # the longest sieve built, 200 MB
_SIEVE_LOCK = threading.Lock()
_SIEVE = np.zeros(1, dtype=bool)  # ok[0..]: replaced only by a longer one


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class BudgetExceededError(RuntimeError):
    """Enumeration volume exceeds the allowed budget."""


def _grown_limit(old: int, limit: int) -> int:
    """New limit of a table that only grows: at least `limit`, and twice
    the old one while that stays within 2^24 more entries."""
    return max(limit, min(2 * old, old + (1 << 24)))


def prime_sieve(limit: int) -> np.ndarray:
    """All primes <= limit: a read-only view of one table that only grows,
    never past SIEVE_MAX, where a limit is refused before any allocation."""
    global _PRIMES, _PRIME_LIMIT
    if limit > SIEVE_MAX:
        raise BudgetExceededError(
            f"prime sieve to {limit} exceeds the memory budget")
    with _PRIME_LOCK:
        if _PRIME_LIMIT < limit:
            _PRIME_LIMIT = min(_grown_limit(_PRIME_LIMIT, limit), SIEVE_MAX)
            is_p = np.ones(_PRIME_LIMIT + 1, dtype=bool)
            is_p[:2] = False
            for i in range(2, math.isqrt(_PRIME_LIMIT) + 1):
                if is_p[i]:
                    is_p[i * i::i] = False
            _PRIMES = np.nonzero(is_p)[0].astype(np.int64)
            _PRIMES.setflags(write=False)
        return _PRIMES[:np.searchsorted(_PRIMES, limit, side="right")]


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with a fixed witness set, or a lookup in
    the prime table where it already reaches n.

    Proven correct below 3.3e24; the extended witness list has no known
    counterexample anywhere near the 128-bit scale this library targets.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    primes = _PRIMES  # read without the lock: it is only ever replaced
    if len(primes) and n <= int(primes[-1]):
        return int(primes[primes.searchsorted(n)]) == n
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """Deterministic Brent-cycle Pollard rho; n must be odd composite."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


@dataclass(frozen=True)
class Factorization:
    """Signed factorization: value = sign * prod(p**e)."""

    value: int
    factors: tuple  # ((prime, exponent), ...) with primes increasing
    sign: int


def factor(m: int) -> Factorization:
    """Deterministic factorization of a nonzero integer.

    Trial division by the primes up to min(sqrt(m), 1e6); a cofactor n > 1
    left with sqrt(n) <= 1e6 is prime.  Only when the trial primes run out
    does Brent's rho with Miller-Rabin primality gates split the rest.
    The prime table is grown to this trial bound and no further, so small
    m sieve only a few primes.  Reproducible: no randomness anywhere.
    """
    if m == 0:
        raise DomainError("cannot factor 0")
    sign = 1 if m > 0 else -1
    n = abs(m)
    fs: dict[int, int] = {}
    if n > 1:
        bound = min(math.isqrt(n), _SMALL_TRIAL_LIMIT)
        primes = _PRIMES  # read without the lock: it is only ever replaced
        if not len(primes) or primes[-1] < bound:
            primes = prime_sieve(bound)
        for p in primes[:primes.searchsorted(bound, side="right")].tolist():
            if p * p > n:
                break
            while n % p == 0:
                fs[p] = fs.get(p, 0) + 1
                n //= p
        if n > 1 and math.isqrt(n) <= _SMALL_TRIAL_LIMIT:
            fs[n] = 1  # every prime up to sqrt(n) was tried
        elif n > 1:
            stack = [n]
            while stack:
                v = stack.pop()
                if v == 1:
                    continue
                if is_prime(v):
                    fs[v] = fs.get(v, 0) + 1
                    continue
                g = _pollard_brent(v)
                stack.append(g)
                stack.append(v // g)
    return Factorization(value=m, factors=tuple(sorted(fs.items())), sign=sign)


def factor_table(limit: int) -> list:
    """The factors of every 0 < m <= limit: entry m is factor(m).factors
    (entry 0 is empty), from one smallest-prime-factor sieve.  m = p r
    with p its least prime factor, so its factors are those of r with p
    put in front.  The prime table is grown to limit, so is_prime of each
    factor is a lookup."""
    primes = prime_sieve(limit)
    spf = np.arange(limit + 1, dtype=np.int64)
    for p in primes[:primes.searchsorted(math.isqrt(limit), "right")].tolist():
        view = spf[p * p::p]
        np.minimum(view, p, out=view)
    table = [()] * (limit + 1)
    for m, p in enumerate(spf.tolist()[2:], start=2):
        rest = table[m // p]
        table[m] = (((p, rest[0][1] + 1),) + rest[1:] if rest and rest[0][0] == p
                    else ((p, 1),) + rest)
    return table


def valuation(m: int, p: int) -> int:
    """v_p(m) for m != 0."""
    if m == 0:
        raise DomainError("valuation of 0 is infinite")
    v = 0
    m = abs(m)
    while m % p == 0:
        m //= p
        v += 1
    return v


def conic_soluble_global(m: int, factorization: Factorization | None = None) -> int:
    """1 iff x0^2+x1^2 = m*x2^2 has a nontrivial rational point.

    Equivalently: m > 0 and v_p(m) is even at every prime p = 3 mod 4.
    m = 0 is outside the domain; the counting layer handles those fibres
    explicitly (they are soluble through the point (0:0:1)).
    """
    if m == 0:
        raise DomainError("indicator undefined at 0; zero fibres are handled upstream")
    if m < 0:
        return 0
    fz = factorization if factorization is not None else factor(m)
    for p, e in fz.factors:
        if p % 4 == 3 and e % 2 == 1:
            return 0
    return 1


def two_squares_sieve(limit: int) -> np.ndarray:
    """Boolean array ok[0..limit]: ok[m] iff m>0 is a sum of two squares.

    Built by pair enumeration: every a^2 + b^2 <= limit with a <= b is
    marked, one numpy scatter per a; no prime table and no per-m
    factorization.  One read-only table serves every limit; a longer
    limit rebuilds it, geometrically larger but never past SIEVE_MAX.  A
    limit above SIEVE_MAX is refused before any allocation.
    """
    global _SIEVE
    if limit > SIEVE_MAX:
        raise BudgetExceededError(
            f"sieve of size {limit} exceeds the memory budget")
    with _SIEVE_LOCK:
        if len(_SIEVE) <= limit:
            _SIEVE = _build_two_squares(
                min(_grown_limit(len(_SIEVE) - 1, limit), SIEVE_MAX))
        return _SIEVE[:limit + 1]


def _build_two_squares(limit: int) -> np.ndarray:
    ok = np.zeros(limit + 1, dtype=bool)
    for a in range(math.isqrt(limit // 2) + 1):  # a <= b: 2 a^2 <= limit
        sums = np.arange(a, math.isqrt(limit - a * a) + 1, dtype=np.int64)
        sums *= sums
        sums += a * a
        ok[sums] = True
    ok[0] = False
    ok.setflags(write=False)
    return ok


def only_1mod4_sieve(limit: int) -> np.ndarray:
    """ok[r] iff every prime factor of r is 1 mod 4 (ok[1] = True)."""
    if limit > SIEVE_MAX:
        raise BudgetExceededError(
            f"sieve of size {limit} exceeds the memory budget")
    ok = np.ones(limit + 1, dtype=bool)
    ok[0] = False
    primes = prime_sieve(limit)
    for p in primes[primes % 4 != 1]:
        ok[int(p)::int(p)] = False
    return ok


def ramanujan_sum(q: int, a: int) -> int:
    """Ramanujan sum c_q(a) as an exact integer.

    Computed multiplicatively from the prime-power values
    c_{p^m}(a) = p^(m-1) * (p*[v_p(a)>=m] - [v_p(a)>=m-1]).
    """
    if q < 1:
        raise DomainError("q must be positive")
    if q == 1:
        return 1
    total = 1
    for p, m in factor(q).factors:
        va = valuation(a, p) if a != 0 else m + 1  # v_p(0) treated as infinite
        term = p ** (m - 1) * (p * (va >= m) - (va >= m - 1))
        total *= term
        if total == 0:
            return 0
    return total


def conic_soluble_local(m: int, place) -> int:
    """1 iff x0^2+x1^2 = m*x2^2 has a point over the completion at 'place'.

    place is math.inf for the real place, else a prime.  Decision rules:
    real place: m > 0; p = 1 mod 4: always; p = 3 mod 4: v_p(m) even;
    p = 2: the (signed) odd part of m is 1 mod 4.
    """
    if m == 0:
        raise DomainError("indicator undefined at 0")
    if place == math.inf:
        return 1 if m > 0 else 0
    p = int(place)
    if p < 2 or not is_prime(p):
        raise DomainError(f"place must be a prime or math.inf, got {place}")
    if p == 2:
        u = m
        while u % 2 == 0:
            u //= 2
        return 1 if u % 4 == 1 else 0
    if p % 4 == 1:
        return 1
    return 1 if valuation(m, p) % 2 == 0 else 0


@dataclass(frozen=True)
class ArithConstants:
    """C0 = prod over p = 3 mod 4 of (1 - 1/p^2)^(1/2), the half-dimensional
    sieve factor, with its error.

    landau_K = 1/(sqrt(2)*c0) is the Landau-Ramanujan constant: the density
    constant in the count of sums of two squares up to x.
    """

    c0: float
    c0_error: float
    landau_K: float


# C0 = 1/(sqrt(2) K) with K the Landau-Ramanujan constant, known to far more
# digits than a double holds: Shanks, Math. Comp. 18 (1964) 75-86; Flajolet
# and Vardi, "Zeta function expansions of classical constants" (1996).
# The decimal rounds to the nearest double, within half an ulp; four ulps
# also cover the roundings of c0**2 and 1/(sqrt(2) c0) where it is read.
_C0 = 0.92526157475704862262707042297
_LANDAU = ArithConstants(c0=_C0, c0_error=4 * math.ulp(_C0),
                         landau_K=1.0 / (math.sqrt(2) * _C0))


def landau_constants() -> ArithConstants:
    """C0 from its stated value, which tests/oracles.py checks against the
    truncated Euler product and against Shanks' zeta recursion.  c0_error,
    four ulps, covers the rounding of the stated value to a double: the
    true C0 lies within c0_error of c0."""
    return _LANDAU


def mertens_3mod4(D: float) -> float:
    """Product of (1 - 1/p) over primes p < D with p = 3 mod 4."""
    if D < 3:
        raise DomainError("D must be at least 3")
    primes = prime_sieve(int(math.ceil(D)))
    p3 = primes[(primes % 4 == 3) & (primes < D)].astype(np.float64)
    return float(math.exp(np.log1p(-1.0 / p3).sum()))


def mertens_3mod4_main_term(D: float, consts: ArithConstants) -> float:
    """Asymptotic main term sqrt(pi/(2 e^gamma)) * c0 / sqrt(log D)."""
    return math.sqrt(math.pi / (2.0 * math.exp(np.euler_gamma))) * consts.c0 \
        / math.sqrt(math.log(D))


def residue_class_parts(Q: int) -> tuple[int, int]:
    """Split Q into its 1-mod-4 part and 3-mod-4 part (2-part in neither)."""
    if Q < 1:
        raise DomainError("Q must be positive")
    dot = ddot = 1
    for p, e in factor(Q).factors:
        if p % 4 == 1:
            dot *= p ** e
        elif p % 4 == 3:
            ddot *= p ** e
    return dot, ddot


def euler_phi(m: int) -> int:
    if m < 1:
        raise DomainError("argument must be positive")
    if m == 1:
        return 1
    out = 1
    for p, e in factor(m).factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def moebius_sieve(limit: int) -> np.ndarray:
    """mu(0..limit) as an int8 array (mu[0] set to 0)."""
    primes = prime_sieve(limit)  # refuses before mu is allocated
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes:
        p = int(p)
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu
