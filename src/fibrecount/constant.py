"""Assembly of the leading constant by two routes, and the count prediction.

Each route is a product of stated factors, and one rule, _first_order,
assembles both: it multiplies the factors' values left to right and adds
their relative errors, where a zero J, L or local product adds none.
  'singular_series':  (J / sqrt(d)) * (sqrt(2) / zeta(n-d)) * (Re L / 2) * C0
  'tamagawa':         (1 / sqrt(pi)) * (J / sqrt(d)) * prod_p tau_p / lambda_p
with L the singular series and C0 the Euler product over p = 3 mod 4 of
(1 - 1/p^2)^(1/2).  The same rule multiplies the local factors of L.

The two agree as exact limits.  At truncated level what they share is
their local densities at p <= p_max, which is why route 1 reads the
singular series through its local factorization; the raw q-sum is
reported alongside.  Their prime content is not matched: zeta(n-d), C0
and the L(1, chi4)^(1/2) behind 1/sqrt(pi) enter complete, while the
local products stop at p_max.  euler_products builds both products in one
pass over the primes and reads the density at every p once, by
local_density: the exact limit padic.tau_limit at p = 1 mod 4 where every
nonzero solution of f2 = 0 mod p is smooth, else the density at
level_for(p).  That one density is route 2's factor at every p and route
1's at p = 1 mod 4; at p = 2 and p = 3 mod 4 route 1 reads
expsums.local_series, the prime-power terms of its own q-sum, to the last
shell SERIES_SHELLS gives.  Both tables, DEFAULT_LEVELS and SERIES_SHELLS,
are stated here, so neither n nor a run's budget moves a truncation.
pipeline builds J, both products and both routes for the constant and
compare commands and for verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import blocks
from .arith import (ArithConstants, DomainError, is_prime, landau_constants,
                    prime_sieve)
from .archimedean import DEFAULT_SAMPLES, McEstimate, real_density_coarea
from .expsums import TruncatedValue, local_series
from .forms import Instance
from .padic import soluble_density, tau_limit

IM_TOLERANCE = 1e-6
P_MAX = 13  # the last prime of both Euler products, by default


def zeta_direct(s: float) -> float:
    """Riemann zeta by direct series, its Euler-Maclaurin remainder below
    1e-12."""
    if s <= 1:
        raise DomainError("need s > 1")
    K = 16
    while True:
        # Euler-Maclaurin: tail = K^(1-s)/(s-1) - K^(-s)/2 + s K^(-s-1)/12 + R,
        # |R| <= s(s+1)(s+2) K^(-s-3)/720
        rem = s * (s + 1) * (s + 2) * K ** (-s - 3) / 720.0
        if rem < 1e-12:
            break
        K *= 2
    head = sum(k ** (-s) for k in range(1, K + 1))
    tail = K ** (1 - s) / (s - 1) - K ** (-s) / 2.0 + s * K ** (-s - 1) / 12.0
    return head + tail


def error_exponent(d: int) -> float:
    """Exponent loss in the log for even degree d: 1/(5(d-1)2^(d+5))."""
    if d < 2 or d % 2 != 0:
        raise DomainError("degree must be even and at least 2")
    return 1.0 / (5 * (d - 1) * 2 ** (d + 5))


def _first_order(factors) -> tuple:
    """(value, error) of a product of (value, relative error) factors: the
    values multiplied left to right, and |value| times the sum of the
    relative errors (first-order propagation)."""
    value, rel = 1.0, 0.0
    for v, r in factors:
        value *= v
        rel += r
    return value, abs(value) * rel


def _rel(err: float, value: float) -> float:
    """|err / value|, and 0 for a zero value."""
    return abs(err / value) if value else 0.0


# ---------------------------------------------------------------------------
# the two Euler products
# ---------------------------------------------------------------------------

DEFAULT_LEVELS = {2: 6, 3: 5, 5: 3, 7: 2, 11: 2, 13: 2}


def level_for(p: int) -> int:
    """The level of the local densities at p in both products:
    DEFAULT_LEVELS, else 1."""
    return DEFAULT_LEVELS.get(p, 1)


# route 1's last shell at p = 2 and p = 3 mod 4, else 1; p = 3 stops short
# of level_for(3) = 5, whose shell would need the 243 x 243 Birch table
SERIES_SHELLS = {2: 6, 3: 4, 7: 2, 11: 2}


def local_density(inst: Instance, p: int,
                  budget: int = blocks.DEFAULT_BUDGET) -> TruncatedValue:
    """The soluble density at p, which euler_products reads once for both
    products; at p = 1 mod 4 it is tau_f2(p).

    There, where padic.tau_limit applies, it is that limit, error kind
    'exact'.  Elsewhere it is padic.soluble_density at level_for(p), kind
    'heuristic' with no error counted for the truncation at that level;
    its LocalDensity is the one shell.
    """
    limit = tau_limit(inst, p, budget) if p % 4 == 1 else None
    if limit is not None:
        return TruncatedValue(complex(limit), 0.0, "exact")
    dens = soluble_density(inst, p, level_for(p), budget=budget)
    return TruncatedValue(complex(dens.density), 0.0, "heuristic", [dens])


def euler_products(inst: Instance, p_max: int = P_MAX,
                   budget: int = blocks.DEFAULT_BUDGET) -> tuple:
    """(series, product): both Euler products to p_max, from one
    local_density a prime.

    series is the singular series as the product of local factors
      (dyadic factor) * prod_{p<=p_max, p=1 mod 4} tau_f2(p)
                      * prod_{p<=p_max, p=3 mod 4} (odd local factor at p),
    the q-sum (expsums.singular_series) as a full sum, but convergent
    shell-wise at every prime: the stable route at small n.  Its shells
    are one dict of the factors by prime, which _first_order multiplies.
    The factors at p = 2 and p = 3 mod 4 are expsums.local_series, in
    shells to SERIES_SHELLS (1 where it has no entry).

    product is prod tau_p / lambda_p, with
      tau_p = (1 - p^-(n-d)) / (1 - 1/p) * dens,  lambda_p = (1 - 1/p)^(-1/2),
    dens the local_density at p; its shells are one dict of the ratios by
    prime.  Its tail is heuristic: |log(tau_p/lambda_p)| ~ C/p^2 fitted on
    the computed primes and summed over the primes in (p_max, 10 p_max).
    Where the log-factors decay more slowly (small n) the fit underestimates
    the tail; the ratios show the drift.
    """
    parts, ratios = {}, {}
    for p in [int(r) for r in prime_sieve(p_max)]:
        dens = local_density(inst, p, budget)
        parts[str(p)] = dens if p % 4 == 1 \
            else local_series(inst, p, SERIES_SHELLS.get(p, 1), budget)
        ratios[str(p)] = (1.0 - p ** (-(inst.n - inst.d))) / (1.0 - 1.0 / p) \
            * dens.value.real / (1.0 - 1.0 / p) ** -0.5
    value, err = _first_order(
        (part.value, part.error_bound / max(abs(part.value), 1e-30))
        for part in parts.values())
    series = TruncatedValue(value=complex(value), error_bound=float(err),
                            error_kind="heuristic", shells=[parts])
    prod = math.prod(ratios.values())
    logs = np.array([abs(math.log(r)) for r in ratios.values() if r > 0])
    ps = np.array([float(p) for p, r in ratios.items() if r > 0])
    if len(ps):
        C = float((logs * ps**-2).sum() / (ps**-4).sum())
        tail_log = C * sum(1.0 / q**2 for q in range(p_max + 1, 10 * p_max)
                           if is_prime(q))
    else:
        tail_log = 0.0
    err = abs(prod) * (math.exp(tail_log) - 1.0)
    return series, TruncatedValue(
        value=complex(prod),
        error_bound=float(err), error_kind="heuristic", shells=[ratios])


# ---------------------------------------------------------------------------
# the two routes
# ---------------------------------------------------------------------------

@dataclass
class ConstantBreakdown:
    """All ingredients of the leading constant for one route."""

    route: str
    J: float
    C0: float
    L_phi: complex
    local_product: float
    zeta_ndmd: float
    d: int
    c_phi: float
    combined_error: float
    epsilon_d: float
    error_kind: str = "heuristic"
    warnings: list = field(default_factory=list)

    @staticmethod
    def csv_header() -> str:
        return ("route,J,C0,L_re,L_im,local_product,zeta_ndmd,d,c_phi,"
                "combined_error,epsilon_d,error_kind")

    def csv_row(self) -> str:
        return (f"{self.route},{self.J:.10g},{self.C0:.10g},"
                f"{self.L_phi.real:.10g},{self.L_phi.imag:.3g},"
                f"{self.local_product:.10g},{self.zeta_ndmd:.10g},{self.d},"
                f"{self.c_phi:.10g},{self.combined_error:.4g},"
                f"{self.epsilon_d:.6g},{self.error_kind}")


def leading_constant_series(inst: Instance, J: McEstimate, L: TruncatedValue,
                            C0: ArithConstants) -> ConstantBreakdown:
    """Assemble the constant from the singular-series route.

    Requires n - d >= 2 so zeta(n-d) is finite.  zeta(n-d) enters exact.
    """
    nd = inst.n - inst.d
    if nd < 2:
        raise DomainError(f"n - d = {nd} < 2: zeta(n-d) undefined or divergent")
    warnings = []
    if abs(L.value.imag) > IM_TOLERANCE * max(abs(L.value.real), 1.0):
        warnings.append(
            f"imaginary part of the singular series ({L.value.imag:.3g}) "
            "beyond tolerance; conjugate pairing may be broken")
    z = zeta_direct(nd)
    jv = float(J.value.real)
    c, err = _first_order([
        (jv / math.sqrt(inst.d), _rel(J.std_error, jv)),
        (math.sqrt(2.0) / z, 0.0),
        (L.value.real / 2.0, _rel(L.error_bound, L.value.real)),
        (C0.c0, _rel(C0.c0_error, C0.c0))])
    return ConstantBreakdown(
        route="singular_series", J=jv, C0=C0.c0, L_phi=L.value,
        local_product=float("nan"), zeta_ndmd=z, d=inst.d, c_phi=c,
        combined_error=err, epsilon_d=error_exponent(inst.d),
        warnings=warnings)


def leading_constant_tamagawa(inst: Instance, J: McEstimate,
                              prod: TruncatedValue) -> ConstantBreakdown:
    """Assemble the constant from the local-product route."""
    jv = float(J.value.real)
    pv = float(prod.value.real)
    c, err = _first_order([
        (1.0 / math.sqrt(math.pi), 0.0),
        (jv / math.sqrt(inst.d), _rel(J.std_error, jv)),
        (pv, _rel(prod.error_bound, pv))])
    return ConstantBreakdown(
        route="tamagawa", J=jv, C0=float("nan"), L_phi=complex(float("nan")),
        local_product=pv, zeta_ndmd=float("nan"), d=inst.d, c_phi=c,
        combined_error=err, epsilon_d=error_exponent(inst.d))


def pipeline(inst: Instance, p_max: int = P_MAX,
             samples: int = DEFAULT_SAMPLES, seed: int = 0,
             budget: int = blocks.DEFAULT_BUDGET) -> tuple:
    """(J, the factored singular series, the route-1 constant, the route-2
    constant): J by real_density_coarea, both Euler products to p_max, and
    route 1 on the factored series, each within budget."""
    if p_max < 2:
        raise DomainError(f"p_max must be at least 2, not {p_max}: the "
                          "Euler products would have no prime")
    J = real_density_coarea(inst, samples, seed, budget)
    l_fact, prod = euler_products(inst, p_max, budget)
    c1 = leading_constant_series(inst, J, l_fact, landau_constants())
    c2 = leading_constant_tamagawa(inst, J, prod)
    return J, l_fact, c1, c2


def predicted_count(c: ConstantBreakdown, inst: Instance, t: float) -> float:
    """Predicted number of soluble fibres of height <= t:
    c * t^(n-d) / sqrt(log t)."""
    if t < 2:
        raise DomainError("t must be at least 2 (log t too small below)")
    return c.c_phi * t ** (inst.n - inst.d) / math.sqrt(math.log(t))


def route_agreement(c1: ConstantBreakdown, c2: ConstantBreakdown) -> dict:
    """Symmetric relative gap between the two route values."""
    mean = 0.5 * (abs(c1.c_phi) + abs(c2.c_phi))
    gap = abs(c1.c_phi - c2.c_phi)
    return {
        "gap": gap,
        "relative_gap": gap / mean if mean else float("inf"),
        "combined_error": c1.combined_error + c2.combined_error,
    }
