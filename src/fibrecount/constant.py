"""Assembly of the leading constant by two routes, and the count prediction.

Route 'singular_series':
    c = (J / sqrt(d)) * (sqrt(2) / zeta(n-d)) * (Re L / 2) * C0
with L the singular series and C0 the Euler product over p = 3 mod 4 of
(1 - 1/p^2)^(1/2).

Route 'tamagawa':
    c = (1 / sqrt(pi)) * (J / sqrt(d)) * prod_p (tau_p / lambda_p).

The two agree as exact limits.  At truncated level what the routes share
is their local densities at p <= p_max, which is why the pipeline
evaluates the singular series through its local factorization; the raw
q-sum value is reported alongside.  Their prime content is not matched:
zeta(n-d), C0 and the L(1, chi4)^(1/2) behind 1/sqrt(pi) enter complete,
while the local products stop at p_max.  pipeline builds J, both Euler
products and both routes for the constant and compare commands and for
verify.  euler_products assembles both products in one pass over the
primes, from the local factors of expsums and padic.  It reads the density
at every p once, by local_density: the exact limit padic.tau_limit at
p = 1 mod 4 where every nonzero solution of f2 = 0 mod p is smooth, else
the density at level_for(p).  That one density is the tamagawa route's
factor at every p and the singular-series route's at p = 1 mod 4, so the
two routes carry the same density there by construction.  At p = 2 and
p = 3 mod 4 the singular-series route reads expsums.local_series instead,
the prime-power terms of its own q-sum, to the last shell SERIES_SHELLS
gives.  Both tables, DEFAULT_LEVELS and SERIES_SHELLS, are stated here, so
neither n nor a run's budget moves a truncation: a budget admits or
refuses the work and nothing else.
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


@dataclass
class LocalFactor:
    """Weighted local density against its convergence factor; error_kind
    is that of the density (local_density)."""

    p: int
    tau_p: float
    lambda_p: float
    ratio: float
    error_kind: str


def tamagawa_factor(inst: Instance, p: int,
                    dens: TruncatedValue) -> LocalFactor:
    """Weighted local density tau_p and its convergence factor lambda_p.

    tau_p = (1 - p^-(n-d)) / (1 - 1/p) * dens, dens the local_density at p;
    lambda_p = (1 - 1/p)^(-1/2).
    """
    w = (1.0 - p ** (-(inst.n - inst.d))) / (1.0 - 1.0 / p)
    tau_p = w * dens.value.real
    lam = (1.0 - 1.0 / p) ** -0.5
    return LocalFactor(p=p, tau_p=tau_p, lambda_p=lam, ratio=tau_p / lam,
                       error_kind=dens.error_kind)


def euler_products(inst: Instance, p_max: int = P_MAX,
                   budget: int = blocks.DEFAULT_BUDGET) -> tuple:
    """(series, product): both Euler products to p_max, from one
    local_density a prime.

    series is the singular series as the product of local factors
      (dyadic factor) * prod_{p<=p_max, p=1 mod 4} tau_f2(p)
                      * prod_{p<=p_max, p=3 mod 4} (odd local factor at p),
    the q-sum (expsums.singular_series) as a full sum, but convergent
    shell-wise at every prime: the stable route at small n.  Its shells
    are one dict of the factors by prime, whose relative errors add (first
    order).  The factors at p = 2 and p = 3 mod 4 are expsums.local_series,
    in shells to SERIES_SHELLS (1 where it has no entry).

    product is prod tau_p / lambda_p (tamagawa_factor) with a heuristic
    tail: |log(tau_p/lambda_p)| ~ C/p^2 fitted on the computed primes and
    integrated beyond p_max.  Where the log-factors decay more slowly
    (small n) the fit underestimates the tail; the factors are its shells,
    so the drift is visible.
    """
    value, rel_err, parts, factors = 1.0 + 0.0j, 0.0, {}, []
    for p in [int(r) for r in prime_sieve(p_max)]:
        dens = local_density(inst, p, budget)
        part = dens if p % 4 == 1 \
            else local_series(inst, p, SERIES_SHELLS.get(p, 1), budget)
        value *= part.value
        rel_err += part.error_bound / max(abs(part.value), 1e-30)
        parts[str(p)] = part
        factors.append(tamagawa_factor(inst, p, dens))
    series = TruncatedValue(
        value=complex(value), error_bound=float(abs(value) * rel_err),
        error_kind="heuristic", shells=[parts])
    prod = math.prod(f.ratio for f in factors)
    logs = np.array([abs(math.log(f.ratio)) for f in factors if f.ratio > 0])
    ps = np.array([float(f.p) for f in factors if f.ratio > 0])
    if len(ps):
        C = float((logs * ps**-2).sum() / (ps**-4).sum())
        tail_log = C * sum(1.0 / q**2 for q in range(p_max + 1, 10 * p_max)
                           if is_prime(q))
    else:
        tail_log = 0.0
    err = abs(prod) * (math.exp(tail_log) - 1.0)
    return series, TruncatedValue(
        value=complex(prod),
        error_bound=float(err), error_kind="heuristic", shells=factors)


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

    Requires n - d >= 2 so zeta(n-d) is finite.  First-order error
    propagation: relative errors of the inputs add.
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
    c = (jv / math.sqrt(inst.d)) * (math.sqrt(2.0) / z) \
        * (L.value.real / 2.0) * C0.c0
    rel = 0.0
    if jv != 0:
        rel += abs(J.std_error / jv)
    if L.value.real != 0:
        rel += abs(L.error_bound / L.value.real)
    rel += C0.c0_error / C0.c0
    return ConstantBreakdown(
        route="singular_series", J=jv, C0=C0.c0, L_phi=L.value,
        local_product=float("nan"), zeta_ndmd=z, d=inst.d, c_phi=c,
        combined_error=abs(c) * rel, epsilon_d=error_exponent(inst.d),
        warnings=warnings)


def leading_constant_tamagawa(inst: Instance, J: McEstimate,
                              prod: TruncatedValue) -> ConstantBreakdown:
    """Assemble the constant from the local-product route."""
    jv = float(J.value.real)
    pv = float(prod.value.real)
    c = (1.0 / math.sqrt(math.pi)) * (jv / math.sqrt(inst.d)) * pv
    rel = 0.0
    if jv != 0:
        rel += abs(J.std_error / jv)
    if pv != 0:
        rel += abs(prod.error_bound / pv)
    return ConstantBreakdown(
        route="tamagawa", J=jv, C0=float("nan"), L_phi=complex(float("nan")),
        local_product=pv, zeta_ndmd=float("nan"), d=inst.d, c_phi=c,
        combined_error=abs(c) * rel, epsilon_d=error_exponent(inst.d))


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
