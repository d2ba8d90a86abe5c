"""Assembly of the leading constant by two routes, and the count prediction.

Route 'singular_series':
    c = (J / sqrt(d)) * (sqrt(2) / zeta(n-d)) * (Re L / 2) * C0
with L the singular series and C0 the Euler product over p = 3 mod 4 of
(1 - 1/p^2)^(1/2).

Route 'tamagawa':
    c = (1 / sqrt(pi)) * (J / sqrt(d)) * prod_p (tau_p / lambda_p).

The two agree as exact limits.  At truncated level the comparison is only
meaningful when both sides carry the same prime content, which is why the
pipeline evaluates the singular series through its local factorization;
the raw q-sum value is reported alongside.  pipeline builds J, both Euler
products and both routes for the constant and compare commands and for
verify.  Both Euler products are assembled here (singular_series_factored,
local_product) from the local factors of expsums and padic.  local_product
reads the density at every p by local_density, and so does the
singular-series route at p = 1 mod 4: the exact limit padic.tau_limit
where f2 is nondegenerate mod p, else the density at level_for(p).  At
p = 3 mod 4 the singular-series route reads
expsums.local_series_odd in shells up to max_shell_modulus(p, n) instead:
4 at p = 3 and n = 4, against level_for(3) = 5.  The shells are sized by
the default budget, so a run's budget admits or refuses them and never
moves the route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import blocks
from .arith import (ArithConstants, DomainError, is_prime, landau_constants,
                    prime_sieve)
from .archimedean import DEFAULT_SAMPLES, McEstimate, real_density_coarea
from .expsums import (TruncatedValue, local_series_odd, local_series_two,
                      max_shell_modulus)
from .forms import Instance
from .padic import soluble_density, tau_limit

IM_TOLERANCE = 1e-6


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


def local_density(inst: Instance, p: int,
                  budget: int = blocks.DEFAULT_BUDGET) -> TruncatedValue:
    """The soluble density at p that both products read; at p = 1 mod 4
    it is tau_f2(p), the singular-series route's factor there.

    At p = 1 mod 4 where padic.tau_limit applies it is that limit, error
    kind 'exact'.  Elsewhere it is padic.soluble_density at level_for(p),
    kind 'heuristic' with no error counted for the truncation at that
    level; its LocalDensity is the one shell.
    """
    limit = tau_limit(inst, p, budget) if p % 4 == 1 else None
    if limit is not None:
        return TruncatedValue(complex(limit), 0.0, "exact")
    dens = soluble_density(inst, p, level_for(p), budget=budget)
    return TruncatedValue(complex(dens.density), 0.0, "heuristic", [dens])


def singular_series_factored(inst: Instance, p_max: int = 13,
                             budget: int = blocks.DEFAULT_BUDGET
                             ) -> TruncatedValue:
    """The singular series assembled as a product of local factors:

      (dyadic factor) * prod_{p<=p_max, p=1 mod 4} tau_f2(p)
                      * prod_{p<=p_max, p=3 mod 4} (odd local factor at p).

    It agrees with the q-sum (expsums.singular_series) as a full sum, and
    it converges shell-wise at every prime, so it is the stable route at
    small n.  Relative errors of the factors add (first order).  The
    dyadic factor is local_series_two, whose shells run to RHO_MAX;
    tau_f2(p) is local_density, the density local_product reads.
    """
    value = 1.0 + 0.0j
    rel_err = 0.0
    parts = {}
    for p in [int(r) for r in prime_sieve(p_max)]:
        if p == 2:
            part = local_series_two(inst, budget=budget)
        elif p % 4 == 1:
            part = local_density(inst, p, budget)
        else:
            part = local_series_odd(inst, p,
                                    m_max=max_shell_modulus(p, inst.n),
                                    budget=budget)
        value *= part.value
        rel_err += part.error_bound / max(abs(part.value), 1e-30)
        parts[str(p)] = part
    return TruncatedValue(
        value=complex(value),
        error_bound=float(abs(value) * rel_err),
        error_kind="heuristic",
        shells=[parts])


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
                    budget: int = blocks.DEFAULT_BUDGET) -> LocalFactor:
    """Weighted local density tau_p and its convergence factor lambda_p.

    tau_p = (1 - p^-(n-d)) / (1 - 1/p) * local_density;
    lambda_p = (1 - 1/p)^(-1/2).
    """
    dens = local_density(inst, p, budget)
    w = (1.0 - p ** (-(inst.n - inst.d))) / (1.0 - 1.0 / p)
    tau_p = w * dens.value.real
    lam = (1.0 - 1.0 / p) ** -0.5
    return LocalFactor(p=p, tau_p=tau_p, lambda_p=lam, ratio=tau_p / lam,
                       error_kind=dens.error_kind)


def local_product(inst: Instance, p_max: int = 13,
                  budget: int = blocks.DEFAULT_BUDGET) -> TruncatedValue:
    """prod_{p <= p_max} tau_p / lambda_p with a heuristic tail estimate.

    The tail fits |log(tau_p/lambda_p)| ~ C/p^2 on the computed primes and
    integrates beyond p_max.  When the actual log-factors decay more slowly
    (small n), the fit underestimates the tail; the per-prime factors are
    returned in shells so the drift is visible.
    """
    factors = []
    value = 1.0
    for p in [int(r) for r in prime_sieve(p_max)]:
        f = tamagawa_factor(inst, p, budget)
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
    kind = "rigorous" if (L.error_kind == "rigorous"
                          and J.std_error == 0.0) else "heuristic"
    return ConstantBreakdown(
        route="singular_series", J=jv, C0=C0.c0, L_phi=L.value,
        local_product=float("nan"), zeta_ndmd=z, d=inst.d, c_phi=c,
        combined_error=abs(c) * rel, epsilon_d=error_exponent(inst.d),
        error_kind=kind, warnings=warnings)


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
        combined_error=abs(c) * rel, epsilon_d=error_exponent(inst.d),
        error_kind="heuristic", warnings=[])


def pipeline(inst: Instance, p_max: int = 13,
             samples: int = DEFAULT_SAMPLES, seed: int = 0,
             budget: int = blocks.DEFAULT_BUDGET) -> tuple:
    """(J, the factored singular series, the route-1 constant, the route-2
    constant): J by real_density_coarea, both Euler products to p_max, and
    route 1 on the factored series, each within budget."""
    if p_max < 2:
        raise DomainError(f"p_max must be at least 2, not {p_max}: the "
                          "Euler products would have no prime")
    J = real_density_coarea(inst, samples, seed, budget)
    l_fact = singular_series_factored(inst, p_max, budget)
    c1 = leading_constant_series(inst, J, l_fact, landau_constants())
    c2 = leading_constant_tamagawa(inst, J, local_product(inst, p_max, budget))
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
