"""Verification suites: every check the library promises, in one place.

Each check returns a CheckResult; the CLI prints one line per check and
exits nonzero if any gating check fails.  The pytest acceptance module
drives the same functions.  Every suite takes (budget, seed, threads)
and passes the budget, and the threads where a pool runs, to every call
that takes them, so a budget too small for a check refuses it.
birch-identities checks the Birch tables that birch_sum_table serves to
every output (block products and stationary phase) for CRT
multiplicativity, and for orthogonality against padic's stationary-phase
count of f2 = 0 mod q.

Two checks are expected to fail at desk scale and are marked in their
notes; they assert exactly what they claim to measure and report the
honest numbers (see the repository README for the analysis):

* landau-normalized: the plainly-normalized two-squares count at 1e7 sits
  4.3% above the limit constant (the classical secondary term is ~0.58 /
  log x, i.e. 3.6% at 1e7), outside the stated 2% window.  The
  integral-smoothed comparison, reported in the note, is within 1%.

* series-factorization: at n = 4 the q-sum of the singular series has
  non-decaying terms (the decay exponent lambda0 is negative), so its
  Q = 16 truncation sits far below the local-factor product.  The factors
  at p = 2 and p = 3 mod 4 are built from the q-terms themselves
  (expsums.local_series), and series-shell-diagnostic checks the q-term at
  p = 5 against padic's density.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import archimedean, arith, blocks, constant, counting, expsums, padic
from .forms import Form, Instance


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str
    expected: str
    runtime_s: float
    gating: bool = True
    note: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        if not self.gating:
            tag += "*"
        out = f"[{tag}] {self.name}: {self.measured} (expected {self.expected})"
        if self.note:
            out += f" -- {self.note}"
        return out


def _check(name, fn, expected, gating=True):
    t0 = time.monotonic()
    passed, measured, note = fn()
    return CheckResult(name=name, passed=passed, measured=measured,
                       expected=expected, runtime_s=time.monotonic() - t0,
                       gating=gating, note=note)


# ---------------------------------------------------------------------------
# canonical instances
# ---------------------------------------------------------------------------

def _sq(i, n):
    e = [0] * n
    e[i] = 2
    return e


def demo_instance() -> Instance:
    f1 = Form(2, 2, ((1, (2, 0)), (1, (0, 2))))
    f2 = Form(2, 2, ((1, (2, 0)), (-1, (0, 2))))
    return Instance(f1=f1, f2=f2, n=2, d=2, label="demo-pair")


def four_squares_instance() -> Instance:
    f1 = Form(4, 2, tuple((1, tuple(_sq(i, 4))) for i in range(4)))
    f2 = Form(4, 2, tuple(((1 if i < 2 else -1), tuple(_sq(i, 4)))
                          for i in range(4)))
    return Instance(f1=f1, f2=f2, n=4, d=2,
                    label="four-squares", sigma_bound=2)


def bilinear_instance() -> Instance:
    f1 = Form(4, 2, tuple((1, tuple(_sq(i, 4))) for i in range(4)))
    f2 = Form(4, 2, ((1, (1, 1, 0, 0)), (-1, (0, 0, 1, 1))))
    return Instance(f1=f1, f2=f2, n=4, d=2, label="bilinear")


# ---------------------------------------------------------------------------
# arith suite
# ---------------------------------------------------------------------------

def _ramanujan_check():
    worst = 0.0
    for q in range(1, 201):
        xs = np.arange(q)
        mask = (np.gcd(xs, q) == 1).astype(np.float64)
        direct = np.conj(np.fft.fft(mask))  # entry a: sum over units of e(ax/q)
        for a in range(q):
            exact = arith.ramanujan_sum(q, a)
            gap = abs(direct[a] - exact)
            worst = max(worst, gap)
            if gap > 1e-9 * max(q, 1):
                return False, f"q={q} a={a}: |direct-formula|={gap:.3g}", ""
    return True, f"max |direct-formula| = {worst:.3g} over q<=200", ""


def _global_local_check():
    bad = 0
    sample_note = ""
    table = arith.factor_table(10**5)
    for m in range(1, 10**5 + 1):
        for s in (m, -m):
            fz = arith.Factorization(value=s, factors=table[m],
                                     sign=1 if s > 0 else -1)
            glob = arith.conic_soluble_global(s, fz)
            loc = arith.conic_soluble_local(s, math.inf) \
                * arith.conic_soluble_local(s, 2)
            for p, _e in fz.factors:
                if p % 4 == 3:
                    loc *= arith.conic_soluble_local(s, p)
            if glob != loc:
                bad += 1
                if bad == 1:
                    sample_note = f"first mismatch at m={s}"
    # places not dividing m are trivially soluble: spot-check
    for m in (7, -45, 123456):
        for p in (3, 7, 11, 19):
            if m % p != 0 and arith.conic_soluble_local(m, p) != 1:
                return False, f"non-dividing place p={p} not trivial at m={m}", ""
    return bad == 0, f"{bad} mismatches over 0<|m|<=1e5", sample_note


def suite_arith(budget=blocks.DEFAULT_BUDGET, seed=0, threads=1):
    return [
        _check("ramanujan-exactness", _ramanujan_check,
               "formula = direct unit sum, exact integers, q <= 200"),
        _check("global-local", _global_local_check,
               "global indicator = product of local ones, 0 < |m| <= 1e5"),
    ]


# ---------------------------------------------------------------------------
# sieve suite
# ---------------------------------------------------------------------------

def _landau_normalized_check():
    x = 10**7
    consts = arith.landau_constants()
    cnt = counting.two_squares_count(x)
    norm = cnt * math.sqrt(math.log(x)) / x
    rel = abs(norm - consts.landau_K) / consts.landau_K
    # integral-smoothed comparison (secondary term absorbed), for the note
    ts = np.linspace(2.0, float(x), 2_000_001)
    integral = float(np.trapezoid(1.0 / np.sqrt(np.log(ts)), ts))
    rel_smoothed = abs(cnt - consts.landau_K * integral) / (consts.landau_K * integral)
    note = (f"known failure at desk scale: secondary term ~0.58/log x = "
            f"{0.58 / math.log(x):.3f}; integral-smoothed gap = "
            f"{rel_smoothed:.4f} (within 1%)")
    return rel <= 0.02, f"normalized count {norm:.5f} vs {consts.landau_K:.5f}, " \
                        f"rel gap {rel:.4f}", note


def _landau_oracle_check():
    # the sieve marks sums of two squares; the oracle factors each m
    x = 10**4
    sieve = arith.two_squares_sieve(x)
    same = all(bool(sieve[m]) == bool(arith.conic_soluble_global(m))
               for m in range(1, x + 1))
    return same, f"sieve == conic_soluble_global for all m <= {x}: " \
                 f"{same}", ""


def _mertens_check():
    D = 10**6
    consts = arith.landau_constants()
    prod = arith.mertens_3mod4(D)
    main = arith.mertens_3mod4_main_term(D, consts)
    rel = abs(prod - main) / main
    return rel <= 0.01, f"product {prod:.6f} vs main term {main:.6f}, " \
                        f"rel gap {rel:.2e}", ""


def _progression_check():
    z = 10**6
    consts = arith.landau_constants()
    worst = 0.0
    details = []
    for (Q, a) in ((4, 1), (12, 1), (8, 5)):
        cnt = counting.progression_count(z, a, Q)
        _dot, ddot = arith.residue_class_parts(Q)
        main = (math.sqrt(2) * consts.c0 * (ddot / arith.euler_phi(ddot))
                * z / (Q * math.sqrt(math.log(z))))
        rel = abs(cnt - main) / main
        worst = max(worst, rel)
        details.append(f"(Q={Q},a={a}): {rel:.4f}")
    hand = counting.progression_count(100, 1, 4)
    ok = worst <= 0.15 and hand == 15
    return ok, f"max rel gap {worst:.4f}; count(z=100,1 mod 4) = {hand}", \
        "; ".join(details)


def _mobius_check(budget, threads):
    worst = 0
    for inst in (demo_instance(), bilinear_instance()):
        for t in (1, 2, 3, 5, 8, 13, 20):
            r = counting.mobius_residual(inst, t, budget, threads)
            worst = max(worst, abs(r))
            if r != 0:
                return False, f"residual {r} at t={t} ({inst.label})", ""
    return True, "residual 0 for both instances, t <= 20", ""


def suite_sieve(budget=blocks.DEFAULT_BUDGET, seed=0, threads=1):
    return [
        _check("landau-normalized", _landau_normalized_check,
               "count * sqrt(log 1e7)/1e7 within 2% of 1/(sqrt2 C0)"),
        _check("landau-sieve-vs-pairs", _landau_oracle_check,
               "exact match with conic_soluble_global for all m <= 1e4"),
        _check("mertens-product", _mertens_check,
               "relative error < 1% at D = 1e6"),
        _check("sieve-progressions", _progression_check,
               "within 15% of the main term at z = 1e6"),
        _check("mobius-identity", lambda: _mobius_check(budget, threads),
               "residual identically 0 at t <= 20"),
    ]


# ---------------------------------------------------------------------------
# expsums suite
# ---------------------------------------------------------------------------

def _arc_consistency_check():
    consts = arith.landau_constants()
    worst_rel, worst_abs = 0.0, 0.0
    for q in (1, 2, 3, 4, 8, 12):
        emp_row, pred_row = expsums.empirical_twisted_row(10**7, q)
        for a1, (emp, pred) in enumerate(zip(emp_row, pred_row)):
            gap = abs(emp - pred)
            if abs(pred) > 1e-12:
                rel = gap / abs(pred)
                if gap > 0.02 and rel > 0.10:
                    return False, f"q={q} a1={a1}: gap {gap:.4f} " \
                                  f"(rel {rel:.3f})", ""
                if gap <= 0.02:
                    worst_abs = max(worst_abs, gap)
                else:
                    worst_rel = max(worst_rel, rel)
            elif gap > 0.02:
                return False, f"q={q} a1={a1}: gap {gap:.4f} at zero " \
                              "prediction", ""
            else:
                worst_abs = max(worst_abs, gap)
    anchor, tail = expsums.arc_factor_row(1)
    anchor_gap = abs(anchor[0].real - 1.0 / (2 * consts.c0 ** 2))
    if anchor_gap > tail:
        return False, f"anchor gap {anchor_gap:.2e} > tail {tail:.2e}", ""
    return True, (f"worst rel {worst_rel:.4f}, worst abs {worst_abs:.4f}; "
                  f"anchor gap {anchor_gap:.2e} <= tail {tail:.2e}"), ""


def _birch_identity_check(budget):
    insts = (four_squares_instance(), bilinear_instance())
    worst_crt = 0.0
    for inst in insts:
        for q in range(2, 61):
            fs = arith.factor(q).factors
            if len(fs) < 2:
                continue
            S = expsums.birch_sum_table(inst, q, budget)
            q1 = fs[0][0] ** fs[0][1]
            q2 = q // q1
            A = pow(q2, -1, q1)
            B = pow(q1, -1, q2)
            S1 = expsums.birch_sum_table(inst, q1, budget)
            S2 = expsums.birch_sum_table(inst, q2, budget)
            aa = np.arange(q)
            crt = S1[np.ix_((aa * A) % q1, (aa * A) % q1)] \
                * S2[np.ix_((aa * B) % q2, (aa * B) % q2)]
            gap = float(np.abs(S - crt).max()) / q ** inst.n
            worst_crt = max(worst_crt, gap)
            if gap > 1e-9:
                return False, f"CRT gap {gap:.2e} at q={q} ({inst.label})", ""
    worst_orth = 0.0
    for inst in insts:
        for q in range(1, 31):
            S = expsums.birch_sum_table(inst, q, budget)
            lhs = complex(S[0, :].sum())
            # #{x mod q : f2 = 0} counted independently of S: by padic's
            # stationary phase at each prime power of q, joined by the CRT
            rhs = q * math.prod(
                padic.hypersurface_density(inst, p, e, budget).raw_count
                for p, e in arith.factor(q).factors)
            gap = abs(lhs - rhs) / q ** inst.n
            worst_orth = max(worst_orth, gap)
            if gap > 1e-9:
                return False, f"orthogonality gap {gap:.2e} at q={q} " \
                              f"({inst.label})", ""
    return True, (f"CRT gap <= {worst_crt:.2e}, orthogonality gap <= "
                  f"{worst_orth:.2e} (relative to q^n)"), ""


def suite_expsums(budget=blocks.DEFAULT_BUDGET, seed=0, threads=1):
    return [
        _check("arc-consistency", _arc_consistency_check,
               "empirical twisted sums within max(10% rel, 0.02 abs) of "
               "sqrt(2) C0 F(a1,q) x/sqrt(log x) at x = 1e7; exact anchor"),
        _check("birch-identities", lambda: _birch_identity_check(budget),
               "CRT multiplicativity (q <= 60) and orthogonality (q <= 30), "
               "both to 1e-9 relative"),
    ]


# ---------------------------------------------------------------------------
# padic suite
# ---------------------------------------------------------------------------

def suite_padic(budget=blocks.DEFAULT_BUDGET, seed=0, threads=1):
    inst = four_squares_instance()
    dens = {}  # p -> the soluble density that local-bracket-gaps reads

    def bridge_3():
        e3 = expsums.local_series(inst, 3, 3, budget)
        l3 = dens[3] = padic.soluble_density(inst, 3, 5, budget=budget)
        lhs = e3.value.real * (1 - 1.0 / 3)
        rel3 = abs(lhs - l3.density) / l3.density
        return rel3 <= 0.05, (f"series*(1-1/3) = {lhs:.5f} vs density "
                              f"{l3.density:.5f}, rel gap {rel3:.4f}"), ""

    def bridge_2():
        e2 = expsums.local_series(inst, 2, 6, budget)
        l2 = dens[2] = padic.soluble_density(inst, 2, 6, budget=budget)
        rel2 = abs(e2.value.real - l2.density) / l2.density
        return rel2 <= 0.05, (f"series = {e2.value.real:.5f} vs density "
                              f"{l2.density:.5f}, rel gap {rel2:.4f}"), ""

    def bracket_gaps():
        gap3, gap2 = ((dens[p].density_high - dens[p].density_low)
                      / dens[p].density_high for p in (3, 2))
        return gap3 <= 0.05 and gap2 <= 0.05, \
            f"bracket gaps: p=3 {gap3:.2e}, p=2 {gap2:.2e}", ""

    return [
        _check("local-bridge-3", bridge_3, "within 5% at level N = 5"),
        _check("local-bridge-2", bridge_2, "within 5% at level N = 6"),
        _check("local-bracket-gaps", bracket_gaps,
               "soluble/insoluble bracket < 5% at the stated levels"),
    ]


# ---------------------------------------------------------------------------
# archimedean suite
# ---------------------------------------------------------------------------

def suite_archimedean(budget=blocks.DEFAULT_BUDGET, seed=0, threads=1):
    inst = four_squares_instance()
    solves = archimedean.DEFAULT_SAMPLES  # as the constant pipeline reads J
    shared = {}  # the coarea J of real-density-dual, for mc-determinism

    def dual():
        j_shell = archimedean.real_density(inst, 10**6, seed, threads, budget)
        j_fiber = archimedean.real_density_coarea(inst, solves, seed, budget)
        shared["J"] = j_fiber
        gap = abs(j_shell.value.real - j_fiber.value.real)
        sigma = math.hypot(j_shell.std_error, j_fiber.std_error)
        return gap <= 2 * sigma, (
            f"shell {j_shell.value.real:.4f}+-{j_shell.std_error:.4f} "
            f"vs fibre {j_fiber.value.real:.4f}+-{j_fiber.std_error:.4f}"
            f", gap {gap:.4f}"), ""

    def determinism():
        again = archimedean.real_density_coarea(inst, solves, seed, budget)
        same = (repr(shared["J"].value), repr(shared["J"].std_error)) == \
            (repr(again.value), repr(again.std_error))
        return same, f"identical value and error: {same}", ""

    return [
        _check("real-density-dual", dual,
               "agreement within 2 combined sigma, shell at 1e6 samples, "
               f"coarea at {solves} chart solves"),
        _check("mc-determinism", determinism,
               f"same seed -> identical coarea J and error at {solves} "
               "chart solves, to the bit"),
    ]


# ---------------------------------------------------------------------------
# constant suite
# ---------------------------------------------------------------------------

def suite_constant(budget=blocks.DEFAULT_BUDGET, seed=0, threads=1):
    """Checks of constant.pipeline at its defaults: p <= 13 and J from
    archimedean.DEFAULT_SAMPLES chart solves."""
    inst = four_squares_instance()
    shared = {}  # the pipeline's outputs and the q-sum, for the later checks

    def factorization():
        J, l_fact, c1, c2 = constant.pipeline(inst, seed=seed, budget=budget)
        l_qsum = expsums.singular_series(inst, Q=16, budget=budget)
        shared.update(J=J, c1=c1, c2=c2, l_qsum=l_qsum)
        gap = abs(l_qsum.value.real - l_fact.value.real) \
            / abs(l_fact.value.real)
        return gap <= 0.15, (f"q-sum(Q=16) {l_qsum.value.real:.4f} vs "
                             f"factored {l_fact.value.real:.4f}, rel gap "
                             f"{gap:.3f}"), \
            ("known failure: the q-sum terms do not decay at n = 4 "
             "(lambda0 < 0), so the Q = 16 truncation sits far below the "
             "local product; see series-shell-diagnostic for the "
             "structural identity")

    def shell_diagnostic():
        # the q-term t(5) of the q-sum, over t(1), is the first shell of the
        # factor at 5: padic's level-1 density increment
        terms = shared["l_qsum"].shells
        dens = padic.hypersurface_density(inst, 5, 1, budget=budget)
        gap = abs(terms[4].real / terms[0].real - (dens.density - 1.0))
        return gap <= 5e-3, f"max shell mismatch {gap:.2e}", ""

    def agreement():
        c1, c2 = shared["c1"], shared["c2"]
        c1q = constant.leading_constant_series(inst, shared["J"],
                                               shared["l_qsum"],
                                               arith.landau_constants())
        agree = constant.route_agreement(c1, c2)
        return agree["relative_gap"] <= 0.10, (
            f"series route {c1.c_phi:.4f} vs local route {c2.c_phi:.4f}"
            f", rel gap {agree['relative_gap']:.4f}"), \
            (f"series route with the raw Q=16 q-sum gives {c1q.c_phi:.4f}; "
             "the q-sum truncation is non-convergent at n = 4 and is "
             "reported, not used")

    def positive():
        c1, c2 = shared["c1"], shared["c2"]
        return c1.c_phi > 0 and c2.c_phi > 0, \
            f"route values {c1.c_phi:.4f}, {c2.c_phi:.4f}", ""

    def smoke():
        rows = []
        for t in (100, 200):
            rec = counting.projective_count(inst, t, budget=budget,
                                            threads=threads, method="moebius")
            pred = constant.predicted_count(shared["c2"], inst, t)
            rows.append(f"t={t}: measured {rec.raw_count}, normalized "
                        f"{rec.normalized:.4f}, predicted {pred:.0f}, ratio "
                        f"{rec.raw_count / pred:.3f}")
        return True, "; ".join(rows), \
            ("the dimension condition behind the asymptotic needs n > 12; "
             "at n = 4 the ratio is indicative only")

    return [
        _check("series-factorization", factorization,
               "agreement within 15% at the stated truncations"),
        _check("series-shell-diagnostic", shell_diagnostic,
               "q-term ratio t(5)/t(1) within 5e-3 of padic's level-1 "
               "density increment at p = 5"),
        _check("route-agreement", agreement,
               "within 10% with matched local densities (p <= 13)"),
        _check("constant-positive", positive, "strictly positive"),
        _check("smoke-normalized-counts", smoke,
               "reported only (never gating)", gating=False),
    ]


_SUITES = {"arith": suite_arith, "sieve": suite_sieve,
           "expsums": suite_expsums, "padic": suite_padic,
           "archimedean": suite_archimedean, "constant": suite_constant}
SUITES = tuple(_SUITES)


def run_suites(names, budget=blocks.DEFAULT_BUDGET, seed=0, threads=1):
    """Run the named suites ('all' for everything); returns CheckResults.

    `threads` is the pool of the shell estimator and the slab scan; the
    coarea J runs on the calling thread.  No check's result depends on it."""
    if isinstance(names, str):
        names = [names]
    todo = list(SUITES) if "all" in names else names
    out = []
    for name in todo:
        if name not in _SUITES:
            raise arith.DomainError(
                f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
        out.extend(_SUITES[name](budget=budget, seed=seed, threads=threads))
    return out
