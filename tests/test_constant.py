import math

import pytest

from fibrecount import archimedean, arith, blocks, constant, padic
from fibrecount.archimedean import McEstimate
from fibrecount.arith import ArithConstants, DomainError
from fibrecount.expsums import TruncatedValue
from fibrecount.forms import Form, Instance
from oracles import first_order_error, local_product_tail


def _mc(value, se=0.0):
    return McEstimate(value=complex(value), std_error=se, samples=1000, seed=0)


def _tv(value, err=0.0):
    return TruncatedValue(value=complex(value), error_bound=err,
                          error_kind="heuristic")


def _c0(value=1.0):
    return ArithConstants(c0=value, c0_error=0.0,
                          landau_K=1 / (math.sqrt(2) * value))


def test_zeta_direct():
    assert constant.zeta_direct(2) == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert constant.zeta_direct(4) == pytest.approx(math.pi**4 / 90, abs=1e-12)
    with pytest.raises(DomainError):
        constant.zeta_direct(1.0)


def test_error_exponent():
    assert constant.error_exponent(2) == pytest.approx(1 / 640)
    assert constant.error_exponent(4) == pytest.approx(1 / (5 * 3 * 2**9))
    assert constant.error_exponent(6) == pytest.approx(1 / (5 * 5 * 2**11))
    with pytest.raises(DomainError):
        constant.error_exponent(3)


def test_route1_synthetic(four_squares):
    c = constant.leading_constant_series(four_squares, _mc(1.0), _tv(2.0),
                                         _c0(1.0))
    assert c.c_phi == pytest.approx(1 / constant.zeta_direct(2))
    assert c.epsilon_d == pytest.approx(1 / 640)
    assert not c.warnings


def test_route1_imaginary_warning(four_squares):
    c = constant.leading_constant_series(four_squares, _mc(1.0),
                                         _tv(2.0 + 0.5j), _c0(1.0))
    assert c.warnings


def test_route1_refuses_small_ndmd(demo):
    with pytest.raises(DomainError, match="n - d"):
        constant.leading_constant_series(demo, _mc(1.0), _tv(1.0), _c0())


def test_route2_synthetic(four_squares):
    c = constant.leading_constant_tamagawa(
        four_squares, _mc(math.sqrt(math.pi)), _tv(math.sqrt(2)))
    assert c.c_phi == pytest.approx(1.0)
    assert c.c_phi > 0


def test_predicted_count(four_squares):
    c = constant.leading_constant_tamagawa(
        four_squares, _mc(math.sqrt(math.pi)), _tv(math.sqrt(2)))
    assert constant.predicted_count(c, four_squares, math.e) == \
        pytest.approx(math.e**2)
    t = 37.0
    ratio = constant.predicted_count(c, four_squares, 2 * t) \
        / constant.predicted_count(c, four_squares, t)
    expect = 2**2 * math.sqrt(math.log(t) / math.log(2 * t))
    assert ratio == pytest.approx(expect, rel=1e-12)
    with pytest.raises(DomainError):
        constant.predicted_count(c, four_squares, 1.5)


def test_error_propagation_first_order(four_squares):
    c = constant.leading_constant_series(
        four_squares, _mc(2.0, se=0.2), _tv(3.0, err=0.3), _c0(1.0))
    # relative errors add: 0.1 + 0.1 + 0 = 0.2
    assert c.combined_error == pytest.approx(0.2 * c.c_phi)
    assert c.error_kind == "heuristic"


def test_combined_error_is_first_order_in_every_factor(four_squares):
    # each route's combined error is |c| times the sum of its factors'
    # relative errors, C0's share included; zeta(n-d) and 1/sqrt(pi) are
    # exact, and a zero factor adds no error
    J, L, prod = _mc(2.0, se=0.2), _tv(3.0, err=0.6), _tv(1.5, err=0.3)
    C0 = ArithConstants(c0=0.9, c0_error=0.09, landau_K=1 / (0.9 * 2 ** 0.5))
    c1 = constant.leading_constant_series(four_squares, J, L, C0)
    assert c1.c_phi == pytest.approx(
        2.0 / constant.zeta_direct(2) * 1.5 * 0.9)
    assert c1.combined_error == pytest.approx(first_order_error(
        c1.c_phi, [(2.0, 0.2), (3.0, 0.6), (0.9, 0.09)]), rel=1e-12)
    c2 = constant.leading_constant_tamagawa(four_squares, J, prod)
    assert c2.c_phi == pytest.approx(2.0 / math.sqrt(2 * math.pi) * 1.5)
    assert c2.combined_error == pytest.approx(first_order_error(
        c2.c_phi, [(2.0, 0.2), (1.5, 0.3)]), rel=1e-12)
    for c in (constant.leading_constant_series(four_squares, _mc(0.0, 0.2),
                                               _tv(0.0, 0.6), C0),
              constant.leading_constant_tamagawa(four_squares, _mc(0.0, 0.2),
                                                 _tv(0.0, 0.3))):
        assert (c.c_phi, c.combined_error) == (0.0, 0.0)


def test_local_product_tail_is_the_refitted_prime_sum(four_squares, bilinear):
    # the tail refits C to the ratios tau_p / lambda_p, each from the one
    # local_density, and sums C / q^2 over the primes in (p_max, 10 p_max)
    for inst, p_max in ((four_squares, 7), (four_squares, 13), (bilinear, 7)):
        nd = inst.n - inst.d
        ratios = [(p, (1 - p ** -nd) / math.sqrt(1 - 1 / p)
                   * constant.local_density(inst, p).value.real)
                  for p in arith.prime_sieve(p_max).tolist()]
        prod = constant.euler_products(inst, p_max)[1]
        assert prod.value.real == pytest.approx(
            math.prod(r for _, r in ratios), rel=1e-12)
        assert prod.error_bound > 0
        assert prod.error_bound == pytest.approx(
            local_product_tail(ratios, p_max), rel=1e-9)


def test_route_agreement_fields():
    a = constant.ConstantBreakdown(
        route="singular_series", J=1, C0=1, L_phi=2 + 0j, local_product=float("nan"),
        zeta_ndmd=1.6, d=2, c_phi=10.0, combined_error=1.0, epsilon_d=1 / 640)
    b = constant.ConstantBreakdown(
        route="tamagawa", J=1, C0=float("nan"), L_phi=complex(float("nan")),
        local_product=3.0, zeta_ndmd=float("nan"), d=2, c_phi=11.0,
        combined_error=0.5, epsilon_d=1 / 640)
    agree = constant.route_agreement(a, b)
    assert agree["gap"] == pytest.approx(1.0)
    assert agree["relative_gap"] == pytest.approx(1.0 / 10.5)
    assert agree["combined_error"] == pytest.approx(1.5)


def test_csv_roundtrip():
    a = constant.ConstantBreakdown(
        route="tamagawa", J=1, C0=float("nan"), L_phi=complex(float("nan")),
        local_product=3.0, zeta_ndmd=float("nan"), d=2, c_phi=11.0,
        combined_error=0.5, epsilon_d=1 / 640)
    row = a.csv_row()
    assert row.startswith("tamagawa,")
    assert row.count(",") == constant.ConstantBreakdown.csv_header().count(",")


def test_route_gap_shrinks_with_tighter_truncation(four_squares):
    # tightening both truncations one notch narrows the route gap; J (the
    # pipeline's estimator) scales both routes alike
    consts = arith.landau_constants()
    J = archimedean.real_density_coarea(four_squares, samples=10**6, seed=0)
    gaps = []
    for pm in (7, 13):
        lf, pr = constant.euler_products(four_squares, p_max=pm)
        c1 = constant.leading_constant_series(four_squares, J, lf, consts)
        c2 = constant.leading_constant_tamagawa(four_squares, J, pr)
        gaps.append(abs(c1.c_phi - c2.c_phi))
    assert gaps[1] < gaps[0]


def test_both_products_read_constant_levels(four_squares, monkeypatch):
    # the two products carry the same local densities: one pass reads
    # local_density once at each p, the exact limit at p = 1 mod 4 where
    # every nonzero point of f2 = 0 mod p is smooth, else the density at
    # constant.level_for(p), and both products take that one density
    calls, real = [], constant.local_density

    def recording(inst, p, budget):
        calls.append(p)
        return real(inst, p, budget)

    with monkeypatch.context() as mp:
        mp.setattr(constant, "local_density", recording)
        fac, prod = constant.euler_products(four_squares, p_max=17)
    assert calls == [2, 3, 5, 7, 11, 13, 17]
    ratios = prod.shells[0]
    assert list(ratios) == list(fac.shells[0]) == [str(p) for p in calls]
    for p in calls:
        dens = constant.local_density(four_squares, p)
        # tau_p / lambda_p, with lambda_p = (1 - 1/p)^(-1/2)
        assert ratios[str(p)] == pytest.approx(
            (1 - p ** -2) / (1 - 1 / p) * dens.value.real
            * math.sqrt(1 - 1 / p), rel=1e-12)
        if p % 4 == 1:
            assert fac.shells[0][str(p)] == dens
            assert dens == TruncatedValue((p + 1) / p, 0.0, "exact")
        else:
            assert dens.shells[0].level == constant.level_for(p)
            assert dens.error_kind == "heuristic"
    # f2 degenerate mod 5: there both read the level of level_for
    f2 = Form(4, 2, four_squares.f2.monomials[:3] + ((-5, (0, 0, 0, 2)),))
    degenerate = Instance(f1=four_squares.f1, f2=f2, n=4, d=2)
    levels = {2: 3, 3: 2, 5: 2}
    monkeypatch.setattr(constant, "level_for", lambda p: levels.get(p, 1))
    fac, prod = constant.euler_products(degenerate, p_max=5)
    assert fac.shells[0]["5"] == constant.local_density(degenerate, 5)
    assert fac.shells[0]["5"].shells[0].level == 2
    assert list(prod.shells[0].values()) == pytest.approx([
        (1 - p ** -2) / (1 - 1 / p)
        * padic.soluble_density(degenerate, p, N).density
        * math.sqrt(1 - 1 / p) for p, N in levels.items()], rel=1e-12)


def test_series_shells_do_not_follow_the_budget(four_squares, monkeypatch):
    # route 1's shells are constant.SERIES_SHELLS: a default budget of
    # 3e7 or 3e10 moves no factor of either product
    want = constant.euler_products(four_squares, 13)
    for budget in (3 * 10**7, 3 * 10**10):
        monkeypatch.setattr(blocks, "DEFAULT_BUDGET", budget)
        got = constant.euler_products(four_squares, 13)
        for p, part in want[0].shells[0].items():
            assert got[0].shells[0][p] == part, (budget, p)
        assert got == want


def test_factored_series_is_exact_past_the_levels(four_squares):
    # past p = 13 the density was read at level 1 against a previous level
    # of 0, a relative error of 1 a prime: 8.27698 +- 8.94 at p_max 17.
    # The limit (p + 1) / p carries no error
    fac = constant.euler_products(four_squares, p_max=17)[0]
    assert fac.shells[0]["17"].value == 18 / 17
    assert fac.error_bound < 0.1 * abs(fac.value)
