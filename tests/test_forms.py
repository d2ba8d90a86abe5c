import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from fibrecount.blocks import box
from fibrecount.forms import (INT64_SAFE, Form, FormError, form_from_records,
                              parse_instance)
from strategies import instances

DEMO_CFG = {
    "label": "demo",
    "n": 2,
    "d": 2,
    "f1": [{"coeff": 1, "exps": [2, 0]}, {"coeff": 1, "exps": [0, 2]}],
    "f2": [{"coeff": 1, "exps": [2, 0]}, {"coeff": -1, "exps": [0, 2]}],
}


def test_parse_demo():
    inst = parse_instance(json.dumps(DEMO_CFG))
    assert inst.n == 2 and inst.d == 2
    assert inst.label == "demo"


def test_parse_rejects_odd_degree():
    cfg = dict(DEMO_CFG, d=3,
               f1=[{"coeff": 1, "exps": [3, 0]}],
               f2=[{"coeff": 1, "exps": [0, 3]}])
    with pytest.raises(FormError, match="even"):
        parse_instance(cfg)


def test_parse_rejects_inhomogeneous():
    cfg = dict(DEMO_CFG, f1=[{"coeff": 1, "exps": [2, 0]},
                             {"coeff": 1, "exps": [1, 0]}])
    with pytest.raises(FormError, match="homogeneous"):
        parse_instance(cfg)


def test_parse_rejects_unknown_field():
    for field in ("frobnicate", "box_max_m", "birch_condition_asserted"):
        cfg = dict(DEMO_CFG, **{field: 1})
        with pytest.raises(FormError, match="unknown config fields"):
            parse_instance(cfg)


def test_form_rejects_duplicates_and_zero_coeffs():
    with pytest.raises(FormError, match="duplicate"):
        Form(2, 2, ((1, (2, 0)), (2, (2, 0))))
    with pytest.raises(FormError, match="zero coefficient"):
        Form(2, 2, ((0, (2, 0)),))


def test_evaluate_examples():
    f = Form(2, 2, ((1, (2, 0)), (1, (0, 2))))
    assert f.evaluate((3, 4)) == 25
    g = Form(4, 2, ((1, (1, 1, 0, 0)), (-1, (0, 0, 1, 1))))
    assert g.evaluate((2, 3, 1, 6)) == 0


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
       st.integers(-5, 5))
def test_homogeneity(x, lam):
    f = Form(3, 2, ((2, (2, 0, 0)), (-3, (1, 1, 0)), (1, (0, 0, 2))))
    assert f.evaluate([lam * xi for xi in x]) == lam**2 * f.evaluate(x)


def test_evaluate_batch_matches_scalar():
    f = Form(3, 4, ((1, (4, 0, 0)), (-2, (2, 1, 1)), (3, (0, 2, 2))))
    rng = np.random.default_rng(0)
    pts = rng.integers(-6, 7, size=(50, 3))
    cols = [pts[:, j] for j in range(3)]
    batch = f.evaluate_batch(cols, 6)
    for i in range(50):
        assert batch[i] == f.evaluate(pts[i])
    batch_mod = f.evaluate_batch_mod([c % 11 for c in cols], 11)
    for i in range(50):
        assert batch_mod[i] == f.evaluate(pts[i]) % 11


def test_evaluate_batch_overflow_guard():
    f = Form(1, 2, ((10**10, (2,)),))
    with pytest.raises(FormError, match="int64"):
        f.evaluate_batch([np.array([10**6])], 10**6)
    # the refusal comes before the 10^8-point output is allocated
    g = Form(2, 2, ((3, (1, 1)),))
    cols = [np.arange(10**4)[:, None], np.arange(10**4)[None, :]]
    tracemalloc.start()
    try:
        with pytest.raises(FormError, match="int64"):
            g.evaluate_batch(cols, 2**31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def _same(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _last_fast_modulus(f):
    """The largest q with coeff_norm * (q-1)^degree < INT64_SAFE, the last
    modulus evaluate_batch_mod reduces only once."""
    norm = f.coeff_norm()
    r = int(((INT64_SAFE - 1) // norm) ** (1 / f.degree))
    while norm * (r + 1) ** f.degree < INT64_SAFE:
        r += 1
    while norm * r ** f.degree >= INT64_SAFE:
        r -= 1
    return r + 1


@given(instances(), st.integers(1, 3), st.integers(1, 60),
       st.integers(0, 2**32 - 1), st.lists(st.sampled_from(
           [(), (6, 1), (1, 5), (6, 5)]), min_size=4, max_size=4),
       st.integers(1, 50))
def test_evaluate_batch_is_the_reference_loop(inst, P, limit, seed, shapes,
                                              q):
    # the in-place evaluator against the plain loop, byte for byte: int64
    # box chunks, whose columns broadcast, and float columns of every
    # broadcast shape, with signed zeros that zero the first monomial.
    # evaluate_batch_mod against Form.evaluate(x) % q on both of its paths:
    # reduced once up to the last fast modulus, at every step past it
    rng = np.random.default_rng(seed)
    for f in (inst.f1, inst.f2):
        fast = _last_fast_modulus(f)
        wide = fast ** 2 >= INT64_SAFE  # fast + 1 is refused
        for cols in box(np.arange(-P, P + 1, dtype=np.int64), f.n_vars,
                        limit=limit):
            got = f.evaluate_batch(cols, P)
            assert _same(got, oracles.evaluate_batch(f, cols, P))
            grid = np.broadcast_arrays(*cols)
            exact = [f.evaluate(x) for x in zip(*(g.ravel().tolist()
                                                  for g in grid))]
            assert got.ravel().tolist() == exact
            for m in (q, fast) + (() if wide else (fast + 1,)):
                assert f.evaluate_batch_mod([c % m for c in cols],
                                            m).ravel().tolist() == \
                    [v % m for v in exact]
        for m in (q, fast, fast + 1):
            res = [rng.integers(0, m, 7) for _ in range(f.n_vars)]
            if m > fast and wide:
                with pytest.raises(FormError, match="int64"):
                    f.evaluate_batch_mod(res, m)
                continue
            assert f.evaluate_batch_mod(res, m).tolist() == \
                [f.evaluate(x) % m for x in zip(*(r.tolist() for r in res))]
        cols = [rng.uniform(-1.0, 1.0, shape) for shape in shapes[:f.n_vars]]
        first = f.monomials[0][1].index(next(e for e in f.monomials[0][1]
                                             if e))
        zeros = rng.choice([0.0, -0.0], size=shapes[first])
        cols[first] = np.where(rng.random(shapes[first]) < 0.5, zeros,
                               cols[first])
        for c in cols:  # some points are zero in every coordinate
            c.flat[:1] = rng.choice([0.0, -0.0])
        assert _same(f.evaluate_batch(cols, 1),
                     oracles.evaluate_batch(f, cols, 1))


def test_evaluate_batch_mod_negative_coefficients():
    # the unreduced path is proved for |coeff|; it must not multiply the
    # residue coeff mod q, which is near q for a negative coefficient
    f = Form(1, 4, ((-3, (4,)),))
    q = 7**5
    xs = np.array([q - 1, 35, 1000], dtype=np.int64)
    assert f.evaluate_batch_mod([xs], q).tolist() == \
        [f.evaluate([x]) % q for x in xs.tolist()]


def test_evaluate_batch_mod_refuses_wide_moduli():
    f = Form(1, 2, ((1, (2,)),))
    with pytest.raises(FormError, match="int64"):
        f.evaluate_batch_mod([np.array([3])], 2**40)
    # the refusal comes before the 10^8-point output is allocated
    g = Form(2, 2, ((3, (1, 1)),))
    cols = [np.arange(10**4)[:, None], np.arange(10**4)[None, :]]
    tracemalloc.start()
    try:
        with pytest.raises(FormError, match="int64"):
            g.evaluate_batch_mod(cols, 2**40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def test_lambda0(four_squares, demo):
    # (n - sigma)/(2^d (d-1)) = 2/4 here, so the exponent is negative
    assert four_squares.lambda0() == pytest.approx(0.5 * min(1.0, 0.5 * (0.5 - 3.0)))
    assert demo.lambda0() is None


def test_config_roundtrip(four_squares):
    again = parse_instance(four_squares.config_dict())
    assert again == four_squares
    assert again.config_hash() == four_squares.config_hash()


def test_form_from_records_validation():
    with pytest.raises(FormError, match="coeff"):
        form_from_records([{"coeff": 1.5, "exps": [2, 0]}], 2)
    with pytest.raises(FormError, match="exactly the fields"):
        form_from_records([{"coeff": 1, "exps": [2, 0], "extra": 0}], 2)
