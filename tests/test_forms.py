import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibrecount.forms import (Form, FormError, default_box_max,
                              form_from_records, parse_instance)

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
    assert inst.box_max_m == 2  # coefficient 1-norm default
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
    cfg = dict(DEMO_CFG, frobnicate=1)
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
    batch_mod = f.evaluate_batch_mod(cols, 11)
    for i in range(50):
        assert batch_mod[i] == f.evaluate(pts[i]) % 11
    reduced = [c % 11 for c in cols]
    assert np.array_equal(f.evaluate_batch_mod(reduced, 11, reduced=True),
                          batch_mod)


def test_evaluate_batch_overflow_guard():
    f = Form(1, 2, ((10**10, (2,)),))
    with pytest.raises(FormError, match="int64"):
        f.evaluate_batch([np.array([10**6])], 10**6)


def test_evaluate_batch_mod_negative_coefficients():
    # the unreduced path is proved for |coeff|; it must not multiply the
    # residue coeff mod q, which is near q for a negative coefficient
    f = Form(1, 4, ((-3, (4,)),))
    q = 7**5
    xs = np.array([q - 1, 35, 1000], dtype=np.int64)
    assert f.evaluate_batch_mod([xs], q, reduced=True).tolist() == \
        [f.evaluate([x]) % q for x in xs.tolist()]


def test_evaluate_batch_mod_refuses_wide_moduli():
    f = Form(1, 2, ((1, (2,)),))
    with pytest.raises(FormError, match="int64"):
        f.evaluate_batch_mod([np.array([3])], 2**40)


def test_default_box_max():
    assert default_box_max(Form(2, 2, ((1, (2, 0)), (1, (0, 2))))) == 2
    assert default_box_max(Form(4, 2, ((1, (1, 1, 0, 0)),
                                       (-1, (0, 0, 1, 1))))) == 2
    assert default_box_max(Form(2, 2, ((3, (2, 0)), (-1, (0, 2))))) == 4


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
