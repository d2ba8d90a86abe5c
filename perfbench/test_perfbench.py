"""Tests of the benchmark's own parts: python -m pytest perfbench"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import dense  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fibrecount import arith, counting, expsums, forms  # noqa: E402
from fibrecount.forms import parse_instance  # noqa: E402

FOUR = os.path.join(os.path.dirname(HERE), "configs", "four_squares.json")


@pytest.fixture
def installed():
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        yield t
    finally:
        uninstall()


def test_wrapper_returns_the_wrapped_result():
    sentinel = object()
    t = tracer.Tracer()
    wrapped = t.wrap(lambda a, b=2: (sentinel, a, b), "arith")
    assert wrapped(1, b=3) == (sentinel, 1, 3)
    assert wrapped(1)[0] is sentinel
    assert len(t.spans) == 2
    t.summary()


def test_installed_wrappers_return_what_the_library_returns(installed):
    inst = forms.load_instance(FOUR)
    plain = parse_instance(inst.config_dict())
    assert arith.factor(360) == arith.factor.__wrapped__(360)
    table = expsums.birch_sum_table(inst, 4)
    assert expsums.birch_sum_table(inst, 4) is table
    cols = [np.arange(-3, 4, dtype=np.int64)] * 4
    assert np.array_equal(plain.f2.evaluate_batch(cols, 3),
                          forms.Form.evaluate_batch.__wrapped__(
                              plain.f2, cols, 3))
    assert expsums.two_squares_sieve is counting.two_squares_sieve
    assert installed.table_calls == 2 and len(installed.table_keys) == 1
    installed.summary()


def test_uninstall_restores_the_library():
    original = counting.projective_count
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    assert counting.projective_count is not original
    uninstall()
    t.summary()
    assert counting.projective_count is original
    assert not hasattr(forms.Form.evaluate_batch, "__wrapped__")


def test_nested_spans_are_charged_to_the_innermost_layer():
    t = tracer.Tracer()

    def inner():
        time.sleep(0.05)

    def same_layer():
        time.sleep(0.02)

    w_inner = t.wrap(inner, "forms")
    w_same = t.wrap(same_layer, "counting")

    def outer():
        time.sleep(0.05)
        w_inner()
        w_same()

    t.wrap(outer, "counting")()
    s = t.summary()
    assert len(t.spans) == 2  # the same-layer call opens no span
    assert s["self_s"]["forms"] == pytest.approx(0.05, abs=0.02)
    assert s["self_s"]["counting"] == pytest.approx(0.07, abs=0.02)
    assert s["covered_s"] == pytest.approx(0.12, abs=0.03)


def test_coverage_leaves_out_time_only_cli_spends():
    t = tracer.Tracer()
    work = t.wrap(lambda: time.sleep(0.05), "forms")

    def main():
        time.sleep(0.05)
        work()

    t.wrap(main, "cli")()
    s = t.summary()
    assert s["self_s"]["cli"] == pytest.approx(0.05, abs=0.02)
    assert s["covered_s"] == pytest.approx(0.05, abs=0.02)


def test_pool_thread_spans_have_the_main_span_as_parent():
    t = tracer.Tracer()
    work = t.wrap(lambda: time.sleep(0.05), "forms")

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: work(), range(2)))

    t.wrap(outer, "counting")()
    root = t.spans[0]
    assert [s.parent for s in t.spans[1:]] == [root, root]
    s = t.summary()
    # the two parallel children overlap, so they cover about 0.05 s of the
    # root while their self times add up to about 0.1 s
    assert s["self_s"]["counting"] < 0.03
    assert s["self_s"]["forms"] == pytest.approx(0.1, abs=0.03)


def test_points_go_to_forms_and_to_the_calling_layer(installed):
    inst = forms.load_instance(FOUR)
    counting.count_soluble_fibre_points(inst, 3, method="slab", threads=2)
    pts = installed.summary()["points"]
    assert pts["counting"] == pts["forms"] >= 7**4
    assert pts["expsums"] == pts["padic"] == 0


def test_point_counts_survive_contending_threads():
    t = tracer.Tracer()

    class Fake:
        def evaluate(self, cols):
            return len(cols[0])

    evaluate = t.wrap(Fake.evaluate, "forms", t._count_points)
    outer = t.wrap(lambda: [evaluate(Fake(), [np.zeros(3)])
                            for _ in range(2000)], "padic")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(outer) for _ in range(8)]
            assert all(len(f.result(timeout=60)) == 2000 for f in futures)
    finally:
        sys.setswitchinterval(old)
    assert t.points["forms"] == t.points["padic"] == 8 * 2000 * 3
    t.summary()


def test_memory_peak_sees_a_freed_allocation():
    def alloc():
        block = np.ones(64 * 2**20 // 8)
        time.sleep(0.02)
        return float(block[0])

    t = tracer.Tracer()
    assert t.wrap(alloc, "padic")() == 1.0
    s = t.summary()
    assert s["peak_mb"]["padic"] > 32


def test_dense_config_is_a_function_of_the_seed():
    assert dense.dense_config(3) == dense.dense_config(3)
    assert dense.dense_config(3) != dense.dense_config(4)


def test_base_f1_is_diagonally_dominant():
    h = dense.F1_HESSIAN
    for i in range(4):
        assert h[i][i] > sum(abs(h[i][j]) for j in range(4) if j != i)


@pytest.mark.parametrize("seed", range(6))
def test_dense_config_has_the_fixed_shape(seed):
    inst = parse_instance(dense.dense_config(seed))
    assert len(inst.f1.monomials) == len(inst.f2.monomials) == 10
    hess1 = np.zeros((4, 4))
    for c, exps in inst.f1.monomials:
        i, j = [k for k in range(4) for _ in range(exps[k])]
        hess1[i, j] += c
        hess1[j, i] += c
    assert np.linalg.eigvalsh(hess1).min() > 0
    assert inst.f2.evaluate(dense.X0) == 0
    grad = [sum(c * exps[j] for c, exps in inst.f2.monomials)
            for j in range(4)]  # the gradient at X0 = (1, 1, 1, 1)
    assert any(grad)


def test_dense_draw_keeps_the_work_the_same():
    insts = [parse_instance(dense.dense_config(seed)) for seed in (0, 1)]
    assert insts[0].f2.monomials != insts[1].f2.monomials
    for q in (8, 9, 7):
        base, other = (expsums.joint_value_distribution(i, q) for i in insts)
        assert np.array_equal(base, other)
    assert insts[0].f1 == insts[1].f1


def test_a_job_past_the_deadline_is_reported_as_timed_out(tmp_path):
    root = os.path.dirname(HERE)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    job = run._launch(["constant", "--config", FOUR, "--p-max", "7"], root,
                      str(tmp_path), env, "slow", [], 0.0)
    assert job.timed_out
    assert len(job.problems) == 1
    assert job.problems[0].startswith("timed out")


def test_without_timing_drops_only_the_timing_column():
    text = ("# manifest abc\nlabel,t,raw_count,normalized,include_zero,"
            "wall_time_s\nx,5,12,0.5,true,1.234\n")
    assert run.without_timing(text) == (
        "# manifest abc\nlabel,t,raw_count,normalized,include_zero\n"
        "x,5,12,0.5,true\n")
    assert workloads.rows(text)[0]["raw_count"] == "12"
