import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
import types

import pytest

from fibrecount import (__version__, archimedean, blocks, constant, counting,
                        verify)
from fibrecount.cli import build_parser, main
from fibrecount.forms import load_instance

DEMO = os.path.join(os.path.dirname(__file__), "..", "configs",
                    "demo_pair.json")
FOUR = os.path.join(os.path.dirname(__file__), "..", "configs",
                    "four_squares.json")
BILINEAR = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "bilinear.json")


def test_shipped_configs_are_the_verify_instances():
    # the CLI reads the configs; verify and the tests build the instances,
    # and the hashes are pinned to the values that hashlib gave
    for name, build, digest in (
            ("four_squares", verify.four_squares_instance, "32d23ab6603ad946"),
            ("bilinear", verify.bilinear_instance, "c67e067c25c320dd"),
            ("demo_pair", verify.demo_instance, "2e797adae243e2a2")):
        inst = load_instance(os.path.join(os.path.dirname(DEMO),
                                          f"{name}.json"))
        assert inst == build()
        assert inst.config_hash() == build().config_hash() == digest


def test_count_and_cache_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["count", "--config", DEMO, "--t", "2,5,9"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().strip().splitlines()
    assert rows[0].startswith("# manifest ")
    assert rows[1] == "label,t,raw_count,normalized,include_zero"
    assert len(rows) == 5
    man = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert man["command"] == "count"
    assert man["instance_label"] == "demo-pair"
    assert man["versions"]["config_hash"]
    assert man["outputs"] == [str(out1)]


@pytest.mark.parametrize("command", [["count", "--t", "2,5,9"],
                                     ["theta", "--P", "2,5"]])
def test_uncached_reruns_are_byte_identical(tmp_path, monkeypatch, command):
    # a clock on which no two intervals are equal: any timing written into
    # the rows would differ between the runs
    ticks = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: next(ticks) ** 2 / 7)
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert main(command + ["--config", DEMO, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_theta_include_zero_toggles(tmp_path):
    cfg = tmp_path / "zf.json"
    cfg.write_text(json.dumps({
        "label": "zero-fibres",
        "n": 2,
        "d": 2,
        "f1": [{"coeff": 1, "exps": [1, 1]}],
        "f2": [{"coeff": 1, "exps": [2, 0]}],
    }))
    out_a = tmp_path / "no_zero.csv"
    out_b = tmp_path / "with_zero.csv"
    assert main(["theta", "--config", str(cfg), "--P", "3",
                 "--out", str(out_a)]) == 0
    assert main(["theta", "--config", str(cfg), "--P", "3", "--include-zero",
                 "--out", str(out_b)]) == 0
    count_a = int(out_a.read_text().splitlines()[2].split(",")[2])
    count_b = int(out_b.read_text().splitlines()[2].split(",")[2])
    # f2 = 0 forces t0 = 0 and then f1 = 0: nothing counts without the
    # flag, the six points (0, +-k) count with it
    assert count_a == 0
    assert count_b == 6


def test_expsum_birch(tmp_path, capsys):
    assert main(["expsum", "--config", FOUR, "--birch", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "q,a1,a2,S_re,S_im"
    assert len(lines) == 2 + 8  # primitive pairs mod 3


def test_local_density_cmd(capsys):
    assert main(["local-density", "--config", FOUR, "--p", "3", "--N", "2",
                 "--kind", "tau"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "p,kind,level,raw_count,density,stabilized," \
                       "undecided_fraction"
    assert lines[2].startswith("3,tau_f2,2,945,")


def test_singular_integral_determinism(tmp_path):
    out1 = tmp_path / "j1.csv"
    out2 = tmp_path / "j2.csv"
    base = ["singular-integral", "--config", FOUR, "--samples", "20000",
            "--seed", "5"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the CLI writes real_density's own rows, which test_golden_mc_values
    # pins for the same instance, samples and seed, then the coarea J
    est = archimedean.real_density(load_instance(FOUR), samples=20000, seed=5)
    fib = archimedean.real_density_coarea(load_instance(FOUR), samples=20000,
                                          seed=5)
    assert out1.read_text().splitlines()[1:] == \
        ["epsilon,volume_estimate,std_error,samples,seed"] + est.csv_rows() \
        + [f"# fibre estimator: {fib.value.real:.12g} "
           f"+- {fib.std_error:.12g}"]


def test_budget_refusal_exit_code(capsys):
    code = main(["count", "--config", FOUR, "--t", "40", "--method", "direct",
                 "--budget", "1000"])
    assert code == 2
    assert "budget refused" in capsys.readouterr().err
    # the fibre density at p = 139 refuses at its level-1 scan of 139^4
    # classes
    code = main(["local-density", "--config", FOUR, "--kind", "ell",
                 "--p", "139", "--N", "1"])
    assert code == 2
    assert "budget refused" in capsys.readouterr().err
    # a budget of 0 refuses too; it does not fall back to the default, and
    # every suite with a budgeted check passes it on
    for suite in ("sieve", "expsums", "padic", "constant"):
        assert main(["verify", suite, "--budget", "0"]) == 2
        assert "budget refused" in capsys.readouterr().err


def test_no_output_depends_on_the_budget(tmp_path, capsys, cone):
    # the budget admits or refuses a run and never changes what it prints:
    # route 1's shells are sized by the default budget, and a refinement
    # of the fibre density past its level refuses as every level does
    base = ["constant", "--config", FOUR, "--p-max", "7"]
    assert main(base) == 0
    default = capsys.readouterr().out
    assert main(base + ["--budget", "10000000"]) == 0
    assert capsys.readouterr().out == default
    cfg = tmp_path / "cone.json"
    cfg.write_text(json.dumps(cone.config_dict()))
    assert main(["local-density", "--config", str(cfg), "--p", "3", "--N",
                 "1", "--kind", "ell", "--budget", "50"]) == 2
    assert "budget refused" in capsys.readouterr().err


def test_constant_small(tmp_path, capsys):
    code = main(["constant", "--config", FOUR, "--route", "both",
                 "--Q", "3", "--p-max", "2", "--samples", "20000"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "# manifest 769e9e1cd62b3127"
    assert lines[1].startswith("route,")
    assert any(l.startswith("singular_series,") for l in lines)
    assert any(l.startswith("tamagawa,") for l in lines)
    assert any(l.startswith("# route agreement") for l in lines)
    assert any(l.startswith("# singular series") for l in lines)


def test_compare_small(capsys):
    code = main(["compare", "--config", FOUR, "--t", "5,8",
                 "--p-max", "2", "--samples", "20000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "t,measured,normalized,predicted_route1,predicted_route2,ratio2" \
        in out
    assert "caveat" in out


def test_expsum_empirical(capsys):
    # at a1 = 0 the twisted sum is the two-squares count up to --x
    x = 10**4
    assert main(["expsum", "--config", FOUR, "--empirical", "4",
                 "--x", str(x)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "q,a1,emp_re,emp_im,pred_re,pred_im"
    assert len(lines) == 2 + 4
    assert float(lines[2].split(",")[2]) == pytest.approx(
        counting.two_squares_count(x) * math.sqrt(math.log(x)) / x,
        rel=1e-11)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


@pytest.mark.parametrize("argv,message", [
    (["count", "--config", os.path.join(os.path.dirname(FOUR), "none.json"),
      "--t", "5"], "cannot read config"),
    (["count", "--config", os.path.dirname(FOUR), "--t", "5"],
     "cannot read config"),
    (["count", "--config", FOUR, "--t", "5,x"], "not a comma-separated list"),
    (["compare", "--config", FOUR, "--t", "x"], "not a comma-separated list"),
    (["theta", "--config", FOUR, "--P", "2.5"], "not a comma-separated list"),
    (["local-density", "--config", FOUR, "--p", "3,y", "--N", "2"],
     "not a comma-separated list"),
    (["expsum", "--config", FOUR, "--birch", "-2"], "--birch: must be at"),
    (["expsum", "--config", FOUR, "--birch", "0"], "--birch: must be at"),
    (["expsum", "--config", FOUR, "--arc", "-1"], "--arc: must be at"),
    (["expsum", "--config", FOUR, "--empirical", "3", "--x", "0"],
     "x must be at least 2"),
    (["singular-integral", "--config", FOUR, "--samples", "0"],
     "at least 1000 samples"),
    (["count", "--config", FOUR, "--t", ","], "not a comma-separated list"),
    (["theta", "--config", FOUR, "--P", ","], "not a comma-separated list"),
    (["constant", "--config", FOUR, "--p-max", "-3", "--samples", "2000"],
     "p_max must be at least 2"),
    (["constant", "--config", FOUR, "--Q", "0"], "--Q: must be at least 1"),
    (["compare", "--config", FOUR, "--t", "5", "--p-max", "1"],
     "p_max must be at least 2"),
    (["compare", "--config", FOUR, "--t", "5,1"],
     "every height must be at least 2, not 1"),
    (["expsum", "--config", FOUR, "--birch", "2", "--arc", "3"],
     "--arc: not allowed with argument --birch"),
    (["expsum", "--config", FOUR],
     "one of the arguments --birch --arc --empirical is required"),
    (["expsum", "--config", FOUR, "--empirical", "4", "--x", "200000001"],
     "budget refused"),
    (["verify", "padic", "--out", "v.txt"], "unrecognized arguments: --out"),
    (["expsum", "--config", FOUR, "--birch", "60000"], "budget refused"),
    (["constant", "--config", FOUR, "--Q", "2000", "--p-max", "3"],
     "budget refused"),
    (["singular-integral", "--config", FOUR, "--samples", "1000000000000"],
     "budget refused"),
    (["constant", "--config", FOUR, "--samples", "1000000000000"],
     "budget refused"),
    (["count", "--config", BILINEAR, "--t", "40000000"], "budget refused"),
    (["constant", "--config", FOUR, "--p-max", "3000000000", "--samples",
      "2000"], "budget refused"),
    (["count", "--config", FOUR, "--t", "5", "--out",
      os.path.join(os.path.dirname(FOUR), "none", "x.csv")],
     "cannot write"),
], ids=["missing-config", "config-is-a-directory", "t-not-integers",
        "compare-t-not-integers", "P-not-integers", "p-not-integers",
        "birch-negative", "birch-zero", "arc-negative", "x-zero",
        "samples-zero", "t-empty", "P-empty", "p-max-negative", "Q-zero",
        "compare-p-max-one", "compare-t-one", "expsum-two-modes",
        "expsum-no-mode", "x-past-the-sieve", "verify-out", "birch-table",
        "q-sum-tables", "shell-samples", "coarea-samples",
        "moebius-past-the-box", "p-max-past-the-sieve",
        "out-in-a-missing-directory"])
def test_bad_input_exits_2_with_a_message(capsys, monkeypatch, argv,
                                          message):
    def pipeline(*args, **kwargs):
        raise AssertionError("the pipeline ran before the refusal")

    # only the pipeline's own refusals, of p_max and of J's samples, run it
    if "p_max" not in message and "--samples" not in argv:
        monkeypatch.setattr(constant, "pipeline", pipeline)
    try:
        code = main(argv)
    except SystemExit as exc:  # refused by the parser
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


def test_unwritable_out_is_refused_before_any_count(tmp_path, capsys,
                                                    monkeypatch):
    def count(*args, **kwargs):
        raise AssertionError("counted before the refusal")

    with monkeypatch.context() as mp:
        mp.setattr(counting, "projective_count", count)
        for out in (tmp_path / "none" / "x.csv", tmp_path):
            assert main(["count", "--config", FOUR, "--t", "5",
                         "--out", str(out)]) == 2
            assert "cannot write" in capsys.readouterr().err
    # a failure the early check cannot see is still refused by the write
    (tmp_path / "x.csv.manifest.json").mkdir()
    assert main(["count", "--config", FOUR, "--t", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_runs_load_neither_numpy_random_nor_openssl(tmp_path):
    # J draws its shifts in Python ints and the hashes come from the
    # builtin sha256 module, so these commands carry neither
    script = ("import json, sys\n"
              "from fibrecount.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert main(argv) == 0\n"
              "print(sorted({'numpy.random', '_hashlib', 'concurrent.futures',\n"
              "              'logging'} & set(sys.modules)))\n"
              "from fibrecount import arith\n"
              "print(arith._PRIME_LIMIT)")
    common = ["--config", FOUR, "--out", str(tmp_path / "out.csv")]
    runs = [["constant", "--Q", "3", "--p-max", "2", "--samples", "20000"],
            ["compare", "--t", "5,8", "--p-max", "2", "--samples", "20000"],
            ["count", "--t", "5,8"]]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                                   "..", "src"))
    done = subprocess.run(
        [sys.executable, "-c", script,
         json.dumps([argv + common for argv in runs])],
        env=env, capture_output=True, text=True, check=True)
    loaded, prime_limit = done.stdout.splitlines()
    # nor, since the chunk pools run on plain threads, the executor
    # machinery and the logging it imports
    assert loaded == "[]"
    # C0 is stated and factor() sieves to its trial bound, so no prime
    # table to 10^6 is built
    assert int(prime_limit) < 10**4


def test_import_closures():
    # the package root loads no layer, and a layer loads only the layers
    # it computes with
    script = ("import importlib, sys\n"
              "importlib.import_module(sys.argv[1])\n"
              "print(*(m.split('.')[1] for m in sys.modules "
              "if m.startswith('fibrecount.')))")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                                   "..", "src"))

    def loaded(module):
        done = subprocess.run([sys.executable, "-c", script, module], env=env,
                              capture_output=True, text=True, check=True)
        return set(done.stdout.split())

    assert loaded("fibrecount") == set()
    assert loaded("fibrecount.counting") == {"arith", "blocks", "counting",
                                             "forms"}
    assert not loaded("fibrecount.constant") & {"counting", "verify", "cli"}


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_verify_padic_exit_zero(capsys):
    # the smallest suite: test_acceptance gates the checks of every suite
    assert main(["verify", "padic"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] local-bracket-gaps" in out
    assert "3/3 checks passed" in out


def test_expsum_arc_grid(capsys):
    assert main(["expsum", "--config", FOUR, "--arc", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "q,a1,F_re,F_im,tail_bound"
    assert len(lines) == 2 + 1 + 2 + 3 + 4


def test_threads_default_to_the_usable_cpus(monkeypatch):
    # a process pinned to 3 of 64 CPUs runs 3 threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9})
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    args = build_parser().parse_args(["count", "--config", FOUR, "--t", "5"])
    assert args.threads == 3
    args = build_parser().parse_args(["verify", "padic", "--threads", "3"])
    assert args.threads == 3


@pytest.mark.parametrize("value", ["0", "-2"])
def test_threads_below_one_are_refused(capsys, value):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["singular-integral", "--config", FOUR,
                                   "--threads", value])
    assert exc.value.code == 2
    assert "--threads: must be at least 1" in capsys.readouterr().err


class _Thread:
    """A stand-in for threading.Thread that starts no OS thread: start()
    runs the target in the calling thread.  Each instance is recorded."""

    made = []

    def __init__(self, target, args):
        self.target, self.args = target, args
        self.started = self.joined = False
        _Thread.made.append(self)

    def start(self):
        self.started = True
        self.target(*self.args)

    def join(self):
        self.joined = True


def _pool(monkeypatch, cpus: int):
    """pool_map on the _Thread stand-in in a process that may run on cpus
    CPUs: (fn, tasks, threads) -> (results, threads started)."""
    monkeypatch.setattr(blocks, "threading", types.SimpleNamespace(
        Thread=_Thread))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    def run(fn, tasks, threads):
        _Thread.made.clear()
        out = blocks.pool_map(fn, tasks, threads)
        assert all(t.started and t.joined for t in _Thread.made)
        return out, len(_Thread.made)
    return run


def test_pool_never_outnumbers_its_tasks(monkeypatch):
    pool = _pool(monkeypatch, 64)
    args = build_parser().parse_args(["count", "--config", FOUR, "--t", "5",
                                      "--threads", str(10**6)])
    tasks = list(range(-59, 0))
    # the calling thread is one worker, so a pool of w workers starts w - 1
    # threads: no more workers than tasks or threads; one task or one
    # thread, no thread
    assert pool(abs, tasks, args.threads) == ([-t for t in tasks], 58)
    assert pool(abs, tasks, 2) == ([-t for t in tasks], 1)
    assert pool(abs, [], args.threads) == ([], 0)
    assert pool(abs, [-4], args.threads) == ([4], 0)
    assert pool(abs, [-5, -6], 1) == ([5, 6], 0)


def test_pool_never_outnumbers_the_usable_cpus(monkeypatch):
    # --threads 100000 on a scan of 5000 chunks, in a process pinned to 3
    # CPUs: 3 workers
    pool = _pool(monkeypatch, 3)
    tasks = list(range(5000))
    assert pool(abs, tasks, 100000) == (tasks, 2)


def test_pool_raises_the_lowest_failing_task(monkeypatch):
    # real threads: every task runs, and of two failing tasks the one of
    # lower index is raised, whichever thread failed first
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    ran = []

    def task(x):
        ran.append(x)
        if x in (5, 3):
            raise ValueError(x)
        return x

    with pytest.raises(ValueError) as exc:
        blocks.pool_map(task, range(8), 4)
    assert exc.value.args == (3,)
    assert sorted(ran) == list(range(8))


def test_pool_joins_every_thread_it_starts(monkeypatch):
    # real threads: the four workers meet at a barrier twice, so the
    # calling thread and three started threads run at once, and no thread
    # is left
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    before = threading.active_count()
    barrier = threading.Barrier(4, timeout=30)
    seen = []

    def task(x):
        barrier.wait()
        seen.append((threading.get_ident(), threading.active_count()))
        return x * x

    assert blocks.pool_map(task, range(8), 4) == [x * x for x in range(8)]
    assert threading.active_count() == before
    assert threading.get_ident() in {ident for ident, _ in seen}
    assert len({ident for ident, _ in seen}) == 4
    assert max(count for _, count in seen) == before + 3
