"""Benchmark of the fibrecount CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a fibrecount checkout.  Each job is one fibrecount
command in a fresh interpreter (cold caches, as a CLI user sees them); jobs
run one at a time in a closed loop, the next starting when the previous one
exits.  A pass runs every job of the workload once; passes repeat until S
seconds have gone by (at least one pass).  Every job's output is checked.

With --trace 0 the last line of stdout holds the end-to-end metrics: the
medians over passes of the pass wall time and of the largest job peak RSS,
the set-up time (summed over jobs, each the median of its set-ups, with
extra set-up-only launches), and the share of jobs that passed their checks.
With --trace 1 one more pass runs with every library layer wrapped (see
tracer.py) and the last line holds the per-layer metrics of that pass.  The
line before the last holds the run record: environment, generated inputs,
per-job timings and any failed checks.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_THREADS = 2
# A run must exit within 180 s; jobs still running 170 s after the start are
# killed, which leaves time to clean up and print the result.
DEADLINE_S = 170.0
SETUP_LAUNCHES = 12  # set-up-only launches per run, spread over the jobs


@dataclass
class JobRun:
    name: str
    rc: int
    wall_s: float
    cpu_s: float
    setup_s: float | None
    rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str
    trace: dict | None
    problems: list = field(default_factory=list)


def without_timing(text: str) -> str:
    """The output with the `wall_time_s` column dropped."""
    out, col = [], None
    for line in text.splitlines():
        fields = line.split(",")
        if not line.startswith("#") and "wall_time_s" in fields:
            col = fields.index("wall_time_s")
        if col is not None and not line.startswith("#"):
            fields = fields[:col] + fields[col + 1:]
        out.append(",".join(fields))
    return "\n".join(out) + "\n"


def _launch(args: list, root: str, workdir: str, env: dict, tag: str,
            flags: list, limit_s: float) -> JobRun:
    out_path = os.path.join(workdir, tag + ".out")
    err_path = os.path.join(workdir, tag + ".err")
    meta_path = os.path.join(workdir, tag + ".meta.json")
    cmd = ([sys.executable, os.path.join(HERE, "job.py"), "--meta", meta_path]
           + flags + ["--"] + args)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=root)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        killer = threading.Timer(max(limit_s, 1.0), kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    parsed = meta.get("config_parsed")
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    run = JobRun(name=tag, rc=proc.returncode, wall_s=end - launch,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 setup_s=parsed - launch if parsed is not None else None,
                 rss_mb=usage.ru_maxrss / 1024.0, timed_out=killed.is_set(),
                 stdout=stdout, stderr=stderr, trace=meta.get("trace"))
    if run.timed_out:
        run.problems.append(f"timed out: still running at the {DEADLINE_S:.0f}"
                            " s deadline of the run, so it was killed")
        return run
    if run.rc != 0:
        run.problems.append(f"exit code {run.rc}: {stderr.strip()[-300:]}")
    if "budget refused" in stderr:
        run.problems.append("budget refused")
    if run.setup_s is None:
        run.problems.append("the config was never loaded")
    return run


class Bench:
    """One run of a workload: launches and checks its jobs, keeps the tallies."""

    def __init__(self, jobs: list, seed: int, root: str, workdir: str):
        self.jobs = jobs
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.start = time.monotonic()
        self.threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.setups = {job.name: [] for job in self.jobs}
        self.first_outputs: dict = {}
        self.passes: list = []
        self._launches = 0

    def _args(self, job) -> list:
        return job.args + ["--seed", str(self.seed),
                           "--threads", str(self.threads)]

    def _run(self, job, flags: list) -> JobRun:
        self._launches += 1
        limit = DEADLINE_S - (time.monotonic() - self.start)
        return _launch(self._args(job), self.root, self.workdir, self.env,
                       f"{self._launches:04d}-{job.name}", flags, limit)

    def setup_launches(self) -> None:
        per_job = max(1, SETUP_LAUNCHES // len(self.jobs))
        for _ in range(per_job):
            for job in self.jobs:
                run = self._run(job, ["--setup-only"])
                if run.problems:
                    self.problems += [f"set-up of {job.name}: {p}"
                                      for p in run.problems]
                else:
                    self.setups[job.name].append(run.setup_s)

    def run_pass(self, trace: bool = False) -> list:
        earlier: dict = {}
        runs = []
        for job in self.jobs:
            run = self._run(job, ["--trace"] if trace else [])
            self.attempted += 1
            if not run.problems:
                run.problems += job.check(run.stdout, self.seed, earlier)
                text = without_timing(run.stdout)
                first = self.first_outputs.setdefault(job.name, text)
                if text != first:
                    run.problems.append("output differs from the first pass"
                                        + (" (traced)" if trace else ""))
            if run.problems:
                self.failed += 1
                self.problems += [f"{job.name}: {p}" for p in run.problems]
            elif not trace:
                self.setups[job.name].append(run.setup_s)
            earlier[job.name] = run.stdout
            runs.append(run)
        self.passes.append({
            "traced": trace,
            "jobs": [{"name": r.name, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                      "setup_s": r.setup_s, "rss_mb": r.rss_mb,
                      "timed_out": r.timed_out, "ok": not r.problems} for r in runs]})
        return runs

    def untraced_passes(self, seconds: float) -> tuple:
        walls, rss = [], []
        while True:
            runs = self.run_pass()
            walls.append(sum(r.wall_s for r in runs))
            rss.append(max(r.rss_mb for r in runs))
            if time.monotonic() - self.start >= seconds:
                return walls, rss

    def end_to_end(self, seconds: float) -> dict:
        self.setup_launches()
        walls, rss = self.untraced_passes(seconds)
        setup = sum(statistics.median(v) for v in self.setups.values() if v)
        return {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "ok_frac": ((self.attempted - self.failed) / self.attempted,
                        "ratio"),
        }

    def per_layer(self, seconds: float) -> dict:
        walls, _ = self.untraced_passes(seconds)
        runs = self.run_pass(trace=True)
        traces = [r.trace for r in runs if r.trace]
        if len(traces) != len(runs):
            self.problems.append("a traced job left no trace")

        def total(key, layer):
            return sum(t[key][layer] for t in traces)

        self_s = {layer: total("self_s", layer) for layer in LAYERS}
        points = {layer: total("points", layer)
                  for layer in ("forms", "counting", "expsums", "padic")}
        calls = sum(t["table_calls"] for t in traces)
        builds = sum(t["table_builds"] for t in traces)
        samples = sum(t["samples"] for t in traces)
        traced_wall = sum(r.wall_s for r in runs)
        after_setup = sum(r.wall_s - (r.setup_s or 0.0) for r in runs)
        out = {f"{layer}.self_s": (v, "s") for layer, v in self_s.items()}
        out.update({f"{layer}.points": (v, "count")
                    for layer, v in points.items()})
        out.update({f"{layer}.peak_mb": (max((t["peak_mb"][layer]
                                              for t in traces), default=0.0),
                                         "MB")
                    for layer in ("counting", "expsums", "padic")})
        out.update({
            "forms.mpoints_per_s": (_rate(points["forms"], self_s["forms"]),
                                    "Mpoints/s"),
            "expsums.table_builds": (builds, "count"),
            "expsums.table_hit_ratio": (_ratio(calls - builds, calls),
                                        "ratio"),
            "archimedean.msamples_per_s": (
                _rate(samples, self_s["archimedean"]), "Msamples/s"),
            "trace.coverage": (  # time in library-layer spans
                _ratio(sum(t["covered_s"] for t in traces), after_setup),
                "ratio"),
            "trace.overhead": (
                traced_wall / statistics.median(walls) - 1.0, "ratio"),
            "fail_frac": (self.failed / self.attempted, "ratio"),
        })
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _rate(count: float, seconds: float) -> float:
    return _ratio(count, seconds) / 1e6


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _git_commit(root: str) -> str | None:
    """The checked-out commit, or None when root is no git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: str) -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    load = _read("/proc/loadavg").split()
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": _git_commit(root),
        "loadavg_1m": float(load[0]) if load else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fibrecount", "cli.py")):
        print(f"error: no fibrecount sources under {src}; run from the root "
              "of a fibrecount checkout", file=sys.stderr)
        return 2
    if os.environ.get("FIBRECOUNT_CACHE"):
        print("error: FIBRECOUNT_CACHE is set; an inherited result cache "
              "would time a JSON read instead of the computation",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    runs_root = os.path.join(root, ".perfbench_runs")
    os.makedirs(runs_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_root)
    try:
        env = environment(root)
        jobs, inputs = workloads.jobs(args.workload, args.seed, workdir)
        bench = Bench(jobs, args.seed, root, workdir)
        metrics = (bench.per_layer(args.seconds) if args.trace
                   else bench.end_to_end(args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(runs_root)
        except OSError:
            pass
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env, "inputs": inputs,
              "passes": bench.passes, "problems": bench.problems}
    print(json.dumps(record))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
