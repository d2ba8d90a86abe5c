"""The benchmark's workloads: fibrecount CLI jobs and their output checks.

Each job is one `fibrecount` command.  A job's check sees the job's CSV
output and the outputs of the jobs before it in the same pass, and returns
a list of problems (empty when the output is right).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import dense
from fibrecount.forms import load_instance

DEFAULT_SEED = 0
# projective counts at every seed: (config, t) -> count
REFERENCE_COUNTS = {
    ("four_squares", 60): 59728,
    ("four_squares", 100): 179056,
    ("four_squares", 150): 428976,
    ("bilinear", 300): 2006400,
}
# constant on four_squares at p_max 7 and the default seed: route -> c
REFERENCE_CONSTANT = {"singular_series": 18.96153107, "tamagawa": 20.32981271}


@dataclass
class Job:
    name: str
    args: list
    check: object


def rows(text: str) -> list:
    """Data rows of a CSV output as dicts keyed by the header."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _counts(text: str) -> dict:
    return {int(r["t"]): int(r["raw_count"]) for r in rows(text)}


def _check_counts(config: str):
    def check(text, seed, earlier):
        problems = []
        got = _counts(text)
        if not got:
            return ["no count rows"]
        for t, count in got.items():
            want = REFERENCE_COUNTS.get((config, t))
            if want is not None and count != want:
                problems.append(f"{config} t={t}: count {count} != {want}")
        return problems
    return check


def _check_same_counts(other: str, column: str, config: str | None = None):
    """Counts equal to the `column` counts job `other` gave at the same t."""
    def check(text, seed, earlier):
        problems = _check_counts(config)(text, seed, earlier) if config \
            else []
        got = _counts(text)
        theirs = {int(r["t"]): int(r[column])
                  for r in rows(earlier.get(other, ""))}
        if not got:
            problems.append("no count rows")
        for t, count in got.items():
            if theirs.get(t) != count:
                problems.append(f"t={t}: count {count} != {theirs.get(t)} "
                                f"from {other}")
        return problems
    return check


def _positive_finite(values: dict) -> list:
    return [f"{name} = {v} is not positive and finite"
            for name, v in values.items() if not (math.isfinite(v) and v > 0)]


def _check_constant(text, seed, earlier):
    got = {r["route"]: (float(r["c_phi"]), float(r["combined_error"]))
           for r in rows(text)}
    if set(got) != set(REFERENCE_CONSTANT):
        return [f"routes {sorted(got)} != {sorted(REFERENCE_CONSTANT)}"]
    problems = _positive_finite({k: c for k, (c, _) in got.items()})
    if seed == DEFAULT_SEED:
        for route, (c, err) in got.items():
            ref = REFERENCE_CONSTANT[route]
            if not abs(c - ref) <= err:
                problems.append(f"{route}: c = {c} is {abs(c - ref):.4g} from "
                                f"{ref}, beyond its error {err}")
    return problems


def _check_compare(text, seed, earlier):
    problems = []
    for line in text.splitlines():
        if line.startswith("# routes:"):
            parts = line.split()
            problems += _positive_finite({"route 1": float(parts[2]),
                                          "route 2": float(parts[4])})
            break
    else:
        problems.append("no routes line")
    measured = [int(r["measured"]) for r in rows(text)]
    if len(measured) != 2 or not 0 < measured[0] < measured[1]:
        problems.append(f"counts {measured} do not grow from a positive start")
    return problems


def jobs(workload: str, seed: int, workdir: str) -> tuple:
    """(jobs, notes) of a workload; notes record generated inputs."""
    four, bil = "configs/four_squares.json", "configs/bilinear.json"
    notes = {}
    if workload == "constant":
        out = [Job("constant", ["constant", "--config", four, "--route",
                                "both", "--p-max", "7"], _check_constant)]
    elif workload == "count":
        out = [
            Job("split", ["count", "--config", four, "--t", "100,150"],
                _check_counts("four_squares")),
            Job("direct", ["count", "--config", four, "--t", "60",
                           "--method", "direct"],
                _check_counts("four_squares")),
            Job("moebius", ["count", "--config", four, "--t", "60",
                            "--method", "moebius"],
                _check_same_counts("direct", "raw_count", "four_squares")),
            Job("bilinear", ["count", "--config", bil, "--t", "300"],
                _check_counts("bilinear")),
        ]
    elif workload == "dense":
        path = os.path.join(workdir, f"dense-{seed}.json")
        dense.write_config(dense.dense_config(seed), path)
        notes["dense_config_hash"] = load_instance(path).config_hash()
        out = [
            Job("dense-compare", ["compare", "--config", path, "--t", "40,60",
                                  "--p-max", "7"], _check_compare),
            Job("dense-moebius", ["count", "--config", path, "--t", "40",
                                  "--method", "moebius"],
                _check_same_counts("dense-compare", "measured")),
        ]
    else:
        raise KeyError(workload)
    return out, notes


WORKLOADS = ("constant", "count", "dense")
