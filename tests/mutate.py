"""Mutation check of the error rules: does Tier-1 notice each mutant?

Each mutant is one (file, old text, new text) replacement, and its old
text must occur exactly once in its file.  For each mutant the tree (src,
tests, configs, perfbench and pyproject.toml) is copied to a temporary
folder, the mutant is applied to the copy, and Tier-1 runs there, up to
its first failure; the mutant is caught when Tier-1 fails.  The
unmutated copy runs first and must pass.  The repository itself is never
modified.  Standard library only; pytest does not collect this file.

    python tests/mutate.py [--out report.json]

The JSON report lists every mutant with whether it was caught, the first
failing tests and the run's wall time.  A mutant stays on the list once
added; a new error rule adds one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "perfbench", "pyproject.toml")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]

# (name, file, old text, new text)
MUTANTS = [
    ("tail-primes-below-5-p_max", "src/fibrecount/constant.py",
     "range(p_max + 1, 10 * p_max)", "range(p_max + 1, 5 * p_max)"),
    ("tail-constant-halved", "src/fibrecount/constant.py",
     "C = float((logs * ps**-2).sum() / (ps**-4).sum())",
     "C = 0.5 * float((logs * ps**-2).sum() / (ps**-4).sum())"),
    ("route1-drops-c0-error", "src/fibrecount/constant.py",
     "(C0.c0, _rel(C0.c0_error, C0.c0))", "(C0.c0, 0.0)"),
    ("qsum-fallback-last-eighth", "src/fibrecount/expsums.py",
     "terms[3 * Q // 4:]", "terms[7 * Q // 8:]"),
    ("local-series-error-halved", "src/fibrecount/expsums.py",
     "error_bound=abs(shells[-1]),", "error_bound=abs(shells[-1]) / 2,"),
    ("arc-tail-bound-zero", "src/fibrecount/expsums.py",
     "return values, float(values[0].real) * inflate", "return values, 0.0"),
    ("arc-dyadic-tail-weight", "src/fibrecount/expsums.py",
     "reps.append((1 << (v2 + 2), 2.0 ** -(v2 + 1)))",
     "reps.append((1 << (v2 + 2), 2.0 ** -(v2 + 2)))"),
    ("lambda-p-exponent", "src/fibrecount/constant.py",
     "(1.0 - 1.0 / p) ** -0.5", "(1.0 - 1.0 / p) ** -1.0"),
]


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def _tier1(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    run = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True,
                         text=True)
    lines = run.stdout.splitlines()
    return {"passed": run.returncode == 0,
            "failed": [ln.split()[1] for ln in lines
                       if ln.startswith(("FAILED ", "ERROR "))][:3],
            "summary": lines[-1] if lines else run.stderr[-200:],
            "wall_s": round(time.perf_counter() - start, 1)}


def run_mutant(file: str, old: str, new: str) -> dict:
    """Tier-1 on a copy of the tree with old replaced by new in file (no
    replacement when file is None)."""
    with tempfile.TemporaryDirectory() as folder:
        tree = Path(folder)
        _copy_tree(tree)
        if file is not None:
            path = tree / file
            path.write_text(path.read_text().replace(old, new))
        return _tier1(tree)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="mutation-report.json")
    args = parser.parse_args(argv)
    for name, file, old, new in MUTANTS:
        hits = (ROOT / file).read_text().count(old)
        if hits != 1:
            sys.exit(f"{name}: {hits} matches of its old text in {file}")
    baseline = run_mutant(None, "", "")
    print(f"unmutated: {baseline['summary']}", flush=True)
    if not baseline["passed"]:
        sys.exit("Tier-1 fails on the unmutated tree")
    report = {"baseline": baseline, "mutants": []}
    for name, file, old, new in MUTANTS:
        result = run_mutant(file, old, new)
        report["mutants"].append({"name": name, "file": file, "old": old,
                                  "new": new, "caught": not result["passed"],
                                  **result})
        print(f"{name}: {'caught' if not result['passed'] else 'SURVIVED'}"
              f" {result['failed']}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    survived = [m["name"] for m in report["mutants"] if not m["caught"]]
    print(f"{len(MUTANTS) - len(survived)}/{len(MUTANTS)} caught; "
          f"report in {args.out}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
