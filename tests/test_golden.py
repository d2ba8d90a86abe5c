"""Golden outputs: the exact stdout of CLI commands, pinned in tests/golden/.

Each command runs in-process through cli.main and its stdout must equal
its file byte for byte.  The corpus was pinned with Python 3.11.7 and
numpy 2.4.6.  The counts and the local densities print integers and
math-library floats.  The files in NUMPY_FLOATS print sums that numpy
forms: exponential sums (`expsum`) and the Monte Carlo J behind every
constant (`constant`, `compare`).  On another numpy those files are
skipped, and the skip says why.  Re-pinning a file is a test change:
list it in CHANGES.md with its reason.  To re-pin the named files:

    PYTHONPATH=src python tests/test_golden.py --pin NAME...

A bare --pin writes every missing file and refuses to overwrite a file
whose bytes differ: a moved output is re-pinned only by name.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fibrecount.cli import main
from test_counting import _dense

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FOUR = str(ROOT / "configs" / "four_squares.json")
BILINEAR = str(ROOT / "configs" / "bilinear.json")
DENSE = "<dense seed 0>"  # written from tests/test_counting._dense(0)
PINNED_NUMPY = "2.4.6"

COMMANDS = {
    # the four jobs of the bench's count workload
    "count-split": ["count", "--config", FOUR, "--t", "100,150"],
    "count-direct": ["count", "--config", FOUR, "--t", "60",
                     "--method", "direct"],
    "count-moebius": ["count", "--config", FOUR, "--t", "60",
                      "--method", "moebius"],
    "count-bilinear": ["count", "--config", BILINEAR, "--t", "300"],
    "theta-bilinear": ["theta", "--config", BILINEAR, "--P", "40",
                       "--include-zero"],
    "count-dense-moebius": ["count", "--config", DENSE, "--t", "40",
                            "--method", "moebius"],
    "expsum-empirical": ["expsum", "--config", FOUR, "--empirical", "12"],
    # the bench's constant job, and the constant at its defaults
    "constant-p7": ["constant", "--config", FOUR, "--route", "both",
                    "--p-max", "7"],
    "constant-default": ["constant", "--config", FOUR],
    # the bench's dense compare job
    "compare-dense": ["compare", "--config", DENSE, "--t", "40,60",
                      "--p-max", "7"],
    "local-density-ell": ["local-density", "--config", FOUR, "--p", "3,5",
                          "--N", "3", "--kind", "ell"],
    "expsum-birch": ["expsum", "--config", FOUR, "--birch", "8"],
    "expsum-arc": ["expsum", "--config", FOUR, "--arc", "12"],
    # the block path at a composite q over two distinct blocks, and the
    # phase path's CRT join of 2^2 and 3
    "expsum-birch-bilinear": ["expsum", "--config", BILINEAR, "--birch",
                              "12"],
    "expsum-birch-dense": ["expsum", "--config", DENSE, "--birch", "12"],
    # phase tables at 2^6, 3^4, 7^2 and 11^2
    "constant-dense-p13": ["constant", "--config", DENSE, "--p-max", "13"],
    "constant-p31": ["constant", "--config", FOUR, "--p-max", "31"],
}
NUMPY_FLOATS = {"expsum-empirical", "expsum-birch", "expsum-arc",
                "expsum-birch-bilinear", "expsum-birch-dense", "constant-p7",
                "constant-default", "compare-dense", "constant-dense-p13",
                "constant-p31"}


def _stdout(argv: list, folder: Path) -> str:
    """The stdout of one in-process run of argv, with the dense
    placeholder replaced by a config file written into folder."""
    if DENSE in argv:
        path = folder / "dense-0.json"
        path.write_text(json.dumps(_dense(0).config_dict()))
        argv = [str(path) if a == DENSE else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, tmp_path):
    if name in NUMPY_FLOATS and np.__version__ != PINNED_NUMPY:
        pytest.skip(f"{name} was pinned on numpy {PINNED_NUMPY}, "
                    f"not {np.__version__}")
    want = (GOLDEN / f"{name}.csv").read_text()
    assert _stdout(COMMANDS[name], tmp_path) == want


def pin(names: list) -> int:
    """Writes the golden file of each name in names, or of every command
    if names is empty; then a file whose bytes differ is left as it is
    and reported.  Returns the number of files left."""
    unknown = set(names) - set(COMMANDS)
    if unknown:
        raise SystemExit(f"no golden command named {', '.join(sorted(unknown))}")
    GOLDEN.mkdir(exist_ok=True)
    left = 0
    with tempfile.TemporaryDirectory() as folder:
        for name in names or COMMANDS:
            path = GOLDEN / f"{name}.csv"
            out = _stdout(COMMANDS[name], Path(folder))
            if not names and path.exists() and path.read_text() != out:
                print(f"differs, not overwritten: {name} (pin it by name)")
                left += 1
                continue
            path.write_text(out)
            print(f"pinned {name}")
    return left


if __name__ == "__main__":
    if sys.argv[1:2] != ["--pin"]:
        raise SystemExit("usage: test_golden.py --pin [NAME...]")
    sys.exit(1 if pin(sys.argv[2:]) else 0)
