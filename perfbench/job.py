"""Run one fibrecount CLI command in this (fresh) interpreter.

    python perfbench/job.py --meta FILE [--trace | --setup-only] -- ARGS...

ARGS are the arguments of the `fibrecount` command; the library must be
importable (PYTHONPATH=src).  The command's CSV goes to stdout as usual.
FILE receives JSON: `config_parsed`, the `time.monotonic()` reading when the
command's instance config had been loaded (CLOCK_MONOTONIC is shared by all
processes, so the launching process can subtract its own launch reading),
and with --trace the tracer summary.  --setup-only stops once the config is
loaded, without running the command.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    meta_path = opts[opts.index("--meta") + 1]
    trace = "--trace" in opts

    from fibrecount import cli

    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)

    meta = {"config_parsed": None}
    load = cli.load_instance

    def load_instance(path):
        inst = load(path)
        if meta["config_parsed"] is None:
            meta["config_parsed"] = time.monotonic()
        return inst

    cli.load_instance = load_instance
    if "--setup-only" in opts:
        cli.load_instance(cli.build_parser().parse_args(cli_args).config)
        rc = 0
    else:
        rc = cli.main(cli_args)
    sys.stdout.flush()
    if tracer is not None:
        meta["trace"] = tracer.summary()
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
