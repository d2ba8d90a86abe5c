"""Command-line surface: instance configs in, CSV/reports out.

Subcommands: count, theta, expsum, local-density, singular-integral,
constant, compare, verify.  Every subcommand takes --seed, --threads and
--budget, which bounds what one operation may scan, lift, draw or hold in
a table; all but verify, which reads no config and prints its report to
stdout, take --config and --out.  No environment variable changes a run.

Every CSV starts with a '# manifest <hash>' comment; with --out FILE the
full run manifest is written next to the output as FILE.manifest.json.
Rows carry no timings, so repeat runs are byte-identical.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys

from . import __version__, archimedean, arith, constant, counting, expsums, padic
from .blocks import DEFAULT_BUDGET, BudgetExceededError
from .forms import FormError, digest, load_instance
from .verify import SUITES, run_suites


def _emit(args, command: str, label: str, params: dict, config_hash: str,
          lines: list) -> None:
    """Writes the CSV under its manifest hash, which covers the run inputs
    but not --budget, --threads or --out: none of them changes a row, so
    repeat runs stay byte-identical wherever they are written."""
    manifest = {"command": command, "instance_label": label,
                "parameters": params, "seed": args.seed,
                "versions": {"tool": __version__, "config_hash": config_hash}}
    manifest["manifest_hash"] = digest(manifest)
    manifest["outputs"] = [args.out] if args.out else []
    body = [f"# manifest {manifest['manifest_hash']}"] + lines
    text = "\n".join(body) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            with open(args.out + ".manifest.json", "w",
                      encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise FormError(f"cannot write {exc.filename}: "
                            f"{exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _check_out(path: str) -> None:
    """Refuses an --out that cannot be written, before anything is
    computed: its directory is missing or not writable, or it is a
    directory.  _emit still reports the failures this cannot foresee."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        code = errno.ENOENT
    elif not os.access(folder, os.W_OK | os.X_OK):
        code = errno.EACCES
    elif os.path.isdir(path):
        code = errno.EISDIR
    else:
        return
    raise FormError(f"cannot write {path}: {os.strerror(code)}")


def _int_list(text: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values:
        raise FormError("not a comma-separated list of integers: "
                        f"{text!r}")
    return values


def _emit_counts(args, command: str, params: dict, radii: str,
                 record) -> int:
    """One CountRecord row per radius."""
    inst = load_instance(args.config)
    lines = [counting.CountRecord.csv_header()] + [
        record(inst, t).csv_row() for t in _int_list(radii)]
    _emit(args, command, inst.label, params, inst.config_hash(), lines)
    return 0


def cmd_count(args) -> int:
    return _emit_counts(
        args, "count", {"t": args.t, "method": args.method}, args.t,
        lambda inst, t: counting.projective_count(
            inst, t, budget=args.budget, threads=args.threads,
            method=args.method))


def cmd_theta(args) -> int:
    def record(inst, P):
        cnt = counting.count_soluble_fibre_points(
            inst, P, include_zero_fibres=args.include_zero,
            budget=args.budget, threads=args.threads)
        return counting.CountRecord.of(inst, P, cnt, args.include_zero)

    return _emit_counts(args, "theta",
                        {"P": args.P, "include_zero": args.include_zero},
                        args.P, record)


def cmd_expsum(args) -> int:
    inst = load_instance(args.config)
    params = {"birch": args.birch, "arc": args.arc, "empirical": args.empirical,
              "x": args.x}
    lines = []
    if args.birch:
        q = args.birch
        S = expsums.birch_sum_table(inst, q, budget=args.budget)
        lines.append("q,a1,a2,S_re,S_im")
        for a1 in range(q):
            for a2 in range(q):
                if q == 1 or math.gcd(math.gcd(a1, a2), q) == 1:
                    lines.append(f"{q},{a1},{a2},{S[a1, a2].real:.12g},"
                                 f"{S[a1, a2].imag:.12g}")
    elif args.arc:
        lines.append("q,a1,F_re,F_im,tail_bound")
        for q in range(1, args.arc + 1):
            row, tail = expsums.arc_factor_row(q)
            for a1 in range(q):
                lines.append(f"{q},{a1},{row[a1].real:.12g},"
                             f"{row[a1].imag:.12g},{tail:.6g}")
    else:
        q = args.empirical
        emp, pred = expsums.empirical_twisted_row(args.x, q)
        lines.append("q,a1,emp_re,emp_im,pred_re,pred_im")
        for a1 in range(q):
            lines.append(f"{q},{a1},{emp[a1].real:.12g},{emp[a1].imag:.12g},"
                         f"{pred[a1].real:.12g},{pred[a1].imag:.12g}")
    _emit(args, "expsum", inst.label, params, inst.config_hash(), lines)
    return 0


def cmd_local_density(args) -> int:
    inst = load_instance(args.config)
    params = {"p": args.p, "N": args.N, "kind": args.kind}
    lines = [padic.LocalDensity.csv_header()]
    for p in _int_list(args.p):
        if args.kind == "tau":
            dens = padic.hypersurface_density(inst, p, args.N,
                                              budget=args.budget)
        else:
            dens = padic.soluble_density(inst, p, args.N, budget=args.budget)
        lines.append(dens.csv_row())
    _emit(args, "local-density", inst.label, params, inst.config_hash(), lines)
    return 0


def cmd_singular_integral(args) -> int:
    inst = load_instance(args.config)
    est = archimedean.real_density(inst, args.samples, args.seed,
                                   args.threads, args.budget)
    fib = archimedean.real_density_coarea(inst, args.samples, args.seed,
                                          args.budget)
    lines = [est.csv_header()] + est.csv_rows() + [
        f"# fibre estimator: {fib.value.real:.12g} +- {fib.std_error:.12g}"]
    _emit(args, "singular-integral", inst.label, {"samples": args.samples},
          inst.config_hash(), lines)
    return 0


def cmd_constant(args) -> int:
    inst = load_instance(args.config)
    params = {"route": args.route, "Q": args.Q, "p_max": args.p_max,
              "samples": args.samples}
    l_qsum = expsums.singular_series(inst, Q=args.Q, budget=args.budget)
    _, l_fact, c1, c2 = constant.pipeline(inst, args.p_max, args.samples,
                                          args.seed, args.budget)
    lines = [constant.ConstantBreakdown.csv_header()]
    if args.route in ("1", "both"):
        lines.append(c1.csv_row())
    if args.route in ("2", "both"):
        lines.append(c2.csv_row())
    if args.route == "both":
        agree = constant.route_agreement(c1, c2)
        lines.append(f"# route agreement: gap {agree['gap']:.6g}, relative "
                     f"{agree['relative_gap']:.4f}, combined error "
                     f"{agree['combined_error']:.4g}")
    lines.append(f"# singular series: q-sum(Q={args.Q}) = "
                 f"{l_qsum.value.real:.6g} +- {l_qsum.error_bound:.3g} "
                 f"({l_qsum.error_kind}); factored(p<={args.p_max}) = "
                 f"{l_fact.value.real:.6g} +- {l_fact.error_bound:.3g}")
    for w in c1.warnings:
        lines.append(f"# warning: {w}")
    _emit(args, "constant", inst.label, params, inst.config_hash(), lines)
    return 0


def cmd_compare(args) -> int:
    inst = load_instance(args.config)
    params = {"t": args.t, "p_max": args.p_max, "samples": args.samples}
    heights = _int_list(args.t)
    if min(heights) < 2:
        raise FormError(f"every height must be at least 2, not {min(heights)}"
                        ": the prediction divides by sqrt(log t)")
    _, _, c1, c2 = constant.pipeline(inst, args.p_max, args.samples,
                                     args.seed, args.budget)
    agree = constant.route_agreement(c1, c2)
    lines = ["t,measured,normalized,predicted_route1,predicted_route2,ratio2"]
    for t in heights:
        rec = counting.projective_count(inst, t, budget=args.budget,
                                        threads=args.threads)
        p1 = constant.predicted_count(c1, inst, t)
        p2 = constant.predicted_count(c2, inst, t)
        lines.append(f"{t},{rec.raw_count},{rec.normalized:.6g},"
                     f"{p1:.6g},{p2:.6g},{rec.raw_count / p2:.4f}")
    lines.append(f"# routes: {c1.c_phi:.6g} vs {c2.c_phi:.6g} "
                 f"(relative gap {agree['relative_gap']:.4f})")
    lines.append("# caveat: the dimension hypothesis behind the asymptotic "
                 "requires n > 12; measured/predicted ratios at desk scale "
                 "are indicative only and never gate any check")
    _emit(args, "compare", inst.label, params, inst.config_hash(), lines)
    return 0


def cmd_verify(args) -> int:
    results = run_suites(args.suite, budget=args.budget, seed=args.seed,
                         threads=args.threads)
    failed = 0
    for r in results:
        print(r.line())
        if r.gating and not r.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed"
          + (f"; {failed} FAILED" if failed else ""))
    return 1 if failed else 0


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fibrecount",
        description="Desk-scale counts, exponential sums, local densities "
                    "and the leading constant for conic bundles over "
                    "hypersurfaces.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, csv=True):
        if csv:
            p.add_argument("--config", required=True,
                           help="instance config JSON")
            p.add_argument("--out", default=None, help="write CSV here "
                           "(plus .manifest.json); default stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=_positive,
                       default=len(os.sched_getaffinity(0)),
                       help="worker threads (default: the CPUs this "
                            "process may run on)")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="max enumeration volume per operation")

    p = sub.add_parser("count", help="projective counts at heights t")
    common(p)
    p.add_argument("--t", required=True, help="comma-separated heights")
    p.add_argument("--method", default="auto",
                   choices=("auto", "direct", "moebius"))
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("theta", help="box counts of soluble fibres")
    common(p)
    p.add_argument("--P", required=True, help="comma-separated box radii")
    p.add_argument("--include-zero", action="store_true", dest="include_zero",
                   help="also count nonzero points with f1 = 0")
    p.set_defaults(fn=cmd_theta)

    p = sub.add_parser("expsum", help="Birch sums, arc factors, empirical sums")
    common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--birch", type=_positive, default=None, metavar="Q",
                      help="emit the full primitive-phase table mod Q")
    mode.add_argument("--arc", type=_positive, default=None, metavar="QMAX",
                      help="emit arc factors for all q <= QMAX")
    mode.add_argument("--empirical", type=_positive, default=None, metavar="Q",
                      help="empirical twisted sums against predictions mod Q")
    p.add_argument("--x", type=int, default=10**7,
                   help="range for empirical sums")
    p.set_defaults(fn=cmd_expsum)

    p = sub.add_parser("local-density", help="p-adic densities")
    common(p)
    p.add_argument("--p", required=True, help="comma-separated primes")
    p.add_argument("--N", type=int, required=True, help="level")
    p.add_argument("--kind", default="ell", choices=("tau", "ell"))
    p.set_defaults(fn=cmd_local_density)

    p = sub.add_parser("singular-integral", help="real density by Monte Carlo")
    common(p)
    p.add_argument("--samples", type=int, default=archimedean.DEFAULT_SAMPLES,
                   help="chart solves of the '# fibre estimator:' line; the "
                        "shell rows draw 15 times as many points")
    p.set_defaults(fn=cmd_singular_integral)

    p = sub.add_parser("constant", help="leading constant by both routes")
    common(p)
    p.add_argument("--route", default="both", choices=("1", "2", "both"))
    p.add_argument("--Q", type=_positive, default=16, help="q-sum truncation")
    p.add_argument("--p-max", type=int, default=constant.P_MAX, dest="p_max")
    p.add_argument("--samples", type=int, default=archimedean.DEFAULT_SAMPLES)
    p.set_defaults(fn=cmd_constant)

    p = sub.add_parser("compare", help="counts against predictions")
    common(p)
    p.add_argument("--t", required=True, help="comma-separated heights")
    p.add_argument("--p-max", type=int, default=constant.P_MAX, dest="p_max")
    p.add_argument("--samples", type=int, default=archimedean.DEFAULT_SAMPLES)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", choices=SUITES + ("all",))
    common(p, csv=False)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return 2
    except (FormError, arith.DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
