"""Command-line interface: CSV in, JSON/CSV reports out.

Machine output (the JSON report or CSV table) goes to stdout or --output;
human context lines go to stderr, so piping stdout always yields one clean
machine-readable document.  Exit codes: 0 success, 1 error (including no
usable CVLL span), 2 test rejection forced by a non-positive-definite
unrestricted or restricted estimate, 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .divergence import KL, J, Discrepancy, chernoff
from .errors import NonNumeric, ParseError, RaggedRows, SpectestError, TooShort
from .hypotheses import model_from_name
from .inference import StatisticVariant, run_test
from .simulation import (
    McConfig,
    benchmark_process,
    config_manifest,
    null_summary,
    power_rows,
    size_adjusted_power,
    summary_rows,
    write_summary_csv,
)
from .spectral import cvll_select, kernel_constants

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def ingest_csv(path: str, demean: bool = True) -> np.ndarray:
    """Read a header + numeric rows CSV into an (n, r) sample array.

    Error messages name the offending 1-based file row (the header is row 1).
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TooShort(f"{path}: empty file") from None
        r = len(header)
        if r < 1:
            raise ParseError(f"{path}: header row is empty")
        rows = []
        for line_no, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != r:
                raise RaggedRows(
                    f"{path}: row {line_no}: expected {r} fields, got {len(cells)}"
                )
            parsed = []
            for col, cell in enumerate(cells):
                try:
                    value = float(cell)
                    problem = None if math.isfinite(value) else f"non-finite value {cell!r}"
                except ValueError:
                    problem = f"{cell!r} is not a number"
                if problem:
                    raise NonNumeric(
                        f"{path}: row {line_no}, column {col + 1} ({header[col].strip()}): {problem}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if len(rows) < 8:
        raise TooShort(f"{path}: need at least 8 data rows, got {len(rows)}")
    sample = np.array(rows)
    if demean:
        sample = sample - sample.mean(axis=0, keepdims=True)
    return sample


def _fmt6(value: float) -> str:
    text = f"{value:.6g}"
    if "." not in text and "e" not in text and "n" not in text:
        text += ".0"
    return text


def _write_text(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _even_int(text: str) -> int:
    value = int(text)
    if value % 2 != 0:
        raise argparse.ArgumentTypeError(f"span must be even, got {value}")
    return value


def _default_threads() -> int:
    env = os.environ.get("SPECTEST_THREADS", "").strip()
    if env.isdigit() and int(env) >= 1:
        return int(env)
    return 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="spectest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="run one hypothesis test on a CSV sample")
    test.add_argument("--input", required=True, help="CSV file: header row + numeric rows")
    test.add_argument(
        "--hypothesis",
        default="independence",
        choices=["independence", "separable", "graphical"],
    )
    test.add_argument("--edges", default=None, help="graphical edge list, 1-based, e.g. 1-2,2-3")
    test.add_argument("--stat", default="full", choices=["full", "quadratic", "block"])
    test.add_argument("--kind", default="kl", choices=["kl", "j", "chernoff"])
    test.add_argument("--chernoff-alpha", type=float, default=0.5)
    test.add_argument("--m", type=_even_int, default=None, help="smoothing span (even)")
    test.add_argument("--cvll", action="store_true", help="select the span by cross validation")
    test.add_argument("--alpha", type=float, default=0.05)
    test.add_argument("--output", default=None)
    test.add_argument("--no-demean", action="store_true", help="skip column mean removal")

    for name, needs_two_phi in (("simulate-null", False), ("simulate-power", True)):
        sim = sub.add_parser(name, help=f"{name.split('-')[1]} study on the benchmark process")
        if needs_two_phi:
            sim.add_argument("--phi0", type=float, default=0.0, help="coupling under the null")
            sim.add_argument("--phi1", type=float, required=True, help="coupling under the alternative")
        else:
            sim.add_argument("--phi", type=float, default=0.0)
        sim.add_argument("--n", type=int, required=True)
        sim.add_argument("--m", type=_even_int, default=None)
        sim.add_argument("--cvll", action="store_true")
        sim.add_argument(
            "--stat",
            default="full,quadratic,block",
            help="comma-separated subset of full,quadratic,block",
        )
        sim.add_argument("--kind", default="kl", choices=["kl", "j", "chernoff"])
        sim.add_argument("--chernoff-alpha", type=float, default=0.5)
        sim.add_argument(
            "--hypothesis",
            default="independence",
            choices=["independence", "separable", "graphical"],
        )
        sim.add_argument("--edges", default=None)
        sim.add_argument("--alpha", type=float, default=0.05)
        sim.add_argument("--reps", type=int, default=1000)
        sim.add_argument("--seed", type=int, default=0)
        sim.add_argument("--threads", type=int, default=None)
        sim.add_argument("--output", default=None)

    cv = sub.add_parser("cvll", help="cross-validated bandwidth selection for a CSV sample")
    cv.add_argument("--input", required=True)
    cv.add_argument("--output", default=None)
    cv.add_argument("--no-demean", action="store_true")

    kc = sub.add_parser("kernel-constants", help="print the weight-function constants")
    kc.add_argument("--kernel", default="flat", choices=["flat"])
    return parser


def _resolve_kind(args) -> Discrepancy:
    if args.kind == "kl":
        return KL
    if args.kind == "j":
        return J
    return chernoff(args.chernoff_alpha)


def _resolve_bandwidth(args, parser: _Parser):
    if args.cvll and args.m is not None:
        parser.error("--m and --cvll are mutually exclusive")
    if not args.cvll and args.m is None:
        parser.error("one of --m or --cvll is required")
    return "cvll" if args.cvll else args.m


def _build_model(args, parser: _Parser, r: int):
    try:
        return model_from_name(args.hypothesis, r=r, edges=args.edges)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_test(args, parser: _Parser) -> int:
    bandwidth = _resolve_bandwidth(args, parser)
    sample = ingest_csv(args.input, demean=not args.no_demean)
    model = _build_model(args, parser, sample.shape[1])
    variant = StatisticVariant(form=args.stat, kind=_resolve_kind(args))
    report = run_test(sample, model, bandwidth, variant, alpha_level=args.alpha)
    document = {
        "command": "test",
        "input": args.input,
        "hypothesis": args.hypothesis,
        "edges": args.edges,
        "variant": variant.form,
        "kind": variant.kind_label,
        "bandwidth": bandwidth,
        "demean": not args.no_demean,
    }
    document.update(asdict(report))
    _write_text(json.dumps(document, sort_keys=True, allow_nan=False) + "\n", args.output)
    if report.forced_reject:
        # the statistic sums only the screened frequencies, so it is not shown
        evidence = f"forced by {report.nonpd_count} non-positive-definite frequencies"
    else:
        evidence = f"T-hat = {_fmt6(report.standardized)}"
    verdict = "REJECT" if report.reject else "RETAIN"
    sys.stderr.write(f"{verdict}, {evidence}, p = {_fmt6(report.p_value)}, m = {report.m}\n")
    return 2 if report.forced_reject else 0


def _variants_from(args, parser: _Parser) -> tuple:
    kind = _resolve_kind(args)
    variants = []
    for token in args.stat.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in ("full", "quadratic", "block"):
            parser.error(f"unknown statistic form {token!r}")
        variants.append(StatisticVariant(form=token, kind=kind))
    if not variants:
        parser.error("at least one statistic form is required")
    return tuple(variants)


def _mc_config(args, parser: _Parser, phi: float) -> McConfig:
    process = benchmark_process(phi)
    model = _build_model(args, parser, process.r)
    return McConfig(
        process=process,
        n=args.n,
        bandwidth=_resolve_bandwidth(args, parser),
        model=model,
        variants=_variants_from(args, parser),
        replications=args.reps,
        seed=args.seed,
        alpha_level=args.alpha,
    )


def _emit_table(rows, manifest: dict, output: str | None) -> None:
    buffer = io.StringIO()
    write_summary_csv(rows, buffer)
    _write_text(buffer.getvalue(), output)
    manifest_text = json.dumps(manifest, sort_keys=True)
    if output is None:
        sys.stderr.write(manifest_text + "\n")
    else:
        with open(output + ".manifest.json", "w", encoding="utf-8") as handle:
            handle.write(manifest_text + "\n")


def _cmd_simulate_null(args, parser: _Parser) -> int:
    config = _mc_config(args, parser, args.phi)
    threads = args.threads if args.threads is not None else _default_threads()
    summaries = null_summary(config, threads=threads)
    rows = summary_rows(config, summaries, rate_column="size")
    _emit_table(rows, config_manifest(config, "simulate-null"), args.output)
    return 0


def _cmd_simulate_power(args, parser: _Parser) -> int:
    null_config = _mc_config(args, parser, args.phi0)
    alt_config = _mc_config(args, parser, args.phi1)
    threads = args.threads if args.threads is not None else _default_threads()
    powers = size_adjusted_power(null_config, alt_config, threads=threads)
    rows = power_rows(alt_config, powers)
    manifest = config_manifest(alt_config, "simulate-power")
    manifest["null_phi"] = args.phi0
    _emit_table(rows, manifest, args.output)
    return 0


def _cmd_cvll(args) -> int:
    sample = ingest_csv(args.input, demean=not args.no_demean)
    best, scores = cvll_select(sample)
    lines = ["m,score"]
    for m, score in scores:
        lines.append(f"{m},{_fmt6(score)}")
    _write_text("\n".join(lines) + "\n", args.output)
    sys.stderr.write(f"selected m = {best}\n")
    return 0


def _cmd_kernel_constants(args) -> int:
    cu, du, bu = kernel_constants(lambda x: np.ones_like(np.asarray(x, dtype=float)))
    sys.stdout.write(f"Cu={_fmt6(cu)} Du={_fmt6(du)} Bu={_fmt6(bu)}\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return USAGE_EXIT
    try:
        if args.command == "test":
            return _cmd_test(args, parser)
        if args.command == "simulate-null":
            return _cmd_simulate_null(args, parser)
        if args.command == "simulate-power":
            return _cmd_simulate_power(args, parser)
        if args.command == "cvll":
            return _cmd_cvll(args)
        return _cmd_kernel_constants(args)
    except _UsageError:
        return USAGE_EXIT
    except (SpectestError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
