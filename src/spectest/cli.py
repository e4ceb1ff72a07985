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
import warnings
from dataclasses import asdict

import numpy as np

from .divergence import KL, J, Discrepancy, chernoff
from .errors import NonNumeric, ParseError, RaggedRows, SingularCovariance, SpectestError, TooShort
from .hypotheses import _edge_tokens, model_from_name
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
from .spectral import WeightKernel, _check_span, cvll_select

USAGE_EXIT = 64


def ingest_csv(path: str, demean: bool = True) -> np.ndarray:
    """Read a header + numeric rows CSV into an (n, r) sample array.

    numpy's C reader parses the body.  It is stricter than float(): quoted cells, underscores
    and non-ASCII digits fail in it.  A file it rejects, or whose array is ragged, short or not
    finite, and a file with a line longer than csv's field size limit, are read again cell by
    cell, which returns the same array or raises an error naming the offending 1-based file row
    (the header is row 1).  A byte that is not UTF-8 is named by its offset, and a column whose
    demeaned values overflow the float range by its number.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start}: not UTF-8 ({exc.reason})") from None
    sample, header, handle, limit = None, None, io.StringIO(text, newline=""), csv.field_size_limit()
    # a line over csv's field limit may hold a cell that the C reader parses and the cell reader rejects
    long_line = len(text) > limit and max(map(len, text.replace("\r", "\n").split("\n"))) > limit
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            header = next(csv.reader(handle), None)
            sample = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2) if header and not long_line else None
        except (csv.Error, ValueError):  # the cell reader reads the file again and names the fault
            pass
    if sample is None or sample.shape[1] != len(header) or len(sample) < 8 or not np.isfinite(sample).all():
        sample = _ingest_cells(path, text)
    if demean:
        with np.errstate(over="ignore", invalid="ignore"):
            sample = sample - sample.mean(axis=0, keepdims=True)
        bad = np.flatnonzero(~np.isfinite(sample).all(axis=0))
        if bad.size:
            raise NonNumeric(f"{path}: column {bad[0] + 1} ({header[bad[0]].strip()}): demeaning overflows the float range")
    return sample


def _ingest_cells(path: str, text: str) -> np.ndarray:
    """The (n, r) sample of a header + numeric rows CSV text, one float() per cell, or an addressed error."""
    reader, line_no = csv.reader(io.StringIO(text, newline="")), 0
    try:
        header = next(reader, None)
        if header is None:
            raise TooShort(f"{path}: empty file")
        line_no, r = 1, len(header)
        if r < 1:
            raise ParseError(f"{path}: header row is empty")
        rows = []
        for line_no, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != r:
                raise RaggedRows(f"{path}: row {line_no}: expected {r} fields, got {len(cells)}")
            parsed = []
            for col, cell in enumerate(cells):
                try:
                    value = float(cell)
                    problem = None if math.isfinite(value) else f"non-finite value {cell!r}"
                except ValueError:
                    problem = f"{cell!r} is not a number"
                if problem:
                    raise NonNumeric(f"{path}: row {line_no}, column {col + 1} ({header[col].strip()}): {problem}")
                parsed.append(value)
            rows.append(parsed)
    except csv.Error as exc:  # e.g. a cell longer than csv's field size limit, in the row after line_no
        raise ParseError(f"{path}: row {line_no + 1}: {exc}") from None
    if len(rows) < 8:
        raise TooShort(f"{path}: need at least 8 data rows, got {len(rows)}")
    return np.array(rows)


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


def _span(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = text  # _check_span names it as not an integer
    try:
        return _check_span(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _threads(args) -> int:
    """--threads, else SPECTEST_THREADS (read at each run) if set and not empty, else 1."""
    if args.threads is not None:
        return args.threads
    env = os.environ.get("SPECTEST_THREADS", "").strip()
    try:
        return int(env) if env else 1
    except ValueError:
        raise ValueError(f"SPECTEST_THREADS must be an integer, got {env!r}") from None


_KINDS = {"kl": lambda alpha: KL, "j": lambda alpha: J, "chernoff": chernoff}


def _resolve_kind(args) -> Discrepancy:
    return _KINDS[args.kind](args.chernoff_alpha)


def _build_model(args, r: int):
    try:
        return model_from_name(args.hypothesis, r=r, edges=args.edges)
    except ValueError as exc:
        args.error(str(exc))


def _check_edges(args) -> None:
    """The --edges usage errors that need no data; only the range check waits for r."""
    if args.hypothesis != "graphical":
        return
    if args.edges is None:
        args.error("graphical hypothesis needs an edge list")
    try:
        _edge_tokens(args.edges)
    except ValueError as exc:
        args.error(str(exc))


def _cmd_test(args) -> int:
    _check_edges(args)  # before the file is read, so a usage error never waits on it
    sample = ingest_csv(args.input, demean=not args.no_demean)
    if sample.shape[1] < 2:
        raise ValueError(f"{args.input}: a test needs at least 2 series, got {sample.shape[1]}")
    model = _build_model(args, sample.shape[1])
    variant = StatisticVariant(form=args.stat, kind=_resolve_kind(args))
    try:
        report = run_test(sample, model, args.bandwidth, variant, alpha_level=args.alpha)
    except SingularCovariance as exc:  # the separable null's theta, from the file's columns
        raise SingularCovariance(f"{args.input}: {exc}") from None
    document = {
        "command": "test",
        "input": args.input,
        "hypothesis": args.hypothesis,
        "edges": args.edges,
        "variant": variant.form,
        "kind": variant.kind_label,
        "bandwidth": args.bandwidth,
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


def _variants_from(args) -> tuple:
    kind = _resolve_kind(args)
    variants = []
    for token in args.stat.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in ("full", "quadratic", "block"):
            args.error(f"unknown statistic form {token!r}")
        if any(variant.form == token for variant in variants):
            args.error(f"statistic form {token!r} is repeated")
        variants.append(StatisticVariant(form=token, kind=kind))
    if not variants:
        args.error("at least one statistic form is required")
    return tuple(variants)


def _mc_config(args, phi: float) -> McConfig:
    process = benchmark_process(phi)
    model = _build_model(args, process.r)
    return McConfig(
        process=process,
        n=args.n,
        bandwidth=args.bandwidth,
        model=model,
        variants=_variants_from(args),
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


def _cmd_simulate_null(args) -> int:
    config = _mc_config(args, args.phi)
    summaries = null_summary(config, threads=_threads(args))
    rows = summary_rows(config, summaries)
    _emit_table(rows, config_manifest(config, "simulate-null"), args.output)
    return 0


def _cmd_simulate_power(args) -> int:
    null_config = _mc_config(args, args.phi0)
    alt_config = _mc_config(args, args.phi1)
    powers = size_adjusted_power(null_config, alt_config, threads=_threads(args))
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
    flat = WeightKernel.flat(2)  # its constants are exact and do not depend on the span
    sys.stdout.write(f"Cu={_fmt6(flat.cu)} Du={_fmt6(flat.du)} Bu={_fmt6(flat.bu)}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    """The spectest parser; options that several subcommands take are declared once, in parents."""
    design = argparse.ArgumentParser(add_help=False)
    design.add_argument("--hypothesis", default="independence", choices=["independence", "separable", "graphical"])
    design.add_argument("--edges", default=None, help="graphical edge list, 1-based, e.g. 1-2,2-3")
    design.add_argument("--kind", default="kl", choices=_KINDS)
    design.add_argument("--chernoff-alpha", type=float, default=0.5)
    span = design.add_mutually_exclusive_group(required=True)
    span.add_argument("--m", dest="bandwidth", metavar="M", type=_span, help="smoothing span (even)")
    span.add_argument("--cvll", dest="bandwidth", action="store_const", const="cvll",
                      help="select the span by cross validation")
    design.add_argument("--alpha", type=float, default=0.05)
    csv_input = argparse.ArgumentParser(add_help=False)
    csv_input.add_argument("--input", required=True, help="CSV file: header row + numeric rows")
    csv_input.add_argument("--output", default=None)
    csv_input.add_argument("--no-demean", action="store_true", help="skip column mean removal")
    study = argparse.ArgumentParser(add_help=False)
    study.add_argument("--n", type=int, required=True)
    study.add_argument("--stat", default="full,quadratic,block", help="comma-separated subset of full,quadratic,block")
    study.add_argument("--reps", type=int, default=1000)
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--threads", type=int, default=None)
    study.add_argument("--output", default=None)

    parser = argparse.ArgumentParser(prog="spectest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    test = sub.add_parser("test", parents=[csv_input, design], help="run one hypothesis test on a CSV sample")
    test.add_argument("--stat", default="full", choices=["full", "quadratic", "block"])
    test.set_defaults(run=_cmd_test)
    null = sub.add_parser("simulate-null", parents=[design, study], help="null study on the benchmark process")
    null.add_argument("--phi", type=float, default=0.0)
    null.set_defaults(run=_cmd_simulate_null)
    power = sub.add_parser("simulate-power", parents=[design, study], help="power study on the benchmark process")
    power.add_argument("--phi0", type=float, default=0.0, help="coupling under the null")
    power.add_argument("--phi1", type=float, required=True, help="coupling under the alternative")
    power.set_defaults(run=_cmd_simulate_power)
    cv = sub.add_parser("cvll", parents=[csv_input], help="cross-validated bandwidth selection for a CSV sample")
    cv.set_defaults(run=_cmd_cvll)
    kc = sub.add_parser("kernel-constants", help="print the weight-function constants")
    kc.add_argument("--kernel", default="flat", choices=["flat"])
    kc.set_defaults(run=_cmd_kernel_constants)
    for command in sub.choices.values():  # a usage error found after parsing prints its command's usage
        command.set_defaults(error=command.error)
    return parser


PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse's usage errors, found in parsing or after it, exit 2
        if exc.code != 2:
            raise
        return USAGE_EXIT
    except (SpectestError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
