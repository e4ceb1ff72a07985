"""Run the spectest CLI matrix from two source trees and compare the outputs.

    python3 tools/cli_matrix.py --base OLD_TREE --head NEW_TREE [--inputs 'GLOB']

Each tree is a checkout holding src/spectest.  The tool writes ten fixed input
CSVs to a temporary directory, drawn with stdlib random at fixed seeds: nine
1001 x 3 samples of the VAR(1) process of the benchmark's cli_cvll workload,
three each at phi = 0, 0.1 and 0.2, and one collinear file (c = a + b, the
others at phi = 0); --inputs names other CSV files by a glob instead.  Every
input CSV runs `spectest cvll` once and `spectest test` under independence,
separable and two graphical nulls (--edges 1-2,2-3, a chain, and --edges 1-2,
whose separator is empty) with --stat full, block and quadratic plus full with
--kind j and full with --kind chernoff --chernoff-alpha 0.3 (the one path
through the Chernoff log-det), each with --m 40, --m 2 (the shortest span)
and --cvll: 61 runs per file, 610 on the ten fixed files.  Every 3-series
graph is chordal, so none of those runs reaches the covariance-selection
sweeps: the tool also writes one fixed 600 x 4 CSV (stdlib random, seed 7)
and runs `spectest test
--hypothesis graphical --edges 1-2,2-3,3-4,1-4`, a 4-cycle, with the same five
statistics and --m 40, --m 22 (whose smoothing blocks of 23 frequencies tile
the grid exactly) and --cvll, 15 runs, plus `spectest cvll` on it, the one
5 x 5 bordered CVLL elimination, whose 77 spans end in a partial block.  Graphical
nulls on more than four series come next, with the same five statistics: a 6-cycle
(--edges 1-2,2-3,3-4,4-5,5-6,1-6) on a fixed 1024 x 6 CSV with --m 40 and --cvll,
and the graphical benchmark's 5-series chain (--edges 1-2,2-3,3-4,4-5) on a fixed
512 x 5 CSV with --m 32 and --cvll, 20 runs; both CSVs hold VAR(1) samples
(stdlib random, seeds 8 and 9).  Then 32 Monte Carlo runs:
`spectest simulate-null` and `simulate-power` (n = 64, 100 replications, all
three statistic forms) under the four nulls of the per-file runs, with --m 8
and with --cvll, each with --threads 1 and --threads 2.  Then both commands
once more at n = 201 and 300 replications under independence, with --m 30 and
with --cvll, each with --threads 1 and 2: these span several simulation blocks
and cross pipeline-chunk boundaries inside a block, where --cvll selects the
spans of many chunks, one stacked call each.  Then
`simulate-null --kind j` and `simulate-power --kind chernoff --chernoff-alpha
0.3` (n = 64, --m 8), and one `spectest kernel-constants --kernel flat`, the one
CLI path through the quadrature.  Last, 19 usage errors (a missing or doubled
--m/--cvll, an odd span, a span that is not an integer (abc, 1.5), an unknown
or repeated statistic, a graphical null without edges, a missing --phi1 or
--input, an unknown command).  Then `spectest test --m 2`
and `spectest cvll` on each of 20 fixed 20 x 3 CSVs (stdlib random, seed 17)
that hold one odd cell (padded, quoted, with an underscore, a full-width digit,
inf, nan, a word, empty or whitespace only), one blank or whitespace-only line,
a trailing comma or a ragged row, or come with a BOM, CRLF line ends, a header
alone, seven rows, or a header narrower or wider than the data, and on 5 more
that hold a 200000-character cell (over csv's field limit; one of 1s, which
parses to inf, and one finite, which numpy's C reader parses), a byte that is
not UTF-8 or a column of 1.7e308 whose mean overflows, or that keep only the
first column; the one-column CSV also runs `test --m 2` under separable and
graphical (--edges 1-2) nulls: 760 runs on the ten fixed files.

One fresh interpreter per tree imports that tree's package and calls
spectest.cli.main for every run, with stdout and stderr captured.  The report
gives, per group of runs, the number whose exit code, stdout and stderr are
identical and the largest relative difference per JSON field (and per CVLL
score) among the others, and every flip of a decision (reject), of a selected span (m) or
of an exit code.  A group is a command, except that the `test` runs of the
matrix are split by null: independence, separable, chordal graphical (the
chains and --edges 1-2) and cyclic graphical (the 4-cycle and the 6-cycle), so
a change that moves one null's numbers by rounding can show the others
bit-identical.  A run with no stdout whose stderr changes is listed with both
messages.  A simulate run's CSV table and manifest (stderr) are compared
byte for byte; each differing table cell is listed, and one in the size or
power column counts as a flip, as does a table that changes with --threads
within one tree.  A usage error is compared by exit code and stdout only, as
argparse words its stderr; one that does not exit 64 with empty stdout in either
tree counts as a flip.  A run on an odd CSV is compared like any test or cvll
run, except that a changed error message (stderr of a run with no stdout) counts
as a flip there.  An exception that escapes main is recorded in place of the
exit code.  It exits 1 when anything flipped.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HYPOTHESES = (["independence"], ["separable"], ["graphical", "--edges", "1-2,2-3"],
              ["graphical", "--edges", "1-2"])
CYCLE = ["graphical", "--edges", "1-2,2-3,3-4,1-4"]
STATISTICS = (["--stat", "full"], ["--stat", "block"], ["--stat", "quadratic"], ["--stat", "full", "--kind", "j"],
              ["--stat", "full", "--kind", "chernoff", "--chernoff-alpha", "0.3"])
# --m 2 is the shortest span, the smallest block of the flat window sums
BANDWIDTHS = (["--m", "40"], ["--m", "2"], ["--cvll"])
# n//2 + m = 300 + 22 = 14 x 23, so the window sums' blocks tile the 600-row CSV's grid exactly
CYCLE_BANDWIDTHS = (["--m", "40"], ["--m", "22"], ["--cvll"])
# graphical nulls on more than four series: a 6-cycle (cyclic sweeps) and the graphical benchmark's 5-series chain
RING = ["graphical", "--edges", "1-2,2-3,3-4,4-5,5-6,1-6"]
CHAIN = ["graphical", "--edges", "1-2,2-3,3-4,4-5"]
CYCLIC = (CYCLE[-1], RING[-1])  # the edge sets whose covariance selection runs cyclic sweeps
SIMULATIONS = (["simulate-null"], ["simulate-power", "--phi1", "0.3"])
SIMULATION_DESIGN = ["--n", "64", "--reps", "100", "--seed", "11"]
BLOCK_DESIGN = ["--n", "201", "--reps", "300", "--seed", "13"]
# cells and lines besides repr floats: numpy's C reader rejects some that float() takes
ODD_CELLS = (" 1.5 ", '"1"', "1_0", "\uff11", "inf", "nan", "abc", "", "  ")
ODD_LINES = ("", " ", "\t")
KINDS = (["simulate-null", "--kind", "j"], ["simulate-power", "--phi1", "0.3", "--kind", "chernoff",
                                            "--chernoff-alpha", "0.3"])


def write_csv(path: str, rows: list[list[float]]) -> None:
    """A CSV with columns a, b, ... and every value written by repr, so it reads back exactly."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join("abcdefgh"[: len(rows[0])]) + "\n")
        for row in rows:
            handle.write(",".join(repr(value) for value in row) + "\n")


def write_cycle_input(path: str) -> None:
    """A fixed 600 x 4 CSV of standard normals for the 4-cycle runs."""
    rng = random.Random(7)
    write_csv(path, [[rng.gauss(0.0, 1.0) for _ in range(4)] for _ in range(600)])


def var1_rows(a, seed: int, n: int = 1001, burn_in: int = 500) -> list[list[float]]:
    """The last n of burn_in + n steps of x[t] = A x[t - 1] + e[t] from x = 0, e standard normal."""
    rng = random.Random(seed)
    state, rows = [0.0] * len(a), []
    for _ in range(burn_in + n):
        state = [sum(coef * x for coef, x in zip(row, state)) + rng.gauss(0.0, 1.0) for row in a]
        rows.append(state)
    return rows[burn_in:]


def cascade(r: int, ring: bool) -> list[list[float]]:
    """A = 0.5 I + 0.3 on the superdiagonal, with ring also at row r, column 1."""
    return [[0.5 if j == i else 0.3 if j == i + 1 or ring and (i, j) == (r - 1, 0) else 0.0 for j in range(r)]
            for i in range(r)]


def write_inputs(folder: str) -> list[str]:
    """The ten fixed 1001 x 3 input CSVs: VAR(1) with A = [[0.7, phi, 0], [0, -0.5, phi], [0, 0, 0.6]], the
    cli_cvll benchmark's process, at phi = 0, 0.1, 0.2 (seeds 1-9) and one collinear file."""
    paths = [os.path.join(folder, f"cli_input_{i}.csv") for i in range(10)]
    process = [((0.7, phi, 0.0), (0.0, -0.5, phi), (0.0, 0.0, 0.6)) for phi in (0.0, 0.1, 0.2)]
    for i, path in enumerate(paths[:9]):
        write_csv(path, var1_rows(process[i % 3], seed=i + 1))
    write_csv(paths[9], [[a, b, a + b] for a, b, _ in var1_rows(process[0], seed=10)])
    return paths


def write_graph_inputs(folder: str) -> tuple[str, str]:
    """Two fixed CSVs of VAR(1) samples: 1024 x 6 from the ring cascade (seed 8) for the 6-cycle runs, and
    512 x 5 from the chain cascade (seed 9), the graphical benchmark's process, for the 5-series chain runs."""
    ring, chain = os.path.join(folder, "ring_input.csv"), os.path.join(folder, "chain_input.csv")
    write_csv(ring, var1_rows(cascade(6, ring=True), seed=8, n=1024))
    write_csv(chain, var1_rows(cascade(5, ring=False), seed=9, n=512))
    return ring, chain


def write_odd_inputs(folder: str) -> list[str]:
    """The 25 odd CSVs: a 20 x 3 sample (stdlib random, seed 17) with one odd token, byte or change of shape each."""
    rng = random.Random(17)
    lines = ["a,b,c"] + [",".join(repr(rng.gauss(0.0, 1.0)) for _ in range(3)) for _ in range(20)]
    texts = []
    for cell in ODD_CELLS:
        cells = lines[5].split(",")
        cells[1] = cell
        texts.append(lines[:5] + [",".join(cells)] + lines[6:])
    texts += [lines[:6] + [line] + lines[6:] for line in ODD_LINES]
    texts += [lines[:5] + [lines[5] + ","] + lines[6:], lines[:7] + [lines[7].rsplit(",", 1)[0]] + lines[8:]]
    texts = ["\n".join(text) + "\n" for text in texts]
    texts += ["\ufeff" + texts[0], "\r\n".join(lines) + "\r\n", lines[0] + "\n", "\n".join(lines[:8]) + "\n",
              "\n".join(["a,b"] + lines[1:]) + "\n", "\n".join(["a,b,c,d"] + lines[1:]) + "\n"]
    # a cell over csv's 131072-character field limit, a column of 1.7e308 whose mean overflows, and
    # (texts[2] holds the cell 1_0) a byte that is not UTF-8
    huge = "\n".join(lines[:1] + [",".join([a, "1.7e308", c]) for a, _, c in (line.split(",") for line in lines[1:])])
    texts = [text.encode("utf-8") for text in texts + [texts[2].replace("1_0", "1" * 200_000), huge + "\n"]]
    texts.append(texts[2].replace(b"1_0", b"\xff"))
    # a finite cell over the field limit, which numpy's C reader parses, and the first column alone
    texts += [texts[2].replace(b"1_0", b"0." + b"0" * 200_000 + b"1"),
              "".join(line.split(",")[0] + "\n" for line in lines).encode("utf-8")]
    paths = [os.path.join(folder, f"odd_input_{i}.csv") for i in range(len(texts))]
    for path, body in zip(paths, texts):
        with open(path, "wb") as handle:
            handle.write(body)
    return paths


def odd_runs(paths: list[str]) -> list[list[str]]:
    """`test --m 2` and `cvll` on every odd CSV, and on the last, one-column CSV `test --m 2` under the other nulls."""
    runs = [argv for path in paths for argv in (["test", "--input", path, "--m", "2"], ["cvll", "--input", path])]
    return runs + [["test", "--input", paths[-1], "--m", "2", "--hypothesis", *hypothesis]
                   for hypothesis in (["separable"], ["graphical", "--edges", "1-2"])]


def matrix(inputs: list[str], cycle_input: str, graph_inputs: tuple[str, str]) -> list[list[str]]:
    """Every argv of the comparison, in a fixed order."""
    runs = []
    for path in inputs:
        runs.append(["cvll", "--input", path])
        for hypothesis in HYPOTHESES:
            for statistic in STATISTICS:
                for bandwidth in BANDWIDTHS:
                    runs.append(["test", "--input", path, "--hypothesis", *hypothesis, *statistic, *bandwidth])
    for statistic in STATISTICS:
        for bandwidth in CYCLE_BANDWIDTHS:
            runs.append(["test", "--input", cycle_input, "--hypothesis", *CYCLE, *statistic, *bandwidth])
    runs.append(["cvll", "--input", cycle_input])
    for path, hypothesis, span in zip(graph_inputs, (RING, CHAIN), ("40", "32")):
        for statistic in STATISTICS:
            for bandwidth in (["--m", span], ["--cvll"]):
                runs.append(["test", "--input", path, "--hypothesis", *hypothesis, *statistic, *bandwidth])
    for command in SIMULATIONS:
        for hypothesis in HYPOTHESES:
            for bandwidth in (["--m", "8"], ["--cvll"]):
                for threads in ("1", "2"):
                    runs.append([*command, *SIMULATION_DESIGN, "--hypothesis", *hypothesis, *bandwidth,
                                 "--threads", threads])
        for bandwidth in (["--m", "30"], ["--cvll"]):
            for threads in ("1", "2"):
                runs.append([*command, *BLOCK_DESIGN, *bandwidth, "--threads", threads])
    for command in KINDS:
        runs.append([*command, *SIMULATION_DESIGN, "--m", "8", "--threads", "1"])
    runs.append(["kernel-constants", "--kernel", "flat"])
    return runs


def usage_errors(path: str) -> list[list[str]]:
    """Argvs that must exit 64 with empty stdout; path is any readable CSV."""
    test = ["test", "--input", path]
    null = ["simulate-null", "--n", "64"]
    return [
        [], ["test"], ["frobnicate"], ["cvll"], test, [*test, "--m", "7"], [*test, "--m", "abc"],
        [*test, "--m", "1.5"], [*test, "--m", "8", "--cvll"],
        [*test, "--m", "8", "--stat", "banana"], [*test, "--m", "8", "--hypothesis", "graphical"],
        null, [*null, "--m", "8", "--cvll"], [*null, "--m", "7"], [*null, "--m", "8", "--stat", "banana"],
        [*null, "--m", "8", "--stat", "full,full"],
        [*null, "--m", "8", "--hypothesis", "graphical"], ["simulate-power", "--n", "64", "--m", "8"],
        ["simulate-power", "--phi1", "0.3", "--n", "64", "--cvll", "--m", "8"],
    ]


def work(tree: str, runs: list[list[str]]) -> list[dict]:
    """Run every argv through tree's spectest.cli.main in this interpreter."""
    sys.path.insert(0, os.path.join(tree, "src"))
    from spectest import cli

    results = []
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # what would end the command with a traceback
                code = f"uncaught {type(exc).__name__}: {exc}"
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


def collect(tree: str, runs: list[list[str]]) -> list[dict]:
    """Start one interpreter for tree and return its results."""
    if not os.path.isfile(os.path.join(tree, "src", "spectest", "__init__.py")):
        raise SystemExit(f"no src/spectest under {tree}")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", tree],
        input=json.dumps(runs), capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout)


def relative(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def selected_span(result: dict):
    """The span a run chose: the report's m, or cvll's 'selected m = ...' line."""
    if result["stdout"].startswith("{"):
        return json.loads(result["stdout"])["m"]
    for line in result["stderr"].splitlines():
        if line.startswith("selected m = "):
            return int(line.split("=")[1])
    return None


def table_cells(stdout: str) -> dict:
    """(variant, column) -> cell text of a simulate run's CSV table."""
    lines = stdout.splitlines()
    if not lines:
        return {}
    header = lines[0].split(",")
    return {(row.split(",")[0], col): cell for row in lines[1:] for col, cell in zip(header, row.split(","))}


def thread_flips(runs: list[list[str]], results: list[dict], tree: str) -> list[str]:
    """Simulate runs whose output changes with --threads alone."""
    first, flips = {}, []
    for argv, result in zip(runs, results):
        if argv[-2:-1] == ["--threads"]:
            key = tuple(argv[:-1])  # the argv without the thread count
            if key in first and first[key] != result:
                flips.append(f"{tree}: output depends on --threads: {' '.join(argv)}")
            first.setdefault(key, result)
    return flips


def group_of(argv: list[str], usage: list[list[str]], odd: list[list[str]]) -> str:
    """The report group of a run: usage, odd-csv, `test` and its null, or the command."""
    if argv in usage or argv in odd:
        return "usage" if argv in usage else "odd-csv"
    if argv[0] != "test":
        return argv[0]
    null = argv[argv.index("--hypothesis") + 1]
    if null == "graphical":
        null = "cyclic graphical" if argv[argv.index("--edges") + 1] in CYCLIC else "chordal graphical"
    return f"test {null}"


def compare(runs: list[list[str]], base: list[dict], head: list[dict], usage: list[list[str]],
            odd: list[list[str]]) -> int:
    groups = [group_of(argv, usage, odd) for argv in runs]
    identical, worst, cells, flips = dict.fromkeys(groups, 0), {}, [], []
    flips += thread_flips(runs, base, "base") + thread_flips(runs, head, "head")

    def note(group: str, field: str, a: float, b: float, argv: list[str]) -> None:
        diff, key = relative(a, b), (group, field)
        if diff > worst.get(key, (-1.0, None))[0]:
            worst[key] = (diff, argv)

    for argv, group, old, new in zip(runs, groups, base, head):
        label = " ".join(argv)
        if group == "usage":
            for tree, result in (("base", old), ("head", new)):
                if (result["code"], result["stdout"]) != (64, ""):
                    flips.append(f"{tree}: usage error exits {result['code']} or writes stdout: {label}")
            identical[group] += (old["code"], old["stdout"]) == (new["code"], new["stdout"])
            continue
        if old == new:
            identical[group] += 1
            continue
        if old["code"] != new["code"]:
            flips.append(f"exit code {old['code']} -> {new['code']}: {label}")
        if not old["stdout"] and old["stderr"] != new["stderr"]:
            # on an odd CSV the error message is the outcome under test
            (flips if group == "odd-csv" else cells).append(
                f"stderr {old['stderr'].strip()!r} -> {new['stderr'].strip()!r}: {label}")
        if selected_span(old) != selected_span(new):
            flips.append(f"m {selected_span(old)} -> {selected_span(new)}: {label}")
        if old["stdout"].startswith("{") and new["stdout"].startswith("{"):
            a, b = json.loads(old["stdout"]), json.loads(new["stdout"])
            if a["reject"] != b["reject"]:
                flips.append(f"reject {a['reject']} -> {b['reject']}: {label}")
            for field, value in a.items():
                if isinstance(value, float) and isinstance(b.get(field), float):
                    note(group, field, value, b[field], argv)
        elif argv[0] == "cvll":
            for line_a, line_b in zip(old["stdout"].splitlines()[1:], new["stdout"].splitlines()[1:]):
                note(group, "cvll score", float(line_a.split(",")[1]), float(line_b.split(",")[1]), argv)
        elif argv[0].startswith("simulate"):
            cells_a, cells_b = table_cells(old["stdout"]), table_cells(new["stdout"])
            for key in sorted(set(cells_a) | set(cells_b)):
                if cells_a.get(key) != cells_b.get(key):
                    change = f"{key[0]} {key[1]} {cells_a.get(key)} -> {cells_b.get(key)}: {label}"
                    (flips if key[1] in ("size", "power") else cells).append(change)
            if old["stderr"] != new["stderr"]:
                cells.append(f"manifest differs: {label}")

    for group, count in sorted(identical.items()):
        total = groups.count(group)
        print(f"spectest {group}: {total} runs, {count} identical, {total - count} differing")
        for (_, field), (diff, argv) in sorted(item for item in worst.items() if item[0][0] == group):
            where = f" ({' '.join(argv)})" if diff else ""
            print(f"  {field}: largest relative difference {diff:.3g}{where}")
    for cell in cells:
        print(f"  CHANGED {cell}")
    for flip in flips:
        print(f"  FLIP {flip}")
    if not flips:
        print("no decision, span or exit code flips")
    return 1 if flips else 0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        json.dump(work(sys.argv[2], json.load(sys.stdin)), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="source tree of the reference version")
    parser.add_argument("--head", required=True, help="source tree of the version under test")
    parser.add_argument("--inputs", help="glob of input CSV files to run instead of the ten fixed ones")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        if args.inputs is None:
            inputs = write_inputs(scratch)
        else:
            inputs = sorted(os.path.abspath(path) for path in glob.glob(args.inputs))
            if not inputs:
                parser.error(f"no input CSV files match {args.inputs}")
        cycle_input = os.path.join(scratch, "cycle_input.csv")
        write_cycle_input(cycle_input)
        usage = usage_errors(cycle_input)
        odd = odd_runs(write_odd_inputs(scratch))
        runs = matrix(inputs, cycle_input, write_graph_inputs(scratch)) + usage + odd
        base = collect(os.path.abspath(args.base), runs)
        head = collect(os.path.abspath(args.head), runs)
    return compare(runs, base, head, usage, odd)


if __name__ == "__main__":
    sys.exit(main())
