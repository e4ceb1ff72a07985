"""Tests for the command-line interface and CSV ingestion."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spectest.simulation
from oracles import ingest_by_cell
from spectest.cli import ingest_csv, main
from spectest.errors import NonNumeric, ParseError, RaggedRows, SingularCovariance, SpectestError, TooShort
from spectest.hypotheses import SeparableModel


def write_noise_csv(path, n=120, r=3, seed=5, header=None):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, r))
    names = header or [f"x{i + 1}" for i in range(r)]
    lines = [",".join(names)]
    for row in data:
        lines.append(",".join(f"{v:.10f}" for v in row))
    path.write_text("\n".join(lines) + "\n")
    return data


# ------------------------------------------------------------- ingestion


def test_ingest_roundtrip_and_demeaning(tmp_path):
    csv_path = tmp_path / "a.csv"
    data = write_noise_csv(csv_path)
    demeaned = ingest_csv(str(csv_path))
    assert demeaned.shape == (120, 3)
    assert np.allclose(demeaned.mean(axis=0), 0.0, atol=1e-12)
    raw = ingest_csv(str(csv_path), demean=False)
    assert np.allclose(raw, data, atol=1e-9)


def test_ingest_names_ragged_row(tmp_path):
    csv_path = tmp_path / "ragged.csv"
    lines = ["a,b"] + ["0.1,0.2"] * 60
    lines[39] = "0.1"  # file row 40 loses a cell
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RaggedRows, match="row 40"):
        ingest_csv(str(csv_path))


def test_ingest_names_bad_cell(tmp_path):
    csv_path = tmp_path / "bad.csv"
    lines = ["alpha,beta"] + ["0.5,1.5"] * 20
    lines[7] = "0.5,oops"
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonNumeric, match=r"row 8, column 2 \(beta\)"):
        ingest_csv(str(csv_path))


def test_ingest_rejects_short_and_empty_files(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("a,b\n1,2\n3,4\n")
    with pytest.raises(TooShort):
        ingest_csv(str(short))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(TooShort):
        ingest_csv(str(empty))
    headless = tmp_path / "headless.csv"
    headless.write_text("\n1,2\n3,4\n")
    with pytest.raises(ParseError) as caught:
        ingest_csv(str(headless))
    assert type(caught.value) is ParseError and str(caught.value) == f"{headless}: header row is empty"


def test_ingest_rejects_non_finite(tmp_path):
    csv_path = tmp_path / "inf.csv"
    lines = ["a,b"] + ["0.5,1.5"] * 20
    lines[3] = "inf,1.0"
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonNumeric):
        ingest_csv(str(csv_path))


# Cells besides %.17g floats (padded, quoted, underscored, full-width, non-finite,
# non-numeric, empty, blank) and lines that are empty or whitespace only.
ODD_CELLS = [" 1.5 ", '"1"', "1_0", "\uff11", "inf", "nan", "abc", "", "  "]
ODD_LINES = ["", " ", "\t"]


@st.composite
def csv_texts(draw):
    """CSV text around a header of r names: %.17g rows, short or ragged bodies, odd cells and lines."""
    r = draw(st.integers(1, 3))
    width = draw(st.sampled_from([r, r, r, r + 1, max(r - 1, 1)]))  # the body may not match the header
    n = draw(st.sampled_from([0, 7, 8, 12]))
    number = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.17g" % x)
    lines = [",".join("abc"[:r])] + [",".join(draw(st.lists(number, min_size=width, max_size=width)))
                                      for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(lines)))
        change = draw(st.sampled_from(["cell", "line", "trailing comma", "ragged"]))
        if change == "line" or at == len(lines):
            lines.insert(at, draw(st.sampled_from(ODD_LINES)))
        elif change == "cell":
            cells = lines[at].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(ODD_CELLS))
            lines[at] = ",".join(cells)
        elif change == "trailing comma":
            lines[at] += ","
        else:
            lines[at] = lines[at].rsplit(",", 1)[0] if "," in lines[at] else lines[at] + ",0"
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


def ingest_outcome(read, path, demean):
    try:
        sample = read(path, demean=demean)
    except (SpectestError, ValueError) as exc:  # what the CLI reports; its type and message are the outcome
        return type(exc), str(exc)
    return sample.shape, sample.tobytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts(), demean=st.booleans())
def test_ingest_matches_the_cell_reader(tmp_path, text, demean):
    # the C reader's array, or the fallback's error, must be what the per-cell reader gives
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode("utf-8"))
    assert ingest_outcome(ingest_csv, str(path), demean) == ingest_outcome(ingest_by_cell, str(path), demean)


# --------------------------------------------------------------- test cmd


def test_cli_test_happy_path(tmp_path, capsys):
    csv_path = tmp_path / "w.csv"
    write_noise_csv(csv_path, n=200, r=3)
    code = main(["test", "--input", str(csv_path), "--m", "16"])
    out, err = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "test"
    assert doc["hypothesis"] == "independence"
    assert doc["variant"] == "full"
    assert doc["kind"] == "kl"
    assert doc["m"] == 16
    assert doc["n"] == 200
    assert doc["demean"] is True
    assert 0.0 <= doc["p_value"] <= 1.0
    assert isinstance(doc["reject"], bool)
    assert err.startswith(("REJECT,", "RETAIN,"))
    assert "T-hat" in err and "p =" in err and "m = 16" in err


def test_cli_test_is_byte_deterministic(tmp_path, capsys):
    csv_path = tmp_path / "w.csv"
    write_noise_csv(csv_path, n=150, r=2, seed=9)
    main(["test", "--input", str(csv_path), "--m", "12"])
    first = capsys.readouterr().out
    main(["test", "--input", str(csv_path), "--m", "12"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_test_output_file(tmp_path, capsys):
    csv_path = tmp_path / "w.csv"
    write_noise_csv(csv_path, n=128, r=2, seed=11)
    out_path = tmp_path / "report.json"
    code = main(["test", "--input", str(csv_path), "--m", "12", "--output", str(out_path)])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["m"] == 12
    assert err.startswith(("REJECT,", "RETAIN,"))


def test_cli_test_cvll_and_variants(tmp_path, capsys):
    csv_path = tmp_path / "w.csv"
    write_noise_csv(csv_path, n=128, r=2, seed=13)
    code = main(["test", "--input", str(csv_path), "--cvll", "--stat", "block", "--kind", "j"])
    out, _ = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["bandwidth"] == "cvll"
    assert doc["variant"] == "block"
    assert doc["kind"] == "j"
    assert doc["m"] >= 2


def test_cli_test_graphical(tmp_path, capsys):
    csv_path = tmp_path / "w.csv"
    write_noise_csv(csv_path, n=200, r=3, seed=15)
    code = main(
        ["test", "--input", str(csv_path), "--m", "16",
         "--hypothesis", "graphical", "--edges", "1-2,2-3"]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["hypothesis"] == "graphical"


def write_collinear_csv(path, n=200, seed=5):
    """Third column is the sum of the first two, so every spectral matrix is singular."""
    x = np.random.default_rng(seed).standard_normal((n, 2))
    np.savetxt(path, np.column_stack([x, x.sum(axis=1)]), fmt="%.17g", delimiter=",",
               header="a,b,c", comments="")


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-finite number {constant} in JSON output")
    return json.loads(text, parse_constant=refuse)


def test_cli_test_constant_column_forces_rejection(tmp_path, capsys):
    csv_path = tmp_path / "const.csv"
    lines = ["a,b"] + [f"5.0,{v:.6f}" for v in np.random.default_rng(3).standard_normal(64)]
    csv_path.write_text("\n".join(lines) + "\n")
    collinear = tmp_path / "collinear.csv"
    write_collinear_csv(collinear)
    for path, m in ((csv_path, "8"), (collinear, "20")):
        code = main(["test", "--input", str(path), "--m", m])
        out, err = capsys.readouterr()
        doc = strict_json(out)
        assert code == 2
        assert doc["forced_reject"] is True
        assert doc["nonpd_count"] > 0
        assert doc["p_value"] == 0.0
        assert err.startswith("REJECT,")
        # the truncated statistic is not reported as if it were evidence
        assert f"forced by {doc['nonpd_count']} non-positive-definite frequencies" in err
        assert "T-hat" not in err


@pytest.mark.filterwarnings("error")  # a warning would print on stderr
@pytest.mark.parametrize(
    "hypothesis, units, m",
    [("independence", [1.0, 1.0, 1e-160], "8"), ("separable", [1e150, 1e150, 1e150], "8")],
    ids=["column-in-1e-160", "separable-sample-in-1e150"],
)
def test_cli_test_report_does_not_depend_on_units(tmp_path, capsys, hypothesis, units, m):
    # A column recorded in units of 1e-160 used to fail the PD screen at every frequency (exit 2), and
    # a sample in units of 1e150 overflowed the separable constants (exit 1, "eta must be finite").
    data = np.random.default_rng(29).standard_normal((64, 3))
    docs = []
    for name, scale in (("unit.csv", 1.0), ("scaled.csv", np.array(units))):
        path = tmp_path / name
        np.savetxt(path, data * scale, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
        code = main(["test", "--input", str(path), "--m", m, "--hypothesis", hypothesis])
        out, _ = capsys.readouterr()
        assert code == 0
        docs.append(strict_json(out))
    unit, scaled = docs
    assert scaled["nonpd_count"] == 0 and scaled["reject"] == unit["reject"]
    for key in ("raw", "standardized", "p_value", "eta_hat", "sigma2_hat"):
        assert scaled[key] == pytest.approx(unit[key], rel=1e-10)


def test_cli_data_errors_exit_one(tmp_path, capsys):
    ragged = tmp_path / "r.csv"
    lines = ["a,b"] + ["0.1,0.2"] * 60
    lines[39] = "0.1"
    ragged.write_text("\n".join(lines) + "\n")
    assert main(["test", "--input", str(ragged), "--m", "8"]) == 1
    assert "row 40" in capsys.readouterr().err
    assert main(["test", "--input", str(tmp_path / "missing.csv"), "--m", "8"]) == 1
    assert "error" in capsys.readouterr().err
    # no span of the CVLL grid is usable on collinear columns
    collinear = tmp_path / "collinear.csv"
    write_collinear_csv(collinear)
    for argv in (["cvll", "--input", str(collinear)], ["test", "--input", str(collinear), "--cvll"]):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: no span in the grid")


@pytest.mark.filterwarnings("error")  # a warning would print on stderr
def test_cli_names_a_cell_over_the_csv_field_limit(tmp_path, capsys):
    csv_path = tmp_path / "long.csv"
    lines = ["a,b"] + ["0.5,1.5"] * 20
    # numpy's C reader parses the finite cell, but the cell reader and its oracle reject both, and so must ingest
    for cell in ("1" * 200_000, "0." + "0" * 200_000 + "1"):
        lines[5] = "0.5," + cell  # file row 6
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(csv.Error, match=r"field larger than field limit \(131072\)"):
            ingest_by_cell(str(csv_path))
        for argv in (["test", "--input", str(csv_path), "--m", "2"], ["cvll", "--input", str(csv_path)]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: {csv_path}: row 6: field larger than field limit (131072)\n"
    lines[0] = "a," + "b" * 200_000
    csv_path.write_text("\n".join(lines) + "\n")
    assert main(["cvll", "--input", str(csv_path)]) == 1
    assert capsys.readouterr().err == f"error: {csv_path}: row 1: field larger than field limit (131072)\n"


@pytest.mark.filterwarnings("error")  # a warning would print on stderr
def test_cli_test_needs_two_series(tmp_path, capsys):
    # every null fails alike, after ingest and before the model is built; cvll still scores one series
    csv_path = tmp_path / "one.csv"
    csv_path.write_text("a\n" + "".join(f"{v!r}\n" for v in np.random.default_rng(2).standard_normal(64).tolist()))
    for hypothesis in (["independence"], ["separable"], ["graphical", "--edges", "1-2"]):
        assert main(["test", "--input", str(csv_path), "--m", "8", "--hypothesis", *hypothesis]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {csv_path}: a test needs at least 2 series, got 1\n"
    assert main(["cvll", "--input", str(csv_path)]) == 0


@pytest.mark.filterwarnings("error")  # a warning would print on stderr
def test_separable_null_refuses_collinear_columns(tmp_path, capsys):
    collinear = tmp_path / "collinear.csv"
    write_collinear_csv(collinear)
    with pytest.raises(SingularCovariance, match="sample second-moment matrix is not positive definite"):
        SeparableModel().estimate_theta(ingest_csv(str(collinear)))
    assert main(["test", "--input", str(collinear), "--m", "20", "--hypothesis", "separable"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {collinear}: sample second-moment matrix is not positive definite\n"


@pytest.mark.filterwarnings("error")  # a warning would print on stderr
def test_cli_names_the_offset_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    csv_path = tmp_path / "latin.csv"
    body = "a,b\n" + "0.5,1.5\n" * 20
    csv_path.write_bytes(b"\xef\xbb\xbf" + body.encode() + b"0.5,\xff\n")
    assert main(["test", "--input", str(csv_path), "--m", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    offset = 3 + len(body) + 4  # the BOM counts
    assert err == f"error: {csv_path}: byte {offset}: not UTF-8 (invalid start byte)\n"


@pytest.mark.filterwarnings("error")  # a warning would print on stderr
def test_cli_names_a_column_whose_demeaning_overflows(tmp_path, capsys):
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text("a,big\n" + "0.5,1.7e308\n" * 40)
    assert main(["test", "--input", str(csv_path), "--m", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {csv_path}: column 2 (big): demeaning overflows the float range\n"
    # a finite mean keeps its bits
    csv_path.write_text("a,big\n" + "".join(f"{i},{1e306 * (i % 3)}\n" for i in range(40)))
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert ingest_csv(str(csv_path)).tobytes() == (data - data.mean(axis=0, keepdims=True)).tobytes()


# ------------------------------------------------------------ usage errors


def test_cli_usage_errors_exit_64(tmp_path, capsys):
    csv_path = tmp_path / "w.csv"
    write_noise_csv(csv_path, n=64, r=2)
    cases = [
        [],
        ["test"],
        ["test", "--input", str(csv_path)],  # neither --m nor --cvll
        ["test", "--input", str(csv_path), "--m", "7"],  # odd span
        ["test", "--input", str(csv_path), "--m", "8", "--cvll"],  # both
        ["test", "--input", str(csv_path), "--m", "8", "--stat", "banana"],
        ["test", "--input", str(csv_path), "--m", "8", "--hypothesis", "graphical"],  # no edges
        ["frobnicate"],
        ["simulate-null", "--n", "64"],  # neither --m nor --cvll
        ["simulate-null", "--n", "64", "--m", "8", "--cvll"],  # both
        ["simulate-power", "--phi1", "0.3", "--n", "64"],
        ["simulate-power", "--phi1", "0.3", "--n", "64", "--m", "8", "--cvll"],
        ["simulate-null", "--n", "64", "--m", "7"],  # odd span
        ["simulate-null", "--n", "64", "--m", "8", "--stat", "banana"],
        ["simulate-null", "--n", "64", "--m", "8", "--stat", ","],  # no form at all
        ["simulate-null", "--n", "64", "--m", "8", "--hypothesis", "graphical"],  # no edges
        ["simulate-power", "--n", "64", "--m", "8"],  # no --phi1
        ["cvll"],  # no --input
        ["cvll", "--input", str(csv_path), "--m", "8"],  # cvll takes no span
    ]
    for argv in cases:
        assert main(argv) == 64, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert "error: " in err, argv
    main(["test", "--input", str(csv_path)])
    assert capsys.readouterr().err.endswith("error: one of the arguments --m --cvll is required\n")
    main(["simulate-null", "--n", "64", "--m", "8", "--cvll"])
    assert capsys.readouterr().err.endswith("error: argument --cvll: not allowed with argument --m\n")


@pytest.mark.parametrize("span", ["0", "-2", "7"])
@pytest.mark.parametrize("command", [["test", "--input"], ["simulate-null", "--n", "64", "--output"]])
def test_cli_checks_the_span_before_any_file(tmp_path, capsys, command, span):
    # the argparse type is the library's span check: its message, exit 64, and no file read or written
    missing = tmp_path / "missing.csv"
    assert main([*command, str(missing), "--m", span]) == 64
    out, err = capsys.readouterr()
    assert out == "" and not missing.exists()
    assert err.endswith(f"error: argument --m: span m must be even and >= 2, got {span}\n")


def test_cli_edge_usage_errors_come_before_the_file(tmp_path, capsys):
    # --edges errors that need no data exit 64 whether or not the file can be read;
    # the range check needs r, so it waits for the file
    missing = str(tmp_path / "missing.csv")
    readable = tmp_path / "w.csv"
    write_noise_csv(readable, n=64, r=3)
    for path in (missing, str(readable)):
        for edges, message in (([], "graphical hypothesis needs an edge list"),
                               (["--edges", "1-x"], "bad edge token '1-x': indices must be integers"),
                               (["--edges", "1-2-3"], "bad edge token '1-2-3', expected like '1-2'")):
            assert main(["test", "--input", path, "--m", "8", "--hypothesis", "graphical", *edges]) == 64
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("usage: spectest test ")
            assert err.endswith(f"spectest test: error: {message}\n")
    argv = ["--m", "8", "--hypothesis", "graphical", "--edges", "1-4"]
    assert main(["test", "--input", str(readable), *argv]) == 64
    assert capsys.readouterr().err.endswith("error: edge '1-4' out of range for r = 3\n")
    assert main(["test", "--input", missing, *argv]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2]")
    assert main(["simulate-null", "--n", "64", "--m", "8", "--stat", "banana"]) == 64
    assert capsys.readouterr().err.startswith("usage: spectest simulate-null ")


# ---------------------------------------------------------------- others


def test_cli_kernel_constants_line(capsys):
    assert main(["kernel-constants"]) == 0
    out, _ = capsys.readouterr()
    assert out == "Cu=0.5 Du=0.333333 Bu=1.0\n"


def test_runtime_imports_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, spectest, spectest.cli\n"
        "assert spectest.cli.main(['kernel-constants']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines() == ["Cu=0.5 Du=0.333333 Bu=1.0", "[]"]


def test_cli_cvll_command(tmp_path, capsys):
    csv_path = tmp_path / "w.csv"
    write_noise_csv(csv_path, n=96, r=2, seed=21)
    code = main(["cvll", "--input", str(csv_path)])
    out, err = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,score"
    assert len(lines) > 2
    assert err.startswith("selected m = ")
    chosen = int(err.split("=")[1])
    assert str(chosen) in {line.split(",")[0] for line in lines[1:]}


def test_cli_simulate_null(tmp_path, capsys):
    out_path = tmp_path / "null.csv"
    code = main(
        ["simulate-null", "--n", "64", "--m", "8", "--reps", "100",
         "--seed", "3", "--output", str(out_path)]
    )
    _, err = capsys.readouterr()
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "variant,n,m,stat,mean,var,skew,kurt,q95,size"
    assert len(lines) == 4  # full, quadratic, block
    manifest = json.loads((tmp_path / "null.csv.manifest.json").read_text())
    assert manifest["seed"] == 3
    assert "content_hash" in manifest


def test_cli_simulate_null_stdout_and_manifest_on_stderr(capsys):
    code = main(["simulate-null", "--n", "64", "--m", "8", "--reps", "100",
                 "--stat", "full", "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out.splitlines()[0] == "variant,n,m,stat,mean,var,skew,kurt,q95,size"
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["config"]["command"] == "simulate-null"


def test_cli_simulate_power(tmp_path, capsys):
    out_path = tmp_path / "power.csv"
    code = main(
        ["simulate-power", "--phi1", "0.8", "--n", "64", "--m", "8",
         "--reps", "100", "--seed", "7", "--stat", "full", "--output", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "variant,n,m,stat,mean,var,skew,kurt,q95,power"
    row = lines[1].split(",")
    assert row[0] == "full"
    assert 0.0 <= float(row[-1]) <= 1.0
    manifest = json.loads((tmp_path / "power.csv.manifest.json").read_text())
    assert manifest["null_phi"] == 0.0


def test_cli_threads_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPECTEST_THREADS", "2")
    code = main(["simulate-null", "--n", "64", "--m", "8", "--reps", "100",
                 "--stat", "full", "--seed", "1"])
    out, _ = capsys.readouterr()
    assert code == 0
    monkeypatch.delenv("SPECTEST_THREADS")
    main(["simulate-null", "--n", "64", "--m", "8", "--reps", "100",
          "--stat", "full", "--seed", "1"])
    out_serial, _ = capsys.readouterr()
    assert out == out_serial


def test_cli_simulate_rejects_a_bad_design_before_any_work(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a replication was simulated before the design was checked")

    monkeypatch.setattr(spectest.simulation, "_simulate_stack", refuse)
    code = main(["simulate-null", "--n", "101", "--m", "60", "--reps", "100", "--threads", "2"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: span m = 60 must satisfy m < n/2 = 50.5\n"
    code = main(["simulate-power", "--phi1", "0.3", "--n", "6", "--cvll", "--reps", "100", "--threads", "2"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: need n >= 8, got 6\n")
    code = main(["simulate-null", "--n", "64", "--m", "8", "--reps", "100", "--alpha", "1.5", "--threads", "2"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: alpha_level must lie in (0, 1), got 1.5\n")
