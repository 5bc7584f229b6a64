"""End-to-end command-line behaviour."""

from __future__ import annotations

import contextlib
import csv
import io
import multiprocessing
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import intsplits
from conftest import (
    E,
    correct_pipeline_case,
    plan_preserves_value,
    quantified_chain,
    reference_value_of_formula,
)
from intsplits import cli, splitter
from intsplits.cli import main
from intsplits.merger import RESULTS_HEADER, result_row

FIG1_TEXT = (
    "cs int [1 2] <3\ncs int [3 4] <3\n"
    "p cnf 4 4\na 1 2 0\ne 3 4 0\n-1 3 0\n1 -3 0\n-2 4 0\n2 -4 0\n"
)

TRIPLE_19_TEXT = (
    "cs int <19\ncs int <19\ncs int <19\n"
    "p cnf 15 2\n"
    "e 1 2 3 4 5 0\na 6 7 8 9 10 0\ne 11 12 13 14 15 0\n"
    "1 -6 11 0\n2 -7 12 0\n"
)

PHI1_TEXT = "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n"
PHI2_TEXT = "p cnf 2 2\ne 2 0\na 1 0\n1 2 0\n-1 -2 0\n"


@pytest.fixture
def fig1(tmp_path):
    path = tmp_path / "fig1.qdimacs"
    path.write_text(FIG1_TEXT)
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def test_split_run_merge_pipeline(fig1, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    files = sorted(p.name for p in out.iterdir())
    assert "plan.csv" in files
    assert len([name for name in files if name.endswith(".qdimacs")]) == 9

    assert run_cli("run", out) == 0
    assert (out / "results.csv").exists()

    capsys.readouterr()
    assert run_cli("merge", fig1, out, "--sequential-time", 9) == 0
    stdout = capsys.readouterr().out
    assert "final_result=TRUE" in stdout
    assert "subproblems_with=9" in stdout
    assert "subproblems_without=16" in stdout
    assert (out / "certificate.txt").exists()
    assert (out / "merge_report.txt").exists()


def _prefix_free_case(rng: random.Random) -> tuple[intsplits.Formula, int]:
    """A prefix-free formula, with existential annotations, and a depth
    whose intsplit plan keeps its truth value, as a plain split always does."""
    for _ in range(50):
        formula, chosen = correct_pipeline_case(rng, max_vars=10)
        annotations = tuple(
            intsplits.AnnotatedQuantifier(E, aq.bitvector, aq.constraints) for aq in formula.annotations
        )
        dimacs = intsplits.Formula(formula.matrix, (), annotations)
        with contextlib.suppress(intsplits.EmptyPlanError):
            if plan_preserves_value(dimacs, intsplits.plan(dimacs, chosen.requested_depth)):
                return dimacs, chosen.requested_depth
    raise AssertionError("could not build a prefix-free pipeline case")


@pytest.mark.parametrize("mode", [(), ("--no-intsplits",)], ids=["intsplit", "plain"])
def test_pipeline_verdict_equals_the_reference_semantics(mode, tmp_path, capsys):
    # The reference in conftest shares no code with the oracle that `run` uses.
    rng = random.Random(20261019)
    cases = [correct_pipeline_case(rng, max_vars=10) for _ in range(12)]
    cases = [(formula, chosen.requested_depth) for formula, chosen in cases]
    # Prefix-free ones, whose split variables may occur in unit lines only.
    cases.append((intsplits.parse("cs int [1 2] <3\np cnf 3 1\n3 0\n"), 2))
    cases += [_prefix_free_case(rng) for _ in range(5)]
    for case, (formula, depth) in enumerate(cases):
        path = tmp_path / f"case{case}.qdimacs"
        path.write_text(intsplits.write(formula))
        out = tmp_path / f"out{case}"
        assert run_cli("split", path, "--depth", depth, "--out", out, *mode) == 0
        assert run_cli("run", out, "--jobs", 2) == 0
        capsys.readouterr()
        assert run_cli("merge", path, out) == 0
        expected = "TRUE" if reference_value_of_formula(formula) else "FALSE"
        assert f"final_result={expected}\n" in capsys.readouterr().out
        files = splitter._subproblem_paths(out, len(_rows(out)))
        assert {index: row.split(",")[1] for index, row in _rows(out).items()} == {
            index: "TRUE" if reference_value_of_formula(intsplits.parse_file(file)) else "FALSE"
            for index, file in files.items()
        }


def test_split_plain_mode(fig1, tmp_path):
    out = tmp_path / "plain"
    assert run_cli("split", fig1, "--depth", 4, "--no-intsplits", "--out", out) == 0
    count = len([p for p in out.iterdir() if p.name.endswith(".qdimacs")])
    assert count == 16


def test_split_refuses_overwrite_without_force(fig1, tmp_path):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 1
    assert run_cli("split", fig1, "--depth", 4, "--out", out, "--force") == 0


def test_a_split_that_fails_part_way_leaves_no_plan(fig1, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 2, "--out", out) == 0
    (out / "0005-fig1.qdimacs").mkdir()
    assert run_cli("split", fig1, "--depth", 4, "--out", out, "--force") == 1
    assert (out / "0004-fig1.qdimacs").exists()
    assert not (out / "plan.csv").exists()
    assert not (out / "plan.csv.tmp").exists()
    message = (
        f"error: {out} has no plan.csv: its split did not complete, or it is not a split "
        f"directory; split the formula into it again\n"
    )
    capsys.readouterr()
    assert run_cli("run", out) == 1
    assert capsys.readouterr().err == message
    assert not (out / "results.csv").exists()
    assert run_cli("merge", fig1, out) == 1
    assert capsys.readouterr().err == message


def test_a_refused_split_changes_nothing(fig1, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 2, "--out", out) == 0
    for path in out.iterdir():
        if path.name != "plan.csv":
            path.unlink()
    (out / "0005-fig1.qdimacs").write_text("stale\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 1
    assert f"{out / '0005-fig1.qdimacs'} already exists (use force to overwrite)" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_split_refuses_the_results_of_an_earlier_split(tmp_path, capsys):
    formula = tmp_path / "f.qdimacs"
    formula.write_text(FIG1_TEXT)
    out = tmp_path / "out"
    assert run_cli("split", formula, "--depth", 4, "--out", out) == 0
    assert run_cli("run", out) == 0
    # FIG1's prefix and annotations with a false matrix
    formula.write_text(FIG1_TEXT.replace("-1 3 0\n1 -3 0\n", "3 0\n-3 0\n"))
    capsys.readouterr()
    assert run_cli("split", formula, "--depth", 4, "--out", out) == 1
    assert f"{out / 'results.csv'} holds the results of an earlier split" in capsys.readouterr().err
    assert run_cli("split", formula, "--depth", 4, "--out", out, "--force") == 0
    assert not (out / "results.csv").exists()
    assert run_cli("run", out) == 0
    capsys.readouterr()
    assert run_cli("merge", formula, out) == 0
    assert "final_result=FALSE" in capsys.readouterr().out
    assert run_cli("eval", formula) == 0
    assert capsys.readouterr().out == "FALSE\n"


def test_merge_reports_missing_indices(fig1, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    rows = ["index,result,time_seconds"]
    rows += [f"{i},TRUE,1.0" for i in range(9) if i != 5]
    (out / "results.csv").write_text("\n".join(rows) + "\n")
    assert run_cli("merge", fig1, out) == 1
    assert "5" in capsys.readouterr().err


def test_merge_time_model_flag_keeps_verdict(fig1, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    rows = ["index,result,time_seconds"]
    rows += [f"{i},{'TRUE' if i != 4 else 'FALSE'},{i + 1}.0" for i in range(9)]
    (out / "results.csv").write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert run_cli("merge", fig1, out) == 0
    paper = capsys.readouterr().out
    assert run_cli("merge", fig1, out, "--time-model", "refined") == 0
    refined = capsys.readouterr().out
    verdict = [line for line in paper.splitlines() if line.startswith("final_result")]
    assert verdict == [line for line in refined.splitlines() if line.startswith("final_result")]


def test_stats_reports_counts_and_plan(tmp_path, capsys):
    path = tmp_path / "triple.qdimacs"
    path.write_text(
        "cs int <19\ncs int <19\ncs int <19\n"
        "p cnf 15 1\ne 1 2 3 4 5 0\na 6 7 8 9 10 0\ne 11 12 13 14 15 0\n1 -6 11 0\n"
    )
    assert run_cli("stats", path, "--depth", 15) == 0
    out = capsys.readouterr().out
    assert "19  13  13/19" in out
    assert "with=6859" in out
    assert "without=32768" in out


def test_a_count_too_long_for_decimal_is_written_as_a_power_of_two(tmp_path, capsys):
    """2^14285, the plain count of a prefix-free file of 20,000 variables at
    depth 14,285, has 4,301 digits, one past what Python converts to
    decimal: `stats`, `split` and `merge` write it as `2^14285` and exit 0
    with every file written, and the 4,300 digits of 2^14284 stay as they are."""
    path = tmp_path / "wide.cnf"
    path.write_text("cs int [1 2] <3\np cnf 20000 1\n1 2 0\n")
    assert run_cli("stats", path, "--depth", 14284, "--no-intsplits") == 0
    count = str(1 << 14284)
    assert f"subproblems: with={count} without={count} ratio=1.0000\n" in capsys.readouterr().out
    assert run_cli("stats", path, "--depth", 14285, "--no-intsplits") == 0
    assert "subproblems: with=2^14285 without=2^14285 ratio=1.0000\n" in capsys.readouterr().out

    out = tmp_path / "out"
    assert run_cli("split", path, "--depth", 20000, "--out", out) == 0
    assert "subproblems: with=3 without=2^20000 ratio=0.0000\n" in capsys.readouterr().err
    assert run_cli("run", out) == 0
    capsys.readouterr()
    assert run_cli("merge", path, out) == 0
    report = (out / "merge_report.txt").read_text()
    assert capsys.readouterr().out == report
    assert "subproblems_with=3\nsubproblems_without=2^20000\nratio=0.0\n" in report
    assert (out / "certificate.txt").read_text().startswith("time model: paper\n")


def test_eval_and_check_commands(tmp_path, capsys):
    phi1 = tmp_path / "phi1.qdimacs"
    phi1.write_text(PHI1_TEXT)
    phi2 = tmp_path / "phi2.qdimacs"
    phi2.write_text(PHI2_TEXT)
    assert run_cli("eval", phi1) == 0
    assert capsys.readouterr().out.strip() == "TRUE"
    assert run_cli("eval", phi2) == 0
    assert capsys.readouterr().out.strip() == "FALSE"

    bad = tmp_path / "bad.qdimacs"
    bad.write_text("cs int [1 2] <2\np cnf 2 1\ne 1 2 0\n1 0\n")
    assert run_cli("check", bad) == 0
    assert "INCORRECT" in capsys.readouterr().out
    assert run_cli("eval", bad, "--intsplits") == 0
    assert capsys.readouterr().out.strip() == "FALSE"
    good = tmp_path / "good.qdimacs"
    good.write_text("cs int [1 2] <3\np cnf 2 1\ne 1 2 0\n1 0\n")
    assert run_cli("check", good) == 0
    assert capsys.readouterr().out.strip() == "CORRECT"


def test_parse_errors_exit_nonzero(tmp_path, capsys):
    broken = tmp_path / "broken.qdimacs"
    broken.write_text("p cnf 2 1\n1 5 0\n")
    assert run_cli("eval", broken) == 1
    assert "error" in capsys.readouterr().err


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    latin1 = tmp_path / "latin1.qdimacs"
    latin1.write_bytes(b"c caf\xe9\n" + PHI1_TEXT.encode())
    assert run_cli("eval", latin1) == 1
    assert "byte 5 is not valid UTF-8" in capsys.readouterr().err


def test_budget_exit_code_is_distinct(tmp_path, capsys):
    wide = tmp_path / "wide.qdimacs"
    variables = " ".join(str(v) for v in range(1, 31))
    wide.write_text(f"p cnf 30 1\ne {variables} 0\n1 0\n")
    assert run_cli("eval", wide) == 2
    assert "budget" in capsys.readouterr().err


def test_run_with_external_solver_template(fig1, tmp_path):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    solver = tmp_path / "fake_solver.py"
    solver.write_text("import sys\nsys.exit(10)\n")
    assert run_cli("run", out, "--solver", f"{sys.executable} {solver} {{file}}") == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 10  # header plus nine tasks
    assert all(row.split(",")[1] == "TRUE" for row in rows[1:])


def test_run_timeout_records_unknown_with_budget(fig1, tmp_path):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    sleeper = tmp_path / "sleeper.py"
    sleeper.write_text("import time\ntime.sleep(30)\n")
    assert (
        run_cli(
            "run", out, "--timeout", 0.2, "--solver", f"{sys.executable} {sleeper} {{file}}"
        )
        == 0
    )
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[1] == "UNKNOWN" for row in rows)
    assert all(abs(float(row.split(",")[2]) - 0.2) < 1e-6 for row in rows)


def _quantified_chain(path: Path, pairs: int) -> Path:
    path.write_text(quantified_chain(pairs))
    return path


@pytest.mark.parametrize(
    "pairs, solver, timeout, timed_out",
    [
        (22, "{missing} {{file}}", 30.0, False),  # solver binary not found
        (22, "{python} -c 'import sys; sys.exit(3)' {{file}}", 30.0, False),  # exit code 3
        (1000, None, 30.0, False),  # 2000 steps, deeper than the oracle's recursion limit
        (22, None, 0.2, True),  # 2^20 branches, past the oracle's deadline
    ],
    ids=["missing-solver", "exit-code-3", "oracle-budget", "oracle-deadline"],
)
def test_run_outcomes_recorded_as_unknown(pairs, solver, timeout, timed_out, tmp_path):
    formula = _quantified_chain(tmp_path / "chain.qdimacs", pairs)
    out = tmp_path / "out"
    assert run_cli("split", formula, "--depth", 2, "--out", out) == 0
    args = ["run", out, "--jobs", 3, "--timeout", timeout]
    if solver:
        args += ["--solver", solver.format(missing=tmp_path / "no-solver", python=sys.executable)]
    assert run_cli(*args) == 0
    rows = [row.split(",") for row in (out / "results.csv").read_text().splitlines()[1:]]
    assert sorted(index for index, _, _ in rows) == ["0", "1", "2"]
    assert {code for _, code, _ in rows} == {"UNKNOWN"}
    if timed_out:
        assert {seconds for _, _, seconds in rows} == {f"{timeout:.6f}"}
    else:
        assert all(float(seconds) < timeout for _, _, seconds in rows)


def _wide_formula(path: Path, quantified: bool) -> Path:
    """A 30-variable formula, over the 25 variables `eval` accepts, whose
    sub-problems the oracle settles in a few dozen nodes.  Quantified, it is
    forall x1 x2 exists x3..x30 with every clause true once x3..x30 are
    false, so it is true.  Prefix-free, (x1 | x2)(x1 | -x2)(-x1 | x3)
    (-x1 | -x3) makes it false, and every sub-problem meets its conflict
    within x1..x3."""
    if quantified:
        prefix = ["a 1 2 0", "e " + " ".join(str(v) for v in range(3, 31)) + " 0"]
        clauses = [f"{1 if v % 2 else -2} -{v} 0" for v in range(3, 31)]
    else:
        prefix = []
        clauses = ["1 2 0", "1 -2 0", "-1 3 0", "-1 -3 0"]
        clauses += [f"-{v} -{v + 1} 0" for v in range(4, 30)]
    lines = ["cs int [1 2] <3", f"p cnf 30 {len(clauses)}", *prefix, *clauses]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("quantified, code", [(True, "TRUE"), (False, "FALSE")], ids=["qbf", "dimacs"])
def test_run_solves_sub_problems_over_the_eval_limit(quantified, code, tmp_path, capsys):
    formula = _wide_formula(tmp_path / "wide.qdimacs", quantified)
    assert run_cli("eval", formula) == 2
    assert "30 quantified variables exceed the budget of 25" in capsys.readouterr().err
    out = tmp_path / "out"
    assert run_cli("split", formula, "--depth", 2, "--out", out) == 0
    assert run_cli("run", out, "--jobs", 2) == 0
    codes = {index: row.split(",")[1] for index, row in _rows(out).items()}
    assert codes == {0: code, 1: code, 2: code}
    capsys.readouterr()
    assert run_cli("merge", formula, out) == 0
    assert f"final_result={code}\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "template, message",
    [
        ("'oops {file}", "No closing quotation"),
        (" ", "the solver command is empty"),
        ("", "the solver command is empty"),
        ("true", "'true' has no {file} placeholder"),
    ],
)
def test_run_rejects_bad_solver_templates(template, message, fig1, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    err = _usage_error(capsys, "run", out, "--solver", template)
    assert "argument --solver: " in err and message in err
    assert not (out / "results.csv").exists()


def test_run_resumes_existing_results(fig1, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    (out / "results.csv").write_text(
        "index,result,time_seconds\n" + "\n".join(f"{i},TRUE,1.0" for i in range(5)) + "\n"
    )
    assert run_cli("run", out, "--jobs", 2) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 9
    assert sorted(int(r.split(",")[0]) for r in rows) == list(range(9))
    assert run_cli("merge", fig1, out) == 0


def test_run_records_badly_encoded_subproblem_as_unknown(fig1, tmp_path):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    broken = out / "0003-fig1.qdimacs"
    broken.write_bytes(b"c \xff\n" + broken.read_bytes())
    assert run_cli("run", out) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 9
    assert [r.split(",")[1] for r in rows if r.startswith("3,")] == ["UNKNOWN"]


def test_run_refuses_missing_subproblem_files(fig1, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    (out / "0001-fig1.qdimacs").unlink()
    (out / "0004-fig1.qdimacs").unlink()
    capsys.readouterr()
    assert run_cli("run", out) == 1
    assert "indices: 1, 4" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_run_reruns_a_row_cut_short_by_a_kill(fig1, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    (out / "results.csv").write_text("index,result,time_seconds\n0,TRUE,0.5\n1,TR")
    assert run_cli("run", out) == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[:2] == ["index,result,time_seconds", "0,TRUE,0.500000"]
    assert sorted(int(r.split(",")[0]) for r in rows[1:]) == list(range(9))
    assert not (out / "results.csv.tmp").exists()
    capsys.readouterr()
    assert run_cli("merge", fig1, out) == 0
    assert "final_result=TRUE" in capsys.readouterr().out


def test_results_rows_with_non_utf8_bytes_fail_merge_and_rerun(fig1, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    rows = [f"{i},TRUE,1.0" for i in range(9)]
    rows[2] = "2,TR\xffUE,1.0"
    (out / "results.csv").write_bytes(("\n".join(rows) + "\n").encode("latin-1"))
    assert run_cli("merge", fig1, out) == 1
    assert "line 3: unknown result token" in capsys.readouterr().err
    assert run_cli("run", out) == 0
    assert run_cli("merge", fig1, out) == 0


def test_resume_appends_to_an_intact_results_file(fig1, tmp_path):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    kept = "index,result,time_seconds\n0,TRUE,1.0\n1,FALSE,2\n"
    (out / "results.csv").write_text(kept)
    assert run_cli("run", out) == 0
    text = (out / "results.csv").read_text()
    assert text.startswith(kept)
    assert len(text.splitlines()) == 10


def test_run_refuses_duplicate_result_rows(fig1, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    rows = "index,result,time_seconds\n0,TRUE,1.0\n1,TR\n0,FALSE,1.0\n"
    (out / "results.csv").write_text(rows)
    capsys.readouterr()
    assert run_cli("run", out) == 1
    assert "line 4: duplicate result for index 0" in capsys.readouterr().err
    assert (out / "results.csv").read_text() == rows


def test_manifest_bytes_that_are_not_utf8(fig1, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    with (out / "plan.csv").open("ab") as handle:
        handle.write(b"\xff\n")
    capsys.readouterr()
    assert run_cli("run", out) == 1
    assert run_cli("merge", fig1, out) == 1
    err = capsys.readouterr().err
    assert err.count("plan.csv: row 12 has 1 fields") == 2
    assert "Traceback" not in err


def _usage_error(capsys, *args):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exited:
        run_cli(*args)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["split", "stats"])
def test_depth_below_one_is_a_usage_error(command, fig1, tmp_path, capsys):
    args = {"split": ("split", fig1, "--out", tmp_path / "zero"), "stats": ("stats", fig1)}
    err = _usage_error(capsys, *args[command], "--depth", 0)
    assert "--depth: '0' is not a finite int above 0" in err
    assert not (tmp_path / "zero").exists()


@pytest.mark.parametrize(
    "command, option",
    [("merge", "--depth=4"), ("merge", "--no-intsplits"), ("run", "--strict")],
)
def test_removed_run_and_merge_options_are_usage_errors(command, option, fig1, tmp_path, capsys):
    args = ("run", tmp_path) if command == "run" else ("merge", fig1, tmp_path)
    assert f"unrecognized arguments: {option}" in _usage_error(capsys, *args, option)
    capsys.readouterr()
    with pytest.raises(SystemExit):
        run_cli(command, "--help")
    assert option.split("=")[0] not in capsys.readouterr().out


@pytest.mark.parametrize("mode", [(), ("--no-intsplits",)], ids=["intsplit", "plain"])
@pytest.mark.parametrize("depth", [2, 3, 4])
def test_merge_takes_mode_and_depth_from_the_split(depth, mode, fig1, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", depth, "--out", out, *mode) == 0
    split_summary = capsys.readouterr().err.split("subproblems: ")[1].splitlines()[0]
    with_count, without_count, ratio = (item.split("=")[1] for item in split_summary.split())
    assert run_cli("run", out) == 0
    capsys.readouterr()
    assert run_cli("merge", fig1, out) == 0
    report = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert report["subproblems_with"] == with_count
    assert report["subproblems_without"] == without_count
    assert float(report["ratio"]) == float(ratio)
    assert report["final_result"] == "TRUE"
    if (depth, mode) == (3, ()):
        assert (report["subproblems_without"], report["ratio"]) == ("8", "0.375")
    if (depth, mode) == (4, ("--no-intsplits",)):
        assert report["subproblems_with"] == "16"


@pytest.mark.parametrize("command", ["run", "merge"])
def test_a_plan_without_the_split_settings_is_refused(command, fig1, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    manifest = out / "plan.csv"
    manifest.write_bytes(manifest.read_bytes().split(b"\r\n", 1)[1])
    capsys.readouterr()
    args = ("run", out) if command == "run" else ("merge", fig1, out)
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    assert "plan.csv: line 1 is not the split's settings" in err
    assert "must be split again" in err and "Traceback" not in err
    assert not (out / "results.csv").exists()
    assert not (out / "merge_report.txt").exists()


@pytest.mark.parametrize(
    "option, value",
    [("--timeout", -1), ("--timeout", 0), ("--timeout", "nan"), ("--timeout", "inf"), ("--jobs", 0)],
)
def test_run_rejects_out_of_range_numbers(option, value, fig1, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    err = _usage_error(capsys, "run", out, option, value)
    assert f"argument {option}: '{value}' is not a finite" in err
    assert not (out / "results.csv").exists()


def test_merge_rejects_a_sequential_time_below_zero(fig1, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("split", fig1, "--depth", 4, "--out", out)
    run_cli("run", out)
    err = _usage_error(capsys, "merge", fig1, out, "--sequential-time", -3)
    assert "--sequential-time: '-3' is not a finite float above 0" in err
    assert not (out / "merge_report.txt").exists()


def test_rows_finished_before_a_kill_survive_it(tmp_path):
    formula = tmp_path / "three.qdimacs"
    formula.write_text("cs int [1 2] <3\np cnf 2 1\ne 1 2 0\n1 2 0\n")
    out = tmp_path / "out"
    assert run_cli("split", formula, "--depth", 2, "--out", out) == 0
    # The solver kills the runner, its worker's parent, on task 2; tasks 0 and 1 end false.
    solver = 'sh -c "case {file} in *0002-*) sleep 1; kill -9 $(ps -o ppid= -p $PPID);; esac; exit 20"'
    env = {**os.environ, "PYTHONPATH": str(Path(intsplits.__file__).parents[1])}
    killed = subprocess.run(
        [sys.executable, "-m", "intsplits.cli", "run", str(out), "--jobs", "1", "--solver", solver],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert killed.returncode == -signal.SIGKILL
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "index,result,time_seconds"
    assert [row.split(",")[:2] for row in rows[1:]] == [["0", "FALSE"], ["1", "FALSE"]]


def test_ctrl_c_stops_run_and_keeps_finished_rows(fig1, tmp_path):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    results = out / "results.csv"
    env = {**os.environ, "PYTHONPATH": str(Path(intsplits.__file__).parents[1])}
    # Nine one-second tasks, one at a time; Python turns SIGINT into
    # KeyboardInterrupt only if the signal is not ignored when it starts.
    child = subprocess.Popen(
        [sys.executable, "-m", "intsplits.cli", "run", str(out), "--jobs", "1",
         "--solver", "sh -c 'sleep 1; exit 20' {file}"],
        env=env,
        stderr=subprocess.PIPE,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and (
        not results.exists() or len(results.read_text().splitlines()) < 2
    ):
        time.sleep(0.02)
    child.send_signal(signal.SIGINT)
    interrupted = time.monotonic()
    _, err = child.communicate(timeout=60)
    # The task running at the signal may finish; the seven queued ones
    # would take seven more seconds.
    assert time.monotonic() - interrupted < 4
    assert child.returncode == 130
    assert err.decode().strip().splitlines()[-1] == "interrupted"
    assert b"Traceback" not in err
    rows = results.read_text().splitlines()
    assert rows[0] == "index,result,time_seconds"
    assert 1 <= len(rows) - 1 <= 2
    assert all(row.split(",")[1] == "FALSE" and float(row.split(",")[2]) >= 1 for row in rows[1:])
    assert run_cli("run", out, "--solver", "sh -c 'exit 20' {file}") == 0
    assert len(results.read_text().splitlines()) == 10


def _solver_pid(pid_file: Path) -> int:
    deadline = time.monotonic() + 30
    while not (pid_file.exists() and pid_file.read_text().endswith("\n")):
        assert time.monotonic() < deadline, f"{pid_file} was never written"
        time.sleep(0.02)
    return int(pid_file.read_text())


def _ended(pid: int) -> bool:
    """True once the process is gone or a zombie, waiting up to 2 s."""
    deadline = time.monotonic() + 2
    while True:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return True
        if stat.rsplit(")", 1)[1].split()[0] == "Z":
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)


def test_timeout_kills_the_solvers_whole_process_group(fig1, tmp_path):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 2, "--out", out) == 0
    solver = "sh -c 'sleep 5 & echo $! > {file}.pid; wait' {file}"
    assert run_cli("run", out, "--jobs", 3, "--timeout", 0.5, "--solver", solver) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["UNKNOWN"] * 3
    pid_files = sorted(out.glob("*.pid"))
    assert len(pid_files) == 3
    for pid_file in pid_files:
        assert _ended(_solver_pid(pid_file)), f"the sleep of {pid_file.name} outlived its task"


def test_ctrl_c_ends_running_solvers(fig1, tmp_path):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(intsplits.__file__).parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-m", "intsplits.cli", "run", str(out), "--jobs", "1",
         "--timeout", "60", "--solver", "sh -c 'echo $$ > {file}.pid; exec sleep 30' {file}"],
        env=env,
        stderr=subprocess.PIPE,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        pid = _solver_pid(out / "0000-fig1.qdimacs.pid")
        child.send_signal(signal.SIGINT)
        interrupted = time.monotonic()
        _, err = child.communicate(timeout=60)
        assert time.monotonic() - interrupted < 4
        assert child.returncode == 130
        assert err.decode().strip().splitlines()[-1] == "interrupted"
        assert _ended(pid)
    finally:
        child.kill()
        child.wait()


@pytest.mark.parametrize("command", ["run", "merge"])
def test_run_and_merge_reject_an_invalid_plan_entry(command, fig1, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    manifest = out / "plan.csv"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join([lines[0], "0,1=7;2=0;-3=0;0=0", *lines[2:]]) + "\n")
    capsys.readouterr()
    args = ("run", out) if command == "run" else ("merge", fig1, out)
    assert run_cli(*args) == 1
    assert "plan.csv: row 2 is not a valid plan entry" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("command", ["run", "merge"])
def test_run_and_merge_reject_a_repeated_plan_entry(command, fig1, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    manifest = out / "plan.csv"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join([*lines, lines[5]]) + "\n")
    capsys.readouterr()
    args = ("run", out) if command == "run" else ("merge", fig1, out)
    assert run_cli(*args) == 1
    assert "plan.csv: row 12 has index 3, expected 9" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_run_refuses_sub_problem_files_the_plan_does_not_list(fig1, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    manifest = out / "plan.csv"
    full = manifest.read_text()
    manifest.write_text("".join(full.splitlines(keepends=True)[:2]))  # cut after the header
    capsys.readouterr()
    assert run_cli("run", out) == 1
    err = capsys.readouterr().err
    assert "lists 0 sub-problems" in err and "indices: 0, 1, 2, 3, 4, 5, 6, 7, 8;" in err
    assert not (out / "results.csv").exists()

    # a smaller split over a stale larger one of the same formula
    manifest.write_text(full)
    assert run_cli("split", fig1, "--depth", 2, "--out", out, "--force") == 0
    capsys.readouterr()
    assert run_cli("run", out) == 1
    assert "lists 3 sub-problems" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize(
    "rows, index",
    [("99,TRUE,0.1\n", 99), ("0,TRUE,1.0\n-1,TRUE,0.1\n1,TR", -1)],
    ids=["above", "below-with-a-cut-row"],
)
def test_run_refuses_result_rows_outside_the_plan(rows, index, fig1, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    results = out / "results.csv"
    results.write_text("index,result,time_seconds\n" + rows)
    before = results.read_bytes()
    capsys.readouterr()
    assert run_cli("run", out) == 1
    assert f"index {index} outside the plan (0..8)" in capsys.readouterr().err
    assert results.read_bytes() == before


HEADER = b"index,result,time_seconds\n"


@pytest.mark.parametrize(
    "text",
    [
        HEADER + b"0,TRUE,0.5\n1,FALSE,0.25\n2,TR",
        HEADER + b"0,TRUE,0.5\n1,TR\xffUE,0.5\n2,FALSE,1.5\n",
        HEADER + b"\n# kept by hand\n   \n0,TRUE,0.5\nindex,result,time_seconds\n3,UNSAT,2\n",
        HEADER + b"0,TRUE,0.5\n4,FALSE,0.75",
        b"",
    ],
    ids=["torn-last-row", "non-utf8-row", "header-blank-comment", "no-final-newline", "empty"],
)
def test_run_keeps_exactly_the_result_rows_merge_reads(text, fig1, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    (out / "results.csv").write_bytes(text)
    # The rows of whole lines: a last line with no line break is cut short.
    readable = {}
    for line_no, line in enumerate(text.decode(errors="replace").splitlines(keepends=True), start=1):
        with contextlib.suppress(intsplits.UnparsableRowError):
            if line.endswith("\n") and (row := intsplits.merger.parse_result_row(line, f"line {line_no}")):
                readable[row[0]] = row[1]
    capsys.readouterr()
    assert run_cli("run", out) == 0
    assert f"ran {9 - len(readable)} tasks" in capsys.readouterr().err
    assert (out / "results.csv").read_text().splitlines()[0] == "index,result,time_seconds"
    table = intsplits.ingest(out / "results.csv", intsplits.plan(intsplits.parse_file(fig1), 4))
    assert {index: table.tuples[index] for index in readable} == readable
    assert run_cli("merge", fig1, out) == 0


def test_run_reruns_a_last_row_cut_at_any_byte(tmp_path, capsys):
    formula = tmp_path / "f.qdimacs"
    formula.write_text("cs int [1 2 3] <6\np cnf 4 2\ne 1 2 3 0\na 4 0\n1 4 0\n-2 -4 3 0\n")
    out = tmp_path / "out"
    assert run_cli("split", formula, "--depth", 3, "--out", out) == 0
    assert run_cli("run", out) == 0
    results = out / "results.csv"
    *kept, last = results.read_bytes().splitlines(keepends=True)
    assert last.endswith(b"\r\n")
    for cut in range(len(last)):
        results.write_bytes(b"".join(kept) + last[:cut])
        capsys.readouterr()
        assert run_cli("run", out) == 0
        assert "ran 1 tasks" in capsys.readouterr().err, cut
        *rows, rerun = results.read_bytes().splitlines(keepends=True)
        assert rows == kept, cut
        assert rerun.split(b",")[0] == last.split(b",")[0], cut


def _files_of_at_most_40_bytes() -> None:
    resource.setrlimit(resource.RLIMIT_FSIZE, (40, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))


def test_a_failed_rewrite_of_results_leaves_no_scratch_file(fig1, tmp_path):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    results = out / "results.csv"
    results.write_text("index,result,time_seconds\n0,TRUE,0.5\n1,FALSE,0.25\n2,TR")
    before = results.read_bytes()
    # The rewrite's header and two rows are 62 bytes; a process allowed
    # files of 40 bytes fails that write with EFBIG.
    env = {**os.environ, "PYTHONPATH": str(Path(intsplits.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-B", "-m", "intsplits.cli", "run", str(out)],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=_files_of_at_most_40_bytes,
    )
    assert (done.returncode, done.stdout) == (1, ""), done.stderr
    assert done.stderr.startswith("resuming: 2 results present, 7 tasks left\nio error: ")
    assert "File too large" in done.stderr
    assert not (out / "results.csv.tmp").exists()
    assert results.read_bytes() == before


@pytest.mark.parametrize(
    "rows, line, message",
    [
        ("0,TRUE,1\n# note\n0,FALSE,1\n", 4, "duplicate result for index 0"),
        ("0,TRUE,1\n9,TRUE,1\n", 3, "index 9 outside the plan (0..8)"),
        ("0,TRUE,1\n0,TRUE,1\n-1,TRUE,1\n", 3, "duplicate result for index 0"),
        ("0,TRUE,1\n-1,TRUE,1\n0,TRUE,1\n1,TR", 3, "index -1 outside the plan (0..8)"),
    ],
    ids=["duplicate", "outside", "duplicate-then-outside", "outside-then-duplicate"],
)
def test_run_and_merge_refuse_the_same_result_row(rows, line, message, fig1, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    results = out / "results.csv"
    results.write_text("index,result,time_seconds\n" + rows)
    before = results.read_bytes()
    capsys.readouterr()
    assert run_cli("merge", fig1, out) == 1
    refused = capsys.readouterr().err
    assert refused == f"error: {results}: line {line}: {message}\n"
    assert run_cli("run", out) == 1
    assert capsys.readouterr().err == refused
    assert results.read_bytes() == before


@pytest.mark.parametrize("depth, levels", [(2, 1), (4, 2)])
def test_merge_folds_each_level_once(depth, levels, fig1, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", depth, "--out", out) == 0
    assert run_cli("run", out) == 0
    calls = []
    original = intsplits.merger.reduce_level

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(intsplits.merger, "reduce_level", counted)
    assert run_cli("merge", fig1, out, "--sequential-time", 1) == 0
    assert len(calls) == levels
    assert "speedup=" in (out / "merge_report.txt").read_text()


def _address_space_of_1_gib() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_a_prefix_free_files_declared_count_costs_nothing(tmp_path):
    # 2^31 - 1 declared variables, three used: each command runs under a
    # 1 GiB address-space cap, which a per-variable table would exceed.
    (tmp_path / "f.cnf").write_text("cs int [1 2] <3\np cnf 2147483647 2\n1 2 0\n-1 3 0\n")
    (tmp_path / "g.cnf").write_text("p cnf 2147483647 2\n-1 2 0\n1 -3 0\n")
    env = {**os.environ, "PYTHONPATH": str(Path(intsplits.__file__).parents[1])}

    def intsplits_cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "intsplits.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=_address_space_of_1_gib,
        )

    for command, verdict in (("eval", "TRUE\n"), ("check", "CORRECT\n")):
        done = intsplits_cli(command, "f.cnf")
        assert (done.returncode, done.stdout, done.stderr) == (0, verdict, "")
    assert intsplits_cli("stats", "g.cnf", "--depth", "3", "--no-intsplits").returncode == 0
    for formula, options, tasks in (("f.cnf", ["--depth", "2"], 3), ("g.cnf", ["--depth", "3", "--no-intsplits"], 8)):
        out = formula + ".split"
        assert intsplits_cli("split", formula, *options, "--out", out).returncode == 0
        done = intsplits_cli("run", out, "--jobs", "2", "--timeout", "30")
        assert done.returncode == 0, done.stderr
        assert sorted(_rows(tmp_path / out)) == list(range(tasks))
        done = intsplits_cli("merge", formula, out)
        assert done.returncode == 0, done.stderr
        assert "final_result=TRUE" in done.stdout


def test_the_budget_refuses_a_wide_prefix_before_it_builds_a_step(tmp_path):
    # The count is checked before any per-variable table is built, so the
    # refusal stays quick and small under a 1 GiB address-space cap.
    variables = " ".join(map(str, range(1, 100_001)))
    (tmp_path / "wide.qdimacs").write_text(f"p cnf 100000 1\ne {variables} 0\n1 0\n")
    env = {**os.environ, "PYTHONPATH": str(Path(intsplits.__file__).parents[1])}
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "intsplits.cli", "eval", "wide.qdimacs"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=_address_space_of_1_gib,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "budget exceeded: 100000 quantified variables exceed the budget of 25\n"
    assert time.monotonic() - start < 10


def _rows(out: Path) -> dict[int, str]:
    """results.csv rows by index; fails on a duplicate index."""
    rows: dict[int, str] = {}
    for row in (out / "results.csv").read_text().splitlines()[1:]:
        index = int(row.split(",")[0])
        assert index not in rows, f"two rows for index {index}"
        rows[index] = row
    return rows


@pytest.mark.parametrize("mode", [(), ("--no-intsplits",)], ids=["intsplit", "plain"])
@pytest.mark.parametrize("text", [FIG1_TEXT, TRIPLE_19_TEXT], ids=["fig1", "triple19"])
def test_worker_processes_give_the_sequential_result_codes(text, mode, tmp_path):
    formula = tmp_path / "f.qdimacs"
    formula.write_text(text)
    codes = {}
    for jobs in (1, 3):
        out = tmp_path / f"jobs{jobs}"
        assert run_cli("split", formula, "--depth", 6, "--out", out, *mode) == 0
        assert run_cli("run", out, "--jobs", jobs) == 0
        codes[jobs] = {index: row.split(",")[1] for index, row in _rows(out).items()}
    assert codes[3] == codes[1]
    assert sorted(codes[1]) == list(range(len(codes[1])))

    # Resume with a seeded sample of rows kept.  On TRIPLE_19 in plain mode,
    # 47 of 64 tasks are left: chunks of 2 for 3 workers, the last one short.
    out = tmp_path / "jobs3"
    rows = _rows(out)
    kept = random.Random(5).sample(sorted(rows), len(rows) // 4 + 1)
    header = "index,result,time_seconds\n"
    (out / "results.csv").write_text(header + "".join(rows[i] + "\n" for i in kept))
    assert run_cli("run", out, "--jobs", 3) == 0
    resumed = _rows(out)
    assert sorted(resumed) == list(range(len(rows)))
    assert {index: row.split(",")[1] for index, row in resumed.items()} == codes[1]
    assert all(resumed[i] == rows[i] for i in kept)


def test_an_error_in_the_result_loop_ends_every_worker(fig1, tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    assert run_cli("run", out, "--jobs", 2) == 0
    assert multiprocessing.active_children() == []
    (out / "results.csv").unlink()

    written = []

    def write_three_rows(index, result):
        if len(written) == 3:
            raise OSError("no space left on device")
        written.append(index)
        return row_of(index, result)

    row_of = intsplits.merger.result_row
    monkeypatch.setattr(intsplits.merger, "result_row", write_three_rows)
    # A SIGTERM handler that exits, as a calling program may install; the
    # workers inherit it with the fork.
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        started = time.monotonic()
        assert run_cli("run", out, "--jobs", 2) == 1
        assert time.monotonic() - started < 5
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert multiprocessing.active_children() == []
    assert sorted(_rows(out)) == sorted(written)


def _default_signal_handlers() -> None:
    # A signal ignored when Python starts stays ignored, as under nohup.
    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, signal.SIG_DFL)


@pytest.mark.parametrize(
    "signum, solver",
    [
        (signal.SIGINT, None),
        (signal.SIGTERM, None),
        (signal.SIGHUP, None),
        (signal.SIGTERM, "sh -c 'echo $$ > {file}.pid; exec sleep 30' {file}"),
    ],
    ids=["SIGINT-oracle", "SIGTERM-oracle", "SIGHUP-oracle", "SIGTERM-solver"],
)
def test_a_signal_ends_run_and_every_process_it_started(signum, solver, tmp_path):
    # 2^20 universal branches per task: each runs far past the signal.
    formula = _quantified_chain(tmp_path / "chain.qdimacs", 22)
    out = tmp_path / "out"
    assert run_cli("split", formula, "--depth", 2, "--out", out) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(intsplits.__file__).parents[1])}
    argv = [sys.executable, "-m", "intsplits.cli", "run", str(out), "--jobs", "2", "--timeout", "30"]
    child = subprocess.Popen(
        argv + (["--solver", solver] if solver else []),
        env=env,
        stderr=subprocess.PIPE,
        start_new_session=True,
        preexec_fn=_default_signal_handlers,
    )
    try:
        if solver:
            pid = _solver_pid(out / "0000-chain.qdimacs.pid")
        time.sleep(1.5)
        child.send_signal(signum)
        signalled = time.monotonic()
        _, err = child.communicate(timeout=30)
        assert time.monotonic() - signalled < 2
        with pytest.raises(ProcessLookupError):
            os.killpg(child.pid, 0)  # no worker is left in the group
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    assert child.returncode == 128 + signum
    assert err.decode().strip().splitlines()[-1] == (
        "interrupted" if signum == signal.SIGINT else f"stopped by {signal.Signals(signum).name}"
    )
    if solver:
        assert _ended(pid)
    assert (out / "results.csv").read_text() == "index,result,time_seconds\n"


@pytest.mark.parametrize("timeout", ["1", "30"])
def test_oracle_workers_end_after_run_is_killed(timeout, tmp_path):
    formula = _quantified_chain(tmp_path / "chain.qdimacs", 22)
    out = tmp_path / "out"
    assert run_cli("split", formula, "--depth", 2, "--out", out) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(intsplits.__file__).parents[1])}
    argv = [sys.executable, "-m", "intsplits.cli", "run", str(out), "--jobs", "2", "--timeout", timeout]
    # stderr goes to a file: the workers inherit it, and a pipe would stay
    # open until the last of them had ended.
    with (tmp_path / "stderr").open("wb") as err:
        child = subprocess.Popen(argv, env=env, stderr=err, start_new_session=True)
    try:
        time.sleep(0.5)
        child.kill()
        killed = time.monotonic()
        child.wait(timeout=30)
        # The workers' tasks run for seconds; only their parent's death ends them.
        while time.monotonic() - killed < 5:
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("a worker outlived the killed run by 5 s")
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
    assert b"Traceback" not in (tmp_path / "stderr").read_bytes()


def test_solver_side_files_do_not_break_resume(fig1, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 2, "--out", out) == 0
    solver = "sh -c 'echo proof > {file}.drat; exit 20' {file}"
    assert run_cli("run", out, "--solver", solver) == 0
    assert len(list(out.glob("*.drat"))) == 3
    capsys.readouterr()
    assert run_cli("run", out, "--solver", solver) == 0
    assert "0 tasks left" in capsys.readouterr().err
    assert sorted(_rows(out)) == [0, 1, 2]

    (out / "0001-other.qdimacs").write_text(FIG1_TEXT)
    assert run_cli("run", out) == 1
    assert "keep one split per directory" in capsys.readouterr().err


@pytest.mark.skipif(sys.platform != "linux", reason="a worker learns of its parent's death on Linux only")
def test_solvers_end_after_run_is_killed(fig1, tmp_path):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(intsplits.__file__).parents[1])}
    solver = "sh -c 'echo $$ > {file}.pid; exec sleep 30' {file}"
    argv = [sys.executable, "-m", "intsplits.cli", "run", str(out), "--jobs", "2", "--solver", solver]
    child = subprocess.Popen(argv, env=env, stderr=subprocess.DEVNULL)
    pids = []
    try:
        for index in (0, 1):
            pids.append(_solver_pid(out / f"000{index}-fig1.qdimacs.pid"))
        child.kill()
        child.wait(timeout=30)
        for pid in pids:
            assert _ended(pid), f"solver {pid} outlived the killed run"
    finally:
        child.kill()
        child.wait()
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pid, signal.SIGKILL)


@pytest.mark.parametrize("signame", ["INT", "TERM", "HUP"])
def test_solvers_start_with_default_signal_handling(signame, fig1, tmp_path):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 2, "--out", out) == 0
    solver = f"sh -c 'kill -{signame} $$; exit 20' {{file}}"
    assert run_cli("run", out, "--jobs", 2, "--solver", solver) == 0
    assert [row.split(",")[1] for row in _rows(out).values()] == ["UNKNOWN"] * 3


def _plan_csv_mutants(data: bytes) -> dict[str, bytes | None]:
    """Edited copies of a plan.csv as split writes it; None deletes the file."""
    settings, header, *rows = data.split(b"\r\n")[:-1]
    mode, depth = settings.split(b" ")[1:]
    other_mode = b"mode=plain" if mode == b"mode=intsplit" else b"mode=intsplit"
    depth = int(depth.split(b"=")[1])

    def lines(*edited: bytes) -> bytes:
        return b"".join(line + b"\r\n" for line in edited)

    first_item = rows[0].split(b",")[1].split(b";")[0]  # b"" for a row of no literal
    mutants = {
        "LF line ends": data.replace(b"\r\n", b"\n"),
        "blank line": lines(settings, header, rows[0], b"", *rows[1:]),
        "repeated header": lines(settings, header, rows[0], header, *rows[1:]),
        "changed header": lines(settings, b"entry,assignment", *rows),
        "quoted field": lines(settings, header, rows[0].replace(b",", b',"', 1) + b'"', *rows[1:]),
        "repeated row": lines(settings, header, rows[0], *rows),
        "skipped row": lines(settings, header, *rows[1:]),
        "changed mode": lines(settings.replace(mode, other_mode), header, *rows),
        "depth + 1": lines(b"# %s depth=%d" % (mode, depth + 1), header, *rows),
        "depth - 1": lines(b"# %s depth=%d" % (mode, depth - 1), header, *rows),
        "no final CRLF": data[:-2],
        "trailing extra row": lines(settings, header, *rows, b"%d,%s" % (len(rows), first_item)),
        "trailing bytes": data + b"0",
        "non-UTF-8 byte": data[:-3] + b"\xff" + data[-2:],
        "deleted": None,
    }
    if len(rows) > 1:
        mutants["reordered rows"] = lines(settings, header, rows[1], rows[0], *rows[2:])
    if first_item:
        var, bit = first_item.split(b"=")
        for name, new in [("other valid literal", b"%s=%d" % (var, 1 - int(bit))), ("invalid literal", var + b"=2")]:
            mutants[name] = lines(settings, header, rows[0].replace(first_item, new, 1), *rows[1:])
    return mutants


def _merged(formula: Path, out: Path, capsys) -> tuple:
    """What `merge` gives: its exit status, stdout, stderr and the two files it writes."""
    written = [out / "merge_report.txt", out / "certificate.txt"]
    for path in written:
        path.unlink(missing_ok=True)
    capsys.readouterr()
    code = run_cli("merge", formula, out)
    return (code, *capsys.readouterr(), *[path.read_bytes() if path.exists() else None for path in written])


def test_merge_checks_plan_csv_by_its_bytes_as_the_full_parse_would(monkeypatch, tmp_path, capsys):
    """A plan.csv as split writes it takes merge's byte check; for it and
    for every edited copy, merge gives what reading and verifying the file
    entry by entry gives."""
    rng = random.Random(20261020)
    fig1, triple = intsplits.parse(FIG1_TEXT), intsplits.parse(TRIPLE_19_TEXT)
    cases = [(fig1, 2), (fig1, 4), (triple, 6), (triple, 10)]
    for _ in range(40):
        formula, chosen = correct_pipeline_case(rng, max_vars=10)
        cases.append((formula, chosen.requested_depth))
    merged = {"listed": 0, "mutants": 0}
    listed_plan = cli._listed_plan
    for at, (formula, depth) in enumerate(cases):
        source = tmp_path / f"case{at}.qdimacs"
        source.write_text(intsplits.write(formula))
        for mode in intsplits.SplitMode:
            try:
                chosen = intsplits.plan(formula, depth, mode)
            except intsplits.EmptyPlanError:
                continue
            out = tmp_path / f"case{at}-{mode.value}"
            out.mkdir()
            manifest = intsplits.write_manifest(chosen, out)
            data = manifest.read_bytes()
            with (out / "results.csv").open("w") as results:
                results.write("index,result,time_seconds\n")
                for index in range(intsplits.count_subproblems(chosen)):
                    results.write(f"{index},{rng.choice(['TRUE', 'FALSE', 'UNKNOWN'])},{rng.random():.6f}\n")
            assert listed_plan(formula, manifest) == chosen
            for name, mutant in {"as split writes it": data, **_plan_csv_mutants(data)}.items():
                manifest.unlink(missing_ok=True)
                if mutant is not None:
                    manifest.write_bytes(mutant)
                checked = _merged(source, out, capsys)
                monkeypatch.setattr(cli, "_listed_plan", lambda formula, path: None)
                try:
                    assert _merged(source, out, capsys) == checked, (at, mode, name)
                finally:
                    monkeypatch.setattr(cli, "_listed_plan", listed_plan)
                if mutant == data:
                    assert checked[0] == 0
                    merged["listed"] += 1
                else:
                    assert mutant is not None or checked[0] == 1
                    merged["mutants"] += 1
    assert merged["listed"] == 88 and merged["mutants"] > 88 * 15, merged


def test_merge_names_what_differs_in_an_edited_plan_csv(fig1, tmp_path, capsys):
    """The messages that `merge` gives for three of `_plan_csv_mutants`,
    word for word: a changed literal, a skipped row and a reordered row."""
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--out", out) == 0
    assert run_cli("run", out) == 0
    mutants = _plan_csv_mutants((out / "plan.csv").read_bytes())
    expected = {
        "other valid literal": (
            "error: manifest entry 0 does not match the plan (expected (-1, -2, -3, -4), "
            "found (1, -2, -3, -4)); was the directory produced with different split settings?\n"
        ),
        "skipped row": f"error: {out / 'plan.csv'}: row 3 has index 1, expected 0\n",
        "reordered rows": f"error: {out / 'plan.csv'}: row 3 has index 1, expected 0\n",
    }
    for name, message in expected.items():
        (out / "plan.csv").write_bytes(mutants[name])
        assert _merged(fig1, out, capsys)[:3] == (1, "", message), name


def test_run_writes_results_rows_as_csv_writer_does(fig1, tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert run_cli("split", fig1, "--depth", 4, "--no-intsplits", "--out", out) == 0
    combos = [
        intsplits.ResultTuple(code, seconds)
        for code in intsplits.ResultCode
        for seconds in (0, 1e-7, 59.9999996, 1e6)
    ]
    outcomes = dict(enumerate(combos + combos[:4]))  # one per task of the plain split's 16

    def results(tasks, solve, one_by_one, jobs):
        yield [(index, outcomes[index]) for index in tasks[:5]]
        yield [(index, outcomes[index]) for index in tasks[5:]]

    def written(rows) -> bytes:
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(RESULTS_HEADER)
        writer.writerows(result_row(index, result) for index, result in rows)
        return expected.getvalue().encode()

    monkeypatch.setattr(cli, "_results", results)
    assert run_cli("run", out) == 0
    assert (out / "results.csv").read_bytes() == written(outcomes.items())
    # A resumed run rewrites the rows it keeps when the last one was cut short.
    (out / "results.csv").write_text("index,result,time_seconds\n3,FALSE,2.5\n0,TRUE,1e-7\n7,UNK")
    assert run_cli("run", out) == 0
    kept = [(3, intsplits.ResultTuple(intsplits.ResultCode.FALSE, 2.5))]
    kept.append((0, intsplits.ResultTuple(intsplits.ResultCode.TRUE, 1e-7)))
    rest = [(index, outcomes[index]) for index in outcomes if index not in (0, 3)]
    assert (out / "results.csv").read_bytes() == written(kept + rest)


def test_merge_reads_a_log_directory_as_the_rows_it_holds(tmp_path, capsys):
    formula = tmp_path / "t.qdimacs"
    formula.write_text(TRIPLE_19_TEXT)
    out, logs = tmp_path / "out", tmp_path / "logs"
    assert run_cli("split", formula, "--depth", 10, "--out", out) == 0
    assert run_cli("run", out, "--jobs", 2) == 0
    logs.mkdir()
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 361
    for row in rows:
        index, code, seconds = row.split(",")
        name = f"{int(index):04d}-t.qdimacs.log"
        (logs / name).write_text(f"c solver chatter\n\nRESULT {code} TIME {seconds}\n  \n")
    from_rows = _merged(formula, out, capsys)
    capsys.readouterr()
    assert run_cli("merge", formula, out, "--results", f"{logs}/") == 0
    stdout, stderr = capsys.readouterr()
    assert from_rows[0] == 0
    assert (stdout, stderr) == from_rows[1:3]
    assert ((out / "merge_report.txt").read_bytes(), (out / "certificate.txt").read_bytes()) == from_rows[3:]
    (logs / "0123-t.qdimacs.log").write_text("RESULT TRUE\n")
    assert run_cli("merge", formula, out, "--results", f"{logs}/") == 1
    message = f"error: {logs / '0123-t.qdimacs.log'}: last line is not 'RESULT <code> TIME <seconds>'\n"
    assert capsys.readouterr().err == message
