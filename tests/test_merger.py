"""Result ingestion and level-by-level reduction."""

from __future__ import annotations

import csv
import io
import itertools
import random

import pytest

from conftest import A, E, correct_pipeline_case, reference_result_row
from intsplits import (
    DuplicateResultError,
    MergeError,
    MissingResultError,
    ResultCode,
    ResultTable,
    ResultTuple,
    UnparsableRowError,
    enumerate_accounted,
    evaluate,
    expanded_copy,
    format_flat_report,
    ingest,
    merge,
    parse,
    parse_result_token,
    plan,
    reduce_level,
    render_certificate,
    speedup_report,
)
from intsplits import merger
from intsplits.merger import RESULTS_HEADER, parse_result_row, result_row

FALSE, UNKNOWN, TRUE = ResultCode.FALSE, ResultCode.UNKNOWN, ResultCode.TRUE

FIG1 = parse(
    "cs int [1 2] <3\ncs int [3 4] <3\n"
    "p cnf 4 4\na 1 2 0\ne 3 4 0\n-1 3 0\n1 -3 0\n-2 4 0\n2 -4 0\n"
)
FIG1_PLAN = plan(FIG1, 4)  # forall s=3 outer, exists s=3 inner


def tuples(*pairs):
    return [ResultTuple(code, seconds) for code, seconds in pairs]


def table_for(codes, times=None):
    times = times or [1.0] * len(codes)
    return ResultTable(FIG1_PLAN, tuple(tuples(*zip(codes, times))))


# reduce_level ---------------------------------------------------------------


def test_reduce_exists_takes_max_code_min_time():
    reduced = reduce_level(tuples((FALSE, 10), (TRUE, 5), (TRUE, 8)), E, 3)
    assert reduced == tuples((TRUE, 5))


def test_reduce_forall_takes_min_code_max_time():
    assert reduce_level(tuples((TRUE, 5), (UNKNOWN, 3700)), A, 2) == tuples((UNKNOWN, 3700))
    assert reduce_level(tuples((TRUE, 5), (FALSE, 2)), A, 2) == tuples((FALSE, 5))


def test_reduce_group_size_must_divide():
    with pytest.raises(MergeError):
        reduce_level(tuples((TRUE, 1), (TRUE, 1), (TRUE, 1)), E, 2)


def test_result_code_order():
    assert FALSE < UNKNOWN < TRUE


# merge ----------------------------------------------------------------------


def test_merge_uniform_true_leaves():
    final, report = merge(table_for([TRUE] * 9))
    assert final == ResultTuple(TRUE, 1.0)
    assert [len(level) for level in report.levels] == [9, 3, 1]
    assert report.reductions == ((E, 3), (A, 3))


def test_merge_one_all_false_inner_group():
    codes = [TRUE] * 9
    codes[3:6] = [FALSE, FALSE, FALSE]  # second branch of the universal level
    final, _ = merge(table_for(codes))
    assert final.code is FALSE


def test_merge_ignores_arrival_order():
    rng = random.Random(5)
    codes = [rng.choice([FALSE, UNKNOWN, TRUE]) for _ in range(9)]
    times = [float(i + 1) for i in range(9)]
    baseline, _ = merge(table_for(codes, times))
    # ingest from rows written in random order; the table is index-keyed
    order = list(range(9))
    rng.shuffle(order)
    rows = "\n".join(f"{i},{codes[i].name},{times[i]}" for i in order)
    table = _table_from_text(rows)
    shuffled, _ = merge(table)
    assert shuffled == baseline


def _table_from_text(rows, directory=None, plan_=FIG1_PLAN, tmp_path=None):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "results.csv"
        path.write_text("index,result,time_seconds\n" + rows + "\n")
        return ingest(path, plan_)


def test_merge_monotone_in_each_leaf():
    rng = random.Random(20240822)
    for _ in range(40):
        codes = [rng.choice([FALSE, UNKNOWN, TRUE]) for _ in range(9)]
        base, _ = merge(table_for(codes))
        at = rng.randrange(9)
        if codes[at] is TRUE:
            continue
        raised = list(codes)
        raised[at] = ResultCode(raised[at] + 1)
        higher, _ = merge(table_for(raised))
        assert higher.code >= base.code


def test_certificate_covers_every_leaf_once():
    codes = [TRUE, FALSE, UNKNOWN] * 3
    final, report = merge(table_for(codes))
    kind, size = report.reductions[0]
    leaves = report.levels[0]
    groups = [leaves[i : i + size] for i in range(0, len(leaves), size)]
    assert sum(len(g) for g in groups) == 9
    flat = [t for group in groups for t in group]
    assert list(flat) == list(leaves)
    text = render_certificate(report)
    assert text.count("  group") == 3 + 1  # 3 inner groups, 1 outer
    assert "final" in text


def test_refined_time_model_changes_time_never_verdict():
    rng = random.Random(20240823)
    seen_difference = False
    for _ in range(50):
        codes = [rng.choice([FALSE, UNKNOWN, TRUE]) for _ in range(9)]
        times = [round(rng.uniform(0.5, 9.0), 3) for _ in range(9)]
        paper_final, _ = merge(table_for(codes, times), "paper")
        refined_final, _ = merge(table_for(codes, times), "refined")
        assert paper_final.code is refined_final.code
        if paper_final.time != refined_final.time:
            seen_difference = True
    assert seen_difference


def test_refined_exists_waits_for_false_children():
    # a false existential group must wait for its slowest child
    group = tuples((FALSE, 10), (FALSE, 2), (FALSE, 7))
    assert reduce_level(group, E, 3, "paper") == tuples((FALSE, 2))
    assert reduce_level(group, E, 3, "refined") == tuples((FALSE, 10))
    mixed = tuples((FALSE, 10), (TRUE, 6), (TRUE, 8))
    assert reduce_level(mixed, E, 3, "refined") == tuples((TRUE, 6))
    forall_false = tuples((FALSE, 10), (TRUE, 2))
    assert reduce_level(forall_false, A, 2, "paper") == tuples((FALSE, 10))
    assert reduce_level(forall_false, A, 2, "refined") == tuples((FALSE, 10))
    forall_fast_false = tuples((FALSE, 1), (TRUE, 9))
    assert reduce_level(forall_fast_false, A, 2, "refined") == tuples((FALSE, 1))


# ingest ---------------------------------------------------------------------


def test_ingest_accepts_result_spellings(tmp_path):
    rows = "\n".join(
        [
            "0,SAT,12.5",
            "1,TRUE,1",
            "2,10,1",
            "3,UNSAT,1",
            "4,20,3700",
            "5,FALSE,1",
            "6,UNKNOWN,1",
            "7,TIMEOUT,3700",
            "8,0,1",
        ]
    )
    table = _table_from_text(rows)
    assert table.tuples[0] == ResultTuple(TRUE, 12.5)
    assert table.tuples[4] == ResultTuple(FALSE, 3700.0)
    assert table.tuples[7] == ResultTuple(UNKNOWN, 3700.0)


def test_parse_result_token_rejects_junk():
    with pytest.raises(UnparsableRowError):
        parse_result_token("MAYBE")


def test_ingest_missing_duplicate_and_garbage(tmp_path):
    good = "\n".join(f"{i},TRUE,1" for i in range(9))
    with pytest.raises(MissingResultError) as info:
        _table_from_text("\n".join(f"{i},TRUE,1" for i in range(8)))
    assert "8" in str(info.value)
    with pytest.raises(DuplicateResultError):
        _table_from_text(good + "\n3,TRUE,1")
    with pytest.raises(UnparsableRowError):
        _table_from_text(good + "\n9,TRUE,1")  # outside the plan
    with pytest.raises(UnparsableRowError):
        _table_from_text("0,TRUE\n" + good)
    with pytest.raises(UnparsableRowError):
        _table_from_text("0,TRUE,-1\n" + good)


def test_ingest_from_log_directory(tmp_path):
    for index in range(9):
        code = "10" if index % 2 else "20"
        (tmp_path / f"{index:04d}-f.qdimacs.log").write_text(
            f"c solver chatter\nRESULT {code} TIME {index}.5\n"
        )
    (tmp_path / "0003-f.qdimacs.log.orig").write_text("a side file of a log\n")
    table = ingest(tmp_path, FIG1_PLAN)
    assert table.tuples[1] == ResultTuple(TRUE, 1.5)
    assert table.tuples[2] == ResultTuple(FALSE, 2.5)
    (tmp_path / "0000-f.qdimacs.log").write_text("no verdict here\n")
    with pytest.raises(UnparsableRowError):
        ingest(tmp_path, FIG1_PLAN)


def test_log_bytes_that_are_not_utf8(tmp_path):
    for index in range(9):
        (tmp_path / f"{index:04d}-f.qdimacs.log").write_bytes(
            b"c chatter \xe9\xff\nRESULT 10 TIME 1.0\n"
        )
    assert ingest(tmp_path, FIG1_PLAN).tuples[0] == ResultTuple(TRUE, 1.0)
    (tmp_path / "0004-f.qdimacs.log").write_bytes(b"RESULT 1\xff0 TIME 1.0\n")
    with pytest.raises(UnparsableRowError, match="0004-f.qdimacs.log"):
        ingest(tmp_path, FIG1_PLAN)


# speedup report -------------------------------------------------------------


def test_speedup_report_fields():
    report = speedup_report(table_for([TRUE] * 9), sequential_time=9.0)
    assert report["final_result"] == "TRUE"
    assert report["parallel_time_s"] == 1.0
    assert abs(report["total_cpu_time_s"] - 9.0) < 1e-9
    assert report["subproblems_with"] == 9
    assert report["subproblems_without"] == 16
    assert report["ratio"] == 9 / 16
    assert report["speedup"] == 9.0
    without = speedup_report(table_for([TRUE] * 9))
    assert "speedup" not in without
    text = format_flat_report(report)
    assert "final_result=TRUE" in text and "speedup=9.0" in text


def test_merge_agrees_with_oracle_on_random_pipelines(tmp_path):
    rng = random.Random(20240824)
    checked = 0
    for at in range(8):
        formula, chosen = correct_pipeline_case(rng, max_vars=10, max_depth=5)
        rows = ["index,result,time_seconds"]
        for index, literals in enumerate(enumerate_accounted(chosen)):
            value = evaluate(expanded_copy(formula, literals))
            rows.append(f"{index},{'TRUE' if value else 'FALSE'},1")
        path = tmp_path / f"results{at}.csv"
        path.write_text("\n".join(rows) + "\n")
        final, _ = merge(ingest(path, chosen))
        assert final.code is (TRUE if evaluate(formula) else FALSE)
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize("code", list(ResultCode), ids=lambda code: code.name)
def test_result_rows_round_trip(code):
    result = ResultTuple(code, 12.345678)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(RESULTS_HEADER)
    writer.writerow(result_row(7, result))
    header, row = text.getvalue().splitlines()
    assert header == "index,result,time_seconds"
    assert row == f"7,{code.name},12.345678"
    assert parse_result_row(header, "header") is None
    assert parse_result_row(row, "row") == (7, result)


def _outcome(parse, line):
    try:
        return parse(line, "here")
    except UnparsableRowError as exc:
        return type(exc), str(exc)


def test_parse_result_row_is_the_reference_rule():
    """On every line, parse_result_row gives what reference_result_row
    gives: the same value, or an error of the same class and message."""
    indices = ["7", " 7", "7 ", "07", "-1", "1_0", "٣", "x", "", "#7", "index"]
    tokens = [*merger._RESULT_TOKENS, "true", " TRUE", "FALSE ", "MAYBE", "TR\ufffdUE", ""]
    times = ["0.5", " 0.5", "0.5\n", "0.5\r\n", "1e-7", "nan", "inf", "-1", "-0.0", "1e400", "1_0.5", "x", ""]
    lines = [",".join(fields) for fields in itertools.product(indices, tokens, times)]
    assert len(lines) == 2145
    rows = [ResultTuple(code, t) for code in ResultCode for t in (0, 1e-7, 59.9999996, 1e6)]
    as_written = ["%s,%s,%s" % tuple(result_row(12, result)) for result in rows]
    lines += [line + end for line in as_written for end in ("", "\n", "\r\n", "\r")]
    lines += [
        "", "\n", "\r\n", " \t\n", "\u2003\n", "\x1c", "#", "# 7,TRUE,0.5\n", "  # note\r\n",
        "index,result,time_seconds\r\n", "INDEX,RESULT\n", " Index\n", "indexes,TRUE,1\n",
        "  7 , TRUE , 0.5  \r\n", "\u20037\u2003,\u2003TRUE\u2003,\u20030.5\u2003\n",
        "\x1c7,TRUE,0.5\x1c", "7\x1d,TRUE\x1e,\x1f0.5",
        "7", "7,TRUE", "7,TRUE,0.5,", "7,TRUE,0.5,1\n", ",,", ",,,", "x,TRUE", "7,MAYBE,x,1",
        "7,,0.5", "7,TRUE,", "1" * 5000 + ",TRUE,0.5", "7,TRUE," + "1" * 400,
    ]
    outcomes = [_outcome(parse_result_row, line) for line in lines]
    for line, outcome in zip(lines, outcomes):
        assert outcome == _outcome(reference_result_row, line), repr(line)
    assert sum(isinstance(outcome[1], ResultTuple) for outcome in outcomes if outcome) > 100
    for result, line in zip(rows, as_written):
        assert parse_result_row(line + "\r\n", "here") == (12, ResultTuple(result.code, round(result.time, 6)))