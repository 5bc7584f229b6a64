"""Acceptance suite: one test per release criterion.

Every test prints a single pass/fail line (visible with `pytest -s` or in
the failure report) and asserts the criterion at its stated tolerance.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from conftest import A, E, correct_pipeline_case, legacy_parse, matrix_of
from intsplits import (
    AnnotatedQuantifier,
    BitVectorVar,
    Formula,
    InSet,
    Less,
    Matrix,
    QuantifierBlock,
    ResultCode,
    ResultTable,
    ResultTuple,
    SplitMode,
    Top,
    bits_of,
    check_correctness,
    evaluate,
    ingest,
    merge,
    parse,
    parse_file,
    plan,
    speedup_report,
    split_formula,
    write,
)
from intsplits.cli import main as cli_main

TRIPLE_19_TEXT = (
    "cs int <19\ncs int <19\ncs int <19\n"
    "p cnf 15 2\n"
    "e 1 2 3 4 5 0\na 6 7 8 9 10 0\ne 11 12 13 14 15 0\n"
    "1 -6 11 0\n2 -7 12 0\n"
)

FIG1_TEXT = (
    "cs int [1 2] <3\ncs int [3 4] <3\n"
    "p cnf 4 4\na 1 2 0\ne 3 4 0\n-1 3 0\n1 -3 0\n-2 4 0\n2 -4 0\n"
)


def _criterion(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number}: {status} - {description}")
    assert passed, f"criterion {number} failed: {description} {detail}"


def test_criterion_1_subproblem_counts(tmp_path):
    started = time.monotonic()
    formula = parse(TRIPLE_19_TEXT)
    with_plan = plan(formula, 15)
    with_paths = split_formula(formula, with_plan, tmp_path / "with", "f.qdimacs")
    without_plan = plan(formula, 15, SplitMode.PLAIN)
    without_paths = split_formula(formula, without_plan, tmp_path / "without", "f.qdimacs")
    elapsed = time.monotonic() - started
    ratio = Fraction(len(with_paths), len(without_paths))
    ok = (
        len(with_paths) == 6859
        and len(without_paths) == 32768
        and Fraction(209, 1000) <= ratio <= Fraction(210, 1000)
        and elapsed < 60.0
    )
    _criterion(
        1,
        "depth-15 split of three 5-bit below-19 vectors: 6859 vs 32768 files, "
        "ratio in [0.209, 0.210], under 60 s",
        ok,
        f"(got {len(with_paths)}/{len(without_paths)}, ratio {float(ratio):.4f}, {elapsed:.1f} s)",
    )


def test_criterion_2_sixteen_branches_nine_accounted(tmp_path):
    formula = parse(FIG1_TEXT)
    bounded = split_formula(formula, plan(formula, 4), tmp_path / "bounded", "f.qdimacs")
    plain = split_formula(
        formula, plan(formula, 4, SplitMode.PLAIN), tmp_path / "plain", "f.qdimacs"
    )
    _criterion(
        2,
        "two stacked 2-bit below-3 vectors at depth 4: 9 sub-problems, 16 plain",
        len(bounded) == 9 and len(plain) == 16,
        f"(got {len(bounded)} and {len(plain)})",
    )


def test_criterion_3_efficiency_arithmetic(tmp_path, capsys):
    def annotated(width, constraint, kind=E):
        return AnnotatedQuantifier(
            kind, BitVectorVar(tuple(range(1, width + 1))), (constraint,)
        )

    exact = (
        annotated(2, Less(3)).eta == Fraction(1, 3)
        and annotated(2, Top()).eta == Fraction(0)
        and annotated(5, Less(19)).eta == Fraction(13, 19)
    )
    path = tmp_path / "stats.qdimacs"
    path.write_text("cs int <19\np cnf 5 1\ne 1 2 3 4 5 0\n1 0\n")
    assert cli_main(["stats", str(path)]) == 0
    table = capsys.readouterr().out
    _criterion(
        3,
        "efficiency is exact: 1/3 for 2-bit <3, 0 for unrestricted, 13/19 for 5-bit <19",
        exact and "13/19" in table,
    )


def test_criterion_4_pipeline_agrees_with_oracle(tmp_path):
    started = time.monotonic()
    rng = random.Random(20240825)
    total = 200
    agreements = 0
    for at in range(total):
        formula, chosen = correct_pipeline_case(rng, max_vars=12)
        directory = tmp_path / f"case{at}"
        paths = split_formula(formula, chosen, directory, "case.qdimacs")
        rows = ["index,result,time_seconds"]
        for index, path in enumerate(paths):
            value = evaluate(parse_file(path))
            rows.append(f"{index},{'TRUE' if value else 'FALSE'},0.01")
        results = directory / "results.csv"
        results.write_text("\n".join(rows) + "\n")
        final, _ = merge(ingest(results, chosen))
        expected = ResultCode.TRUE if evaluate(formula) else ResultCode.FALSE
        agreements += final.code is expected
    elapsed = time.monotonic() - started
    _criterion(
        4,
        f"split/run/merge verdict equals direct evaluation on {total} random "
        f"checker-verified instances, under 5 min",
        agreements == total and elapsed < 300.0,
        f"(agreed {agreements}/{total} in {elapsed:.1f} s)",
    )


def _forced_value_formula(width: int, target: int, kind) -> Matrix:
    clauses = [
        ((v,) if bit else (-v,))
        for v, bit in zip(range(1, width + 1), bits_of(target, width))
    ]
    return matrix_of(clauses, width)


def test_criterion_5_checker_finds_crafted_mistakes():
    broken_found = 0
    repaired_ok = 0
    for at in range(20):
        width = 2 + (at % 2)
        size = 1 << width
        target = (5 * at + 3) % size
        other = (target + 1) % size
        kind = E if at % 2 == 0 else A
        matrix = _forced_value_formula(width, target, kind)
        blocks = (QuantifierBlock(kind, tuple(range(1, width + 1))),)
        vector = BitVectorVar(tuple(range(1, width + 1)))
        if kind is E:
            # the only satisfying value is excluded from the accounted set
            bad = InSet.of(bits_of(other, width))
            good = Less(target + 1)
        else:
            # the only falsifying values are excluded, masking falsity
            bad = InSet.of(bits_of(target, width))
            good = InSet.of(bits_of(target, width), bits_of(other, width))
        broken = Formula(matrix, blocks, (AnnotatedQuantifier(kind, vector, (bad,)),))
        verdict = check_correctness(broken)
        if not verdict.correct and verdict.restricted != verdict.unrestricted:
            broken_found += 1
        repaired = Formula(matrix, blocks, (AnnotatedQuantifier(kind, vector, (good,)),))
        repaired_ok += check_correctness(repaired).correct
    _criterion(
        5,
        "checker flags all 20 crafted wrong annotations with a witness and "
        "accepts their repaired counterparts",
        broken_found == 20 and repaired_ok == 20,
        f"(flagged {broken_found}/20, repaired {repaired_ok}/20)",
    )


def _reference_tree(codes, times, shape, level=0, start=0, span=None):
    """Recursive three-valued evaluation of the expansion tree, written
    against the stated rule: max result and min time for exists, min result
    and max time for forall."""
    if span is None:
        span = len(codes)
    if level == len(shape):
        return codes[start], times[start]
    kind, size = shape[level]
    child_span = span // size
    children = [
        _reference_tree(codes, times, shape, level + 1, start + k * child_span, child_span)
        for k in range(size)
    ]
    child_codes = [c for c, _ in children]
    child_times = [t for _, t in children]
    if kind is E:
        return max(child_codes), min(child_times)
    return min(child_codes), max(child_times)


def test_criterion_6_merge_matches_tree_semantics():
    rng = random.Random(20240826)
    forall_exists = plan(parse(FIG1_TEXT), 4)
    exists_forall = plan(
        parse(
            "cs int [1 2] <3\ncs int [3 4] <3\n"
            "p cnf 4 1\ne 1 2 0\na 3 4 0\n1 3 0\n"
        ),
        4,
    )
    combos = rng.sample(range(3**9), 10_000)
    mismatches = 0
    for raw in combos:
        codes = []
        rest = raw
        for _ in range(9):
            codes.append(ResultCode(rest % 3))
            rest //= 3
        times = [float((7 * at + raw) % 11 + 1) for at in range(9)]
        for chosen in (forall_exists, exists_forall):
            table = ResultTable(
                chosen, tuple(ResultTuple(c, t) for c, t in zip(codes, times))
            )
            final, _ = merge(table, "paper")
            shape = [(aq.kind, aq.s) for aq in chosen.quantifiers]
            expected = _reference_tree(codes, times, shape)
            if (final.code, final.time) != expected:
                mismatches += 1
    _criterion(
        6,
        "merge equals direct tree evaluation (code and paper-mode time) on "
        "10000 sampled three-valued leaf combinations for both level shapes",
        mismatches == 0,
        f"({mismatches} mismatches)",
    )


def _roundtrip_corpus() -> list[str]:
    corpus = [
        # explicit variable lists, each constraint form
        "cs int [1 2] <3\np cnf 2 1\ne 1 2 0\n1 2 0\n",
        "cs int [1 2] >1\np cnf 2 1\ne 1 2 0\n1 2 0\n",
        "cs int [1 2] ={10}\np cnf 2 1\ne 1 2 0\n1 2 0\n",
        "cs int [1 2 3] ={101 011 110}\np cnf 3 1\ne 1 2 3 0\n1 2 0\n",
        # implicit variable lists
        "cs int <19\np cnf 15 1\ne 1 2 3 4 5 0\na 6 7 8 9 10 0\ne 11 12 13 14 15 0\n1 -6 0\n",
        "cs int <3\np cnf 2 1\na 1 2 0\n1 -2 0\n",
        "cs int ={101 111}\np cnf 3 1\ne 1 2 3 0\n1 0\n",
        "cs int <3;<5\np cnf 3 1\ne 1 2 3 0\n1 0\n",
        TRIPLE_19_TEXT,
        # semicolon-separated constraint lists
        "cs int [1 2 3] <3;>5\np cnf 3 1\ne 1 2 3 0\n1 0\n",
        "cs int [1 2] <2;={11}\np cnf 2 1\ne 1 2 0\n1 0\n",
        "cs int [1 2 3] <2;>6;={011}\np cnf 3 1\na 1 2 3 0\n1 2 3 0\n",
        # DIMACS mode: no prefix, explicit vectors only
        "cs int [1 2] <3\np cnf 2 1\n1 -2 0\n",
        "cs int [1 2] >1\np cnf 3 2\n1 -2 0\n3 0\n",
        "cs int [2 3] ={01 10}\np cnf 3 1\n1 2 3 0\n",
        "cs int [1 2] <4;={01}\np cnf 2 1\n-1 -2 0\n",
        # several annotations, alternating and stacked blocks
        FIG1_TEXT,
        "cs int [1 2] <3\ncs int [3 4] <4\np cnf 4 1\ne 1 2 3 4 0\n1 4 0\n",
        "cs int [2 1] <3\ncs int [4 3] <3\np cnf 4 1\ne 1 2 0\na 3 4 0\n1 -3 0\n",
        "cs int [1] ={1}\ncs int [2 3] <3\ncs int [4] ={0}\np cnf 4 1\ne 1 0\na 2 3 0\ne 4 0\n1 -2 4 0\n",
        # partially annotated and unannotated (unrestricted) blocks
        "cs int [1 2] <3\np cnf 6 1\ne 1 2 3 0\na 4 5 6 0\n1 -4 0\n",
        "cs int <2\np cnf 4 1\ne 1 2 0\na 3 4 0\n1 3 0\n",
        # legacy files without annotations
        "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n-1 -2 0\n",
        "p cnf 3 2\na 1 0\ne 2 3 0\n1 2 0\n-1 3 0\n",
        "p cnf 2 2\n1 2 0\n-1 -2 0\n",
        "c comment first\nc another\np cnf 1 1\ne 1 0\n1 0\n",
        # whitespace and separator variants
        "cs int [ 1 2 ] < 3\np cnf 2 1\ne 1 2 0\n1 2 0\n",
        "cs int [1 2] ={01, 10}\np cnf 2 1\ne 1 2 0\n1 2 0\n",
        "cs int [1 2 3] ={101;}\np cnf 3 1\ne 1 2 3 0\n1 0\n",
        "c note\r\ncs int [1 2] <3\r\np cnf 2 1\r\ne 1 2 0\r\n1 2 0\r\n",
        "p cnf 2 1\nc stray comment\ne 1 2 0\n\n1 -2 0\n",
        # degenerate shapes
        "p cnf 0 0\n",
        "p cnf 1 2\ne 1 0\n1 0\n0\n",
        "p cnf 1 1\ne 1 0\n1 -1 0\n",
        "p cnf 1 1\na 1 0\n1 0\n",
    ]
    return corpus


def test_criterion_7_roundtrip_fixpoint():
    corpus = _roundtrip_corpus()
    assert len(corpus) >= 30
    stable = 0
    legacy_clean = True
    for text in corpus:
        first = parse(text)
        emitted = write(first)
        second = parse(emitted)
        if first == second and write(second) == emitted:
            stable += 1
        legacy_parse(emitted)  # every output stays legacy readable
        if "cs" not in text:
            legacy_clean &= first.annotations == ()
    _criterion(
        7,
        f"parse/write/parse is a fixpoint on a {len(corpus)}-file corpus "
        f"covering the whole annotation grammar; legacy files parse unchanged",
        stable == len(corpus) and legacy_clean,
        f"({stable}/{len(corpus)} stable)",
    )


def test_criterion_8_speedup_arithmetic():
    chosen = plan(parse(FIG1_TEXT), 4)
    uniform = ResultTable(
        chosen, tuple(ResultTuple(ResultCode.TRUE, 1.0) for _ in range(9))
    )
    report = speedup_report(uniform, sequential_time=9.0)
    exact_speedup = report["speedup"] == 9.0 / report["parallel_time_s"]
    uniform_ok = report["speedup"] == 9.0 and report["parallel_time_s"] == 1.0

    rng = random.Random(20240827)
    sums_ok = True
    for _ in range(20):
        times = [round(rng.uniform(0.001, 3700.0), 6) for _ in range(9)]
        codes = [rng.choice(list(ResultCode)) for _ in range(9)]
        table = ResultTable(
            chosen, tuple(ResultTuple(c, t) for c, t in zip(codes, times))
        )
        summary = speedup_report(table, sequential_time=123.456)
        sums_ok &= abs(summary["total_cpu_time_s"] - sum(times)) < 1e-9
        sums_ok &= summary["speedup"] == 123.456 / summary["parallel_time_s"]
    _criterion(
        8,
        "speed-up equals sequential time over merged parallel time exactly; "
        "total CPU time equals the ingested sum within 1e-9 s",
        exact_speedup and uniform_ok and sums_ok,
    )
