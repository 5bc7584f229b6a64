"""Oracle semantics: plain recursion, bounded quantification, the
annotation-correctness check and the evaluation budget."""

from __future__ import annotations

import random

import pytest

from conftest import (
    A,
    E,
    matrix_of,
    random_annotated_formula,
    random_constraint,
    reference_bounded_value,
    reference_value_of_formula,
)
from intsplits import (
    AnnotatedQuantifier,
    BitVectorVar,
    BudgetExceededError,
    CorrectnessVerdict,
    EvalBudget,
    Formula,
    Less,
    Matrix,
    QuantifierBlock,
    Top,
    check_correctness,
    evaluate,
    evaluate_with_intsplits,
    parse,
)

XOR_MATRIX = matrix_of([(1, 2), (-1, -2)], 2)


def test_quantifier_order_matters():
    forall_exists = Formula(XOR_MATRIX, (QuantifierBlock(A, (1,)), QuantifierBlock(E, (2,))))
    exists_forall = Formula(XOR_MATRIX, (QuantifierBlock(E, (2,)), QuantifierBlock(A, (1,))))
    assert evaluate(forall_exists) is True
    assert evaluate(exists_forall) is False


def test_degenerate_matrices():
    assert evaluate(Formula(Matrix((), 0))) is True
    assert evaluate(parse("p cnf 0 0\n")) is True
    empty_clause = parse("p cnf 1 1\ne 1 0\n0\n")
    assert evaluate(empty_clause) is False


def test_prefix_free_files_are_existential():
    assert evaluate(parse("p cnf 2 2\n1 2 0\n-1 -2 0\n")) is True
    assert evaluate(parse("p cnf 1 2\n1 0\n-1 0\n")) is False


def test_top_only_annotations_match_plain_semantics():
    rng = random.Random(99)
    for _ in range(25):
        formula = random_annotated_formula(rng, max_vars=10, require_correct=False)
        assert evaluate_with_intsplits(formula) == evaluate(formula)


def test_bounds_can_change_the_verdict():
    # restricting (x1,x2) to values below 2 forces x1 = 0
    matrix = matrix_of([(1,)], 2)
    blocks = (QuantifierBlock(E, (1, 2)),)
    restricted = Formula(
        matrix, blocks, (AnnotatedQuantifier(E, BitVectorVar((1, 2)), (Less(2),)),)
    )
    assert evaluate(restricted) is True
    assert evaluate_with_intsplits(restricted) is False


def test_check_correctness_reports_witness():
    matrix = matrix_of([(1,)], 2)
    blocks = (QuantifierBlock(E, (1, 2)),)
    bad = Formula(matrix, blocks, (AnnotatedQuantifier(E, BitVectorVar((1, 2)), (Less(2),)),))
    verdict = check_correctness(bad)
    assert not verdict.correct
    assert (verdict.restricted, verdict.unrestricted) == (False, True)
    assert "INCORRECT" in str(verdict)

    xor_blocks = (QuantifierBlock(E, (1, 2)),)
    good = Formula(
        XOR_MATRIX, xor_blocks, (AnnotatedQuantifier(E, BitVectorVar((1, 2)), (Less(3),)),)
    )
    assert check_correctness(good).correct
    top_only = Formula(
        XOR_MATRIX, xor_blocks, (AnnotatedQuantifier(E, BitVectorVar((1, 2)), (Top(),)),)
    )
    assert check_correctness(top_only).correct


def test_matches_reference_semantics_on_random_formulas():
    rng = random.Random(20240819)
    for _ in range(40):
        formula = random_annotated_formula(rng, max_vars=9, require_correct=False)
        assert evaluate(formula) == reference_value_of_formula(formula)


def test_bounded_and_plain_semantics_match_the_references():
    # one or two constraints per bit-vector, drawn at random and not
    # filtered by the checker, so the bounds often change the truth value
    rng = random.Random(20261018)
    differ = 0
    for _ in range(60):
        base = random_annotated_formula(rng, max_vars=9, require_correct=False)
        annotations = tuple(
            AnnotatedQuantifier(
                aq.kind,
                aq.bitvector,
                tuple(random_constraint(rng, aq.width) for _ in range(rng.randint(1, 2))),
            )
            for aq in base.annotations
        )
        formula = Formula(base.matrix, base.prefix, annotations)
        plain = reference_value_of_formula(formula)
        bounded = reference_bounded_value(formula)
        assert evaluate(formula) is plain
        assert evaluate_with_intsplits(formula) is bounded
        assert check_correctness(formula) == CorrectnessVerdict(bounded == plain, bounded, plain)
        differ += bounded != plain
    assert differ > 0

    # annotations the checker accepted keep the truth value
    for _ in range(25):
        formula = random_annotated_formula(rng, max_vars=9)
        value = reference_value_of_formula(formula)
        assert reference_bounded_value(formula) is value
        assert evaluate(formula) is value and evaluate_with_intsplits(formula) is value

    crossed = parse(
        "cs int [1 2] <3\ncs int [3 4] <3\n"
        "p cnf 4 4\na 1 2 0\ne 3 4 0\n-1 3 0\n1 -3 0\n-2 4 0\n2 -4 0\n"
    )
    assert reference_value_of_formula(crossed) is reference_bounded_value(crossed) is True
    assert evaluate(crossed) is evaluate_with_intsplits(crossed) is True


def test_bitwise_and_vectorwise_evaluation_agree():
    # grouping plain variables into unrestricted vectors must not change
    # anything, whatever the grouping
    rng = random.Random(31337)
    for _ in range(25):
        formula = random_annotated_formula(rng, max_vars=10, require_correct=False)
        plain = Formula(formula.matrix, formula.prefix, ())
        assert evaluate_with_intsplits(formula) == evaluate(plain)


def test_budget_limits():
    wide = Formula(
        matrix_of([(1,)], 26),
        (QuantifierBlock(E, tuple(range(1, 27))),),
    )
    with pytest.raises(BudgetExceededError):
        evaluate(wide)
    assert evaluate(wide, EvalBudget(max_variables=26)) is True
    with pytest.raises(BudgetExceededError):
        evaluate(wide, EvalBudget(max_variables=30, deadline=0.0))
    assert evaluate(wide, EvalBudget(max_variables=None)) is True
    # 2000 steps that leave the matrix undecided recurse past Python's limit.
    long = Formula(matrix_of([(2000,)], 2000), (QuantifierBlock(E, tuple(range(1, 2001))),))
    with pytest.raises(BudgetExceededError, match="2000 quantification steps exceed the recursion limit"):
        evaluate(long, EvalBudget(max_variables=None))
