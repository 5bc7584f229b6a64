"""Oracle semantics: plain recursion, bounded quantification, the
annotation-correctness check and the evaluation budget."""

from __future__ import annotations

import random
import time

import pytest

from conftest import (
    A,
    E,
    matrix_of,
    quantified_chain,
    random_annotated_formula,
    random_clauses,
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
    IntsplitsError,
    Less,
    Matrix,
    QuantifierBlock,
    SplitMode,
    Top,
    check_correctness,
    enumerate_accounted,
    evaluate,
    evaluate_with_intsplits,
    expanded_copy,
    parse,
    plan,
    sorted_annotations,
)
from intsplits import evaluator
from intsplits.formula import simplify

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


def _gate_draw(rng: random.Random) -> Formula:
    """A random closed QBF of 1-8 variables in up to six alternating blocks;
    one draw in eight is prefix-free.  Bit-vectors of width 1-3, each with
    one or two random constraints, claim the front of the prefix, and the
    other variables stay plain.  The matrix mixes random clauses with
    tautologies and unit clauses, some of them complementary."""
    total = rng.randint(1, 8)
    cuts = sorted(rng.sample(range(1, total), min(total - 1, rng.randint(0, 5))))
    kind = rng.choice([E, A])
    blocks = []
    for lo, hi in zip([0, *cuts], [*cuts, total]):
        blocks.append(QuantifierBlock(kind, tuple(range(lo + 1, hi + 1))))
        kind = A if kind is E else E
    prefix_free = rng.random() < 0.125
    if prefix_free:
        blocks = [QuantifierBlock(E, tuple(range(1, total + 1)))]
    claimed = rng.randint(0, total)
    annotations = []
    for block in blocks:
        free = [v for v in block.variables if v <= claimed]
        while free:
            width = rng.randint(1, min(3, len(free)))
            vector, free = tuple(free[:width]), free[width:]
            constraints = tuple(random_constraint(rng, width) for _ in range(rng.randint(1, 2)))
            annotations.append(AnnotatedQuantifier(block.kind, BitVectorVar(vector), constraints))
    variables = list(range(1, total + 1))
    clauses = random_clauses(rng, variables, rng.randint(1, total + 2))
    for _ in range(rng.randint(0, 2)):
        v = rng.choice(variables)
        clauses.append((v, -v, *random_clauses(rng, variables, 1)[0]))
    for _ in range(rng.randint(0, 3)):
        clauses.append((rng.choice(variables) * rng.choice([1, -1]),))
    if rng.random() < 0.25:
        v = rng.choice(variables)
        clauses += [(v,), (-v,)]
    rng.shuffle(clauses)
    prefix = () if prefix_free else tuple(blocks)
    return Formula(matrix_of(clauses, total), prefix, tuple(annotations))


def _sub_problem(rng: random.Random, formula: Formula) -> Formula:
    """One accounted sub-problem of a random split: its assigned variables
    in a trailing existential block, their values as unit clauses."""
    depth = rng.randint(1, len(formula.prefix_variables()))
    mode = SplitMode.PLAIN
    if formula.annotations and sorted_annotations(formula)[0].width <= depth:
        mode = rng.choice([SplitMode.PLAIN, SplitMode.INTSPLIT])
    expansions = list(enumerate_accounted(plan(formula, depth, mode)))
    return expanded_copy(formula, rng.choice(expansions))


def test_propagation_matches_the_references_on_sub_problems():
    # Unit propagation, the universal-unit and complementary-unit rules and
    # passing absent variables are sound only on plain variables; drawn
    # formulas and their sub-problems put units and tautologies on annotated
    # and plain, universal and existential variables alike.
    rng = random.Random(20261019)
    differ = 0
    for _ in range(2000):
        drawn = _gate_draw(rng)
        for formula in (drawn, _sub_problem(rng, drawn)):
            plain = reference_value_of_formula(formula)
            bounded = reference_bounded_value(formula)
            assert evaluate(formula) is plain, formula
            assert evaluate_with_intsplits(formula) is bounded, formula
            differ += bounded != plain
    assert differ > 0


def _outcome(search, clauses):
    """What a search gives: the truth value, or the class of the error it raises."""
    try:
        return search(clauses, None)
    except IntsplitsError as exc:
        return type(exc)


def test_applying_existential_units_equals_searching_them():
    # The fast path of `splitter._subproblem_reader`: literals on distinct
    # plain existential variables, applied with `simplify`, give what their
    # unit clauses give, since the search propagates those first and unit
    # propagation reaches the same clauses or a conflict in any order.
    rng = random.Random(20261022)
    seen = dict.fromkeys(["prefixed", "prefix-free", "literals", "true", "false"], 0)
    for draw in range(2000):
        if draw % 2:
            drawn = _gate_draw(rng)
        else:
            drawn = random_annotated_formula(rng, max_vars=10, require_correct=False)
            if rng.random() < 0.25:
                drawn = Formula(drawn.matrix, (), ())
        for formula in (drawn, _sub_problem(rng, drawn)):
            for use_intsplits in (False, True):
                kinds, search = evaluator._prepared(formula, EvalBudget(None), use_intsplits)
                existential = [v for v, kind in kinds.items() if kind is E]
                chosen = rng.sample(existential, rng.randint(0, len(existential)))
                literals = [v * rng.choice([1, -1]) for v in chosen]
                clauses = formula.matrix.clauses
                applied = _outcome(search, simplify(clauses, literals))
                assert applied == _outcome(search, clauses + tuple((lit,) for lit in literals)), (
                    formula,
                    literals,
                )
                seen["prefixed" if formula.prefix else "prefix-free"] += 1
                seen["literals"] += bool(literals)
                if applied in (True, False):
                    seen[str(applied).lower()] += 1
    assert all(seen.values()), seen


def test_the_split_units_decide_a_sub_problem_at_its_root():
    # forall x1..x4 exists e5..e64 with (x1 | x2 | x3 | x4) and
    # (e_i | x_(i mod 4 + 1)).  A sub-problem quantifies the split's x after
    # the 60 free e_i, so a search that did not propagate the units of x
    # would branch over up to 2^60 values of the e_i before meeting them.
    free = tuple(range(5, 65))
    clauses = [(1, 2, 3, 4)] + [(e, e % 4 + 1) for e in free]
    formula = Formula(
        matrix_of(clauses, 64),
        (QuantifierBlock(A, (1, 2, 3, 4)), QuantifierBlock(E, free)),
        (AnnotatedQuantifier(A, BitVectorVar((1, 2, 3, 4)), (Top(),)),),
    )
    expansions = list(enumerate_accounted(plan(formula, 4)))
    # x = 0 falsifies the first clause; x = 1 sets x4 and forces the other e_i.
    for value, truth in ((0, False), (1, True)):
        sub = expanded_copy(formula, expansions[value])
        budget = EvalBudget(max_variables=None, deadline=time.monotonic() + 5)
        assert evaluate(sub, budget) is truth
        assert evaluate_with_intsplits(sub, budget) is truth


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
    # 1000 universal steps that each leave the matrix undecided, however far
    # the units propagate, recurse past Python's limit.
    long = parse(quantified_chain(1000))
    with pytest.raises(BudgetExceededError, match="2000 quantification steps exceed the recursion limit"):
        evaluate(long, EvalBudget(max_variables=None))


def test_a_deadline_ends_a_search_whose_nodes_walk_a_wide_matrix():
    """Every node of the search of forall x1..x20 exists y z over (x_i or y
    or z) and 60,000 copies of (y or z) simplifies all 60,020 clauses, so
    the search must poll its deadline at every node to end near it."""
    clauses = tuple((x, 21, 22) for x in range(1, 21)) + ((21, 22),) * 60_000
    formula = Formula(Matrix(clauses, 22), (QuantifierBlock(A, tuple(range(1, 21))), QuantifierBlock(E, (21, 22))))
    started = time.monotonic()
    with pytest.raises(BudgetExceededError, match="evaluation deadline exceeded"):
        evaluate(formula, EvalBudget(None, started + 0.2))
    assert time.monotonic() - started < 1


def _numbered_from_one(formula: Formula, variables: list[int]) -> Formula:
    """The prefix-free formula with `variables` renumbered 1..n in order and
    nothing else declared."""
    number = {v: i for i, v in enumerate(variables, 1)}
    clauses = [tuple(number[abs(lit)] * (1 if lit > 0 else -1) for lit in c) for c in formula.matrix.clauses]
    annotations = tuple(
        AnnotatedQuantifier(E, BitVectorVar(tuple(number[v] for v in aq.bitvector.variables)), aq.constraints)
        for aq in formula.annotations
    )
    return Formula(matrix_of(clauses, len(variables)), (), annotations)


def test_a_prefix_free_budget_counts_the_variables_the_oracle_branches_on():
    # Up to 10 variables in the clauses and annotations, up to three times as
    # many declared.  The references branch on every declared variable; an
    # unused existential one cannot change the value, so they run on the
    # same formula with the used variables numbered 1..n.
    rng = random.Random(20261020)
    annotated_draws = 0
    for _ in range(300):
        used = rng.randint(1, 10)
        declared = rng.randint(used, 3 * used)
        variables = sorted(rng.sample(range(1, declared + 1), used))
        annotations = []
        if rng.random() < 0.5:
            free = rng.sample(variables, rng.randint(1, min(used, 6)))
            while free:
                width = rng.randint(1, min(3, len(free)))
                vector, free = tuple(free[:width]), free[width:]
                constraints = tuple(random_constraint(rng, width) for _ in range(rng.randint(1, 2)))
                annotations.append(AnnotatedQuantifier(E, BitVectorVar(vector), constraints))
        annotated_draws += bool(annotations)
        clauses = random_clauses(rng, variables, rng.randint(1, 2 * used))
        formula = Formula(matrix_of(clauses, declared), (), tuple(annotations))
        in_matrix = {abs(lit) for clause in clauses for lit in clause}
        in_vectors = {v for aq in annotations for v in aq.bitvector.variables}
        reference = _numbered_from_one(formula, sorted(in_matrix | in_vectors))
        for value_of, expected, branched in (
            (evaluate, reference_value_of_formula(reference), len(in_matrix)),
            (evaluate_with_intsplits, reference_bounded_value(reference), len(in_matrix | in_vectors)),
        ):
            assert value_of(formula) is expected, formula
            assert value_of(formula, EvalBudget(max_variables=branched)) is expected
            with pytest.raises(BudgetExceededError, match=f"^{branched} quantified variables"):
                value_of(formula, EvalBudget(max_variables=branched - 1))
    assert 0 < annotated_draws < 300
