"""Model-level checks: integer encoding, expansion counting, clause
simplification and structural invariants."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from conftest import A, E, all_bitvectors, clause_satisfied, matrix_of, reference_accounted
from intsplits import (
    AnnotatedQuantifier,
    BitVectorVar,
    Formula,
    FormulaError,
    Greater,
    InSet,
    InvalidAnnotationError,
    Less,
    PatternWidthMismatchError,
    QuantifierBlock,
    Top,
    accounted_values,
    literals_of,
    bits_of,
    integer_value,
)
from intsplits.formula import simplify


def aq(width, *constraints, kind=E, start=1):
    return AnnotatedQuantifier(
        kind, BitVectorVar(tuple(range(start, start + width))), tuple(constraints)
    )


def accepts(quantifier, bits):
    """Whether some constraint of the quantifier accepts the bit-vector."""
    return integer_value(bits) in accounted_values(quantifier)


# integer encoding -----------------------------------------------------------


def test_integer_value_examples():
    assert integer_value((1, 0)) == 2
    assert integer_value((0, 0, 0)) == 0
    assert integer_value((1, 1, 1)) == 7


def test_integer_value_is_a_bijection():
    for width in range(1, 7):
        values = [integer_value(bits) for bits in all_bitvectors(width)]
        assert sorted(values) == list(range(1 << width))
        for value in range(1 << width):
            assert integer_value(bits_of(value, width)) == value


def test_integer_value_rejects_empty_and_junk():
    with pytest.raises(ValueError):
        integer_value(())
    with pytest.raises(ValueError):
        integer_value((0, 2))
    with pytest.raises(ValueError):
        bits_of(4, 2)


# constraint satisfaction ----------------------------------------------------


def test_constraint_satisfied_examples():
    below_three = aq(2, Less(3))
    assert accepts(below_three, (1, 0))
    assert not accepts(below_three, (1, 1))
    member = aq(3, InSet.of((1, 0, 1), (1, 1, 1)))
    assert accepts(member, (1, 0, 1))
    assert not accepts(member, (1, 1, 0))


def test_union_semantics_over_constraint_list():
    # satisfying any single constraint of the list is enough
    either = aq(3, Less(2), Greater(5))
    assert accepts(either, (0, 0, 1))  # value 1 < 2
    assert accepts(either, (1, 1, 0))  # value 6 > 5
    assert not accepts(either, (0, 1, 1))  # value 3 matches neither


# expansion counting ---------------------------------------------------------


def test_ae_count_examples():
    for quantifier, counts in [
        (aq(5, Less(19)), (19, 13)),
        (aq(2, Greater(2)), (1, 3)),
        (aq(2, Top()), (4, 0)),
    ]:
        assert (quantifier.s, quantifier.u) == counts


def test_ae_count_matches_reference_enumeration():
    rng = random.Random(20240817)
    for _ in range(60):
        width = rng.randint(1, 8)
        size = 1 << width
        constraints = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.4:
                constraints.append(Less(rng.randint(1, size)))
            elif roll < 0.7 and size > 2:
                constraints.append(Greater(rng.randint(1, size - 2)))
            else:
                count = rng.randint(1, min(size, 3))
                patterns = {
                    tuple(bits)
                    for bits in rng.sample(list(all_bitvectors(width)), count)
                }
                constraints.append(InSet(frozenset(patterns)))
        expected = sum(
            1 for bits in all_bitvectors(width) if reference_accounted(constraints, bits)
        )
        if expected == 0:
            with pytest.raises(InvalidAnnotationError):
                aq(width, *constraints)
            continue
        quantifier = aq(width, *constraints)
        s, u = quantifier.s, quantifier.u
        assert s == expected
        assert s + u == size
        assert s == sum(
            1
            for bits in all_bitvectors(width)
            if accepts(quantifier, bits)
        )


def test_zero_accounted_is_rejected_at_construction():
    with pytest.raises(InvalidAnnotationError):
        aq(2, Greater(3))
    with pytest.raises(InvalidAnnotationError):
        aq(1, Greater(1))
    # <1 still accounts the value 0
    below_one = aq(2, Less(1))
    assert (below_one.s, below_one.u) == (1, 3)


def test_wide_vectors_count_exactly():
    wide = 24
    size = 1 << wide
    two = InSet.of(tuple([0] * wide), tuple([1] * wide))
    for quantifier, counts in [
        (aq(wide, Less(1000)), (1000, size - 1000)),
        (aq(wide, Greater(5)), (size - 6, 6)),
        (aq(wide, Top()), (size, 0)),
        (aq(wide, two), (2, size - 2)),
        # the values 3, 4 and 5 are the only unaccounted ones
        (aq(wide, Less(3), Greater(5)), (size - 3, 3)),
    ]:
        assert (quantifier.s, quantifier.u) == counts
    with pytest.raises(InvalidAnnotationError):
        aq(wide, Greater(size - 1))


def test_accounted_values_agree_with_counts():
    cases = [
        aq(2, Less(3)),
        aq(2, Top()),
        aq(3, Greater(2)),
        aq(3, InSet.of((1, 0, 1), (1, 1, 1))),
        aq(3, Less(2), Greater(5)),
        aq(4, Less(3), InSet.of((0, 0, 1, 1), (1, 0, 0, 0)), Greater(12)),
        aq(24, Greater(1000)),
        aq(24, Less(3), Greater(5)),
        aq(32, Greater((1 << 32) - 5), Less(3), InSet.of(bits_of(9, 32))),
    ]
    for quantifier in cases:
        values = accounted_values(quantifier)
        assert len(values) == quantifier.s
        width = quantifier.width

        def reference(candidates, count=None):
            return list(
                itertools.islice(
                    (
                        value
                        for value in candidates
                        if reference_accounted(quantifier.constraints, bits_of(value, width))
                    ),
                    count,
                )
            )

        if width <= 8:
            expected = reference(range(1 << width))
            assert list(values) == expected
            assert [
                integer_value(bits)
                for bits in all_bitvectors(width)
                if accepts(quantifier, bits)
            ] == expected
        else:
            # wide: compare both ends without materialising the values; every
            # wide case accounts values near 0 and near 2^width
            assert list(itertools.islice(values, 4)) == reference(range(1 << width), 4)
            tail = list(itertools.islice(values, quantifier.s - 4, None))
            assert tail == reference(reversed(range(1 << width)), 4)[::-1]
            for value in tail:
                assert accepts(quantifier, bits_of(value, width))


# efficiency -----------------------------------------------------------------


def test_efficiency_examples_exact():
    assert aq(2, Less(3)).eta == Fraction(1, 3)
    assert aq(2, Top()).eta == 0
    assert aq(4, Top()).eta == 0
    assert aq(5, Less(19)).eta == Fraction(13, 19)
    assert isinstance(aq(5, Less(19)).eta, Fraction)


# clause simplification ------------------------------------------------------


def test_simplify_examples():
    clauses = ((1, 2), (-1, -2))
    assert simplify(clauses, (1,)) == ((-2,),)
    assert () in simplify(clauses, (1, 2))
    assert simplify(clauses, ()) == clauses


def test_simplify_idempotent():
    clauses = ((1, 2, 3), (-1, -2), (2, -3))
    literals = (-1, 3)
    once = simplify(clauses, literals)
    assert simplify(once, ()) == once
    # re-applying the remaining part of the assignment changes nothing
    assert simplify(once, literals) == once


def test_simplify_preserves_models():
    rng = random.Random(20240818)
    for _ in range(30):
        count = rng.randint(2, 8)
        variables = list(range(1, count + 1))
        clauses = []
        for _ in range(rng.randint(1, 2 * count)):
            chosen = rng.sample(variables, rng.randint(1, min(3, count)))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
        assigned = rng.sample(variables, rng.randint(0, count))
        sigma = {v: rng.randint(0, 1) for v in assigned}
        simplified = simplify(tuple(clauses), [v if bit else -v for v, bit in sigma.items()])
        free = [v for v in variables if v not in sigma]
        for bits in itertools.product((0, 1), repeat=len(free)):
            tau = {**sigma, **dict(zip(free, bits))}
            before = all(clause_satisfied(c, tau) for c in clauses)
            after = all(
                clause_satisfied(c, tau) if c else False
                for c in simplified
            )
            assert before == after


def test_literals_of_follows_bits_of():
    assert literals_of((4, 2, 7), 0b101) == (4, -2, 7)
    assert literals_of((3,), 0) == (-3,)
    with pytest.raises(ValueError):
        literals_of((1, 2), 4)


# structural invariants ------------------------------------------------------


def test_basic_type_validation():
    with pytest.raises(FormulaError):
        matrix_of([(0,)], 1)
    with pytest.raises(FormulaError):
        Less(0)
    with pytest.raises(FormulaError):
        InSet(frozenset())
    with pytest.raises(FormulaError):
        InSet.of((0, 2))
    with pytest.raises(FormulaError):
        BitVectorVar(())
    with pytest.raises(FormulaError):
        BitVectorVar((1, 1))
    with pytest.raises(FormulaError):
        QuantifierBlock(E, ())
    with pytest.raises(FormulaError):
        matrix_of([(3,)], 2)
    with pytest.raises(FormulaError):
        matrix_of([(-3,)], 2)
    with pytest.raises(InvalidAnnotationError):
        AnnotatedQuantifier(E, BitVectorVar((1, 2)), ())


def test_pattern_width_checked_against_bitvector():
    with pytest.raises(PatternWidthMismatchError):
        aq(3, InSet.of((1, 0)))


def _formula(prefix, annotations, clauses=((1,),), count=None):
    if count is None:
        count = max(v for block in prefix for v in block.variables)
    return Formula(matrix_of(clauses, count), tuple(prefix), tuple(annotations))


def test_formula_requires_closed_matrix():
    with pytest.raises(FormulaError):
        _formula([QuantifierBlock(E, (1,))], [], clauses=((1, 2),), count=2)


def test_formula_rejects_duplicate_quantification():
    with pytest.raises(FormulaError):
        _formula([QuantifierBlock(E, (1,)), QuantifierBlock(A, (1,))], [])


def test_annotations_must_align_with_prefix():
    blocks = [QuantifierBlock(E, (1, 2)), QuantifierBlock(A, (3, 4))]
    spanning = AnnotatedQuantifier(E, BitVectorVar((2, 3)), (Top(),))
    with pytest.raises(FormulaError):
        _formula(blocks, [spanning])
    # out of prefix order: inner block annotated before the outer one
    inner = AnnotatedQuantifier(A, BitVectorVar((3, 4)), (Top(),))
    outer = AnnotatedQuantifier(E, BitVectorVar((1, 2)), (Top(),))
    with pytest.raises(FormulaError):
        _formula(blocks, [inner, outer])
    # gap: block 1 only half claimed when block 2 is annotated
    half = AnnotatedQuantifier(E, BitVectorVar((1,)), (Top(),))
    with pytest.raises(FormulaError):
        _formula(blocks, [half, inner])
    # correct order and coverage passes
    _formula(blocks, [outer, inner])
    # trailing unannotated variables inside the last annotated block are fine
    _formula(blocks, [half])


def test_annotation_kind_must_match_block():
    blocks = [QuantifierBlock(E, (1, 2))]
    wrong = AnnotatedQuantifier(A, BitVectorVar((1, 2)), (Top(),))
    with pytest.raises(FormulaError):
        _formula(blocks, [wrong])


def test_shared_variable_between_bitvectors_rejected():
    blocks = [QuantifierBlock(E, (1, 2, 3))]
    first = AnnotatedQuantifier(E, BitVectorVar((1, 2)), (Top(),))
    second = AnnotatedQuantifier(E, BitVectorVar((2, 3)), (Top(),))
    with pytest.raises(FormulaError):
        _formula(blocks, [first, second])


def test_prefix_free_formulas_allow_existential_annotations_only():
    matrix = matrix_of([(1, -2)], 2)
    Formula(matrix, (), (AnnotatedQuantifier(E, BitVectorVar((1, 2)), (Less(3),)),))
    with pytest.raises(FormulaError):
        Formula(matrix, (), (AnnotatedQuantifier(A, BitVectorVar((1, 2)), (Less(3),)),))
