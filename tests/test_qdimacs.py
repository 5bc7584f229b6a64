"""Parser and writer behaviour: annotation resolution, validation errors,
round trips and backward compatibility."""

from __future__ import annotations

import random

import pytest

from conftest import A, E, legacy_parse, matrix_of, random_annotated_formula
from intsplits import (
    AmbiguousImplicitError,
    AnnotatedQuantifier,
    BitVectorVar,
    BlockMismatchError,
    DimacsModeViolationError,
    Formula,
    FormulaError,
    IntsplitsError,
    Greater,
    InSet,
    Less,
    MalformedHeaderError,
    ParseError,
    PatternWidthMismatchError,
    QuantifierBlock,
    Top,
    UnknownVariableError,
    parse,
    parse_file,
    write,
)
from intsplits.qdimacs import scan

PREFIX_15 = "p cnf 15 1\ne 1 2 3 4 5 0\na 6 7 8 9 10 0\ne 11 12 13 14 15 0\n1 -6 11 0\n"


def test_parse_explicit_annotation():
    formula = parse("cs int [1 2 3 4 5] <19\n" + PREFIX_15)
    (annotation,) = formula.annotations
    assert annotation.kind is E
    assert annotation.bitvector.variables == (1, 2, 3, 4, 5)
    assert annotation.constraints == (Less(19),)
    assert annotation.s == 19 and annotation.u == 13


def test_parse_implicit_annotation_takes_next_prefix_variables():
    explicit = parse("cs int [1 2 3 4 5] <19\n" + PREFIX_15)
    implicit = parse("cs int <19\n" + PREFIX_15)
    assert implicit == explicit


def test_parse_three_implicit_annotations():
    formula = parse("cs int <19\ncs int <19\ncs int <19\n" + PREFIX_15)
    assert [a.bitvector.variables for a in formula.annotations] == [
        (1, 2, 3, 4, 5),
        (6, 7, 8, 9, 10),
        (11, 12, 13, 14, 15),
    ]
    assert [a.kind for a in formula.annotations] == [E, A, E]


def test_implicit_pattern_width_comes_from_patterns():
    formula = parse(
        "cs int ={101 111}\np cnf 4 1\ne 1 2 3 4 0\n1 0\n"
    )
    (annotation,) = formula.annotations
    assert annotation.bitvector.variables == (1, 2, 3)
    assert annotation.s == 2


def test_implicit_greater_is_ambiguous():
    with pytest.raises(AmbiguousImplicitError):
        parse("cs int >2\n" + PREFIX_15)


def test_implicit_all_less_uses_largest_bound():
    formula = parse("cs int <3;<5\np cnf 4 1\ne 1 2 3 4 0\n1 0\n")
    (annotation,) = formula.annotations
    assert annotation.bitvector.variables == (1, 2, 3)  # ceil(log2 5) bits
    assert annotation.s == 5


def test_implicit_below_one_is_ambiguous():
    with pytest.raises(AmbiguousImplicitError):
        parse("cs int <1\n" + PREFIX_15)


def test_implicit_runs_out_of_block_variables():
    with pytest.raises(BlockMismatchError):
        parse("cs int <19\np cnf 5 1\ne 1 2 3 0\na 4 5 0\n1 0\n")


def test_explicit_out_of_order_and_gaps_rejected():
    with pytest.raises(BlockMismatchError):
        parse("cs int [6 7 8 9 10] <19\ncs int [1 2 3 4 5] <19\n" + PREFIX_15)
    with pytest.raises(BlockMismatchError):
        # block 1 only partially claimed when block 2 is annotated
        parse("cs int [1 2] <3\ncs int [6 7] <3\n" + PREFIX_15)
    with pytest.raises(BlockMismatchError):
        parse("cs int [5 6] <3\n" + PREFIX_15)  # spans two blocks


def test_within_block_reordering_is_allowed():
    formula = parse("cs int [3 1] <3\ncs int [2 4 5] <5\n" + PREFIX_15)
    assert formula.annotations[0].bitvector.variables == (3, 1)


def test_pattern_width_mismatch():
    with pytest.raises(PatternWidthMismatchError):
        parse("cs int [1 2 3] ={10}\np cnf 3 1\ne 1 2 3 0\n1 0\n")
    formula = parse("cs int [1 2 3] ={101;}\np cnf 3 1\ne 1 2 3 0\n1 0\n")
    assert formula.annotations[0].constraints == (InSet.of((1, 0, 1)),)


def test_semicolon_lists_and_commas_in_patterns():
    formula = parse(
        "cs int [1 2 3] <3;>5;={100, 011}\np cnf 3 1\ne 1 2 3 0\n1 0\n"
    )
    (annotation,) = formula.annotations
    assert annotation.constraints == (
        Less(3),
        Greater(5),
        InSet.of((1, 0, 0), (0, 1, 1)),
    )
    # union: {0,1,2} | {6,7} | {4,3}
    assert annotation.s == 7


def test_constraint_lists_combine_on_wide_vectors():
    variables = " ".join(str(v) for v in range(1, 25))
    formula = parse(f"cs int [{variables}] <3;>5\np cnf 24 1\ne {variables} 0\n1 0\n")
    (annotation,) = formula.annotations
    assert annotation.s == 2**24 - 3
    assert annotation.u == 3


def test_spaced_grammar_tokens_accepted():
    formula = parse(
        "cs int [ 1 2 ] < 3\np cnf 2 1\ne 1 2 0\n1 0\n"
    )
    assert formula.annotations[0].constraints == (Less(3),)


def test_dimacs_mode_requires_explicit_vars():
    formula = parse("cs int [1 2] <3\np cnf 2 1\n1 -2 0\n")
    assert formula.prefix == ()
    assert formula.annotations[0].kind is E
    with pytest.raises(DimacsModeViolationError):
        parse("cs int <3\np cnf 2 1\n1 -2 0\n")


def test_malformed_headers():
    with pytest.raises(MalformedHeaderError):
        parse("e 1 0\n1 0\n")
    with pytest.raises(MalformedHeaderError):
        parse("p cnf 2\n1 0\n")
    with pytest.raises(MalformedHeaderError):
        parse("p sat 2 1\n1 0\n")
    with pytest.raises(MalformedHeaderError):
        parse("p cnf 2 5\n1 0\n")  # clause count disagrees


def test_unknown_variables():
    with pytest.raises(UnknownVariableError):
        parse("p cnf 2 1\n1 3 0\n")
    with pytest.raises(UnknownVariableError):
        parse("cs int [1 5] <3\np cnf 2 1\ne 1 2 0\n1 0\n")
    with pytest.raises(UnknownVariableError):
        parse("p cnf 2 1\ne 1 2 3 0\n1 0\n")


def test_structure_errors():
    with pytest.raises(ParseError):
        parse("p cnf 2 1\ncs int [1] <2\n1 0\n")  # annotation after header
    with pytest.raises(ParseError):
        parse("p cnf 2 2\n1 0\ne 1 2 0\n-1 0\n")  # prefix after clauses
    with pytest.raises(ParseError):
        parse("p cnf 2 1\n1 2\n")  # missing terminator
    with pytest.raises(ParseError):
        parse("p cnf 2 1\n1 0 2 0\n")  # two clauses on one line
    with pytest.raises(ParseError):
        parse("p cnf 2 1\ne 1 2 0\n1 0\nx bogus\n")
    with pytest.raises(ParseError):
        parse("p cnf 1 1\ne 1 0\ne 1 0\n1 0\n")  # quantified twice
    with pytest.raises(FormulaError):
        parse("p cnf 2 1\ne 1 0\n1 2 0\n")  # free variable with prefix


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("p cnf 2 1\n1 3 0\n", UnknownVariableError,
         "line 2: clause references variable 3 beyond declared count 2"),
        ("cs int [1 5] <3\np cnf 2 1\ne 1 2 0\n1 0\n", UnknownVariableError,
         "line 1: annotated variable 5 beyond declared count 2"),
        ("p cnf 2 1\ne 1 2 3 0\n1 0\n", UnknownVariableError,
         "line 2: quantified variable 3 beyond declared count 2"),
        ("p cnf 2 1\ncs int [1] <2\n1 0\n", ParseError,
         "line 2: annotations must appear before the problem line"),
        ("p cnf 2 2\n1 0\ne 1 2 0\n-1 0\n", ParseError,
         "line 3: quantifier line after the first clause; the prefix must precede the matrix"),
        ("p cnf 2 1\n1 2\n", ParseError, "line 2: clause lines must end with 0"),
        ("p cnf 2 1\n1 0 2 0\n", ParseError, "line 2: embedded 0; one clause per line"),
        ("p cnf 2 1\ne 1 2 0\n1 0\nx bogus\n", ParseError,
         "line 4: clause token 'x' is not an integer"),
        ("p cnf 1 1\ne 1 0\ne 1 0\n1 0\n", ParseError, "line 3: variable 1 quantified twice"),
        ("p cnf 2 1\ne 1 0\n1 2 0\n", FormulaError,
         "free variable 2 in matrix; only closed formulas are supported"),
        ("cs int ={01 1}\n" + PREFIX_15, PatternWidthMismatchError,
         "line 1: patterns of different lengths; width is ambiguous"),
        ("cs int >2\n" + PREFIX_15, AmbiguousImplicitError,
         "line 1: the accounted count of '>' depends on the bit-vector width; "
         "list the variables explicitly"),
        ("cs int <1\n" + PREFIX_15, AmbiguousImplicitError,
         "line 1: bound <1 resolves to an empty bit-vector; list the variables explicitly"),
        ("cs int <19\np cnf 5 1\ne 1 2 3 0\na 4 5 0\n1 0\n", BlockMismatchError,
         "line 1: implicit bit-vector needs 5 variables but quantifier block 1 only has 3 left"),
        ("p cnf 2 1\n3000000000 0\n", UnknownVariableError,
         "line 2: clause references variable 3000000000 beyond declared count 2"),
    ],
)
def test_single_defect_messages(text, error, message):
    with pytest.raises(error) as raised:
        parse(text)
    assert type(raised.value) is error
    assert str(raised.value) == message


def _wide_formula(width: int, constraint) -> Formula:
    variables = tuple(range(1, width + 1))
    annotation = AnnotatedQuantifier(E, BitVectorVar(variables), (constraint,))
    return Formula(
        matrix_of([(1,)], width), (QuantifierBlock(E, variables),), (annotation,)
    )


@pytest.mark.parametrize(
    "width, constraint, written_as",
    [
        (40, Less(2**35), None),
        (32, Greater(2**32 - 5), None),
        (40, InSet.of((1,) + (0,) * 38 + (1,)), None),
        (31, Top(), Less(2**31)),
        (32, Top(), Less(2**32)),
        (40, Top(), Less(2**40)),
    ],
)
def test_wide_listed_annotations_round_trip(width, constraint, written_as):
    formula = _wide_formula(width, constraint)
    reparsed = parse(write(formula))
    assert reparsed == _wide_formula(width, written_as or constraint)
    assert reparsed.annotations[0].intervals == formula.annotations[0].intervals


def test_bounds_past_the_parse_limit_are_written_as_two_to_the_width():
    variables = (1, 2, 3, 4, 5)
    annotation = AnnotatedQuantifier(E, BitVectorVar(variables), (Less(2**40), Greater(2**40)))
    formula = Formula(matrix_of([(1,)], 5), (QuantifierBlock(E, variables),), (annotation,))
    text = write(formula)
    assert text.startswith("cs int [1 2 3 4 5] <32;>32\n")
    reparsed = parse(text)
    assert reparsed.annotations[0].intervals == annotation.intervals == ((0, 32),)
    assert write(reparsed) == text


def test_listed_width_raises_the_limits_to_its_range_only():
    wide = " ".join(str(v) for v in range(1, 41))
    tail = f"\np cnf 40 1\ne {wide} 0\n1 0\n"
    with pytest.raises(ParseError, match=f"bound {2**40 + 1} outside the accepted range"):
        parse(f"cs int [{wide}] <{2**40 + 1}" + tail)
    with pytest.raises(ParseError, match="bit pattern longer than 40 bits"):
        parse(f"cs int [{wide}] ={{{'0' * 41}}}" + tail)
    with pytest.raises(ParseError, match="bit pattern longer than 32 bits"):
        parse(f"cs int ={{{'0' * 33}}}" + tail)


def test_32bit_limits():
    with pytest.raises(ParseError):
        parse("p cnf 2147483648 0\n")
    with pytest.raises(ParseError):
        parse("cs int [1] <2147483648\np cnf 1 1\ne 1 0\n1 0\n")


def test_lenient_vs_strict_comments_after_header():
    text = "p cnf 1 1\nc a note\ne 1 0\n\n1 0\n"
    assert parse(text).matrix.variable_count == 1
    with pytest.raises(ParseError):
        parse(text, strict=True)


def test_crlf_accepted_lf_emitted():
    text = "c hello\r\np cnf 2 1\r\ne 1 2 0\r\n1 -2 0\r\n"
    formula = parse(text)
    assert "\r" not in write(formula)
    assert parse(write(formula)) == formula


def test_duplicate_literals_dropped_tautologies_kept():
    formula = parse("p cnf 2 2\n1 1 -2 0\n1 -1 0\n")
    assert formula.matrix.clauses[0] == (1, -2)
    assert formula.matrix.clauses[1] == (1, -1)
    assert "1 -1 0" in write(formula)


def test_consecutive_same_kind_prefix_lines_merge():
    formula = parse("p cnf 3 1\ne 1 0\ne 2 3 0\n1 0\n")
    assert formula.prefix == (QuantifierBlock(E, (1, 2, 3)),)
    assert write(formula).count("e ") == 1


def test_empty_clause_line_preserved():
    formula = parse("p cnf 1 2\ne 1 0\n1 0\n0\n")
    assert formula.matrix.clauses[1] == ()
    assert parse(write(formula)) == formula


def test_legacy_files_parse_without_annotations():
    legacy = "c plain file\np cnf 2 2\ne 1 0\na 2 0\n1 2 0\n-1 -2 0\n"
    formula = parse(legacy)
    assert formula.annotations == ()
    assert parse(write(formula)) == formula


def test_written_files_stay_legacy_compatible():
    formula = parse("cs int [1 2] <3\ncs int [3 4] >1\n" + "p cnf 4 2\ne 1 2 0\na 3 4 0\n1 -3 0\n2 4 0\n")
    n, m, prefix, clauses = legacy_parse(write(formula))
    assert (n, m) == (4, 2)
    assert prefix == [("e", [1, 2]), ("a", [3, 4])]
    assert clauses == [[1, -3], [2, 4]]


def test_write_always_lists_variables_explicitly():
    formula = parse("cs int <19\n" + PREFIX_15)
    assert "cs int [1 2 3 4 5] <19" in write(formula)


def test_unrestricted_annotations_serialize_as_full_range():
    blocks = (QuantifierBlock(E, (1, 2)),)
    annotation = AnnotatedQuantifier(E, BitVectorVar((1, 2)), (Top(),))
    formula = Formula(matrix_of([(1, -2)], 2), blocks, (annotation,))
    text = write(formula)
    assert "cs int [1 2] <4" in text
    reparsed = parse(text)
    assert reparsed.annotations[0].constraints == (Less(4),)
    assert reparsed.annotations[0].s == annotation.s == 4


def test_roundtrip_fixpoint_samples():
    samples = [
        "cs int [1 2] <3\np cnf 2 1\ne 1 2 0\n1 2 0\n",
        "cs int <19\ncs int <19\ncs int <19\n" + PREFIX_15,
        "cs int [1 2] ={01 10}\np cnf 2 1\na 1 2 0\n1 -2 0\n",
        "p cnf 0 0\n",
    ]
    for text in samples:
        first = parse(text)
        second = parse(write(first))
        assert first == second
        assert write(first) == write(second)


def test_scan_exposes_document_structure():
    doc = scan("c note\ncs int [1] <2\np cnf 3 2\ne 1 0\ne 2 0\na 3 0\n1 1 -3 0\n2 3 0\n")
    assert doc.variable_count == 3
    assert len(doc.splits) == 1 and doc.splits[0].variables == (1,)
    assert doc.prefix == (QuantifierBlock(E, (1, 2)), QuantifierBlock(A, (3,)))
    assert doc.clauses == ((1, -3), (2, 3))


def test_non_utf8_input_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="line 2: byte 12 "):
        parse(b"p cnf 1 1\nc \xff\n1 0\n")
    path = tmp_path / "latin1.qdimacs"
    path.write_bytes(b"c caf\xe9\np cnf 1 1\ne 1 0\n1 0\n")
    with pytest.raises(ParseError, match="byte 5 "):
        parse_file(path)


def test_utf8_comments_parse_from_bytes_and_files(tmp_path):
    text = "c café\np cnf 1 1\ne 1 0\n1 0\n"
    path = tmp_path / "utf8.qdimacs"
    path.write_bytes(text.encode("utf-8"))
    assert parse(text.encode("utf-8")) == parse(text) == parse_file(path)


def _mutate(rng: random.Random, data: bytes) -> bytes:
    buffer = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(buffer) + 1)
        operation = rng.randrange(5)
        if operation == 0:
            del buffer[at : at + 1]
        elif operation == 1:
            buffer[at:at] = buffer[at : at + 1]
        elif operation == 2 and at < len(buffer):
            buffer[at] ^= 1 << rng.randrange(8)
        elif operation == 3:
            buffer[at:at] = b"\xff"
        else:
            del buffer[at:]
    return bytes(buffer)


def test_mutated_documents_raise_only_intsplits_errors():
    rng = random.Random(20260418)
    corpus = [
        "cs int [1 2] <3\np cnf 2 1\ne 1 2 0\n1 2 0\n",
        "cs int <19\ncs int <19\ncs int <19\n" + PREFIX_15,
        "cs int [1 2] ={01 10}\np cnf 2 1\na 1 2 0\n1 -2 0\n",
        "cs int [1 2 3] <2;>6;={011}\np cnf 3 1\na 1 2 3 0\n1 2 3 0\n",
        "cs int [2 3] ={01 10}\np cnf 3 1\n1 2 3 0\n",
        "c note\r\np cnf 1 2\ne 1 0\n1 -1 0\n0\n",
    ]
    corpus += [write(random_annotated_formula(rng, require_correct=False)) for _ in range(6)]
    seeds = [text.encode("utf-8") for text in corpus]
    for case in range(10000):
        data = _mutate(rng, rng.choice(seeds))
        try:
            parse(data, strict=case % 2 == 1)
        except IntsplitsError:
            pass
