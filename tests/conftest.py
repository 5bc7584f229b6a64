"""Shared builders and independent reference implementations for the tests.

The reference functions here deliberately avoid the library's own code
paths (no matrix simplification, different bit arithmetic) so they can act
as oracles.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import random
import re
from pathlib import Path

import pytest

from intsplits import (
    AnnotatedQuantifier,
    BitVectorVar,
    Formula,
    Greater,
    InSet,
    Less,
    Matrix,
    QuantifierBlock,
    QuantifierKind,
    ResultCode,
    ResultTuple,
    UnparsableRowError,
    check_correctness,
)


@pytest.fixture(autouse=True)
def no_worker_outlives_a_test():
    """`run` ends every worker it starts before it returns."""
    yield
    assert multiprocessing.active_children() == []


E = QuantifierKind.EXISTS
A = QuantifierKind.FORALL


def matrix_of(clauses, variable_count: int) -> Matrix:
    """A matrix from any iterable of integer-literal clauses."""
    return Matrix(tuple(tuple(c) for c in clauses), variable_count)


def clause_satisfied(clause_ints: tuple[int, ...], assignment: dict[int, int]) -> bool:
    return any(
        (assignment[abs(lit)] == 1) == (lit > 0) for lit in clause_ints
    )


def reference_qbf_value(
    steps: list[tuple[str, int]], clauses: list[tuple[int, ...]]
) -> bool:
    """Independent QBF semantics: recurse variable by variable over the full
    assignment, no simplification anywhere."""

    def rec(at: int, assignment: dict[int, int]) -> bool:
        if at == len(steps):
            return all(clause_satisfied(c, assignment) for c in clauses)
        kind, var = steps[at]
        zero = rec(at + 1, {**assignment, var: 0})
        one = rec(at + 1, {**assignment, var: 1})
        return (zero or one) if kind == "e" else (zero and one)

    return rec(0, {})


def reference_value_of_formula(formula: Formula) -> bool:
    steps = [
        (block.kind.value, v) for block in formula.prefix for v in block.variables
    ]
    if not formula.prefix:
        steps = [("e", v) for v in range(1, formula.matrix.variable_count + 1)]
    clauses = list(formula.matrix.clauses)
    return reference_qbf_value(steps, clauses)


def reference_subproblem_files(directory, count: int):
    """The sub-problem files of one split, by the rule of `subproblem_files`
    as it reads: a file counts when formatting its leading index for
    `count` (at least four digits, as many as the largest index needs), a
    dash and the rest of its name gives the name back.  The shortest such
    rest is the split's original, and a rest that does not extend it
    belongs to a second split.  Returns the files by index in directory
    order, or the split's original and the first second one."""
    pad = max(4, len(str(max(count - 1, 0))))
    by_original: dict[str, dict[int, Path]] = {}
    with os.scandir(directory) as entries:
        for entry in entries:
            match = re.match(r"(\d+)-(.*)", entry.name, re.S)
            if match and entry.is_file() and entry.name == f"{int(match[1]):0{pad}d}-{match[2]}":
                by_original.setdefault(match[2], {})[int(match[1])] = Path(entry.path)
    if not by_original:
        return {}
    original = min(by_original, key=lambda name: (len(name), name))
    others = sorted(name for name in by_original if not name.startswith(original))
    return (original, others[0]) if others else by_original[original]


_REFERENCE_TOKENS = {
    **dict.fromkeys(("SAT", "TRUE", "10"), ResultCode.TRUE),
    **dict.fromkeys(("UNSAT", "FALSE", "20"), ResultCode.FALSE),
    **dict.fromkeys(("UNKNOWN", "TIMEOUT", "0"), ResultCode.UNKNOWN),
}


def reference_result_row(line: str, where: str):
    """The row, None or error of one results CSV line, which
    `merger.parse_result_row` must match: strip the line, skip blank,
    comment and header lines, split it into three stripped fields and read
    each one in turn."""
    line = line.strip()
    if not line or line.startswith("#") or line.lower().startswith("index"):
        return None
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != 3:
        raise UnparsableRowError(f"{where}: expected 'index,result,time_seconds'")
    try:
        index = int(parts[0])
    except ValueError:
        raise UnparsableRowError(f"{where}: bad index {parts[0]!r}") from None
    try:
        code = _REFERENCE_TOKENS[parts[1].strip().upper()]
    except KeyError:
        raise UnparsableRowError(f"{where}: unknown result token {parts[1]!r}") from None
    try:
        seconds = float(parts[2])
    except ValueError:
        raise UnparsableRowError(f"{where}: bad time {parts[2]!r}") from None
    if not math.isfinite(seconds) or seconds < 0:
        raise UnparsableRowError(f"{where}: time must be finite and non-negative")
    return index, ResultTuple(code, seconds)


def reference_accounted(constraints, bits: tuple[int, ...]) -> bool:
    """Constraint semantics written from scratch (LSB-style arithmetic)."""
    value = sum(bit << at for at, bit in enumerate(reversed(bits)))
    for c in constraints:
        if isinstance(c, Less) and value < c.bound:
            return True
        if isinstance(c, Greater) and value > c.bound:
            return True
        if isinstance(c, InSet) and tuple(bits) in c.patterns:
            return True
        if not isinstance(c, (Less, Greater, InSet)):
            return True  # unrestricted
    return False


def all_bitvectors(width: int):
    return itertools.product((0, 1), repeat=width)


def reference_bounded_value(formula: Formula) -> bool:
    """Independent bounded semantics: walk the prefix block by block; an
    annotated bit-vector of the block ranges over the bit patterns
    reference_accounted admits, every other variable over {0, 1}.  The
    matrix is checked on full assignments only."""
    blocks = [(block.kind.value, block.variables) for block in formula.prefix]
    if not formula.prefix:
        blocks = [("e", tuple(range(1, formula.matrix.variable_count + 1)))]
    steps = []  # (kind, variables, admitted bit patterns)
    for kind, variables in blocks:
        claimed = set()
        for aq in formula.annotations:
            vector = aq.bitvector.variables
            if set(vector) <= set(variables):
                admitted = [
                    bits
                    for bits in all_bitvectors(len(vector))
                    if reference_accounted(aq.constraints, bits)
                ]
                steps.append((kind, vector, admitted))
                claimed.update(vector)
        steps.extend((kind, (v,), [(0,), (1,)]) for v in variables if v not in claimed)
    clauses = list(formula.matrix.clauses)

    def rec(at: int, assignment: dict[int, int]) -> bool:
        if at == len(steps):
            return all(clause_satisfied(c, assignment) for c in clauses)
        kind, variables, admitted = steps[at]
        values = [rec(at + 1, {**assignment, **dict(zip(variables, bits))}) for bits in admitted]
        return any(values) if kind == "e" else all(values)

    return rec(0, {})


def quantified_chain(pairs: int) -> str:
    """A true QDIMACS formula whose oracle search visits every universal
    branch, unit propagation or not: forall u1..uk exists e1..ek with
    (u_i | e_i) and (-u_i | -e_i) for each of the k = `pairs` pairs.  Its
    annotation splits (u1, u2) into 3 sub-problems of 2^(k-2) branches."""
    clauses = [f"{sign}{u} {sign}{u + pairs} 0" for u in range(1, pairs + 1) for sign in ("", "-")]
    lines = [
        "cs int [1 2] <3",
        f"p cnf {2 * pairs} {len(clauses)}",
        "a " + " ".join(map(str, range(1, pairs + 1))) + " 0",
        "e " + " ".join(map(str, range(pairs + 1, 2 * pairs + 1))) + " 0",
        *clauses,
    ]
    return "\n".join(lines) + "\n"


def legacy_parse(text: str):
    """Minimal legacy-style reader: any line starting with 'c' is a comment.

    Returns (variable_count, clause_count, prefix, clauses) or raises.
    """
    header = None
    prefix = []
    clauses = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            _, fmt, n, m = line.split()
            assert fmt == "cnf"
            header = (int(n), int(m))
        elif line[0] in "ea":
            tokens = line.split()
            assert tokens[-1] == "0"
            prefix.append((tokens[0], [int(t) for t in tokens[1:-1]]))
        else:
            ints = [int(t) for t in line.split()]
            assert ints[-1] == 0
            clauses.append(ints[:-1])
    assert header is not None and header[1] == len(clauses)
    return header[0], header[1], prefix, clauses


def random_clauses(
    rng: random.Random, variables: list[int], count: int
) -> list[tuple[int, ...]]:
    clauses = []
    for _ in range(count):
        size = rng.randint(1, 3)
        chosen = rng.sample(variables, min(size, len(variables)))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return clauses


def random_constraint(rng: random.Random, width: int):
    size = 1 << width
    roll = rng.random()
    if roll < 0.3:
        return Less(size)  # full range
    if roll < 0.6:
        return Less(rng.randint(1, size))
    if roll < 0.75 and width >= 2:
        return Greater(rng.randint(1, size - 2))
    count = rng.randint(1, min(size, 4))
    values = rng.sample(range(size), count)
    return InSet(
        frozenset(
            tuple((value >> (width - 1 - i)) & 1 for i in range(width))
            for value in values
        )
    )


def random_annotated_formula(
    rng: random.Random,
    max_vars: int = 12,
    require_correct: bool = True,
) -> Formula:
    """A random closed QBF whose annotations provably preserve the truth
    value (verified through the checker, with a full-range fallback)."""
    block_count = rng.randint(2, 4)
    blocks = []
    vectors = []  # (block_index, variables)
    var = 1
    kind = rng.choice([E, A])
    for b in range(block_count):
        widths = []
        for _ in range(rng.randint(1, 2)):
            if var + 1 > max_vars:
                break
            width = rng.randint(1, min(3, max_vars - var + 1))
            widths.append(width)
            var += width
        if not widths:
            widths = [1]
            var += 1
        start = var - sum(widths)
        block_vars = []
        for width in widths:
            vec = tuple(range(start, start + width))
            vectors.append((b, vec))
            block_vars.extend(vec)
            start += width
        blocks.append(QuantifierBlock(kind, tuple(block_vars)))
        kind = A if kind is E else E
        if var > max_vars:
            break
    total = var - 1
    variables = list(range(1, total + 1))
    matrix = matrix_of(
        random_clauses(rng, variables, rng.randint(2, max(3, total))), total
    )

    def build(constraint_for):
        annotations = tuple(
            AnnotatedQuantifier(blocks[b].kind, BitVectorVar(vec), (constraint_for(vec),))
            for b, vec in vectors
        )
        return Formula(matrix, tuple(blocks), annotations)

    if not require_correct:
        return build(lambda vec: Less(1 << len(vec)))
    for _ in range(4):
        candidate = build(lambda vec: random_constraint(rng, len(vec)))
        if check_correctness(candidate).correct:
            return candidate
    return build(lambda vec: Less(1 << len(vec)))


def plan_preserves_value(formula: Formula, chosen) -> bool:
    """Whether expanding only the plan's annotations keeps the truth value.

    Correctness of the full annotation set does not compose: a depth cut
    expands a subset, and a wrong annotation can be masked by a later one.
    The pipeline tests therefore verify the actual subset via the checker.
    """
    selected = set(chosen.quantifiers)
    subset = Formula(
        formula.matrix,
        formula.prefix,
        tuple(aq for aq in formula.annotations if aq in selected),
    )
    return check_correctness(subset).correct


def correct_pipeline_case(rng: random.Random, max_vars: int = 12, max_depth: int = 6):
    """A (formula, plan) pair whose expansion provably preserves the truth
    value, found by rejection through the checker."""
    from intsplits import EmptyPlanError, plan as make_plan

    for attempt in range(12):
        formula = random_annotated_formula(
            rng, max_vars=max_vars, require_correct=attempt < 8
        )
        try:
            chosen = make_plan(formula, rng.randint(2, max_depth))
        except EmptyPlanError:
            chosen = make_plan(formula, 3)
        if plan_preserves_value(formula, chosen):
            return formula, chosen
    raise AssertionError("could not build a verified pipeline case")
