"""Reader and writer for (Q)DIMACS with comment-based integer-range
annotations.

Annotation lines live in the preamble, before the problem line, and start
with the token ``cs`` so that any legacy tool skipping ``c`` lines keeps
accepting the file.  Examples:

    cs int [1 2 3 4 5] <19      explicit five-bit vector, values below 19
    cs int <19                  same, variables taken from the prefix
    cs int [4 5] <3;={10 11}    several constraints, satisfying any one counts

Variable lists in brackets must stay within one quantifier block and claim
prefix variables from the front, block by block; inside a block the order
is free.  Without brackets, the next ceil(log2 s) unclaimed variables of
the current block are used, which requires the accounted-expansion count s
to be derivable from the constraints alone.  Prefix-free DIMACS files must
spell out every variable list.

Lenient parsing (the default) skips comments and blank lines after the
problem line; strict mode rejects them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import (
    AmbiguousImplicitError,
    DimacsModeViolationError,
    IntsplitsError,
    MalformedHeaderError,
    ParseError,
    PatternWidthMismatchError,
    UnknownVariableError,
)
from .formula import (
    AnnotatedQuantifier,
    AnnotationCursor,
    BitVectorVar,
    Constraint,
    Formula,
    Greater,
    InSet,
    Less,
    Matrix,
    QuantifierBlock,
    QuantifierKind,
    integer_value,
)

__all__ = ["SourceDocument", "RawSplit", "scan", "parse", "parse_file", "write"]

_INT32_MAX = 2**31 - 1
_MAX_PATTERN_BITS = 32


@dataclass(frozen=True)
class RawSplit:
    """One ``cs`` line as found in the file, before prefix resolution."""

    line_no: int
    variables: tuple[int, ...] | None  # None when the bracket list is omitted
    constraints: tuple[Constraint, ...]


@dataclass(frozen=True)
class SourceDocument:
    """What `scan` reads from one (Q)DIMACS file: the header's variable
    count, the ``cs`` lines before prefix resolution, the prefix with
    consecutive lines of one kind merged into a block, and the clauses
    with duplicate literals dropped.

    Splits appear only in the preamble, the clause count matches the
    header, and every clause literal and prefix variable names a declared
    variable, quantified at most once; all are enforced while scanning.
    """

    variable_count: int
    splits: tuple[RawSplit, ...]
    prefix: tuple[QuantifierBlock, ...]
    clauses: tuple[tuple[int, ...], ...]


def _pnum(token: str, line_no: int, what: str = "variable", limit: int = _INT32_MAX) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"line {line_no}: expected a positive integer {what}, got {token!r}") from None
    if not 1 <= value <= limit:
        accepted = "32-bit range" if limit == _INT32_MAX else f"range 1..{limit}"
        raise ParseError(f"line {line_no}: {what} {value} outside the accepted {accepted}")
    return value


def _parse_header(line: str, line_no: int) -> tuple[int, int]:
    tokens = line.split()
    if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != "cnf":
        raise MalformedHeaderError(f"line {line_no}: malformed problem line {line!r}")
    try:
        variables, clauses = int(tokens[2]), int(tokens[3])
    except ValueError:
        raise MalformedHeaderError(f"line {line_no}: non-numeric counts in {line!r}") from None
    if variables < 0 or clauses < 0 or variables > _INT32_MAX:
        raise MalformedHeaderError(f"line {line_no}: counts out of range in {line!r}")
    return variables, clauses


def _parse_split(line: str, line_no: int) -> RawSplit:
    # Brackets, braces and semicolons may be glued to their neighbours;
    # commas inside pattern sets are treated as plain whitespace.  A listed
    # w-bit vector raises the caps on bounds to 2^w and on patterns to w
    # bits, so every annotation `write` emits parses.
    text = line[2:]
    for ch in "[]{};":
        text = text.replace(ch, f" {ch} ")
    tokens = text.replace(",", " ").split()
    if not tokens or tokens[0] != "int":
        raise ParseError(f"line {line_no}: unsupported annotation, expected 'cs int ...'")
    i = 1
    variables: tuple[int, ...] | None = None
    if i < len(tokens) and tokens[i] == "[":
        i += 1
        listed: list[int] = []
        while i < len(tokens) and tokens[i] != "]":
            listed.append(_pnum(tokens[i], line_no))
            i += 1
        if i >= len(tokens):
            raise ParseError(f"line {line_no}: unterminated '[' in annotation")
        if not listed:
            raise ParseError(f"line {line_no}: empty variable list '[]'")
        i += 1
        variables = tuple(listed)
    width = len(variables) if variables else 0
    bound_limit = max(_INT32_MAX, 1 << width)
    pattern_limit = max(_MAX_PATTERN_BITS, width)

    constraints: list[Constraint] = []
    while i < len(tokens):
        token = tokens[i]
        if token == ";":
            i += 1
            continue
        if token.startswith("<") or token.startswith(">"):
            rest = token[1:]
            if not rest:
                i += 1
                if i >= len(tokens):
                    raise ParseError(f"line {line_no}: bound missing after {token!r}")
                rest = tokens[i]
            bound = _pnum(rest, line_no, "bound", bound_limit)
            constraints.append(Less(bound) if token[0] == "<" else Greater(bound))
            i += 1
        elif token == "=":
            i += 1
            if i >= len(tokens) or tokens[i] != "{":
                raise ParseError(f"line {line_no}: expected '{{' after '='")
            i += 1
            patterns: list[tuple[int, ...]] = []
            while i < len(tokens) and tokens[i] != "}":
                if tokens[i] == ";":  # tolerated as a separator inside braces
                    i += 1
                    continue
                pattern = tokens[i]
                if not pattern or any(ch not in "01" for ch in pattern):
                    raise ParseError(f"line {line_no}: bit pattern {pattern!r} must be 0/1 only")
                if len(pattern) > pattern_limit:
                    raise ParseError(
                        f"line {line_no}: bit pattern longer than {pattern_limit} bits"
                    )
                patterns.append(tuple(int(ch) for ch in pattern))
                i += 1
            if i >= len(tokens):
                raise ParseError(f"line {line_no}: unterminated '{{' in annotation")
            if not patterns:
                raise ParseError(f"line {line_no}: empty pattern set '={{}}'")
            i += 1
            constraints.append(InSet(frozenset(patterns)))
        else:
            raise ParseError(f"line {line_no}: unrecognized constraint token {token!r}")
    if not constraints:
        raise ParseError(f"line {line_no}: annotation carries no constraints")
    return RawSplit(line_no, variables, tuple(constraints))


def _parse_clause(line: str, line_no: int, variable_count: int) -> tuple[int, ...]:
    values: list[int] = []
    for token in line.split():
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"line {line_no}: clause token {token!r} is not an integer") from None
        if abs(value) > variable_count:
            raise UnknownVariableError(
                f"line {line_no}: clause references variable {abs(value)} beyond "
                f"declared count {variable_count}"
            )
        values.append(value)
    if not values or values.pop() != 0:
        raise ParseError(f"line {line_no}: clause lines must end with 0")
    if 0 in values:
        raise ParseError(f"line {line_no}: embedded 0; one clause per line")
    # Duplicate literals are dropped (first occurrence wins); tautologies
    # such as (x or not x) are kept verbatim for round-trip fidelity.
    return tuple(dict.fromkeys(values))


def scan(text: str, strict: bool = False) -> SourceDocument:
    """First pass: read the header, annotations, prefix and clauses, and
    skip comments.  Besides the syntax it checks every clause literal and
    prefix variable against the header's variable count, which precedes
    them, and that no variable is quantified twice."""
    splits: list[RawSplit] = []
    header: tuple[int, int] | None = None
    quantified: set[int] = set()
    prefix: list[tuple[QuantifierKind, list[int]]] = []
    clauses: list[tuple[int, ...]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if strict:
                raise ParseError(f"line {line_no}: blank lines are not allowed in strict mode")
            continue
        token = line.split(maxsplit=1)[0]
        if header is None:
            if token == "cs":
                splits.append(_parse_split(line, line_no))
            elif token == "p":
                header = _parse_header(line, line_no)
            elif not line.startswith("c"):
                raise MalformedHeaderError(
                    f"line {line_no}: expected comments, annotations or the problem "
                    f"line, got {line!r}"
                )
        else:
            if token == "cs":
                raise ParseError(
                    f"line {line_no}: annotations must appear before the problem line"
                )
            if line.startswith("c"):
                if strict:
                    raise ParseError(
                        f"line {line_no}: comment after the problem line (strict mode)"
                    )
                continue
            if token in ("e", "a"):
                if clauses:
                    raise ParseError(
                        f"line {line_no}: quantifier line after the first clause; "
                        f"the prefix must precede the matrix"
                    )
                tokens = line.split()
                if len(tokens) < 3 or tokens[-1] != "0":
                    raise ParseError(
                        f"line {line_no}: quantifier lines are '<e|a> <var>+ 0'"
                    )
                variables = [_pnum(t, line_no) for t in tokens[1:-1]]
                for v in variables:
                    if v > header[0]:
                        raise UnknownVariableError(
                            f"line {line_no}: quantified variable {v} beyond declared "
                            f"count {header[0]}"
                        )
                    if v in quantified:
                        raise ParseError(f"line {line_no}: variable {v} quantified twice")
                    quantified.add(v)
                kind = QuantifierKind.EXISTS if token == "e" else QuantifierKind.FORALL
                if prefix and prefix[-1][0] is kind:
                    prefix[-1][1].extend(variables)
                else:
                    prefix.append((kind, variables))
            else:
                clauses.append(_parse_clause(line, line_no, header[0]))

    if header is None:
        raise MalformedHeaderError("problem line 'p cnf <vars> <clauses>' not found")
    variable_count, clause_count = header
    if len(clauses) != clause_count:
        raise MalformedHeaderError(
            f"header declares {clause_count} clauses, file contains {len(clauses)}"
        )
    blocks = tuple(QuantifierBlock(kind, tuple(variables)) for kind, variables in prefix)
    return SourceDocument(variable_count, tuple(splits), blocks, tuple(clauses))


def _implicit_width(constraints: tuple[Constraint, ...]) -> int:
    """Bit-vector width for an annotation without an explicit variable list."""
    pattern_widths = {
        len(p) for c in constraints if isinstance(c, InSet) for p in c.patterns
    }
    if pattern_widths:
        if len(pattern_widths) > 1:
            raise PatternWidthMismatchError("patterns of different lengths; width is ambiguous")
        return pattern_widths.pop()
    if any(isinstance(c, Greater) for c in constraints):
        raise AmbiguousImplicitError(
            "the accounted count of '>' depends on the bit-vector width; "
            "list the variables explicitly"
        )
    # All-'<' list: s equals the largest bound, width is ceil(log2 s).
    s = max(c.bound for c in constraints if isinstance(c, Less))
    if s < 2:
        raise AmbiguousImplicitError(
            f"bound <{s} resolves to an empty bit-vector; list the variables explicitly"
        )
    return (s - 1).bit_length()


def _build(doc: SourceDocument) -> Formula:
    annotations: list[AnnotatedQuantifier] = []
    cursor = AnnotationCursor(doc.prefix)
    for split in doc.splits:
        try:
            for v in split.variables or ():
                if v > doc.variable_count:
                    raise UnknownVariableError(
                        f"annotated variable {v} beyond declared count {doc.variable_count}"
                    )
            if split.variables is not None:
                bitvector = BitVectorVar(split.variables)
                kind = cursor.place(bitvector.variables) if doc.prefix else QuantifierKind.EXISTS
            elif doc.prefix:
                variables, kind = cursor.take(_implicit_width(split.constraints))
                bitvector = BitVectorVar(variables)
            else:
                raise DimacsModeViolationError(
                    "implicit variable lists need a quantifier prefix; "
                    "prefix-free files must list all bit-vector variables"
                )
            annotations.append(AnnotatedQuantifier(kind, bitvector, split.constraints))
        except IntsplitsError as exc:
            raise type(exc)(f"line {split.line_no}: {exc}") from None

    return Formula(Matrix(doc.clauses, doc.variable_count), doc.prefix, tuple(annotations))


def parse(text: str | bytes, strict: bool = False) -> Formula:
    """Parse one (Q)DIMACS document into a validated formula; bytes are
    read as UTF-8."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = text.count(b"\n", 0, exc.start) + 1
            raise ParseError(
                f"line {line_no}: byte {exc.start} is not valid UTF-8 ({exc.reason})"
            ) from None
    return _build(scan(text, strict))


def parse_file(path: str | Path, strict: bool = False) -> Formula:
    return parse(Path(path).read_bytes(), strict)


def _format_constraint(constraint: Constraint, width: int) -> str:
    if isinstance(constraint, (Less, Greater)):
        # Every bound from 2^width up admits the same values; one past what
        # `parse` accepts on a listed vector is written as 2^width.
        bound = constraint.bound
        if bound > max(_INT32_MAX, 1 << width):
            bound = 1 << width
        return f"{'<' if isinstance(constraint, Less) else '>'}{bound}"
    if isinstance(constraint, InSet):
        patterns = sorted(constraint.patterns, key=integer_value)
        return "={" + " ".join("".join(map(str, p)) for p in patterns) + "}"
    # The grammar has no token for "unrestricted"; emit the equivalent
    # full-range bound instead.
    return f"<{1 << width}"


def write(formula: Formula) -> str:
    """Serialize a formula; parsing the output yields an equal formula.

    Variable lists are always written explicitly and lines end with LF.
    """
    lines: list[str] = []
    for aq in formula.annotations:
        variables = " ".join(str(v) for v in aq.bitvector.variables)
        constraints = ";".join(_format_constraint(c, aq.width) for c in aq.constraints)
        lines.append(f"cs int [{variables}] {constraints}")
    lines.append(f"p cnf {formula.matrix.variable_count} {len(formula.matrix.clauses)}")
    for block in formula.prefix:
        lines.append(f"{block.kind.value} {' '.join(str(v) for v in block.variables)} 0")
    for clause in formula.matrix.clauses:
        body = " ".join(map(str, clause))
        lines.append(f"{body} 0" if body else "0")
    return "\n".join(lines) + "\n"
