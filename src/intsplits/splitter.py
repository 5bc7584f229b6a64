"""Depth-bounded expansion of annotated quantifiers into sub-problem files.

A split plan selects whole annotated bit-vectors from the front of the
prefix while their total width fits the requested depth; bit-vectors are
never cut.  Within every maximal run of equally quantified annotations the
order is by decreasing pruning efficiency (stable), which is sound because
quantifiers of one kind commute.  Plain mode ignores annotations and takes
the first d prefix variables one by one.

Each accounted assignment becomes one copy of the formula with the decided
values appended as unit clauses.  Assigned variables are re-quantified in a
trailing existential block (a forced universal variable would make the copy
trivially false and would defeat constraint propagation); annotations whose
bit-vector was expanded are dropped, the remaining ones are kept so copies
can be split again.

`qdimacs.write(expanded_copy(...))` specifies a file's text.  Everything
but its unit lines depends only on which variables the plan expands, so a
split renders it once, for the first assignment, and writes each file as
that shared head plus the file's own unit lines, and then plan.csv.  One
per-vector row table (`_row_table`) holds, for each accounted value of
each expanded vector, its literals, unit lines and plan.csv items; a row
is the product of its vectors' parts.  The table renders the files,
plan.csv, and the plan.csv that `merge` compares byte for byte with the
file before it would parse it.  `_subproblem_reader` reads the files back
the same way: it parses the head and prepares its search once, and a file
that is the head plus the unit lines of its plan.csv literals, on
distinct existential variables, costs a read, a byte comparison, one
`simplify` of the head's clauses by those literals and one run of that
search.  The file stays the specification: any other file is parsed in
full.  The files are written and read with raw `os` calls, listed as path
strings with no `Path` each, and `force` writes over an old file in place
and cuts it to its new length, not truncating it on open.
"""

from __future__ import annotations

import csv
import os
import re
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from itertools import chain, groupby, product
from math import prod
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BlockMismatchError, EmptyPlanError, FormulaError, IntsplitsError, MergeError
from .formula import (
    AnnotatedQuantifier,
    AnnotationCursor,
    BitVectorVar,
    Formula,
    Matrix,
    QuantifierBlock,
    QuantifierKind,
    Top,
    accounted_values,
    literals_of,
    simplify,
)
from . import evaluator, qdimacs

__all__ = [
    "SplitMode",
    "SplitPlan",
    "sorted_annotations",
    "plan",
    "count_subproblems",
    "count_without_intsplits",
    "enumerate_accounted",
    "subproblem_name",
    "expanded_copy",
    "emit_subproblem",
    "split_formula",
    "Manifest",
    "write_manifest",
    "read_manifest",
    "verify_manifest",
]

MANIFEST_NAME = "plan.csv"
_SETTINGS = re.compile(r"# mode=(intsplit|plain) depth=([1-9][0-9]*)")


class SplitMode(Enum):
    INTSPLIT = "intsplit"
    PLAIN = "plain"


@dataclass(frozen=True)
class SplitPlan:
    """The quantifiers selected for expansion at a given depth.

    effective_depth is the number of variables actually expanded; it can be
    lower than requested_depth when the next whole bit-vector would not fit
    (or, in plain mode, when the prefix is shorter than the request).
    plain_depth is the depth a plain split would reach with the same
    request, kept for the with/without comparison.
    """

    mode: SplitMode
    quantifiers: tuple[AnnotatedQuantifier, ...]
    requested_depth: int
    effective_depth: int
    plain_depth: int


def sorted_annotations(formula: Formula) -> tuple[AnnotatedQuantifier, ...]:
    """Annotations in splitting order: stable decreasing-efficiency sort
    inside each maximal run of the same quantifier kind."""
    ordered: list[AnnotatedQuantifier] = []
    for _, run in groupby(formula.annotations, key=lambda aq: aq.kind):
        ordered.extend(sorted(run, key=lambda aq: aq.eta, reverse=True))
    return tuple(ordered)


def plan(formula: Formula, depth: int, mode: SplitMode = SplitMode.INTSPLIT) -> SplitPlan:
    """Select the quantifiers to expand under the given depth budget."""
    if depth < 1:
        raise ValueError("splitting depth must be at least 1")
    prefix_vars = formula.prefix_variables()
    plain_depth = min(depth, len(prefix_vars))

    if mode is SplitMode.PLAIN:
        # Kinds in prefix order; a prefix-free file's variables are existential.
        kinds = (block.kind for block in formula.prefix for _ in block.variables)
        chosen = tuple(
            AnnotatedQuantifier(next(kinds, QuantifierKind.EXISTS), BitVectorVar((v,)), (Top(),))
            for v in prefix_vars[:plain_depth]
        )
        return SplitPlan(mode, chosen, depth, plain_depth, plain_depth)

    if not formula.annotations:
        raise EmptyPlanError("formula carries no int-split annotations")
    chosen_list: list[AnnotatedQuantifier] = []
    used = 0
    for aq in sorted_annotations(formula):
        if used + aq.width > depth:
            break
        chosen_list.append(aq)
        used += aq.width
    if not chosen_list:
        raise EmptyPlanError(
            f"no annotated quantifier fits within depth {depth}; the first "
            f"bit-vector is {sorted_annotations(formula)[0].width} bits wide"
        )
    return SplitPlan(mode, tuple(chosen_list), depth, used, plain_depth)


def count_subproblems(split_plan: SplitPlan) -> int:
    """Product of the accounted-expansion counts of the selected quantifiers."""
    return prod(aq.s for aq in split_plan.quantifiers)


def count_without_intsplits(split_plan: SplitPlan) -> int:
    """Sub-problems a plain split produces for the same depth request."""
    return 1 << split_plan.plain_depth


def enumerate_accounted(split_plan: SplitPlan) -> Iterator[tuple[int, ...]]:
    """All accounted assignments, each as DIMACS literals in plan order (v
    for true, -v for false), lexicographic over the concatenated bit-vectors
    (MSB first, last vector varies fastest); an assignment's index is its
    position."""
    literals, _, _ = _row_table(split_plan)
    for row in product(*literals):
        yield tuple(chain.from_iterable(row))


def _row_table(
    split_plan: SplitPlan,
) -> tuple[list[list[tuple[int, ...]]], list[list[bytes]], list[list[bytes]]]:
    """The parts of the plan's rows, one list per selected vector in plan
    order, over its accounted values in order: the value's literals, the
    unit lines a sub-problem file holds for them, and its `var=bit;...`
    items in plan.csv.  The `product` of one kind's lists gives the rows in
    `enumerate_accounted`'s order, so a row is a join of its vectors' parts,
    not a lookup per literal."""
    literals = [
        [literals_of(aq.bitvector.variables, value) for value in accounted_values(aq)]
        for aq in split_plan.quantifiers
    ]
    units = [[b"".join(map(_unit_line, value)) for value in vector] for vector in literals]
    items = [
        [b";".join([b"%d=%d" % (abs(lit), lit > 0) for lit in value]) for value in vector]
        for vector in literals
    ]
    return literals, units, items


def subproblem_name(index: int, count: int, original_name: str) -> str:
    """Zero-padded index, a dash, then the original file name.

    Padding is wide enough for the largest index (at least four digits), so
    lexicographic file order equals numeric order.
    """
    pad = max(4, len(str(max(count - 1, 0))))
    return f"{index:0{pad}d}-{original_name}"


def _subproblem_paths(directory: str | Path, count: int) -> dict[int, str]:
    """The files of one split of `count` sub-problems in `directory`, by
    index, in directory order, each as the string `str(Path(directory) /
    name)`: those named `subproblem_name(index, count, original)` for the
    one original name the split used.

    That is the shortest original the names carry.  A file that extends
    it, such as a solver's `{file}.drat` or a log beside its input, is not
    counted; a name with any other original belongs to a second split and
    is an error.
    """
    pad = len(subproblem_name(0, count, "")) - 1
    prefix = _path_prefix(directory)
    by_original: dict[str, dict[int, str]] = {}
    with os.scandir(directory) as entries:
        for entry in entries:
            digits, dash, original = entry.name.partition("-")
            # As subproblem_name writes them: `pad` digits, or more and no leading zero.
            if not (dash and digits.isascii() and digits.isdigit()):
                continue
            if (len(digits) == pad or len(digits) > pad and digits[0] != "0") and entry.is_file():
                by_original.setdefault(original, {})[int(digits)] = prefix + entry.name
    if not by_original:
        return {}
    original = min(by_original, key=lambda name: (len(name), name))
    others = sorted(name for name in by_original if not name.startswith(original))
    if others:
        raise MergeError(
            f"{directory} holds sub-problems of {original!r} and of {others[0]!r}; "
            f"keep one split per directory"
        )
    return by_original[original]


def _path_prefix(directory: str | Path) -> str:
    """The text that `str(Path(directory) / name)` puts before `name`."""
    base = os.fspath(Path(directory))
    return "" if base == "." else os.path.join(base, "")


def _aligned_prefix(
    blocks: Sequence[QuantifierBlock], candidates: Sequence[AnnotatedQuantifier]
) -> tuple[AnnotatedQuantifier, ...]:
    # Keep the longest front-aligned chain; a plain-mode cut through a
    # bit-vector strands unclaimable variables that invalidate the rest.
    cursor = AnnotationCursor(blocks)
    kept: list[AnnotatedQuantifier] = []
    for aq in candidates:
        try:
            cursor.place(aq.bitvector.variables)
        except (BlockMismatchError, FormulaError):
            break
        kept.append(aq)
    return tuple(kept)


def expanded_copy(formula: Formula, literals: tuple[int, ...]) -> Formula:
    """The sub-problem formula for one accounted assignment, given as its literals."""
    variables = tuple(abs(lit) for lit in literals)
    assigned = set(variables)
    units = tuple((lit,) for lit in literals)
    matrix = Matrix(formula.matrix.clauses + units, formula.matrix.variable_count)

    blocks: list[QuantifierBlock] = []
    for block in formula.prefix:
        rest = tuple(v for v in block.variables if v not in assigned)
        if rest:
            blocks.append(QuantifierBlock(block.kind, rest))
    if formula.prefix and variables:
        blocks.append(QuantifierBlock(QuantifierKind.EXISTS, variables))

    candidates = [
        aq for aq in formula.annotations if not assigned.intersection(aq.bitvector.variables)
    ]
    if formula.prefix:
        annotations = _aligned_prefix(blocks, candidates)
    else:
        annotations = tuple(candidates)
    return Formula(matrix, tuple(blocks), annotations)


def emit_subproblem(
    formula: Formula,
    index: int,
    literals: tuple[int, ...],
    out_dir: str | Path,
    original_name: str,
    count: int,
    force: bool = False,
) -> Path:
    """Write the sub-problem file of assignment `index`, whose literals are
    `literals`; refuses to overwrite unless forced."""
    path = Path(out_dir) / subproblem_name(index, count, original_name)
    text = qdimacs.write(expanded_copy(formula, literals)).encode()
    try:
        _write_file(path, text, force)
    except FileExistsError:
        raise FileExistsError(f"{path} already exists (use force to overwrite)") from None
    return path


def _unit_line(lit: int) -> bytes:
    """The line that a sub-problem file holds for one literal of its assignment."""
    return b"%d 0\n" % lit


def _write_file(path: str | Path, data: bytes, force: bool) -> None:
    """Make `data` the whole of the file at `path`, refusing an existing file
    unless `force`.  An existing file is written over in place and then cut
    to size: on ext4, a file that O_TRUNC empties on open is written back
    at its close, which made a forced re-split several times slower."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | (0 if force else os.O_EXCL), 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _replace_file(path: Path, chunks: Iterable[bytes]) -> None:
    """Write `chunks` to `path.tmp` and move it over `path`, so that a reader
    sees the old file or the new one; a failed write leaves no `path.tmp`."""
    scratch = path.with_name(path.name + ".tmp")
    try:
        with scratch.open("wb") as handle:
            handle.writelines(chunks)
        os.replace(scratch, path)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise


def _read_file(path: str | Path) -> bytes:
    """The bytes of the file at `path`, read with raw `os` calls."""
    fd = os.open(path, os.O_RDONLY)
    try:
        return b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
    finally:
        os.close(fd)


def split_formula(
    formula: Formula,
    split_plan: SplitPlan,
    out_dir: str | Path,
    original_name: str,
    force: bool = False,
) -> list[Path]:
    """Emit every accounted sub-problem plus the plan manifest.

    Without `force`, an existing sub-problem file refuses the split before
    anything changes.  plan.csv exists only for a split that completed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    total = count_subproblems(split_plan)
    names = [subproblem_name(index, total, original_name) for index in range(total)]
    if not force and (taken := set(os.listdir(out_dir)).intersection(names)):
        raise FileExistsError(f"{out_dir / min(taken)} already exists (use force to overwrite)")
    literals, units, items = _row_table(split_plan)
    first = tuple(chain.from_iterable([vector[0] for vector in literals]))
    text = qdimacs.write(expanded_copy(formula, first)).encode()
    head = text.removesuffix(b"".join([vector[0] for vector in units]))
    manifest = out_dir / MANIFEST_NAME
    manifest.unlink(missing_ok=True)
    prefix = _path_prefix(out_dir)
    for name, row in zip(names, product(*units)):
        _write_file(prefix + name, head + b"".join(row), force)
    _replace_file(manifest, _manifest_lines(split_plan, items))
    return [out_dir / name for name in names]


def _subproblem_reader(
    tasks: Sequence[tuple[str, Sequence[int]]],
) -> Callable[[str, Sequence[int], float | None], bool]:
    """A reader of a split's sub-problem files, each given with its plan.csv
    literals and a deadline, that returns what `evaluate` with no variable
    cap gives for the file's formula, but parses the split's shared head and
    prepares its search only once, here.

    The head is the text before the unit lines of their literals that the
    files of the first two consecutive `tasks` share byte for byte, or that
    of the file of the only task; it must end at a line break, or its last
    line and the first unit line would read as one clause.  A file that is
    the head plus the unit lines of as many literals, on distinct
    existential variables that the head's search branches on, costs a read,
    a byte comparison and a search of the head's clauses simplified by the
    literals (which the search would propagate first, to the same fixpoint
    in any order).  Any other file, such as one whose plan.csv and units
    were edited to complementary, repeated or universal literals, is parsed
    in full and searched on its own; so is every file when no head is
    found, the head does not parse, or a file read in the search for it
    cannot be read.
    """
    whole, previous = None, None
    with suppress(OSError, IntsplitsError):
        for path, literals in tasks:
            text = _read_file(path)
            units = b"".join(map(_unit_line, literals))
            head = text[: len(text) - len(units)]
            if not (text.endswith(units) and head.endswith(b"\n")):
                head = None
            elif head == previous or len(tasks) == 1:
                whole = qdimacs.parse(text)
                break
            previous = head

    def parsed(text: bytes, deadline: float | None) -> bool:  # with a search of its own
        return evaluator.evaluate(qdimacs.parse(text), evaluator.EvalBudget(None, deadline))

    if whole is None:
        return lambda path, literals, deadline: parsed(_read_file(path), deadline)
    count = len(literals)
    clauses = whole.matrix.clauses[: len(whole.matrix.clauses) - count]
    # The whole file's: without a prefix, split variables may be in unit lines only.
    kinds, search = evaluator._prepared(whole, evaluator.EvalBudget(None), False)
    # As split_formula's, for the existential variables the search branches
    # on (so in 1..n and in the prefix, if any): the literals that propagate.
    existential = {lit for v, kind in kinds.items() if kind is QuantifierKind.EXISTS for lit in (v, -v)}
    unit_line = {lit: _unit_line(lit) for lit in existential}

    def read(path: str, literals: Sequence[int], deadline: float | None) -> bool:
        text = _read_file(path)
        if len(literals) == count and existential.issuperset(literals) and len(set(map(abs, literals))) == count:
            if text.startswith(head) and text[len(head) :] == b"".join([unit_line[lit] for lit in literals]):
                return search(simplify(clauses, literals), deadline)
        return parsed(text, deadline)

    return read


@dataclass(frozen=True)
class Manifest:
    """plan.csv as read: the split's mode and requested depth, and its
    entries, each row's literals, in row order."""

    mode: SplitMode
    depth: int
    entries: tuple[tuple[int, ...], ...]


def write_manifest(split_plan: SplitPlan, out_dir: str | Path) -> Path:
    """plan.csv: `# mode=M depth=D`, then one `index,var=bit;...` row per sub-problem."""
    path = Path(out_dir) / MANIFEST_NAME
    with path.open("wb") as handle:
        handle.writelines(_manifest_lines(split_plan, _row_table(split_plan)[2]))
    return path


def _manifest_lines(split_plan: SplitPlan, items: Sequence[Sequence[bytes]]) -> Iterator[bytes]:
    """plan.csv's lines, as csv.writer writes them (CRLF line ends, and no
    field that needs quoting): the settings and header lines, then one row
    per sub-problem, from `items`, the plan's `_row_table` items."""
    yield b"# mode=%s depth=%d\r\nindex,assignment\r\n" % (
        split_plan.mode.value.encode(),
        split_plan.requested_depth,
    )
    for index, row in enumerate(product(*items)):
        yield b"%d,%s\r\n" % (index, b";".join(row))


def _listed_plan(formula: Formula, path: str | Path) -> SplitPlan | None:
    """The plan of `formula` with the settings on line 1 of the plan.csv at
    `path`, if the file holds the very bytes that `split` writes for that
    plan; else None, with or without a file, and `read_manifest` and
    `verify_manifest` are left to check it entry by entry and name what
    differs."""
    try:
        data = _read_file(path)
    except OSError:
        return None
    end = data.find(b"\r\n")
    settings = _SETTINGS.fullmatch(data[:end].decode(errors="replace")) if end >= 0 else None
    if settings is None:
        return None
    try:
        split_plan = plan(formula, int(settings[2]), SplitMode(settings[1]))
    except (IntsplitsError, ValueError):
        return None
    # Lines first: a plan with more rows than the file has is never listed.
    if data.count(b"\n") != count_subproblems(split_plan) + 2:
        return None
    at = 0
    for line in _manifest_lines(split_plan, _row_table(split_plan)[2]):
        if not data.startswith(line, at):
            return None
        at += len(line)
    return split_plan if at == len(data) else None


def read_manifest(path: str | Path) -> Manifest:
    entries: list[tuple[int, ...]] = []
    literal_of: dict[str, int] = {}  # each distinct `var=bit` item, checked once
    # A byte that is not UTF-8 becomes U+FFFD and fails its row's parse.
    with Path(path).open(newline="", errors="replace") as handle:
        settings = _SETTINGS.fullmatch(handle.readline().rstrip("\r\n"))
        if settings is None:
            raise MergeError(
                f"{path}: line 1 is not the split's settings '# mode=<intsplit|plain> "
                f"depth=<n>'; a directory split by an older version must be split again"
            )
        for row_no, row in enumerate(csv.reader(handle), start=2):
            if not row or row[0].strip() in ("", "index"):
                continue
            if len(row) != 2:
                raise MergeError(f"{path}: row {row_no} has {len(row)} fields, expected 2")
            try:
                index = int(row[0])
                items = row[1].split(";") if row[1].strip() else []
                try:
                    literals = tuple([literal_of[item] for item in items])
                except KeyError:  # an item first seen in this row
                    for item in items:
                        if item not in literal_of:
                            var, bit = map(int, item.split("="))
                            if var < 1 or bit not in (0, 1):
                                raise ValueError
                            literal_of[item] = var if bit else -var
                    literals = tuple([literal_of[item] for item in items])
            except ValueError:
                raise MergeError(f"{path}: row {row_no} is not a valid plan entry") from None
            if index != len(entries):
                raise MergeError(f"{path}: row {row_no} has index {index}, expected {len(entries)}")
            entries.append(literals)
    return Manifest(SplitMode(settings[1]), int(settings[2]), tuple(entries))


def verify_manifest(split_plan: SplitPlan, manifest: Manifest) -> None:
    """Fail if the manifest's entries do not match the plan exactly."""
    total = count_subproblems(split_plan)
    if len(manifest.entries) != total:
        raise MergeError(
            f"manifest lists {len(manifest.entries)} sub-problems but the plan yields {total}"
        )
    for index, (expected, found) in enumerate(zip(enumerate_accounted(split_plan), manifest.entries)):
        if expected != found:
            raise MergeError(
                f"manifest entry {index} does not match the plan "
                f"(expected {expected}, found {found}); was the "
                f"directory produced with different split settings?"
            )
