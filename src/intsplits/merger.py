"""Reduce per-sub-problem results level by level to the final verdict.

The innermost expanded quantifier is folded first: its accounted expansions
form consecutive groups (the enumeration is lexicographic), every group of
size s collapses to one tuple, and the process repeats outward until a
single tuple remains.  Existential levels take the maximal result code and
the minimal time, universal levels the minimal result code and the maximal
time, so the final time is the wall clock of a virtual parallel solver with
one processor per sub-problem.

Result codes are ordered FALSE < UNKNOWN < TRUE, the unique order for which
the max/min rule stays sound in the presence of timeouts: one true branch
settles an existential level no matter how many siblings timed out, one
false branch settles a universal level.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateResultError,
    MergeError,
    MissingResultError,
    UnparsableRowError,
)
from .formula import QuantifierKind
from .splitter import SplitPlan, count_subproblems, count_without_intsplits, _subproblem_paths

__all__ = [
    "ResultCode",
    "ResultTuple",
    "ResultTable",
    "TIME_MODELS",
    "parse_result_token",
    "RESULTS_HEADER",
    "result_row",
    "parse_result_row",
    "ingest",
    "reduce_level",
    "merge",
    "MergeReport",
    "speedup_report",
    "format_flat_report",
    "render_certificate",
]

TIME_MODELS = ("paper", "refined")

_LOG_LINE = re.compile(r"RESULT\s+(\S+)\s+TIME\s+(\S+)\s*$")


class ResultCode(IntEnum):
    FALSE = 0
    UNKNOWN = 1
    TRUE = 2


_RESULT_TOKENS = {
    "SAT": ResultCode.TRUE,
    "TRUE": ResultCode.TRUE,
    "10": ResultCode.TRUE,
    "UNSAT": ResultCode.FALSE,
    "FALSE": ResultCode.FALSE,
    "20": ResultCode.FALSE,
    "UNKNOWN": ResultCode.UNKNOWN,
    "TIMEOUT": ResultCode.UNKNOWN,
    "0": ResultCode.UNKNOWN,
}


def parse_result_token(token: str) -> ResultCode:
    """Accepts SAT/TRUE/10, UNSAT/FALSE/20 and UNKNOWN/TIMEOUT/0."""
    try:
        return _RESULT_TOKENS[token.strip().upper()]
    except KeyError:
        raise UnparsableRowError(f"unknown result token {token!r}") from None


@dataclass(frozen=True)
class ResultTuple:
    """Result code plus runtime in seconds; timeouts carry their budget."""

    code: ResultCode
    time: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise MergeError(f"runtimes must be finite and non-negative, got {self.time}")


@dataclass(frozen=True)
class ResultTable:
    """One result tuple per planned sub-problem, in index order."""

    plan: SplitPlan
    tuples: tuple[ResultTuple, ...]

    def __post_init__(self) -> None:
        expected = count_subproblems(self.plan)
        if len(self.tuples) != expected:
            raise MergeError(
                f"result table has {len(self.tuples)} entries, plan yields {expected}"
            )


RESULTS_HEADER = ("index", "result", "time_seconds")


def result_row(index: int, result: ResultTuple) -> list:
    """The fields of one results CSV row, as parse_result_row reads them."""
    return [index, result.code.name, f"{result.time:.6f}"]


def _row_lines(rows: Iterable[tuple[int, ResultTuple]]) -> str:
    """results.csv's lines for `rows`, as csv.writer writes `result_row`'s
    fields: CRLF line ends, and no field that needs quoting."""
    return "".join(["%s,%s,%s\r\n" % tuple(result_row(index, result)) for index, result in rows])


def _results_text(rows: Iterable[tuple[int, ResultTuple]]) -> str:
    """A whole results.csv: the header line, then `_row_lines(rows)`."""
    return ",".join(RESULTS_HEADER) + "\r\n" + _row_lines(rows)


def parse_result_row(line: str, where: str) -> tuple[int, ResultTuple] | None:
    """One `index,result,time_seconds` row of a results CSV; None for blank,
    comment and header lines.  `where` prefixes error messages."""
    # A blank, comment or header line has no index that `int` reads, and
    # `int` skips the whitespace around one as `strip` does, except the
    # separators \x1c-\x1f; so a row as `run` writes it is split only once.
    fields = line.split(",")
    try:
        index = int(fields[0])
    except ValueError:
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("index"):
            return None
        index = None
    if len(fields) != 3:
        raise UnparsableRowError(f"{where}: expected 'index,result,time_seconds'")
    if index is None:
        try:
            index = int(fields[0].strip())
        except ValueError:
            raise UnparsableRowError(f"{where}: bad index {fields[0].strip()!r}") from None
    code = _RESULT_TOKENS.get(fields[1])
    if code is None:
        code = _parse_token_at(fields[1].strip(), where)
    return index, ResultTuple(code, _parse_time_at(fields[2].strip(), where))


def _rows_from_csv(path: Path, torn: list[str] | None = None) -> Iterator[tuple[str, int, ResultTuple]]:
    """A results CSV's rows in file order, each with its `path: line N`.
    A row that does not parse is an error.  With `torn`, as `run` asks, it
    is skipped and its place appended there, as is a line without the line
    feed that ends each row `run` writes (a row that a kill cut short, even
    where what is left parses) and an empty file (which needs a header)."""
    # A byte that is not UTF-8 becomes U+FFFD and fails the row's parse.
    # Lines keep their own ends, so a row cut after its CR is cut short too.
    line, at = "", f"{path}: line "  # formatting `path` once per file, not per row
    with path.open(newline="", errors="replace") as handle:
        for line_no, line in enumerate(handle, start=1):
            where = f"{at}{line_no}"
            if torn is not None and not line.endswith("\n"):
                torn.append(where)
                continue
            try:
                row = parse_result_row(line, where)
            except UnparsableRowError:
                if torn is None:
                    raise
                torn.append(where)
                continue
            if row is not None:
                yield where, *row
    if torn is not None and not line:
        torn.append(f"{path}: empty")


def _parse_token_at(token: str, where: str) -> ResultCode:
    try:
        return parse_result_token(token)
    except UnparsableRowError as exc:
        raise UnparsableRowError(f"{where}: {exc}") from None


def _parse_time_at(token: str, where: str) -> float:
    try:
        seconds = float(token)
    except ValueError:
        raise UnparsableRowError(f"{where}: bad time {token!r}") from None
    if not math.isfinite(seconds) or seconds < 0:
        raise UnparsableRowError(f"{where}: time must be finite and non-negative")
    return seconds


def _rows_from_logs(directory: Path, count: int) -> Iterator[tuple[str, int, ResultTuple]]:
    # One log file per sub-problem, named like the sub-problem itself plus
    # one suffix (the rule of _subproblem_paths); the last non-empty line must
    # be `RESULT <code> TIME <s>`.
    for index, path in sorted(_subproblem_paths(directory, count).items()):
        last = ""
        with open(path, errors="replace") as handle:
            text = handle.read()
        for line in text.splitlines():
            if line.strip():
                last = line.strip()
        found = _LOG_LINE.search(last)
        if not found:
            raise UnparsableRowError(
                f"{path}: last line is not 'RESULT <code> TIME <seconds>'"
            )
        code = _parse_token_at(found.group(1), path)
        seconds = _parse_time_at(found.group(2), path)
        yield path, index, ResultTuple(code, seconds)


def format_indices(indices: Sequence[int]) -> str:
    """The first 20 indices, comma-separated, and how many more follow."""
    more = "" if len(indices) <= 20 else f" (and {len(indices) - 20} more)"
    return ", ".join(map(str, indices[:20])) + more


def _by_index(rows: Iterable[tuple[str, int, ResultTuple]], total: int) -> dict[int, ResultTuple]:
    """The rows' results by index, in row order.  The first row whose index
    is outside 0..total-1 or was given before is an error that names it."""
    seen: dict[int, ResultTuple] = {}
    for where, index, result in rows:
        if not 0 <= index < total:
            raise UnparsableRowError(f"{where}: index {index} outside the plan (0..{total - 1})")
        if index in seen:
            raise DuplicateResultError(f"{where}: duplicate result for index {index}")
        seen[index] = result
    return seen


def ingest(source: str | Path, plan: SplitPlan) -> ResultTable:
    """Read results from a CSV file or a directory of per-task logs."""
    source = Path(source)
    total = count_subproblems(plan)
    rows = _rows_from_logs(source, total) if source.is_dir() else _rows_from_csv(source)
    seen = _by_index(rows, total)
    missing = [i for i in range(total) if i not in seen]
    if missing:
        raise MissingResultError(f"missing results for indices: {format_indices(missing)}")
    return ResultTable(plan, tuple(seen[i] for i in range(total)))


# Each quantifier kind's rule: its code goes to the max or the min, this
# code decides a group, and the paper's time model takes the min or the max
# time.  The refined model takes the earliest deciding child's time, or
# else the slowest child's: a parallel machine can stop at the first
# deciding branch, and any other outcome needs every branch to finish.
_RULES = {
    QuantifierKind.EXISTS: (max, ResultCode.TRUE, min),
    QuantifierKind.FORALL: (min, ResultCode.FALSE, max),
}


def _reduce_group(
    group: Sequence[ResultTuple], kind: QuantifierKind, time_model: str
) -> ResultTuple:
    pick, decides, paper_time = _RULES[kind]
    code = pick(t.code for t in group)
    if time_model == "paper":
        seconds = paper_time(t.time for t in group)
    elif code is decides:
        seconds = min(t.time for t in group if t.code is code)
    else:
        seconds = max(t.time for t in group)
    return ResultTuple(code, seconds)


def reduce_level(
    tuples: Sequence[ResultTuple],
    kind: QuantifierKind,
    group_size: int,
    time_model: str = "paper",
) -> list[ResultTuple]:
    """Collapse consecutive groups of `group_size` tuples into one each."""
    if time_model not in TIME_MODELS:
        raise ValueError(f"time model must be one of {TIME_MODELS}")
    if group_size < 1 or len(tuples) % group_size:
        raise MergeError(
            f"{len(tuples)} tuples cannot be grouped by {group_size}; "
            f"results do not match the plan"
        )
    return [
        _reduce_group(tuples[at : at + group_size], kind, time_model)
        for at in range(0, len(tuples), group_size)
    ]


@dataclass(frozen=True)
class MergeReport:
    """Certificate of the reduction: every intermediate level of tuples.

    levels[0] holds the sub-problem results in index order; each following
    level is the result of folding the innermost remaining quantifier;
    levels[-1] is the final verdict alone.  reductions[i] records the
    quantifier kind and group size applied between level i and i+1.
    """

    levels: tuple[tuple[ResultTuple, ...], ...]
    reductions: tuple[tuple[QuantifierKind, int], ...]
    time_model: str

    @property
    def final(self) -> ResultTuple:
        return self.levels[-1][0]


def merge(table: ResultTable, time_model: str = "paper") -> tuple[ResultTuple, MergeReport]:
    """Fold the result table from the innermost expanded quantifier outward."""
    if time_model not in TIME_MODELS:
        raise ValueError(f"time model must be one of {TIME_MODELS}")
    levels: list[tuple[ResultTuple, ...]] = [table.tuples]
    reductions: list[tuple[QuantifierKind, int]] = []
    current: Sequence[ResultTuple] = table.tuples
    for aq in reversed(table.plan.quantifiers):
        current = reduce_level(current, aq.kind, aq.s, time_model)
        levels.append(tuple(current))
        reductions.append((aq.kind, aq.s))
    if len(current) != 1:
        raise MergeError(f"reduction ended with {len(current)} tuples instead of 1")
    report = MergeReport(tuple(levels), tuple(reductions), time_model)
    return report.final, report


def speedup_report(
    table: ResultTable,
    sequential_time: float | None = None,
    time_model: str = "paper",
) -> dict[str, object]:
    """Flat key/value summary: verdict, times, counts and speed-up.

    The speed-up entry is present only when a sequential reference time is
    given.
    """
    return _summary(table, merge(table, time_model)[0], sequential_time)


def _summary(table: ResultTable, final: ResultTuple, sequential_time: float | None) -> dict[str, object]:
    """speedup_report of a table whose fold gave `final`."""
    with_count = count_subproblems(table.plan)
    without_count = count_without_intsplits(table.plan)
    report: dict[str, object] = {
        "final_result": final.code.name,
        "parallel_time_s": final.time,
        "total_cpu_time_s": math.fsum(t.time for t in table.tuples),
        "subproblems_with": with_count,
        "subproblems_without": without_count,
        "ratio": with_count / without_count,
    }
    if sequential_time is not None:
        report["speedup"] = (
            math.inf if final.time == 0 else sequential_time / final.time
        )
    return report


def format_flat_report(report: dict[str, object]) -> str:
    return "\n".join(f"{key}={_count_text(value)}" for key, value in report.items()) + "\n"


def _count_text(value: object) -> str:
    """`str(value)`, or `2^k` for a power of two too long for Python to
    convert to decimal (4,300 digits by default), such as the sub-problem
    count of a plain split of 14,285 or more variables."""
    try:
        return str(value)
    except ValueError:
        if value & (value - 1):  # not a power of two
            raise
        return f"2^{value.bit_length() - 1}"


def _format_tuple(result: ResultTuple) -> str:
    return f"({result.code.name},{result.time:g})"


def render_certificate(report: MergeReport) -> str:
    """Human-readable account of every reduction step."""
    lines = [f"time model: {report.time_model}"]
    for level, tuples in enumerate(report.levels):
        if level < len(report.reductions):
            kind, size = report.reductions[level]
            pick, _, paper_time = _RULES[kind]
            time = f"{paper_time.__name__} time" if report.time_model == "paper" else "conditional time"
            lines.append(
                f"level {level}: {len(tuples)} tuples, reduced {kind.name} "
                f"in groups of {size} ({pick.__name__} result, {time})"
            )
            for at in range(0, len(tuples), size):
                group = " ".join(_format_tuple(t) for t in tuples[at : at + size])
                lines.append(f"  group {at // size}: {group}")
        else:
            lines.append(f"level {level}: final {_format_tuple(tuples[0])}")
    return "\n".join(lines) + "\n"
