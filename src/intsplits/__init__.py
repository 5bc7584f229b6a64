"""Divide-and-conquer splitting of (Q)DIMACS QBF formulas guided by
integer-range annotations, plus result merging and a brute-force oracle."""

from .errors import (
    AmbiguousImplicitError,
    BlockMismatchError,
    BudgetExceededError,
    DimacsModeViolationError,
    DuplicateResultError,
    EmptyPlanError,
    FormulaError,
    IntsplitsError,
    InvalidAnnotationError,
    MalformedHeaderError,
    MergeError,
    MissingResultError,
    ParseError,
    PatternWidthMismatchError,
    UnknownVariableError,
    UnparsableRowError,
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
    Top,
    accounted_values,
    bits_of,
    integer_value,
    literals_of,
)
from .qdimacs import SourceDocument, parse, parse_file, write
from .splitter import (
    Manifest,
    SplitMode,
    SplitPlan,
    count_subproblems,
    count_without_intsplits,
    emit_subproblem,
    enumerate_accounted,
    expanded_copy,
    plan,
    read_manifest,
    sorted_annotations,
    split_formula,
    subproblem_name,
    verify_manifest,
    write_manifest,
)
from .merger import (
    MergeReport,
    ResultCode,
    ResultTable,
    ResultTuple,
    format_flat_report,
    ingest,
    merge,
    parse_result_token,
    reduce_level,
    render_certificate,
    speedup_report,
)
from .evaluator import (
    CorrectnessVerdict,
    EvalBudget,
    check_correctness,
    evaluate,
    evaluate_with_intsplits,
)

__version__ = "0.1.0"
