"""Exception hierarchy shared by all intsplits modules."""

__all__ = [
    "IntsplitsError", "FormulaError", "InvalidAnnotationError", "BlockMismatchError",
    "PatternWidthMismatchError", "ParseError", "MalformedHeaderError", "UnknownVariableError",
    "AmbiguousImplicitError", "DimacsModeViolationError", "EmptyPlanError", "BudgetExceededError",
    "MergeError", "MissingResultError", "DuplicateResultError", "UnparsableRowError",
]


class IntsplitsError(Exception):
    """Base class for every error raised by this package."""


class FormulaError(IntsplitsError):
    """A structural invariant of the in-memory formula model is violated."""


class InvalidAnnotationError(FormulaError):
    """An annotated quantifier cannot be constructed (e.g. it would have no
    accounted expansion at all)."""


class BlockMismatchError(FormulaError):
    """Annotations and quantifier prefix disagree: a bit-vector spans two
    blocks, annotations appear out of prefix order, or they skip variables."""


class PatternWidthMismatchError(FormulaError):
    """A set-constraint bit pattern does not match the bit-vector width."""


class ParseError(IntsplitsError):
    """Syntax or structure error in a (Q)DIMACS document."""


class MalformedHeaderError(ParseError):
    """The problem line is missing or does not agree with the file body."""


class UnknownVariableError(ParseError):
    """A clause or annotation references a variable beyond the declared count."""


class AmbiguousImplicitError(ParseError):
    """An annotation omits its variable list but the bit-vector width cannot
    be derived from the constraints alone."""


class DimacsModeViolationError(ParseError):
    """Mixing of DIMACS and QDIMACS conventions: implicit variable lists
    require a quantifier prefix, and prefix-free files must spell out all
    bit-vectors explicitly."""


class EmptyPlanError(IntsplitsError):
    """No annotated quantifier fits within the requested splitting depth."""


class BudgetExceededError(IntsplitsError):
    """Brute-force evaluation would exceed the configured budget."""


class MergeError(IntsplitsError):
    """Result ingestion or reduction failed."""


class MissingResultError(MergeError):
    """A planned sub-problem has no result row."""


class DuplicateResultError(MergeError):
    """A sub-problem index occurs more than once in the results."""


class UnparsableRowError(MergeError):
    """A results row or log file could not be interpreted."""
