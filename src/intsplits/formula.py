"""In-memory model of prenex-CNF QBFs with integer-range annotations.

Bit-vectors are most-significant bit first: the first listed variable of a
bit-vector carries the highest place value, so (t1, ..., tn) denotes the
integer 2^(n-1)*t1 + ... + 2^0*tn.  Efficiency ratios are exact fractions;
no floating point enters the model anywhere.

The model's types are immutable after construction and its functions are
pure, so values can be shared between threads without synchronization.
`AnnotationCursor` is the exception: a checker that records what it has
placed so far, for one caller at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain
from typing import Collection, Iterable, Iterator, Sequence

from .errors import (
    BlockMismatchError,
    FormulaError,
    InvalidAnnotationError,
    PatternWidthMismatchError,
)

__all__ = [
    "QuantifierKind",
    "Matrix",
    "QuantifierBlock",
    "BitVectorVar",
    "Less",
    "Greater",
    "InSet",
    "Top",
    "Constraint",
    "AnnotatedQuantifier",
    "Formula",
    "AnnotationCursor",
    "integer_value",
    "bits_of",
    "literals_of",
    "accounted_values",
    "simplify",
]


class QuantifierKind(Enum):
    EXISTS = "e"
    FORALL = "a"


@dataclass(frozen=True)
class Matrix:
    """CNF matrix: a conjunction of clauses over variables 1..variable_count.

    A clause is a tuple of DIMACS literals, v for variable v and -v for its
    negation; the empty tuple is the false clause.
    """

    clauses: tuple[tuple[int, ...], ...]
    variable_count: int

    def __post_init__(self) -> None:
        if self.variable_count < 0:
            raise FormulaError("variable count cannot be negative")
        for clause in self.clauses:
            for lit in clause:
                if not 0 < abs(lit) <= self.variable_count:
                    raise FormulaError(
                        f"clause literal {lit} names no variable in "
                        f"1..{self.variable_count}"
                    )


@dataclass(frozen=True)
class QuantifierBlock:
    """A maximal run of equally quantified variables in the prefix."""

    kind: QuantifierKind
    variables: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise FormulaError("quantifier blocks cannot be empty")
        if len(set(self.variables)) != len(self.variables):
            raise FormulaError(f"duplicate variable in quantifier block {self.variables}")
        if min(self.variables) < 1:
            raise FormulaError("variable ids start at 1")


@dataclass(frozen=True)
class BitVectorVar:
    """An ordered group of Boolean variables read as one integer, MSB first."""

    variables: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise FormulaError("bit-vectors need at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise FormulaError(f"duplicate variable in bit-vector {self.variables}")
        if min(self.variables) < 1:
            raise FormulaError("variable ids start at 1")

    @property
    def width(self) -> int:
        return len(self.variables)


@dataclass(frozen=True)
class Less:
    """Accounted iff the bit-vector value is strictly below the bound."""

    bound: int

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise FormulaError("constraint bounds are positive integers")


@dataclass(frozen=True)
class Greater:
    """Accounted iff the bit-vector value is strictly above the bound."""

    bound: int

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise FormulaError("constraint bounds are positive integers")


@dataclass(frozen=True)
class InSet:
    """Accounted iff the bit-vector equals one of the listed patterns."""

    patterns: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise FormulaError("pattern sets cannot be empty")
        for pattern in self.patterns:
            if not pattern or any(bit not in (0, 1) for bit in pattern):
                raise FormulaError(f"bit patterns consist of 0/1 only, got {pattern}")

    @classmethod
    def of(cls, *patterns: Sequence[int]) -> "InSet":
        return cls(frozenset(tuple(p) for p in patterns))


@dataclass(frozen=True)
class Top:
    """No restriction; every expansion is accounted."""


Constraint = Less | Greater | InSet | Top


def integer_value(bits: Sequence[int]) -> int:
    """Integer denoted by a bit-vector, most-significant bit first."""
    if not bits:
        raise ValueError("empty bit-vector has no integer value")
    value = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bits are 0 or 1, got {bit!r}")
        value = (value << 1) | bit
    return value


def bits_of(value: int, width: int) -> tuple[int, ...]:
    """Inverse of integer_value for the given width."""
    if width < 1:
        raise ValueError("width must be at least 1")
    if not 0 <= value < (1 << width):
        raise ValueError(f"value {value} does not fit into {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def literals_of(variables: Sequence[int], value: int) -> tuple[int, ...]:
    """The assignment giving the bit-vector `variables` the integer `value`,
    as DIMACS literals in the same order: v for a 1 bit, -v for a 0 bit."""
    return tuple([v if bit else -v for v, bit in zip(variables, bits_of(value, len(variables)))])


def _intervals(width: int, constraints: Sequence[Constraint]) -> tuple[tuple[int, int], ...]:
    """Union of the constraints as sorted, disjoint, non-adjacent half-open
    intervals of integer values; fails if the union is empty."""
    size = 1 << width
    spans: list[tuple[int, int]] = []
    for c in constraints:
        if isinstance(c, Top):
            spans.append((0, size))
        elif isinstance(c, Less):
            spans.append((0, min(c.bound, size)))
        elif isinstance(c, Greater):
            spans.append((min(c.bound + 1, size), size))
        elif isinstance(c, InSet):
            spans.extend((v, v + 1) for v in map(integer_value, c.patterns))
        else:
            raise FormulaError(f"unknown constraint {c!r}")
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        elif lo < hi:
            merged.append((lo, hi))
    if not merged:
        raise InvalidAnnotationError(
            "annotation admits no accounted expansion; remove the quantifier instead"
        )
    return tuple(merged)


@dataclass(frozen=True)
class AnnotatedQuantifier:
    """A quantifier over a bit-vector together with its constraint list.

    An expansion is accounted as soon as at least one constraint in the list
    is satisfied.  Construction fails if no expansion is accounted.
    `intervals` holds the accounted values as sorted, disjoint half-open
    intervals; s, u and accounted_values derive from it.
    """

    kind: QuantifierKind
    bitvector: BitVectorVar
    constraints: tuple[Constraint, ...]
    intervals: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.constraints:
            raise InvalidAnnotationError("annotated quantifiers need at least one constraint")
        for c in self.constraints:
            if isinstance(c, InSet):
                for pattern in c.patterns:
                    if len(pattern) != self.width:
                        raise PatternWidthMismatchError(
                            f"pattern {''.join(map(str, pattern))} has {len(pattern)} bits, "
                            f"bit-vector {self.bitvector.variables} has width {self.width}"
                        )
        object.__setattr__(self, "intervals", _intervals(self.width, self.constraints))

    @property
    def width(self) -> int:
        return self.bitvector.width

    @property
    def s(self) -> int:
        """Number of accounted expansions."""
        return sum(hi - lo for lo, hi in self.intervals)

    @property
    def u(self) -> int:
        """Number of unaccounted expansions."""
        return (1 << self.width) - self.s

    @property
    def eta(self) -> Fraction:
        """Pruning efficiency u/s as an exact rational."""
        return Fraction(self.u, self.s)


@dataclass(frozen=True)
class _RangeChain:
    """Several ranges read one after another, with their total length."""

    ranges: tuple[range, ...]
    length: int

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self.ranges)

    def __contains__(self, value: object) -> bool:
        return any(value in r for r in self.ranges)


def accounted_values(aq: AnnotatedQuantifier) -> Collection[int]:
    """Accounted expansions of aq as integer values in increasing order.

    Returns a lazy, re-iterable collection of exactly aq.s values with O(1)
    len(): a range for a single interval, a chain of ranges otherwise.
    """
    ranges = tuple(range(lo, hi) for lo, hi in aq.intervals)
    return ranges[0] if len(ranges) == 1 else _RangeChain(ranges, aq.s)


def simplify(
    clauses: tuple[tuple[int, ...], ...], literals: Iterable[int]
) -> tuple[tuple[int, ...], ...]:
    """The clauses under the assignment that makes `literals` true: clauses
    with a true literal are dropped, false literals are removed, and clauses
    emptied this way are kept.  The literals are not checked."""
    true = frozenset(literals)
    false = frozenset([-lit for lit in true])
    untouched = (true | false).isdisjoint
    kept = []
    for clause in clauses:
        if not untouched(clause):
            if not true.isdisjoint(clause):
                continue
            clause = tuple([lit for lit in clause if lit not in false])
        kept.append(clause)
    return tuple(kept)


class AnnotationCursor:
    """Checks the alignment rule between annotations and the prefix.

    Bit-vectors claim prefix variables from the front, block by block: a
    bit-vector never spans two blocks, annotations never return to an
    earlier block, and moving past a block requires all its variables to be
    claimed.  Inside one block, variables may be claimed in any order.
    """

    def __init__(self, prefix: Sequence[QuantifierBlock]):
        self._blocks = tuple(prefix)
        self._home = {
            v: i for i, block in enumerate(self._blocks) for v in block.variables
        }
        self._claimed: set[int] = set()
        self._block = 0

    def _fully_claimed(self, index: int) -> bool:
        return all(v in self._claimed for v in self._blocks[index].variables)

    def place(self, variables: Sequence[int]) -> QuantifierKind:
        """Claim an explicit bit-vector; returns the owning block's kind."""
        homes = set()
        for v in variables:
            home = self._home.get(v)
            if home is None:
                raise BlockMismatchError(f"variable {v} is not quantified in the prefix")
            if v in self._claimed:
                raise FormulaError(f"variable {v} occurs in two different bit-vectors")
            homes.add(home)
        if len(homes) != 1:
            raise BlockMismatchError(
                f"bit-vector {tuple(variables)} spans {len(homes)} quantifier blocks"
            )
        target = homes.pop()
        if target < self._block:
            raise BlockMismatchError(
                f"bit-vector {tuple(variables)} appears out of prefix order"
            )
        while self._block < target:
            if not self._fully_claimed(self._block):
                raise BlockMismatchError(
                    f"annotations skip variables of quantifier block {self._block + 1}"
                )
            self._block += 1
        self._claimed.update(variables)
        return self._blocks[target].kind

    def take(self, width: int) -> tuple[tuple[int, ...], QuantifierKind]:
        """Claim the next `width` unclaimed variables of the current block."""
        while self._block < len(self._blocks) and self._fully_claimed(self._block):
            self._block += 1
        if self._block >= len(self._blocks):
            raise BlockMismatchError(
                f"prefix exhausted while resolving an implicit {width}-bit bit-vector"
            )
        block = self._blocks[self._block]
        free = [v for v in block.variables if v not in self._claimed]
        if len(free) < width:
            raise BlockMismatchError(
                f"implicit bit-vector needs {width} variables but quantifier "
                f"block {self._block + 1} only has {len(free)} left"
            )
        chosen = tuple(free[:width])
        self._claimed.update(chosen)
        return chosen, block.kind


@dataclass(frozen=True)
class Formula:
    """A (Q)DIMACS formula: CNF matrix, optional prefix, annotations.

    An empty prefix means plain DIMACS; annotations are then implicitly
    existential.  With a prefix, the formula must be closed and annotations
    must align with the prefix block by block.
    """

    matrix: Matrix
    prefix: tuple[QuantifierBlock, ...] = ()
    annotations: tuple[AnnotatedQuantifier, ...] = ()

    def __post_init__(self) -> None:
        quantified: set[int] = set()
        for block in self.prefix:
            for v in block.variables:
                if v in quantified:
                    raise FormulaError(f"variable {v} is quantified twice")
                if v > self.matrix.variable_count:
                    raise FormulaError(
                        f"quantified variable {v} exceeds declared count "
                        f"{self.matrix.variable_count}"
                    )
                quantified.add(v)
        if self.prefix:
            for clause in self.matrix.clauses:
                for lit in clause:
                    if abs(lit) not in quantified:
                        raise FormulaError(
                            f"free variable {abs(lit)} in matrix; only closed "
                            f"formulas are supported"
                        )
            cursor = AnnotationCursor(self.prefix)
            for aq in self.annotations:
                kind = cursor.place(aq.bitvector.variables)
                if kind is not aq.kind:
                    raise FormulaError(
                        f"annotation on {aq.bitvector.variables} is marked "
                        f"{aq.kind.name} but its block is {kind.name}"
                    )
        else:
            claimed: set[int] = set()
            for aq in self.annotations:
                if aq.kind is not QuantifierKind.EXISTS:
                    raise FormulaError(
                        "universal annotations require an explicit quantifier prefix"
                    )
                for v in aq.bitvector.variables:
                    if v > self.matrix.variable_count:
                        raise FormulaError(
                            f"annotated variable {v} exceeds declared count "
                            f"{self.matrix.variable_count}"
                        )
                    if v in claimed:
                        raise FormulaError(f"variable {v} occurs in two different bit-vectors")
                    claimed.add(v)

    def prefix_variables(self) -> Sequence[int]:
        """Quantified variables in prefix order; range(1, n + 1) for prefix-free
        files, which costs nothing however large the declared count n."""
        if self.prefix:
            return tuple(v for block in self.prefix for v in block.variables)
        return range(1, self.matrix.variable_count + 1)
