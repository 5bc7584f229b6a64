"""Reference semantics for QBFs, with and without integer-range bounds on
the quantifiers.

The recursion expands the prefix left to right, simplifying the matrix
after every assignment.  Before it branches, each node applies three rules
(DPLL-style QBF evaluation, after Cadoli, Giovanardi and Schaerf, AAAI
1998): it propagates unit clauses on plain existential variables to a
fixpoint; it is false at a unit clause on a plain universal variable or at
two complementary unit clauses; and it passes over plain variables that no
longer occur, in a loop rather than a recursive call.  Plain variables are
those outside annotated steps: an annotated vector ranges over its
accounted values only, where a unit clause need not decide anything (for
all x in {1}, (x) is true), so it is always branched on.  The search still
explores up to 2^n branches; it is an oracle for desk-scale verification,
not a solver.  A budget guards against accidentally exploding formulas.
A prefix's search is set up once and runs on any clauses over it: `run`
shares one among a split's sub-problems, each one `simplify` of the head's
clauses away (see `splitter._subproblem_reader`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable

from .errors import BudgetExceededError, FormulaError
from .formula import (
    Formula,
    QuantifierKind,
    accounted_values,
    literals_of,
    simplify,
)

__all__ = [
    "EvalBudget",
    "CorrectnessVerdict",
    "evaluate",
    "evaluate_with_intsplits",
    "check_correctness",
]

@dataclass(frozen=True)
class EvalBudget:
    """Limits for the exponential recursion.

    max_variables caps the quantified variables of a formula; None lifts
    the cap.  deadline is an absolute time.monotonic() timestamp; it is
    polled at every recursion step, whose `simplify` calls can each walk a
    wide matrix.
    """

    max_variables: int | None = 25
    deadline: float | None = None


DEFAULT_BUDGET = EvalBudget()


@dataclass(frozen=True)
class CorrectnessVerdict:
    """Outcome of comparing bounded against unbounded semantics."""

    correct: bool
    restricted: bool
    unrestricted: bool

    def __str__(self) -> str:
        if self.correct:
            return "CORRECT"
        restricted, unrestricted = str(self.restricted).upper(), str(self.unrestricted).upper()
        return f"INCORRECT (with bounds: {restricted}, without: {unrestricted})"


class _Literals(dict):
    """A step's assignments as DIMACS literals by value, each made on first use."""

    def __init__(self, variables: tuple[int, ...]):
        self.variables = variables

    def __missing__(self, value: int) -> tuple[int, ...]:
        self[value] = literals = literals_of(self.variables, value)
        return literals


def _prepared(
    formula: Formula, budget: EvalBudget, use_intsplits: bool
) -> tuple[dict[int, QuantifierKind], Callable[[tuple[tuple[int, ...], ...], float | None], bool]]:
    """The search of `formula`'s prefix, set up once, with the budget's cap
    checked: each plain variable's kind, and `search(clauses, deadline)`,
    the prefix's truth value over any clauses on the variables it branches
    on, such as the matrix plus unit clauses on plain variables."""
    annotations = formula.annotations if use_intsplits else ()
    annotated = {v for aq in annotations for v in aq.bitvector.variables}
    # Each plain variable's kind, in prefix order.  Annotations claim prefix
    # variables from the front, so every plain variable commutes behind them
    # (same block or later blocks).  Without a prefix every variable is
    # existential, and one that is not in the matrix would be passed over,
    # so only the matrix's variables are plain.
    if formula.prefix:
        plain = {v: block.kind for block in formula.prefix for v in block.variables if v not in annotated}
    else:
        used = {abs(lit) for clause in formula.matrix.clauses for lit in clause} - annotated
        plain = dict.fromkeys(sorted(used), QuantifierKind.EXISTS)
    count = len(annotated) + len(plain)
    if budget.max_variables is not None and count > budget.max_variables:
        raise BudgetExceededError(
            f"{count} quantified variables exceed the budget of {budget.max_variables}"
        )
    # One step per annotated vector, then one per plain variable: its kind,
    # the integer values to branch on and their literals.  A plain variable
    # is a width-1 step over range(2), which coincides with the bit-by-bit
    # semantics.
    steps = [(aq.kind, accounted_values(aq), _Literals(aq.bitvector.variables)) for aq in annotations]
    steps += [(kind, range(2), _Literals((v,))) for v, kind in plain.items()]
    first_plain = len(annotations)

    def search(clauses: tuple[tuple[int, ...], ...], deadline: float | None) -> bool:
        def descend(clauses: tuple[tuple[int, ...], ...], depth: int) -> bool:
            # Every clause here is part of a clause of the validated input matrix.
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceededError("evaluation deadline exceeded")
            # A universal unit, whose other value empties its clause, or a
            # complementary pair ends the node; existential ones propagate.
            while True:
                if () in clauses:
                    return False
                if not clauses:
                    return True
                units = {c[0] for c in clauses if len(c) == 1}
                forced = []
                for lit in units:
                    kind = plain.get(abs(lit))
                    if kind is QuantifierKind.FORALL or -lit in units:
                        return False
                    if kind is QuantifierKind.EXISTS:
                        forced.append(lit)
                if not forced:
                    break
                clauses = simplify(clauses, forced)
            while True:
                if depth == len(steps):
                    raise FormulaError("matrix undecided after the full prefix; formula is not closed")
                kind, values, literals = steps[depth]
                children = (simplify(clauses, literals[value]) for value in values)
                if depth < first_plain:
                    break
                first = next(children)
                if first != clauses:
                    children = chain((first,), children)
                    break
                depth += 1  # a plain variable that no longer occurs: nothing to branch on
            # An existential step is decided by its first true branch, a
            # universal one by its first false branch.
            exists = kind is QuantifierKind.EXISTS
            for child in children:
                if descend(child, depth + 1) is exists:
                    return exists
            return not exists

        try:
            return descend(clauses, 0)
        except RecursionError:
            raise BudgetExceededError(
                f"{len(steps)} quantification steps exceed the recursion limit"
            ) from None

    return plain, search


def evaluate(formula: Formula, budget: EvalBudget | None = None) -> bool:
    """Truth value under standard QBF semantics, annotations ignored."""
    budget = budget or DEFAULT_BUDGET
    return _prepared(formula, budget, False)[1](formula.matrix.clauses, budget.deadline)


def evaluate_with_intsplits(formula: Formula, budget: EvalBudget | None = None) -> bool:
    """Truth value with bounded quantification: annotated quantifiers range
    over their accounted expansions only."""
    budget = budget or DEFAULT_BUDGET
    return _prepared(formula, budget, True)[1](formula.matrix.clauses, budget.deadline)


def check_correctness(formula: Formula, budget: EvalBudget | None = None) -> CorrectnessVerdict:
    """Compare bounded and unbounded truth values of the formula.

    The annotations are correct exactly when both agree; on disagreement the
    verdict carries the two truth values as a witness.
    """
    restricted = evaluate_with_intsplits(formula, budget)
    unrestricted = evaluate(formula, budget)
    return CorrectnessVerdict(restricted == unrestricted, restricted, unrestricted)
