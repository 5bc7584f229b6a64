"""Brute-force reference semantics for QBFs, with and without
integer-range bounds on the quantifiers.

The recursion expands the prefix left to right, simplifying the matrix
after every assignment, and explores up to 2^n branches; it is an oracle
for desk-scale verification, not a solver.  A budget guards against
accidentally exploding formulas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Collection

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
    "evaluate_instrumented",
    "check_correctness",
]

_DEADLINE_CHECK_INTERVAL = 256


@dataclass(frozen=True)
class EvalBudget:
    """Limits for the exponential recursion.

    deadline is an absolute time.monotonic() timestamp; it is polled every
    few hundred recursion steps.
    """

    max_variables: int = 25
    max_nodes: int | None = None
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
        return (
            f"INCORRECT (with bounds: {_tf(self.restricted)}, "
            f"without: {_tf(self.unrestricted)})"
        )


def _tf(value: bool) -> str:
    return "TRUE" if value else "FALSE"


class _Run:
    __slots__ = ("budget", "short_circuit", "nodes", "leaves", "suffix_branches")

    def __init__(self, budget: EvalBudget, short_circuit: bool, suffix_branches: list[int]):
        self.budget = budget
        self.short_circuit = short_circuit
        self.nodes = 0
        self.leaves = 0
        # suffix_branches[i]: leaf branches below a node at step i, used to
        # count whole expansion branches when the matrix decides early
        self.suffix_branches = suffix_branches

    def tick(self) -> None:
        self.nodes += 1
        budget = self.budget
        if budget.max_nodes is not None and self.nodes > budget.max_nodes:
            raise BudgetExceededError(f"evaluation exceeded {budget.max_nodes} nodes")
        if (
            budget.deadline is not None
            and (self.nodes == 1 or self.nodes % _DEADLINE_CHECK_INTERVAL == 0)
            and time.monotonic() > budget.deadline
        ):
            raise BudgetExceededError("evaluation deadline exceeded")


class _Literals(dict):
    """A step's assignments as DIMACS literals by value, each made on first use."""

    def __init__(self, variables: tuple[int, ...]):
        self.variables = variables

    def __missing__(self, value: int) -> tuple[int, ...]:
        self[value] = literals = literals_of(self.variables, value)
        return literals


# One quantification step: kind, the integer values to branch on and their
# literals.  Plain Boolean variables are width-1 steps over range(2), which
# coincides with the bit-by-bit semantics.
_Step = tuple[QuantifierKind, Collection[int], _Literals]


def _steps(formula: Formula, use_intsplits: bool) -> list[_Step]:
    annotations = formula.annotations if use_intsplits else ()
    steps = [
        (aq.kind, accounted_values(aq), _Literals(aq.bitvector.variables)) for aq in annotations
    ]
    annotated = {v for aq in annotations for v in aq.bitvector.variables}
    # Annotations claim prefix variables from the front, so every leftover
    # variable commutes behind them (same block or later blocks).
    for v in formula.prefix_variables():
        if v not in annotated:
            steps.append((formula.kind_of(v), range(2), _Literals((v,))))
    return steps


def _descend(
    clauses: tuple[tuple[int, ...], ...], steps: list[_Step], depth: int, run: _Run
) -> int:
    # Every clause here is part of a clause of the validated input matrix.
    run.tick()
    if () in clauses:
        run.leaves += run.suffix_branches[depth]
        return 0
    if not clauses:
        run.leaves += run.suffix_branches[depth]
        return 1
    if depth == len(steps):
        raise FormulaError("matrix undecided after the full prefix; formula is not closed")
    kind, values, literals = steps[depth]
    result = 1 if kind is QuantifierKind.FORALL else 0
    for value in values:
        sub = _descend(simplify(clauses, literals[value]), steps, depth + 1, run)
        if kind is QuantifierKind.EXISTS:
            if sub:
                result = 1
                if run.short_circuit:
                    break
        else:
            if not sub:
                result = 0
                if run.short_circuit:
                    break
    return result


def _evaluate(
    formula: Formula,
    budget: EvalBudget,
    use_intsplits: bool,
    short_circuit: bool,
) -> tuple[int, int]:
    count = len(formula.prefix_variables())
    if count > budget.max_variables:
        raise BudgetExceededError(
            f"{count} quantified variables exceed the budget of {budget.max_variables}"
        )
    steps = _steps(formula, use_intsplits)
    suffix = [1] * (len(steps) + 1)
    for at in range(len(steps) - 1, -1, -1):
        suffix[at] = suffix[at + 1] * len(steps[at][1])
    run = _Run(budget, short_circuit, suffix)
    value = _descend(formula.matrix.clauses, steps, 0, run)
    return value, run.leaves


def evaluate(formula: Formula, budget: EvalBudget | None = None) -> bool:
    """Truth value under standard QBF semantics, annotations ignored."""
    value, _ = _evaluate(formula, budget or DEFAULT_BUDGET, False, True)
    return bool(value)


def evaluate_with_intsplits(formula: Formula, budget: EvalBudget | None = None) -> bool:
    """Truth value with bounded quantification: annotated quantifiers range
    over their accounted expansions only."""
    value, _ = _evaluate(formula, budget or DEFAULT_BUDGET, True, True)
    return bool(value)


def evaluate_instrumented(
    formula: Formula,
    budget: EvalBudget | None = None,
    use_intsplits: bool = False,
) -> tuple[bool, int]:
    """Evaluation without short-circuiting; returns (value, visited leaves).

    A leaf is one full expansion branch of the quantification tree; branches
    cut off by a decided matrix still count with their multiplicity, so the
    totals are deterministic and comparable between bounded and unbounded
    semantics (2^n versus the product of accounted counts).
    """
    value, leaves = _evaluate(formula, budget or DEFAULT_BUDGET, use_intsplits, False)
    return bool(value), leaves


def check_correctness(formula: Formula, budget: EvalBudget | None = None) -> CorrectnessVerdict:
    """Compare bounded and unbounded truth values of the formula.

    The annotations are correct exactly when both agree; on disagreement the
    verdict carries the two truth values as a witness.
    """
    budget = budget or DEFAULT_BUDGET
    restricted = evaluate_with_intsplits(formula, budget)
    unrestricted = evaluate(formula, budget)
    return CorrectnessVerdict(restricted == unrestricted, restricted, unrestricted)
