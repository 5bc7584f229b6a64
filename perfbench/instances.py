"""Seeded instance generators for the split -> run -> merge benchmark.

Each workload keeps its structure (prefix, annotations, depth, task count)
fixed and draws only the clauses from the seed, so that runs on different
seeds do the same amount of splitting and merging work.  An instance is
re-drawn until expanding exactly the plan's annotations preserves the truth
value, the same rejection rule as ``tests/conftest.py::correct_pipeline_case``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("deep", "fanout")

# Re-draws allowed before the gate gives up; the full-scale shapes need
# at most a few.
_MAX_DRAWS = 64


@dataclass(frozen=True)
class Shape:
    """Fixed structure of one workload; the seed only picks clauses.

    Clause styles:
    - ``one_per_block``: one literal from every block, as in TRIPLE_19;
    - ``balanced``: each variable of the expanded blocks occurs equally
      often in each sign, joined with two literals of the last (free)
      block.  No clause lies inside the free block, so every task's search
      covers the whole free block and the work per seed stays nearly equal.
    """

    annotations: tuple[str, ...]  # `cs` lines
    blocks: tuple[tuple[str, tuple[int, ...]], ...]  # (e|a, variables)
    clause_count: int
    style: str
    depth: int
    name: str  # file name of the instance

    @property
    def variable_count(self) -> int:
        return sum(len(vs) for _, vs in self.blocks)


def _span(first: int, last: int) -> tuple[int, ...]:
    return tuple(range(first, last + 1))


def _vector(variables: tuple[int, ...], constraints: str) -> str:
    return f"cs int [{' '.join(map(str, variables))}] {constraints}"


SHAPES = {
    # Two 4-bit <9 vectors (e, then a), depth 8: 81 small tasks, each
    # leaving 8 free existential variables to the oracle.  A sub-problem
    # quantifies its assigned variables after the free ones, so each task
    # searches all 2^8 free assignments, while the unsplit formula, which
    # assigns the vectors first, solves in about half the time of one task
    # (merger.speedup about 0.5).  8 clauses per expanded literal make every
    # task false and the oracle's work nearly the same on every seed (about
    # 4% apart; fewer clauses let some tasks come out true, which ends
    # their search early and spreads the work by 30% and more).
    "deep": Shape(
        (_vector(_span(1, 4), "<9"), _vector(_span(5, 8), "<9")),
        (("e", _span(1, 4)), ("a", _span(5, 8)), ("e", _span(9, 16))),
        clause_count=128,
        style="balanced",
        depth=8,
        name="deep.qdimacs",
    ),
    # The TRIPLE_19 family: three 5-bit <19 vectors, 2 clauses, depth 15:
    # 19^3 = 6859 sub-problems against 2^15 = 32768 plain.
    "fanout": Shape(
        ("cs int <19",) * 3,
        (("e", _span(1, 5)), ("a", _span(6, 10)), ("e", _span(11, 15))),
        clause_count=2,
        style="one_per_block",
        depth=15,
        name="fanout.qdimacs",
    ),
}

# Scaled-down shapes for smoke tests: same structure, seconds instead of
# minutes.
SMALL_SHAPES = {
    "deep": Shape(
        (_vector(_span(1, 3), "<5"), _vector(_span(4, 6), "<5")),
        (("e", _span(1, 3)), ("a", _span(4, 6)), ("e", _span(7, 10))),
        clause_count=12,
        style="balanced",
        depth=6,
        name="deep.qdimacs",
    ),
    "fanout": Shape(
        ("cs int <3",) * 3,
        (("e", _span(1, 2)), ("a", _span(3, 4)), ("e", _span(5, 6))),
        clause_count=2,
        style="one_per_block",
        depth=6,
        name="fanout.qdimacs",
    ),
}


def _clauses(rng: random.Random, shape: Shape) -> list[tuple[int, ...]]:
    if shape.style == "one_per_block":
        picks = [[rng.choice(vs) for _, vs in shape.blocks] for _ in range(shape.clause_count)]
        return [tuple(v if rng.random() < 0.5 else -v for v in pick) for pick in picks]
    free = shape.blocks[-1][1]
    expanded = [v for _, vs in shape.blocks[:-1] for v in vs]
    repeat = shape.clause_count // (2 * len(expanded))
    picks = [[lit, *rng.sample(free, 2)] for v in expanded for lit in (v, -v) for _ in range(repeat)]
    rng.shuffle(picks)
    return [(p[0], *(v if rng.random() < 0.5 else -v for v in p[1:])) for p in picks]


def render(shape: Shape, clauses: list[tuple[int, ...]]) -> str:
    lines = list(shape.annotations)
    lines.append(f"p cnf {shape.variable_count} {len(clauses)}")
    lines.extend(f"{kind} {' '.join(map(str, vs))} 0" for kind, vs in shape.blocks)
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


def draw(shape: Shape, rng: random.Random) -> str:
    """One candidate instance text; no correctness gate."""
    return render(shape, _clauses(rng, shape))


@dataclass(frozen=True)
class Instance:
    workload: str
    seed: int
    shape: Shape
    text: str
    draws: int  # candidates drawn until the gate held
    truth: bool  # `evaluate` of the unsplit formula
    subproblems: int  # count_subproblems of the plan
    plain_depth: int  # depth of the plain split for the same request


def generate(workload: str, seed: int, small: bool = False, first_draw: int = 1) -> Instance:
    """A seeded instance whose split preserves the truth value.

    Each draw has its own random stream, so ``first_draw=instance.draws``
    re-makes an instance with one draw and one gate.  Imports the library
    lazily so that set-up timing covers the import.
    """
    from intsplits import Formula, check_correctness, count_subproblems, evaluate, parse, plan

    shape = (SMALL_SHAPES if small else SHAPES)[workload]
    for draws in range(first_draw, _MAX_DRAWS + 1):
        text = draw(shape, random.Random(f"{workload}:{seed}:{draws}"))
        formula = parse(text)
        split_plan = plan(formula, shape.depth)
        selected = set(split_plan.quantifiers)
        subset = Formula(
            formula.matrix,
            formula.prefix,
            tuple(aq for aq in formula.annotations if aq in selected),
        )
        if check_correctness(subset).correct:
            return Instance(
                workload,
                seed,
                shape,
                text,
                draws,
                evaluate(formula),
                count_subproblems(split_plan),
                split_plan.plain_depth,
            )
    raise RuntimeError(f"{workload} seed {seed}: no sound instance in {_MAX_DRAWS} draws")
