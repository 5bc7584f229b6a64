"""Plan selection, accounted enumeration and sub-problem emission."""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import os
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    A,
    E,
    correct_pipeline_case,
    matrix_of,
    random_annotated_formula,
    random_constraint,
    reference_accounted,
    reference_subproblem_files,
)
from intsplits import (
    AnnotatedQuantifier,
    EmptyPlanError,
    Formula,
    InSet,
    IntsplitsError,
    MergeError,
    QuantifierBlock,
    SplitMode,
    count_subproblems,
    count_without_intsplits,
    enumerate_accounted,
    evaluate,
    parse,
    parse_file,
    plan,
    read_manifest,
    sorted_annotations,
    split_formula,
    subproblem_name,
    verify_manifest,
    write,
    write_manifest,
)
from intsplits import cli, evaluator, qdimacs, splitter
from intsplits.splitter import emit_subproblem, expanded_copy

TRIPLE_19 = parse(
    "cs int <19\ncs int <19\ncs int <19\n"
    "p cnf 15 1\ne 1 2 3 4 5 0\na 6 7 8 9 10 0\ne 11 12 13 14 15 0\n1 -6 11 0\n"
)

FIG1 = parse(
    "cs int [1 2] <3\ncs int [3 4] <3\n"
    "p cnf 4 4\na 1 2 0\ne 3 4 0\n-1 3 0\n1 -3 0\n-2 4 0\n2 -4 0\n"
)


def _variables(chosen) -> tuple[int, ...]:
    """The variables a plan expands, in plan order."""
    return tuple(v for aq in chosen.quantifiers for v in aq.bitvector.variables)


def test_plan_covers_whole_bitvectors_within_depth():
    full = plan(TRIPLE_19, 15)
    assert full.effective_depth == 15
    assert len(full.quantifiers) == 3
    partial = plan(TRIPLE_19, 10)
    assert partial.effective_depth == 10
    assert len(partial.quantifiers) == 2
    assert count_subproblems(partial) == 361
    barely = plan(TRIPLE_19, 14)  # the third vector no longer fits
    assert barely.effective_depth == 10


def test_subproblem_counts_match_example():
    full = plan(TRIPLE_19, 15)
    assert count_subproblems(full) == 6859
    assert count_without_intsplits(full) == 32768
    ratio = Fraction(count_subproblems(full), count_without_intsplits(full))
    assert Fraction(209, 1000) < ratio < Fraction(210, 1000)


def test_plain_mode_expands_single_variables():
    plain = plan(TRIPLE_19, 15, SplitMode.PLAIN)
    assert count_subproblems(plain) == 32768
    assert [aq.kind for aq in plain.quantifiers[:6]] == [E] * 5 + [A]
    short = plan(FIG1, 9, SplitMode.PLAIN)  # prefix has only 4 variables
    assert short.effective_depth == 4
    assert count_subproblems(short) == 16


def test_empty_plan_is_an_error_in_intsplit_mode():
    with pytest.raises(EmptyPlanError):
        plan(TRIPLE_19, 4)
    with pytest.raises(EmptyPlanError):
        plan(Formula(matrix_of([(1,)], 1), (QuantifierBlock(E, (1,)),)), 1)


def test_eta_sorting_within_same_kind_runs():
    formula = parse(
        "cs int [1 2] <4\ncs int [3 4] <3\ncs int [5 6] <3\ncs int [7 8] <2\n"
        "p cnf 8 1\ne 1 2 3 4 0\na 5 6 7 8 0\n1 0\n"
    )
    ordered = sorted_annotations(formula)
    # existential run: eta 1/3 before eta 0; universal run sorted separately
    assert [aq.bitvector.variables for aq in ordered] == [
        (3, 4),
        (1, 2),
        (7, 8),
        (5, 6),
    ]
    # stability: equal efficiency keeps file order
    tie = parse(
        "cs int [1 2] <3\ncs int [3 4] <3\np cnf 4 1\ne 1 2 3 4 0\n1 0\n"
    )
    assert [aq.bitvector.variables for aq in sorted_annotations(tie)] == [(1, 2), (3, 4)]


def test_sorting_changes_which_quantifiers_fit():
    # at depth 2 the efficient (3,4) vector is chosen, not the file-first one
    formula = parse(
        "cs int [1 2] <4\ncs int [3 4] <3\np cnf 4 1\ne 1 2 3 4 0\n1 0\n"
    )
    chosen = plan(formula, 2)
    assert [aq.bitvector.variables for aq in chosen.quantifiers] == [(3, 4)]
    assert count_subproblems(chosen) == 3


def test_enumeration_matches_reference_filter():
    rng = random.Random(20240820)
    for _ in range(20):
        formula = random_annotated_formula(rng, max_vars=10, require_correct=False)
        depth = rng.randint(1, 10)
        try:
            chosen = plan(formula, depth)
        except EmptyPlanError:
            continue
        emitted = list(enumerate_accounted(chosen))
        variables = _variables(chosen)
        # reference: filter the full expansion over the selected variables
        expected = []
        for bits in itertools.product((0, 1), repeat=len(variables)):
            assignment = dict(zip(variables, bits))
            keep = True
            for aq in chosen.quantifiers:
                vec = tuple(assignment[v] for v in aq.bitvector.variables)
                if not reference_accounted(aq.constraints, vec):
                    keep = False
                    break
            if keep:
                expected.append(tuple(assignment[v] for v in variables))
        got = [tuple(int(lit > 0) for lit in literals) for literals in emitted]
        assert all(tuple(map(abs, literals)) == variables for literals in emitted)
        assert got == expected  # same set and same lexicographic order
        assert len(emitted) == count_subproblems(chosen)


def test_pruning_bound():
    rng = random.Random(77)
    for _ in range(15):
        formula = random_annotated_formula(rng, max_vars=10, require_correct=False)
        chosen = plan(formula, 10)
        bound = 1 << chosen.effective_depth
        assert count_subproblems(chosen) <= bound
        all_top = all(aq.s == (1 << aq.width) for aq in chosen.quantifiers)
        assert (count_subproblems(chosen) == bound) == all_top


def test_subproblem_name_padding():
    assert subproblem_name(3, 9, "f.qdimacs") == "0003-f.qdimacs"
    assert subproblem_name(3, 32768, "f.qdimacs") == "00003-f.qdimacs"
    names = [subproblem_name(i, 32768, "f") for i in range(32768)]
    assert names == sorted(names)


def test_subproblem_paths_count_one_split_and_skip_side_files(tmp_path):
    names = [subproblem_name(index, 3, "f-1.qdimacs") for index in range(3)]
    for name in names:
        (tmp_path / name).write_text("")
        (tmp_path / f"{name}.drat").write_text("")
    (tmp_path / "00001-f-1.qdimacs").write_text("")  # padded for another count
    (tmp_path / "0003-f-1.qdimacs.log").mkdir()
    (tmp_path / "plan.csv").write_text("")
    assert splitter._subproblem_paths(tmp_path, 3) == {i: str(tmp_path / name) for i, name in enumerate(names)}
    (tmp_path / "0002-g-1.qdimacs").write_text("")
    with pytest.raises(MergeError, match="of 'f-1.qdimacs' and of 'g-1.qdimacs'; keep one split"):
        splitter._subproblem_paths(tmp_path, 3)


def test_subproblem_paths_are_the_strings_path_joins(monkeypatch, tmp_path):
    # The `{file}` a solver receives: `0000-f` for `.`, no `./0000-f`.
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "0000-f").write_text("")
    monkeypatch.chdir(tmp_path / "d")
    for directory in [".", "./", "..//d", "../d/", tmp_path / "d", f"{tmp_path}//d/."]:
        assert splitter._subproblem_paths(directory, 1) == {0: str(Path(directory) / "0000-f")}, directory


def test_subproblem_paths_keep_the_name_rule(tmp_path):
    """_subproblem_paths counts the files the reference counts, in the same
    order, and refuses the same second splits: side files, other paddings,
    indices beyond the count, non-ASCII digits and directories among them."""
    rng = random.Random(20261021)
    seen = {"files": 0, "skipped": 0, "second split": 0}
    for case in range(80):
        count = rng.choice([1, 3, 10_000, 10_001, 123_457])
        directory = tmp_path / f"case{case}"
        directory.mkdir()
        for _ in range(rng.randint(1, 10)):
            index = rng.choice([0, 7, count - 1, count, 12_345, 1_234_567])
            digits = [f"{index:0{pad}d}" for pad in (1, 4, 5, 6, 7)] + ["", "\u0660\u0660\u0660\u0667", "7a"]
            name = rng.choice(digits) + rng.choice("--_") + rng.choice(["f", "f.drat", "f-1", "g", "", "\u00e9"])
            path = directory / name
            if not path.exists():
                path.mkdir() if rng.random() < 0.2 else path.write_bytes(b"")
        expected = reference_subproblem_files(directory, count)
        if isinstance(expected, tuple):
            with pytest.raises(MergeError, match=re.escape(f"of {expected[0]!r} and of {expected[1]!r};")):
                splitter._subproblem_paths(directory, count)
            seen["second split"] += 1
        else:
            found = splitter._subproblem_paths(directory, count)
            assert list(found.items()) == [(index, str(path)) for index, path in expected.items()]
            seen["files"] += bool(found)
            seen["skipped"] += len(found) < len(os.listdir(directory))
    assert all(seen.values()), seen


def test_emit_fig1_subproblems(tmp_path):
    chosen = plan(FIG1, 4)
    paths = split_formula(FIG1, chosen, tmp_path, "fig1.qdimacs")
    assert len(paths) == 9
    assert count_subproblems(chosen) == 9
    assert paths[3].name == "0003-fig1.qdimacs"
    # every copy: header grew by 4 unit clauses, assigned universals are
    # existential, annotations gone (everything was expanded)
    sub = parse_file(paths[3])
    assert len(sub.matrix.clauses) == 8
    assert sub.annotations == ()
    assert all(block.kind is E for block in sub.prefix)
    literals = list(enumerate_accounted(chosen))[3]
    units = list(sub.matrix.clauses[4:])
    assert units == [(lit,) for lit in literals]


def test_emit_partial_plan_keeps_remaining_annotations(tmp_path):
    chosen = plan(FIG1, 2)
    paths = split_formula(FIG1, chosen, tmp_path, "fig1.qdimacs")
    assert len(paths) == 3
    sub = parse_file(paths[0])
    assert len(sub.annotations) == 1
    assert sub.annotations[0].bitvector.variables == (3, 4)
    # assigned universal variables moved behind the surviving existentials
    # (the two written e-lines merge into one block on re-parse)
    assert sub.prefix == (QuantifierBlock(E, (3, 4, 1, 2)),)
    # the copy can be split again
    nested = plan(sub, 2)
    assert count_subproblems(nested) == 3


def test_emit_empty_assignment_is_identity_copy(tmp_path):
    path = emit_subproblem(FIG1, 0, (), tmp_path, "fig1.qdimacs", 1)
    assert path.read_text() == write(FIG1)


def test_emit_refuses_overwrite_unless_forced(tmp_path):
    chosen = plan(FIG1, 4)
    literals = next(iter(enumerate_accounted(chosen)))
    path = tmp_path / subproblem_name(0, 9, "f.qdimacs")
    path.write_bytes(b"earlier\n")
    with pytest.raises(FileExistsError) as refused:
        emit_subproblem(FIG1, 0, literals, tmp_path, "f.qdimacs", 9)
    assert str(refused.value) == f"{path} already exists (use force to overwrite)"
    assert path.read_bytes() == b"earlier\n"
    assert emit_subproblem(FIG1, 0, literals, tmp_path, "f.qdimacs", 9, force=True) == path
    assert path.read_text() == write(expanded_copy(FIG1, literals))


def test_forced_split_rewrites_old_files_in_place(tmp_path):
    """A forced split over longer, shorter and cut files of the same names
    leaves each the text of its sub-problem, with the permissions that
    `open(..., "wb")` gives a new file under the same umask; an unforced
    split refuses and changes nothing."""
    umask = os.umask(0o002)
    try:
        with open(tmp_path / "by-open", "wb"):
            pass
        mode = (tmp_path / "by-open").stat().st_mode & 0o777
        growth = set()  # new minus old length of files 3 to 18: both splits write them, uncut
        for earlier, depth in [(10, 5), (5, 10)]:
            out = tmp_path / f"from-{earlier}-to-{depth}"
            old = split_formula(TRIPLE_19, plan(TRIPLE_19, earlier), out, "t.qdimacs")
            old[1].write_bytes(b"")
            old[2].write_bytes(old[2].read_bytes()[:40])
            before = {path.name: path.read_bytes() for path in out.iterdir()}
            chosen = plan(TRIPLE_19, depth)
            with pytest.raises(FileExistsError, match="0000-t.qdimacs already exists"):
                split_formula(TRIPLE_19, chosen, out, "t.qdimacs")
            assert {path.name: path.read_bytes() for path in out.iterdir()} == before
            paths = split_formula(TRIPLE_19, chosen, out, "t.qdimacs", force=True)
            expansions = list(enumerate_accounted(chosen))
            assert len(paths) == len(expansions) == (19 if depth == 5 else 361)
            for path, expansion in zip(paths, expansions):
                assert path.read_bytes() == write(expanded_copy(TRIPLE_19, expansion)).encode()
                assert path.stat().st_mode & 0o777 == mode
            growth.update(len(path.read_bytes()) - len(before[path.name]) for path in paths[3:19])
        assert min(growth) < 0 < max(growth)
    finally:
        os.umask(umask)


def test_a_forced_split_opens_no_file_with_o_trunc(monkeypatch, tmp_path):
    """Opening an existing file with O_TRUNC made a forced re-split several
    times slower on ext4: each file is written over in place instead."""
    chosen = plan(TRIPLE_19, 10)
    split_formula(TRIPLE_19, chosen, tmp_path, "t.qdimacs")
    flags = []
    real_open = os.open

    def recorded(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(splitter.os, "open", recorded)
    split_formula(TRIPLE_19, chosen, tmp_path, "t.qdimacs", force=True)
    monkeypatch.undo()
    assert len(flags) == 361
    assert not any(flag & os.O_TRUNC for flag in flags)


def test_plain_mode_cut_through_bitvector_drops_annotations(tmp_path):
    chosen = plan(FIG1, 1, SplitMode.PLAIN)
    paths = split_formula(FIG1, chosen, tmp_path, "fig1.qdimacs")
    assert len(paths) == 2
    sub = parse_file(paths[0])
    # the cut runs through (1,2); its annotation and everything after it go
    assert sub.annotations == ()
    assert sub.prefix[0] == QuantifierBlock(A, (2,))


def test_dimacs_mode_split(tmp_path):
    formula = parse("cs int [1 2] <3\np cnf 3 2\n1 -3 0\n2 3 0\n")
    chosen = plan(formula, 2)
    paths = split_formula(formula, chosen, tmp_path, "sat.cnf")
    assert len(paths) == 3
    sub = parse_file(paths[0])
    assert sub.prefix == ()  # DIMACS stays DIMACS
    assert len(sub.matrix.clauses) == 4


def _render_case(rng: random.Random) -> Formula:
    """A random formula with one or two random constraints per annotation;
    one in four is prefix-free DIMACS, whose annotations are existential."""
    formula = random_annotated_formula(rng, max_vars=8, require_correct=False)
    dimacs = rng.random() < 0.25
    annotations = tuple(
        AnnotatedQuantifier(
            E if dimacs else aq.kind,
            aq.bitvector,
            tuple(random_constraint(rng, aq.width) for _ in range(rng.randint(1, 2))),
        )
        for aq in formula.annotations
    )
    return Formula(formula.matrix, () if dimacs else formula.prefix, annotations)


def test_split_files_are_the_rendering_of_their_expanded_copy(tmp_path):
    """Each file split_formula writes from its shared head equals
    write(expanded_copy(...)), and its plan.csv equals write_manifest's."""
    rng = random.Random(20261019)
    cases = [(parse("p cnf 0 0\n"), 1, SplitMode.PLAIN)]
    for _ in range(300):
        formula = _render_case(rng)
        mode = rng.choice(list(SplitMode))
        cases.append((formula, rng.randint(1, 6), mode))
    (tmp_path / "manifest").mkdir()
    seen = {"plain": 0, "cut": 0, "dimacs": 0, "intervals": 0, "in-set": 0, "no-units": 0}
    for at, (formula, depth, mode) in enumerate(cases):
        try:
            chosen = plan(formula, depth, mode)
        except EmptyPlanError:
            continue
        out = tmp_path / f"case{at}"
        paths = split_formula(formula, chosen, out, "f.cnf", force=at % 2 == 0)
        expansions = list(enumerate_accounted(chosen))
        names = [subproblem_name(index, len(expansions), "f.cnf") for index in range(len(expansions))]
        assert [p.name for p in paths] == names
        assert sorted(p.name for p in out.iterdir()) == sorted([*names, "plan.csv"])
        for path, expansion in zip(paths, expansions):
            assert path.read_bytes() == write(expanded_copy(formula, expansion)).encode()
        manifest = write_manifest(chosen, tmp_path / "manifest")
        assert (out / "plan.csv").read_bytes() == manifest.read_bytes()
        seen["plain"] += mode is SplitMode.PLAIN
        seen["cut"] += any(
            0 < len(set(_variables(chosen)) & set(aq.bitvector.variables)) < aq.width
            for aq in formula.annotations
        )
        seen["dimacs"] += not formula.prefix
        seen["intervals"] += any(len(aq.intervals) > 1 for aq in chosen.quantifiers)
        seen["in-set"] += any(
            isinstance(c, InSet) for aq in formula.annotations for c in aq.constraints
        )
        seen["no-units"] += not expansions[0]
    assert all(seen.values()), seen


def test_one_row_table_renders_files_and_plan_csv_in_both_modes(tmp_path):
    """In either mode, each file split_formula writes equals
    write(expanded_copy(...)), and its plan.csv, like write_manifest's, is
    enumerate_accounted's rows rendered as `var=bit` items, line by line."""
    rng = random.Random(20261020)
    (tmp_path / "manifest").mkdir()
    for at in range(300):
        formula, depth = _render_case(rng), rng.randint(1, 6)
        for mode in SplitMode:
            try:
                chosen = plan(formula, depth, mode)
            except EmptyPlanError:
                continue
            out = tmp_path / f"case{at}-{mode.value}"
            paths = split_formula(formula, chosen, out, "f.cnf")
            expansions = list(enumerate_accounted(chosen))
            assert len(paths) == len(expansions)
            for path, expansion in zip(paths, expansions):
                assert path.read_bytes() == write(expanded_copy(formula, expansion)).encode()
            rows = "".join(
                f"{index},{';'.join(f'{abs(lit)}={int(lit > 0)}' for lit in literals)}\r\n"
                for index, literals in enumerate(expansions)
            )
            expected = f"# mode={mode.value} depth={depth}\r\nindex,assignment\r\n{rows}".encode()
            assert (out / "plan.csv").read_bytes() == expected
            assert write_manifest(chosen, tmp_path / "manifest").read_bytes() == expected


def test_split_renders_the_formula_once(monkeypatch, tmp_path):
    calls = {"expanded_copy": 0, "write": 0, "_row_table": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(splitter, "expanded_copy")
    counted(qdimacs, "write")
    counted(splitter, "_row_table")
    paths = split_formula(TRIPLE_19, plan(TRIPLE_19, 10), tmp_path, "t.qdimacs")
    assert len(paths) == 361
    assert calls == {"expanded_copy": 1, "write": 1, "_row_table": 1}


def _outcome(read):
    """What a read gives: the truth value, or the class of the error it raises."""
    try:
        return read()
    except IntsplitsError as exc:
        return type(exc)


def _unit_lines(literals) -> bytes:
    return "".join(f"{lit} 0\n" for lit in literals).encode()


def _mutants(rng: random.Random, text: bytes, literals: tuple[int, ...], formula: Formula):
    """(kind, bytes, plan literals) for edits of sub-problem file `text`, the
    shared head plus the unit lines of `literals`, of parsed `formula`."""
    units = _unit_lines(literals)
    head = text[: len(text) - len(units)]
    at = rng.randrange(len(head))
    byte = rng.choice([b for b in b"0123456789 -acep\n" if b != head[at]])
    yield "head byte", head[:at] + bytes([byte]) + head[at + 1 :], literals
    yield "extra line", text + rng.choice([b"c note\n", b"1 0\n", b"\n"]), literals
    yield "no final newline", text[:-1], literals
    if not literals:
        return
    swapped = list(literals)
    swapped[rng.randrange(len(literals))] *= -1
    yield "other literal", head + _unit_lines(swapped), literals
    yield "crlf units", head + units.replace(b"\n", b"\r\n"), literals
    yield "fewer units", head + _unit_lines(literals[1:]), literals[1:]
    beyond = (*literals[:-1], formula.matrix.variable_count + 1)
    yield "beyond count", head + _unit_lines(beyond), beyond
    quantified = {v for block in formula.prefix for v in block.variables}
    free = set(range(1, formula.matrix.variable_count + 1)) - quantified
    if formula.prefix and free:
        unquantified = (*literals[:-1], min(free))
        yield "unquantified", head + _unit_lines(unquantified), unquantified
    if len(literals) > 1:
        complementary = (*literals[:-1], -literals[0])
        yield "complementary units", head + _unit_lines(complementary), complementary
        repeated = (*literals[:-1], literals[0])
        yield "repeated unit", head + _unit_lines(repeated), repeated
    universal = [v for block in formula.prefix if block.kind is A for v in block.variables]
    if universal:
        forall = (*literals[:-1], rng.choice(universal) * rng.choice([1, -1]))
        yield "universal unit", head + _unit_lines(forall), forall
    if literals[0] > 0:
        # `-` + `5 0` reads as the clause (-5,): the head must end at a line break.
        yield "glued", head + b"-" + units, literals


def _value(path):
    """What `run` needs of a sub-problem file: `evaluate` of what `parse_file` reads."""
    return evaluate(parse_file(path))


def test_shared_head_reader_gives_what_parse_file_gives(tmp_path):
    """The reader built from one file of a split gives `evaluate` of
    `parse_file`'s formula, or its error class, for every file of that split
    and for edits of them, whichever file it takes its head from."""
    rng = random.Random(20261020)
    cases = [
        (parse("cs int [1 2] <3\np cnf 5 2\na 1 2 0\ne 3 4 0\n1 3 0\n-2 4 0\n"), 2, SplitMode.INTSPLIT),
        (parse("p cnf 0 0\n"), 1, SplitMode.PLAIN),
    ]
    for _ in range(150):
        cases.append((_render_case(rng), rng.randint(1, 6), rng.choice(list(SplitMode))))
    seen = dict.fromkeys(["plain", "cut", "dimacs", "intervals", "in-set", "resumed"], 0)
    kinds: dict[str, int] = {}
    for at, (formula, depth, mode) in enumerate(cases):
        try:
            chosen = plan(formula, depth, mode)
        except EmptyPlanError:
            continue
        out = tmp_path / f"case{at}"
        paths = split_formula(formula, chosen, out, "f.cnf")
        entries = read_manifest(out / "plan.csv").entries
        first = rng.randrange(len(paths)) if at % 2 else 0
        # The head comes from files `first` and `first + 1`, or from `first` alone if it is the last.
        read = splitter._subproblem_reader(list(zip(paths, entries))[first:])
        for path, literals in zip(paths, entries):
            assert read(path, literals, None) == _value(path)

        sub = parse_file(paths[first])
        seen["plain"] += mode is SplitMode.PLAIN
        seen["cut"] += any(
            0 < len(set(_variables(chosen)) & set(aq.bitvector.variables)) < aq.width
            for aq in formula.annotations
        )
        seen["dimacs"] += not formula.prefix
        seen["intervals"] += any(len(aq.intervals) > 1 for aq in sub.annotations)
        seen["in-set"] += any(isinstance(c, InSet) for aq in sub.annotations for c in aq.constraints)
        seen["resumed"] += first != 0

        other = out / "other.cnf"
        for target in dict.fromkeys([first, rng.randrange(len(paths))]):
            text, literals = paths[target].read_bytes(), entries[target]
            for kind, mutant, plan_literals in _mutants(rng, text, literals, parse_file(paths[target])):
                kinds[kind] = kinds.get(kind, 0) + 1
                other.write_bytes(mutant)
                expected = _outcome(lambda: _value(other))
                assert _outcome(lambda: read(other, plan_literals, None)) == expected, kind
                # The same edit in the file the head is taken from; without a
                # prefix, its search may not branch on every variable of `target`.
                reread = splitter._subproblem_reader([(other, plan_literals)])
                assert _outcome(lambda: reread(other, plan_literals, None)) == expected, kind
                assert reread(paths[target], literals, None) == _value(paths[target]), kind
    assert all(seen.values()), seen
    assert len(kinds) == 12, kinds


def test_short_writes_and_short_reads_lose_no_byte(monkeypatch, tmp_path):
    """A split whose `os.write` takes at most 5 bytes a call writes what a
    split with whole writes does, and a reader whose `os.read` gives at
    most 7 bytes a call gives each TRIPLE_19 file its value."""
    chosen = plan(TRIPLE_19, 10)
    paths = split_formula(TRIPLE_19, chosen, tmp_path / "whole", "t.qdimacs")
    whole = {path.name: path.read_bytes() for path in (tmp_path / "whole").iterdir()}
    entries = list(enumerate_accounted(chosen))
    values = [_value(path) for path in paths]
    write_some, read_some = os.write, os.read
    with monkeypatch.context() as patch:
        patch.setattr(splitter.os, "write", lambda fd, data: write_some(fd, data[:5]))
        split_formula(TRIPLE_19, chosen, tmp_path / "short", "t.qdimacs")
    assert {path.name: path.read_bytes() for path in (tmp_path / "short").iterdir()} == whole
    with monkeypatch.context() as patch:
        patch.setattr(splitter.os, "read", lambda fd, size: read_some(fd, min(size, 7)))
        read = splitter._subproblem_reader(list(zip(paths, entries)))
        assert [read(path, literals, None) for path, literals in zip(paths, entries)] == values
    big = tmp_path / "big"
    big.write_bytes(bytes(range(256)) * 1000)  # several read chunks
    assert splitter._read_file(big) == bytes(range(256)) * 1000


def _served(monkeypatch, out):
    """Serve every task of the split in `out` through one reader; returns
    the calls to `qdimacs.parse` and to the search preparation it made, and
    each file's value by index."""
    entries = read_manifest(out / "plan.csv").entries
    paths = splitter._subproblem_paths(out, len(entries))
    calls = {"parse": 0, "prepare": 0}

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(qdimacs, "parse", "parse")
    counted(evaluator, "_prepared", "prepare")
    read = splitter._subproblem_reader([(paths[index], literals) for index, literals in enumerate(entries)])
    values = {index: read(paths[index], literals, None) for index, literals in enumerate(entries)}
    monkeypatch.undo()
    assert values == {index: _value(path) for index, path in paths.items()}
    return calls, values


def _recorded_searches(monkeypatch) -> list[tuple[tuple[int, ...], ...]]:
    """The clauses that every prepared search is given from here on, in call order."""
    received = []
    prepare = evaluator._prepared

    def recording(*args):
        kinds, search = prepare(*args)

        def recorded(clauses, deadline):
            received.append(clauses)
            return search(clauses, deadline)

        return kinds, recorded

    monkeypatch.setattr(evaluator, "_prepared", recording)
    return received


def test_a_matching_task_is_searched_without_unit_clauses(monkeypatch, tmp_path):
    """Each of TRIPLE_19's 361 depth-10 files reaches the prepared search as
    the head's clauses simplified by its plan literals, with no unit clause
    of them; a file whose plan literals and unit lines were edited to
    complementary, universal or repeated literals is parsed once, in full."""
    chosen = plan(TRIPLE_19, 10)
    paths = split_formula(TRIPLE_19, chosen, tmp_path / "ten", "t.qdimacs")
    entries = list(enumerate_accounted(chosen))
    received = _recorded_searches(monkeypatch)
    read = splitter._subproblem_reader([(str(path), literals) for path, literals in zip(paths, entries)])
    values = [read(str(path), literals, None) for path, literals in zip(paths, entries)]
    assert len(received) == 361
    for clauses, literals in zip(received, entries):
        assert not {(lit,) for lit in literals}.intersection(clauses), literals
    monkeypatch.undo()
    assert values == [_value(path) for path in paths]

    # At depth 5 the sub-problems keep TRIPLE_19's universal block.
    chosen = plan(TRIPLE_19, 5)
    paths = split_formula(TRIPLE_19, chosen, tmp_path / "five", "t.qdimacs")
    entries = list(enumerate_accounted(chosen))
    read = splitter._subproblem_reader([(str(path), literals) for path, literals in zip(paths, entries)])
    parses, parse_text = [], qdimacs.parse
    monkeypatch.setattr(qdimacs, "parse", lambda *args: parses.append(args) or parse_text(*args))
    other = tmp_path / "other.qdimacs"
    rng = random.Random(20261022)
    reached = dict.fromkeys(["complementary units", "universal unit", "repeated unit"], 0)
    for path, entry in zip(paths, entries):
        for kind, mutant, literals in _mutants(rng, path.read_bytes(), entry, parse_file(path)):
            if kind in reached:
                other.write_bytes(mutant)
                del parses[:]
                value = read(str(other), literals, None)
                assert len(parses) == 1, kind  # with a search of its own
                assert value == _value(other), kind
                reached[kind] += 1
    assert all(reached.values()), reached


def _codes(out) -> dict[int, str]:
    rows = (out / "results.csv").read_text().splitlines()[1:]
    return {int(row.split(",")[0]): row.split(",")[1] for row in rows}


def test_run_parses_the_shared_head_once(monkeypatch, tmp_path):
    """TRIPLE_19's 361 files go through the reader with one `qdimacs.parse`
    and one prepared search, and `run` gives each index the code of
    `parse_file` and `evaluate`."""
    formula = tmp_path / "t.qdimacs"
    formula.write_text(write(TRIPLE_19))
    out = tmp_path / "out"
    assert cli.main(["split", str(formula), "--depth", "10", "--out", str(out)]) == 0
    calls, values = _served(monkeypatch, out)
    assert len(values) == 361
    assert calls == {"parse": 1, "prepare": 1}

    assert cli.main(["run", str(out), "--jobs", "2"]) == 0
    assert _codes(out) == {index: "TRUE" if value else "FALSE" for index, value in values.items()}


def test_an_edited_first_file_keeps_the_shared_head(monkeypatch, tmp_path):
    """With file 0000 edited, the head comes from files 0001 and 0002: one
    parse and one prepared search for it and one of each for the edited
    file, and `run` gives each index the code of `parse_file` and `evaluate`."""
    formula = tmp_path / "t.qdimacs"
    formula.write_text(write(TRIPLE_19))
    out = tmp_path / "out"
    assert cli.main(["split", str(formula), "--depth", "10", "--out", str(out)]) == 0
    first = Path(splitter._subproblem_paths(out, 361)[0])
    first.write_bytes(b"c edited\n" + first.read_bytes())
    calls, values = _served(monkeypatch, out)
    assert calls == {"parse": 2, "prepare": 2}

    assert cli.main(["run", str(out), "--jobs", "2"]) == 0
    assert _codes(out) == {index: "TRUE" if value else "FALSE" for index, value in values.items()}


def test_run_searches_split_variables_that_only_unit_lines_name(monkeypatch, tmp_path):
    """Without a prefix, a split's variables may occur in its unit lines
    only: the head of `cs int [1 2] <3 / p cnf 3 1 / 3 0` at depth 2 is
    `p cnf 3 3 / 3 0`, and its search must still branch on 1 and 2."""
    formula = tmp_path / "f.cnf"
    formula.write_text("cs int [1 2] <3\np cnf 3 1\n3 0\n")
    out = tmp_path / "out"
    assert cli.main(["split", str(formula), "--depth", "2", "--out", str(out)]) == 0
    assert Path(splitter._subproblem_paths(out, 3)[0]).read_text() == "p cnf 3 3\n3 0\n-1 0\n-2 0\n"
    _, values = _served(monkeypatch, out)
    assert cli.main(["run", str(out)]) == 0
    assert _codes(out) == {index: "TRUE" if value else "FALSE" for index, value in values.items()}
    assert set(_codes(out).values()) == {"TRUE"}


def test_manifest_roundtrip_and_verification(tmp_path):
    chosen = plan(FIG1, 4)
    split_formula(FIG1, chosen, tmp_path, "fig1.qdimacs")
    manifest = read_manifest(tmp_path / "plan.csv")
    assert (manifest.mode, manifest.depth) == (SplitMode.INTSPLIT, 4)
    assert manifest.entries == tuple(enumerate_accounted(chosen))
    verify_manifest(chosen, manifest)
    from intsplits import MergeError

    other = plan(FIG1, 4, SplitMode.PLAIN)
    with pytest.raises(MergeError):
        verify_manifest(other, manifest)


def _bench_text(workload: str) -> str:
    """The text of the benchmark's seed-1 instance of `workload`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "instances.py"
    spec = importlib.util.spec_from_file_location("bench_instances", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        return module.generate(workload, 1).text
    finally:
        del sys.modules[spec.name]


# sha256 over the name and bytes of each file `split_formula` writes, in
# name order: the split directories as they were when an assignment still
# had a type of its own, which the plain literal tuples must not change.
SPLIT_DIGESTS = {
    ("fig1", 2, "intsplit"): "f0944cdec5d747b7d582b42e3a728c2a6c123f4064b06e3fe263adaa1375e982",
    ("fig1", 2, "plain"): "a15f65341811b2032d6eb9ac39ee66d5ed034d2fb0c2509535e260ed952584b0",
    ("fig1", 4, "intsplit"): "1da8dccfe91edd3f727b6052329ca99c33eb9e8c66c00ff05bc56b730019bedd",
    ("fig1", 4, "plain"): "226482fa8388c59fbfc75568abc9635e1bb82a862f72966e6d435ae04e2332b1",
    ("triple", 6, "intsplit"): "d2c106535d8810d4f8290f8fa2e7b65097015cb60d449e45afada953110b4854",
    ("triple", 6, "plain"): "f2ee53fc2177dbdca36674087206e4955a67d308a0a8bb9c60c21fbd0a0642e7",
    ("triple", 10, "intsplit"): "fc292ae87ebc982509ec65a60879f241411669cab15bb8cb233ee5b498e6c639",
    ("triple", 10, "plain"): "981f618febfbbeef0aede7f49093993a9b52e76c91df5ca34c8f822829f3cf50",
    ("pf1", 2, "intsplit"): "7214ede5bc334a36ca45ccfe5ad9992bba987bceb49562f7abebe8e47a4729d1",
    ("pf1", 2, "plain"): "0196d386b0011a029af58d2d8d989dc93e16dcf52c4bc68be377c7dd73bc22a4",
    ("pf2", 5, "intsplit"): "3c563375ae09f24cf965546240f4ad59897d9e113edd3e22856a0a0b20270431",
    ("pf2", 5, "plain"): "45705c87b58b8e7b539e2fc25fe3302aaa2786c85c230941b7e0e0f80d5d4a74",
    ("deep", 8, "intsplit"): "e933dec5ecc37e054f859d3584c1db2e46a55f3a809fea5a8a8882b16cb2c8c6",
    ("deep", 8, "plain"): "5ea7dacde05d23566d44754bff6d48d49b5d2b8ed28256c50b753b3a5e700e04",
    # The plain split of fanout is 32,768 files (132 MB), too many for a unit test.
    ("fanout", 15, "intsplit"): "afa7301a7ca927e473eba3c98bdcc9f09ca3f1ced5b1e68b1c41cdb9c66e9a3f",
}


@pytest.mark.parametrize("name, depth, mode", list(SPLIT_DIGESTS))
def test_split_directories_keep_their_pinned_bytes(name, depth, mode, tmp_path):
    formula = {
        "fig1": lambda: FIG1,
        "triple": lambda: TRIPLE_19,
        "pf1": lambda: parse("cs int [1 2] <3\np cnf 3 1\n3 0\n"),
        "pf2": lambda: parse("cs int [1 2] <3\ncs int [3 4 5] >2\np cnf 6 3\n1 3 6 0\n-2 4 0\n5 -6 0\n"),
        "deep": lambda: parse(_bench_text("deep")),
        "fanout": lambda: parse(_bench_text("fanout")),
    }[name]()
    split_formula(formula, plan(formula, depth, SplitMode(mode)), tmp_path, f"{name}.qdimacs")
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert digest.hexdigest() == SPLIT_DIGESTS[name, depth, mode]


def test_verify_manifest_names_the_first_entry_that_differs(tmp_path):
    chosen = plan(FIG1, 4)
    path = write_manifest(chosen, tmp_path)
    path.write_bytes(path.read_bytes().replace(b"5,1=0;2=1;3=1;4=0", b"5,1=0;2=1;3=0;4=0"))
    with pytest.raises(MergeError) as refused:
        verify_manifest(chosen, read_manifest(path))
    assert str(refused.value) == (
        "manifest entry 5 does not match the plan (expected (-1, 2, 3, -4), found (-1, 2, -3, -4)); "
        "was the directory produced with different split settings?"
    )


def test_split_then_solve_matches_direct_evaluation(tmp_path):
    rng = random.Random(20240821)
    for at in range(6):
        formula, chosen = correct_pipeline_case(rng, max_vars=10)
        directory = tmp_path / f"case{at}"
        paths = split_formula(formula, chosen, directory, "case.qdimacs")
        assert len(paths) == count_subproblems(chosen)
        # conjunction/disjunction of the sub-problems per the plan structure
        values = [evaluate(parse_file(p)) for p in paths]
        for aq in reversed(chosen.quantifiers):
            size = aq.s
            grouped = [
                values[i : i + size] for i in range(0, len(values), size)
            ]
            if aq.kind is E:
                values = [any(group) for group in grouped]
            else:
                values = [all(group) for group in grouped]
        assert len(values) == 1
        assert values[0] == evaluate(formula)


FIG1_PLAN_CSV = {
    SplitMode.INTSPLIT: (
        "# mode=intsplit depth=4\r\nindex,assignment\r\n"
        "0,1=0;2=0;3=0;4=0\r\n1,1=0;2=0;3=0;4=1\r\n2,1=0;2=0;3=1;4=0\r\n"
        "3,1=0;2=1;3=0;4=0\r\n4,1=0;2=1;3=0;4=1\r\n5,1=0;2=1;3=1;4=0\r\n"
        "6,1=1;2=0;3=0;4=0\r\n7,1=1;2=0;3=0;4=1\r\n8,1=1;2=0;3=1;4=0\r\n"
    ),
    SplitMode.PLAIN: "# mode=plain depth=4\r\nindex,assignment\r\n"
    + "".join(
        f"{i},1={i >> 3 & 1};2={i >> 2 & 1};3={i >> 1 & 1};4={i & 1}\r\n" for i in range(16)
    ),
}


@pytest.mark.parametrize("mode", list(SplitMode), ids=lambda mode: mode.value)
def test_fig1_plan_csv_bytes(mode, tmp_path):
    path = write_manifest(plan(FIG1, 4, mode), tmp_path)
    assert path.read_bytes() == FIG1_PLAN_CSV[mode].encode()


@pytest.mark.parametrize(
    "mode, count, rows",
    [
        (
            SplitMode.INTSPLIT,
            361,
            {
                0: "0,1=0;2=0;3=0;4=0;5=0;6=0;7=0;8=0;9=0;10=0",
                1: "1,1=0;2=0;3=0;4=0;5=0;6=0;7=0;8=0;9=0;10=1",
                18: "18,1=0;2=0;3=0;4=0;5=0;6=1;7=0;8=0;9=1;10=0",
                19: "19,1=0;2=0;3=0;4=0;5=1;6=0;7=0;8=0;9=0;10=0",
                360: "360,1=1;2=0;3=0;4=1;5=0;6=1;7=0;8=0;9=1;10=0",
            },
        ),
        (
            SplitMode.PLAIN,
            1024,
            {
                0: "0,1=0;2=0;3=0;4=0;5=0;6=0;7=0;8=0;9=0;10=0",
                19: "19,1=0;2=0;3=0;4=0;5=0;6=1;7=0;8=0;9=1;10=1",
                32: "32,1=0;2=0;3=0;4=0;5=1;6=0;7=0;8=0;9=0;10=0",
                1023: "1023,1=1;2=1;3=1;4=1;5=1;6=1;7=1;8=1;9=1;10=1",
            },
        ),
    ],
    ids=["intsplit", "plain"],
)
def test_triple_19_plan_csv_rows(mode, count, rows, tmp_path):
    lines = write_manifest(plan(TRIPLE_19, 10, mode), tmp_path).read_bytes().split(b"\r\n")
    assert lines[0] == f"# mode={mode.value} depth=10".encode()
    assert lines[1] == b"index,assignment"
    assert lines[-1] == b""
    assert len(lines) == count + 3
    for index, row in rows.items():
        assert lines[index + 2] == row.encode()


@pytest.mark.parametrize(
    "row",
    ["0,1=7;2=0;-3=0;0=0", "0,1=2;2=0;3=0;4=0", "0,1=0;2=0;-3=0;4=0", "0,0=0;2=0;3=0;4=0"],
)
def test_read_manifest_rejects_invalid_entries(row, tmp_path):
    path = write_manifest(plan(FIG1, 4), tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], row, *lines[2:]]) + "\n")
    with pytest.raises(MergeError, match="row 2 is not a valid plan entry"):
        read_manifest(path)


@pytest.mark.parametrize(
    "order, row, found, expected",
    [("repeated", 12, 3, 9), ("skipped", 7, 5, 4), ("reordered", 3, 1, 0)],
    ids=["repeated", "skipped", "reordered"],
)
def test_read_manifest_requires_each_index_at_its_position(order, row, found, expected, tmp_path):
    path = write_manifest(plan(FIG1, 4), tmp_path)
    lines = path.read_text().splitlines()
    entries = lines[2:]
    edited = {
        "repeated": [*entries, entries[3]],
        "skipped": [*entries[:4], *entries[5:]],
        "reordered": [entries[1], entries[0], *entries[2:]],
    }[order]
    path.write_text("\n".join([*lines[:2], *edited]) + "\n")
    with pytest.raises(MergeError, match=f"row {row} has index {found}, expected {expected}$"):
        read_manifest(path)


@pytest.mark.parametrize(
    "settings",
    [[], [""], ["# mode=intsplit"], ["# mode=binary depth=4"], ["# mode=plain depth=0"]],
    ids=["missing", "blank", "no-depth", "unknown-mode", "depth-0"],
)
def test_read_manifest_requires_the_split_settings(settings, tmp_path):
    path = write_manifest(plan(FIG1, 4), tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*settings, *lines[1:]]) + "\n")
    with pytest.raises(MergeError, match="line 1 is not the split's settings .* split again"):
        read_manifest(path)
