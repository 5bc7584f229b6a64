"""Tests of the benchmark itself: scaled-down runs, generator, spans.

Benchmark runs go through a subprocess: the benchmark re-imports the
library from ./src on every set-up, which must not swap the modules under
the rest of the pytest run.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import instances
import run
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_scaled_down_run_passes_every_check(tmp_path, workload, trace):
    done = _bench(
        "--workload", workload, "--seed", "11", "--seconds", "0.2",
        "--trace", trace, "--small", "--work-dir", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in run.SPEC[kind]]
    for name, metric in result["metrics"].items():
        assert f"{name} = " in done.stdout
        assert metric["unit"] and isinstance(metric["value"], (int, float))
    left = [p.name for p in tmp_path.iterdir()]
    if trace == "1":
        assert left == [f"spans-{workload}.json"]
        written = json.loads((tmp_path / left[0]).read_text())
        assert written and all(s["self"] >= -1e-9 for s in written)
        assert result["metrics"]["cli.failed_share"]["value"] == 0
    else:
        assert left == []
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    for workload in instances.WORKLOADS:
        first = instances.generate(workload, 5, small=True)
        assert first == instances.generate(workload, 5, small=True)
        assert first == instances.generate(workload, 5, small=True, first_draw=first.draws)
        assert first.text != instances.generate(workload, 6, small=True).text
    full = instances.generate("fanout", 5)
    assert full.subproblems == 19**3 and full.plain_depth == 15


def test_balanced_clauses_use_each_expanded_literal_equally():
    shape = instances.SHAPES["deep"]
    text = instances.draw(shape, random.Random(1))
    clauses = [line.split()[:-1] for line in text.splitlines()[6:]]
    assert len(clauses) == shape.clause_count
    heads = sorted(int(c[0]) for c in clauses)
    expanded = [v for _, vs in shape.blocks[:-1] for v in vs]
    repeat = shape.clause_count // (2 * len(expanded))
    assert heads == sorted(v * s for v in expanded for s in (1, -1) for _ in range(repeat))
    free = shape.blocks[-1][1]
    assert all(abs(int(lit)) in free for c in clauses for lit in c[1:])


def test_self_times_subtract_the_union_of_children():
    def span(i, start, end, parent=None):
        return spans.Span(i, f"s{i}", start, end, parent, "r")

    # Two overlapping children on different threads, one nested grandchild.
    tree = [span(1, 0.0, 10.0), span(2, 1.0, 5.0, 1), span(3, 4.0, 7.0, 1), span(4, 2.0, 3.0, 2)]
    assert spans.self_times(tree) == {1: 4.0, 2: 3.0, 3: 3.0, 4: 1.0}


def test_tracer_nests_spans_and_restores_patched_functions():
    from intsplits import cli, evaluator, parse

    original = evaluator.evaluate
    tracer = spans.Tracer()
    formula = parse("p cnf 1 1\ne 1 0\n1 0\n")
    with tracer.patched(), tracer.span("outer"):
        assert cli.evaluate is not original
        cli.evaluate(formula)
    assert evaluator.evaluate is original and cli.evaluate is original
    outer, inner = sorted(tracer.spans, key=lambda s: s.start)
    assert (outer.name, inner.name, inner.parent) == ("outer", "evaluator.evaluate", outer.id)
    assert all(t >= 0 for t in spans.self_times(tracer.spans).values())


def test_failed_checks_are_reported():
    bench = run.Bench(Namespace(workload="fanout", seed=1, work_dir=HERE, small=True))
    bench.instance = instances.generate("fanout", 1, small=True)
    good = {
        "final_result": "TRUE" if bench.instance.truth else "FALSE",
        "subproblems_with": str(bench.instance.subproblems),
        "subproblems_without": str(1 << bench.instance.plain_depth),
    }
    assert bench._check_report(good) == []
    wrong = dict(good, final_result="UNKNOWN", subproblems_without="1")
    assert len(bench._check_report(wrong)) == 2


def test_split_files_not_rewritten_by_a_repetition_are_reported(tmp_path):
    bench = run.Bench(Namespace(workload="fanout", seed=1, work_dir=tmp_path, small=True))
    bench.instance = instances.generate("fanout", 1, small=True)
    bench.split_dir.mkdir(parents=True)
    bench.marker.touch()
    files = [bench.split_dir / f"{i}-fanout.qdimacs" for i in range(bench.instance.subproblems)]
    files.append(bench.split_dir / "plan.csv")
    since = bench._start_repetition()
    for path in files:
        path.write_text(path.name)
    assert bench._check_split(since) == []
    since = bench._start_repetition()
    for path in files[1:]:
        path.write_text(path.name)
    os.utime(files[0], ns=(0, 0))  # left over from an earlier repetition
    stale, changed = bench._check_split(since)
    assert stale == "1 files of the split directory not rewritten by this split"
    assert changed.startswith("split digest")  # emptied, not rewritten
    files[-2].unlink()
    assert bench._check_split(since)[0].startswith(f"{bench.instance.subproblems - 1} sub-problem files")


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "deep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_help_lists_every_metric_with_its_layer():
    done = _bench("--help")
    assert done.returncode == 0
    for kind in ("end_to_end", "per_layer"):
        for m in run.SPEC[kind]:
            assert f"  {m['name']} [{m['unit']}, {m['better']}, {run.GLOSSARY[m['name']]['layer']}]" in done.stdout
    assert [w["name"] for w in run.SPEC["workloads"]] == list(instances.WORKLOADS)
