"""Seeded split -> run -> merge benchmark for intsplits.

Drives the real pipeline in-process through ``intsplits.cli.main``: ``split``,
then ``run --jobs <nproc>``, then ``merge``, one instance at a time (a closed
loop with one client).  Inputs come from the seed; every repetition's
outputs are checked.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

Run from the repository root:

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 55 --trace 0

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` the run alternates untraced and traced pipelines (the
library's public functions wrapped in spans), then makes one single-threaded
pass that calls each layer directly; it reports the per-layer metrics and
writes every span to spans-<workload>.json in the work directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import signal
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import instances
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())  # names, units, directions
GLOSSARY = json.loads((HERE / "metrics.json").read_text())["metrics"]  # layers, definitions
SETUPS = (5, 21)  # timed set-ups per run: at least 5, and up to 21 ...
SETUP_SECONDS = 3.0  # ... while they take less than this in total
_INDEXED = re.compile(r"^\d+-")


def _usage() -> str:
    lines = ["metrics (name, unit, direction, layer, definition):", "", "end-to-end, --trace 0:"]
    for kind, title in (("end_to_end", None), ("per_layer", "per-layer, --trace 1:")):
        if title:
            lines += ["", title]
        for m in SPEC[kind]:
            about = GLOSSARY[m["name"]]
            moves = f" Moves {', '.join(about['moves'])} on {about['workload']}." if about.get("moves") else ""
            lines.append(
                f"  {m['name']} [{m['unit']}, {m['better']}, {about['layer']}]: {about['definition']}{moves}"
            )
    lines += ["", "workloads:"]
    for name in instances.WORKLOADS:
        shape = instances.SHAPES[name]
        lines.append(
            f"  {name}: {shape.variable_count} variables, {shape.clause_count} "
            f"{shape.style} clauses, depth {shape.depth}"
        )
    return "\n".join(lines)


def _arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog=_usage(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=instances.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="instance seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--work-dir",
        type=Path,
        default=ROOT / ".perfbench-work",
        help="where runs write their instance and split directory, deleted when the run "
        "ends, and spans-<workload>.json (default: .perfbench-work in the repository "
        "root); point it at tmpfs to keep the disk out of the numbers",
    )
    parser.add_argument(
        "--small", action="store_true", help="scaled-down instances, for smoke tests"
    )
    return parser.parse_args(argv)


def _library() -> tuple:
    """Fresh import of the library under test, from ./src only."""
    if not (SOURCE / "intsplits" / "__init__.py").is_file():
        raise SystemExit(f"error: no intsplits sources under {SOURCE}")
    for name in [n for n in sys.modules if n == "intsplits" or n.startswith("intsplits.")]:
        del sys.modules[name]
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    cli = importlib.import_module("intsplits.cli")
    library = importlib.import_module("intsplits")
    if not Path(library.__file__).resolve().is_relative_to(SOURCE):
        raise SystemExit(f"error: imported intsplits from {library.__file__}, not {SOURCE}")
    return library, cli


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding path, from the mount table."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1]
                if str(path).startswith(point) and len(point) > len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def digest(directory: Path) -> str:
    """sha256 over the sub-problem files and plan.csv, names included."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if _INDEXED.match(path.name) or path.name == "plan.csv":
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _report(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().splitlines() if "=" in line)


@dataclass
class Pipeline:
    split_s: float
    run_s: float
    merge_s: float
    tasks: int
    total_cpu_time_s: float

    @property
    def pipeline_s(self) -> float:
        return self.split_s + self.run_s + self.merge_s


class Bench:
    """One workload instance and the checks every repetition must pass."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.jobs = len(os.sched_getaffinity(0))
        self.dir = args.work_dir.resolve() / f"{args.workload}-s{args.seed}-p{os.getpid()}"
        self.split_dir = self.dir / "split"  # made by warm_up, re-split by every repetition
        self.marker = self.dir / "repetition-started"  # its mtime: start of the repetition
        self.repetitions = 0  # timed pipelines, or traced/untraced pairs
        self.reference: str | None = None  # split digest of the first repetition
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.instance: instances.Instance | None = None

    def setup(self) -> float:
        """Import, generate, verify and write; returns its wall time.

        The first call searches for the seed's first sound draw.  Later
        calls re-make that draw directly, so that each does the same work on
        every seed: one draw, its soundness gate and the ground-truth
        evaluate, whatever the number of rejected draws before it.
        """
        started = perf_counter()
        self.library, self.cli = _library()
        first = self.instance.draws if self.instance else 1
        self.instance = instances.generate(
            self.args.workload, self.args.seed, self.args.small, first_draw=first
        )
        self.formula_path = self.dir / self.instance.shape.name
        self.formula_path.write_text(self.instance.text)
        return perf_counter() - started

    def _stage(self, argv: list[str], tracer: spans.Tracer | None) -> tuple[int, float]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            started = perf_counter()
            if tracer is None:
                code = self.cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = self.cli.main(argv)
            elapsed = perf_counter() - started
        if code != 0:
            print(sink.getvalue(), file=sys.stderr)
        return code, elapsed

    def warm_up(self) -> None:
        """One untimed split that creates the split directory, checked.

        Every repetition then re-splits into it with ``--force``, which
        writes each sub-problem file again.  On ext4, creating thousands of
        files costs 0.1-2.5 s of kernel time that depends on the files
        deleted before (fanout: 6859 files), so a fresh directory per
        repetition would time the filesystem, not the program.
        """
        self.marker.touch()
        since = self._start_repetition()
        shape = self.instance.shape
        argv = ["split", str(self.formula_path), "--depth", str(shape.depth), "--out", str(self.split_dir)]
        code, _ = self._stage(argv, None)
        problems = [f"warm-up split exited {code}"] if code else self._check_split(since)
        self.problems += problems

    def _start_repetition(self) -> int:
        """Clear the last repetition's outputs; returns the filesystem's
        time stamp of the start, for the rewrite check.

        The split's files are emptied, not deleted: the timed split then
        writes into empty files, as into a fresh directory, without
        waiting for the old contents to be freed (0.3-1 s on fanout).
        """
        for name in ("results.csv", "merge_report.txt", "certificate.txt"):
            (self.split_dir / name).unlink(missing_ok=True)
        if self.split_dir.exists():
            for path in self.split_dir.iterdir():
                if _INDEXED.match(path.name) or path.name == "plan.csv":
                    path.open("w").close()
        os.utime(self.marker)
        return self.marker.stat().st_mtime_ns

    def pipeline(self, tracer: spans.Tracer | None = None) -> Pipeline:
        """split -> run -> merge into the split directory, then check it."""
        out = self.split_dir
        since = self._start_repetition()
        shape = self.instance.shape
        formula = str(self.formula_path)
        stages = (
            ["split", formula, "--depth", str(shape.depth), "--out", str(out), "--force"],
            ["run", str(out), "--jobs", str(self.jobs)],
            ["merge", formula, str(out)],
        )
        times, codes = [], []
        for argv in stages:
            code, elapsed = self._stage(argv, tracer)
            codes.append(code)
            times.append(elapsed)
        return self._check(out, codes, times, since)

    def _check(self, out: Path, codes: list[int], times: list[float], since: int) -> Pipeline:
        expected = self.instance.subproblems
        self.attempted += expected
        if any(codes):
            self.failed += sum(1 for c in codes if c)
            self.problems += [f"command {i} exited {c}" for i, c in enumerate(codes) if c]
            return Pipeline(*times, 0, 0.0)
        problems = self._check_split(since)
        with (out / "results.csv").open() as handle:
            rows = list(csv.reader(handle))[1:]
        unknown = sum(1 for row in rows if row[1] == "UNKNOWN")
        if unknown:
            problems.append(f"{unknown} UNKNOWN rows")
        report = _report(out / "merge_report.txt")
        problems += self._check_report(report)
        self.failed += unknown
        self.problems += problems
        return Pipeline(*times, len(rows), float(report["total_cpu_time_s"]))

    def _check_report(self, report: dict[str, str]) -> list[str]:
        problems = []
        truth = "TRUE" if self.instance.truth else "FALSE"
        if report.get("final_result") != truth:
            problems.append(f"final_result {report.get('final_result')}, ground truth {truth}")
        if int(report.get("subproblems_with", -1)) != self.instance.subproblems:
            problems.append(f"subproblems_with {report.get('subproblems_with')}")
        if int(report.get("subproblems_without", -1)) != 1 << self.instance.plain_depth:
            problems.append(
                f"subproblems_without {report.get('subproblems_without')}, "
                f"expected 2^{self.instance.plain_depth}"
            )
        return problems

    def _check_split(self, since: int) -> list[str]:
        """File count, every file written since `since`, same digest as the first split."""
        problems = []
        written = [p for p in self.split_dir.iterdir() if _INDEXED.match(p.name) or p.name == "plan.csv"]
        files = sum(1 for p in written if p.name != "plan.csv")
        if files != self.instance.subproblems:
            problems.append(f"{files} sub-problem files, plan yields {self.instance.subproblems}")
        stale = sum(1 for p in written if p.stat().st_mtime_ns < since)
        if stale:
            problems.append(f"{stale} files of the split directory not rewritten by this split")
        split_digest = digest(self.split_dir)
        if self.reference is None:
            self.reference = split_digest
        elif split_digest != self.reference:
            problems.append(f"split digest {split_digest} differs from {self.reference}")
        return problems

    def layers(self, tracer: spans.Tracer) -> dict[str, float]:
        """One single-threaded pass calling each layer's public functions."""
        lib = self.library
        shape = self.instance.shape
        split_dir = self.split_dir
        since = self._start_repetition()
        text = self.formula_path.read_text()
        tracer.run = "layers"
        span = tracer.span

        with span("qdimacs.scan"):
            lib.qdimacs.scan(text)
        with span("qdimacs.parse"):
            formula = lib.parse_file(self.formula_path)
        with span("formula.count"):
            for aq in formula.annotations:
                lib.AnnotatedQuantifier(aq.kind, aq.bitvector, aq.constraints)
        with span("formula.accounted_values"):
            for aq in formula.annotations:
                len(lib.accounted_values(aq))
        with span("splitter.plan"):
            split_plan = lib.plan(formula, shape.depth)
        with span("splitter.enumerate"):
            for _ in lib.enumerate_accounted(split_plan):
                pass
        with span("splitter.manifest"):
            lib.write_manifest(split_plan, split_dir)
        with span("splitter.split_formula"):
            paths = lib.split_formula(formula, split_plan, split_dir, shape.name, force=True)
        problems = self._check_split(since)

        rows, task_times = [], []
        for path in paths:
            with span("qdimacs.subproblem_parse"):
                sub = lib.parse_file(path)
            with span("evaluator.task"):
                value = lib.evaluate(sub)
            task_times.append(tracer.spans[-1].duration)
            index = int(path.name.split("-", 1)[0])
            rows.append((index, "TRUE" if value else "FALSE", task_times[-1]))
        results = split_dir / "results.csv"
        with results.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "result", "time_seconds"])
            writer.writerows((i, code, f"{t:.6f}") for i, code, t in rows)
        sequential = []
        for _ in range(5):  # a single solve is too short to time once
            with span("evaluator.sequential"):
                lib.evaluate(formula)
            sequential.append(tracer.spans[-1].duration)
        sequential_s = statistics.median(sequential)

        with span("merger.read_manifest"):
            entries = lib.read_manifest(split_dir / "plan.csv")
        with span("merger.verify_manifest"):
            lib.verify_manifest(split_plan, entries)
        with span("merger.ingest"):
            table = lib.ingest(results, split_plan)
        with span("merger.merge"):
            _, merge_report = lib.merge(table)
        with span("merger.report"):
            summary = lib.speedup_report(table, sequential_s)
        with span("merger.certificate"):
            lib.render_certificate(merge_report)
        problems += self._check_report({k: str(v) for k, v in summary.items()})
        self.attempted += len(paths)
        self.problems += problems

        t: dict[str, float] = defaultdict(float)
        for s in tracer.spans:
            if s.run == "layers":
                t[s.name] += s.duration
        files_bytes = sum(p.stat().st_size for p in paths)
        emit_s = t["splitter.split_formula"] - t["splitter.manifest"]
        task_s = t["qdimacs.subproblem_parse"] + t["evaluator.task"]
        return {
            "qdimacs.bytes": len(text.encode()),
            "qdimacs.scan_s": t["qdimacs.scan"],
            "qdimacs.parse_s": t["qdimacs.parse"],
            "qdimacs.mb_per_s": len(text.encode()) / t["qdimacs.parse"] / 1e6,
            "qdimacs.subproblem_parse_s": t["qdimacs.subproblem_parse"],
            "formula.annotations": len(formula.annotations),
            "formula.count_s": t["formula.count"],
            "formula.accounted_values_s": t["formula.accounted_values"],
            "splitter.plan_s": t["splitter.plan"],
            "splitter.enumerate_s": t["splitter.enumerate"],
            "splitter.manifest_s": t["splitter.manifest"],
            "splitter.emit_s": emit_s,
            "splitter.files": len(paths),
            "splitter.bytes": files_bytes,
            "splitter.files_per_s": len(paths) / emit_s,
            "splitter.mb_per_s": files_bytes / emit_s / 1e6,
            "splitter.subproblems_with": summary["subproblems_with"],
            "splitter.subproblems_without": summary["subproblems_without"],
            "splitter.ratio": summary["ratio"],
            "evaluator.tasks": len(task_times),
            "evaluator.busy_s": t["evaluator.task"],
            "evaluator.task_p50_s": statistics.median(task_times),
            "evaluator.task_p99_s": _percentile(task_times, 0.99),
            "evaluator.sequential_s": sequential_s,
            "cli.task_time_s": task_s,
            "merger.read_manifest_s": t["merger.read_manifest"],
            "merger.verify_manifest_s": t["merger.verify_manifest"],
            "merger.ingest_s": t["merger.ingest"],
            "merger.merge_s": t["merger.merge"],
            "merger.report_s": t["merger.report"],
            "merger.certificate_s": t["merger.certificate"],
            "merger.rows": len(rows),
            "merger.rows_per_s": len(rows) / t["merger.ingest"],
            "merger.parallel_time_s": summary["parallel_time_s"],
            "merger.speedup": summary["speedup"],
        }


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _repeat(seconds: float, step) -> list:
    """Call step() until the next call would end after `seconds`; at least once."""
    started = perf_counter()
    results, durations = [], []
    while not results or (
        perf_counter() - started + statistics.median(durations) <= seconds
    ):
        begun = perf_counter()
        results.append(step(len(results)))
        durations.append(perf_counter() - begun)
    return results


def end_to_end(bench: Bench) -> dict[str, float]:
    reps = _repeat(bench.args.seconds, lambda i: bench.pipeline())
    med = lambda f: statistics.median(f(r) for r in reps)  # noqa: E731
    bench.repetitions = len(reps)
    return {
        "pipeline_s": med(lambda r: r.pipeline_s),
        "run_s": med(lambda r: r.run_s),
        "tasks_per_s": med(lambda r: r.tasks / r.run_s),
        "total_cpu_time_s": med(lambda r: r.total_cpu_time_s),
    }


def per_layer(bench: Bench, tracer: spans.Tracer) -> dict[str, float]:
    def pair(i: int) -> tuple[Pipeline, Pipeline, int]:
        plain = bench.pipeline()
        tracer.run = f"pipeline-{i}"
        before = len(tracer.spans)
        with tracer.patched(), tracer.span("pipeline"):
            traced = bench.pipeline(tracer)
        return plain, traced, len(tracer.spans) - before

    pairs = _repeat(bench.args.seconds, pair)
    bench.repetitions = len(pairs)
    plain = statistics.median(p.pipeline_s for p, _, _ in pairs)
    traced = statistics.median(t.pipeline_s for _, t, _ in pairs)
    metrics = bench.layers(tracer)
    run_s = statistics.median(p.run_s for p, _, _ in pairs)
    cpu_s = statistics.median(p.total_cpu_time_s for p, _, _ in pairs)
    metrics.update(
        {
            "cli.jobs": bench.jobs,
            "cli.split_s": statistics.median(p.split_s for p, _, _ in pairs),
            "cli.run_s": run_s,
            "cli.merge_s": statistics.median(p.merge_s for p, _, _ in pairs),
            "cli.total_cpu_time_s": cpu_s,
            "cli.parallel_efficiency": metrics["cli.task_time_s"] / (run_s * bench.jobs),
            "cli.time_inflation": cpu_s / metrics["cli.task_time_s"],
            "trace.pipelines": len(pairs),
            "trace.spans": statistics.median(n for _, _, n in pairs),
            "trace.untraced_pipeline_s": plain,
            "trace.traced_pipeline_s": traced,
            "trace.overhead_s": traced - plain,
        }
    )
    traced_spans = [s for s in tracer.spans if s.run.startswith("pipeline-")]
    by_name = spans.self_time_by_name(traced_spans)
    for m in SPEC["per_layer"]:
        if m["name"].startswith("self."):
            total, _ = by_name.get(m["name"][len("self.") : -len("_s")], (0.0, 0))
            metrics[m["name"]] = total / len(pairs)
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = _arguments(argv)
    # On SIGTERM, exit through the finally below, which deletes the run's directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bench = Bench(args)
    bench.dir.mkdir(parents=True)
    try:
        return _measure(bench)
    finally:
        shutil.rmtree(bench.dir)


def _measure(bench: Bench) -> int:
    args = bench.args
    bench.setup()  # finds the sound draw; not counted
    setups: list[float] = []
    while len(setups) < SETUPS[0] or (len(setups) < SETUPS[1] and sum(setups) < SETUP_SECONDS):
        setups.append(bench.setup())
    setup_s = statistics.median(setups)
    bench.warm_up()
    if args.trace:
        tracer = spans.Tracer()
        metrics = per_layer(bench, tracer)
        metrics["cli.failed_share"] = bench.failed / bench.attempted
        span_file = args.work_dir.resolve() / f"spans-{args.workload}.json"
        tracer.write(span_file)
    else:
        metrics = end_to_end(bench)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    fs = _filesystem(args.work_dir.resolve())
    print(
        f"# workload={args.workload} seed={args.seed} small={args.small} "
        f"repetitions={bench.repetitions} jobs={bench.jobs} draws={bench.instance.draws} "
        f"truth={bench.instance.truth} fs={fs} python={sys.version.split()[0]}"
    )
    print(f"# split digest sha256={bench.reference}")
    if args.trace:
        print(f"# spans written to {span_file}")
    for problem in bench.problems:
        print(f"# CHECK FAILED: {problem}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    correct = not bench.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
