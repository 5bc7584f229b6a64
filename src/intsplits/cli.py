"""Command-line front end: split, run, merge, stats, eval, check.

Diagnostics go to stderr; machine-readable output goes to stdout or to
files inside the working directory.  Exit status 0 means the requested
artifact was produced; budget overruns exit with 2 to stay distinguishable
from parse and validation failures (exit 1).

`run` solves each sub-problem, named by a path string built without a
`Path` per task, in a worker process forked from it.  With the built-in
oracle it parses the split's shared head and prepares its search once,
before the fork; a worker still reads every file, and one that is that
head plus the unit lines of its plan.csv literals costs one `simplify` and
one run of that search (see `splitter._subproblem_reader`).
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import os
import shlex
import signal
import subprocess
import sys
import time
from contextlib import closing, contextmanager, suppress
from itertools import islice
from multiprocessing.connection import Connection, wait
from pathlib import Path
from subprocess import DEVNULL
from typing import Callable, Iterator, Sequence

from . import qdimacs
from .errors import BudgetExceededError, IntsplitsError
from .evaluator import check_correctness, evaluate, evaluate_with_intsplits
from .formula import Formula
from .merger import (
    ResultCode,
    TIME_MODELS,
    ResultTuple,
    format_flat_report,
    format_indices,
    ingest,
    merge,
    render_certificate,
    _by_index,
    _count_text,
    _results_text,
    _row_lines,
    _rows_from_csv,
    _summary,
)
from .splitter import (
    MANIFEST_NAME,
    Manifest,
    SplitMode,
    SplitPlan,
    count_subproblems,
    count_without_intsplits,
    plan,
    read_manifest,
    split_formula,
    verify_manifest,
    _listed_plan,
    _replace_file,
    _subproblem_paths,
    _subproblem_reader,
)

RESULTS_NAME = "results.csv"
_EXIT_CODES = {10: ResultCode.TRUE, 20: ResultCode.FALSE}


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _load(args: argparse.Namespace) -> Formula:
    return qdimacs.parse_file(args.formula, strict=args.strict)


def _mode(args: argparse.Namespace) -> SplitMode:
    return SplitMode.PLAIN if args.no_intsplits else SplitMode.INTSPLIT


def _annotation_table(formula: Formula) -> str:
    if not formula.annotations:
        return "(no annotations)"
    header = ("#", "kind", "width", "s", "u", "eta", "variables")
    rows = [
        (
            str(at),
            aq.kind.value,
            str(aq.width),
            str(aq.s),
            str(aq.u),
            str(aq.eta),
            "[" + " ".join(str(v) for v in aq.bitvector.variables) + "]",
        )
        for at, aq in enumerate(formula.annotations, start=1)
    ]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    lines = [header] + rows
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in lines
    )


def _plan_summary(split_plan: SplitPlan) -> str:
    with_count = count_subproblems(split_plan)
    without_count = count_without_intsplits(split_plan)
    return (
        f"mode={split_plan.mode.value} requested_depth={split_plan.requested_depth} "
        f"effective_depth={split_plan.effective_depth}\n"
        f"subproblems: with={_count_text(with_count)} without={_count_text(without_count)} "
        f"ratio={with_count / without_count:.4f}"
    )


def cmd_split(args: argparse.Namespace) -> int:
    formula = _load(args)
    split_plan = plan(formula, args.depth, _mode(args))
    out_dir = Path(args.out)
    results = out_dir / RESULTS_NAME
    if results.exists() and not args.force:
        raise FileExistsError(f"{results} holds the results of an earlier split (use --force to delete it)")
    results.unlink(missing_ok=True)
    paths = split_formula(formula, split_plan, out_dir, Path(args.formula).name, args.force)
    _say(_annotation_table(formula))
    _say(_plan_summary(split_plan))
    if split_plan.effective_depth < split_plan.requested_depth:
        _say(
            f"note: effective depth {split_plan.effective_depth} is below the "
            f"requested {split_plan.requested_depth}"
        )
    _say(f"wrote {len(paths)} sub-problems and {MANIFEST_NAME} to {out_dir}")
    return 0


_STOP_SIGNALS = (signal.SIGTERM, signal.SIGHUP)
_solver_pid = 0  # the solver a worker waits on, for its stop handler; a worker has one thread


@contextmanager
def _stop_signals_held() -> Iterator[None]:
    """SIGTERM and SIGHUP wait until the block ends; a process forked in it starts with both blocked."""
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _kill_group(pid: int) -> None:
    with suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def _end_worker(signum: int, frame: object) -> None:
    """A worker's SIGTERM and SIGHUP handler: end its solver's group, then the worker."""
    if _solver_pid:
        _kill_group(_solver_pid)
    os._exit(128 + signum)


def _solver_signals() -> None:
    """Runs in a solver's process before exec: an ignored signal and a blocked
    mask survive exec, and the worker's Ctrl-C and stop signals are not the solver's."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)


def _exit_code(template: list[str], path: str, timeout: float) -> int:
    """The exit code of solver command `template` with `path` put for `{file}`.
    The solver starts in its own session, so a timeout kills its whole process
    group, a wrapper's children too, and raises subprocess.TimeoutExpired."""
    global _solver_pid
    command = [token.replace("{file}", path) for token in template]
    with _stop_signals_held():  # no stop between the start and the record
        process = subprocess.Popen(
            command, stdout=DEVNULL, stderr=DEVNULL, start_new_session=True, preexec_fn=_solver_signals
        )
        _solver_pid = process.pid
    try:
        return process.wait(timeout)
    finally:
        if process.returncode is None:
            _kill_group(process.pid)
        _solver_pid = 0
        process.wait()


def _solve(
    path: str,
    literals: tuple[int, ...],
    read: Callable[[str, Sequence[int], float], bool] | None,
    solver: list[str] | None,
    timeout: float,
) -> ResultTuple:
    """Solve one sub-problem with the built-in oracle (`solver` None): the
    value that `read` gives for its file and plan literals, whose only limit
    is `timeout`; or with an external solver command that exits 10 for true
    and 20 for false.  Anything else is UNKNOWN, timed min(elapsed, timeout)."""
    started = time.monotonic()
    code = ResultCode.UNKNOWN
    try:
        if solver is None:
            code = ResultCode.TRUE if read(path, literals, started + timeout) else ResultCode.FALSE
        else:
            code = _EXIT_CODES.get(_exit_code(solver, path, timeout), ResultCode.UNKNOWN)
    except (IntsplitsError, OSError, subprocess.TimeoutExpired):
        pass
    elapsed = time.monotonic() - started
    return ResultTuple(code, min(elapsed, timeout) if code is ResultCode.UNKNOWN else elapsed)


_Batch = list[tuple[int, ResultTuple]]  # results that reach `run` together


def _worker(
    connection: Connection, inherited: list[Connection], parent: int, solve: Callable[[int], ResultTuple]
) -> None:
    """Worker process: solve each chunk of task indices the parent sends and
    send back their results, until it sends None or has ended."""
    # Linux stops a worker whose `run` dies, unless it died before this call.
    if sys.platform == "linux":
        import ctypes  # here, so that `run` itself does not load it
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGTERM)  # 1 is PR_SET_PDEATHSIG
    if os.getppid() != parent:
        return
    # Ctrl-C reaches the terminal's whole process group; the parent alone
    # acts on it.  SIGTERM and SIGHUP, blocked since the fork, end a worker
    # and its solver at once, whatever Python handler it inherited.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for signum in _STOP_SIGNALS:
        signal.signal(signum, _end_worker)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
    # The parent's ends of the pipes, copied by the fork: while a worker
    # holds one, the parent's death is no end of file for that pipe.
    for end in inherited:
        end.close()
    try:
        while (chunk := connection.recv()) is not None:
            connection.send([(index, solve(index)) for index in chunk])
    except (EOFError, BrokenPipeError):
        pass  # `run` was killed; the results have nowhere to go


def _results(
    tasks: list[int], solve: Callable[[int], ResultTuple], one_by_one: bool, jobs: int
) -> Iterator[_Batch]:
    """Solve the tasks of indices `tasks` with `solve` in up to `jobs`
    forked worker processes, which inherit it; yields each chunk's results
    as they arrive.

    With `one_by_one`, as for an external solver, a worker takes one task at
    a time, so each row is written when its solver ends.  Otherwise it takes
    ceil(tasks / (8 * jobs)) consecutive tasks: one message per task costs
    more than a small task, and eight chunks per worker balance uneven ones.
    Every worker has ended when the generator returns or is closed: a worker
    with no chunk left exits on None; on an error or a stop, the workers
    still running are terminated with their solvers, and the results they
    had not reported are lost.
    """
    size = 1 if one_by_one else -(-len(tasks) // (8 * jobs)) or 1
    chunks = iter([tasks[at : at + size] for at in range(0, len(tasks), size)])
    context = multiprocessing.get_context("fork")
    workers: dict[Connection, multiprocessing.process.BaseProcess] = {}
    try:
        for chunk in islice(chunks, jobs):
            ours, theirs = context.Pipe()
            worker = context.Process(
                target=_worker, args=(theirs, [ours, *workers], os.getpid(), solve)
            )
            with _stop_signals_held():  # until the worker has set its own handlers
                worker.start()
                workers[ours] = worker  # a stop held until here ends it too
            theirs.close()
            ours.send(chunk)
        while workers:
            for connection in wait(list(workers)):
                try:
                    results = connection.recv()
                except EOFError:
                    worker = workers[connection]
                    worker.join()
                    raise IntsplitsError(
                        f"worker {worker.pid} ended with exit code "
                        f"{worker.exitcode} before it reported its tasks"
                    ) from None
                chunk = next(chunks, None)
                connection.send(chunk)
                if chunk is None:
                    workers.pop(connection).join()
                    connection.close()
                yield results
    finally:
        for connection, worker in workers.items():
            worker.terminate()
            connection.close()
        for worker in workers.values():
            worker.join()


class _Stopped(KeyboardInterrupt):
    """SIGTERM or SIGHUP, raised in the main thread as Ctrl-C raises
    KeyboardInterrupt, so that all three stop `run` the same way."""

    def __init__(self, signum: int):
        super().__init__(signum)
        self.signum = signum


@contextmanager
def _stop_signals() -> Iterator[None]:
    """SIGTERM and SIGHUP raise _Stopped inside the block.  A signal that is
    ignored, or that the calling program handles, is left as it is."""

    def stop(signum: int, frame: object) -> None:
        raise _Stopped(signum)

    replaced = {
        signum: signal.signal(signum, stop)
        for signum in _STOP_SIGNALS
        if signal.getsignal(signum) is signal.SIG_DFL
    }
    try:
        yield
    finally:
        for signum, handler in replaced.items():
            signal.signal(signum, handler)


def _manifest(directory: Path) -> Manifest:
    try:
        return read_manifest(directory / MANIFEST_NAME)
    except FileNotFoundError:
        raise IntsplitsError(
            f"{directory} has no {MANIFEST_NAME}: its split did not complete, or it is not "
            f"a split directory; split the formula into it again"
        ) from None


def cmd_run(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    manifest = _manifest(directory)
    entries = manifest.entries
    total = len(entries)
    files = _subproblem_paths(directory, total)
    unlisted = sorted(index for index in files if index >= total)
    if unlisted:
        raise IntsplitsError(
            f"{MANIFEST_NAME} lists {total} sub-problems, but {directory} also holds "
            f"files for indices: {format_indices(unlisted)}; split into an empty directory"
        )
    results_path = directory / RESULTS_NAME
    # The rows of an earlier run, by index.  A row that a kill cut short, or
    # one with bytes that are not UTF-8, goes to `torn`, and its task runs again.
    torn: list[str] = []
    exists = results_path.exists()
    done = _by_index(_rows_from_csv(results_path, torn), total) if exists else {}
    pending = [index for index in range(total) if index not in done]
    missing = [index for index in pending if index not in files]
    if missing:
        raise IntsplitsError(
            f"no sub-problem file in {directory} for indices: {format_indices(missing)}"
        )
    if done:
        _say(f"resuming: {len(done)} results present, {len(pending)} tasks left")

    if torn or not exists:
        # Write the header and the kept rows beside the file and swap it in,
        # so no kill can lose a finished result.
        _replace_file(results_path, [_results_text(done.items()).encode()])
    read = None
    if pending and not args.solver:  # parse the shared head and prepare its search once, before the fork
        read = _subproblem_reader([(files[index], entries[index]) for index in pending])

    def solve(index: int) -> ResultTuple:
        return _solve(files[index], entries[index], read, args.solver, args.timeout)

    batches = _results(pending, solve, bool(args.solver), args.jobs)
    unknown = 0
    with _stop_signals(), results_path.open("a", newline="") as handle, closing(batches):
        for batch in batches:
            handle.write(_row_lines(batch))
            handle.flush()
            unknown += sum(result.code is ResultCode.UNKNOWN for _, result in batch)
    _say(f"ran {len(pending)} tasks ({unknown} unknown), results in {results_path}")
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    formula = _load(args)
    directory = Path(args.dir)
    split_plan = _listed_plan(formula, directory / MANIFEST_NAME)
    if split_plan is None:  # plan.csv is not as split writes it: find what differs
        manifest = _manifest(directory)
        split_plan = plan(formula, manifest.depth, manifest.mode)
        verify_manifest(split_plan, manifest)
    source = Path(args.results) if args.results else directory / RESULTS_NAME
    table = ingest(source, split_plan)
    final, report = merge(table, args.time_model)
    summary = _summary(table, final, args.sequential_time)

    (directory / "certificate.txt").write_text(render_certificate(report))
    (directory / "merge_report.txt").write_text(format_flat_report(summary))
    sys.stdout.write(format_flat_report(summary))
    _say(f"verdict {final.code.name} after folding {len(report.reductions)} levels")
    _say(f"certificate.txt and merge_report.txt written to {directory}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    formula = _load(args)
    print(_annotation_table(formula))
    if args.depth is not None:
        split_plan = plan(formula, args.depth, _mode(args))
        print(_plan_summary(split_plan))
        selected = " ".join(
            "[" + " ".join(str(v) for v in aq.bitvector.variables) + "]"
            for aq in split_plan.quantifiers
        )
        print(f"selected: {selected}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    formula = _load(args)
    value = evaluate_with_intsplits(formula) if args.intsplits else evaluate(formula)
    print("TRUE" if value else "FALSE")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    print(check_correctness(_load(args)))
    return 0


def _positive(kind: type[int] | type[float]) -> Callable[[str], int | float]:
    """argparse type for a finite number of the given kind above zero."""

    def convert(text: str) -> int | float:
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite {kind.__name__} above 0")
        return value

    convert.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return convert


def _solver_command(template: str) -> list[str]:
    """argparse type: a solver command template split into its argv, with
    `{file}` in at least one token."""
    try:
        command = shlex.split(template)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{template!r}: {exc}") from None
    if not command:
        raise argparse.ArgumentTypeError("the solver command is empty")
    if not any("{file}" in token for token in command):
        raise argparse.ArgumentTypeError(f"{template!r} has no {{file}} placeholder")
    return command


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intsplits",
        description=(
            "Split (Q)DIMACS formulas with integer-range annotations into "
            "divide-and-conquer sub-problems, run them, and merge results."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--strict", action="store_true", help="reject comments after the problem line")

    split = commands.add_parser("split", help="expand a formula into sub-problem files")
    split.add_argument("formula")
    split.add_argument(
        "--depth", type=_positive(int), required=True, help="upper bound on expanded variables"
    )
    split.add_argument("--no-intsplits", action="store_true", help="plain variable-by-variable split")
    split.add_argument("--out", default=".", help="output directory (default: current)")
    split.add_argument("--force", action="store_true", help="overwrite sub-problem files and delete results.csv")
    common(split)
    split.set_defaults(func=cmd_split)

    run = commands.add_parser("run", help="solve every sub-problem in a split directory")
    run.add_argument("dir")
    run.add_argument("--jobs", type=_positive(int), default=1, help="concurrent tasks (default: 1)")
    run.add_argument(
        "--timeout", type=_positive(float), default=60.0, help="per-task seconds (default: 60)"
    )
    run.add_argument(
        "--solver",
        type=_solver_command,
        help="external solver command template with a {file} placeholder; "
        "exit 10 means true, 20 means false (default: built-in evaluator)",
    )
    run.set_defaults(func=cmd_run)

    merge_cmd = commands.add_parser("merge", help="reduce results to the final verdict")
    merge_cmd.add_argument("formula")
    merge_cmd.add_argument("dir")
    merge_cmd.add_argument("--results", help="results CSV or log directory (default: <dir>/results.csv)")
    merge_cmd.add_argument("--time-model", choices=TIME_MODELS, default="paper")
    merge_cmd.add_argument(
        "--sequential-time", type=_positive(float), help="reference time for the speed-up row"
    )
    common(merge_cmd)
    merge_cmd.set_defaults(func=cmd_merge)

    stats = commands.add_parser("stats", help="annotation table and optional plan preview")
    stats.add_argument("formula")
    stats.add_argument("--depth", type=_positive(int), help="preview the plan for this depth")
    stats.add_argument("--no-intsplits", action="store_true")
    common(stats)
    stats.set_defaults(func=cmd_stats)

    eval_cmd = commands.add_parser("eval", help="brute-force truth value")
    eval_cmd.add_argument("formula")
    eval_cmd.add_argument(
        "--intsplits", action="store_true", help="use bounded-quantifier semantics"
    )
    common(eval_cmd)
    eval_cmd.set_defaults(func=cmd_eval)

    check = commands.add_parser("check", help="compare bounded and unbounded semantics")
    check.add_argument("formula")
    common(check)
    check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt as exc:
        signum = getattr(exc, "signum", signal.SIGINT)
        name = signal.Signals(signum).name
        _say("interrupted" if signum == signal.SIGINT else f"stopped by {name}")
        return 128 + signum
    except BudgetExceededError as exc:
        _say(f"budget exceeded: {exc}")
        return 2
    except (IntsplitsError, FileExistsError) as exc:
        _say(f"error: {exc}")
        return 1
    except OSError as exc:
        _say(f"io error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
