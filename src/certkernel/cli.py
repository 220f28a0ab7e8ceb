"""Batch command-line interface.

Exit codes are a stable contract:

    0   certificate checked: VALID
    1   certificate rejected: INVALID (reason and step printed)
    2   certificate checked modulo assumptions: TRUSTED
        (becomes 1 under --strict-assumes)
    3   parse or usage error (input that is not UTF-8 names the file and
        byte offset; a CERTKERNEL_BUDGET that is not an integer and an
        option the parser rejects are usage errors, and --help exits 0),
        an internal error of the checker (one line naming the exception
        type), a --jobs worker that died (the other pairs still run), or
        an unwritable output (a full disk, a closed pipe)

Modes: check (default), stats, translate (nested proof -> linear
certificate on stdout), and the debugging mode oracle (brute-force
satisfiability of the input clauses; budget via CERTKERNEL_BUDGET).
``-`` names stdin, once per run.  --machine switches to a line-oriented
record with a stable field order.  ``certkernel.printer`` writes every report.

Each pair runs with Python's cyclic garbage collector paused (``run_one``).
A pair keeps its variables and clauses alive to the end, so the
collector's passes over that growing heap found nothing to free and cost
about a sixth of the time of a 100 000-step resolution chain; the checker
and parsers make no reference cycles.  Of the certificate, a pair holds
the text and one block of at most 2 048 steps at a time: replay reads
the next block when it has consumed the last (``preproc.stream_certificate``).

A process pays its start-up on every run, so importing this module loads
only what a check runs: ``argparse`` is imported in ``build_parser``, the
oracle under ``--mode oracle`` and ``concurrent.futures`` in ``_run_pool``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys

from .errors import CertKernelError, ParseError
from .frontend import Problem, parse_dimacs, parse_smt2
from .kernel import Verdict, check
from .preproc import linearize, parse_nested_proof
# perfbench/child.py wraps these two globals by these names.
from .preproc import stream_certificate as parse_certificate
from .printer import machine_record as _machine_record
from .printer import oracle_report, plain_record, print_certificate, stats_report

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_TRUSTED = 2
EXIT_ERROR = 3

# Aggregation order for multi-file runs: errors dominate, then rejections.
_SEVERITY = {EXIT_ERROR: 3, EXIT_INVALID: 2, EXIT_TRUSTED: 1, EXIT_VALID: 0}


def _read(path: str) -> str:
    """The file's text (stdin for ``-``) with newlines translated as text
    mode does; bytes that are not UTF-8 are a ParseError naming the file
    and the byte offset."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        name = "<stdin>" if path == "-" else path
        raise ParseError(f"{name}: invalid UTF-8 at byte {e.start}") from None
    if "\r" in text:  # one scan; the two replaces cost three times the read
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _guess_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    if path.endswith(".cnf") or path.endswith(".dimacs"):
        return "dimacs"
    return "smt2"


def _parse_problem(path: str, fmt: str | None) -> Problem:
    text = _read(path)
    if _guess_format(path, fmt) == "dimacs":
        return parse_dimacs(text)
    return parse_smt2(text)


def run_one(problem_path: str, proof_path: str | None, mode: str,
            fmt: str | None, machine: bool, strict: bool) -> tuple[int, str]:
    """Process one problem/proof pair; returns (exit code, report text).

    The cyclic garbage collector is paused for the pair and switched back
    on afterwards, however the pair ends, if it was on before; reference
    counting still frees everything.  The switch is process-wide, so
    run_one is not for concurrent calls from several threads.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run_pair(problem_path, proof_path, mode, fmt, machine, strict)
    finally:
        if collecting:
            gc.enable()


def _run_pair(problem_path: str, proof_path: str | None, mode: str,
              fmt: str | None, machine: bool, strict: bool) -> tuple[int, str]:
    try:
        problem = _parse_problem(problem_path, fmt)
        if mode == "oracle":
            from .oracle import DEFAULT_BUDGET, brute_unsat
            setting = os.environ.get("CERTKERNEL_BUDGET")
            try:
                budget = DEFAULT_BUDGET if setting is None else int(setting)
            except ValueError:
                return EXIT_ERROR, f"error: CERTKERNEL_BUDGET is not an integer: {setting!r}\n"
            res = brute_unsat(problem.store, problem.input_clauses, budget=budget)
            return EXIT_VALID, oracle_report(problem.store, res)

        if proof_path is None:
            return EXIT_ERROR, "error: this mode needs --proof\n"
        if mode == "translate":
            nested = parse_nested_proof(_read(proof_path), problem)
            cert = linearize(nested, len(problem.input_clauses))
            return EXIT_VALID, print_certificate(problem.store, cert)

        # Each block of steps is read as replay reaches it, and freed once
        # replayed.  The rest is read after replay stops, so that a
        # malformed line after the empty clause is still an error.
        cert = parse_certificate(_read(proof_path), problem)
        result = check(problem.store, problem.input_clauses, cert)
        for _ in cert.steps:
            pass
        if mode == "stats":
            report = stats_report(problem.store, result)
        elif machine:
            report = _machine_record(problem.store, result)
        else:
            report = plain_record(problem.store, result)
        code = {
            Verdict.VALID: EXIT_VALID,
            Verdict.INVALID: EXIT_INVALID,
            Verdict.TRUSTED: EXIT_INVALID if strict else EXIT_TRUSTED,
        }[result.verdict]
        return code, report
    except (CertKernelError, OSError) as e:
        return EXIT_ERROR, f"error: {e}\n"
    except MemoryError:
        return EXIT_ERROR, "error: out of memory\n"
    except Exception as e:  # a bug must not cost the other pairs their reports
        return EXIT_ERROR, f"error: internal error: {type(e).__name__}\n"


def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="certkernel",
        description="Check SAT/SMT refutation certificates.")
    parser.add_argument("--problem", action="append", default=[],
                        help="problem file (DIMACS or SMT-LIB 2); '-' for stdin;"
                             " repeatable")
    parser.add_argument("--proof", action="append", default=[],
                        help="certificate file (or nested proof for translate);"
                             " '-' for stdin; repeatable, paired with --problem")
    parser.add_argument("--mode", choices=["check", "translate", "stats", "oracle"],
                        default="check")
    parser.add_argument("--format", choices=["dimacs", "smt2"], default=None,
                        help="problem format (default: by file extension)")
    parser.add_argument("--machine", action="store_true",
                        help="line-oriented machine-readable output")
    parser.add_argument("--strict-assumes", action="store_true",
                        help="treat TRUSTED verdicts as failures (exit 1)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="check multiple pairs in parallel processes")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_ERROR if e.code else EXIT_VALID
    if not args.problem:
        print("error: --problem is required", file=sys.stderr)
        return EXIT_ERROR
    if (args.problem + args.proof).count("-") > 1:
        print("error: '-' (stdin) may name only one input", file=sys.stderr)
        return EXIT_ERROR
    proofs: list[str | None] = list(args.proof)
    if args.mode == "oracle":
        proofs = [None] * len(args.problem)
    if len(proofs) != len(args.problem):
        print("error: need one --proof per --problem", file=sys.stderr)
        return EXIT_ERROR

    pairs = list(zip(args.problem, proofs))
    tasks = [(p, pr, args.mode, args.format, args.machine, args.strict_assumes)
             for p, pr in pairs]
    uses_stdin = any(p == "-" or pr == "-" for p, pr in pairs)
    if args.jobs > 1 and len(tasks) > 1 and not uses_stdin:
        outcomes = _run_pool(tasks, args.jobs)
    else:
        outcomes = [_run_star(t) for t in tasks]

    worst = EXIT_VALID
    try:
        for (path, _), (code, report) in zip(pairs, outcomes):
            prefix = f"{path}: " if len(pairs) > 1 else ""
            stream = sys.stderr if code == EXIT_ERROR else sys.stdout
            for line in report.rstrip("\n").split("\n"):
                print(prefix + line, file=stream)
            if _SEVERITY[code] > _SEVERITY[worst]:
                worst = code
        sys.stdout.flush()
    except OSError as e:  # a full disk, a closed pipe; stdout flushes at exit, to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        with contextlib.suppress(OSError):
            print(f"error: cannot write report: {e}", file=sys.stderr)
        return EXIT_ERROR
    return worst


def _run_star(task) -> tuple[int, str]:
    return run_one(*task)


_WORKER_DIED = (EXIT_ERROR, "error: worker process died\n")


def _run_pool(tasks: list, jobs: int) -> list[tuple[int, str]]:
    """Run the tasks in worker processes.  A worker that dies outright (for
    example under the OOM killer) breaks the pool: every pair not finished
    by then gets the exit-3 line, and the finished pairs keep their reports.
    It catches BrokenExecutor, the base class of BrokenProcessPool.  The
    pool forks all of its workers at the first submit, so it gets no more
    workers than tasks.  ``concurrent.futures`` is imported here, not at
    start-up: with the ``logging`` it imports, it costs about 11 ms, and
    only a pool needs it."""
    import concurrent.futures

    futures = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        for task in tasks:
            try:
                futures.append(pool.submit(_run_star, task))
            except concurrent.futures.BrokenExecutor:
                break
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result())
            except concurrent.futures.BrokenExecutor:
                outcomes.append(_WORKER_DIED)
    return outcomes + [_WORKER_DIED] * (len(tasks) - len(outcomes))


if __name__ == "__main__":
    sys.exit(main())
