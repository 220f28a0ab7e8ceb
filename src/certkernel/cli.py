"""Batch command-line interface.

Exit codes are a stable contract:

    0   certificate checked: VALID
    1   certificate rejected: INVALID (reason and step printed)
    2   certificate checked modulo assumptions: TRUSTED
        (becomes 1 under --strict-assumes)
    3   parse or usage error, an internal error of the checker (one line
        naming the exception type), or a --jobs worker that died; the
        other pairs still run

Modes: check (default), stats, translate (nested proof -> linear
certificate on stdout), and the debugging mode oracle (brute-force
satisfiability of the input clauses; budget via CERTKERNEL_BUDGET).
Both inputs accept ``-`` for stdin.  --machine switches to a line-oriented
record with a stable field order.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys

from .errors import CertKernelError
from .frontend import (
    Problem, parse_certificate, parse_dimacs, parse_smt2, print_certificate,
)
from .kernel import CheckResult, Verdict, check, stats_report
from .oracle import SAT, brute_unsat
from .preproc import linearize, parse_nested_proof
from .terms import clause_to_sexpr

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_TRUSTED = 2
EXIT_ERROR = 3

# Aggregation order for multi-file runs: errors dominate, then rejections.
_SEVERITY = {EXIT_ERROR: 3, EXIT_INVALID: 2, EXIT_TRUSTED: 1, EXIT_VALID: 0}


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


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


def _machine_record(problem: Problem, result: CheckResult) -> str:
    lines = [f"verdict {result.verdict.value}"]
    if result.reason is not None:
        lines.append(f"reason {result.reason}")
    if result.step_id is not None:
        lines.append(f"failed-step {result.step_id}")
    replayed = sum(n for name, n in result.stats if name != "input")
    lines.append(f"steps {replayed}")
    for name, count in result.stats:
        lines.append(f"rule {name} {count}")
    for clause in result.assumptions:
        lines.append(f"assume {clause_to_sexpr(problem.store, clause)}")
    return "\n".join(lines) + "\n"


def _plain_record(problem: Problem, result: CheckResult) -> str:
    if result.verdict is Verdict.VALID:
        return "VALID\n"
    if result.verdict is Verdict.TRUSTED:
        lines = [f"TRUSTED: {len(result.assumptions)} assumption(s)"]
        for clause in result.assumptions:
            lines.append(f"  assume: {clause_to_sexpr(problem.store, clause)}")
        return "\n".join(lines) + "\n"
    where = f" (step {result.step_id})" if result.step_id is not None else ""
    return f"INVALID: {result.reason}{where}\n"


def run_one(problem_path: str, proof_path: str | None, mode: str,
            fmt: str | None, machine: bool, strict: bool) -> tuple[int, str]:
    """Process one problem/proof pair; returns (exit code, report text)."""
    try:
        problem = _parse_problem(problem_path, fmt)
        if mode == "oracle":
            budget = int(os.environ.get("CERTKERNEL_BUDGET", "2000000"))
            res = brute_unsat(problem.store, problem.input_clauses, budget=budget)
            lines = [f"status {res.status}" + ("" if res.complete else " bounded")]
            if res.status == SAT:
                model = res.witness
                named = []
                for table in (model.bool_vals, model.int_vals, model.bv_vals,
                              model.elem_vals):
                    for tid, value in table.items():
                        named.append((problem.store.node(tid).extra[0], value))
                for name, value in sorted(named):
                    if isinstance(value, tuple):
                        value = "#b" + "".join("1" if b else "0" for b in reversed(value))
                    elif value is True or value is False:
                        value = "true" if value else "false"
                    lines.append(f"model {name} {value}")
            return EXIT_VALID, "\n".join(lines) + "\n"

        if proof_path is None:
            return EXIT_ERROR, "error: this mode needs --proof\n"
        proof_text = _read(proof_path)
        if mode == "translate":
            nested = parse_nested_proof(proof_text, problem)
            cert = linearize(nested, len(problem.input_clauses))
            return EXIT_VALID, print_certificate(problem.store, cert)

        cert = parse_certificate(proof_text, problem)
        result = check(problem.store, problem.input_clauses, cert)
        if mode == "stats":
            report = stats_report(problem.store, result)
        elif machine:
            report = _machine_record(problem, result)
        else:
            report = _plain_record(problem, result)
        code = {
            Verdict.VALID: EXIT_VALID,
            Verdict.INVALID: EXIT_INVALID,
            Verdict.TRUSTED: EXIT_INVALID if strict else EXIT_TRUSTED,
        }[result.verdict]
        return code, report
    except CertKernelError as e:
        return EXIT_ERROR, f"error: {e}\n"
    except OSError as e:
        return EXIT_ERROR, f"error: {e}\n"
    except RecursionError:
        return EXIT_ERROR, "error: input nested too deeply\n"
    except MemoryError:
        return EXIT_ERROR, "error: out of memory\n"
    except Exception as e:  # a bug must not cost the other pairs their reports
        return EXIT_ERROR, f"error: internal error: {type(e).__name__}\n"


def build_parser() -> argparse.ArgumentParser:
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
    args = build_parser().parse_args(argv)
    if not args.problem:
        print("error: --problem is required", file=sys.stderr)
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
    for (path, _), (code, report) in zip(pairs, outcomes):
        prefix = f"{path}: " if len(pairs) > 1 else ""
        stream = sys.stderr if code == EXIT_ERROR else sys.stdout
        for line in report.rstrip("\n").split("\n"):
            print(prefix + line, file=stream)
        if _SEVERITY[code] > _SEVERITY[worst]:
            worst = code
    return worst


def _run_star(task) -> tuple[int, str]:
    return run_one(*task)


_WORKER_DIED = (EXIT_ERROR, "error: worker process died\n")


def _run_pool(tasks: list, jobs: int) -> list[tuple[int, str]]:
    """Run the tasks in worker processes.  A worker that dies outright (for
    example under the OOM killer) breaks the pool: every pair not finished
    by then gets the exit-3 line, and the finished pairs keep their reports.
    It catches BrokenExecutor, the base class of BrokenProcessPool, because
    naming the latter imports the process-pool module on every start-up."""
    futures = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
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
