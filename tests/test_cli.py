"""Command-line interface: exit codes, output formats, modes."""

import ast
import gc
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from certkernel import check, parse_smt2
from certkernel.cli import main, run_one

SMT = """(set-logic QF_UF)
(declare-sort U 0)
(declare-const a U)
(declare-const b U)
(declare-fun f (U) U)
(assert (= a b))
(assert (not (= (f a) (f b))))
"""

CERT = """2 euf () {(lemma (not (= a b)) (= (f a) (f b))) (just (hyp 0) (cong f 0))}
3 not_not () {(not (= (f a) (f b))) 0}
4 res (2 0) {}
5 res (3 1) {}
6 res (4 5) {}
qed 6
"""

DIMACS = "p cnf 1 2\n1 0\n-1 0\n"
DIMACS_CERT = "2 res (0 1) {}\nqed 2\n"

ASSUME_CERT = """2 assume () {(not (= a b))}
3 res (0 2) {}
qed 3
"""

NESTED = ("(let ((L (step euf () {(lemma (not (= a b)) (= (f a) (f b)))"
          " (just (hyp 0) (cong f 0))})))\n"
          "  (step res ((step not_not () {(not (= (f a) (f b))) 0})"
          " 1 L 0) {}))\n")

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture
def files(tmp_path):
    smt = tmp_path / "prob.smt2"
    smt.write_text(SMT)
    cert = tmp_path / "prob.cert"
    cert.write_text(CERT)
    cnf = tmp_path / "prob.cnf"
    cnf.write_text(DIMACS)
    cnf_cert = tmp_path / "cnf.cert"
    cnf_cert.write_text(DIMACS_CERT)
    return tmp_path


def test_valid_smt2_pair_exits_zero(files, capsys):
    code = main(["--problem", str(files / "prob.smt2"),
                 "--proof", str(files / "prob.cert")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "VALID"


def test_valid_dimacs_pair(files, capsys):
    code = main(["--problem", str(files / "prob.cnf"),
                 "--proof", str(files / "cnf.cert")])
    assert code == 0


def test_invalid_certificate_exits_one(files, capsys):
    (files / "bad.cert").write_text("2 res (0) {}\nqed 2\n")
    code = main(["--problem", str(files / "prob.cnf"),
                 "--proof", str(files / "bad.cert")])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("INVALID:")


def test_trusted_exits_two_and_strict_flag(files, capsys):
    (files / "assume.cert").write_text(ASSUME_CERT)
    code = main(["--problem", str(files / "prob.smt2"),
                 "--proof", str(files / "assume.cert")])
    out = capsys.readouterr().out
    assert code == 2
    assert "TRUSTED: 1 assumption(s)" in out
    assert "(not (= a b))" in out
    code = main(["--problem", str(files / "prob.smt2"),
                 "--proof", str(files / "assume.cert"), "--strict-assumes"])
    assert code == 1


def test_parse_error_exits_three(files, capsys):
    (files / "junk.smt2").write_text("(assert (= a b)\n")
    code = main(["--problem", str(files / "junk.smt2"),
                 "--proof", str(files / "prob.cert")])
    assert code == 3
    assert "error:" in capsys.readouterr().err
    (files / "bare.cnf").write_text("c only comments\n\n  \nc and blanks\n")
    code = main(["--problem", str(files / "bare.cnf"), "--proof", str(files / "cnf.cert")])
    assert code == 3
    assert capsys.readouterr() == ("", "error: line 1, col 1: missing DIMACS header\n")


def test_a_malformed_line_after_the_empty_clause_exits_three(files, capsys):
    """The rest of the certificate is read after replay stops, so a
    malformed line after the step that derives the empty clause, before
    qed, is exit 3 with the error naming that line."""
    (files / "late.cert").write_text(DIMACS_CERT.replace("qed", "3 res (0 1 {}\nqed"))
    code = main(["--problem", str(files / "prob.cnf"), "--proof", str(files / "late.cert")])
    assert code == 3
    assert capsys.readouterr() == ("", "error: line 2, col 13: missing closing ')'\n")


def _long_cert(filler, proof="euf", after=0, end=None):
    """A certificate for SMT: ``filler`` one-premise res steps, then a
    refutation, then ``after`` more one-premise res steps, then ``end``
    (the qed line if None).  proof is "euf" (CERT's refutation), "wrong"
    (its euf step's justification proves a = b, not its lemma), "assume"
    (ASSUME_CERT's) or "short" (CERT's without its last step)."""
    k = 2 + filler
    lines = [f"{2 + i} res (0) {{}}" for i in range(filler)]
    if proof == "assume":
        lines += [f"{k} assume () {{(not (= a b))}}", f"{k + 1} res (0 {k}) {{}}"]
    else:
        just = "(hyp 0)" if proof == "wrong" else "(hyp 0) (cong f 0)"
        lines += [f"{k} euf () {{(lemma (not (= a b)) (= (f a) (f b))) (just {just})}}",
                  f"{k + 1} not_not () {{(not (= (f a) (f b))) 0}}",
                  f"{k + 2} res ({k} 0) {{}}", f"{k + 3} res ({k + 1} 1) {{}}"]
        if proof != "short":
            lines.append(f"{k + 4} res ({k + 2} {k + 3}) {{}}")
    n = 2 + len(lines)
    lines += [f"{n + i} res (0) {{}}" for i in range(after)]
    lines.append(f"qed {n + after - 1}" if end is None else end)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("where", ["after the empty clause", "in the second block"])
def test_a_malformed_line_blocks_later_exits_three(files, monkeypatch, where):
    """The multi-block twin of the test above: the empty clause is derived
    in the first block, and the malformed line is two blocks later; or the
    refutation comes after 3 000 steps and the malformed line is in the
    second block, which then is not replayed.  Either way the error is
    the one reading the whole certificate gives."""
    from certkernel import kernel
    from certkernel.errors import ParseError
    from certkernel.preproc import _RUN_LINES, parse_certificate

    if where == "in the second block":
        text = _long_cert(3000).replace("\n2500 res (0) {}\n", "\n2500 res (0 {}\n")
        line = 2499
    else:
        text = _long_cert(100, after=2 * _RUN_LINES, end="9999 res (0 1 {}\nqed 2")
        line = text.count("\n") - 1
    (files / "late.cert").write_text(text)
    with pytest.raises(ParseError) as batch:
        parse_certificate(text, parse_smt2(SMT))
    assert str(batch.value).startswith(f"line {line}, col ")
    dispatch, replayed = kernel.dispatch, []

    def counting_dispatch(*args):
        replayed.append(args[1])
        return dispatch(*args)

    monkeypatch.setattr(kernel, "dispatch", counting_dispatch)
    assert run_one(str(files / "prob.smt2"), str(files / "late.cert"), "check", None,
                   False, False) == (3, f"error: {batch.value}\n")
    assert len(replayed) == (_RUN_LINES if where == "in the second block" else 105)


def _batch(text, mode, machine):
    """(exit code, report) from the whole certificate, read before replay."""
    from certkernel.cli import _machine_record
    from certkernel.preproc import parse_certificate
    from certkernel.printer import plain_record, stats_report

    problem = parse_smt2(SMT)
    result = check(problem.store, problem.input_clauses, parse_certificate(text, problem))
    render = stats_report if mode == "stats" else _machine_record if machine else plain_record
    code = {"VALID": 0, "INVALID": 1, "TRUSTED": 2}[result.verdict.value]
    return code, render(problem.store, result)


@pytest.mark.parametrize("proof", ["euf", "wrong", "assume", "short"])
def test_streamed_reports_equal_the_batch_reports(files, proof):
    """A certificate of three blocks, its refutation in the second, reads
    as it replays; its plain, --machine and stats reports are those of
    checking the whole parsed certificate.  A rejected payload in the
    second block is INVALID at that step's id."""
    text = _long_cert(3000, proof, after=2000)
    (files / "long.cert").write_text(text)
    reports = {}
    for mode, machine in (("check", False), ("check", True), ("stats", False)):
        reports[mode, machine] = run_one(str(files / "prob.smt2"), str(files / "long.cert"),
                                         mode, None, machine, False)
        assert reports[mode, machine] == _batch(text, mode, machine), (mode, machine)
    if proof == "wrong":
        assert reports["check", False] == (
            1, "INVALID: euf checker rejected the step (step 3002)\n")


def test_replay_runs_at_most_one_block_behind_the_reader(files, monkeypatch):
    """When the kernel replays the step at index k of the certificate, the
    reader has handed out at most k + _RUN_LINES steps, and the first block
    is read before check is called."""
    import certkernel.cli as cli
    from certkernel import kernel, preproc

    blocks, dispatch, parse = preproc._blocks, kernel.dispatch, cli.parse_certificate
    produced, seen = [0], []

    def counting_blocks(text, problem):
        reader = blocks(text, problem)
        while True:
            try:
                block = next(reader)
            except StopIteration as end:
                return end.value
            produced[0] += len(block)
            yield block

    def counting_dispatch(*args):
        seen.append(produced[0])
        return dispatch(*args)

    def counting_parse(*args):
        cert = parse(*args)
        seen.append(("first block", produced[0]))
        return cert

    monkeypatch.setattr(preproc, "_blocks", counting_blocks)
    monkeypatch.setattr(kernel, "dispatch", counting_dispatch)
    monkeypatch.setattr(cli, "parse_certificate", counting_parse)
    text = _long_cert(3 * preproc._RUN_LINES)
    (files / "long.cert").write_text(text)
    assert run_one(str(files / "prob.smt2"), str(files / "long.cert"), "check", None,
                   False, False) == (0, "VALID\n")
    assert seen[0] == ("first block", preproc._RUN_LINES)
    replayed = seen[1:]
    assert len(replayed) == 3 * preproc._RUN_LINES + 5 == produced[0]
    assert all(n <= k + preproc._RUN_LINES for k, n in enumerate(replayed))
    assert replayed[0] == preproc._RUN_LINES and replayed[-1] == produced[0]


def test_missing_file_exits_three(files, capsys):
    code = main(["--problem", str(files / "nope.smt2"),
                 "--proof", str(files / "prob.cert")])
    assert code == 3


@pytest.mark.parametrize("args, message", [
    (["--mode", "bogus"], "argument --mode: invalid choice: 'bogus'"),
    (["--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
    (["--bogus"], "unrecognized arguments: --bogus"),
], ids=["mode", "jobs", "flag"])
def test_a_usage_error_exits_three_with_the_parser_message(files, capsys, args, message):
    """Exit 2 means TRUSTED, so argparse's own usage exit is mapped to 3."""
    code = main(["--problem", str(files / "prob.cnf"), "--proof", str(files / "prob.cert"),
                 *args])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("usage: certkernel") and message in captured.err


def test_machine_output_stable_fields(files, capsys):
    args = ["--problem", str(files / "prob.smt2"),
            "--proof", str(files / "prob.cert"), "--machine"]
    assert main(args) == 0
    out1 = capsys.readouterr().out
    assert main(args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0] == "verdict VALID"
    assert lines[1] == "steps 5"
    assert "rule input 2" in lines
    assert "rule res 3" in lines
    assert "rule euf 1" in lines


def test_machine_output_invalid_fields(files, capsys):
    (files / "bad.cert").write_text("2 res (0) {}\nqed 2\n")
    code = main(["--problem", str(files / "prob.cnf"),
                 "--proof", str(files / "bad.cert"), "--machine"])
    assert code == 1
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "verdict INVALID"
    assert any(l.startswith("reason ") for l in lines)


def test_stats_mode(files, capsys):
    code = main(["--problem", str(files / "prob.smt2"),
                 "--proof", str(files / "prob.cert"), "--mode", "stats"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: VALID" in out
    assert "max clause width:" in out
    assert "euf 1" in out


def test_translate_mode(files, capsys, tmp_path):
    nested = tmp_path / "tree.nest"
    nested.write_text(NESTED)
    code = main(["--problem", str(files / "prob.smt2"),
                 "--proof", str(nested), "--mode", "translate"])
    assert code == 0
    cert_text = capsys.readouterr().out
    assert cert_text.splitlines()[-1].startswith("qed ")
    # the translated certificate round-trips through a real check
    out = tmp_path / "translated.cert"
    out.write_text(cert_text)
    assert main(["--problem", str(files / "prob.smt2"),
                 "--proof", str(out)]) == 0
    capsys.readouterr()


def test_translate_unbound_name_exits_three(files, capsys, tmp_path):
    nested = tmp_path / "bad.nest"
    nested.write_text("(step res (L0) {})\n")
    code = main(["--problem", str(files / "prob.smt2"),
                 "--proof", str(nested), "--mode", "translate"])
    assert code == 3


def test_oracle_mode(files, capsys):
    code = main(["--problem", str(files / "prob.smt2"), "--mode", "oracle"])
    assert code == 0
    assert "status unsat" in capsys.readouterr().out
    (files / "sat.cnf").write_text("p cnf 2 1\n1 2 0\n")
    code = main(["--problem", str(files / "sat.cnf"), "--mode", "oracle"])
    out = capsys.readouterr().out
    assert code == 0 and "status sat" in out and "model v1" in out


def test_oracle_mode_budget_env(files, capsys, monkeypatch):
    (files / "big.cnf").write_text(
        "p cnf 6 1\n1 2 3 4 5 6 0\n")
    monkeypatch.setenv("CERTKERNEL_BUDGET", "3")
    code = main(["--problem", str(files / "big.cnf"), "--mode", "oracle"])
    assert code == 0
    assert "status exhausted" in capsys.readouterr().out


def test_budget_that_is_not_an_integer_is_a_usage_error(files, capsys, monkeypatch):
    monkeypatch.setenv("CERTKERNEL_BUDGET", "abc")
    code = main(["--problem", str(files / "prob.cnf"), "--mode", "oracle"])
    assert code == 3
    assert capsys.readouterr().err == "error: CERTKERNEL_BUDGET is not an integer: 'abc'\n"


def test_input_that_is_not_utf8_names_file_and_offset(files, capsys):
    bad_cert = files / "bad.cert"
    bad_cert.write_bytes(b"2 res (0 1) {}\n\xff\nqed 2\n")
    code = main(["--problem", str(files / "prob.cnf"), "--proof", str(bad_cert)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {bad_cert}: invalid UTF-8 at byte 15\n"
    bad_problem = files / "bad.smt2"
    bad_problem.write_bytes(SMT.encode() + b"; caf\xc3\n")
    code = main(["--problem", str(bad_problem), "--proof", str(files / "prob.cert")])
    assert code == 3
    assert capsys.readouterr().err == \
        f"error: {bad_problem}: invalid UTF-8 at byte {len(SMT) + 5}\n"
    proc = subprocess.run(
        [sys.executable, "-m", "certkernel.cli",
         "--problem", str(files / "prob.cnf"), "--proof", "-"],
        input=b"\xff" + DIMACS_CERT.encode(), capture_output=True)
    assert (proc.returncode, proc.stderr) == (3, b"error: <stdin>: invalid UTF-8 at byte 0\n")


@pytest.mark.parametrize("output", ["full", "closed-pipe"])
def test_an_unwritable_stdout_exits_three_without_a_traceback(output):
    """A VALID pair whose report cannot be written, to a full device or to a
    pipe whose reader has closed, exits 3 with one error line on stderr."""
    if output == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    args = [sys.executable, "-m", "certkernel.cli",
            "--problem", str(CORPUS / "sat" / "chain5.cnf"),
            "--proof", str(CORPUS / "sat" / "chain5.cert")]
    if output == "full":
        with open("/dev/full", "w") as stdout:
            proc = subprocess.run(args, stdout=stdout, stderr=subprocess.PIPE, text=True)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(args, stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: cannot write report: ") \
        and proc.stderr.count("\n") == 1, proc.stderr


def test_input_newlines_read_as_in_text_mode(tmp_path):
    from certkernel.cli import _read
    path = tmp_path / "mixed.txt"
    path.write_bytes(b"a\r\nb\rc\n\r\rd\xc3\xa9")
    with open(path, encoding="utf-8") as fh:
        assert _read(str(path)) == fh.read() == "a\nb\nc\n\n\nd\u00e9"


def test_stdin_dash(files):
    proc = subprocess.run(
        [sys.executable, "-m", "certkernel.cli",
         "--problem", str(files / "prob.cnf"), "--proof", "-"],
        input=DIMACS_CERT, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "VALID"


@pytest.mark.parametrize("args", [
    ["--problem", "-", "--proof", "-", "--format", "dimacs"],
    ["--problem", "-", "--proof", "a.cert", "--problem", "b.cnf", "--proof", "-"],
    ["--problem", "-", "--problem", "-", "--mode", "oracle"],
], ids=["problem-and-proof", "two-pairs", "oracle"])
def test_stdin_dash_names_one_input_only(args, capsys, monkeypatch):
    """A second ``-`` would read an empty stdin: main rejects it with one
    error line and exit 3 before it reads any input."""
    class Unread:
        @property
        def buffer(self):
            raise AssertionError("stdin was read")

    monkeypatch.setattr(sys, "stdin", Unread())
    assert main(args) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: '-' (stdin) may name only one input\n")


def test_multiple_pairs_and_jobs(files, capsys):
    (files / "bad.cert").write_text("2 res (0) {}\nqed 2\n")
    args = ["--problem", str(files / "prob.cnf"), "--proof", str(files / "cnf.cert"),
            "--problem", str(files / "prob.cnf"), "--proof", str(files / "bad.cert")]
    code = main(args)
    out = capsys.readouterr().out
    assert code == 1  # worst of VALID and INVALID
    assert "prob.cnf: " in out
    assert main(args + ["--jobs", "2"]) == 1
    capsys.readouterr()


def test_jobs_start_no_more_workers_than_pairs(files, capsys, monkeypatch):
    """--jobs N starts min(N, pairs) workers: a process pool under the fork
    start method forks all of its workers at the first submit.  The pool is
    a fake that runs each pair inline and starts no process."""
    import concurrent.futures
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    args = ["--problem", str(files / "prob.cnf"), "--proof", str(files / "cnf.cert")] * 2
    assert main(args + ["--jobs", "5000"]) == 0
    assert main(args[:4] * 3 + ["--jobs", "2"]) == 0
    assert started == [2, 2]
    capsys.readouterr()


def test_start_up_imports_no_process_pool():
    """Only a --jobs pool needs concurrent.futures, which costs about 11 ms
    with the logging it imports, so importing the CLI leaves it out."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, certkernel.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_mismatched_pair_counts(files, capsys):
    assert main(["--problem", str(files / "prob.cnf")]) == 3


def test_a_100000_deep_assert_parses_checks_and_prints(tmp_path):
    """Input depth has no limit: an assert 100 000 deep and its negation
    check with a certificate whose payload is as deep, and translate prints
    that certificate from a nested proof."""
    depth = 100_000
    deep = "(not " * depth + "p" + ")" * depth
    problem = tmp_path / "deep.smt2"
    problem.write_text(f"(declare-const p Bool)\n(assert {deep})\n(assert (not {deep}))\n")
    text = f"2 not_not () {{(not {deep}) 0}}\n3 res (2 1) {{}}\n4 res (3 0) {{}}\nqed 4\n"
    cert, proof = tmp_path / "deep.cert", tmp_path / "deep.proof"
    cert.write_text(text)
    assert run_one(str(problem), str(cert), "check", None, False, False) == (0, "VALID\n")
    lemma = f"(step not_not () {{(not {deep}) 0}})"
    proof.write_text(f"(step res ((step res ({lemma} 1) {{}}) 0) {{}})")
    assert run_one(str(problem), str(proof), "translate", None, False, False) == (0, text)


def test_a_20000_deep_let_chain_parses_checks_and_prints(tmp_path):
    """A let chain reads in linear time: an assert of 20 000 nested lets,
    each binding a new name to the negation of the last, and its negation
    check with a certificate whose payload is the same chain, and translate
    prints that certificate, expanded, from a nested proof; each run ends
    within 3 s, where copying the names in scope per let took about 12 s
    for each read of the chain."""
    depth = 20_000
    chain = ("(let ((x0 p)) " + "".join(f"(let ((x{i + 1} (not x{i}))) " for i in range(depth))
             + f"x{depth}" + ")" * (depth + 1))
    deep = "(not " * depth + "p" + ")" * depth
    problem = tmp_path / "let.smt2"
    problem.write_text(f"(declare-const p Bool)\n(assert {chain})\n(assert (not {chain}))\n")
    text = "2 not_not () {{(not {}) 0}}\n3 res (2 1) {{}}\n4 res (3 0) {{}}\nqed 4\n"
    cert, proof = tmp_path / "let.cert", tmp_path / "let.proof"
    cert.write_text(text.format(chain))
    lemma = f"(step not_not () {{(not {chain}) 0}})"
    proof.write_text(f"(step res ((step res ({lemma} 1) {{}}) 0) {{}})")
    for path, mode, out in ((cert, "check", "VALID\n"), (proof, "translate", text.format(deep))):
        start = time.perf_counter()
        assert run_one(str(problem), str(path), mode, None, False, False) == (0, out)
        assert time.perf_counter() - start < 3.0, mode


def test_a_100000_deep_payload_of_one_repeated_subterm_reads_in_linear_time():
    """The term reader memoizes only terms of at most 64 lexemes, so keys
    cost time linear in the input: a certificate line whose payload nests
    (or p q) at each of 100 000 levels reads and checks within 3 s, with
    the collector paused as run_one pauses it."""
    from certkernel import Verdict, check, parse_certificate, parse_smt2

    depth = 100_000
    deep = "(and (or p q) " * depth + "p" + ")" * depth
    problem = parse_smt2(f"(declare-const p Bool)\n(declare-const q Bool)\n"
                         f"(assert {deep})\n(assert (not (or p q)))\n")
    text = (f"2 and_pos () {{{deep} 0}}\n3 res (2 0) {{}}\n"
            "4 not_not () {(not (or p q)) 0}\n5 res (4 1) {}\n6 res (5 3) {}\nqed 6\n")
    gc.disable()
    try:
        start = time.perf_counter()
        cert = parse_certificate(text, problem)
        verdict = check(problem.store, problem.input_clauses, cert).verdict
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert verdict is Verdict.VALID and elapsed < 3.0, (verdict, elapsed)


def test_pairs_in_one_process_report_as_each_alone(tmp_path):
    """Nothing a pair reads outlives it: two pairs that read the same term
    text under different declarations (x and y Ints in one, Bools in the
    other, where the last assert is a sort error) report, one after the
    other in one process and in either order, what each reports alone in a
    fresh process, in check and stats mode, plain and --machine."""
    text = "(declare-const x {0})\n(declare-const y {0})\n(assert (= x (ite (= x y) y x)))\n" \
           "(assert (not (= x (ite (= x y) y x))))\n(assert (or x (= x (ite (= x y) y x))))\n"
    cert = tmp_path / "p.cert"
    cert.write_text("3 not_not () {(not (= x (ite (= x y) y x))) 0}\n"
                    "4 res (3 1) {}\n5 res (4 0) {}\nqed 5\n")
    runs = {}
    for sort in ("Int", "Bool"):
        (tmp_path / f"{sort}.smt2").write_text(text.format(sort))
        runs[sort] = [(str(tmp_path / f"{sort}.smt2"), str(cert), mode, None, machine, False)
                      for mode in ("check", "stats") for machine in (False, True)]
    alone = {}
    for sort, args in runs.items():
        proc = subprocess.run(
            [sys.executable, "-c", "from certkernel.cli import run_one; "
             f"print(repr([run_one(*a) for a in {args!r}]))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        alone[sort] = proc.stdout
    assert alone["Int"] != alone["Bool"]
    for order in (("Int", "Bool"), ("Bool", "Int")):
        together = {sort: [] for sort in order}
        for i in range(4):
            for sort in order:
                together[sort].append(run_one(*runs[sort][i]))
        assert {sort: f"{out!r}\n" for sort, out in together.items()} == alone, order


def test_out_of_memory_exits_three(files, capsys, monkeypatch):
    import certkernel.cli as cli

    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_smt2", exhausted)
    code = main(["--problem", str(files / "prob.smt2"), "--proof", str(files / "prob.cert")])
    assert code == 3
    assert capsys.readouterr().err == "error: out of memory\n"


def test_overlong_numeral_exits_three(tmp_path, capsys):
    (tmp_path / "big.smt2").write_text(
        "(declare-const x Int)\n(assert (<= x " + "9" * 5000 + "))\n")
    (tmp_path / "empty.cert").write_text("qed 0\n")
    code = main(["--problem", str(tmp_path / "big.smt2"),
                 "--proof", str(tmp_path / "empty.cert")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: line 2, col 15:") and err.count("\n") == 1


def test_internal_error_costs_only_its_own_pair(files, capsys, monkeypatch):
    """An unexpected exception while checking one pair becomes that pair's
    exit-3 line; the other pairs keep their reports, with and without
    --jobs (whose forked workers inherit the patched name)."""
    import certkernel.cli as cli

    (files / "second.cnf").write_text("p cnf 2 2\n1 0\n-2 0\n")
    check = cli.check

    def flaky(store, inputs, cert):
        if len(store) == 4:  # true, false, v1, v2: second.cnf only
            raise ValueError("bug")
        return check(store, inputs, cert)

    monkeypatch.setattr(cli, "check", flaky)
    args = ["--problem", str(files / "prob.cnf"), "--proof", str(files / "cnf.cert"),
            "--problem", str(files / "prob.smt2"), "--proof", str(files / "prob.cert"),
            "--problem", str(files / "second.cnf"), "--proof", str(files / "cnf.cert")]
    for extra in ([], ["--jobs", "2"]):
        assert main(args + extra) == 3
        captured = capsys.readouterr()
        assert captured.out == f"{files / 'prob.cnf'}: VALID\n{files / 'prob.smt2'}: VALID\n"
        assert captured.err == f"{files / 'second.cnf'}: error: internal error: ValueError\n"


def _let_chain(levels, op, body):
    """(let ((a1 (op x x))) (let ((a2 (op a1 a1))) ... body)): a term whose
    expansion doubles per level."""
    text = body
    for i in range(levels, 0, -1):
        prev = f"a{i - 1}" if i > 1 else "x"
        text = f"(let ((a{i} ({op} {prev} {prev}))) {text})"
    return text


def _run_within(seconds, *args):
    """run_one under a wall-clock alarm, so that a path exponential in the
    let depth fails instead of hanging; returns (outcome, elapsed)."""
    def expire(signum, frame):
        raise TimeoutError("run_one took too long")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        start = time.perf_counter()
        outcome = run_one(*args)
        return outcome, time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_let_shared_lia_lemma_checks_in_one_pass(tmp_path):
    """a40 = 2^40 x through 40 shared lets: lia visits each let body once.
    The certificate is written by hand, because printing the payload would
    expand the sharing."""
    a40_neg = _let_chain(40, "+", "(< a40 0)")
    (tmp_path / "p.smt2").write_text(
        "(set-logic QF_LIA)\n(declare-const x Int)\n"
        f"(assert (<= 0 x))\n(assert {a40_neg})\n")
    (tmp_path / "p.cert").write_text(
        f"2 lia () {{(lemma (not (<= 0 x)) (not {a40_neg}))"
        f" (farkas (0 {2 ** 40}) (1 1))}}\n3 res (2 0 1) {{}}\nqed 3\n")
    (code, report), elapsed = _run_within(
        30, str(tmp_path / "p.smt2"), str(tmp_path / "p.cert"), "check", None, False, False)
    assert (code, report) == (0, "VALID\n")
    assert elapsed < 2


def test_a_huge_dimacs_header_alone_costs_nothing(tmp_path):
    """Only the variables a clause uses are made: the 18-byte p cnf 1000000 1
    problem made a million variables (2.6 s, 388 MB) and now ends at once,
    in oracle mode and checked."""
    (tmp_path / "p.cnf").write_text("p cnf 1000000 1\n1 0\n")
    (tmp_path / "p.cert").write_text("qed 0\n")
    for proof, mode, expected in ((None, "oracle", (0, "status sat\nmodel v1 true\n")),
                                  ("p.cert", "check", (1, "INVALID: empty clause not derived\n"))):
        outcome, elapsed = _run_within(
            30, str(tmp_path / "p.cnf"), proof and str(tmp_path / proof), mode, None, False, False)
        assert outcome == expected and elapsed < 0.5, (mode, outcome, elapsed)


def test_declared_variables_that_never_occur_keep_the_reports(tmp_path):
    """A header may declare variables no clause uses.  They are not made,
    and the oracle report, the DIMACS print (header V kept) and the check
    and stats reports keep the bytes they had when every declared variable
    was made."""
    from certkernel import parse_dimacs, print_dimacs

    text = "c gaps\np cnf 9 3\n3 -7 0\n-3 9 0\n7 0\n"
    (tmp_path / "p.cnf").write_text(text)
    (tmp_path / "u.cnf").write_text(text.replace("9 3", "9 4") + "-9 0\n")
    (tmp_path / "u.cert").write_text("4 res (2 0) {}\n5 res (4 1) {}\n6 res (5 3) {}\nqed 6\n")
    assert run_one(str(tmp_path / "p.cnf"), None, "oracle", None, False, False) \
        == (0, "status sat\nmodel v3 true\nmodel v7 true\nmodel v9 true\n")
    assert print_dimacs(parse_dimacs(text)) == "p cnf 9 3\n3 -7 0\n-3 9 0\n7 0\n"
    stats = "verdict: VALID\nclauses stored: 7\nmax clause width: 2\nrule counts:\n" \
            "  input 4\n  res 3\n"
    for mode, machine, report in (("check", False, "VALID\n"),
                                  ("check", True, "verdict VALID\nsteps 3\nrule input 4\n"
                                                  "rule res 3\n"),
                                  ("stats", False, stats)):
        assert run_one(str(tmp_path / "u.cnf"), str(tmp_path / "u.cert"), mode, None,
                       machine, False) == (0, report), (mode, machine)


def test_res_lines_among_other_lines_read_in_linear_time(tmp_path):
    """A run of res lines is read in blocks, and only a res line looks
    ahead, at the start of the next line: 40 000 lines that alternate res
    and not_not lines read and check in seconds, and so does a 100 000-step
    res chain with one malformed line in its middle, whose error is
    reported there, whether or not the block reader's regex takes that
    line."""
    (tmp_path / "p.smt2").write_text("(declare-const p Bool) (assert p) (assert (not p))\n")
    lines = []
    for k in range(2, 40_002, 2):
        lines += [f"{k} not_not () {{(not p) 0}}", f"{k + 1} res ({k} 0) {{}}"]
    lines += ["40002 res (2 1) {}", "40003 res (40002 0) {}", "qed 40003"]
    (tmp_path / "p.cert").write_text("\n".join(lines) + "\n")
    (code, report), elapsed = _run_within(
        30, str(tmp_path / "p.smt2"), str(tmp_path / "p.cert"), "check", None, True, False)
    assert (code, report.split("\n")[:2]) == (0, ["verdict VALID", "steps 40002"])
    assert elapsed < 3, elapsed

    n = 100_000
    cnf = [f"p cnf {n} {n + 1}", "1 0"] + [f"-{i} {i + 1} 0" for i in range(1, n)] + [f"-{n} 0"]
    (tmp_path / "c.cnf").write_text("\n".join(cnf) + "\n")
    steps = [f"{n + 1} res (0 1) {{}}"] + [f"{n + 1 + i} res ({n + i} {i + 1}) {{}}"
                                           for i in range(1, n)]
    middle = n // 2
    for bad, error in ((f"{n + 1 + middle} res ({n + middle} {middle + 1}) {{x}}",
                        "res takes no payload"),
                       (f"{n + 2 + middle} res ({n + middle} {middle + 1}) {{}}",
                        f"step id {n + 2 + middle}, expected {n + 1 + middle}")):
        text = steps[:middle] + [bad] + steps[middle + 1:] + [f"qed {2 * n}"]
        (tmp_path / "c.cert").write_text("\n".join(text) + "\n")
        (code, report), elapsed = _run_within(
            30, str(tmp_path / "c.cnf"), str(tmp_path / "c.cert"), "check", None, False, False)
        assert code == 3 and report.startswith(f"error: line {middle + 1}, col ") \
            and report.endswith(f"{error}\n"), report
        assert elapsed < 3, elapsed


def test_rejected_lia_step_does_not_print_its_term(tmp_path):
    """A lia lemma over a 40-level let chain of (f ai ai) is rejected without
    rendering the term, whose text would be 2^40 applications long."""
    atom = _let_chain(40, "f", "(= a40 x)")
    (tmp_path / "p.smt2").write_text(
        "(set-logic QF_UF)\n(declare-sort U 0)\n(declare-const x U)\n"
        f"(declare-fun f (U U) U)\n(assert (not {atom}))\n")
    (tmp_path / "p.cert").write_text(
        f"1 lia () {{(lemma {atom}) (farkas (0 1))}}\n2 res (1 0) {{}}\nqed 2\n")
    (code, report), elapsed = _run_within(
        30, str(tmp_path / "p.smt2"), str(tmp_path / "p.cert"), "check", None, False, False)
    assert code == 1 and report == "INVALID: lia checker rejected the step (step 1)\n"
    assert elapsed < 2


def test_dead_worker_costs_only_its_own_pair(files, capsys, monkeypatch):
    """A --jobs worker that dies outright (here by os._exit, as under the
    OOM killer) gives its pair the exit-3 line; the pairs that finished
    keep their reports.  The dying pair waits until the other two are done,
    so that no finished report is lost with the pool."""
    import os
    import certkernel.cli as cli

    (files / "second.cnf").write_text("p cnf 2 2\n2 0\n-2 0\n")
    run = cli.run_one

    def dying(problem, *rest):
        if problem.endswith("prob.smt2"):
            deadline = time.monotonic() + 30
            while len(list(files.glob("*.done"))) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.5)
            os._exit(9)
        outcome = run(problem, *rest)
        (files / (os.path.basename(problem) + ".done")).write_text("")
        return outcome

    monkeypatch.setattr(cli, "run_one", dying)
    args = ["--problem", str(files / "prob.cnf"), "--proof", str(files / "cnf.cert"),
            "--problem", str(files / "prob.smt2"), "--proof", str(files / "prob.cert"),
            "--problem", str(files / "second.cnf"), "--proof", str(files / "cnf.cert"),
            "--jobs", "2"]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == f"{files / 'prob.cnf'}: VALID\n{files / 'second.cnf'}: VALID\n"
    assert captured.err == f"{files / 'prob.smt2'}: error: worker process died\n"


def test_aux_group_must_be_headed_by_aux(tmp_path):
    """A bit-blasting payload's second group is (aux <name>*); any other
    group is a parse error at the group's position, and declares nothing."""
    prob = tmp_path / "bv.smt2"
    prob.write_text("(set-logic QF_BV) (declare-const a (_ BitVec 2)) (assert (= a a))")
    cert = tmp_path / "bv.cert"
    for group in ("(foo v)", "()", "(and p q)"):
        cert.write_text(f"1 bb_var () {{a {group}}}\nqed 1\n")
        code, report = run_one(str(prob), str(cert), "check", None, False, False)
        assert (code, report) == (3, "error: line 1, col 16: expected (aux ...)\n"), group
    cert.write_text("1 bb_var () {a (aux v w)}\nqed 1\n")
    code, report = run_one(str(prob), str(cert), "check", None, False, False)
    assert code == 1 and report.startswith("INVALID"), report


def test_pairs_leave_no_cyclic_garbage(files):
    """The premise of run_one's collector pause: with the collector off,
    every corpus pair in every mode, a rejected certificate and a missing
    file leave nothing that only the cyclic collector could free."""
    (files / "bad.cert").write_text("2 res (0) {}\nqed 2\n")
    (files / "tree.nest").write_text(NESTED)
    runs = []
    for cert in sorted(CORPUS.rglob("*.cert")):
        problem = cert.with_suffix(".cnf")
        if not problem.exists():
            problem = cert.with_suffix(".smt2")
        for mode, machine in (("check", False), ("check", True), ("stats", False),
                              ("translate", False), ("oracle", False)):
            runs.append((str(problem), str(cert), mode, machine))
    runs += [(str(files / "prob.smt2"), str(files / "tree.nest"), "translate", False),
             (str(files / "prob.cnf"), str(files / "bad.cert"), "check", False),
             (str(files / "nope.smt2"), str(files / "prob.cert"), "check", False)]
    codes = []
    gc.collect()
    gc.disable()
    try:
        for problem, proof, mode, machine in runs:
            codes.append(run_one(problem, proof, mode, None, machine, False)[0])
        garbage = gc.collect()
    finally:
        gc.enable()
    assert len(runs) > 150 and codes[-3:] == [0, 1, 3]
    assert garbage == 0


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("case", ["valid", "invalid", "parse error", "internal error",
                                  "interrupt"])
def test_run_one_pauses_and_restores_the_collector(files, monkeypatch, case, collecting):
    """The collector is off while a pair runs, and afterwards it is as it
    was before, on every way out of run_one: each exit code, and an
    exception that escapes run_one."""
    import certkernel.cli as cli

    (files / "bad.cert").write_text("2 res (0) {}\nqed 2\n")
    (files / "junk.smt2").write_text("(assert (= a b)\n")
    problem, proof, expected = {
        "valid": ("prob.cnf", "cnf.cert", 0),
        "invalid": ("prob.cnf", "bad.cert", 1),
        "parse error": ("junk.smt2", "prob.cert", 3),
        "internal error": ("prob.cnf", "cnf.cert", 3),
        "interrupt": ("prob.cnf", "cnf.cert", None),
    }[case]
    read = cli._read
    paused = []

    def spy(path):
        paused.append(not gc.isenabled())
        return read(path)

    def broken(store, inputs, cert):
        raise (ValueError if case == "internal error" else KeyboardInterrupt)("bug")

    monkeypatch.setattr(cli, "_read", spy)
    if case in ("internal error", "interrupt"):
        monkeypatch.setattr(cli, "check", broken)
    args = (str(files / problem), str(files / proof), "check", None, False, False)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if expected is None:
            with pytest.raises(KeyboardInterrupt):
                run_one(*args)
        else:
            assert run_one(*args)[0] == expected
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert paused and all(paused)
    assert after is collecting


def _cli_spans():
    """``CLI_SPANS`` of ``perfbench/child.py``, read with ``ast``: importing
    the file runs it."""
    tree = ast.parse((CORPUS.parent / "perfbench" / "child.py").read_text())
    spans = [ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["CLI_SPANS"]]
    assert len(spans) == 1 and spans[0]
    return spans[0]


def test_benchmark_trace_hooks_exist():
    """The benchmark's traced mode wraps the names in ``CLI_SPANS`` of
    ``perfbench/child.py``, ``kernel.dispatch`` and ``TermStore.intern``; a
    refactor that drops or bypasses one fails here rather than in a
    benchmark run."""
    from certkernel import TermStore, cli, kernel

    spans = _cli_spans()
    for span, attr in spans:
        assert callable(getattr(cli, attr, None)), (span, attr)
    assert ("frontend.parse_certificate", "parse_certificate") in spans
    assert callable(kernel.dispatch) and "dispatch" in kernel.check.__code__.co_names
    assert callable(TermStore.intern)


def test_benchmark_trace_sees_each_layer_once_per_pair(files, monkeypatch):
    """Wrapped as the benchmark's traced mode wraps them, the cli globals in
    ``CLI_SPANS`` and ``kernel.dispatch`` see one pair of a three-block
    certificate as the benchmark expects: one call each of
    ``parse_certificate``, ``check`` and ``_machine_record``, two of
    ``_read``, and one ``dispatch`` per replayed step."""
    import certkernel.cli as cli
    from certkernel import kernel

    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for _, attr in _cli_spans():
        monkeypatch.setattr(cli, attr, counted(attr, getattr(cli, attr)))
    monkeypatch.setattr(kernel, "dispatch", counted("dispatch", kernel.dispatch))
    (files / "long.cert").write_text(_long_cert(5000))
    code, report = run_one(str(files / "prob.smt2"), str(files / "long.cert"), "check",
                           None, True, False)
    assert code == 0
    rules = {line.split()[1]: int(line.split()[2])
             for line in report.splitlines() if line.startswith("rule ")}
    assert calls == {"_read": 2, "parse_smt2": 1, "parse_certificate": 1, "check": 1,
                     "_machine_record": 1, "dispatch": sum(rules.values()) - rules["input"]}
    assert calls["dispatch"] == 5005
