"""Command-line interface: exit codes, output formats, modes."""

import signal
import subprocess
import sys
import time

import pytest

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


def test_missing_file_exits_three(files, capsys):
    code = main(["--problem", str(files / "nope.smt2"),
                 "--proof", str(files / "prob.cert")])
    assert code == 3


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
    nested.write_text(
        "(let ((L (step euf () {(lemma (not (= a b)) (= (f a) (f b)))"
        " (just (hyp 0) (cong f 0))})))\n"
        "  (step res ((step not_not () {(not (= (f a) (f b))) 0})"
        " 1 L 0) {}))\n")
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


def test_stdin_dash(files):
    proc = subprocess.run(
        [sys.executable, "-m", "certkernel.cli",
         "--problem", str(files / "prob.cnf"), "--proof", "-"],
        input=DIMACS_CERT, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "VALID"


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


def test_mismatched_pair_counts(files, capsys):
    assert main(["--problem", str(files / "prob.cnf")]) == 3


def test_deeply_nested_input_exits_three(tmp_path, capsys):
    depth = 3000
    (tmp_path / "deep.smt2").write_text(
        "(declare-const p Bool)\n(assert " + "(not " * depth + "p" + ")" * depth + ")\n")
    (tmp_path / "empty.cert").write_text("qed 0\n")
    code = main(["--problem", str(tmp_path / "deep.smt2"),
                 "--proof", str(tmp_path / "empty.cert")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


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

    (files / "second.cnf").write_text("p cnf 2 2\n2 0\n-2 0\n")
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
