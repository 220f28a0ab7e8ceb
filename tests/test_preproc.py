"""Untrusted preprocessor: linearization and compaction; assumed clauses."""

import random
from pathlib import Path

import pytest

import gens
from naive_linear import naive_linearize
from certkernel import (
    BOOL, AssumePayload, Certificate, NLet, NRef, NStep, ParseError, RuleKind, Step,
    TermStore, UnboundNameError, Verdict, check, compact, linearize, mk_clause, neg,
    parse_certificate, parse_dimacs, parse_nested_proof, parse_smt2, pos,
    print_certificate, stream_certificate,
)
from certkernel.cli import EXIT_ERROR, run_one
from certkernel.preproc import _RUN_LINES

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _conflict_store():
    store = TermStore()
    p = store.var("p", BOOL)
    inputs = [mk_clause(store, [pos(p)]), mk_clause(store, [neg(p)])]
    return store, inputs


def test_linearize_leaf_only_tree():
    store, inputs = _conflict_store()
    tree = NStep(RuleKind.RES, (
        NStep(RuleKind.RES, (0,)),
        NStep(RuleKind.RES, (1,)),
    ))
    cert = linearize(tree, 2)
    assert [s.id for s in cert.steps] == [2, 3, 4]
    assert cert.qed == 4
    assert check(store, inputs, cert).verdict is Verdict.VALID


def test_linearize_memoizes_shared_lemma():
    store, inputs = _conflict_store()
    tree = NLet("L", NStep(RuleKind.RES, (0,)),
                NStep(RuleKind.RES, ("L", NStep(RuleKind.RES, ("L", 1)))))
    cert = linearize(tree, 2)
    # L's single step appears once and is referenced twice
    assert len(cert.steps) == 3
    uses = [p for s in cert.steps for p in s.premises if p == cert.steps[0].id]
    assert len(uses) == 2
    naive = naive_linearize(tree, 2)
    assert len(naive.steps) == 4  # the duplicating reference emits L twice
    assert check(store, inputs, cert).verdict \
        == check(store, inputs, naive).verdict


def test_linearize_errors():
    with pytest.raises(UnboundNameError):
        linearize(NRef("nope"), 1)
    with pytest.raises(UnboundNameError):
        linearize(NStep(RuleKind.RES, ("ghost",)), 1)
    with pytest.raises(UnboundNameError):
        linearize(NStep(RuleKind.RES, (7,)), 1)
    shadow = NLet("L", NStep(RuleKind.RES, (0,)),
                  NLet("L", NStep(RuleKind.RES, (0,)), NRef("L")))
    with pytest.raises(UnboundNameError):
        linearize(shadow, 1)


def test_linearize_output_is_structurally_sound():
    rng = random.Random(23)
    for _ in range(100):
        store, inputs, tree = gens.gen_nested_tree(rng)
        cert = linearize(tree, len(inputs))
        for pos_, step in enumerate(cert.steps):
            assert step.id == len(inputs) + pos_
            assert all(0 <= p < step.id for p in step.premises)


def test_differential_against_naive_linearizer():
    rng = random.Random(24)
    for _ in range(300):
        store, inputs, tree = gens.gen_nested_tree(rng)
        memoized = linearize(tree, len(inputs))
        duplicated = naive_linearize(tree, len(inputs))
        assert check(store, inputs, memoized).verdict \
            == check(store, inputs, duplicated).verdict


def test_compact_drops_dead_steps_and_preserves_verdicts():
    store, inputs = _conflict_store()
    cert = Certificate((
        Step(2, RuleKind.RES, (0, 0)),    # dead
        Step(3, RuleKind.RES, (0, 1)),
        Step(4, RuleKind.RES, (2, 2)),    # dead
    ), qed=3)
    small = compact(cert, 2)
    assert len(small.steps) == 1
    assert small.steps[0].id == 2 and small.qed == 2
    assert check(store, inputs, cert).verdict \
        == check(store, inputs, small).verdict is Verdict.VALID
    # compacting an already compact certificate changes nothing
    assert compact(small, 2) == small


def test_compact_keeps_a_premise_that_names_no_earlier_step():
    """A premise past the last step or a negative one is kept as it is, and
    one of the step itself is renumbered with it, so the compact certificate
    fails for the same reason.  A step whose id is an input id is dropped,
    bb_* or not, so a premise naming that id still names the input."""
    store, inputs = _conflict_store()
    for premises, kept in (((0, 9), (0, 9)), ((0, -1), (0, -1)), ((0, 3), (0, 2))):
        cert = Certificate((Step(2, RuleKind.RES, (0, 0)), Step(3, RuleKind.RES, premises)),
                           qed=3)
        small = compact(cert, 2)
        assert small == Certificate((Step(2, RuleKind.RES, kept),), qed=2)
        assert check(store, inputs, small)[:2] == check(store, inputs, cert)[:2] \
            == (Verdict.INVALID, "bad premise reference")
    for rule in (RuleKind.RES, RuleKind.BB_VAR):
        cert = Certificate((Step(1, rule, (0, 0)), Step(2, RuleKind.RES, (0, 1))), qed=2)
        assert compact(cert, 2) == Certificate((Step(2, RuleKind.RES, (0, 1)),), qed=2)


def test_compact_differential_random():
    rng = random.Random(25)
    for _ in range(300):
        store, inputs, cert = gens.gen_random_certificate(rng)
        r1 = check(store, inputs, cert)
        r2 = check(store, inputs, compact(cert, len(inputs)))
        assert r1.verdict == r2.verdict
    for family in ("bb", "euf", "lia"):
        for _ in range(100):
            store, inputs, cert, unspliced = gens.gen_theory_certificate(rng, family)
            small = compact(cert, len(inputs))
            assert check(store, inputs, cert).verdict \
                == check(store, inputs, small).verdict is Verdict.VALID
            assert small == compact(unspliced, len(inputs))


def test_compact_keeps_every_valid_bv_blast_benchmark_pair_valid(tmp_path):
    """A bb_* step reads the maps of earlier bb_* steps and names no
    premise; compact keeps every such step, so the seed-1 bv_blast pairs
    that check VALID still do, with about a third of their steps gone."""
    manifest = gens.benchmark_generator().generate("bv_blast", 1, tmp_path)
    valid = [p for p in manifest["pairs"] if p["verdict"] == "VALID"]
    before = after = 0
    for pair in valid:
        prob = parse_smt2(Path(pair["problem"]).read_text())
        cert = parse_certificate(Path(pair["proof"]).read_text(), prob)
        small = compact(cert, len(prob.input_clauses))
        assert check(prob.store, prob.input_clauses, small).verdict is Verdict.VALID
        before, after = before + len(cert.steps), after + len(small.steps)
    assert len(valid) == 13 and after < 0.7 * before


def test_assumptions_are_the_assumed_clauses():
    store, inputs = _conflict_store()
    assert check(store, inputs, Certificate(())).assumptions == ()
    assumed = mk_clause(store, [pos(store.var("q", BOOL))])
    cert = Certificate((
        Step(2, RuleKind.ASSUME, (), AssumePayload(assumed)),
        Step(3, RuleKind.RES, (0, 1)),
    ), qed=3)
    result = check(store, inputs, cert)
    assert result.assumptions == (assumed,)
    assert result.verdict is Verdict.TRUSTED


def test_assumptions_count_the_assume_steps():
    rng = random.Random(26)
    store, inputs = _conflict_store()
    for _ in range(50):
        n = rng.randint(0, 5)
        steps = []
        for i in range(n):
            steps.append(Step(2 + i, RuleKind.ASSUME, (),
                              AssumePayload(inputs[0])))
        cert = Certificate(tuple(steps))
        assert len(check(store, inputs, cert).assumptions) == n


def test_nested_proof_concrete_syntax():
    prob = parse_smt2("""
        (declare-const p Bool)
        (assert p)
        (assert (not p))
    """)
    text = """
    (let ((L (step not_not () {(not p) 0})))
      (step res ((ref L) 1 0) {}))
    """
    tree = parse_nested_proof(text, prob)
    cert = linearize(tree, len(prob.input_clauses))
    assert check(prob.store, prob.input_clauses, cert).verdict is Verdict.VALID
    # bare names in premise lists work like (ref ...)
    text2 = """
    (let ((L (step not_not () {(not p) 0})))
      (step res (L 1 0) {}))
    """
    cert2 = linearize(parse_nested_proof(text2, prob), len(prob.input_clauses))
    assert check(prob.store, prob.input_clauses, cert2).verdict is Verdict.VALID


def test_a_100000_deep_chain_of_inline_sub_proofs_translates_and_checks(tmp_path):
    """Each step's one premise is the next step, written inline; the chain
    is read and linearized from explicit stacks, so its depth is not
    bounded by Python's."""
    n = 100_000
    text = "(step res (" * (n - 1) + "(step res (0 1) {})" + ") {})" * (n - 1) + "\n"
    problem, proof, cert = tmp_path / "p.cnf", tmp_path / "deep.proof", tmp_path / "deep.cert"
    problem.write_text("p cnf 1 2\n1 0\n-1 0\n")
    proof.write_text(text)
    code, out = run_one(str(problem), str(proof), "translate", None, False, False)
    assert code == 0 and out.count("\n") == n + 1, out[:200]
    assert out.startswith("2 res (0 1) {}\n3 res (2) {}\n")
    assert out.endswith(f"{n + 1} res ({n}) {{}}\nqed {n + 1}\n")
    cert.write_text(out)
    assert run_one(str(problem), str(cert), "check", None, False, False) == (0, "VALID\n")


def test_a_let_of_two_bindings_reads_the_last_first_and_emits_the_first_first():
    prob = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    text = "(let ((A (step res (0 1) {})) (B (step res (A) {}))) (step res (A B) {}))"
    cert = linearize(parse_nested_proof(text, prob), 2)
    assert print_certificate(prob.store, cert) == \
        "2 res (0 1) {}\n3 res (2) {}\n4 res (2 3) {}\nqed 4\n"
    with pytest.raises(ParseError, match="unknown rule second"):
        parse_nested_proof("(let ((A (step first () {})) (B (step second () {}))) (ref A))", prob)


def test_a_let_chain_of_20000_lemmas_translates_and_checks(tmp_path):
    """Each let binds one lemma and nests the next in its body; the chain
    is read and linearized in a loop, so its length is not a depth."""
    n = 20_000
    text = "(let ((L0 (step res (0 1) {}))) " \
        + "".join(f"(let ((L{i} (step res (L{i - 1}) {{}}))) " for i in range(1, n)) \
        + f"(ref L{n - 1})" + ")" * n + "\n"
    problem, proof, cert = tmp_path / "p.cnf", tmp_path / "chain.proof", tmp_path / "chain.cert"
    problem.write_text("p cnf 1 2\n1 0\n-1 0\n")
    proof.write_text(text)
    code, out = run_one(str(problem), str(proof), "translate", None, False, False)
    assert code == 0 and out.count("\n") == n + 1, out[:200]
    assert out.endswith(f"{n + 1} res ({n}) {{}}\nqed {n + 1}\n")
    cert.write_text(out)
    assert run_one(str(problem), str(cert), "check", None, False, False) == (0, "VALID\n")


def test_fault_injection_buggy_preprocessors_never_validate_sat():
    """A broken transformation may only lose verdicts, never invent them."""
    rng = random.Random(27)

    def swap_premises(cert):
        steps = tuple(Step(s.id, s.rule, tuple(reversed(s.premises)), s.payload)
                      for s in cert.steps)
        return Certificate(steps, cert.qed)

    def drop_middle(cert):
        if len(cert.steps) < 2:
            return cert
        kept = cert.steps[: len(cert.steps) // 2] + cert.steps[len(cert.steps) // 2 + 1:]
        return Certificate(kept, cert.qed)

    for _ in range(200):
        store, orig_inputs, tree = gens.gen_nested_tree(rng)
        # same clause count, same store, but a satisfiable input set
        a = store.var("p0", BOOL)
        b = store.var("p1", BOOL)
        sat = mk_clause(store, [pos(a), pos(b)])
        sat_inputs = [sat] * len(orig_inputs)
        cert = linearize(tree, len(sat_inputs))
        for bug in (swap_premises, drop_middle, lambda c: c):
            r = check(store, sat_inputs, bug(cert))
            assert r.verdict is not Verdict.VALID


_PAYLOAD_PROBLEM = """(declare-const p Bool) (declare-const q Bool) (declare-const x Int)
(assert p) (assert (not p))"""

# (step line, message, col): a euf payload is exactly (lemma ...) (just ...)
# and a lia payload (lemma ...) (farkas ...) with an optional bare tighten;
# any other group or flag, and a repeated one, is a ParseError at that item.
PAYLOAD_GRAMMAR_ERRORS = [
    ("2 euf () {(lemma (= x x)) (just (refl x)) (junk 1 2)}", "unexpected payload item junk", 43),
    ("2 euf () {(lemma (= x x)) (just (refl x)) tighten}", "unexpected payload item tighten", 43),
    ("2 euf () {(lemma (= x x)) (lemma (= x x)) (just (refl x))}",
     "repeated payload item lemma", 27),
    ("2 euf () {(just (refl x)) (lemma (= x x)) (just (refl x))}",
     "repeated payload item just", 43),
    ("2 lia () {(lemma (<= x x)) (farkas (0 1)) (just)}", "unexpected payload item just", 43),
    ("2 lia () {(lemma (<= x x)) (farkas (0 1)) extra}", "unexpected payload item extra", 43),
    ("2 lia () {(lemma (<= x x)) (farkas (0 1)) tighten tighten}",
     "repeated payload item tighten", 51),
    ("2 lia () {(lemma (<= x x)) (farkas (0 1)) (tighten)}",
     "unexpected payload item tighten", 43),
    ("2 lia () {lemma (farkas (0 1))}", "unexpected payload item lemma", 11),
]


@pytest.mark.parametrize("line, message, col", PAYLOAD_GRAMMAR_ERRORS,
                         ids=[case[0] for case in PAYLOAD_GRAMMAR_ERRORS])
def test_euf_and_lia_payloads_take_only_their_groups(line, message, col):
    """The certificate reader and its mirror in naive_term.py raise the same
    error at the offending item."""
    from naive_term import naive_parse_certificate, naive_parse_smt2
    for parse_problem, parse_cert in ((parse_smt2, parse_certificate),
                                      (naive_parse_smt2, naive_parse_certificate)):
        with pytest.raises(ParseError) as e:
            parse_cert(f"{line}\nqed 2\n", parse_problem(_PAYLOAD_PROBLEM))
        assert (str(e.value), e.value.line, e.value.col) \
            == (f"line 1, col {col}: {message}", 1, col)


@pytest.mark.parametrize("pair, old, new", [
    ("quf/cong1", "(cong f 0))}", "(cong f 0)) (junk 1 2) tighten}"),
    ("qlia/bounds", "(1 1))}", "(1 1)) (just) extra}"),
    ("quf/cong1", "(just", "(lemma (= a a)) (just"),
])
def test_corpus_pairs_with_groups_outside_the_grammar_are_read_errors(tmp_path, pair, old, new):
    """Extra groups no longer check VALID, and a second lemma group no
    longer replaces the first."""
    text = (CORPUS / f"{pair}.cert").read_text()
    assert text.count(old) == 1
    cert = tmp_path / "extra.cert"
    cert.write_text(text.replace(old, new))
    problem = str(CORPUS / f"{pair}.smt2")
    assert run_one(problem, str(CORPUS / f"{pair}.cert"), "check", None, False, False) \
        == (0, "VALID\n")
    code, report = run_one(problem, str(cert), "check", None, False, False)
    assert code == EXIT_ERROR and "payload item" in report, report


def _steps_text(n_steps, bad_line=None):
    """n_steps steps over _PAYLOAD_PROBLEM, every seventh an and_pos step,
    the others one-premise res steps, then the qed line; line bad_line, if
    given, lacks its payload's closing brace."""
    lines = [f"{i} and_pos () {{(and p q) 0}}" if i % 7 == 0 else f"{i} res (0) {{}}"
             for i in range(2, n_steps + 2)] + [f"qed {n_steps + 1}"]
    if bad_line is not None:
        lines[bad_line - 1] = lines[bad_line - 1][:-1]
    return "\n".join(lines) + "\n"


def _read_error(read, text):
    with pytest.raises(ParseError) as e:
        read(text, parse_smt2(_PAYLOAD_PROBLEM))
    return str(e.value)


@pytest.mark.parametrize("n_steps", [10, 3 * _RUN_LINES], ids=["one block", "three blocks"])
def test_stream_certificate_gives_parse_certificates_steps(n_steps):
    text = _steps_text(n_steps)
    batch = parse_certificate(text, parse_smt2(_PAYLOAD_PROBLEM))
    streamed = stream_certificate(text, parse_smt2(_PAYLOAD_PROBLEM))
    assert streamed.qed is None and batch.qed == n_steps + 1
    assert list(streamed.steps) == list(batch.steps) and len(batch.steps) == n_steps


def test_stream_certificate_raises_an_error_of_the_first_block_when_called():
    for n_steps in (10, 3 * _RUN_LINES):
        text = _steps_text(n_steps, bad_line=5)
        assert _read_error(stream_certificate, text) \
            == _read_error(parse_certificate, text) == "line 5, col 11: missing closing '}'"


def test_stream_certificate_raises_an_error_of_a_later_block_while_iterated():
    bad_line = 2 * _RUN_LINES + 10
    text = _steps_text(3 * _RUN_LINES, bad_line)
    cert = stream_certificate(text, parse_smt2(_PAYLOAD_PROBLEM))  # no error yet
    read = []
    with pytest.raises(ParseError) as e:
        for step in cert.steps:
            read.append(step)
    assert str(e.value) == _read_error(parse_certificate, text)
    assert e.value.line == bad_line and _RUN_LINES <= len(read) < bad_line
