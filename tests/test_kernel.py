"""Main checker: replay, dispatch, verdicts, reports."""

import random
from pathlib import Path

import gens
from certkernel import (
    BOOL, AssumePayload, BitVecSort, BvPayload, Certificate, CheckContext,
    CnfPayload, EqRule, EqStep, EufPayload, LiaPayload, RuleKind, Step,
    TRIVIALLY_TRUE, TermStore, Verdict, brute_unsat, check, dispatch, mk_clause,
    neg, parse_certificate, parse_dimacs, parse_smt2, pos, stats_report,
)
from certkernel.cli import run_one
from certkernel.kernel import RULES
from certkernel.oracle import UNSAT


def _unit_conflict():
    store = TermStore()
    p = store.var("p", BOOL)
    inputs = [mk_clause(store, [pos(p)]), mk_clause(store, [neg(p)])]
    return store, inputs


def test_unit_resolution_to_empty_is_valid():
    store, inputs = _unit_conflict()
    cert = Certificate((Step(2, RuleKind.RES, (0, 1)),), qed=2)
    result = check(store, inputs, cert)
    assert result.verdict is Verdict.VALID
    assert result.rule_count(RuleKind.RES) == 1
    assert result.rule_count(RuleKind.INPUT) == 2


def test_empty_certificate_is_invalid():
    store = TermStore()
    p = store.var("p", BOOL)
    result = check(store, [mk_clause(store, [pos(p)])], Certificate(()))
    assert result.verdict is Verdict.INVALID
    assert result.reason == "empty clause not derived"


def test_empty_input_clause_is_immediately_valid():
    store = TermStore()
    result = check(store, [mk_clause(store, [])], Certificate(()))
    assert result.verdict is Verdict.VALID


def test_structural_failures():
    store, inputs = _unit_conflict()
    # non-sequential step id
    r = check(store, inputs, Certificate((Step(5, RuleKind.RES, (0, 1)),)))
    assert r.verdict is Verdict.INVALID and r.step_id == 5
    # forward premise
    r = check(store, inputs, Certificate((Step(2, RuleKind.RES, (0, 3)),)))
    assert r.verdict is Verdict.INVALID and "premise" in r.reason
    # a negative premise (Python indexing would take -1 for the last slot)
    # and a premise naming the step itself
    for premises in ((0, -1), (2, 1)):
        r = check(store, inputs, Certificate((Step(2, RuleKind.RES, premises),)))
        assert (r.verdict, r.reason, r.step_id) == \
            (Verdict.INVALID, "bad premise reference", 2), premises
    # payload/rule mismatch
    r = check(store, inputs, Certificate((Step(2, RuleKind.RES, (0,),
                                               CnfPayload(0)),)))
    assert r.verdict is Verdict.INVALID and "payload" in r.reason


def test_declared_conclusion_rejection_stops_the_run():
    store, inputs = _unit_conflict()
    a = store.var("a", BOOL)
    # a lia step whose checker cannot validate its declared lemma
    lemma = mk_clause(store, [pos(a)])
    cert = Certificate((Step(2, RuleKind.LIA, (), LiaPayload(lemma, ((0, 1),))),))
    r = check(store, inputs, cert)
    assert r.verdict is Verdict.INVALID
    assert "rejected" in r.reason and r.step_id == 2


def test_rejected_res_step_is_stored_not_fatal():
    store, inputs = _unit_conflict()
    cert = Certificate((
        Step(2, RuleKind.RES, (0, 0)),   # no pivot: stores the trivially true clause
        Step(3, RuleKind.RES, (0, 1)),   # still reaches the empty clause
    ), qed=3)
    r = check(store, inputs, cert)
    assert r.verdict is Verdict.VALID


def test_assume_downgrades_to_trusted():
    store = TermStore()
    p = store.var("p", BOOL)
    q = store.var("q", BOOL)
    inputs = [mk_clause(store, [pos(p)])]
    assumed = mk_clause(store, [neg(p), pos(q)])
    cert = Certificate((
        Step(1, RuleKind.ASSUME, (), AssumePayload(assumed)),
        Step(2, RuleKind.RES, (0, 1)),
        Step(3, RuleKind.ASSUME, (), AssumePayload(mk_clause(store, [neg(q)]))),
        Step(4, RuleKind.RES, (2, 3)),
    ), qed=4)
    r = check(store, inputs, cert)
    assert r.verdict is Verdict.TRUSTED
    assert r.assumptions == (assumed, mk_clause(store, [neg(q)]))


def test_replay_stops_at_first_empty_clause():
    store, inputs = _unit_conflict()
    cert = Certificate((
        Step(2, RuleKind.RES, (0, 1)),
        Step(3, RuleKind.ASSUME, (), AssumePayload(mk_clause(store, []))),
    ), qed=2)
    r = check(store, inputs, cert)
    # the assume after the conflict is never replayed, so the run stays VALID
    assert r.verdict is Verdict.VALID
    assert r.rule_count(RuleKind.ASSUME) == 0


def test_dispatch_examples():
    store = TermStore()
    p = store.var("p", BOOL)
    q = store.var("q", BOOL)
    ctx = CheckContext(store)
    out = dispatch(ctx, RuleKind.RES,
                   [mk_clause(store, [pos(p), pos(q)]), mk_clause(store, [neg(p)])],
                   None)
    assert out == mk_clause(store, [pos(q)])
    # malformed euf chain: rejection convention
    bad = EufPayload(mk_clause(store, [pos(p)]), (EqStep(EqRule.SYM, refs=(4,)),))
    assert dispatch(ctx, RuleKind.EUF, [], bad) == TRIVIALLY_TRUE


def test_every_rule_but_input_has_one_registry_entry():
    # dict keys are unique, so equal key sets mean exactly one entry each
    assert set(RULES) == set(RuleKind) - {RuleKind.INPUT}


def test_euf_end_to_end_with_oracle():
    rng = random.Random(5)
    for _ in range(25):
        store, inputs, cert, _payload = gens.gen_euf_pair(rng)
        r = check(store, inputs, cert)
        assert r.verdict is Verdict.VALID
        assert brute_unsat(store, inputs).status == UNSAT


def test_determinism_byte_identical_reports():
    rng = random.Random(6)
    for _ in range(20):
        store, inputs, cert, _ = gens.gen_res_pair(rng)
        r1 = check(store, inputs, cert)
        r2 = check(store, inputs, cert)
        assert stats_report(store, r1) == stats_report(store, r2)
        assert r1 == r2


def test_stats_report_contents():
    store, inputs = _unit_conflict()
    cert = Certificate((Step(2, RuleKind.RES, (0, 1)),), qed=2)
    report = stats_report(store, check(store, inputs, cert))
    assert "verdict: VALID" in report
    assert "input 2" in report and "res 1" in report
    assert "clauses stored: 3" in report
    empty = stats_report(store, check(store, inputs, Certificate(())))
    assert "verdict: INVALID" in empty


def test_stats_report_lists_assumptions():
    store = TermStore()
    p = store.var("p", BOOL)
    inputs = [mk_clause(store, [pos(p)])]
    cert = Certificate((
        Step(1, RuleKind.ASSUME, (), AssumePayload(mk_clause(store, [neg(p)]))),
        Step(2, RuleKind.RES, (0, 1)),
    ), qed=2)
    report = stats_report(store, check(store, inputs, cert))
    assert "verdict: TRUSTED" in report
    assert "assumptions:" in report
    assert "(not p)" in report


def test_mutated_certificates_never_validate_satisfiable_inputs():
    rng = random.Random(8)
    store = TermStore()
    p = store.var("p", BOOL)
    q = store.var("q", BOOL)
    inputs = [mk_clause(store, [pos(p), pos(q)]), mk_clause(store, [neg(p), pos(q)])]
    assert brute_unsat(store, inputs).status == "sat"
    rules = [RuleKind.RES, RuleKind.AND_POS, RuleKind.NOT_NOT, RuleKind.EUF]
    for _ in range(500):
        steps = []
        for i in range(rng.randint(1, 6)):
            sid = 2 + i
            rule = rng.choice(rules)
            prems = tuple(rng.randrange(sid) for _ in range(rng.randint(0, 3)))
            if rule is RuleKind.RES:
                payload = None
            elif rule is RuleKind.EUF:
                payload = EufPayload(mk_clause(store, [pos(q)]),
                                     (EqStep(EqRule.REFL, term=q),))
            else:
                payload = CnfPayload(rng.randrange(len(store)), rng.randrange(3))
            steps.append(Step(sid, rule, prems, payload))
        r = check(store, inputs, Certificate(tuple(steps)))
        assert r.verdict is not Verdict.VALID


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _corpus_pairs():
    for cert in sorted(CORPUS.rglob("*.cert")):
        prob = cert.with_suffix(".cnf")
        yield (prob if prob.exists() else cert.with_suffix(".smt2")), cert


def test_reports_do_not_depend_on_earlier_runs():
    """Checking A, then B, then A again in one process gives A's report
    byte for byte, in every output mode."""
    pairs = [(str(p), str(c)) for p, c in _corpus_pairs()]
    assert len(pairs) == 32
    for mode, machine in (("check", True), ("stats", False)):
        for (a, a_cert), (b, b_cert) in zip(pairs, pairs[1:] + pairs[:1]):
            first = run_one(a, a_cert, mode, None, machine, False)
            run_one(b, b_cert, mode, None, machine, False)
            assert run_one(a, a_cert, mode, None, machine, False) == first, a


def test_checking_one_problem_twice_gives_equal_results():
    """Replay interns into the caller's store (congruence terms, bit
    formulas); a second replay over the grown store decides the same."""
    for prob_path, cert_path in _corpus_pairs():
        text = prob_path.read_text()
        prob = parse_dimacs(text) if prob_path.suffix == ".cnf" else parse_smt2(text)
        cert = parse_certificate(cert_path.read_text(), prob)
        first = check(prob.store, prob.input_clauses, cert)
        assert check(prob.store, prob.input_clauses, cert) == first, cert_path


def test_bit_blast_scan_over_depth_10000_input():
    """The aux-freshness scan collects the variables of a deep input atom."""
    store = TermStore()
    t = store.var("p", BOOL)
    for _ in range(10_000):
        t = store.not_(t)
    x = store.var("x", BitVecSort(1))
    aux = (store.var("x0", BOOL),)
    cert = Certificate((Step(1, RuleKind.BB_VAR, (), BvPayload(x, aux)),), qed=1)
    result = check(store, [mk_clause(store, [pos(t)])], cert)
    assert result.verdict is Verdict.INVALID
    assert result.reason == "empty clause not derived"
