"""Main checker: replay, dispatch, verdicts, reports."""

import random
from pathlib import Path

import pytest

import gens
from certkernel import (
    BOOL, INT, AssumePayload, BitVecSort, BvPayload, Certificate,
    CheckContext, Clause, CnfPayload, EqRule, EqStep, EufPayload, Kind, LiaPayload, RuleKind, Step,
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
    assert dict(result.stats) == {"input": 2, "res": 1}


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
    assert "assume" not in dict(r.stats)


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
        t = store.intern(Kind.NOT, (t,))
    x = store.var("x", BitVecSort(1))
    aux = (store.var("x0", BOOL),)
    cert = Certificate((Step(1, RuleKind.BB_VAR, (), BvPayload(x, aux)),), qed=1)
    result = check(store, [mk_clause(store, [pos(t)])], cert)
    assert result.verdict is Verdict.INVALID
    assert result.reason == "empty clause not derived"


def _deep_aux_certificate(rule: RuleKind, aux_name: str):
    """Inputs (= x #b1) and (= x #b0) over a 1-bit x, refuted through the
    bb_var mapping of x to the Bool variable aux_name.  Step 2, an API-built
    assume or and_pos step, stores a clause that reaches the variable ``a``
    only 1 000 levels down."""
    store = TermStore()
    x = store.var("x", BitVecSort(1))
    one, zero = store.bv_const((True,)), store.bv_const((False,))
    eq1, eq0 = store.eq(x, one), store.eq(x, zero)
    inputs = [mk_clause(store, [pos(eq1)]), mk_clause(store, [pos(eq0)])]
    deep = store.var("a", BOOL)
    for _ in range(1_000):
        deep = store.intern(Kind.NOT, (deep,))
    earlier = (AssumePayload(mk_clause(store, [pos(deep)])) if rule is RuleKind.ASSUME
               else CnfPayload(store.intern(Kind.AND, [store.var("c", BOOL), deep])))
    v = store.var(aux_name, BOOL)
    link1 = store.intern(Kind.IFF, (eq1, v))
    link0 = store.intern(Kind.IFF, (eq0, store.intern(Kind.NOT, (v,))))
    steps = [
        (rule, (), earlier),
        (RuleKind.BB_VAR, (), BvPayload(x, (v,))),
        (RuleKind.BB_CONST, (), BvPayload(one)),
        (RuleKind.BB_CONST, (), BvPayload(zero)),
        (RuleKind.BB_EQ, (), BvPayload(eq1)),                 # 6: [(= eq1 v)]
        (RuleKind.BB_EQ, (), BvPayload(eq0)),                 # 7: [(= eq0 (not v))]
        (RuleKind.IFF_POS1, (), CnfPayload(link1)),
        (RuleKind.RES, (6, 8, 0), None),                      # 9: [v]
        (RuleKind.IFF_POS1, (), CnfPayload(link0)),
        (RuleKind.RES, (7, 10, 1), None),                     # 11: [(not v)]
        (RuleKind.NOT_NOT, (), CnfPayload(store.intern(Kind.NOT, (v,)))),
        (RuleKind.RES, (11, 12, 9), None),                    # 13: []
    ]
    cert = Certificate(tuple(Step(2 + i, *step) for i, step in enumerate(steps)), qed=13)
    return store, inputs, cert


@pytest.mark.parametrize("rule", [RuleKind.ASSUME, RuleKind.AND_POS])
def test_an_aux_reached_only_deep_in_an_earlier_conclusion_is_not_fresh(rule):
    """The freshness scan walks stored step conclusions, not only inputs, to
    any depth: naming ``a`` as the aux of x leaves x unmapped, and a fresh
    name derives the empty clause."""
    result = check(*_deep_aux_certificate(rule, "a"))
    assert (result.verdict, result.reason) == (Verdict.INVALID, "empty clause not derived")
    store, inputs, cert = _deep_aux_certificate(rule, "b")
    result = check(store, inputs, cert)
    assert result.verdict is (Verdict.TRUSTED if rule is RuleKind.ASSUME else Verdict.VALID)
    assert sum(count for _, count in result.stats) == len(inputs) + len(cert.steps)


_SHIFT_PROBLEM = """(declare-const x Int) (declare-fun f (Int) Int)
(assert (or (<= x x) (< x x))) (assert (= x x))"""


def test_negative_codes_do_not_index_the_store_from_its_end():
    """A lemma code -2k would read node k from the store's end, and that
    node shifts when an euf step interns (f x): the first lia lemma would
    read (<= x x), the second not (< x x), and res would close a proof of
    a satisfiable problem."""
    prob = parse_smt2(_SHIFT_PROBLEM)
    store = prob.store
    assert brute_unsat(store, prob.input_clauses).status == "sat"
    x, f = prob.decls["x"][1], prob.decls["f"][1]
    k = len(store) - store.le(x, x)
    steps = (
        Step(2, RuleKind.LIA, (), LiaPayload(Clause((-2 * k,)), ((0, 1),))),
        Step(3, RuleKind.EUF, (), EufPayload(
            mk_clause(store, [pos(store.eq(x, x))]),
            (EqStep(EqRule.REFL, term=x), EqStep(EqRule.CONG, refs=(0,), fun=f),
             EqStep(EqRule.REFL, term=x)))),
        Step(4, RuleKind.LIA, (), LiaPayload(Clause((-2 * k + 1,)), ((0, 1),))),
        Step(5, RuleKind.RES, (2, 4)),
    )
    result = check(store, prob.input_clauses, Certificate(steps, 5))
    assert (result.verdict, result.step_id, result.reason) \
        == (Verdict.INVALID, 2, "lia checker rejected the step")


def test_malformed_declared_clauses_are_rejected_at_their_step():
    """An euf or lia lemma, or an assume clause, whose codes are not ints,
    not strictly increasing, out of [0, 2 * len(store)) or on a non-Bool
    atom is INVALID at its step; a malformed assume clause is never stored
    or reported as the clause of another node."""
    prob = parse_smt2(_SHIFT_PROBLEM)
    store = prob.store
    x = prob.decls["x"][1]
    le, eq = 2 * store.le(x, x), 2 * store.eq(x, x)
    end = 2 * len(store)
    bad = [(-1,), (-2,), (-end,), (end,), (end + 1,), (10 ** 30,), (le + 1, le),
           (eq, eq), (2 * x,), (True,), (float(le),), (le, -1)]
    for enc in bad:
        clause = Clause(enc)
        payloads = {
            RuleKind.LIA: LiaPayload(clause, ((0, 1),)),
            RuleKind.EUF: EufPayload(clause, (EqStep(EqRule.REFL, term=x),)),
            RuleKind.ASSUME: AssumePayload(clause),
        }
        for rule, payload in payloads.items():
            cert = Certificate((Step(2, rule, (), payload), Step(3, RuleKind.RES, (2, 0))), 3)
            result = check(store, prob.input_clauses, cert)
            assert (result.verdict, result.step_id, result.reason) \
                == (Verdict.INVALID, 2, f"{rule.value} checker rejected the step"), (enc, rule)
            assert result.assumptions == () and dict(result.stats) == {"input": 2}
    # The same lemmas well formed are still accepted.
    lia = LiaPayload(mk_clause(store, [pos(store.le(x, x))]), ((0, 1),))
    euf = EufPayload(mk_clause(store, [pos(store.eq(x, x))]), (EqStep(EqRule.REFL, term=x),))
    cert = Certificate((Step(2, RuleKind.LIA, (), lia), Step(3, RuleKind.EUF, (), euf),
                        Step(4, RuleKind.ASSUME, (), AssumePayload(Clause((le,))))), 4)
    result = check(store, prob.input_clauses, cert)
    assert result.reason == "empty clause not derived"
    assert dict(result.stats) == {"input": 2, "lia": 1, "euf": 1, "assume": 1}
    assert result.assumptions == (Clause((le,)),)


def test_rejections_return_the_trivially_true_constant_itself():
    """check tells a rejection by identity, so the euf, lia and assume
    checkers reject by returning the TRIVIALLY_TRUE object itself.  Only the
    registered payload type decides whether a rejection stops the run: a
    CnfPayload subclass that carries a lemma changes nothing."""
    prob = parse_smt2(_SHIFT_PROBLEM)
    store = prob.store
    x = prob.decls["x"][1]
    ctx = CheckContext(store)
    le = mk_clause(store, [pos(store.le(x, x))])
    eq = mk_clause(store, [pos(store.eq(x, x))])
    bad = [Clause((-1,)), Clause((2 * len(store),)), Clause((2 * x,)), Clause((True,))]
    rejected = [
        (RuleKind.EUF, EufPayload(eq, (EqStep(EqRule.SYM, refs=(4,)),))),
        (RuleKind.EUF, EufPayload(le, (EqStep(EqRule.REFL, term=x),))),
        (RuleKind.LIA, LiaPayload(eq, ((0, 1),))),
        (RuleKind.LIA, LiaPayload(le, ((5, 1),))),
        *((RuleKind.EUF, EufPayload(c, (EqStep(EqRule.REFL, term=x),))) for c in bad),
        *((RuleKind.LIA, LiaPayload(c, ((0, 1),))) for c in bad),
        *((RuleKind.ASSUME, AssumePayload(c)) for c in bad),
    ]
    for rule, payload in rejected:
        assert dispatch(ctx, rule, [], payload) is TRIVIALLY_TRUE, (rule, payload)

    class LemmaCnf(CnfPayload):
        lemma = le

    store, inputs = _unit_conflict()
    cert = Certificate((Step(2, RuleKind.AND_POS, (), LemmaCnf(0)),
                        Step(3, RuleKind.RES, (0, 1))), qed=3)
    assert check(store, inputs, cert).verdict is Verdict.VALID


def test_fields_of_types_no_reader_builds_are_malformed_steps():
    """A step field of the wrong type is INVALID at its step, never an
    exception out of check."""
    store, inputs = _unit_conflict()
    t = store.intern(Kind.AND, [inputs[0].atoms()[0], store.true_id])
    x = store.var("x", INT)
    lemma = mk_clause(store, [pos(store.le(x, x))])
    steps = [Step(2, RuleKind.RES, (0, 1.0)), Step(2, RuleKind.RES, (None,)),
             Step(2, RuleKind.RES, ("1",)), Step(2, RuleKind.RES, None),
             Step(2, RuleKind.AND_POS, (), CnfPayload(1.0)),
             Step(2, RuleKind.AND_POS, (), CnfPayload(None)),
             Step(2, RuleKind.AND_POS, (), CnfPayload(t, 0.0)),
             Step(2, RuleKind.BB_VAR, (), BvPayload(None)),
             Step(2, RuleKind.LIA, (), LiaPayload(lemma, 5)),
             Step(2, RuleKind.LIA, (), LiaPayload(lemma, ((0, 1.0),))),
             Step(2, RuleKind.LIA, (), LiaPayload(lemma, ((0, 1, 2),))),
             Step(2, RuleKind.LIA, (), LiaPayload(lemma, ((0,),))),
             Step(2, RuleKind.ASSUME, (), AssumePayload(None)),
             Step(2, "res", (0, 1)), Step(2, [RuleKind.RES], (0, 1))]
    for codes in (tuple(lemma), list(lemma)):  # a lemma's codes, not a Clause
        steps += [Step(2, RuleKind.ASSUME, (), AssumePayload(codes)),
                  Step(2, RuleKind.EUF, (), EufPayload(codes, (EqStep(EqRule.REFL, term=x),))),
                  Step(2, RuleKind.LIA, (), LiaPayload(codes, ((0, 1),)))]
    for step in steps:
        result = check(store, inputs, Certificate((step,), 2))
        assert (result.verdict, result.step_id, result.reason) \
            == (Verdict.INVALID, 2, "malformed step"), step


def test_a_float_multiplier_cannot_refute_a_satisfiable_problem():
    """x = -1, y = -520251 satisfies the three asserts.  With float
    multipliers the Farkas sum rounds to 0 >= k with k >= 1, so check_lia
    would accept the lemma and three res steps would derive the empty
    clause; the step is malformed instead."""
    prob = parse_smt2(
        "(declare-const x Int) (declare-const y Int)"
        " (assert (not (<= (- (* 3 x) y) 520247))) (assert (not (<= 0 x)))"
        " (assert (not (<= y (- 520252))))")
    store = prob.store
    lemma = mk_clause(store, [pos(store.args(t)[0]) for t in prob.assertions])
    assert list(lemma) == [pos(store.args(t)[0]) for t in prob.assertions]
    combination = ((0, 9.424572654094154e17), (1, 2.8273717962282465e18),
                   (2, 9.424572654094154e17))
    cert = Certificate((
        Step(3, RuleKind.LIA, (), LiaPayload(lemma, combination)),
        *(Step(4 + i, RuleKind.NOT_NOT, (), CnfPayload(t))
          for i, t in enumerate(prob.assertions)),
        Step(7, RuleKind.RES, (3, 4, 0)), Step(8, RuleKind.RES, (7, 5, 1)),
        Step(9, RuleKind.RES, (8, 6, 2))), qed=9)
    result = check(store, prob.input_clauses, cert)
    assert (result.verdict, result.step_id, result.reason) \
        == (Verdict.INVALID, 3, "malformed step")


# Small satisfiable problems over every sort the checkers handle.
_SAT_PROBLEMS = [
    ("p cnf 3 2\n1 -2 0\n2 3 0\n", parse_dimacs),
    (_SHIFT_PROBLEM, parse_smt2),
    ("(declare-const x Int) (declare-const y Int) (declare-const p Bool)"
     " (declare-fun f (Int) Int) (assert (or (<= x y) p)) (assert (= (f x) y))"
     " (assert (not (= x y)))", parse_smt2),
    ("(declare-sort U 0) (declare-const a U) (declare-const b U) (declare-fun g (U) U)"
     " (assert (not (= (g a) (g b)))) (assert (= (g a) a))", parse_smt2),
    ("(declare-const a (_ BitVec 2)) (declare-const b (_ BitVec 2))"
     " (assert (bvult a b)) (assert (= (bvand a b) a))", parse_smt2),
]


def _raw_certificate(rng, store, funs, n_inputs):
    """Steps of any rule with arbitrary ints wherever a payload holds one."""
    size = 2 * len(store) + 2

    def num():
        return rng.choice([rng.randrange(-size, size), rng.randrange(size),
                           rng.randrange(-10 ** 6, 10 ** 6), -size * rng.randrange(1, 4),
                           10 ** rng.randrange(10, 40), 1.0, None, "1", True])

    def clause():
        codes = [num() for _ in range(rng.randrange(4))]
        numeric = all(isinstance(c, (int, float)) for c in codes)
        return Clause(tuple(sorted(set(codes))) if numeric and rng.random() < 0.5
                      else tuple(codes))

    def payload(rule):
        # the rule's payload type, or any type (a mismatch is INVALID)
        kind = (RULES[rule] if rule in RULES and rng.random() < 0.9
                else rng.choice(list(RULES.values()))).payload
        if kind is CnfPayload:
            return CnfPayload(num(), num())
        if kind is BvPayload:
            return BvPayload(num(), tuple(num() for _ in range(rng.randrange(4))))
        if kind is AssumePayload:
            return AssumePayload(clause())
        if kind is LiaPayload:
            return LiaPayload(clause(), tuple((num(), num()) for _ in range(rng.randrange(4))),
                              rng.random() < 0.5)
        if kind is EufPayload:
            just = tuple(EqStep(rng.choice(list(EqRule)), term=num(),
                                refs=tuple(num() for _ in range(rng.randrange(3))),
                                fun=rng.choice(funs), hyp=num())
                         for _ in range(rng.randrange(4)))
            return EufPayload(clause(), just)
        return None

    steps = []
    for i in range(rng.randrange(1, 7)):
        sid = n_inputs + i if rng.random() < 0.9 else num()
        rule = rng.choice(list(RuleKind))
        premises = tuple(rng.randrange(-2, n_inputs + i + 2) if rng.random() < 0.8 else num()
                         for _ in range(rng.randrange(4)))
        steps.append(Step(sid, rule, premises, payload(rule)))
    return Certificate(tuple(steps), num())


def test_raw_certificates_never_crash_or_validate_satisfiable_inputs():
    rng = random.Random(11)
    for text, parse in _SAT_PROBLEMS:
        prob = parse(text)
        assert brute_unsat(prob.store, prob.input_clauses).status == "sat", text
        funs = [None, "f", 0] + [d[1] for d in prob.decls.values() if d[0] != "var"]
        for _ in range(1500):
            cert = _raw_certificate(rng, prob.store, funs, len(prob.input_clauses))
            result = check(prob.store, prob.input_clauses, cert)
            assert result.verdict is not Verdict.VALID, cert
