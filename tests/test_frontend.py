"""Parsers: DIMACS, SMT-LIB subset, certificates.  Totality and round trips."""

import pathlib
import random

import pytest

import gens
from certkernel import (
    ForwardReferenceError, Kind, ParseError, UnsupportedError, Verdict, check,
    mk_clause, neg, parse_certificate, parse_dimacs, parse_smt2, pos,
    print_certificate, print_dimacs,
)
from certkernel.errors import CertKernelError

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


# -- DIMACS -------------------------------------------------------------------

def test_dimacs_basic():
    prob = parse_dimacs("c a comment\np cnf 2 2\n1 -2 0\n2 0\n")
    assert len(prob.input_clauses) == 2
    v1, v2 = prob.dimacs_vars
    assert prob.input_clauses[0] == mk_clause(prob.store, [pos(v1), neg(v2)])
    assert prob.input_clauses[1] == mk_clause(prob.store, [pos(v2)])


def test_dimacs_multiline_clause_and_empty_clause():
    prob = parse_dimacs("p cnf 2 2\n1\n-2 0\n0\n")
    assert len(prob.input_clauses[0]) == 2
    assert prob.input_clauses[1].is_empty()


def test_dimacs_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_dimacs("p cnf 1 1\n3 0\n")
    assert "out of range" in str(e.value) and e.value.line == 2
    with pytest.raises(ParseError):
        parse_dimacs("p dnf 1 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("1 0\n")
    with pytest.raises(ParseError) as e:
        parse_dimacs("p cnf 2 1\n1 2\n")
    assert "terminating 0" in str(e.value)
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 3\n1 0\n")  # clause count mismatch


def test_dimacs_round_trip_corpus():
    rng = random.Random(42)
    for _ in range(100):
        n_vars = rng.randint(1, 6)
        lines = [f"p cnf {n_vars} {rng.randint(0, 5)}"]
        n_clauses = int(lines[0].split()[-1])
        for _ in range(n_clauses):
            width = rng.randint(0, 4)
            lits = [rng.choice((1, -1)) * rng.randint(1, n_vars) for _ in range(width)]
            lines.append(" ".join(str(x) for x in lits + [0]))
        text = "\n".join(lines) + "\n"
        once = print_dimacs(parse_dimacs(text))
        twice = print_dimacs(parse_dimacs(once))
        assert once == twice


# -- SMT-LIB ------------------------------------------------------------------

def test_smt2_euf_problem():
    prob = parse_smt2("""
        (set-logic QF_UF)
        (declare-sort U 0)
        (declare-const a U)
        (declare-const b U)
        (declare-fun f (U) U)
        (assert (= a b))
        (assert (not (= (f a) (f b))))
        (check-sat)
    """)
    assert prob.logic == "QF_UF"
    assert len(prob.input_clauses) == 2
    assert all(len(c) == 1 and c.lits[0].positive for c in prob.input_clauses)


def test_smt2_arith_and_let():
    prob = parse_smt2("""
        (set-logic QF_LIA)
        (declare-const x Int)
        (assert (let ((y (* 2 x))) (<= (+ y 1) (- x 3))))
    """)
    (t,) = prob.assertions
    assert prob.store.kind(t) is Kind.LE


def test_smt2_negative_numeral_folds():
    prob = parse_smt2("(declare-const x Int)\n(assert (<= x (- 5)))\n")
    atom = prob.assertions[0]
    rhs = prob.store.args(atom)[1]
    assert prob.store.kind(rhs) is Kind.INT_CONST
    assert prob.store.node(rhs).extra == -5


def test_smt2_bool_equality_is_iff():
    prob = parse_smt2("""
        (declare-const p Bool)
        (declare-const q Bool)
        (assert (= p q))
    """)
    assert prob.store.kind(prob.assertions[0]) is Kind.IFF


def test_smt2_bv():
    prob = parse_smt2("""
        (set-logic QF_BV)
        (declare-const x (_ BitVec 3))
        (assert (bvult (bvadd x #b001) (bvnot x)))
    """)
    assert prob.store.kind(prob.assertions[0]) is Kind.BV_ULT


def test_smt2_predicate_encoding():
    prob = parse_smt2("""
        (set-logic QF_UFLIA)
        (declare-fun p (Int) Bool)
        (declare-const x Int)
        (assert (p x))
    """)
    atom = prob.assertions[0]
    assert prob.store.kind(atom) is Kind.EQ
    lhs, rhs = prob.store.args(atom)
    assert prob.store.kind(lhs) is Kind.APPLY
    assert prob.store.node(rhs).extra[0] == "$tt"


def test_smt2_unsupported_features():
    with pytest.raises(UnsupportedError):
        parse_smt2("(declare-const x Int)\n(assert (forall ((y Int)) (<= x y)))\n")
    with pytest.raises(UnsupportedError):
        parse_smt2("(declare-const x Int)\n(declare-const y Int)\n(assert (<= (* x y) 0))\n")
    with pytest.raises(UnsupportedError):
        parse_smt2("(define-fun f ((x Int)) Int x)\n")
    with pytest.raises(UnsupportedError):
        parse_smt2("(set-logic QF_NRA)\n")
    with pytest.raises(ParseError):
        parse_smt2("(declare-const $x Int)\n")
    with pytest.raises(ParseError):
        parse_smt2("(declare-const x Int)\n(assert (<= x unknown))\n")
    with pytest.raises(ParseError):
        parse_smt2("(declare-const p Bool)\n(assert (= p 1))\n")


# -- certificates -------------------------------------------------------------

def _simple_problem():
    return parse_smt2("""
        (declare-const p Bool)
        (declare-const q Bool)
        (assert p)
        (assert (not p))
    """)


def test_certificate_basic():
    prob = _simple_problem()
    # assertion 1 is the unit [ (not p) ]; link it to [not p] and resolve
    cert = parse_certificate(
        "2 not_not () {(not p) 0}\n"
        "3 res (2 1) {}\n"
        "4 res (0 3) {}\n"
        "qed 4\n", prob)
    assert len(cert.steps) == 3 and cert.qed == 4
    assert check(prob.store, prob.input_clauses, cert).verdict is Verdict.VALID


def test_certificate_errors():
    prob = _simple_problem()
    with pytest.raises(ForwardReferenceError):
        parse_certificate("2 res (3) {}\nqed 2\n", prob)
    with pytest.raises(ParseError):
        parse_certificate("5 res (0) {}\nqed 5\n", prob)  # id gap
    with pytest.raises(ParseError):
        parse_certificate("2 frobnicate (0) {}\nqed 2\n", prob)
    with pytest.raises(ParseError):
        parse_certificate("2 input () {}\nqed 2\n", prob)
    with pytest.raises(ParseError):
        parse_certificate("2 res (0 1) {}\n", prob)  # missing qed
    with pytest.raises(ForwardReferenceError):
        parse_certificate("2 res (0 1) {}\nqed 9\n", prob)
    with pytest.raises(ParseError):
        parse_certificate("2 res (0 1) {}\nqed 2\nmore\n", prob)


def test_certificate_comments_and_crlf():
    prob = _simple_problem()
    text = "; header\r\n2 res (0 1) {}\r\n\r\nqed 2\r\n"
    cert = parse_certificate(text, prob)
    assert len(cert.steps) == 1


def test_certificate_round_trip_over_generators():
    rng = random.Random(17)
    # build certificates in memory from the generator, print, parse, reprint
    for _ in range(40):
        store, inputs, cert = gens.gen_bv_pair(rng)
        # fabricate a problem wrapper so parse_certificate can resolve names
        from certkernel.frontend import Problem
        prob = Problem(store=store)
        for tid in range(len(store)):
            node = store.node(tid)
            if node.kind is Kind.VAR:
                prob.decls[node.extra[0]] = ("var", tid)
        prob.input_clauses = list(inputs)
        text = print_certificate(store, cert)
        parsed = parse_certificate(text, prob)
        assert print_certificate(store, parsed) == text
        assert check(store, inputs, parsed).verdict is Verdict.VALID


def test_certificate_round_trip_over_corpus():
    rules = set()
    certs = sorted(CORPUS.rglob("*.cert"))
    assert len(certs) == 32
    for cert_path in certs:
        prob_path = cert_path.with_suffix(".cnf")
        if not prob_path.exists():
            prob_path = cert_path.with_suffix(".smt2")
        parse = parse_dimacs if prob_path.suffix == ".cnf" else parse_smt2
        prob = parse(prob_path.read_text())
        cert = parse_certificate(cert_path.read_text(), prob)
        text = print_certificate(prob.store, cert)
        reparsed = parse_certificate(text, prob)
        assert reparsed == cert, cert_path
        assert print_certificate(prob.store, reparsed) == text, cert_path
        assert check(prob.store, prob.input_clauses, reparsed) \
            == check(prob.store, prob.input_clauses, cert), cert_path
        rules |= {step.rule for step in cert.steps}
    assert len(rules) == 21


def test_parser_totality_fuzz():
    rng = random.Random(19)
    smt = "(declare-const p Bool)\n(assert p)\n"
    cert = "1 not_not () {(not p) 0}\nqed 1\n"
    for _ in range(2000):
        kind = rng.randrange(3)
        victim = [smt, cert, "p cnf 2 1\n1 -2 0\n"][kind]
        mutated = gens.mutate_cert_text(victim, rng)
        try:
            if kind == 0:
                parse_smt2(mutated)
            elif kind == 1:
                parse_certificate(mutated, parse_smt2(smt))
            else:
                parse_dimacs(mutated)
        except CertKernelError as e:
            if isinstance(e, ParseError):
                assert e.line >= 0 and e.col >= 0


def test_deep_nesting_is_a_parse_error_not_a_crash():
    depth = 3000
    deep = "(not " * depth + "p" + ")" * depth
    with pytest.raises(ParseError) as e:
        parse_smt2(f"(declare-const p Bool)\n(assert {deep})\n")
    assert (e.value.line, e.value.col) == (2, 1)
    prob = _simple_problem()
    with pytest.raises(ParseError) as e:
        parse_certificate(f"; deep payload\n2 assume () {{{deep}}}\nqed 2\n", prob)
    assert (e.value.line, e.value.col) == (2, 1)


def test_reader_takes_any_depth():
    from certkernel.frontend import SList, read_sexprs, tokenize
    depth = 100_000
    (sx,) = read_sexprs(tokenize("(" * depth + "x" + ")" * depth))
    for _ in range(depth - 1):
        (sx,) = sx.items
        assert isinstance(sx, SList)
    assert sx.items[0].text == "x"
    with pytest.raises(ParseError, match="missing closing"):
        read_sexprs(tokenize("(" * depth + "x" + ")" * (depth - 1)))
    with pytest.raises(ParseError, match="unbalanced"):
        read_sexprs(tokenize("{" * depth + "x" + ")" * depth))


def test_parse_determinism():
    text = """
        (set-logic QF_LIA)
        (declare-const x Int)
        (assert (<= x 3))
    """
    p1 = parse_smt2(text)
    p2 = parse_smt2(text)
    assert p1.assertions == p2.assertions
    assert [c.enc for c in p1.input_clauses] == [c.enc for c in p2.input_clauses]
    assert len(p1.store) == len(p2.store)


# One or more terms per SMT-LIB operator head; the special cases are >= and
# > (swapped arguments), = over Bool (iff), the left/right folds of longer
# =>, xor and - lists, and unary - on a numeral and on a variable.
HEAD_CASES = {
    "not": ["(not p)"],
    "and": ["(and p)", "(and p q r)"],
    "or": ["(or p q)"],
    "=>": ["(=> p q)", "(=> p q r)"],
    "xor": ["(xor p q)", "(xor p q r)"],
    "ite": ["(ite p x y)", "(ite p q r)"],
    "=": ["(= x y)", "(= p q)", "(= a b)"],
    "<=": ["(<= x y)"],
    "<": ["(< x y)"],
    ">=": ["(>= x y)"],
    ">": ["(> x (+ y 1))"],
    "+": ["(+ x y)", "(+ x y 3)"],
    "-": ["(- x y)", "(- x y z)", "(- 5)", "(- x)"],
    "*": ["(* 2 x)", "(* x 3)"],
    "bvnot": ["(bvnot a)"],
    "bvand": ["(bvand a b)"],
    "bvor": ["(bvor a #b0101)"],
    "bvxor": ["(bvxor a b)"],
    "bvadd": ["(bvadd a b)"],
    "bvult": ["(bvult a b)"],
}

_HEAD_DECLS = """
    (declare-const p Bool) (declare-const q Bool) (declare-const r Bool)
    (declare-const x Int) (declare-const y Int) (declare-const z Int)
    (declare-const a (_ BitVec 4)) (declare-const b (_ BitVec 4))
"""


def _term(prob, text):
    from certkernel.frontend import parse_term, read_sexprs, tokenize
    (sx,) = read_sexprs(tokenize(text))
    return parse_term(prob, sx)


def test_head_cases_cover_every_head():
    from certkernel.frontend import _HEADS
    assert set(HEAD_CASES) == set(_HEADS)


@pytest.mark.parametrize("head", list(HEAD_CASES))
def test_operator_head_round_trip(head):
    prob = parse_smt2(_HEAD_DECLS)
    for text in HEAD_CASES[head]:
        t = _term(prob, text)
        assert _term(prob, prob.store.to_sexpr(t)) == t, text


def test_operator_head_special_cases():
    prob = parse_smt2(_HEAD_DECLS)
    store = prob.store
    p, q, r, x, y, z = (_term(prob, n) for n in "pqrxyz")
    assert _term(prob, "(>= x y)") == store.le(y, x)
    assert _term(prob, "(> x y)") == store.lt(y, x)
    assert _term(prob, "(= p q)") == store.iff(p, q)
    assert _term(prob, "(=> p q r)") == store.implies(p, store.implies(q, r))
    assert _term(prob, "(xor p q r)") == store.xor(store.xor(p, q), r)
    assert _term(prob, "(- x y z)") == store.sub(store.sub(x, y), z)
    assert _term(prob, "(- 5)") == store.int_const(-5)
    assert _term(prob, "(- x)") == store.neg(x)
    for text in ("(iff p q)", "(neg x)", "(true)", "(false)", "(not p q)",
                 "(=> p)", "(- )", "(bvadd a x)", "(<= x p)"):
        with pytest.raises(ParseError):
            _term(prob, text)
    with pytest.raises(UnsupportedError):
        _term(prob, "(= x y z)")
