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


# Clause lines after "p cnf 3 1" that the reader must reject with this exact
# message, line and column: fields that are not ASCII signed numerals, a
# numeral past CPython's int-string digit limit, a literal out of range.
DIMACS_LINE_ERRORS = [
    ("1 +1 0", "expected a literal, got '+1'", 3),
    ("1 1_0 0", "expected a literal, got '1_0'", 3),
    ("2 ٣ 0", "expected a literal, got '٣'", 3),
    ("1e3 0", "expected a literal, got '1e3'", 1),
    ("1 --1 0", "expected a literal, got '--1'", 3),
    ("1 " + "7" * 5000 + " 0", "numeral too long (5000 characters)", 3),
    ("1 -4 0", "literal -4 out of range 1..3", 3),
    ("  1  4 0", "literal 4 out of range 1..3", 6),
    ("1\t2 x 0", "expected a literal, got 'x'", 5),
    ("1\xa02 4 0", "literal 4 out of range 1..3", 5),
]


def _short(text):
    """A test id for a line that may hold a numeral of thousands of digits."""
    return text if len(text) <= 24 else text[:20] + f"...({len(text)})"


@pytest.mark.parametrize("line,message,col", DIMACS_LINE_ERRORS,
                         ids=[_short(case[0]) for case in DIMACS_LINE_ERRORS])
def test_dimacs_line_errors_keep_message_and_column(line, message, col):
    with pytest.raises(ParseError) as e:
        parse_dimacs("p cnf 3 1\n" + line + "\n")
    assert (str(e.value), e.value.line, e.value.col) == (f"line 2, col {col}: {message}", 2, col)


def test_dimacs_clause_line_shapes():
    one = [(4, 7)]  # (v1 or not v2): v1, v2 intern as ids 2, 3
    for line in ("1 -2 0", "1\t-2 0", "1 -2 -0", " 1 -2 0 ", "1 -2\n0",
                 "-2 1 1 0", "01 -02 0", "1\xa0-2 0", "1\n-2 0"):
        prob = parse_dimacs("p cnf 3 1\n" + line + "\n")
        assert [c.enc for c in prob.input_clauses] == one, repr(line)
    prob = parse_dimacs("p cnf 3 3\n1 -2 0 3 0\n-3\n2\n\n1 0\n")
    assert [c.enc for c in prob.input_clauses] == [(4, 7), (8,), (4, 6, 9)]
    assert parse_dimacs("p cnf 3 2\n0 0\n").input_clauses[0].is_empty()


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


_DIMACS_PAIR = "p cnf 2 2\n1 0\n-1 0\n"

# Step lines after the two DIMACS input clauses (ids 0 and 1) that the reader
# must reject with this exact error type, message, line and column.
CERT_LINE_ERRORS = [
    ("3 res (0 1) {}", ParseError, "step id 3, expected 2", 1),
    ("2 res (3) {}", ForwardReferenceError, "premise 3 is not before step 2", 1),
    ("2 res (2) {}", ForwardReferenceError, "premise 2 is not before step 2", 1),
    ("2 res (-1 0) {}", ForwardReferenceError, "premise -1 is not before step 2", 1),
    ("2 res (0 " + "1" * 5000 + ") {}", ParseError, "numeral too long (5000 characters)", 10),
    ("2" * 5000 + " res (0 1) {}", ParseError, "numeral too long (5000 characters)", 1),
    ("2 frob (0 1) {}", ParseError, "unknown rule frob", 3),
    ("2 input (0 1) {}", ParseError, "unknown rule input", 3),
    ("2 res (0 1) {x}", ParseError, "res takes no payload", 1),
    ("2 res (0 x) {}", ParseError, "expected an integer", 10),
    ("2 res (0 ١) {}", ParseError, "unexpected character '١'", 10),
    ("2 res (0 1) {} 5", ParseError, "expected: <id> <rule> (<premises>) {<payload>}", 1),
    ("2 res (0 1) {", ParseError, "missing closing '}'", 13),
]


@pytest.mark.parametrize("line,error,message,col", CERT_LINE_ERRORS,
                         ids=[_short(case[0]) for case in CERT_LINE_ERRORS])
def test_certificate_line_errors_keep_message_and_column(line, error, message, col):
    prob = parse_dimacs(_DIMACS_PAIR)
    with pytest.raises(error) as e:
        parse_certificate("; first\n" + line + "\nqed 2\n", prob)
    assert type(e.value) is error
    assert (str(e.value), e.value.line, e.value.col) == (f"line 2, col {col}: {message}", 2, col)


def test_certificate_step_line_shapes():
    from certkernel.steps import AssumePayload, Certificate, RuleKind, Step
    prob = parse_dimacs(_DIMACS_PAIR)
    res = Certificate((Step(2, RuleKind.RES, (0, 1)),), 2)
    for line in ("2 res (0 1) {}", "2  res\t(0  1) {}", "\t2 res (0 1) {}  ",
                 "2 res (0 1) {} ; comment", "2 res(0 1){}", "02 res (00 1) {}",
                 "2 res ( 0 1 ) { }"):
        assert parse_certificate(line + "\nqed 2\n", prob) == res, repr(line)
    assert parse_certificate("2 res () {}\nqed 2\n", prob) \
        == Certificate((Step(2, RuleKind.RES, ()),), 2)
    # A payload-free line of a rule whose payload is not empty takes the
    # full reader: assume with no literals assumes the empty clause.
    assumed = parse_certificate("2 assume () {}\nqed 2\n", prob)
    assert assumed == Certificate(
        (Step(2, RuleKind.ASSUME, (), AssumePayload(mk_clause(prob.store, []))),), 2)


def _outcome(parse):
    try:
        return parse()
    except CertKernelError as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("premises", ["", "0", "0 1", "1  0", "2", "-1", "0 x", "0 " + "9" * 5000],
                         ids=_short)
def test_every_rule_reads_the_same_with_and_without_a_comment(premises):
    """A trailing comment sends a line through the full reader; for every
    registry rule and these premise lists the outcome must not change."""
    from certkernel.kernel import RULES
    prob = parse_dimacs(_DIMACS_PAIR)
    for rule in RULES:
        for step_id in (2, 3):
            line = f"{step_id} {rule.value} ({premises}) {{}}"
            plain = _outcome(lambda: parse_certificate(f"{line}\nqed 2\n", prob))
            commented = _outcome(lambda: parse_certificate(f"{line} ; x\nqed 2\n", prob))
            assert plain == commented, line


def _implication_chain(n):
    """DIMACS text of p1, p1 -> p2, ..., p(n-1) -> pn, not pn and its
    refutation by n two-premise res steps."""
    cnf = [f"p cnf {n} {n + 1}", "1 0"]
    cnf += [f"-{i} {i + 1} 0" for i in range(1, n)]
    cnf.append(f"-{n} 0")
    steps = [f"{n + 1} res (0 1) {{}}"]
    steps += [f"{n + 1 + i} res ({n + i} {i + 1}) {{}}" for i in range(1, n)]
    return "\n".join(cnf) + "\n", steps, f"qed {2 * n}\n"


def test_long_chain_reads_the_same_with_every_other_line_commented(tmp_path):
    from certkernel.cli import run_one
    cnf, steps, qed = _implication_chain(2000)
    plain = "\n".join(steps) + "\n" + qed
    mixed = "\n".join(s + " ; x" if i % 2 else s for i, s in enumerate(steps)) + "\n" + qed
    prob = parse_dimacs(cnf)
    cert = parse_certificate(plain, prob)
    assert len(cert.steps) == 2000
    assert parse_certificate(mixed, prob) == cert
    (tmp_path / "chain.cnf").write_text(cnf)
    (tmp_path / "chain.cert").write_text(mixed)
    code, report = run_one(str(tmp_path / "chain.cnf"), str(tmp_path / "chain.cert"),
                           "check", None, True, False)
    assert (code, report.split("\n")[:2]) == (0, ["verdict VALID", "steps 2000"])


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
