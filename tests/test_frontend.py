"""Parsers: DIMACS, SMT-LIB subset, certificates.  Totality and round trips."""

import pathlib
import random
import re

import pytest

import gens
from certkernel import (
    AssumePayload, BOOL, Certificate, ForwardReferenceError, Kind, ParseError, TermStore,
    UnsupportedError, Verdict, check, mk_clause, neg, parse_certificate, parse_dimacs,
    parse_nested_proof, parse_smt2, pos, print_certificate, print_dimacs, to_sexpr,
)
from certkernel.errors import CertKernelError

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


# -- DIMACS -------------------------------------------------------------------

def test_dimacs_basic():
    prob = parse_dimacs("c a comment\np cnf 2 2\n1 -2 0\n2 0\n")
    assert len(prob.input_clauses) == 2
    nodes = len(prob.store)
    v1, v2 = (prob.store.var(name, BOOL) for name in ("v1", "v2"))
    assert len(prob.store) == nodes
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
    # the last line is the one reported: after valid lines, with \r, \x0b
    # and \x0c inside it (only \n breaks a line), and for a last clause
    # without its 0
    ("1 0\n-2 0\n1 x 0", "expected a literal, got 'x'", 3),
    ("1 0\r2 0\x0b4 0", "literal 4 out of range 1..3", 9),
    ("1 0\x0c-3 -9 0", "literal -9 out of range 1..3", 8),
    ("1 0\nc note\n2 0\n-4 0", "literal -4 out of range 1..3", 1),
    ("1 -2", "last clause is missing its terminating 0", 1),
    ("1 0\n2 -3 0\n3", "last clause is missing its terminating 0", 1),
]


def _short(text):
    """A test id for a line that may hold a numeral of thousands of digits."""
    return text if len(text) <= 24 else text[:20] + f"...({len(text)})"


@pytest.mark.parametrize("line,message,col", DIMACS_LINE_ERRORS,
                         ids=[_short(case[0]) for case in DIMACS_LINE_ERRORS])
def test_dimacs_line_errors_keep_message_and_column(line, message, col):
    text = "p cnf 3 1\n" + line + "\n"
    with pytest.raises(ParseError) as e:
        parse_dimacs(text)
    n = text.count("\n")
    assert (str(e.value), e.value.line, e.value.col) == (f"line {n}, col {col}: {message}", n, col)


def test_dimacs_clause_line_shapes():
    one = [(4, 7)]  # (v1 or not v2): v1, v2 intern as ids 2, 3
    for line in ("1 -2 0", "1\t-2 0", "1 -2 -0", " 1 -2 0 ", "1 -2\n0",
                 "-2 1 1 0", "01 -02 0", "1\xa0-2 0", "1\n-2 0", "1\nc note\n-2 0",
                 "1\r-2 0", "1\r\n-2 0\r\n", "1\x0b-2\x0c0", "1 -2 0\x0c\x0b"):
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


@pytest.mark.parametrize("body", ["1 0\n", "c slow path\n1 0\n"])
def test_a_huge_dimacs_header_costs_no_memory(body):
    """The largest numeral in the body, not the header's V, sizes the
    reader's tables: p cnf 100000000 1 allocated 100 MB for one clause,
    and it still prints with its header's V."""
    import tracemalloc

    tracemalloc.start()
    try:
        prob = parse_dimacs(f"p cnf 100000000 1\n{body}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak
    assert print_dimacs(prob) == "p cnf 100000000 1\n1 0\n"


def _reference_dimacs(text):
    """The problem of a valid DIMACS text, built as the reader built it
    before variables were reserved: one ``var`` per numeral from 1 to the
    largest in the body, used or not, in ascending order, on a plain store,
    and ``mk_clause`` per clause."""
    from certkernel.frontend import Problem
    lines = [line for line in map(str.strip, text.split("\n")) if line and line[0] != "c"]
    header, values = lines[0].split(), [int(field) for line in lines[1:] for field in line.split()]
    prob = Problem(TermStore(), "SAT")
    ids = {n: prob.store.var(f"v{n}", BOOL) for n in range(1, max(map(abs, values), default=0) + 1)}
    codes = []
    for v in values:
        if v:
            codes.append(2 * ids[abs(v)] + (v < 0))
        else:
            prob.input_clauses.append(mk_clause(prob.store, codes))
            codes = []
    prob.dimacs_header_vars = int(header[2])
    return prob


def _seeded_dimacs(rng):
    """A DIMACS text over a random subset of 1..V, so its numerals have
    gaps, with repeated and complementary literals, empty clauses and comments."""
    n_vars = rng.randint(1, 40)
    pool = rng.sample(range(1, n_vars + 1), rng.randint(1, n_vars))
    lines = []
    for _ in range(rng.randint(0, 12)):
        lits = [rng.choice((1, -1)) * rng.choice(pool) for _ in range(rng.randint(0, 6))]
        lits += lits[:rng.randint(0, 2)]
        lines.append(" ".join(map(str, lits + [0])))
        if rng.random() < 0.2:
            lines.append("c note")
    return f"p cnf {n_vars} {sum(not line.startswith('c') for line in lines)}\n" \
        + "\n".join(lines) + "\n"


def test_reserved_dimacs_variables_match_one_var_per_numeral():
    """The reserved range gives every id, node, sort, clause and printed
    byte that a store with one interned variable per numeral up to the
    largest gives, on the corpus and on seeded texts with numeral gaps."""
    rng = random.Random(26)
    texts = [path.read_text() for path in sorted(CORPUS.rglob("*.cnf"))]
    assert len(texts) == 8
    texts += [_seeded_dimacs(rng) for _ in range(200)]
    texts += ["p cnf 5 2\n0\n0\n", "p cnf 9 1\n9 -9 9 0\n", "p cnf 3 0\n"]
    for text in texts:
        prob, ref = parse_dimacs(text), _reference_dimacs(text)
        store, ref_store = prob.store, ref.store
        assert len(store) == len(ref_store), text
        assert [store.node(t) for t in range(len(store))] == \
            [ref_store.node(t) for t in range(len(ref_store))]
        assert [store.sort_of(t) for t in range(len(store))] == \
            [ref_store.sort_of(t) for t in range(len(ref_store))]
        assert prob.input_clauses == ref.input_clauses
        assert print_dimacs(prob) == print_dimacs(ref)
        for t in range(2, len(store)):
            assert store.var(store.node(t).extra[0], BOOL) == t
        assert len(store) == len(ref_store)


def test_a_reserved_name_in_a_certificate_is_the_dimacs_variable():
    """(aux v5) names the problem's variable v5, not a second atom, and so
    does v7, which no clause uses but is at most the largest numeral; v05
    and a numeral past the largest make new variables after the range."""
    prob = parse_dimacs("p cnf 9 2\n2 -5 0\n9 0\n")
    v5, v7, v9 = 6, 8, 10
    cert = parse_certificate("2 bb_const () {#b1 (aux v5 v05 v7 v10 v9)}\n"
                             "3 assume () {v5 (not v9)}\nqed 3\n", prob)
    assert cert.steps[0].payload.aux == (v5, 12, v7, 13, v9)  # #b1 is 11
    assert tuple(cert.steps[1].payload.lemma) == (pos(v5), neg(v9))
    assert [prob.store.node(t).extra[0] for t in (v7, 12, 13)] == ["v7", "v05", "v10"]
    assert prob.store.intern(Kind.VAR, (), ("v5", BOOL)) == v5


def _gap_certificate(rng, prob):
    """A certificate over a DIMACS problem: res steps over random premises,
    a bb_const step whose aux names are numerals inside and beyond the
    range (and one with a leading zero), an assume over those names, and a
    res step that uses the assumption."""
    names = [f"v{rng.randint(1, len(prob.store) + 3)}" for _ in range(rng.randint(1, 4))]
    names += ["v07"] * (rng.random() < 0.3)
    lines, next_id = [], len(prob.input_clauses)

    def res():
        nonlocal next_id
        premises = rng.sample(range(next_id), min(next_id, rng.randint(2, 3)))
        lines.append(f"{next_id} res ({' '.join(map(str, premises))}) {{}}")
        next_id += 1

    for _ in range(rng.randint(0, 3) if next_id else 0):
        res()
    lines.append(f"{next_id} bb_const () {{#b{'1' * len(names)} (aux {' '.join(names)})}}")
    lits = [name if rng.random() < 0.5 else f"(not {name})" for name in names]
    lines.append(f"{next_id + 1} assume () {{{' '.join(lits)}}}")
    next_id += 2
    res()
    return "\n".join(lines) + f"\nqed {next_id - 1}\n"


def test_dimacs_gaps_check_and_report_as_one_var_per_numeral():
    """On texts with numeral gaps, certificates whose aux and assumed names
    fall on used numerals, unused ones, ones past the largest and ones with
    a leading zero check to equal results and equal plain, --machine and
    stats reports on the reader's store and on the reference store."""
    from certkernel.printer import machine_record, plain_record, stats_report
    rng = random.Random(27)
    verdicts = set()
    for _ in range(200):
        text = _seeded_dimacs(rng)
        prob, ref = parse_dimacs(text), _reference_dimacs(text)
        cert = _gap_certificate(rng, prob)
        result = check(prob.store, prob.input_clauses, parse_certificate(cert, prob))
        ref_result = check(ref.store, ref.input_clauses, parse_certificate(cert, ref))
        assert result == ref_result, (text, cert)
        for report in (plain_record, machine_record, stats_report):
            assert report(prob.store, result) == report(ref.store, ref_result), (text, cert)
        verdicts.add(result.verdict)
    assert verdicts == set(Verdict)


def test_dimacs_variables_cost_no_record_each():
    """Once parsed, a 100 000-variable problem keeps under 20 bytes a
    variable beyond what its clauses hold: one slot in each of the node and
    sort lists.  A Node, a name and an index entry per variable kept about
    275, and a table of the used numerals 8 bytes more."""
    import tracemalloc

    n = 100_000
    text = f"p cnf {n} {n // 2}\n" + "".join(f"{i} -{i + 1} 0\n" for i in range(1, n, 2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prob = parse_dimacs(text)
        prob.input_clauses.clear()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(prob.store) == n + 2
    assert kept < 20 * n, kept / n


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


@pytest.mark.parametrize("text,sort", [
    ("(declare-sort U 0) (declare-const U U) (assert (= U U))", "U"),
    ("(declare-const U Int) (declare-sort U 0) (assert (<= U U))", "Int"),
], ids=["sort-first", "constant-first"])
def test_a_sort_and_a_constant_may_share_a_name(text, sort):
    """SMT-LIB keeps sort symbols apart from function symbols, so a sort and
    a constant may share a name, declared in either order."""
    from naive_term import naive_parse_smt2
    for read in (parse_smt2, naive_parse_smt2):
        prob = read(f"(set-logic QF_UFLIA) {text}")
        const = prob.decls["U"][1]
        assert str(prob.store.sort_of(const)) == sort and "U" in prob.sorts
        assert prob.store.args(prob.assertions[0]) == (const, const)


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


def test_smt2_reader_error_precedence_and_columns():
    """A bad character on a later line beats an unbalanced bracket on an
    earlier one; a tab and a carriage return inside a line are one column
    each."""
    text = "(declare-const p Bool)\n(assert p))\n\n\n(assert \x0b p)\n"
    with pytest.raises(ParseError) as e:
        parse_smt2(text)
    assert (str(e.value), e.value.line, e.value.col) \
        == ("line 5, col 9: unexpected character '\\x0b'", 5, 9)
    with pytest.raises(ParseError) as e:
        parse_smt2("(declare-const p Bool)\r\n(assert\tp)\r\r)\n")
    assert (str(e.value), e.value.line, e.value.col) == ("line 2, col 13: unbalanced ')'", 2, 13)


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
    # An unexpected character anywhere beats an earlier unbalanced bracket,
    # only the first unbalanced bracket is reported, and a tab is one column.
    ("2 res (0 1)) {} ١", ParseError, "unexpected character '١'", 17),
    ("2 res (0 1)) {}}", ParseError, "unbalanced ')'", 12),
    ("2 res (0 1} {)", ParseError, "unbalanced '}'", 11),
    ("2\tres (0 x) {}", ParseError, "expected an integer", 10),
    ("\t2 res (0 1) {", ParseError, "missing closing '}'", 14),
    # An error about a payload as a whole names the line's first column.
    ("  2 res (0 1) {x}", ParseError, "res takes no payload", 1),
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
    """("ok", the result) or ("error", the error's type name, its message).
    The tag tells them apart: a result may itself be a tuple."""
    try:
        return "ok", parse()
    except CertKernelError as e:
        return "error", type(e).__name__, str(e)


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


def _commented(text):
    """The same certificate with every line sent through the full reader."""
    return "".join(line + " ; x\n" for line in text.splitlines())


_MEMO_PROBLEM = """
    (declare-const p Bool) (declare-const q Bool)
    (declare-const a (_ BitVec 2)) (declare-const b (_ BitVec 2))
    (assert p) (assert (not p))
"""
# One-term payload shapes; the memo must leave every one as the full reader
# reads it, including the shapes it may not memo (two items, an aux group).
_MEMO_PAYLOADS = ["{T}", "{T 3}", "{T 007}", "{T -3}", "{T (x)}", "{T (aux)}",
                  "{T (aux v)}", "{T (and p q)}"]


def _same_with_memo_and_full_reader(texts, problem=_MEMO_PROBLEM):
    fast, full = parse_smt2(problem), parse_smt2(problem)
    for text in texts:
        assert _outcome(lambda: parse_certificate(text, fast)) \
            == _outcome(lambda: parse_certificate(_commented(text), full)), text
    assert len(fast.store) == len(full.store)
    assert fast.decls == full.decls


def test_memo_hit_reads_as_the_full_reader_for_every_rule():
    """Each payload twice, the second copy a memo hit when the first was
    memoed, for every registry rule followed or preceded by itself and by
    one rule of each payload type: the Certificate, or the error's type,
    message, line and column, must equal the full reader's."""
    from certkernel.kernel import RULES
    one_per_type = {RULES[rule].payload: rule for rule in RULES}.values()
    rule_pairs = {(rule, other) for rule in RULES for other in [rule, *one_per_type]}
    rule_pairs |= {(other, rule) for rule, other in rule_pairs}
    texts = []
    for first, second in sorted(rule_pairs, key=lambda pair: (pair[0].value, pair[1].value)):
        for term in ("p", "(and p q)"):
            for payload in _MEMO_PAYLOADS:
                # the same payload twice, and each payload after a bare term
                for lead in sorted({payload, "{T}"}):
                    texts.append(f"2 {first.value} () {lead}\n"
                                 f"3 {second.value} (2) {payload}\nqed 3\n"
                                 .replace("T", term))
    _same_with_memo_and_full_reader(texts)


def test_memo_hit_keeps_the_line_checks():
    big = "9" * 5000
    first = "2 bb_not () {(bvnot a)}\n3 and_pos () {(and p q) 1}\n"
    hits = ["4 and_pos () {(and p q) 0}", "5 and_pos () {(and p q) 0}",
            "4 and_pos (4) {(and p q) 0}", "4 and_pos (0 7) {(bvnot a)}",
            "4 and_pos (-1) {(and p q)}", f"4 and_pos (0 {big}) {{(and p q)}}",
            f"4 and_pos () {{(and p q) {big}}}", f"{big} and_pos () {{(and p q)}}",
            "4 bb_not () {(bvnot a) 0}", "4 bb_not () {(bvnot a) (aux)}",
            "4 not_not () {(bvnot a)}", "4 and_pos () {(and p q)} 5",
            "4 and_pos () {(and p q)  1}", "4 and_pos () {(and p q) 1 2}",
            "4 frob () {(and p q)}", "4 input () {(and p q)}",
            "4 euf () {(and p q)}", "4 lia () {(bvnot a)}", "4 assume () {(and p q)}",
            "4 res () {(and p q)}"]
    _same_with_memo_and_full_reader(
        [f"{first}{hit}\nqed 3\n" for hit in hits]
        + [f"{first}; {hit}\n{hit}\nqed 3\n" for hit in hits]
        # a comment after the brace must not make its text part of a term
        + ["2 not_not () {(not (not p))} ; )}\n3 not_not () {(not (not p))} ; ) 1}\nqed 3\n"])
    # A term first read under bb_not and then reused by and_pos, and the reverse.
    from certkernel.bitblast import BvPayload
    from certkernel.resolution import CnfPayload
    text = first + "4 and_pos () {(bvnot a) 2}\n5 bb_not () {(and p q)}\nqed 5\n"
    prob = parse_smt2(_MEMO_PROBLEM)
    cert = parse_certificate(text, prob)
    assert cert == parse_certificate(_commented(text), prob)
    bvnot_a, and_pq = cert.steps[0].payload.target, cert.steps[1].payload.target
    assert cert.steps[2].payload == CnfPayload(bvnot_a, 2)
    assert cert.steps[3].payload == BvPayload(and_pq)


def test_memo_is_scoped_to_one_certificate():
    """The memo lives in its problem: the same term text interns to
    different ids in problems A and B, and parsing A, B, A must give what a
    fresh parse of each gives."""
    text = ("2 and_pos () {(and p q) 0}\n3 and_pos () {(and p q) 1}\n"
            "4 bb_not () {(and q p)}\n5 not_not () {(and q p)}\nqed 5\n")
    a = "(declare-const p Bool) (declare-const q Bool) (assert p) (assert (not p))"
    b = "(declare-const r Bool) " + a
    expected = {src: parse_certificate(_commented(text), parse_smt2(src)) for src in (a, b)}
    assert expected[a] != expected[b]
    for src in (a, b, a):
        assert parse_certificate(text, parse_smt2(src)) == expected[src]


_THEORY_PROBLEM = """
    (declare-sort U 0) (declare-fun f (U) U) (declare-fun just (U) U)
    (declare-fun farkas (Int) Int) (declare-const a U) (declare-const b U)
    (declare-const x Int) (declare-const y Int)
    (assert (= a b)) (assert (not (= (f a) (f b))))
"""
_EUF = "2 euf () {(lemma (not (= a b)) (= (f a) (f b))) (just (hyp 0) (cong f 0))}"
_LIA = "2 lia () {(lemma (not (<= x y)) (not (< y x))) (farkas (0 1) (1 1))}"
_BIG = "9" * 5000
# euf and lia lines around the spelling that is read without lexing the
# whole line; each must read as the full reader reads it.
_THEORY_LINES = [
    _EUF, _LIA, _LIA.replace("))}", ")) tighten}"),
    "2 euf () {(lemma (not (= b a)) (not (= a b)) (= a b)) (just (hyp 1) (sym 0) (trans 1 0))}",
    # blanks and brackets in the lemma, which is lexed, and in the group, which is not
    _EUF.replace("(= a", "(=  a"), _EUF.replace("(not (= a b))", "(\tnot (= a b))"),
    _EUF.replace("(not ", "( not "), _EUF.replace("(not (= a b))", "(not  (= a b))"),
    _EUF.replace("(just (hyp 0)", "(just  (hyp 0)"), _EUF.replace("(hyp 0)", "(hyp\t0)"),
    _EUF.replace(") (just", ")  (just"), _EUF.replace("0))}", "0) )}"), _EUF + " ",
    _LIA.replace("(0 1)", "( 0 1)"), _LIA.replace("(1 1)", "(1  1)"),
    # comments: lexing the lemma alone would drop these, but the line is unbalanced
    "2 euf () {(lemma (= a b) ; x) (just (hyp 0))}", "2 euf () {(lemma (= a b)) ; x) (just (hyp 0))}", _EUF.replace("(= (f a)", "; (= (f a)"),
    _EUF + " ; c", _LIA.replace("(0 1)", "(0 1) ;"),
    # groups swapped, repeated or missing, tighten where it is refused
    "2 euf () {(just (hyp 0) (cong f 0)) (lemma (not (= a b)) (= (f a) (f b)))}",
    "2 lia () {(farkas (0 1) (1 1)) (lemma (not (<= x y)) (not (< y x)))}",
    _EUF.replace("{", "{(lemma) "), _LIA.replace("}", " (farkas (0 1))}"),
    _EUF.replace("))}", ")) tighten}"), _LIA.replace("))}", ")) tighten tighten}"),
    _LIA.replace("))}", ")) (tighten)}"), _LIA.replace("{", "{tighten "),
    "2 euf () {(lemma (not (= a b)) (= (f a) (f b)))}", "2 lia () {(farkas (0 1))}",
    # justification steps outside the grammar of the line path
    _EUF.replace("(hyp 0)", "(refl a)"), _EUF.replace("(hyp 0)", "(refl (f a))"),
    _EUF.replace("cong f", "cong g"), _EUF.replace("cong f", "cong a"), _EUF.replace(" 0))}", "))}"),
    _EUF.replace("cong f 0", "cong f 0 1"), _EUF.replace("cong f 0", "cong just 0"),
    _EUF.replace("(hyp 0)", "(hyp)"), _EUF.replace("(hyp 0)", "(hyp 0 1)"),
    _EUF.replace("(hyp 0)", "(sym 0 1)"), _EUF.replace("(hyp 0)", "(trans 0)"),
    _EUF.replace("(hyp 0)", "(frob 0)"), _EUF.replace("(hyp 0)", "(hyp x)"),
    _EUF.replace("(hyp 0)", "((hyp 0))"), _EUF.replace("(hyp 0)", "hyp"),
    _LIA.replace("(0 1)", "(0 1 2)"), _LIA.replace("(0 1)", "(0 x)"), _LIA.replace("(0 1)", "0"),
    # numerals
    _EUF.replace("hyp 0", "hyp 007"), _EUF.replace("hyp 0", "hyp -0"),
    _EUF.replace("hyp 0", "hyp -1"), _EUF.replace("hyp 0", "hyp 1234567890123456789"),
    _EUF.replace("hyp 0", f"hyp {_BIG}"), _EUF.replace("cong f 0", f"cong f {_BIG}"),
    _LIA.replace("(1 1)", "(1 -3)"), _LIA.replace("(1 1)", "(1 1234567890123456789)"),
    _LIA.replace("(1 1)", f"(1 {_BIG})"), _LIA.replace("(0 1)", f"({_BIG} 1)"),
    # empty groups
    "2 euf () {(lemma) (just (hyp 0))}", "2 lia () {(lemma) (farkas (0 1))}",
    _EUF.replace("(hyp 0) (cong f 0)", ""), _EUF.replace(" (hyp 0) (cong f 0)", ""),
    _LIA.replace(" (0 1) (1 1)", ""), "2 euf () {(lemma) (just)}", "2 lia () {(lemma) (farkas)}",
    # functions named just and farkas in the lemma, with and without a real group
    "2 euf () {(lemma (not (= (just a) b)) (= (f (just a)) (f b))) (just (hyp 0) (cong f 0))}",
    "2 euf () {(lemma (= (f a) (just (f b)))) (just (hyp 0))}",
    "2 euf () {(lemma (= (f a) (just (f b))))}", "2 euf () {(lemma (= (f a) (just (hyp 0))}",
    "2 lia () {(lemma (<= (farkas x) y) (<= x (farkas (farkas y)))) (farkas (0 1) (1 1))}",
    "2 lia () {(lemma (<= (farkas (farkas y)) (farkas (0 1))) (farkas (0 1))}",
    # lemmas that are not one list, unbalanced, unread or ill-sorted
    "2 euf () {(lemma (= a b) (just (hyp 0))}", "2 euf () {(lemma (= a b))) (just (hyp 0))}",
    "2 euf () {(lemma (= a b)) (lemma (= a b)) (just (hyp 0))}",
    "2 euf () {x (lemma (= a b)) (just (hyp 0))}", "2 euf () {() (just (hyp 0))}",
    "2 euf () {(lemma {= a b}) (just (hyp 0))}", "2 euf () {(lemma (= a b)}) (just (hyp 0))}",
    "2 euf () {(lemma (= a c)) (just (hyp 0))}", "2 euf () {(lemma (= a x)) (just (hyp 0))}",
    "2 euf () {(lemma (f a)) (just (hyp 0))}", "2 lia () {(lemma (<= x a)) (farkas (0 1))}",
    "2 lia () {(lemma (div x y)) (farkas (0 1))}", "2 euf () {(lemma (= a b) #) (just (hyp 0))}",
    # step heads
    _EUF.replace("2 euf ()", "3 euf ()"), _EUF.replace("2 euf ()", "2 euf (2)"),
    _EUF.replace("2 euf ()", "2 euf (0 1)"), _EUF.replace("2 euf ()", "02 euf ( 1 )"),
    _EUF.replace("2 euf ()", f"2 euf ({_BIG})"), _EUF.replace("2 euf ()", f"{_BIG} euf ()"),
    _EUF.replace("euf", "lia"), _LIA.replace("lia", "euf"), _EUF.replace("euf", "assume"),
]


def test_theory_lines_read_as_the_full_reader_reads_them():
    """Each of _THEORY_LINES alone, after itself and after the canonical euf
    and lia lines: the Certificate, or the error's type, message, line and
    column, and the store and declarations, equal the full reader's."""
    assert len(set(_THEORY_LINES)) == len(_THEORY_LINES)
    texts = [f"{line}\nqed 2\n" for line in _THEORY_LINES]
    for lead in (_EUF, _LIA):
        texts += [f"{lead}\n{line.replace('2 ', '3 ', 1)}\nqed 3\n" for line in _THEORY_LINES]
    texts += [f"{line}\n{line.replace('2 ', '3 ', 1)}\nqed 3\n" for line in _THEORY_LINES]
    _same_with_memo_and_full_reader(texts, _THEORY_PROBLEM)


def test_canonical_theory_lines_take_the_line_path(monkeypatch):
    """Canonical euf and lia lines, one with a function named just in its
    lemma, never reach the payload reader's group or justification-step
    parsers."""
    from certkernel import preproc
    calls = []
    for name in ("_tagged", "_parse_eqstep"):
        def counting(*args, real=getattr(preproc, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(preproc, name, counting)
    text = f"{_EUF}\n{_LIA.replace('2 ', '3 ', 1)}\n" \
        "4 euf () {(lemma (= (just a) (just (f b)))) (just (hyp 0) (sym 0))}\nqed 4\n"
    cert = parse_certificate(text, parse_smt2(_THEORY_PROBLEM))
    assert calls == []
    assert cert == parse_certificate(_commented(text), parse_smt2(_THEORY_PROBLEM))
    assert calls.count("_tagged") == 3 and calls.count("_parse_eqstep") == 4


def test_proof_groups_are_kept_for_one_certificate():
    """The same (cong f 0) group means different functions in problems A and
    B; reading A, B, A must give what a fresh read of each gives."""
    text = _EUF + "\n3 euf () {(lemma (not (= b a)) (= (f b) (f a))) (just (hyp 0) (cong f 0))}" \
        "\nqed 3\n"
    a = _THEORY_PROBLEM
    b = a.replace("(declare-sort U 0) (declare-fun f (U) U)",
                  "(declare-sort U 0) (declare-sort V 0) (declare-fun f (U) V)")
    b = b.replace("(not (= (f a) (f b)))", "(not (= a b))")
    expected = {src: parse_certificate(_commented(text), parse_smt2(src)) for src in (a, b)}
    assert expected[a] != expected[b]
    for src in (a, b, a):
        assert parse_certificate(text, parse_smt2(src)) == expected[src]


def test_a_line_whose_term_was_read_elsewhere_is_not_lexed(monkeypatch):
    """A CNF line whose term the problem or an earlier payload read as a
    subterm takes the line path: only the lines before it and the qed line
    build a Lexemes.  The same line with a double space or a tab is lexed.
    Each reads as the full reader reads it."""
    from certkernel import preproc
    lexemes, made = preproc.Lexemes, []

    def counting_lexemes(*args):
        made.append(args)
        return lexemes(*args)

    monkeypatch.setattr(preproc, "Lexemes", counting_lexemes)
    problem = _MEMO_PROBLEM + "(assert (or (and q p) (bvult a b)))"
    from_assert = "3 and_pos () {(and q p) 0}\nqed 3\n"
    for text, lexed in [
            (from_assert, 1),
            ("3 or_pos () {(or (and p q) p)}\n4 and_pos () {(and p q) 1}\nqed 4\n", 2),
            (from_assert.replace(" q", "  q"), 2), (from_assert.replace(" p", "\tp"), 2)]:
        made.clear()
        cert = parse_certificate(text, parse_smt2(problem))
        assert len(made) == lexed, text
        assert cert == parse_certificate(_commented(text), parse_smt2(problem)), text


_THEORY_LINE = re.compile(r"^[0-9]+ (?:euf|lia) ", re.M)
# What _mutate_theory_line puts into a line: characters and words of the
# euf and lia payload grammar, and some that are outside it.
_THEORY_EDITS = [*" \t()};-019x", " tighten", "(hyp 0) ", "(cong f 0)", "refl", "just",
                 "farkas", "lemma", "not ", "(0 1) ", "9" * 5000]


def _mutate_theory_line(text, rng):
    """The certificate text with one euf or lia line damaged: one of
    _THEORY_EDITS replaces a character, is inserted, or a character is
    deleted, at a random column."""
    lines = text.splitlines()
    i = rng.choice([k for k, line in enumerate(lines) if _THEORY_LINE.match(line)])
    line, at, op = lines[i], rng.randrange(len(lines[i])), rng.randrange(3)
    lines[i] = line[:at] + (rng.choice(_THEORY_EDITS) if op < 2 else "") + line[at + (op != 1):]
    return "\n".join(lines) + "\n"


def test_corpus_and_mutations_read_the_same_with_every_line_commented():
    rng = random.Random(23)
    pairs = []
    for cert_path in sorted(CORPUS.rglob("*.cert")):
        prob_path = cert_path.with_suffix(".cnf")
        if not prob_path.exists():
            prob_path = cert_path.with_suffix(".smt2")
        parse = parse_dimacs if prob_path.suffix == ".cnf" else parse_smt2
        pairs.append((parse, prob_path.read_text(), cert_path.read_text()))
    assert len(pairs) == 32
    cases = [(parse, src, cert) for parse, src, cert in pairs]
    for _ in range(2000):
        parse, src, cert = rng.choice(pairs)
        cases.append((parse, src, gens.mutate_cert_text(cert, rng)))
    theory = [pair for pair in pairs if _THEORY_LINE.search(pair[2])]
    for _ in range(2000):
        parse, src, cert = rng.choice(theory)
        cases.append((parse, src, _mutate_theory_line(cert, rng)))
    for parse, src, cert in cases:
        fast, full = parse(src), parse(src)
        assert _outcome(lambda: parse_certificate(cert, fast)) \
            == _outcome(lambda: parse_certificate(_commented(cert), full)), cert
        assert len(fast.store) == len(full.store)


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


def _run_cases(block):
    """(name, certificate text) pairs over the res chain of
    _implication_chain(block + 10): a block of res lines is read at once,
    and each case puts something the block reader must not take at the
    first line, inside the first block, at its last line and at the first
    line of the next block."""
    n = block + 10
    _, steps, qed = _implication_chain(n)
    body = [s + "\n" for s in steps]
    cases = [("whole chain", "".join(body) + qed),
             ("last line without a line feed", "".join(body) + qed.rstrip("\n")),
             ("res line last, without a line feed", "".join(body).rstrip("\n"))]
    for length in (1, block, block + 1):
        cases.append((f"run of {length}", "".join(body[:length]) + f"qed {n + length}\n"))
    big = "9" * 5000
    for at in (0, 700, block - 1, block):
        sid = n + 1 + at
        first, second = (0, 1) if at == 0 else (sid - 1, at + 1)
        edits = {
            "id gap": f"{sid + 1} res ({first} {second}) {{}}\n",
            "premise equal to its id": f"{sid} res ({first} {sid}) {{}}\n",
            "later premise": f"{sid} res ({sid + 3} {second}) {{}}\n",
            "no premises": f"{sid} res () {{}}\n",
            "5000-digit premise": f"{sid} res ({first} {big}) {{}}\n",
            "5000-digit id": f"{big} res ({first} {second}) {{}}\n",
            "double space": f"{sid} res ({first}  {second}) {{}}\n",
            "double space after the id": f"{sid}  res ({first} {second}) {{}}\n",
            "tab": f"{sid} res ({first}\t{second}) {{}}\n",
            "payload": f"{sid} res ({first} {second}) {{x}}\n",
            "blank line before": "\n" + body[at],
            "comment line before": "; c\n" + body[at],
            "qed before": f"qed {sid - 1}\n" + body[at],
        }
        for name, line in edits.items():
            cases.append((f"{name} at step {at}", "".join(body[:at] + [line] + body[at + 1:]) + qed))
    return cases


def test_res_runs_read_as_the_full_reader_reads_them():
    """Every case of _run_cases gives the Certificate, or the error type and
    text (message, line and column), that the same text gives with every
    line sent through the full reader."""
    from certkernel.preproc import _RUN_LINES

    cnf = _implication_chain(_RUN_LINES + 10)[0]
    prob = parse_dimacs(cnf)
    outcomes = set()
    for name, text in _run_cases(_RUN_LINES):
        ours = _outcome(lambda: parse_certificate(text, prob))
        assert ours == _outcome(lambda: parse_certificate(_commented(text), prob)), name
        outcomes.add(ours[1] if ours[0] == "error" else "certificate")
    assert outcomes == {"certificate", "ParseError", "ForwardReferenceError"}


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


def test_a_100000_deep_term_reads_in_every_reader():
    """The problem, certificate and nested-proof readers read a term of any
    depth to the same id, and report a bracket missing at the bottom of one
    at the last lexeme."""
    depth = 100_000
    deep = "(not " * depth + "p" + ")" * depth
    prob = parse_smt2(f"(declare-const p Bool)\n(assert {deep})\n")
    (t,) = prob.assertions
    cert = parse_certificate(f"; deep payload\n1 assume () {{{deep}}}\nqed 1\n", prob)
    nested = parse_nested_proof(f"(step assume () {{{deep}}})", prob)
    lemma = mk_clause(prob.store, [neg(prob.store.args(t)[0])])  # (not <atom>) is a literal
    assert cert.steps[0].payload == nested.payload == AssumePayload(lemma)
    assert to_sexpr(prob.store, t) == deep
    with pytest.raises(ParseError) as e:
        parse_smt2(f"(declare-const p Bool)\n(assert {deep[:-1]}\n")
    assert (str(e.value), e.value.line, e.value.col) \
        == ("line 2, col 600008: missing closing ')'", 2, 600_008)


def test_reader_takes_any_depth():
    from certkernel.frontend import Lexemes
    depth = 100_000
    lex = Lexemes("(" * depth + "x" + ")" * depth)
    assert lex.words == ["("] * depth + ["x"] + [")"] * depth
    assert lex.close == [2 * depth - k for k in range(depth)] + list(range(depth, 2 * depth + 1))
    assert lex.items() == [0] and lex.items(depth - 1) == [depth]
    with pytest.raises(ParseError, match="missing closing"):
        Lexemes("(" * depth + "x" + ")" * (depth - 1))
    with pytest.raises(ParseError, match="unbalanced"):
        Lexemes("{" * depth + "x" + ")" * depth)


def _read_outcome(read, text, first_line):
    try:
        return read(text, first_line)
    except ParseError as e:
        return type(e), str(e), e.line, e.col


def _lexeme_tree(text, first_line):
    """The Lexemes of text as the reference reader's trees, from its words,
    closer indices and lexeme positions."""
    from certkernel.frontend import Lexemes
    from naive_reader import SList, Token
    lex = Lexemes(text, first_line)
    root: list = []
    open_lists = [(None, root)]  # (index of the opening bracket, its items)
    for k, word in enumerate(lex.words):
        if word in ")}":
            opener, _ = open_lists.pop()
            assert lex.close[opener] == k
            continue
        assert lex.close[k] == k or word in "({"
        if word in "({":
            node = SList([], word, *lex.pos(k))
            open_lists[-1][1].append(node)
            open_lists.append((k, node.items))
        else:
            open_lists[-1][1].append(Token(word, *lex.pos(k)))
    return root


# Edit characters: brackets, braces, comments, "#", blanks, a vertical tab,
# line breaks, symbol characters, and non-ASCII digits and spaces.
_READER_EDITS = "(){};#\t\r\x0b\n a1-\u0661\u0967\u00a0\u2003"


def _corpus_files():
    return [p for p in sorted(CORPUS.rglob("*")) if p.is_file()]


def _seeded_edits():
    """(corpus file, edited text, first line) for 20 000 seeded edits of
    corpus windows."""
    paths = _corpus_files()
    texts = [p.read_text() for p in paths]
    rng = random.Random(0x5E7)
    for _ in range(20_000):
        at = rng.randrange(len(texts))
        text = texts[at]
        start = rng.randrange(len(text))
        chars = list(text[start:start + rng.randrange(1, 300)])
        for _ in range(rng.randint(1, 3)):
            at_char = rng.randrange(len(chars) + 1)
            edit = rng.random()
            if edit < 0.4 or not chars[at_char:]:
                chars.insert(at_char, rng.choice(_READER_EDITS))
            elif edit < 0.7:
                chars[at_char] = rng.choice(_READER_EDITS)
            else:
                del chars[at_char]
        yield paths[at], "".join(chars), rng.choice((1, 7))


def test_reader_matches_the_reference_reader():
    """Lexemes give the words, closer indices and positions of the trees,
    or the error type, message, line and column, of the two-pass reader in
    naive_reader.py: on every corpus file and on 20 000 seeded edits of
    corpus windows."""
    from naive_reader import naive_read_sexprs
    for path in _corpus_files():
        text = path.read_text()
        for first_line in (1, 7):
            assert _read_outcome(_lexeme_tree, text, first_line) \
                == _read_outcome(naive_read_sexprs, text, first_line)
    errors = 0
    for case, (_, edited, first_line) in enumerate(_seeded_edits()):
        ours = _read_outcome(_lexeme_tree, edited, first_line)
        assert ours == _read_outcome(naive_read_sexprs, edited, first_line), (case, edited)
        errors += isinstance(ours, tuple)
    assert 5_000 < errors < 19_000


def _lex_outcome(lexer, text, first_line):
    try:
        lex = lexer(text, first_line)
    except ParseError as e:
        return type(e), str(e), e.line, e.col
    return lex.words, lex.close


# Lexer texts: symbols, the four blanks and CRLF; comments holding stray
# characters, brackets or nothing, some with no line feed after them; the
# other characters str.split cuts at; non-ASCII letters; stray ASCII.
_LEX_ATOMS = ["abc", "x1", "#b01", "-12", "=>", "bvadd", "a.b"]
_LEX_BLANKS = [" ", "\t", "\r", "\n", "\r\n", "  \t"]
_LEX_COMMENTS = [";", "; c\n", ";x", "; é|\x85 \n", "; ( } \r\n", ";;\t"]
_LEX_STRAY = ["\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u2028", "\u3000",
              "é", "λ", "ß", "中", "|", '"', ":", ",", "[", "\\"]
# Fixed cases: a comment right after a symbol, with and without a line
# after it, comments holding stray characters, CR and CRLF line ends.
LEX_CASES = ["abc;x", "abc;x\ndef", "(a;)\n)", "( ; é\x0b\n x)", "a\r\nb\rc",
             "(a\tb)\r\n", "; only\n", "", " \t\r\n", "(a\xa0b)", "xé", "((a)", "(a))",
             "(a}", "{a)", ")", "{(})", "(a ;)", " (", "(\x85)"]


def _lexer_text(rng):
    """A seeded text: a balanced run of atoms, lists, blanks and comments,
    then up to two edits that insert a stray character, a comment or a
    bracket, or delete a character."""
    out, opened = [], []
    for _ in range(rng.randrange(1, 30)):
        r = rng.random()
        if r < 0.2:
            opened.append(rng.choice("({"))
            out.append(opened[-1])
        elif r < 0.35 and opened:
            out.append({"(": ")", "{": "}"}[opened.pop()])
        elif r < 0.7:
            out.append(rng.choice(_LEX_ATOMS))
        elif r < 0.9:
            out.append(rng.choice(_LEX_BLANKS))
        else:
            out.append(rng.choice(_LEX_COMMENTS[1::3]))  # comments that end a line
        out.append(rng.choice(["", " ", "\n"]))
    out += [{"(": ")", "{": "}"}[b] for b in reversed(opened)]
    text = "".join(out)
    for _ in range(rng.choice((0, 0, 1, 2))):
        at, r = rng.randrange(len(text) + 1), rng.random()
        if r < 0.4:
            piece = rng.choice(_LEX_STRAY)
        elif r < 0.7:
            piece = rng.choice(_LEX_COMMENTS)
        elif r < 0.85:
            piece = rng.choice("(){}")
        else:
            text, piece = text[:at] + text[at + 1:], ""
        text = text[:at] + piece + text[at:]
    return text


def test_lexer_matches_the_findall_lexer():
    """Lexemes give the words and closer indices, or the error type,
    message, line and column, of the findall lexer they replaced
    (findall_lexemes.py): on fixed cases and 20 000 seeded texts, each
    kind of outcome well represented."""
    from certkernel.frontend import Lexemes
    from findall_lexemes import FindallLexemes
    for text in LEX_CASES:
        for first_line in (1, 7):
            assert _lex_outcome(Lexemes, text, first_line) \
                == _lex_outcome(FindallLexemes, text, first_line), text
    rng = random.Random(0x1E8)
    kinds = {"ok": 0, "unexpected": 0, "unbalanced": 0, "missing": 0}
    for case in range(20_000):
        text, first_line = _lexer_text(rng), rng.choice((1, 7))
        ours = _lex_outcome(Lexemes, text, first_line)
        assert ours == _lex_outcome(FindallLexemes, text, first_line), (case, text)
        kinds["ok" if len(ours) == 2 else ours[1].split(": ")[1].split()[0]] += 1
    assert min(kinds.values()) > 500, kinds


def _pipeline_outcome(parse_problem, parse_cert, problem_text, cert_text):
    """The store nodes and sorts, problem fields and certificate a problem
    reader and a certificate reader build, or the type, message, line and
    column of the error they raise."""
    try:
        prob = parse_problem(problem_text)
        cert = None if cert_text is None else parse_cert(cert_text, prob)
    except CertKernelError as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)
    return (prob.store._nodes, prob.store._sorts, prob.logic, prob.decls, prob.sorts,
            prob.assertions, prob.input_clauses, cert)


def _both_pipelines(problem_text, cert_text=None, dimacs=False):
    from naive_term import naive_parse_certificate, naive_parse_smt2
    ours = _pipeline_outcome(parse_dimacs if dimacs else parse_smt2, parse_certificate,
                             problem_text, cert_text)
    naive = _pipeline_outcome(parse_dimacs if dimacs else naive_parse_smt2,
                              naive_parse_certificate, problem_text, cert_text)
    return ours, naive


def _certificates_in_turn(parse_problem, parse_cert, texts):
    """The certificate, or the error type and message, of each certificate
    text read in turn against one problem read from _HEAD_DECLS, then the
    store nodes, sorts and declarations that problem ends with."""
    prob = parse_problem(_HEAD_DECLS)
    outcomes = []
    for text in texts:
        try:
            outcomes.append(parse_cert(text, prob))
        except CertKernelError as e:
            outcomes.append((type(e), str(e)))
    return outcomes, prob.store._nodes, prob.store._sorts, prob.decls


# Certificates whose terms repeat subterms, each term on a line of its own:
# a subterm repeated inside a term and across lines; a let name that
# shadows a declared symbol, with the same subterm text outside and inside
# its body (read inside first, then outside, then both); a repeated let
# term; >= and > with repeated operands; and terms of 64 and 65 lexemes,
# the longest that the term reader's memo holds and the shortest it skips.
_T64, _T65 = "(and " + "p " * 61 + ")", "(and " + "p " * 62 + ")"
MEMO_CASES = [
    ["(and (or p q) (not (or p q)) (or r (or p q)))", "(=> (or p q) (xor (or p q) r))",
     "(or r (or p q))"],
    ["(and (let ((p r)) (or p q)) (or p q))", "(let ((q (or p q))) (or p q))",
     "(and (or p q) (let ((p r)) (or p q)) (or p q))", "(or p q)"],
    ["(or (let ((x y)) (<= x z)) (let ((x y)) (<= x z)))", "(and (let ((x y)) (<= x z)) p)",
     "(let ((x y)) (<= x z))"],
    ["(and (>= (+ x 1) (+ x 1)) (> (+ x 1) (+ y 2)) (< (+ y 2) (+ x 1)))",
     "(or (> (+ y 2) (+ x 1)) (>= (+ x 1) (+ y 2)))"],
    [f"(or {_T64} {_T64})", f"(or {_T65} {_T65})", f"(and {_T65} q)", _T64, _T65],
]
# A read that fails on a name no declaration gives, after its first
# subterm is read, and the same text once an aux group declares the name.
MEMO_AFTER_AUX = [
    "0 and_pos () {(and (or p q) (xor n (or p q)))}\nqed 0\n",
    "0 bb_var () {a (aux n)}\n1 and_pos () {(and (or p q) (xor n (or p q)))}\nqed 1\n",
    "0 and_pos () {(or (xor n (or p q)) (and (or p q) (xor n (or p q))))}\nqed 0\n",
]


def test_term_memo_holds_closed_terms_of_at_most_64_lexemes():
    """The memo keys a term by its lexemes joined by blanks; it holds every
    root term, no subterm of 65 lexemes and none read while a let name is in
    scope, holds a let term once its names are restored, and keeps nothing
    of a read that fails but the subterms read before the failure."""
    prob = parse_smt2(_HEAD_DECLS)
    memo = prob.term_memo
    t64 = _term(prob, f"(or {_T64} {_T65} (let ((p r)) (and (or p q) q)))")
    key64, key65 = "( and " + "p " * 61 + ")", "( and " + "p " * 62 + ")"
    assert memo[key64] == _term(prob, _T64) and key65 not in memo
    _term(prob, _T65)
    assert memo[key65] == prob.store.args(t64)[1]
    assert "( or p q )" not in memo and "( and ( or p q ) q )" not in memo
    assert memo["( let ( ( p r ) ) ( and ( or p q ) q ) )"] == prob.store.args(t64)[2]
    with pytest.raises(ParseError, match="unknown symbol n"):
        _term(prob, "(and (or p q) (xor n (or p q)))")
    assert "( or p q )" in memo and not any("xor" in key for key in memo)


def test_readers_match_the_naive_pipeline():
    """parse_smt2 and parse_certificate build what the tree readers in
    naive_term.py build, store nodes in the same order included, or raise
    the same error: on every corpus pair, on the head cases, on the memo
    cases, on the euf and lia lines of _THEORY_LINES, and on the 20 000
    seeded edits of corpus windows, each read as a problem and as a
    certificate against its pair's problem."""
    pairs = {}
    for cert_path in sorted(CORPUS.rglob("*.cert")):
        prob_path = cert_path.with_suffix(".cnf")
        if not prob_path.exists():
            prob_path = cert_path.with_suffix(".smt2")
        pair = (prob_path.read_text(), prob_path.suffix == ".cnf")
        pairs[cert_path] = pairs[prob_path] = pair
        ours, naive = _both_pipelines(pair[0], cert_path.read_text(), pair[1])
        assert ours == naive and not isinstance(ours[0], type), cert_path
    for text in [t for texts in HEAD_CASES.values() for t in texts] + LET_CASES:
        ours, naive = _both_pipelines(_HEAD_DECLS, f"0 and_pos () {{{text}}}\nqed 0\n")
        assert ours == naive and not isinstance(ours[0], type), text
    for line in _THEORY_LINES:
        ours, naive = _both_pipelines(_THEORY_PROBLEM, f"{line}\nqed 2\n")
        assert ours == naive, line
    from naive_term import naive_parse_certificate, naive_parse_smt2
    for terms in MEMO_CASES:
        cert_text = "".join(f"{i} and_pos () {{{t}}}\n" for i, t in enumerate(terms))
        ours, naive = _both_pipelines(_HEAD_DECLS, cert_text + f"qed {len(terms) - 1}\n")
        assert ours == naive and not isinstance(ours[0], type), terms
    ours, naive = (_certificates_in_turn(parse_smt2, parse_certificate, MEMO_AFTER_AUX),
                   _certificates_in_turn(naive_parse_smt2, naive_parse_certificate,
                                         MEMO_AFTER_AUX))
    assert ours == naive and [type(c) for c in ours[0]] == [tuple, Certificate, Certificate]
    outcomes = set()
    for case, (path, edited, _) in enumerate(_seeded_edits()):
        ours, naive = _both_pipelines(edited)
        assert ours == naive, (case, edited)
        outcomes.add(isinstance(ours[0], type))
        problem_text, dimacs = pairs.get(path, (_BRACE_PROBLEM, False))
        ours, naive = _both_pipelines(problem_text, edited, dimacs)
        assert ours == naive, (case, edited)
        outcomes.add(isinstance(ours[0], type))
    assert outcomes == {True, False}


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
    from certkernel.frontend import Lexemes, read_term
    lex = Lexemes(text)
    (k,) = lex.items()
    return read_term(prob, lex, k)


def test_head_cases_cover_every_head():
    from certkernel.frontend import _HEADS
    assert set(HEAD_CASES) == set(_HEADS)


@pytest.mark.parametrize("head", list(HEAD_CASES))
def test_operator_head_round_trip(head):
    prob = parse_smt2(_HEAD_DECLS)
    for text in HEAD_CASES[head]:
        t = _term(prob, text)
        assert _term(prob, to_sexpr(prob.store, t)) == t, text


# Lets whose bindings are parallel, shadow a declaration or an outer let
# (and give it back after their body), bind a name twice (the last binding
# wins), and nest in a binding, a body and an operator's arguments.
LET_CASES = [
    "(let ((p q) (q p)) (and p (not q)))",
    "(let ((x (+ x 1))) (let ((x (+ x 2)) (y x)) (<= x y)))",
    "(let ((p (let ((q p)) (or q r)))) (=> p q))",
    "(>= (let ((y 3)) (+ x y)) (let ((x 4)) (- x y)))",
    "(let () (let ((a (bvadd a b)) (b a)) (bvult a b)))",
    "(let ((x 1) (y x) (x 2)) (+ x y))",
    "(let ((y 5)) (and (let ((x 1) (y 2)) (<= x y)) (<= x y)))",
    "(let ((q (let ((p q) (q p)) (xor p q)))) (and p q (let ((p r)) p) p))",
    "(+ (let ((x y)) x) x)",
]
LET_SAME = [
    "(and q (not p))", "(<= (+ (+ x 1) 2) (+ x 1))", "(=> (or p r) q)",
    "(<= (- 4 y) (+ x 3))", "(bvult (bvadd a b) a)", "(+ 2 x)",
    "(and (<= 1 2) (<= x 5))", "(and p (xor q p) r p)", "(+ y x)",
]


def test_let_bindings_are_parallel_and_scoped():
    prob = parse_smt2(_HEAD_DECLS)
    for text, same in zip(LET_CASES, LET_SAME, strict=True):
        assert _term(prob, text) == _term(prob, same), text


def test_operator_head_special_cases():
    prob = parse_smt2(_HEAD_DECLS)
    store = prob.store
    p, q, r, x, y, z = (_term(prob, n) for n in "pqrxyz")
    assert _term(prob, "(>= x y)") == store.le(y, x)
    assert _term(prob, "(> x y)") == store.lt(y, x)
    assert _term(prob, "(= p q)") == store.intern(Kind.IFF, (p, q))
    q_implies_r = store.intern(Kind.IMPLIES, (q, r))
    assert _term(prob, "(=> p q r)") == store.intern(Kind.IMPLIES, (p, q_implies_r))
    assert _term(prob, "(xor p q r)") == store.intern(Kind.XOR, (store.intern(Kind.XOR, (p, q)), r))
    assert _term(prob, "(- x y z)") == store.intern(Kind.SUB, (store.intern(Kind.SUB, (x, y)), z))
    assert _term(prob, "(- 5)") == store.int_const(-5)
    assert _term(prob, "(- x)") == store.intern(Kind.NEG, (x,))
    for text in ("(iff p q)", "(neg x)", "(true)", "(false)", "(not p q)",
                 "(=> p)", "(- )", "(bvadd a x)", "(<= x p)"):
        with pytest.raises(ParseError):
            _term(prob, text)
    with pytest.raises(UnsupportedError):
        _term(prob, "(= x y z)")


# -- Braces and line breaks ----------------------------------------------------

_BRACE_PROBLEM = """(declare-const p Bool) (declare-const q Bool) (declare-const x Int)
(assert p) (assert (not p))"""

# (reader, text, message, line, col): a {...} group where anything but a
# step's payload is expected is a ParseError at that group, or at the let
# whose binding list or binding it is.
BRACE_ERRORS = [
    ("smt2", "{declare-const p Bool}", "expected a command", 1, 1),
    ("smt2", "(declare-const x {_ BitVec 8})", "unknown sort", 1, 18),
    ("smt2", "(declare-fun f {Int} Int)", "malformed declare-fun", 1, 1),
    ("smt2", "(declare-const p Bool)\n(assert\n  {not p})", "malformed term", 3, 3),
    ("smt2", "(declare-const p Bool) (declare-const q Bool) (assert {and p q})",
     "malformed term", 1, 55),
    ("smt2", "(declare-const x Int) (assert (let {(y x)} (= y x)))", "malformed let", 1, 31),
    ("smt2", "(declare-const x Int) (assert (let ({y x}) (= y x)))",
     "malformed let binding", 1, 36),
    ("cert", "2 assume () {{not p}}", "malformed term", 1, 14),
    ("cert", "2 assume () {p {and p q}}", "malformed term", 1, 16),
    ("cert", "2 and_pos () {{and p q} 0}", "malformed term", 1, 15),
    ("cert", "2 euf () {{lemma (= x x)} (just (refl x))}", "malformed payload group", 1, 11),
    ("cert", "2 euf () {(lemma (= x x)) (just {refl x})}",
     "malformed justification step", 1, 33),
    ("cert", "2 lia () {(lemma (<= x x)) (farkas {0 1})}",
     "farkas entries are (index coeff) pairs", 1, 36),
    ("nested", "{step res (0 1) {}}", "malformed proof node", 1, 1),
    ("nested", "(step res ({step res (0 1) {}}) {})", "malformed proof node", 1, 12),
    ("nested", "(let {(L (step res (0 1) {}))} (ref L))", "malformed let", 1, 1),
    ("nested", "(let ({L (step res (0 1) {})}) (ref L))", "malformed let binding", 1, 1),
    ("nested", "(step assume () {{not p}})", "malformed term", 1, 18),
]


def _read_with(reader, text):
    if reader == "smt2":
        return parse_smt2(text)
    if reader == "cert":
        return parse_certificate(text + "\nqed 2\n", parse_smt2(_BRACE_PROBLEM))
    return parse_nested_proof(text, parse_smt2(_BRACE_PROBLEM))


@pytest.mark.parametrize("reader,text,message,line,col", BRACE_ERRORS,
                         ids=[f"{case[0]}:{case[1]}" for case in BRACE_ERRORS])
def test_braces_delimit_only_a_payload(reader, text, message, line, col):
    with pytest.raises(ParseError) as e:
        _read_with(reader, text)
    assert (str(e.value), e.value.line, e.value.col) \
        == (f"line {line}, col {col}: {message}", line, col)


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x85", "\u2028"], ids=repr)
def test_only_newline_breaks_a_line(brk):
    """Other Unicode line boundaries neither split a line nor shift the line
    numbers of later errors; the s-expression reader rejects them."""
    def error(parse):
        with pytest.raises(CertKernelError) as e:
            parse()
        return str(e.value)

    pair = parse_dimacs(_DIMACS_PAIR)
    assert error(lambda: parse_certificate(f"2 res (0{brk}1) {{}}\nqed 2\n", pair)) \
        == f"line 1, col 9: unexpected character {brk!r}"
    assert error(lambda: parse_certificate(f"2 res (0 1) {{}}\n{brk}\nqed 5\n", pair)) \
        == f"line 2, col 1: unexpected character {brk!r}"
    assert error(lambda: parse_certificate(f"; a{brk}b\n2 res (0 1) {{}}\n", pair)) \
        == "line 2, col 1: missing qed line"
    assert error(lambda: parse_dimacs(f"p cnf 2 1\n1{brk}-2 0\n3 0\n")) \
        == "line 3, col 1: literal 3 out of range 1..2"
    assert error(lambda: parse_dimacs(f"p cnf 2 2\nc a{brk}b\n1 0\n")) \
        == "line 3, col 1: header promises 2 clauses, found 1"
    assert parse_dimacs(f"c a{brk}b\np cnf 2 1\n1{brk}-2 0\n").input_clauses \
        == parse_dimacs("p cnf 2 1\n1 -2 0\n").input_clauses


@pytest.mark.parametrize("line", [" \t\r", "", "  ; a\x0bb", ";", *"\x0b\x0c\x85\u2028",
                                  "\x0c ; c", " \u2028 "], ids=repr)
def test_a_certificate_line_is_blank_only_if_read_sexprs_finds_it_blank(line):
    """parse_certificate skips a line exactly when Lexemes reads no lexeme
    from it; any other line, after qed too, is a ParseError naming it."""
    from certkernel.frontend import Lexemes
    pair = parse_dimacs(_DIMACS_PAIR)
    try:
        blank = Lexemes(line, first_line=2).words == []
    except ParseError as e:
        blank, message = False, str(e)
    expected = parse_certificate("2 res (0 1) {}\nqed 2\n", pair)
    for text, lineno in ((f"2 res (0 1) {{}}\n{line}\nqed 2\n", 2),
                         (f"2 res (0 1) {{}}\nqed 2\n{line}\n", 3)):
        if blank:
            assert parse_certificate(text, pair) == expected
            continue
        with pytest.raises(ParseError) as e:
            parse_certificate(text, pair)
        assert e.value.line == lineno
        if lineno == 2:
            assert str(e.value) == message


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=repr)
def test_lf_and_crlf_end_of_text_errors_keep_their_line(eol):
    def error(parse, text):
        with pytest.raises(ParseError) as e:
            parse(text.replace("\n", eol))
        return str(e.value)

    pair = parse_dimacs(_DIMACS_PAIR)
    assert error(lambda t: parse_certificate(t, pair), "2 res (0 1) {}\n\n") \
        == "line 2, col 1: missing qed line"
    assert error(lambda t: parse_certificate(t, pair), "2 res (0 1) {}") \
        == "line 1, col 1: missing qed line"
    assert error(parse_dimacs, "p cnf 2 2\n1 0\n\n") \
        == "line 3, col 1: header promises 2 clauses, found 1"
    assert error(parse_dimacs, "p cnf 2 1\n1 2\n") \
        == "line 2, col 1: last clause is missing its terminating 0"
