"""Trusted parsers: DIMACS, an SMT-LIB 2 subset, and the certificate format.

These are the only components whose correctness the checking pipeline takes
on trust, so they stay deliberately small: read s-expressions in one pass,
intern terms against the problem's store.  All three parsers are total over
byte streams — they return a value or raise a structured error carrying a
1-based line and column, never crash.  UTF-8 text, LF or CRLF.  Nothing
here renders text: ``certkernel.printer`` holds ``print_certificate`` and
``print_dimacs``, which these parsers invert exactly.

Certificate concrete syntax, one step per line::

    <id> <rule> (<premise ids>) {<payload>}
    qed <id>

with payload terms written in SMT-LIB syntax.  Clause payloads list their
literals directly; ``(not <atom>)`` marks a negative literal.  Lines
starting with ``;`` are comments.  The payload shapes per rule family:

    res                  {}
    and_pos etc.         {<target term> [<index>]}
    euf                  {(lemma <lit>*) (just <eqstep>*)}
    lia                  {(lemma <lit>*) (farkas (<hyp> <coeff>)*) [tighten]}
    bb_var, bb_add       {<target term> (aux <name>*)}
    other bb rules       {<target term>}
    assume               {<lit>*}

Names introduced under ``(aux ...)`` become Bool variables on sight; their
freshness is the kernel's business, not the parser's.  Any other second
group, ``(foo v)`` or ``()`` say, is a ParseError at the group.  Names
starting with ``$`` are reserved for the predicate encoding (an
uninterpreted predicate ``p : S -> Bool`` is parsed as a function into the
sort ``$bool`` compared to the constant ``$tt``).

Two input shapes that make up most large inputs take a fast path.  A
DIMACS clause body, every line after the header, that holds only ASCII
digits, ``-``, spaces, tabs and line breaks is converted at once: one
``int`` conversion of all its fields, one range check and a check that the
last value is the final ``0``; any other body, and any body that would
raise, goes through the line reader, which alone reports errors.  The
header's variables ``v1`` .. ``vV`` are made by one ``TermStore.bool_vars``
call.  ``_fast_step`` reads certificate lines written with single spaces, as
``printer.print_certificate`` writes them, with a regex instead of the
s-expression reader: ``<id> <rule> (<ints>) {}`` for a rule whose payload is
``type(None)``, and ``<id> <rule> (<ints>) {<term>[ <index>]}`` for a
``CnfPayload`` rule, or a ``BvPayload`` rule without the index, if a memo
local to the ``parse_certificate`` call maps the term's text to the id the
full reader gave it on an earlier line whose payload was that one term (and
index, so no aux group).  A hit is the id a second parse would give: a
certificate only adds names to ``problem.decls`` (``_parse_aux`` never
rebinds one), a top-level payload has an empty ``let`` environment, and the
first parse interned every node.  The text holds no ``;``, brace, tab or
line break, so it reads the same on every line.  Any other line, and
any line that would raise (a wrong id, a forward premise, a numeral past
the digit limit), goes through the full reader, which alone reports errors,
so every message, line and column is the same on both paths of either
parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce

from .errors import ForwardReferenceError, ParseError, SortError, UnsupportedError
from .euf import EqRule, EqStep, EufPayload
from .kernel import RULES
from .lia import LiaPayload
from .bitblast import BvPayload
from .resolution import CnfPayload
from .steps import AssumePayload, Certificate, RULE_BY_NAME, RuleKind, Step
from .terms import (
    BOOL, Clause, FunSym, INT, Kind, Literal, Sort, TermId, TermStore,
    BitVecSort, UninterpretedSort, mk_clause, neg, pos,
)

LOGICS = ("SAT", "QF_UF", "QF_LIA", "QF_BV", "QF_UFLIA")

_SYMBOL_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "~!@$%^&*_-+=<>.?/")
_NUMERAL = re.compile(r"^[0-9]+$")
_SIGNED = re.compile(r"^-?[0-9]+$")
_BV_LIT = re.compile(r"^#b[01]+$")
# A DIMACS clause body of ASCII digits, "-", spaces, tabs and line breaks.
_DIMACS_BODY = re.compile(r"[0-9 \t\n-]*")
# A certificate step up to its payload, and a payload of one term (a symbol,
# or "(" to the last ")" over symbol characters, brackets and spaces), an
# optional index and the closing brace, as print_certificate writes them.
_STEP_HEAD = re.compile(r"([0-9]+) ([a-z_0-9]+) \(([0-9 ]*)\) \{")
_SYM = re.escape("".join(sorted(_SYMBOL_CHARS | {"#"})))
_ONE_TERM = re.compile(rf"([{_SYM}]+|\([{_SYM}() ]*\))(?: (-?[0-9]+))?\}}")


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    line: int
    col: int


@dataclass(slots=True)
class SList:
    items: list
    bracket: str
    line: int
    col: int


# One lexeme per match: a symbol, a bracket, a line break or the end of the
# text after an optional ";" comment, or any other character but a blank
# (" ", tab, carriage return).  Each character but a line break is one column.
_LEXEME = re.compile(rf"([{_SYM}]+)|([(){{}}])|(?:;[^\n]*)?(\n|\Z)|([^ \t\r])")
_CLOSING = {"(": ")", "{": "}"}


def read_sexprs(text: str, first_line: int = 1) -> list:
    """Read text into symbol Tokens grouped in SLists, in one iterative pass,
    so any depth is read.  An unexpected character anywhere is reported before
    the first unbalanced bracket, and that before a missing closing bracket,
    which is reported at the last symbol or bracket."""
    items: list = []
    open_lists: list[tuple[list, str]] = []  # (enclosing items, closing bracket)
    line, line_start = first_line, 0
    unbalanced = last = None
    for m in _LEXEME.finditer(text):
        group = m.lastindex
        if group == 3:
            line, line_start = line + 1, m.end()
            continue
        last, col = m, m.start() - line_start + 1
        if group == 4:
            raise ParseError(f"unexpected character {m[4]!r}", line, col)
        if unbalanced is not None:
            continue
        if group == 1:
            items.append(Token(m[1], line, col))
        elif (bracket := m[2]) in _CLOSING:
            open_lists.append((items, _CLOSING[bracket]))
            items.append(SList([], bracket, line, col))
            items = items[-1].items
        elif open_lists and open_lists[-1][1] == bracket:
            items = open_lists.pop()[0]
        else:
            unbalanced = ParseError(f"unbalanced {bracket!r}", line, col)
    if unbalanced is not None:
        raise unbalanced
    if open_lists:
        at = last.start()
        raise ParseError(f"missing closing {open_lists[-1][1]!r}",
                         first_line + text.count("\n", 0, at), at - text.rfind("\n", 0, at))
    return items


def _pos_of(sx) -> tuple[int, int]:
    return (sx.line, sx.col)


def _to_int(text: str, line: int, col: int) -> int:
    """Convert a numeral the caller has matched; past CPython's digit limit
    for int-string conversion it is a ParseError, not a crash."""
    try:
        return int(text)
    except ValueError as e:
        raise ParseError(f"numeral too long ({len(text)} characters)", line, col) from e


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    """A parsed input problem sharing one term store with its certificate.

    Assertions enter as unit clauses; clausification is certificate-visible.
    DIMACS inputs are already clausal and skip the assertion layer.
    """

    store: TermStore
    logic: str | None = None
    decls: dict[str, object] = field(default_factory=dict)  # name -> ("var", id) | ("fun"|"pred", FunSym)
    sorts: dict[str, UninterpretedSort] = field(default_factory=dict)
    assertions: list[TermId] = field(default_factory=list)
    input_clauses: list[Clause] = field(default_factory=list)
    dimacs_vars: tuple[TermId, ...] = ()


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

_UNSUPPORTED_HEADS = frozenset({
    "forall", "exists", "define-fun", "define-sort", "distinct", "div", "mod",
    "abs", "select", "store", "concat", "extract", "bvmul", "bvudiv", "bvurem",
    "bvshl", "bvlshr", "bvsub", "bvneg", "bvule", "bvugt", "bvuge", "bvslt",
    "str.len", "!",
})


# SMT-LIB operator heads and the kind each builds; the signature table in
# terms checks arity and sorts.  (>= a b) is (<= b a), so the _SWAPPED heads
# read their arguments in reverse order.
_HEADS = {
    "not": Kind.NOT, "and": Kind.AND, "or": Kind.OR, "=>": Kind.IMPLIES,
    "xor": Kind.XOR, "ite": Kind.ITE, "=": Kind.EQ, "<=": Kind.LE, "<": Kind.LT,
    ">=": Kind.LE, ">": Kind.LT, "+": Kind.ADD, "-": Kind.SUB, "*": Kind.MUL,
    "bvnot": Kind.BV_NOT, "bvand": Kind.BV_AND, "bvor": Kind.BV_OR,
    "bvxor": Kind.BV_XOR, "bvadd": Kind.BV_ADD, "bvult": Kind.BV_ULT,
}
_SWAPPED = frozenset({">=", ">"})


def _parse_sort(problem: Problem, sx) -> Sort:
    if isinstance(sx, Token):
        if sx.text == "Bool":
            return BOOL
        if sx.text == "Int":
            return INT
        if sx.text in problem.sorts:
            return problem.sorts[sx.text]
        raise ParseError(f"unknown sort {sx.text}", *_pos_of(sx))
    items = sx.items
    if len(items) == 3 and isinstance(items[0], Token) and items[0].text == "_" \
            and isinstance(items[1], Token) and items[1].text == "BitVec" \
            and isinstance(items[2], Token) and _NUMERAL.match(items[2].text):
        width = _to_int(items[2].text, *_pos_of(items[2]))
        if width < 1:
            raise ParseError("bit-vector width must be >= 1", *_pos_of(sx))
        return BitVecSort(width)
    raise ParseError("unknown sort", *_pos_of(sx))


def parse_term(problem: Problem, sx, env: dict[str, TermId] | None = None) -> TermId:
    """Intern one SMT-LIB term s-expression against the problem's store."""
    store = problem.store
    if isinstance(sx, Token):
        text = sx.text
        if _NUMERAL.match(text):
            return store.int_const(_to_int(text, *_pos_of(sx)))
        if text.startswith("#"):
            if not _BV_LIT.match(text):
                raise ParseError(f"malformed bit-vector literal {text}", *_pos_of(sx))
            return store.bv_const([c == "1" for c in reversed(text[2:])])
        if text == "true":
            return store.true_id
        if text == "false":
            return store.false_id
        if env and text in env:
            return env[text]
        decl = problem.decls.get(text)
        if decl is not None and decl[0] == "var":
            return decl[1]
        if decl is not None:
            raise ParseError(f"{text} is a function and needs arguments", *_pos_of(sx))
        raise ParseError(f"unknown symbol {text}", *_pos_of(sx))

    items = sx.items
    if not items or not isinstance(items[0], Token):
        raise ParseError("malformed term", *_pos_of(sx))
    head = items[0].text
    rest = items[1:]
    kind = _HEADS.get(head)
    try:
        if head == "let":
            if len(rest) != 2 or not isinstance(rest[0], SList):
                raise ParseError("malformed let", *_pos_of(sx))
            new_env = dict(env) if env else {}
            for binding in rest[0].items:
                if not (isinstance(binding, SList) and len(binding.items) == 2
                        and isinstance(binding.items[0], Token)):
                    raise ParseError("malformed let binding", *_pos_of(rest[0]))
                # Parallel let: right-hand sides see the outer environment.
                new_env[binding.items[0].text] = parse_term(problem, binding.items[1], env)
            return parse_term(problem, rest[1], new_env)
        if kind is None:
            if head in _UNSUPPORTED_HEADS:
                raise UnsupportedError(f"unsupported construct: {head}", *_pos_of(sx))
            decl = problem.decls.get(head)
            if decl is None:
                raise ParseError(f"unknown function {head}", *_pos_of(sx))
            tag, fn = decl
            if tag == "var":
                raise ParseError(f"{head} is not a function", *_pos_of(sx))
            applied = store.apply(fn, tuple(parse_term(problem, a, env) for a in rest))
            if tag == "pred":
                return store.eq(applied, problem.decls["$tt"][1])
            return applied
        if kind is Kind.EQ and len(rest) != 2:
            raise UnsupportedError("chained = is not supported", *_pos_of(sx))
        if kind is Kind.SUB and len(rest) == 1:
            # Fold a negated numeral into a negative constant so that
            # printing and parsing are exact inverses.
            if isinstance(rest[0], Token) and _NUMERAL.match(rest[0].text):
                return store.int_const(-_to_int(rest[0].text, *_pos_of(rest[0])))
            kind = Kind.NEG
        args = [parse_term(problem, a, env)
                for a in (rest[::-1] if head in _SWAPPED else rest)]
        if kind is Kind.EQ and store.sort_of(args[0]) == BOOL:
            kind = Kind.IFF
        elif kind is Kind.MUL and len(args) == 2 \
                and all(store.kind(a) is not Kind.INT_CONST for a in args):
            raise UnsupportedError("nonlinear multiplication", *_pos_of(sx))
        elif kind is Kind.IMPLIES and len(args) > 2:
            return reduce(lambda r, a: store.intern(kind, (a, r)), reversed(args[:-1]), args[-1])
        elif kind in (Kind.XOR, Kind.SUB) and len(args) > 2:
            return reduce(lambda l, a: store.intern(kind, (l, a)), args[1:], args[0])
        return store.intern(kind, args)
    except SortError as e:
        raise ParseError(str(e), *_pos_of(sx)) from e


# ---------------------------------------------------------------------------
# SMT-LIB problems
# ---------------------------------------------------------------------------

def _declare(problem: Problem, name_tok: Token, arg_sorts: tuple[Sort, ...], ret: Sort):
    name = name_tok.text
    if name.startswith("$"):
        raise ParseError("names starting with $ are reserved", *_pos_of(name_tok))
    if name in problem.decls or name in problem.sorts:
        raise ParseError(f"{name} is already declared", *_pos_of(name_tok))
    store = problem.store
    if not arg_sorts:
        problem.decls[name] = ("var", store.var(name, ret))
        return
    if ret == BOOL:
        # Uninterpreted predicate: encode as a function into the reserved
        # sort $bool compared against the constant $tt.
        if "$bool" not in problem.sorts:
            psort = UninterpretedSort("$bool")
            problem.sorts["$bool"] = psort
            problem.decls["$tt"] = ("var", store.var("$tt", psort))
        problem.decls[name] = ("pred", FunSym(name, arg_sorts, problem.sorts["$bool"]))
        return
    problem.decls[name] = ("fun", FunSym(name, arg_sorts, ret))


def parse_smt2(text: str) -> Problem:
    """Parse an SMT-LIB 2 problem in the supported quantifier-free subset.

    Commands: set-logic, declare-sort (arity 0), declare-fun, declare-const,
    assert, check-sat, exit.  Raises UnsupportedError for anything outside
    the fragment and ParseError for malformed input.
    """
    problem = Problem(store=TermStore())
    for cmd in read_sexprs(text):
        if not isinstance(cmd, SList) or not cmd.items or not isinstance(cmd.items[0], Token):
            raise ParseError("expected a command", *_pos_of(cmd))
        head = cmd.items[0].text
        rest = cmd.items[1:]
        if head == "set-logic":
            if len(rest) != 1 or not isinstance(rest[0], Token):
                raise ParseError("malformed set-logic", *_pos_of(cmd))
            if rest[0].text not in LOGICS:
                raise UnsupportedError(f"unsupported logic {rest[0].text}", *_pos_of(rest[0]))
            problem.logic = rest[0].text
        elif head == "declare-sort":
            if len(rest) != 2 or not isinstance(rest[0], Token) or not isinstance(rest[1], Token):
                raise ParseError("malformed declare-sort", *_pos_of(cmd))
            if rest[1].text != "0":
                raise UnsupportedError("only arity-0 sorts are supported", *_pos_of(rest[1]))
            name = rest[0].text
            if name.startswith("$"):
                raise ParseError("names starting with $ are reserved", *_pos_of(rest[0]))
            if name in problem.sorts or name in ("Bool", "Int"):
                raise ParseError(f"sort {name} is already declared", *_pos_of(rest[0]))
            problem.sorts[name] = UninterpretedSort(name)
        elif head == "declare-fun":
            if len(rest) != 3 or not isinstance(rest[0], Token) or not isinstance(rest[1], SList):
                raise ParseError("malformed declare-fun", *_pos_of(cmd))
            arg_sorts = tuple(_parse_sort(problem, s) for s in rest[1].items)
            _declare(problem, rest[0], arg_sorts, _parse_sort(problem, rest[2]))
        elif head == "declare-const":
            if len(rest) != 2 or not isinstance(rest[0], Token):
                raise ParseError("malformed declare-const", *_pos_of(cmd))
            _declare(problem, rest[0], (), _parse_sort(problem, rest[1]))
        elif head == "assert":
            if len(rest) != 1:
                raise ParseError("malformed assert", *_pos_of(cmd))
            try:
                t = parse_term(problem, rest[0])
            except RecursionError:
                raise ParseError("term nested too deeply", *_pos_of(cmd)) from None
            if problem.store.sort_of(t) != BOOL:
                raise ParseError("asserted term is not Bool", *_pos_of(rest[0]))
            problem.assertions.append(t)
            problem.input_clauses.append(mk_clause(problem.store, [pos(t)]))
        elif head in ("check-sat", "exit"):
            pass
        else:
            raise UnsupportedError(f"unsupported command {head}", *_pos_of(cmd))
    return problem


# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------

def parse_dimacs(text: str) -> Problem:
    """Parse DIMACS CNF: ``p cnf V C`` header, 0-terminated clauses,
    ``c`` comment lines.  Literal range and clause count are enforced."""
    problem = Problem(store=TermStore(), logic="SAT")
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("c"):
            break
    else:
        raise ParseError("missing DIMACS header", 1, 1)
    fields = stripped.split()
    if len(fields) != 4 or fields[0] != "p" or fields[1] != "cnf" \
            or not _NUMERAL.match(fields[2]) or not _NUMERAL.match(fields[3]):
        raise ParseError(f"malformed header: {stripped!r}", lineno, 1)
    n_vars = _to_int(fields[2], lineno, 1)
    n_clauses = _to_int(fields[3], lineno, 1)
    var_ids = problem.store.bool_vars(f"v{i}" for i in range(1, n_vars + 1))

    # Every atom is a Bool variable made above, so the clauses need no
    # sort check: a literal v encodes as 2 * atom + (v < 0).
    codes: list[int] = []  # encoded literals of the clause being read
    for value in _dimacs_body(lines, lineno, n_vars):
        if value:
            codes.append(2 * var_ids[abs(value) - 1] + (value < 0))
        else:
            problem.input_clauses.append(Clause(tuple(sorted(set(codes)))))
            codes = []
    if len(problem.input_clauses) != n_clauses:
        raise ParseError(
            f"header promises {n_clauses} clauses, found {len(problem.input_clauses)}",
            len(lines) or 1, 1)
    problem.dimacs_vars = tuple(var_ids)
    return problem


def _dimacs_body(lines: list[str], header: int, n_vars: int) -> list[int]:
    """The literals of the lines after line ``header``, 0 for a clause end;
    the last value is 0.

    A body of ASCII digits, ``-``, spaces, tabs and line breaks takes one
    bulk conversion, one range check and a check for the final 0.  Any
    other body, and any body that would raise, is read line by line and
    field by field, and only that reader reports errors.
    """
    body = "\n".join(lines[header:])
    if _DIMACS_BODY.fullmatch(body):
        try:
            values = list(map(int, body.split()))
        except ValueError:  # "-", "1-2", or past CPython's digit limit
            pass
        else:
            if not values or (values[-1] == 0
                              and -n_vars <= min(values) and max(values) <= n_vars):
                return values
    values = []
    for lineno, raw in enumerate(lines[header:], start=header + 1):
        if raw.strip().startswith("c"):
            continue
        col = 1
        for fieldtext in raw.split():
            col = raw.index(fieldtext, col - 1) + 1
            if not _SIGNED.match(fieldtext):
                raise ParseError(f"expected a literal, got {fieldtext!r}", lineno, col)
            value = _to_int(fieldtext, lineno, col)
            if value and not 1 <= abs(value) <= n_vars:
                raise ParseError(f"literal {value} out of range 1..{n_vars}", lineno, col)
            values.append(value)
    if values and values[-1]:
        raise ParseError("last clause is missing its terminating 0", len(lines) or 1, 1)
    return values


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def parse_literal(problem: Problem, sx) -> Literal:
    """``(not <atom>)`` is a negative literal; anything else is positive."""
    if isinstance(sx, SList) and len(sx.items) == 2 \
            and isinstance(sx.items[0], Token) and sx.items[0].text == "not":
        return neg(parse_term(problem, sx.items[1]))
    return pos(parse_term(problem, sx))


def _parse_clause(problem: Problem, items, line: int, col: int) -> Clause:
    try:
        return mk_clause(problem.store, [parse_literal(problem, sx) for sx in items])
    except SortError as e:
        raise ParseError(str(e), line, col) from e


def parse_int(sx) -> int:
    if not isinstance(sx, Token) or not _SIGNED.match(sx.text):
        raise ParseError("expected an integer", *_pos_of(sx))
    return _to_int(sx.text, *_pos_of(sx))


def _tagged(items, line: int, col: int) -> dict[str, SList]:
    """Split payload items into named sublists plus bare flag tokens."""
    out: dict[str, object] = {}
    for sx in items:
        if isinstance(sx, Token):
            out[sx.text] = True
            continue
        if not sx.items or not isinstance(sx.items[0], Token):
            raise ParseError("malformed payload group", *_pos_of(sx))
        out[sx.items[0].text] = sx
    return out


def _parse_eqstep(problem: Problem, sx) -> EqStep:
    if not isinstance(sx, SList) or not sx.items or not isinstance(sx.items[0], Token):
        raise ParseError("malformed justification step", *_pos_of(sx))
    head = sx.items[0].text
    rest = sx.items[1:]
    if head == "refl":
        if len(rest) != 1:
            raise ParseError("refl takes one term", *_pos_of(sx))
        return EqStep(EqRule.REFL, term=parse_term(problem, rest[0]))
    if head == "sym":
        if len(rest) != 1:
            raise ParseError("sym takes one index", *_pos_of(sx))
        return EqStep(EqRule.SYM, refs=(parse_int(rest[0]),))
    if head == "trans":
        if len(rest) != 2:
            raise ParseError("trans takes two indices", *_pos_of(sx))
        return EqStep(EqRule.TRANS, refs=(parse_int(rest[0]), parse_int(rest[1])))
    if head == "cong":
        if not rest or not isinstance(rest[0], Token):
            raise ParseError("cong takes a function name and indices", *_pos_of(sx))
        decl = problem.decls.get(rest[0].text)
        if decl is None or decl[0] == "var":
            raise ParseError(f"unknown function {rest[0].text}", *_pos_of(rest[0]))
        return EqStep(EqRule.CONG, fun=decl[1],
                      refs=tuple(parse_int(r) for r in rest[1:]))
    if head == "hyp":
        if len(rest) != 1:
            raise ParseError("hyp takes one literal index", *_pos_of(sx))
        return EqStep(EqRule.HYP, hyp=parse_int(rest[0]))
    raise ParseError(f"unknown justification rule {head}", *_pos_of(sx))


def _parse_aux(problem: Problem, sx) -> tuple[TermId, ...]:
    if not (isinstance(sx, SList) and sx.bracket == "(" and sx.items
            and isinstance(sx.items[0], Token) and sx.items[0].text == "aux"):
        raise ParseError("expected (aux ...)", *_pos_of(sx))
    out = []
    for tok in sx.items[1:]:
        if not isinstance(tok, Token):
            raise ParseError("aux entries must be names", *_pos_of(tok))
        # Aux names become Bool variables on sight and stay visible to later
        # payload lines; whether they are fresh is decided during replay.
        tid = problem.store.var(tok.text, BOOL)
        existing = problem.decls.setdefault(tok.text, ("var", tid))
        if existing != ("var", tid):
            raise ParseError(f"aux name {tok.text} clashes with a declaration",
                             *_pos_of(tok))
        out.append(tid)
    return tuple(out)


def parse_payload(problem: Problem, rule: RuleKind, items: list, line: int, col: int):
    """Build the rule-specific payload object from the brace contents, in
    the syntax of the payload type the rule registry gives the rule."""
    payload_type = RULES[rule].payload if rule in RULES else None
    if payload_type is type(None):
        if items:
            raise ParseError(f"{rule.value} takes no payload", line, col)
        return None
    if payload_type is CnfPayload:
        if not items or len(items) > 2:
            raise ParseError(f"{rule.value} payload is a term and an optional index",
                             line, col)
        index = parse_int(items[1]) if len(items) == 2 else 0
        return CnfPayload(parse_term(problem, items[0]), index)
    if payload_type is EufPayload:
        groups = _tagged(items, line, col)
        lemma_grp = groups.get("lemma")
        just_grp = groups.get("just")
        if not isinstance(lemma_grp, SList) or not isinstance(just_grp, SList):
            raise ParseError(f"{rule.value} payload needs (lemma ...) and (just ...)",
                             line, col)
        lemma = _parse_clause(problem, lemma_grp.items[1:], line, col)
        just = tuple(_parse_eqstep(problem, sx) for sx in just_grp.items[1:])
        return EufPayload(lemma, just)
    if payload_type is LiaPayload:
        groups = _tagged(items, line, col)
        lemma_grp = groups.get("lemma")
        farkas_grp = groups.get("farkas")
        if not isinstance(lemma_grp, SList) or not isinstance(farkas_grp, SList):
            raise ParseError(f"{rule.value} payload needs (lemma ...) and (farkas ...)",
                             line, col)
        lemma = _parse_clause(problem, lemma_grp.items[1:], line, col)
        combo = []
        for entry in farkas_grp.items[1:]:
            if not isinstance(entry, SList) or len(entry.items) != 2:
                raise ParseError("farkas entries are (index coeff) pairs", *_pos_of(entry))
            combo.append((parse_int(entry.items[0]), parse_int(entry.items[1])))
        return LiaPayload(lemma, tuple(combo), tighten="tighten" in groups)
    if payload_type is BvPayload:
        if not items:
            raise ParseError(f"{rule.value} payload needs a target term", line, col)
        target = parse_term(problem, items[0])
        aux: tuple[TermId, ...] = ()
        if len(items) == 2:
            aux = _parse_aux(problem, items[1])
        elif len(items) > 2:
            raise ParseError("too many payload groups", line, col)
        return BvPayload(target, aux)
    if payload_type is AssumePayload:
        return AssumePayload(_parse_clause(problem, items, line, col))
    raise ParseError(f"rule {rule.value} cannot appear in a certificate", line, col)


def _fast_step(raw: str, next_id: int,
               memo: dict[str, TermId]) -> tuple[Step | None, re.Match | None]:
    """(step, None) for a well-formed line of a fast-path shape (see the
    module docstring); otherwise (None, term), where term is the line's
    one-term match, if any, for the caller to memo once the full reader has
    accepted the line."""
    head = _STEP_HEAD.match(raw)
    if head is None:
        return None, None
    rule = RULE_BY_NAME.get(head[2])
    entry = RULES.get(rule)  # one lookup: RuleKind hashes in Python
    payload_type = entry.payload if entry is not None else None
    term = payload = None
    if payload_type is CnfPayload or payload_type is BvPayload:
        term = _ONE_TERM.fullmatch(raw, head.end())
        if term is None or term[1] not in memo \
                or (payload_type is BvPayload and term[2] is not None):
            return None, term
    elif payload_type is not type(None) or raw[head.end():] != "}":
        return None, None
    try:
        step_id = int(head[1])
        premises = tuple(map(int, head[3].split()))
        index = int(term[2]) if term is not None and term[2] is not None else 0
    except ValueError:  # past CPython's digit limit for int-string conversion
        return None, term
    if step_id != next_id or (premises and max(premises) >= step_id):
        return None, term
    if term is not None:
        target = memo[term[1]]
        payload = CnfPayload(target, index) if payload_type is CnfPayload else BvPayload(target)
    return Step(step_id, rule, premises, payload), None


def parse_certificate(text: str, problem: Problem) -> Certificate:
    """Parse the line-based certificate format against a parsed problem."""
    steps: list[Step] = []
    qed: int | None = None
    next_id = len(problem.input_clauses)
    memo: dict[str, TermId] = {}  # payload term text -> id, for _fast_step

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(";"):
            continue
        if qed is not None:
            raise ParseError("content after qed", lineno, 1)
        step, term = _fast_step(raw, next_id, memo)
        if step is not None:
            steps.append(step)
            next_id += 1
            continue
        items = read_sexprs(raw, first_line=lineno)
        if items and isinstance(items[0], Token) and items[0].text == "qed":
            if len(items) != 2:
                raise ParseError("qed takes one step id", lineno, 1)
            qed = parse_int(items[1])
            if qed >= next_id or qed < 0:
                raise ForwardReferenceError(f"qed names unknown id {qed}", lineno, 1)
            continue
        if len(items) != 4 or not isinstance(items[0], Token) or not isinstance(items[1], Token) \
                or not isinstance(items[2], SList) or items[2].bracket != "(" \
                or not isinstance(items[3], SList) or items[3].bracket != "{":
            raise ParseError("expected: <id> <rule> (<premises>) {<payload>}", lineno, 1)
        step_id = parse_int(items[0])
        if step_id != next_id:
            raise ParseError(f"step id {step_id}, expected {next_id}", lineno, 1)
        rule = RULE_BY_NAME.get(items[1].text)
        if rule not in RULES:
            raise ParseError(f"unknown rule {items[1].text}", *_pos_of(items[1]))
        premises = tuple(parse_int(p) for p in items[2].items)
        for p in premises:
            if p >= step_id or p < 0:
                raise ForwardReferenceError(
                    f"premise {p} is not before step {step_id}", lineno, 1)
        try:
            payload = parse_payload(problem, rule, items[3].items, lineno, 1)
        except RecursionError:
            raise ParseError("term nested too deeply", lineno, 1) from None
        # Memo the term only if it alone made up the payload's first item.
        if term is not None and len(items[3].items) == (1 if term[2] is None else 2):
            memo[term[1]] = payload.target
        steps.append(Step(step_id, rule, premises, payload))
        next_id += 1

    if qed is None:
        raise ParseError("missing qed line", len(text.splitlines()) or 1, 1)
    return Certificate(tuple(steps), qed)
