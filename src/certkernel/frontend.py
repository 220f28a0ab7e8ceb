"""Trusted problem readers: DIMACS and an SMT-LIB 2 subset.

A verdict is a claim about the problem these readers build, so they are
trusted, and they stay deliberately small: read s-expressions in one pass,
intern terms against the problem's store.  Both are total over byte
streams — they return a value or raise a structured error carrying a
1-based line and column, never crash.  UTF-8 text, LF or CRLF; only a
line feed breaks a line.  Nothing here renders text: ``certkernel.printer``
holds ``print_dimacs``, which ``parse_dimacs`` inverts exactly.

The certificate reader is in the untrusted ``certkernel.preproc``: the
kernel checks every id, index and clause code a certificate carries, so a
wrong certificate parse cannot make a satisfiable problem VALID.

Names starting with ``$`` are reserved for the predicate encoding (an
uninterpreted predicate ``p : S -> Bool`` is parsed as a function into the
sort ``$bool`` compared to the constant ``$tt``).

A DIMACS clause body, every line after the header, that holds only ASCII
digits, ``-``, spaces, tabs and line breaks is converted at once: one
``int`` conversion of all its fields, one range check and a check that the
last value is the final ``0``; any other body, and any body that would
raise, goes through the line reader, which alone reports errors, so every
message, line and column is the same on both paths.  The header's variables
``v1`` .. ``vV`` are made by one ``TermStore.bool_vars`` call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce

from .errors import ParseError, SortError, UnsupportedError
from .terms import (
    BOOL, Clause, FunSym, INT, Kind, Sort, TermId, TermStore,
    BitVecSort, UninterpretedSort, mk_clause, pos,
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
_SYM = re.escape("".join(sorted(_SYMBOL_CHARS | {"#"})))


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


def split_lines(text: str) -> list[str]:
    """The text's lines, broken at line feeds only, as ``read_sexprs``
    counts them; a final line feed ends the last line, not an empty one."""
    return text.removesuffix("\n").split("\n") if text else []


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
    if sx.bracket == "(" and len(items) == 3 \
            and isinstance(items[0], Token) and items[0].text == "_" \
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
    if sx.bracket != "(" or not items or not isinstance(items[0], Token):
        raise ParseError("malformed term", *_pos_of(sx))
    head = items[0].text
    rest = items[1:]
    kind = _HEADS.get(head)
    try:
        if head == "let":
            if len(rest) != 2 or not isinstance(rest[0], SList) or rest[0].bracket != "(":
                raise ParseError("malformed let", *_pos_of(sx))
            new_env = dict(env) if env else {}
            for binding in rest[0].items:
                if not (isinstance(binding, SList) and binding.bracket == "("
                        and len(binding.items) == 2 and isinstance(binding.items[0], Token)):
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
        if not isinstance(cmd, SList) or cmd.bracket != "(" or not cmd.items \
                or not isinstance(cmd.items[0], Token):
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
            if len(rest) != 3 or not isinstance(rest[0], Token) \
                    or not isinstance(rest[1], SList) or rest[1].bracket != "(":
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
    lines = split_lines(text)
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
