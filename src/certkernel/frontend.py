"""Trusted problem readers: DIMACS and an SMT-LIB 2 subset.

A verdict is a claim about the problem these readers build, so they are
trusted, and they stay deliberately small.  Both are total over byte
streams — they return a value or raise a structured error carrying a
1-based line and column, never crash.  UTF-8 text, LF or CRLF; only a
line feed breaks a line.  Nothing here renders text: ``certkernel.printer``
holds ``print_dimacs``, which ``parse_dimacs`` inverts exactly.

SMT-LIB text, and each certificate line, is read as one list of lexeme
strings (``Lexemes``), with no loop in Python over its characters: one
``re.sub`` drops ``;`` comments, one ``search`` rejects a stray character
(neither a symbol character, a bracket nor a blank), and ``str.split`` cuts
the text with its brackets padded by spaces.  One pass over the list then
records each opening bracket's closer.  A stray character is reported
before the first unbalanced bracket, and that before a missing closing
bracket.  Readers then index the list; a lexeme's line and column are found
only when an error names it.  ``read_term`` interns a term from walks that
wait on a list, not on Python's stack, so a term may be of any depth, and
its ``let`` names live in one dict per term, so a chain of lets reads in
linear time.

``read_term`` reads a repeated term once per problem.  Its one memo,
``Problem.term_memo``, maps to its id the lexemes, joined by blanks (no
lexeme holds one), of each root term, and of each argument term of at most
``_MEMO_LEXEMES`` lexemes read while no ``let`` name is in scope; roots do
not overlap, so the keys stay linear in the input.  An error stores nothing.
A hit equals a full read: ``decls`` only grows (``_declare`` and
``preproc._parse_aux`` never rebind a name) and the store only appends, so
the same text interns the same id.  ``preproc`` reads CNF lines by it too.

The certificate reader is in the untrusted ``certkernel.preproc``: the
kernel checks every id, index and clause code a certificate carries, so a
wrong certificate parse cannot make a satisfiable problem VALID.

Names starting with ``$`` are reserved for the predicate encoding (an
uninterpreted predicate ``p : S -> Bool`` is parsed as a function into the
sort ``$bool`` compared to the constant ``$tt``).

A DIMACS clause body is converted at once when it allows; see
``_dimacs_body``.  A new store then reserves ``v1`` … ``v<top>``, top the
largest numeral in the body, so ``v<n>`` is the Bool variable with id
n + 1 but no node, name or index entry of its own (see
``certkernel.terms``), and a name lookup of ``v<n>``, such as ``(aux v5)``
in a certificate, finds that id.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import islice

from .errors import ParseError, SortError, UnsupportedError
from .terms import (
    BOOL, Clause, FunSym, INT, Kind, Sort, TermId, TermStore,
    BitVecSort, UninterpretedSort, mk_clause, pos,
)

LOGICS = ("SAT", "QF_UF", "QF_LIA", "QF_BV", "QF_UFLIA")

_NUMERAL = re.compile(r"^[0-9]+$")
_SIGNED = re.compile(r"^-?[0-9]+$")
_BV_LIT = re.compile(r"^#b[01]+$")
# A DIMACS clause body of ASCII digits, "-", spaces, tabs and line breaks.
_DIMACS_BODY = re.compile(r"[0-9 \t\n-]*")
_SYM = re.escape("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
                 "~!@$%^&*_-+=<>.?/#")
# A lexeme is a run of symbol characters, a bracket, or any other character
# but a blank (" ", tab, CR, LF) or ";", which is stray; the blanks and ";"
# comments after it, or before the first, are skipped.  Each character but
# a line feed is one column.  Lexemes splits the text without _LEXEME, which
# only locates a lexeme for an error.
_SKIP = r"[ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*"
_LEADING = re.compile(_SKIP)
_LEXEME = re.compile(rf"([{_SYM}]+|[^ \t\r\n;]){_SKIP}")
_COMMENT = re.compile(r";[^\n]*")
# Searched once comments are gone.  It also finds every character other
# than the four blanks at which str.split would cut.
_STRAY_CHAR = re.compile(rf"[^{_SYM}(){{}} \t\r\n]")
_CLOSING = {"(": ")", "{": "}"}
_OPENING = frozenset("({")
_BRACKETS = frozenset("(){}")


class Lexemes:
    """A text as a list of lexeme strings, ``words``.  ``close[k]`` is the
    index of the bracket that closes an opening bracket at k, and k for any
    other lexeme, so the item at k ends before ``close[k] + 1``.

    The words are the text, ``;`` comments removed, with each bracket
    padded by spaces and then ``split``; that split is exact only because a
    text with a stray character is rejected first."""

    __slots__ = ("words", "close", "text", "first_line")

    def __init__(self, text: str, first_line: int = 1):
        self.text, self.first_line = text, first_line
        bare = _COMMENT.sub("", text) if ";" in text else text
        if stray := _STRAY_CHAR.search(bare):  # a stray lexeme is one character
            words = _LEXEME.findall(text, _LEADING.match(text).end())
            raise self.error(words.index(stray[0]), f"unexpected character {stray[0]!r}")
        self.words = words = bare.replace("(", " ( ").replace(")", " ) ") \
            .replace("{", " { ").replace("}", " } ").split()
        self.close = close = list(range(len(words)))
        opened: list[int] = []
        for k, word in enumerate(words):
            if word in _OPENING:
                opened.append(k)
            elif word in _BRACKETS:
                if not opened or _CLOSING[words[opened[-1]]] != word:
                    raise self.error(k, f"unbalanced {word!r}")
                close[opened.pop()] = k
        if opened:
            raise self.error(len(words) - 1, f"missing closing {_CLOSING[words[opened[-1]]]!r}")

    def pos(self, k: int | None) -> tuple[int, int]:
        """Line and column of lexeme k, or of the text's start for None."""
        if k is None:
            return self.first_line, 1
        text = self.text
        at = next(islice(_LEXEME.finditer(text, _LEADING.match(text).end()), k, None)).start()
        return self.first_line + text.count("\n", 0, at), at - text.rfind("\n", 0, at)

    def error(self, k: int | None, message: str, cls=ParseError) -> ParseError:
        return cls(message, *self.pos(k))

    def items(self, k: int = -1) -> list[int]:
        """The index of each item of the list opened at lexeme k, its head
        included, or of the text for k = -1."""
        out, j, end = [], k + 1, self.close[k] if k >= 0 else len(self.words)
        while j < end:
            out.append(j)
            j = self.close[j] + 1
        return out

    def number(self, k: int) -> int:
        try:
            return int(self.words[k])
        except ValueError:  # _to_int raises the ParseError
            return _to_int(self.words[k], *self.pos(k))


def split_lines(text: str) -> list[str]:
    """The text's lines, broken at line feeds only, as ``Lexemes`` counts
    them; a final line feed ends the last line, not an empty one."""
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

class Problem:
    """A parsed input problem sharing one term store with its certificate.

    Assertions enter as unit clauses; clausification is certificate-visible.
    DIMACS inputs are already clausal and skip the assertion layer.
    """

    def __init__(self, store: TermStore, logic: str | None = None):
        self.store = store
        self.logic = logic
        self.decls: dict[str, object] = {}  # name -> ("var", id) | ("fun"|"pred", FunSym)
        self.sorts: dict[str, UninterpretedSort] = {}
        self.assertions: list[TermId] = []
        self.input_clauses: list[Clause] = []
        self.dimacs_header_vars = 0  # DIMACS only: the header's variable count
        self.term_memo: dict[str, TermId] = {}


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
# read their arguments in reverse order.  _list_term does more than intern
# the _FINISHED kinds (one set test spares the rest slow Kind lookups).
_HEADS = {
    "not": Kind.NOT, "and": Kind.AND, "or": Kind.OR, "=>": Kind.IMPLIES,
    "xor": Kind.XOR, "ite": Kind.ITE, "=": Kind.EQ, "<=": Kind.LE, "<": Kind.LT,
    ">=": Kind.LE, ">": Kind.LT, "+": Kind.ADD, "-": Kind.SUB, "*": Kind.MUL,
    "bvnot": Kind.BV_NOT, "bvand": Kind.BV_AND, "bvor": Kind.BV_OR,
    "bvxor": Kind.BV_XOR, "bvadd": Kind.BV_ADD, "bvult": Kind.BV_ULT,
}
_SWAPPED = frozenset({">=", ">"})
_FINISHED = frozenset({Kind.EQ, Kind.MUL, Kind.IMPLIES, Kind.XOR, Kind.SUB})
_MEMO_LEXEMES = 64  # the most lexemes of a subterm that read_term memoizes


def _parse_sort(problem: Problem, lex: Lexemes, k: int) -> Sort:
    word, words = lex.words[k], lex.words
    if word not in _OPENING:
        if word == "Bool":
            return BOOL
        if word == "Int":
            return INT
        if word in problem.sorts:
            return problem.sorts[word]
        raise lex.error(k, f"unknown sort {word}")
    items = lex.items(k)
    if word == "(" and len(items) == 3 and [words[j] for j in items[:2]] == ["_", "BitVec"] \
            and _NUMERAL.match(words[items[2]]):
        width = lex.number(items[2])
        if width < 1:
            raise lex.error(k, "bit-vector width must be >= 1")
        return BitVecSort(width)
    raise lex.error(k, "unknown sort")


def _atom(problem: Problem, lex: Lexemes, k: int, env: dict[str, TermId]) -> TermId:
    store, text = problem.store, lex.words[k]
    if text == "{":
        raise lex.error(k, "malformed term")
    if _NUMERAL.match(text):
        return store.int_const(lex.number(k))
    if text.startswith("#"):
        if not _BV_LIT.match(text):
            raise lex.error(k, f"malformed bit-vector literal {text}")
        return store.bv_const([c == "1" for c in reversed(text[2:])])
    if text == "true":
        return store.true_id
    if text == "false":
        return store.false_id
    if text in env:
        return env[text]
    decl = problem.decls.get(text)
    if decl is not None and decl[0] == "var":
        return decl[1]
    if decl is not None:
        raise lex.error(k, f"{text} is a function and needs arguments")
    raise lex.error(k, f"unknown symbol {text}")


def _list_term(i: int, problem: Problem, lex: Lexemes, env: dict[str, TermId]):
    """Walk for _unfold: the id of the list term at lexeme i.  It reads atoms
    itself; for a list among its children it yields the list's index and is
    sent its id.  env is the one dict of let names in scope: a let enters its
    names for its body and then restores the ones it shadowed."""
    words, store = lex.words, problem.store
    head = words[i + 1]
    if head in _BRACKETS:
        raise lex.error(i, "malformed term")
    kind = _HEADS.get(head)
    rest = lex.items(i)[1:]
    try:
        if head == "let":
            if len(rest) != 2 or words[rest[0]] != "(":
                raise lex.error(i, "malformed let")
            bound = {}
            for b in lex.items(rest[0]):
                binding = lex.items(b)
                if words[b] != "(" or len(binding) != 2 or words[binding[0]] in _OPENING:
                    raise lex.error(rest[0], "malformed let binding")
                # Parallel let: bound terms are read before any name enters env.
                k = binding[1]
                bound[words[binding[0]]] = (yield k) if words[k] == "(" \
                    else _atom(problem, lex, k, env)
            shadowed = {name: env[name] for name in bound if name in env}
            env.update(bound)
            k = rest[1]
            body = (yield k) if words[k] == "(" else _atom(problem, lex, k, env)
            for name in bound:
                del env[name]
            env.update(shadowed)
            return body
        if kind is None:
            if head in _UNSUPPORTED_HEADS:
                raise lex.error(i, f"unsupported construct: {head}", UnsupportedError)
            kind = problem.decls.get(head)  # a ("fun" | "pred", FunSym) declaration
            if kind is None:
                raise lex.error(i, f"unknown function {head}")
            if kind[0] == "var":
                raise lex.error(i, f"{head} is not a function")
        elif head == "=" and len(rest) != 2:
            raise lex.error(i, "chained = is not supported", UnsupportedError)
        elif head == "-" and len(rest) == 1:
            # Fold a negated numeral into a negative constant so that
            # printing and parsing are exact inverses.
            if _NUMERAL.match(words[rest[0]]):
                return store.int_const(-lex.number(rest[0]))
            kind = Kind.NEG
        args, memo, close = [], problem.term_memo, lex.close
        for k in reversed(rest) if head in _SWAPPED else rest:
            key = None if env or close[k] - k >= _MEMO_LEXEMES else " ".join(words[k:close[k] + 1])
            if (t := memo.get(key)) is None:
                t = (yield k) if words[k] == "(" else _atom(problem, lex, k, env)
                if key is not None:
                    memo[key] = t
            args.append(t)
        if kind.__class__ is tuple:
            applied = store.apply(kind[1], tuple(args))
            if kind[0] == "pred":
                return store.eq(applied, problem.decls["$tt"][1])
            return applied
        if kind not in _FINISHED:
            return store.intern(kind, args)
        if kind is Kind.EQ and store.sort_of(args[0]) == BOOL:
            kind = Kind.IFF
        elif kind is Kind.MUL and len(args) == 2 \
                and all(store.kind(a) is not Kind.INT_CONST for a in args):
            raise lex.error(i, "nonlinear multiplication", UnsupportedError)
        elif kind is Kind.IMPLIES and len(args) > 2:
            return reduce(lambda r, a: store.intern(kind, (a, r)), reversed(args[:-1]), args[-1])
        elif kind in (Kind.XOR, Kind.SUB) and len(args) > 2:
            return reduce(lambda l, a: store.intern(kind, (l, a)), args[1:], args[0])
        return store.intern(kind, args)
    except SortError as e:
        raise lex.error(i, str(e)) from e


def read_term(problem: Problem, lex: Lexemes, i: int) -> TermId:
    """Intern the SMT-LIB term at lexeme i against the problem's store and
    return its id.  A list's shape is checked before its children are read
    and its node is interned after, so the store gains the nodes, and the
    reader raises the errors, of a recursive reader without the memo."""
    words, memo = lex.words, problem.term_memo
    key = " ".join(words[i:lex.close[i] + 1])
    if (t := memo.get(key)) is None:
        t = memo[key] = _unfold(_list_term, i, problem, lex, {}) if words[i] == "(" \
            else _atom(problem, lex, i, {})
    return t


def _unfold(walk, first, *shared):
    """``walk(first, *shared)`` for a generator function walk that, where it
    would call itself on x, yields x and is sent the result: the pending
    calls wait on a list, not on Python's stack, so a walk has no depth limit."""
    stack, value = [walk(first, *shared)], None
    while True:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(walk(sub, *shared))
            value = None


# ---------------------------------------------------------------------------
# SMT-LIB problems
# ---------------------------------------------------------------------------

def _declare(problem: Problem, lex: Lexemes, k: int, arg_sorts: tuple[Sort, ...], ret: Sort):
    name = lex.words[k]
    if name.startswith("$"):
        raise lex.error(k, "names starting with $ are reserved")
    if name in problem.decls:
        raise lex.error(k, f"{name} is already declared")
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
    lex = Lexemes(text)
    words = lex.words
    for cmd in lex.items():
        if words[cmd] != "(" or words[cmd + 1] in _BRACKETS:
            raise lex.error(cmd, "expected a command")
        head, *rest = lex.items(cmd)
        head = words[head]
        symbols = [words[r] not in _OPENING for r in rest]
        if head == "set-logic":
            if symbols != [True]:
                raise lex.error(cmd, "malformed set-logic")
            if words[rest[0]] not in LOGICS:
                raise lex.error(rest[0], f"unsupported logic {words[rest[0]]}", UnsupportedError)
            problem.logic = words[rest[0]]
        elif head == "declare-sort":
            if symbols != [True, True]:
                raise lex.error(cmd, "malformed declare-sort")
            if words[rest[1]] != "0":
                raise lex.error(rest[1], "only arity-0 sorts are supported", UnsupportedError)
            name = words[rest[0]]
            if name.startswith("$"):
                raise lex.error(rest[0], "names starting with $ are reserved")
            if name in problem.sorts or name in ("Bool", "Int"):
                raise lex.error(rest[0], f"sort {name} is already declared")
            problem.sorts[name] = UninterpretedSort(name)
        elif head == "declare-fun":
            if len(rest) != 3 or not symbols[0] or words[rest[1]] != "(":
                raise lex.error(cmd, "malformed declare-fun")
            arg_sorts = tuple(_parse_sort(problem, lex, s) for s in lex.items(rest[1]))
            _declare(problem, lex, rest[0], arg_sorts, _parse_sort(problem, lex, rest[2]))
        elif head == "declare-const":
            if len(rest) != 2 or not symbols[0]:
                raise lex.error(cmd, "malformed declare-const")
            _declare(problem, lex, rest[0], (), _parse_sort(problem, lex, rest[1]))
        elif head == "assert":
            if len(rest) != 1:
                raise lex.error(cmd, "malformed assert")
            t = read_term(problem, lex, rest[0])
            if problem.store.sort_of(t) != BOOL:
                raise lex.error(rest[0], "asserted term is not Bool")
            problem.assertions.append(t)
            problem.input_clauses.append(mk_clause(problem.store, [pos(t)]))
        elif head in ("check-sat", "exit"):
            pass
        else:
            raise lex.error(cmd, f"unsupported command {head}", UnsupportedError)
    return problem


# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------

def parse_dimacs(text: str) -> Problem:
    """Parse DIMACS CNF: ``p cnf V C`` header, 0-terminated clauses,
    ``c`` comment lines.  Literal range and clause count are enforced."""
    offset = lineno = 0
    while offset < len(text):  # lines as split_lines gives them, up to the header
        end = text.find("\n", offset)
        end = len(text) if end < 0 else end
        stripped = text[offset:end].strip()
        offset, lineno = end + 1, lineno + 1
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
    values, top = _dimacs_body(text[offset:], lineno, n_vars)
    # v<n> is atom n + 1, a reserved Bool variable, for every n up to the
    # largest numeral, used or not: the header's count costs nothing, atom
    # order is numeral order, and a clause needs no sort check.
    problem = Problem(TermStore(top), logic="SAT")
    codes: list[int] = []  # encoded literals of the clause being read
    for value in values:
        if value:
            codes.append(2 * value + 2 if value > 0 else 3 - 2 * value)
        else:
            problem.input_clauses.append(Clause(sorted(set(codes))))
            codes = []
    if len(problem.input_clauses) != n_clauses:
        raise ParseError(
            f"header promises {n_clauses} clauses, found {len(problem.input_clauses)}",
            len(split_lines(text)), 1)
    problem.dimacs_header_vars = n_vars
    return problem


def _dimacs_body(body: str, header: int, n_vars: int) -> tuple[list[int], int]:
    """The literals of ``body``, the text after the header on line
    ``header``, 0 for a clause end (the last value is 0), and the largest
    numeral among them.

    A body of ASCII digits, ``-``, spaces, tabs and line breaks takes one
    bulk conversion, one range check and a check for the final 0.  Any
    other body, and any body that would raise, is read line by line and
    field by field, and only that reader reports errors.
    """
    if _DIMACS_BODY.fullmatch(body):
        try:
            values = list(map(int, body.split()))
        except ValueError:  # "-", "1-2", or past CPython's digit limit
            pass
        else:
            low, high = min(values, default=0), max(values, default=0)
            if not values or (values[-1] == 0 and -n_vars <= low and high <= n_vars):
                return values, max(high, -low)
    values, lines = [], split_lines(body)
    for lineno, raw in enumerate(lines, start=header + 1):
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
        raise ParseError("last clause is missing its terminating 0", header + len(lines), 1)
    return values, max(map(abs, values), default=0)
