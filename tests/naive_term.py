"""Reference SMT-LIB and certificate readers over Token/SList trees.

These are the readers certkernel had before it read lexeme lists by
index: ``naive_read_sexprs`` builds a tree, ``parse_term`` walks it by
recursion, and ``naive_parse_smt2`` and ``naive_parse_certificate`` read
commands and certificate lines from it (every line through the full
reader; there is no fast path).  The differential tests in
test_frontend.py compare them with certkernel's readers: the same store
nodes in the same order and equal problems and certificates, or the same
error type, message, line and column.  Recursion bounds the depth they
read, so they are run on shallow inputs only.
"""

from __future__ import annotations

from functools import reduce

from naive_reader import SList, Token, naive_read_sexprs

from certkernel.bitblast import BvPayload
from certkernel.errors import ForwardReferenceError, ParseError, SortError, UnsupportedError
from certkernel.euf import EqRule, EqStep, EufPayload
from certkernel.frontend import (
    _BV_LIT, _HEADS, _NUMERAL, _SIGNED, _SWAPPED, _UNSUPPORTED_HEADS, LOGICS,
    Problem, _to_int, split_lines,
)
from certkernel.kernel import RULES
from certkernel.lia import LiaPayload
from certkernel.preproc import RULE_BY_NAME
from certkernel.resolution import CnfPayload
from certkernel.steps import AssumePayload, Certificate, Step
from certkernel.terms import (
    BOOL, INT, BitVecSort, FunSym, Kind, TermStore, UninterpretedSort, mk_clause, neg, pos,
)


def _pos_of(sx) -> tuple[int, int]:
    return (sx.line, sx.col)


def _parse_sort(problem, sx):
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


def parse_term(problem, sx, env=None):
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


def _declare(problem, name_tok, arg_sorts, ret):
    name = name_tok.text
    if name.startswith("$"):
        raise ParseError("names starting with $ are reserved", *_pos_of(name_tok))
    if name in problem.decls:
        raise ParseError(f"{name} is already declared", *_pos_of(name_tok))
    store = problem.store
    if not arg_sorts:
        problem.decls[name] = ("var", store.var(name, ret))
        return
    if ret == BOOL:
        if "$bool" not in problem.sorts:
            psort = UninterpretedSort("$bool")
            problem.sorts["$bool"] = psort
            problem.decls["$tt"] = ("var", store.var("$tt", psort))
        problem.decls[name] = ("pred", FunSym(name, arg_sorts, problem.sorts["$bool"]))
        return
    problem.decls[name] = ("fun", FunSym(name, arg_sorts, ret))


def naive_parse_smt2(text: str) -> Problem:
    problem = Problem(store=TermStore())
    for cmd in naive_read_sexprs(text):
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
            t = parse_term(problem, rest[0])
            if problem.store.sort_of(t) != BOOL:
                raise ParseError("asserted term is not Bool", *_pos_of(rest[0]))
            problem.assertions.append(t)
            problem.input_clauses.append(mk_clause(problem.store, [pos(t)]))
        elif head in ("check-sat", "exit"):
            pass
        else:
            raise UnsupportedError(f"unsupported command {head}", *_pos_of(cmd))
    return problem


def parse_literal(problem, sx):
    if isinstance(sx, SList) and sx.bracket == "(" and len(sx.items) == 2 \
            and isinstance(sx.items[0], Token) and sx.items[0].text == "not":
        return neg(parse_term(problem, sx.items[1]))
    return pos(parse_term(problem, sx))


def _parse_clause(problem, items, line, col):
    try:
        return mk_clause(problem.store, [parse_literal(problem, sx) for sx in items])
    except SortError as e:
        raise ParseError(str(e), line, col) from e


def parse_int(sx) -> int:
    if not isinstance(sx, Token) or not _SIGNED.match(sx.text):
        raise ParseError("expected an integer", *_pos_of(sx))
    return _to_int(sx.text, *_pos_of(sx))


def _tagged(items, groups, flags):
    out = {}
    for sx in items:
        if isinstance(sx, Token):
            name, value, known = sx.text, True, flags
        elif sx.bracket != "(" or not sx.items or not isinstance(sx.items[0], Token):
            raise ParseError("malformed payload group", *_pos_of(sx))
        else:
            name, value, known = sx.items[0].text, sx, groups
        if name not in known:
            raise ParseError(f"unexpected payload item {name}", *_pos_of(sx))
        if name in out:
            raise ParseError(f"repeated payload item {name}", *_pos_of(sx))
        out[name] = value
    return out


def _parse_eqstep(problem, sx):
    if not isinstance(sx, SList) or sx.bracket != "(" or not sx.items \
            or not isinstance(sx.items[0], Token):
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
        return EqStep(EqRule.CONG, fun=decl[1], refs=tuple(parse_int(r) for r in rest[1:]))
    if head == "hyp":
        if len(rest) != 1:
            raise ParseError("hyp takes one literal index", *_pos_of(sx))
        return EqStep(EqRule.HYP, hyp=parse_int(rest[0]))
    raise ParseError(f"unknown justification rule {head}", *_pos_of(sx))


def _parse_aux(problem, sx):
    if not (isinstance(sx, SList) and sx.bracket == "(" and sx.items
            and isinstance(sx.items[0], Token) and sx.items[0].text == "aux"):
        raise ParseError("expected (aux ...)", *_pos_of(sx))
    out = []
    for tok in sx.items[1:]:
        if not isinstance(tok, Token):
            raise ParseError("aux entries must be names", *_pos_of(tok))
        tid = problem.store.var(tok.text, BOOL)
        existing = problem.decls.setdefault(tok.text, ("var", tid))
        if existing != ("var", tid):
            raise ParseError(f"aux name {tok.text} clashes with a declaration", *_pos_of(tok))
        out.append(tid)
    return tuple(out)


def parse_payload(problem, rule, items, line, col):
    payload_type = RULES[rule].payload
    if payload_type is type(None):
        if items:
            raise ParseError(f"{rule.value} takes no payload", line, col)
        return None
    if payload_type is CnfPayload:
        if not items or len(items) > 2:
            raise ParseError(f"{rule.value} payload is a term and an optional index", line, col)
        index = parse_int(items[1]) if len(items) == 2 else 0
        return CnfPayload(parse_term(problem, items[0]), index)
    if payload_type is EufPayload or payload_type is LiaPayload:
        proof = "just" if payload_type is EufPayload else "farkas"
        groups = _tagged(items, ("lemma", proof),
                         () if payload_type is EufPayload else ("tighten",))
        lemma_grp, proof_grp = groups.get("lemma"), groups.get(proof)
        if not isinstance(lemma_grp, SList) or not isinstance(proof_grp, SList):
            raise ParseError(f"{rule.value} payload needs (lemma ...) and ({proof} ...)",
                             line, col)
        lemma = _parse_clause(problem, lemma_grp.items[1:], line, col)
        if payload_type is EufPayload:
            return EufPayload(lemma, tuple(_parse_eqstep(problem, sx)
                                           for sx in proof_grp.items[1:]))
        combo = []
        for entry in proof_grp.items[1:]:
            if not isinstance(entry, SList) or entry.bracket != "(" or len(entry.items) != 2:
                raise ParseError("farkas entries are (index coeff) pairs", *_pos_of(entry))
            combo.append((parse_int(entry.items[0]), parse_int(entry.items[1])))
        return LiaPayload(lemma, tuple(combo), tighten="tighten" in groups)
    if payload_type is BvPayload:
        if not items:
            raise ParseError(f"{rule.value} payload needs a target term", line, col)
        target = parse_term(problem, items[0])
        aux = ()
        if len(items) == 2:
            aux = _parse_aux(problem, items[1])
        elif len(items) > 2:
            raise ParseError("too many payload groups", line, col)
        return BvPayload(target, aux)
    return AssumePayload(_parse_clause(problem, items, line, col))


def _step_rule(items, message, line, col):
    if len(items) != 4 or not isinstance(items[0], Token) or not isinstance(items[1], Token) \
            or not isinstance(items[2], SList) or items[2].bracket != "(" \
            or not isinstance(items[3], SList) or items[3].bracket != "{":
        raise ParseError(message, line, col)
    rule = RULE_BY_NAME.get(items[1].text)
    if rule not in RULES:
        raise ParseError(f"unknown rule {items[1].text}", *_pos_of(items[1]))
    return rule


def naive_parse_certificate(text: str, problem: Problem) -> Certificate:
    steps = []
    qed = None
    next_id = len(problem.input_clauses)
    lines = split_lines(text)
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.lstrip(" \t\r")
        if not stripped or stripped.startswith(";"):
            continue
        if qed is not None:
            raise ParseError("content after qed", lineno, 1)
        items = naive_read_sexprs(raw, first_line=lineno)
        if items and isinstance(items[0], Token) and items[0].text == "qed":
            if len(items) != 2:
                raise ParseError("qed takes one step id", lineno, 1)
            qed = parse_int(items[1])
            if qed >= next_id or qed < 0:
                raise ForwardReferenceError(f"qed names unknown id {qed}", lineno, 1)
            continue
        rule = _step_rule(items, "expected: <id> <rule> (<premises>) {<payload>}", lineno, 1)
        step_id = parse_int(items[0])
        if step_id != next_id:
            raise ParseError(f"step id {step_id}, expected {next_id}", lineno, 1)
        premises = tuple(parse_int(p) for p in items[2].items)
        for p in premises:
            if p >= step_id or p < 0:
                raise ForwardReferenceError(
                    f"premise {p} is not before step {step_id}", lineno, 1)
        payload = parse_payload(problem, rule, items[3].items, lineno, 1)
        steps.append(Step(step_id, rule, premises, payload))
        next_id += 1
    if qed is None:
        raise ParseError("missing qed line", len(lines) or 1, 1)
    return Certificate(tuple(steps), qed)
