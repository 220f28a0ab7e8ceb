"""Untrusted certificate reader and preprocessor: the line-based certificate
format, nested proofs to linear certificates, certificate compaction and
trust-obligation extraction.

Nothing the kernel decides depends on code in this module.  The kernel
checks every id, index and clause code of a ``Certificate``, however it was
built, so a bug here, in the reader too, can only produce certificates the
kernel rejects; it cannot make an invalid derivation check out.

Certificate concrete syntax, one step per line::

    <id> <rule> (<premise ids>) {<payload>}
    qed <id>

with payload terms written in SMT-LIB syntax.  Clause payloads list their
literals directly; ``(not <atom>)`` marks a negative literal.  A line of
only spaces, tabs, CRs and a ``;`` comment is blank.  Payloads per rule:

    res                  {}
    and_pos etc.         {<target term> [<index>]}
    euf                  {(lemma <lit>*) (just <eqstep>*)}
    lia                  {(lemma <lit>*) (farkas (<hyp> <coeff>)*) [tighten]}
    bb_var, bb_add       {<target term> (aux <name>*)}
    other bb rules       {<target term>}
    assume               {<lit>*}

Braces delimit only a step's payload.  Names introduced under ``(aux ...)``
become Bool variables on sight; their freshness is the kernel's business.
Any other second group, ``(foo v)`` or ``()`` say, is a ParseError there.

``_fast_step`` reads lines as ``printer.print_certificate`` writes them with
a regex: ``<id> <rule> (<ints>) {}`` for a rule without payload, and ``<id>
<rule> (<ints>) {<term>[ <index>]}`` for a ``CnfPayload`` rule if the term's
text is in a memo local to one ``parse_certificate`` call, which holds the
id the full reader gave that text as a whole payload term on an earlier
line.  A hit equals a full parse: the same bytes read against the same store
and declarations intern the same id.  Any other line, and any line that
would raise, goes through the full reader, which alone reports errors.

Nested proofs are trees in a small s-expression syntax::

    (step <rule> (<premise>*) {<payload>})
    (let ((<name> <proof>)) <proof>)
    (ref <name>)

A step premise is an input clause id (integer), a bound lemma name, or an
inline sub-proof.  Names must be bound before use and never shadowed.
Linearization emits each let-bound lemma once, at its binding site, so the
output certificate is linear in the size of the tree.  A chain of lets,
each nested in the body of the last, is read and linearized in a loop, so
it may be of any length; an inline sub-proof and a let in a binding still
recurse, and nesting those too deeply is a ParseError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .bitblast import BvPayload
from .errors import ForwardReferenceError, ParseError, SortError, UnboundNameError
from .euf import EqRule, EqStep, EufPayload
from .frontend import (
    _SIGNED, _SYM, Problem, SList, Token, _pos_of, _to_int, parse_term,
    read_sexprs, split_lines,
)
from .kernel import RULES
from .lia import LiaPayload
from .resolution import CnfPayload
from .steps import AssumePayload, Certificate, RuleKind, Step
from .terms import BOOL, Clause, Literal, TermId, mk_clause, neg, pos

# A certificate step up to its payload, and a payload of one term (a symbol,
# or "(" to the last ")" over symbol characters, brackets and spaces), an
# optional index and the closing brace, as print_certificate writes them.
_STEP_HEAD = re.compile(r"([0-9]+) ([a-z_0-9]+) \(([0-9 ]*)\) \{")
_ONE_TERM = re.compile(rf"([{_SYM}]+|\([{_SYM}() ]*\))(?: (-?[0-9]+))?\}}")
RULE_BY_NAME = {r.value: r for r in RuleKind}


@dataclass(frozen=True, slots=True)
class NStep:
    rule: RuleKind
    premises: tuple[object, ...]  # int | str | nested node
    payload: object = None


@dataclass(frozen=True, slots=True)
class NLet:
    name: str
    bound: object
    body: object


@dataclass(frozen=True, slots=True)
class NRef:
    name: str


NestedProof = object  # NStep | NLet | NRef


@dataclass(frozen=True, slots=True)
class TrustReport:
    """The clauses a certificate takes on trust, with their step origins."""

    assumed: tuple[Clause, ...]
    origins: tuple[str, ...]


def linearize(proof: NestedProof, n_inputs: int) -> Certificate:
    """Flatten a nested proof into a forward-reference-free certificate.

    Step ids start at n_inputs.  Let-bound subproofs are emitted before
    their bodies and shared by reference, so repeated use does not blow up
    the output.  Raises UnboundNameError for unbound or shadowed names;
    nothing partial is returned on error.
    """
    steps: list[Step] = []
    root_id = _emit(proof, {}, steps, n_inputs)
    return Certificate(tuple(steps), qed=root_id)


def _emit(node: NestedProof, env: dict[str, int], steps: list[Step], n_inputs: int) -> int:
    """Append node's steps to steps; returns the id of its conclusion.  A
    chain of lets is followed in a loop: each bound name enters env, the one
    dict of names in scope, and leaves it once the chain's body is emitted.
    A module-level function, not a closure: a closure that calls itself is
    a reference cycle, which only the cyclic collector frees."""
    chain = []
    while isinstance(node, NLet):
        if node.name in env:
            raise UnboundNameError(f"lemma name {node.name} is shadowed")
        env[node.name] = _emit(node.bound, env, steps, n_inputs)
        chain.append(node.name)
        node = node.body
    if isinstance(node, NRef):
        if node.name not in env:
            raise UnboundNameError(f"unbound lemma name {node.name}")
        root = env[node.name]
    elif isinstance(node, NStep):
        premises = []
        for p in node.premises:
            if isinstance(p, int):
                if not 0 <= p < n_inputs:
                    raise UnboundNameError(f"input clause id {p} out of range")
                premises.append(p)
            elif isinstance(p, str):
                if p not in env:
                    raise UnboundNameError(f"unbound lemma name {p}")
                premises.append(env[p])
            else:
                premises.append(_emit(p, env, steps, n_inputs))
        root = n_inputs + len(steps)
        steps.append(Step(root, node.rule, tuple(premises), node.payload))
    else:
        raise UnboundNameError(f"not a proof node: {node!r}")
    for name in chain:
        del env[name]
    return root


def compact(cert: Certificate, n_inputs: int) -> Certificate:
    """Drop steps not backwards-reachable from the qed step and renumber.

    Input ids stay fixed; surviving steps are renumbered densely in their
    original order.  For certificates whose goal derivation is rooted at
    qed (every certificate this package emits), the kernel verdict is
    unchanged.
    """
    if cert.qed is None:
        return cert
    by_id = {s.id: s for s in cert.steps}
    live: set[int] = set()
    stack = [cert.qed]
    while stack:
        sid = stack.pop()
        if sid < n_inputs or sid in live:
            continue
        live.add(sid)
        step = by_id.get(sid)
        if step is None:
            continue
        stack.extend(step.premises)

    kept = [s for s in cert.steps if s.id in live]
    remap = {i: i for i in range(n_inputs)}
    for new_pos, step in enumerate(kept):
        remap[step.id] = n_inputs + new_pos
    steps = tuple(
        Step(remap[s.id], s.rule, tuple(remap[p] for p in s.premises), s.payload)
        for s in kept)
    return Certificate(steps, qed=remap.get(cert.qed, cert.qed))


def extract_trust(cert: Certificate) -> TrustReport:
    """Collect the clauses of all assume steps, with their provenance."""
    assumed = []
    origins = []
    for step in cert.steps:
        if step.rule is RuleKind.ASSUME:
            assumed.append(step.payload.lemma)
            origins.append(f"step {step.id}")
    return TrustReport(tuple(assumed), tuple(origins))


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

def parse_literal(problem: Problem, sx) -> Literal:
    """``(not <atom>)`` is a negative literal; anything else is positive."""
    if isinstance(sx, SList) and sx.bracket == "(" and len(sx.items) == 2 \
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


def _tagged(items) -> dict[str, SList]:
    """Split payload items into named sublists plus bare flag tokens."""
    out: dict[str, object] = {}
    for sx in items:
        if isinstance(sx, Token):
            out[sx.text] = True
            continue
        if sx.bracket != "(" or not sx.items or not isinstance(sx.items[0], Token):
            raise ParseError("malformed payload group", *_pos_of(sx))
        out[sx.items[0].text] = sx
    return out


def _parse_eqstep(problem: Problem, sx) -> EqStep:
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
    payload_type = RULES[rule].payload
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
    if payload_type is EufPayload or payload_type is LiaPayload:
        groups = _tagged(items)
        proof = "just" if payload_type is EufPayload else "farkas"
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
        aux: tuple[TermId, ...] = ()
        if len(items) == 2:
            aux = _parse_aux(problem, items[1])
        elif len(items) > 2:
            raise ParseError("too many payload groups", line, col)
        return BvPayload(target, aux)
    return AssumePayload(_parse_clause(problem, items, line, col))


def _step_rule(items: list, message: str, line: int, col: int) -> RuleKind:
    """The known rule of ``<head> <rule> (<premises>) {<payload>}`` items."""
    if len(items) != 4 or not isinstance(items[0], Token) or not isinstance(items[1], Token) \
            or not isinstance(items[2], SList) or items[2].bracket != "(" \
            or not isinstance(items[3], SList) or items[3].bracket != "{":
        raise ParseError(message, line, col)
    rule = RULE_BY_NAME.get(items[1].text)
    if rule not in RULES:
        raise ParseError(f"unknown rule {items[1].text}", *_pos_of(items[1]))
    return rule


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
    entry = RULES.get(rule)  # None for an unknown rule name
    payload_type = entry.payload if entry is not None else None
    term = None
    if payload_type is CnfPayload:
        term = _ONE_TERM.fullmatch(raw, head.end())
        if term is None or term[1] not in memo:
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
    payload = CnfPayload(memo[term[1]], index) if term is not None else None
    return Step(step_id, rule, premises, payload), None


def parse_certificate(text: str, problem: Problem) -> Certificate:
    """Parse the line-based certificate format against a parsed problem."""
    steps: list[Step] = []
    qed: int | None = None
    next_id = len(problem.input_clauses)
    memo: dict[str, TermId] = {}  # payload term text -> id, for _fast_step
    lines = split_lines(text)

    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.lstrip(" \t\r")
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
        rule = _step_rule(items, "expected: <id> <rule> (<premises>) {<payload>}", lineno, 1)
        step_id = parse_int(items[0])
        if step_id != next_id:
            raise ParseError(f"step id {step_id}, expected {next_id}", lineno, 1)
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
        raise ParseError("missing qed line", len(lines) or 1, 1)
    return Certificate(tuple(steps), qed)


def _convert(problem: Problem, sx) -> NestedProof:
    """The proof node sx.  A let's body is followed in a loop, so a chain of
    lets takes one call; a binding or an inline sub-proof recurses.  A
    body's errors come before those of its bindings, innermost let first."""
    lets = []
    while True:
        if isinstance(sx, Token):
            raise ParseError(f"expected a proof node, got {sx.text!r}", sx.line, sx.col)
        items = sx.items
        if sx.bracket != "(" or not items or not isinstance(items[0], Token):
            raise ParseError("malformed proof node", sx.line, sx.col)
        head = items[0].text
        if head != "let":
            break
        if len(items) != 3 or not isinstance(items[1], SList) or items[1].bracket != "(":
            raise ParseError("malformed let", sx.line, sx.col)
        lets.append(sx)
        sx = items[2]
    if head == "ref":
        if len(items) != 2 or not isinstance(items[1], Token):
            raise ParseError("ref takes one name", sx.line, sx.col)
        body = NRef(items[1].text)
    elif head == "step":
        rule = _step_rule(items, "expected (step <rule> (<premises>) {<payload>})",
                          sx.line, sx.col)
        premises: list = []
        for p in items[2].items:
            if isinstance(p, Token):
                if p.text.removeprefix("-").isdigit():
                    premises.append(parse_int(p))
                else:
                    premises.append(p.text)
            else:
                premises.append(_convert(problem, p))
        payload = parse_payload(problem, rule, items[3].items, sx.line, sx.col)
        body = NStep(rule, tuple(premises), payload)
    else:
        raise ParseError(f"unknown proof node {head}", sx.line, sx.col)
    for let in reversed(lets):
        for binding in reversed(let.items[1].items):
            if not (isinstance(binding, SList) and binding.bracket == "("
                    and len(binding.items) == 2 and isinstance(binding.items[0], Token)):
                raise ParseError("malformed let binding", let.line, let.col)
            body = NLet(binding.items[0].text,
                        _convert(problem, binding.items[1]), body)
    return body


def parse_nested_proof(text: str, problem: Problem) -> NestedProof:
    """Parse one nested proof expression against a parsed problem."""
    items = read_sexprs(text)
    if len(items) != 1:
        raise ParseError("expected exactly one proof expression", 1, 1)
    try:
        return _convert(problem, items[0])
    except RecursionError:
        raise ParseError("proof nested too deeply", items[0].line, items[0].col) from None
