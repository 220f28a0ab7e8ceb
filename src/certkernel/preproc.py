"""Untrusted certificate reader and preprocessor: the line-based certificate
format, nested proofs to linear certificates and certificate compaction.

Nothing the kernel decides depends on code in this module.  The kernel
checks every id, index and clause code of a ``Certificate``, however it was
built, so a bug here, in the reader too, can only produce certificates the
kernel rejects; it cannot make an invalid derivation check out.

Certificate concrete syntax, one step per line::

    <id> <rule> (<premise ids>) {<payload>}
    qed <id>

with payload terms written in SMT-LIB syntax.  Each line is read as one
``frontend.Lexemes`` list, by index; its errors take precedence as there.
Clause payloads list their literals directly; ``(not <atom>)`` marks a
negative literal.  A line of only spaces, tabs, CRs and a ``;`` comment is
blank.  Payloads per rule:

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

The reader takes one line of the text at a time, broken as ``split_lines``
breaks it, and gathers the steps into blocks of at most ``_RUN_LINES``.
``parse_certificate`` returns them all; ``stream_certificate`` reads the
first block at once and each later one when replay has consumed the one
before, so that replay holds one block of steps, not the certificate's.
Either way a block is read in full, errors included, before a step of it
is handed out.  The kernel checks whatever a ``Step`` carries, so reading
by blocks changes no verdict's soundness.  In a certificate of more than
one block, a term that replay makes first (a ``cong`` conclusion, say)
gets its id before the later blocks' terms, not after them.

Two shapes that ``printer.print_certificate`` writes are read without the
full reader.  A ``<id> res (<ids>) {}`` line is converted from its step
head, together with the run of such lines after it, each ending in a line
feed, if the next line starts as the next step would.  The line and its
run fill at most one block: one regex ``findall``, one comprehension into
``Step``s, and one check that the ids count on, that each step names a
premise and that each premise comes before its step.  Only a line whose
step head names ``res`` looks at the next line, so other lines cost
nothing more.

A ``<id> <rule> (<ints>) {<term>[ <index>]}`` line for a ``CnfPayload``
rule is read without the full reader if the term's text is in a memo local
to one reading of a certificate, which holds the id the full reader gave
that text as a whole payload term on an earlier line.  A hit equals a full
parse: the same bytes read against the same store and declarations intern
the same id.  Any other line, and any line of a block that fails a check,
goes through the full reader, which alone reports errors.  This line memo
saves the lexer as well and keys whole payload terms of any size; the
subterm memo of ``frontend.read_term``, kept per problem, only saves
rereading terms of at most 64 lexemes on lines that are lexed.

Nested proofs are trees in a small s-expression syntax::

    (step <rule> (<premise>*) {<payload>})
    (let ((<name> <proof>)) <proof>)
    (ref <name>)

A step premise is an input clause id (integer), a bound lemma name, or an
inline sub-proof.  Names must be bound before use and never shadowed.
Linearization emits each let-bound lemma once, at its binding site, so the
output certificate is linear in the size of the tree.  The reader and the
linearizer are walks that wait on a list, not on Python's stack (see
``frontend._unfold``), so lets and inline sub-proofs nest to any depth.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import NamedTuple

from .bitblast import BvPayload
from .errors import ForwardReferenceError, ParseError, SortError, UnboundNameError
from .euf import EqRule, EqStep, EufPayload
from .frontend import (
    _BRACKETS, _OPENING, _SIGNED, _SYM, Lexemes, Problem, _unfold, read_term,
)
from .kernel import RULES
from .lia import LiaPayload
from .resolution import CnfPayload
from .steps import AssumePayload, Certificate, RuleKind, Step
from .terms import BOOL, Clause, TermId, class_eq, mk_clause, neg, pos

# A certificate step up to its payload, and a payload of one term (a symbol,
# or "(" to the last ")" over symbol characters, brackets and spaces), an
# optional index and the closing brace, as print_certificate writes them.
_STEP_HEAD = re.compile(r"([0-9]+) ([a-z_0-9]+) \(([0-9 ]*)\) \{")
_ONE_TERM = re.compile(rf"([{_SYM}]+|\([{_SYM}() ]*\))(?: (-?[0-9]+))?\}}")
# The most steps in one block, a res line without payload, ending in a line
# feed, and a run of such lines that fills a block with the line before it.
_RUN_LINES = 2048
_RES_LINE = re.compile(r"([0-9]+) res \(([0-9 ]*)\) \{\}\n")
_RES_RUN = re.compile(f"(?:{_RES_LINE.pattern}){{1,{_RUN_LINES - 1}}}")
RULE_BY_NAME = {r.value: r for r in RuleKind}
_BB_RULES = frozenset(r for r, entry in RULES.items() if entry.payload is BvPayload)
_RES = RuleKind.RES  # an Enum member lookup costs about 150 ns


@class_eq
class NStep(NamedTuple):
    rule: RuleKind
    premises: tuple[object, ...]  # int | str | nested node
    payload: object = None


@class_eq
class NLet(NamedTuple):
    name: str
    bound: object
    body: object


@class_eq
class NRef(NamedTuple):
    name: str


NestedProof = object  # NStep | NLet | NRef


def linearize(proof: NestedProof, n_inputs: int) -> Certificate:
    """Flatten a nested proof into a forward-reference-free certificate.

    Step ids start at n_inputs.  Let-bound subproofs are emitted before
    their bodies and shared by reference, so repeated use does not blow up
    the output.  Raises UnboundNameError for unbound or shadowed names;
    nothing partial is returned on error.
    """
    steps: list[Step] = []
    root_id = _unfold(_emit, proof, {}, steps, n_inputs)
    return Certificate(tuple(steps), qed=root_id)


def _emit(node: NestedProof, env: dict[str, int], steps: list[Step], n_inputs: int):
    """Walk for _unfold: append node's steps to steps, then return the id
    of its conclusion.  env is the one dict of lemma names in scope: a let's
    name enters it once its bound proof is emitted and leaves after its body."""
    if isinstance(node, NLet):
        if node.name in env:
            raise UnboundNameError(f"lemma name {node.name} is shadowed")
        env[node.name] = yield node.bound
        root = yield node.body
        del env[node.name]
        return root
    if isinstance(node, NRef):
        if node.name not in env:
            raise UnboundNameError(f"unbound lemma name {node.name}")
        return env[node.name]
    if not isinstance(node, NStep):
        raise UnboundNameError(f"not a proof node: {node!r}")
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
            premises.append((yield p))
    steps.append(Step(n_inputs + len(steps), node.rule, tuple(premises), node.payload))
    return steps[-1].id


def compact(cert: Certificate, n_inputs: int) -> Certificate:
    """Drop the steps that neither the qed step nor a bit-blasting step
    needs, and renumber.

    Every ``bb_*`` step stays, with the steps its premises reach: it reads
    the maps that earlier ``bb_*`` steps left in ``BitBlastState`` and
    names no premise for them.  Any other step stays only if the qed step
    or a ``bb_*`` step reaches it through premises.  Input ids stay fixed;
    surviving steps are renumbered densely in their original order.

    For a certificate whose empty clause is derived in the qed step's cone
    (every certificate this package emits), a VALID or TRUSTED verdict is
    unchanged.  An INVALID one can become VALID: a dropped step that the
    kernel rejects, or whose clause names an aux variable that a later
    ``bb_*`` step declares fresh, no longer spoils the run.
    """
    if cert.qed is None:
        return cert
    by_id = {s.id: s for s in cert.steps}
    live: set[int] = set()
    stack = [cert.qed, *(s.id for s in cert.steps if s.rule in _BB_RULES)]
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


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

def parse_literal(problem: Problem, lex: Lexemes, k: int) -> int:
    """The literal code of the term at ``k``: ``(not <atom>)`` is a negative
    literal; anything else is positive."""
    if lex.words[k] == "(" and lex.words[k + 1] == "not" and len(lex.items(k)) == 2:
        return neg(read_term(problem, lex, k + 2))
    return pos(read_term(problem, lex, k))


def _parse_clause(problem: Problem, lex: Lexemes, items: list[int], at: int | None) -> Clause:
    try:
        return mk_clause(problem.store, [parse_literal(problem, lex, k) for k in items])
    except SortError as e:
        raise lex.error(at, str(e)) from e


def parse_int(lex: Lexemes, k: int) -> int:
    if not _SIGNED.match(lex.words[k]):
        raise lex.error(k, "expected an integer")
    return lex.number(k)


def _tagged(lex: Lexemes, items: list[int]) -> dict[str, int | None]:
    """Split payload items into named groups (name -> index) plus bare
    flags (name -> None)."""
    words, out = lex.words, {}
    for k in items:
        if words[k] not in _OPENING:
            out[words[k]] = None
        elif words[k] != "(" or words[k + 1] in _BRACKETS:
            raise lex.error(k, "malformed payload group")
        else:
            out[words[k + 1]] = k
    return out


def _parse_eqstep(problem: Problem, lex: Lexemes, k: int) -> EqStep:
    words = lex.words
    if words[k] != "(" or words[k + 1] in _BRACKETS:
        raise lex.error(k, "malformed justification step")
    head, *rest = lex.items(k)
    head = words[head]
    if head == "refl":
        if len(rest) != 1:
            raise lex.error(k, "refl takes one term")
        return EqStep(EqRule.REFL, term=read_term(problem, lex, rest[0]))
    if head == "sym":
        if len(rest) != 1:
            raise lex.error(k, "sym takes one index")
        return EqStep(EqRule.SYM, refs=(parse_int(lex, rest[0]),))
    if head == "trans":
        if len(rest) != 2:
            raise lex.error(k, "trans takes two indices")
        return EqStep(EqRule.TRANS, refs=(parse_int(lex, rest[0]), parse_int(lex, rest[1])))
    if head == "cong":
        if not rest or words[rest[0]] in _OPENING:
            raise lex.error(k, "cong takes a function name and indices")
        decl = problem.decls.get(words[rest[0]])
        if decl is None or decl[0] == "var":
            raise lex.error(rest[0], f"unknown function {words[rest[0]]}")
        return EqStep(EqRule.CONG, fun=decl[1],
                      refs=tuple(parse_int(lex, r) for r in rest[1:]))
    if head == "hyp":
        if len(rest) != 1:
            raise lex.error(k, "hyp takes one literal index")
        return EqStep(EqRule.HYP, hyp=parse_int(lex, rest[0]))
    raise lex.error(k, f"unknown justification rule {head}")


def _parse_aux(problem: Problem, lex: Lexemes, k: int) -> tuple[TermId, ...]:
    words = lex.words
    if words[k] != "(" or words[k + 1] != "aux":
        raise lex.error(k, "expected (aux ...)")
    out = []
    for j in lex.items(k)[1:]:
        name = words[j]
        if name in _OPENING:
            raise lex.error(j, "aux entries must be names")
        # Aux names become Bool variables on sight and stay visible to later
        # payload lines; whether they are fresh is decided during replay.
        tid = problem.store.var(name, BOOL)
        existing = problem.decls.setdefault(name, ("var", tid))
        if existing != ("var", tid):
            raise lex.error(j, f"aux name {name} clashes with a declaration")
        out.append(tid)
    return tuple(out)


def parse_payload(problem: Problem, rule: RuleKind, lex: Lexemes, k: int, at: int | None):
    """Build the rule-specific payload object from the brace group at
    lexeme k, in the syntax of the payload type the rule registry gives the
    rule.  Errors about the payload as a whole are reported at lexeme at
    (for None, at the text's first column)."""
    payload_type = RULES[rule].payload
    items = lex.items(k)
    if payload_type is type(None):
        if items:
            raise lex.error(at, f"{rule.value} takes no payload")
        return None
    if payload_type is CnfPayload:
        if not items or len(items) > 2:
            raise lex.error(at, f"{rule.value} payload is a term and an optional index")
        index = parse_int(lex, items[1]) if len(items) == 2 else 0
        return CnfPayload(read_term(problem, lex, items[0]), index)
    if payload_type is EufPayload or payload_type is LiaPayload:
        groups = _tagged(lex, items)
        proof = "just" if payload_type is EufPayload else "farkas"
        lemma_grp, proof_grp = groups.get("lemma"), groups.get(proof)
        if lemma_grp is None or proof_grp is None:
            raise lex.error(at, f"{rule.value} payload needs (lemma ...) and ({proof} ...)")
        lemma = _parse_clause(problem, lex, lex.items(lemma_grp)[1:], at)
        if payload_type is EufPayload:
            return EufPayload(lemma, tuple(_parse_eqstep(problem, lex, j)
                                           for j in lex.items(proof_grp)[1:]))
        combo = []
        for entry in lex.items(proof_grp)[1:]:
            pair = lex.items(entry)
            if lex.words[entry] != "(" or len(pair) != 2:
                raise lex.error(entry, "farkas entries are (index coeff) pairs")
            combo.append((parse_int(lex, pair[0]), parse_int(lex, pair[1])))
        return LiaPayload(lemma, tuple(combo), tighten="tighten" in groups)
    if payload_type is BvPayload:
        if not items:
            raise lex.error(at, f"{rule.value} payload needs a target term")
        target = read_term(problem, lex, items[0])
        aux: tuple[TermId, ...] = ()
        if len(items) == 2:
            aux = _parse_aux(problem, lex, items[1])
        elif len(items) > 2:
            raise lex.error(at, "too many payload groups")
        return BvPayload(target, aux)
    return AssumePayload(_parse_clause(problem, lex, items, at))


def _step_rule(lex: Lexemes, items: list[int]) -> RuleKind | None:
    """The rule of ``<head> <rule> (<premises>) {<payload>}`` items, or None
    for items of another shape; an unknown rule name is a ParseError."""
    words = lex.words
    if [words[k] if words[k] in _OPENING else None for k in items] != [None, None, "(", "{"]:
        return None
    rule = RULE_BY_NAME.get(words[items[1]])
    if rule not in RULES:
        raise lex.error(items[1], f"unknown rule {words[items[1]]}")
    return rule


def _res_steps(found: list[tuple[str, str]], next_id: int) -> list[Step] | None:
    """The steps of ``_RES_LINE`` matches (id and premise text of each), or
    None unless the ids count on from next_id, each step names a premise,
    each premise comes before its step and every numeral is within
    CPython's digit limit for int-string conversion."""
    try:
        steps = [Step(int(i), _RES, tuple(map(int, p.split()))) for i, p in found]
    except ValueError:
        return None
    for expected, (step_id, _, premises, _) in enumerate(steps, next_id):
        if step_id != expected or not premises or max(premises) >= step_id:
            return None
    return steps


def _memo_step(raw: str, head: re.Match | None, rule: RuleKind | None, next_id: int,
               memo: dict[str, TermId]) -> tuple[Step | None, re.Match | None]:
    """(step, None) for a well-formed ``CnfPayload`` line whose term is in
    the memo (see the module docstring), where head is the line's
    ``_STEP_HEAD`` match and rule the rule it names; otherwise (None, term),
    where term is the line's one-term match, if any, for the caller to memo
    once the full reader has accepted the line."""
    entry = RULES.get(rule)  # None for no match or an unknown rule name
    if entry is None or entry.payload is not CnfPayload:
        return None, None
    term = _ONE_TERM.fullmatch(raw, head.end())
    if term is None or term[1] not in memo:
        return None, term
    try:
        step_id = int(head[1])
        premises = tuple(map(int, head[3].split()))
        index = int(term[2]) if term[2] is not None else 0
    except ValueError:  # past CPython's digit limit for int-string conversion
        return None, term
    if step_id != next_id or (premises and max(premises) >= step_id):
        return None, term
    return Step(step_id, rule, premises, CnfPayload(memo[term[1]], index)), None


def _blocks(text: str, problem: Problem):
    """Generator: the certificate's steps in lists of at most ``_RUN_LINES``,
    each read in full before it is yielded, and the last one once the qed
    line and the rest of the text are read as well; it returns the qed id.
    A block is yielded only when the next step or run would overflow it."""
    block: list[Step] = []
    qed: int | None = None
    next_id = len(problem.input_clauses)
    memo: dict[str, TermId] = {}  # payload term text -> id, for _memo_step
    size = len(text)
    offset = lineno = full = 0  # no res line before line full + 1 is read in a block

    while offset < size:  # lines as split_lines gives them, one at a time
        end = text.find("\n", offset)
        if end < 0:
            end = size
        raw = text[offset:end]
        offset = end + 1  # the text offset of the next line
        lineno += 1
        stripped = raw.lstrip(" \t\r")
        if not stripped or stripped.startswith(";"):
            continue
        if qed is not None:
            raise ParseError("content after qed", lineno, 1)
        head = _STEP_HEAD.match(raw)
        rule = RULE_BY_NAME.get(head[2]) if head is not None else None
        new = None
        if rule is _RES and raw[head.end():] == "}" and lineno > full:
            # This line, and the run after it if the next line starts as
            # the next step would.
            found, run = [(head[1], head[3])], None
            if text.startswith(f"{next_id + 1} res (", offset):
                run = _RES_RUN.match(text, offset)
                if run is not None:
                    found += _RES_LINE.findall(text, offset, run.end())
            new = _res_steps(found, next_id)
            if new is None:
                full = lineno + len(found) - 1
            elif run is not None:  # skip the run's lines
                offset = run.end()
                lineno += len(new) - 1
        if new is None:
            step, term = _memo_step(raw, head, rule, next_id, memo)
            if step is None:
                lex = Lexemes(raw, lineno)
                items = lex.items()
                if items and lex.words[0] == "qed":
                    if len(items) != 2:
                        raise ParseError("qed takes one step id", lineno, 1)
                    qed = parse_int(lex, items[1])
                    if qed >= next_id or qed < 0:
                        raise ForwardReferenceError(f"qed names unknown id {qed}", lineno, 1)
                    continue
                step = _read_step(problem, lex, items, lineno, next_id, term, memo)
            new = [step]
        if len(block) + len(new) > _RUN_LINES:
            yield block
            block = new
        else:
            block += new
        next_id += len(new)

    if qed is None:
        raise ParseError("missing qed line", lineno or 1, 1)
    yield block
    return qed


def _read_step(problem: Problem, lex: Lexemes, items: list[int], lineno: int, next_id: int,
               term: re.Match | None, memo: dict[str, TermId]) -> Step:
    """The step of a lexed line other than qed, read in full; term is the
    line's one-term match, memoed once the payload is read."""
    rule = _step_rule(lex, items)
    if rule is None:
        raise ParseError("expected: <id> <rule> (<premises>) {<payload>}", lineno, 1)
    step_id = parse_int(lex, 0)
    if step_id != next_id:
        raise ParseError(f"step id {step_id}, expected {next_id}", lineno, 1)
    premises = tuple(parse_int(lex, p) for p in lex.items(items[2]))
    for p in premises:
        if p >= step_id or p < 0:
            raise ForwardReferenceError(
                f"premise {p} is not before step {step_id}", lineno, 1)
    payload = parse_payload(problem, rule, lex, items[3], None)
    # Memo the term only if it alone made up the payload's first item.
    if term is not None and len(lex.items(items[3])) == (1 if term[2] is None else 2):
        memo[term[1]] = payload.target
    return Step(step_id, rule, premises, payload)


def parse_certificate(text: str, problem: Problem) -> Certificate:
    """Parse the line-based certificate format against a parsed problem."""
    reader = _blocks(text, problem)
    steps: list[Step] = []
    try:
        while True:
            steps += next(reader)
    except StopIteration as end:
        return Certificate(tuple(steps), end.value)


def stream_certificate(text: str, problem: Problem) -> Certificate:
    """The certificate read block by block as its steps are consumed.

    Its ``steps`` are a one-shot iterator and its ``qed`` is None: the
    reader checks the qed line itself.  The first block is read before
    this returns, so a certificate of at most ``_RUN_LINES`` steps is read
    in full, errors included, before any step is replayed.  A later block
    is read, and its errors raised, when the previous one is consumed."""
    reader = _blocks(text, problem)
    return Certificate(chain(next(reader), chain.from_iterable(reader)))


def _convert(k: int, problem: Problem, lex: Lexemes):
    """Walk for _unfold: the proof node at lexeme k.  It yields the index of
    each sub-proof and is sent its node: a let's body before its bindings,
    the last binding first, so a body's errors come before its bindings'."""
    words = lex.words
    if words[k] not in _OPENING:
        raise lex.error(k, f"expected a proof node, got {words[k]!r}")
    items = lex.items(k)
    if words[k] != "(" or not items or words[items[0]] in _OPENING:
        raise lex.error(k, "malformed proof node")
    head = words[items[0]]
    if head == "let":
        if len(items) != 3 or words[items[1]] != "(":
            raise lex.error(k, "malformed let")
        body = yield items[2]
        for b in reversed(lex.items(items[1])):
            binding = lex.items(b)
            if words[b] != "(" or len(binding) != 2 or words[binding[0]] in _OPENING:
                raise lex.error(k, "malformed let binding")
            body = NLet(words[binding[0]], (yield binding[1]), body)
        return body
    if head == "ref":
        if len(items) != 2 or words[items[1]] in _OPENING:
            raise lex.error(k, "ref takes one name")
        return NRef(words[items[1]])
    if head != "step":
        raise lex.error(k, f"unknown proof node {head}")
    rule = _step_rule(lex, items)
    if rule is None:
        raise lex.error(k, "expected (step <rule> (<premises>) {<payload>})")
    premises: list = []
    for p in lex.items(items[2]):
        if words[p] in _OPENING:
            premises.append((yield p))
        elif words[p].removeprefix("-").isdigit():
            premises.append(parse_int(lex, p))
        else:
            premises.append(words[p])
    return NStep(rule, tuple(premises), parse_payload(problem, rule, lex, items[3], k))


def parse_nested_proof(text: str, problem: Problem) -> NestedProof:
    """Parse one nested proof expression against a parsed problem."""
    lex = Lexemes(text)
    items = lex.items()
    if len(items) != 1:
        raise ParseError("expected exactly one proof expression", 1, 1)
    return _unfold(_convert, items[0], problem, lex)
