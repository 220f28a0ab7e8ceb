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
An ``euf`` or ``lia`` payload holds each of its groups once and nothing
else but ``lia``'s one optional ``tighten``.

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

Three shapes that ``printer.print_certificate`` writes are read without the
full reader.  A ``<id> res (<ids>) {}`` line is converted from its step
head, together with the run of such lines after it, each ending in a line
feed, if the next line starts as the next step would.  The line and its
run fill at most one block: one regex ``findall``, one comprehension into
``Step``s, and one check that the ids count on, that each step names a
premise and that each premise comes before its step.  Only a line whose
step head names ``res`` looks at the next line, so other lines cost
nothing more.

A ``<id> <rule> (<ints>) {<term>[ <index>]}`` line for a ``CnfPayload``
rule is read without the lexer if the term's text, with each bracket
padded by a space, is a key of the problem's term memo
(``frontend.read_term``).  The term holds only symbol characters, brackets
and spaces, so the padded text equals a key only when lexing the term
gives exactly that key's lexemes, and the full reader would find the same
key: a hit equals a full read.

An ``euf`` or ``lia`` line with no ``;`` is cut at its last ``) (just (``
or ``) (farkas (``.  The proof group after the cut is converted by
``split`` once it fullmatches a flat regex of its grammar (``refl`` left
out).  Only the ``(lemma ...)`` group before it is lexed, and it must be
one list; ``parse_literal`` reads it.  A hit equals a full read, as the
full reader finds the same lexemes.  Ids, premises, grammar and ``cong``
names are checked before a term is read, and a lemma that raises goes to
the full reader, which raises the same error on the same store (interning
is idempotent).  A converted group is kept by its text for one
certificate, as ``decls`` never rebinds a ``cong`` name.  Any other line,
and any line that fails a check, goes through the full reader, which alone
reports errors.

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
# The text that ends the lemma before an euf or lia proof group, and a flat
# regex of the group, compiled by re on first use so that import skips it.
_INT = "-?[0-9]+"
_EQ_STEP = rf"\((?:hyp {_INT}|sym {_INT}|trans {_INT} {_INT}|cong [{_SYM}]+(?: {_INT})*)\)"
_PAIR = rf"\({_INT} {_INT}\)"
_PROOF_GROUP = {EufPayload: (") (just (", rf"\(just ({_EQ_STEP}(?: {_EQ_STEP})*)\)\}}"),
                LiaPayload: (") (farkas (", rf"\(farkas ({_PAIR}(?: {_PAIR})*)\)( tighten)?\}}")}
RULE_BY_NAME = {r.value: r for r in RuleKind}
_BB_RULES = frozenset(r for r, entry in RULES.items() if entry.payload is BvPayload)
_RES = RuleKind.RES  # an Enum member lookup costs about 150 ns
# The argument count of each justification rule but cong, and its error.
_EQ_ARITY = {"refl": (1, "refl takes one term"), "sym": (1, "sym takes one index"),
             "trans": (2, "trans takes two indices"), "hyp": (1, "hyp takes one literal index")}


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
    or a ``bb_*`` step reaches it through premises.  A step names only
    earlier steps as premises (``kernel.check`` rejects any other), so one
    backward pass over the steps, in id order, marks the live ones.  Input
    ids stay fixed (a step with an input id is dropped), as does a premise
    naming no step; kept steps are renumbered densely in their order.

    For a certificate whose empty clause is derived in the qed step's cone
    (every certificate this package emits), a VALID or TRUSTED verdict is
    unchanged.  An INVALID one can become VALID: a dropped step that the
    kernel rejects, or whose clause names an aux variable that a later
    ``bb_*`` step declares fresh, no longer spoils the run.
    """
    if cert.qed is None:
        return cert
    live, kept = {cert.qed}, []
    for step in reversed(cert.steps):
        if step.id >= n_inputs and (step.id in live or step.rule in _BB_RULES):
            kept.append(step)
            live.update(step.premises)
    kept.reverse()
    remap = {step.id: n_inputs + k for k, step in enumerate(kept)}
    steps = tuple(Step(remap[s.id], s.rule, tuple(remap.get(p, p) for p in s.premises),
                       s.payload) for s in kept)
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


def _tagged(lex: Lexemes, items: list[int], groups: tuple[str, ...],
            flags: tuple[str, ...]) -> dict[str, int | None]:
    """Split payload items into named groups (name -> index) plus bare
    flags (name -> None).  A group not named in ``groups``, a flag not in
    ``flags`` and a repeated name are each a ParseError at their item."""
    words, out = lex.words, {}
    for k in items:
        if words[k] not in _OPENING:
            name, value, known = words[k], None, flags
        elif words[k] != "(" or words[k + 1] in _BRACKETS:
            raise lex.error(k, "malformed payload group")
        else:
            name, value, known = words[k + 1], k, groups
        if name not in known:
            raise lex.error(k, f"unexpected payload item {name}")
        if name in out:
            raise lex.error(k, f"repeated payload item {name}")
        out[name] = value
    return out


def _parse_eqstep(problem: Problem, lex: Lexemes, k: int) -> EqStep:
    words = lex.words
    if words[k] != "(" or words[k + 1] in _BRACKETS:
        raise lex.error(k, "malformed justification step")
    head, *rest = lex.items(k)
    head = words[head]
    if head == "cong":
        if not rest or words[rest[0]] in _OPENING:
            raise lex.error(k, "cong takes a function name and indices")
        decl = problem.decls.get(words[rest[0]])
        if decl is None or decl[0] == "var":
            raise lex.error(rest[0], f"unknown function {words[rest[0]]}")
        return EqStep(EqRule.CONG, fun=decl[1],
                      refs=tuple(parse_int(lex, r) for r in rest[1:]))
    if head not in _EQ_ARITY:
        raise lex.error(k, f"unknown justification rule {head}")
    if len(rest) != _EQ_ARITY[head][0]:
        raise lex.error(k, _EQ_ARITY[head][1])
    if head == "refl":
        return EqStep(EqRule.REFL, term=read_term(problem, lex, rest[0]))
    refs = tuple(parse_int(lex, r) for r in rest)
    return EqStep(EqRule.HYP, hyp=refs[0]) if head == "hyp" else EqStep(EqRule(head), refs=refs)


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
        euf = payload_type is EufPayload
        proof = "just" if euf else "farkas"
        groups = _tagged(lex, items, ("lemma", proof), () if euf else ("tighten",))
        lemma_grp, proof_grp = groups.get("lemma"), groups.get(proof)
        if lemma_grp is None or proof_grp is None:
            raise lex.error(at, f"{rule.value} payload needs (lemma ...) and ({proof} ...)")
        lemma = _parse_clause(problem, lex, lex.items(lemma_grp)[1:], at)
        if euf:
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


def _line_step(raw: str, head: re.Match | None, rule: RuleKind | None, next_id: int,
               problem: Problem, groups: dict[str, object]) -> Step | None:
    """The step of a line of the CNF, euf or lia shape (module docstring)
    whose ``_STEP_HEAD`` match is head and rule rule, or None.  groups maps
    the proof group texts read in this certificate to their parts."""
    kind = RULES[rule].payload if rule in RULES else None  # rule None: no match
    if kind is CnfPayload:
        term = _ONE_TERM.fullmatch(raw, head.end())
        if (target := term and problem.term_memo.get(
                term[1].replace("(", "( ").replace(")", " )"))) is None:
            return None
    elif kind in _PROOF_GROUP and ";" not in raw:
        cut = raw.rfind(_PROOF_GROUP[kind][0], head.end())
        text = raw[cut + 2:]
        if cut < 0 or not (proof := groups.get(text) or _proof_group(text, kind, problem)):
            return None
        groups[text] = proof
    else:
        return None
    try:
        step_id, premises = int(head[1]), tuple(map(int, head[3].split()))
        index = int(term[2] or 0) if kind is CnfPayload else 0
    except ValueError:  # past CPython's digit limit for int-string conversion
        return None
    if step_id != next_id or (premises and max(premises) >= step_id):
        return None
    if kind is CnfPayload:
        return Step(step_id, rule, premises, CnfPayload(target, index))
    try:  # the lemma group alone, read as the full reader reads it
        lex = Lexemes(raw[head.end():cut + 1])
        if lex.words[:2] != ["(", "lemma"] or lex.close[0] != len(lex.words) - 1:
            return None
        lemma = _parse_clause(problem, lex, lex.items(0)[1:], None)
    except ParseError:
        return None
    return Step(step_id, rule, premises, kind(lemma, *proof))


def _proof_group(text: str, kind: type, problem: Problem) -> tuple | None:
    """The payload fields after the lemma of an euf or lia proof group's text,
    or None if it is outside ``_PROOF_GROUP`` or a ``cong`` names no function."""
    found = re.fullmatch(_PROOF_GROUP[kind][1], text)
    if found is None:
        return None
    entries, steps = [entry.split() for entry in found[1][1:-1].split(") (")], []
    try:
        if kind is LiaPayload:
            return tuple((int(i), int(c)) for i, c in entries), found[2] is not None
        for name, *args in entries:
            decl = problem.decls.get(args.pop(0)) if name == "cong" else (None, None)
            if decl is None or decl[0] == "var":
                return None
            refs = tuple(map(int, args))
            steps.append(EqStep(EqRule.HYP, hyp=refs[0]) if name == "hyp"
                         else EqStep(EqRule(name), refs=refs, fun=decl[1]))
    except ValueError:  # past CPython's digit limit for int-string conversion
        return None
    return (tuple(steps),)


def _blocks(text: str, problem: Problem):
    """Generator: the certificate's steps in lists of at most ``_RUN_LINES``,
    each read in full before it is yielded, and the last one once the qed
    line and the rest of the text are read as well; it returns the qed id.
    A block is yielded only when the next step or run would overflow it."""
    block: list[Step] = []
    groups: dict[str, object] = {}  # proof group text -> its parts, see _line_step
    qed: int | None = None
    next_id = len(problem.input_clauses)
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
            step = _line_step(raw, head, rule, next_id, problem, groups)
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
                step = _read_step(problem, lex, items, lineno, next_id)
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


def _read_step(problem: Problem, lex: Lexemes, items: list[int], lineno: int,
               next_id: int) -> Step:
    """The step of a lexed line other than qed, read in full."""
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
    return Step(step_id, rule, premises, parse_payload(problem, rule, lex, items[3], None))


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
