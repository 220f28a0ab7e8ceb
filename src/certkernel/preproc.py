"""Untrusted preprocessor: nested proofs to linear certificates, plus
certificate compaction and trust-obligation extraction.

Nothing the kernel decides depends on code in this module.  A buggy
transformation here can only produce certificates the kernel rejects;
it cannot make an invalid derivation check out.

Nested proofs are trees in a small s-expression syntax::

    (step <rule> (<premise>*) {<payload>})
    (let ((<name> <proof>)) <proof>)
    (ref <name>)

A step premise is an input clause id (integer), a bound lemma name, or an
inline sub-proof.  Names must be bound before use and never shadowed.
Linearization emits each let-bound lemma once, at its binding site, so the
output certificate is linear in the size of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, UnboundNameError
from .frontend import (
    Problem, SList, Token, parse_int, parse_payload, read_sexprs,
)
from .kernel import RULES
from .steps import Certificate, RULE_BY_NAME, RuleKind, Step
from .terms import Clause


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
    module-level function, not a closure: a closure that calls itself is a
    reference cycle, which only the cyclic collector frees."""
    if isinstance(node, NRef):
        if node.name not in env:
            raise UnboundNameError(f"unbound lemma name {node.name}")
        return env[node.name]
    if isinstance(node, NLet):
        if node.name in env:
            raise UnboundNameError(f"lemma name {node.name} is shadowed")
        bound_id = _emit(node.bound, env, steps, n_inputs)
        return _emit(node.body, {**env, node.name: bound_id}, steps, n_inputs)
    if isinstance(node, NStep):
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
        step_id = n_inputs + len(steps)
        steps.append(Step(step_id, node.rule, tuple(premises), node.payload))
        return step_id
    raise UnboundNameError(f"not a proof node: {node!r}")


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
            assumed.append(step.payload.clause)
            origins.append(f"step {step.id}")
    return TrustReport(tuple(assumed), tuple(origins))


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

def _convert(problem: Problem, sx) -> NestedProof:
    if isinstance(sx, Token):
        raise ParseError(f"expected a proof node, got {sx.text!r}", sx.line, sx.col)
    items = sx.items
    if not items or not isinstance(items[0], Token):
        raise ParseError("malformed proof node", sx.line, sx.col)
    head = items[0].text
    if head == "ref":
        if len(items) != 2 or not isinstance(items[1], Token):
            raise ParseError("ref takes one name", sx.line, sx.col)
        return NRef(items[1].text)
    if head == "let":
        if len(items) != 3 or not isinstance(items[1], SList):
            raise ParseError("malformed let", sx.line, sx.col)
        body = _convert(problem, items[2])
        for binding in reversed(items[1].items):
            if not (isinstance(binding, SList) and len(binding.items) == 2
                    and isinstance(binding.items[0], Token)):
                raise ParseError("malformed let binding", sx.line, sx.col)
            body = NLet(binding.items[0].text,
                        _convert(problem, binding.items[1]), body)
        return body
    if head == "step":
        if len(items) != 4 or not isinstance(items[1], Token) \
                or not isinstance(items[2], SList) or items[2].bracket != "(" \
                or not isinstance(items[3], SList) or items[3].bracket != "{":
            raise ParseError("expected (step <rule> (<premises>) {<payload>})",
                             sx.line, sx.col)
        rule = RULE_BY_NAME.get(items[1].text)
        if rule not in RULES:
            raise ParseError(f"unknown rule {items[1].text}",
                             items[1].line, items[1].col)
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
        return NStep(rule, tuple(premises), payload)
    raise ParseError(f"unknown proof node {head}", sx.line, sx.col)


def parse_nested_proof(text: str, problem: Problem) -> NestedProof:
    """Parse one nested proof expression against a parsed problem."""
    items = read_sexprs(text)
    if len(items) != 1:
        raise ParseError("expected exactly one proof expression", 1, 1)
    try:
        return _convert(problem, items[0])
    except RecursionError:
        raise ParseError("proof nested too deeply", items[0].line, items[0].col) from None
