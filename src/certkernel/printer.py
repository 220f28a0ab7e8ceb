"""Text output: terms, clauses, certificates, DIMACS problems, and the CLI's
check results and oracle models.  Nothing here decides a verdict, so it is
not part of the trusted base, and no trusted module imports it.
"""

from __future__ import annotations

from .bitblast import BvPayload
from .euf import EqRule, EufPayload
from .lia import LiaPayload
from .resolution import TSEITIN, CnfPayload
from .steps import AssumePayload, Certificate, RuleKind
from .terms import Clause, Kind, TermId, TermStore

# Rules whose payload index changes the lemma, and so is printed.
INDEXED = frozenset(
    rule for rule, (_, *templates) in TSEITIN.items()
    if len(templates) > 1 or "i" in templates[0])


def _value(v) -> str:
    """SMT-LIB text of a Bool, a bit tuple (LSB first) or an integer."""
    if isinstance(v, tuple):
        return "#b" + "".join("1" if b else "0" for b in reversed(v))
    if v is True or v is False:
        return "true" if v else "false"
    return str(v)


def to_sexpr(store: TermStore, t: TermId) -> str:
    """SMT-LIB style concrete syntax; parseable back by the frontend.

    The text expands shared subterms, so it is emitted from an explicit
    stack of ids and closing parentheses, in time linear in its length.
    """
    node_of = store.node
    out: list[str] = []
    stack: list[TermId | str] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node = node_of(item)
        k = node.kind
        if k is Kind.EQ:
            # Encoded uninterpreted predicates print as their application:
            # (= (p x) $tt) is exactly what the frontend parses (p x) into,
            # and $-names are reserved for that encoding.
            lhs, rhs = (node_of(a) for a in node.args)
            if rhs.kind is Kind.VAR and rhs.extra[0] == "$tt" and lhs.kind is Kind.APPLY:
                stack.append(node.args[0])
                continue
        if k is Kind.VAR:
            out.append(node.extra[0])
        elif k is Kind.INT_CONST:
            v = node.extra
            out.append(str(v) if v >= 0 else f"(- {-v})")
        elif k is Kind.BV_CONST:
            out.append(_value(node.extra))
        elif k is Kind.TRUE or k is Kind.FALSE:
            out.append(_value(k is Kind.TRUE))
        else:
            head = (node.extra.name if k is Kind.APPLY else "=" if k is Kind.IFF
                    else "-" if k is Kind.NEG else k.value)
            out.append(f"({head} ")
            stack.append(")")
            for a in reversed(node.args[1:]):
                stack += (a, " ")
            stack.extend(node.args[:1])
    return "".join(out)


def clause_to_sexpr(store: TermStore, clause: Clause) -> str:
    """Literal-per-element notation: ``(not <atom>)`` marks negative literals."""
    parts = []
    for code in clause:
        atom = to_sexpr(store, code >> 1)
        parts.append(atom if (code & 1) == 0 else f"(not {atom})")
    return " ".join(parts)


def print_dimacs(problem) -> str:
    """Canonical DIMACS text; an exact inverse of parse_dimacs on its output.
    Each literal's numeral is the name of its atom, v<numeral>, without the v."""
    node = problem.store.node
    lines = [f"p cnf {problem.dimacs_header_vars} {len(problem.input_clauses)}"]
    for clause in problem.input_clauses:
        row = [("-" if code & 1 else "") + node(code >> 1).extra[0][1:] for code in clause]
        lines.append(" ".join(row + ["0"]))
    return "\n".join(lines) + "\n"


def _group(tag: str, body: str) -> str:
    return f"({tag} {body})" if body else f"({tag})"


def _render_payload(store: TermStore, rule: RuleKind, payload) -> str:
    """The brace contents of one step, in the syntax of the payload's type."""
    if payload is None:
        return ""
    kind = type(payload)
    if kind is CnfPayload or kind is BvPayload:
        body = to_sexpr(store, payload.target)
        if kind is CnfPayload:
            return body + (f" {payload.index}" if rule in INDEXED else "")
        names = " ".join(store.node(v).extra[0] for v in payload.aux)
        return body + (f" (aux {names})" if payload.aux else "")
    if kind is EufPayload or kind is LiaPayload:
        lemma = _group("lemma", clause_to_sexpr(store, payload.lemma))
        if kind is LiaPayload:
            farkas = " ".join(f"({i} {c})" for i, c in payload.combination)
            return f"{lemma} {_group('farkas', farkas)}" + (" tighten" if payload.tighten else "")
        just = []
        for s in payload.justification:  # (refl t) (hyp i) (cong f j*) (sym j) (trans j k)
            args = ([to_sexpr(store, s.term)] if s.rule is EqRule.REFL
                    else [str(s.hyp)] if s.rule is EqRule.HYP
                    else [s.fun.name] if s.rule is EqRule.CONG else [])
            just.append(_group(s.rule.value, " ".join(args + [str(r) for r in s.refs])))
        return f"{lemma} {_group('just', ' '.join(just))}"
    if kind is AssumePayload:
        return clause_to_sexpr(store, payload.lemma)
    raise ValueError(f"cannot render a {kind.__name__} payload of rule {rule}")


def print_certificate(store: TermStore, cert: Certificate) -> str:
    """Canonical certificate text; parse_certificate inverts it exactly."""
    lines = []
    for step in cert.steps:
        prem = " ".join(str(p) for p in step.premises)
        payload = _render_payload(store, step.rule, step.payload)
        lines.append(f"{step.id} {step.rule.value} ({prem}) {{{payload}}}")
    if cert.qed is not None:
        lines.append(f"qed {cert.qed}")
    return "\n".join(lines) + "\n"


def _where(result) -> str:
    return f" (step {result.step_id})" if result.step_id is not None else ""


def _assumed(store: TermStore, result) -> list[str]:
    return [clause_to_sexpr(store, clause) for clause in result.assumptions]


def stats_report(store: TermStore, result) -> str:
    """Human-readable run report: verdict, rule histogram, store shape."""
    lines = [f"verdict: {result.verdict.value}"]
    if result.reason:
        lines.append(f"reason: {result.reason}{_where(result)}")
    lines.append(f"clauses stored: {len(result.clauses)}")
    lines.append(f"max clause width: {max(map(len, result.clauses), default=0)}")
    lines.append("rule counts:")
    lines += [f"  {name} {count}" for name, count in result.stats]
    if result.assumptions:
        lines.append("assumptions:")
        lines += [f"  {text}" for text in _assumed(store, result)]
    return "\n".join(lines) + "\n"


def machine_record(store: TermStore, result) -> str:
    """The ``--machine`` record: ``key value`` lines in a fixed order."""
    lines = [f"verdict {result.verdict.value}"]
    if result.reason is not None:
        lines.append(f"reason {result.reason}")
    if result.step_id is not None:
        lines.append(f"failed-step {result.step_id}")
    lines.append(f"steps {sum(n for name, n in result.stats if name != 'input')}")
    lines += [f"rule {name} {count}" for name, count in result.stats]
    lines += [f"assume {text}" for text in _assumed(store, result)]
    return "\n".join(lines) + "\n"


def plain_record(store: TermStore, result) -> str:
    """The default report: the verdict, and the assumptions or the reason."""
    verdict = result.verdict.value
    if verdict == "VALID":
        return "VALID\n"
    if verdict == "TRUSTED":
        lines = [f"TRUSTED: {len(result.assumptions)} assumption(s)"]
        lines += [f"  assume: {text}" for text in _assumed(store, result)]
        return "\n".join(lines) + "\n"
    return f"INVALID: {result.reason}{_where(result)}\n"


def oracle_report(store: TermStore, res) -> str:
    """The ``--mode oracle`` report: the status, then a model by name."""
    lines = [f"status {res.status}" + ("" if res.complete else " bounded")]
    model = res.witness
    if model is not None:
        named = sorted((store.node(tid).extra[0], value) for tid, value in model.values.items())
        lines += [f"model {name} {_value(value)}" for name, value in named]
    return "\n".join(lines) + "\n"
