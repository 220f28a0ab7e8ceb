"""The main checker: replays a linear certificate against a clause store.

Input clauses seed slots 0..k-1; each step is dispatched to its small
checker and whatever clause that checker returns is stored at the step's
slot, rejected material included (rejections come back as the trivially
true clause and can never strengthen the derivation).  The run succeeds
when some stored clause is empty: Valid if no assume step was replayed,
Trusted otherwise.  The ``CheckResult`` holds the assumed clauses verbatim,
the number of stored clauses of each rule and the length of the longest,
but no copy of the clause store.  Structural violations — bad ids, forward
references, payload/rule mismatches, a field of a type or length no reader
builds (a float where an int is read) — stop the run as Invalid at the
offending step, as does a rejected step whose payload declared a specific
conclusion.
Every small checker rejects by returning the ``TRIVIALLY_TRUE`` object
itself, never an equal copy, so ``conclusion is TRIVIALLY_TRUE`` with a
lemma other than [true] means exactly that the step was rejected.

Small checkers are total over any integers in a payload and test a clause
the payload declares with ``terms.well_formed``, so any ``Certificate`` is
checked soundly and its reader, ``preproc.parse_certificate``, is untrusted.

A run is strictly sequential; distinct runs share nothing mutable.

How each rule is replayed is decided in one place, the ``RULES`` registry.
Adding a rule means adding its ``RuleKind`` and one ``RULES`` entry: payload
type and small checker.  A Tseitin-style CNF rule needs only
a head kind and literal template in ``resolution.TSEITIN``, from which its
entry is made; a bit-blasting rule needs one ``bitblast.BLASTERS`` row for
its target kind and the entry ``_bb(Kind.X)``.  ``certkernel.preproc`` parses
and ``certkernel.printer`` prints a payload by its type, so only a new payload
type needs new certificate syntax.  Nothing here renders text.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from typing import NamedTuple

from . import bitblast, euf, lia, resolution
from .bitblast import BitBlastState, BvPayload
from .euf import EufPayload
from .lia import LiaPayload
from .resolution import CnfPayload
from .steps import AssumePayload, Certificate, RuleKind
from .terms import Clause, Kind, TRIVIALLY_TRUE, TermStore, class_eq, well_formed


class Verdict(Enum):
    VALID = "VALID"
    INVALID = "INVALID"
    TRUSTED = "TRUSTED"


@class_eq
class CheckResult(NamedTuple):
    verdict: Verdict
    reason: str | None = None
    step_id: int | None = None
    assumptions: tuple[Clause, ...] = ()
    stats: tuple[tuple[str, int], ...] = ()
    widest: int = 0


class CheckContext:
    """Mutable state of one replay: the term store plus bit-blast maps."""

    def __init__(self, store: TermStore):
        self.store, self.bitblast = store, BitBlastState()


@class_eq
class Rule(NamedTuple):
    """How the main checker replays one rule: a step must carry a
    ``payload`` instance, and ``checker(ctx, premises, payload)`` is the
    small checker.  The payload type says the rest.  A type with a
    ``lemma`` names the intended conclusion, so a rejection stops the run
    as Invalid; a ``BvPayload`` checker reads the aux-freshness registry,
    so the clauses stored since the last scan are walked before it runs.
    """

    payload: type
    checker: Callable[[CheckContext, list[Clause], object], Clause]


def _cnf(rule: RuleKind) -> Rule:
    return Rule(CnfPayload,
                lambda ctx, premises, p: resolution.cnf_lemma(ctx.store, rule, p))


def _bb(kind: Kind) -> Rule:
    return Rule(BvPayload,
                lambda ctx, premises, p: bitblast.bb_step(ctx.store, ctx.bitblast, p, kind))


RULES: dict[RuleKind, Rule] = {
    RuleKind.RES: Rule(type(None),
                       lambda ctx, premises, p: resolution.resolve_chain(premises)),
    **{rule: _cnf(rule) for rule in resolution.TSEITIN},
    RuleKind.EUF: Rule(EufPayload,
                       lambda ctx, premises, p: euf.check_euf(ctx.store, p)),
    RuleKind.LIA: Rule(LiaPayload,
                       lambda ctx, premises, p: lia.check_lia(ctx.store, p)),
    RuleKind.BB_VAR: _bb(Kind.VAR),
    RuleKind.BB_CONST: _bb(Kind.BV_CONST),
    RuleKind.BB_NOT: _bb(Kind.BV_NOT),
    RuleKind.BB_AND: _bb(Kind.BV_AND),
    RuleKind.BB_OR: _bb(Kind.BV_OR),
    RuleKind.BB_XOR: _bb(Kind.BV_XOR),
    RuleKind.BB_ADD: _bb(Kind.BV_ADD),
    RuleKind.BB_EQ: _bb(Kind.EQ),
    RuleKind.BB_ULT: _bb(Kind.BV_ULT),
    RuleKind.ASSUME: Rule(AssumePayload, lambda ctx, premises, p:
                          p.lemma if well_formed(ctx.store, p.lemma) else TRIVIALLY_TRUE),
}


def dispatch(ctx: CheckContext, rule: RuleKind, premises: list[Clause],
             payload: object) -> Clause:
    """Route one step to its small checker and return its conclusion.

    Total given a payload of the matching type: small checkers signal
    rejection by returning the trivially true clause.
    """
    return RULES[rule].checker(ctx, premises, payload)


def check(store: TermStore, input_clauses, cert: Certificate) -> CheckResult:
    """Replay a certificate over the input clauses and decide the verdict.

    ``cert.steps`` is read once, in order, and only as far as replay goes:
    a tuple, or an iterator that reads the certificate as it is consumed
    (``preproc.stream_certificate``).  Replay stops at the first stored
    empty clause.  Deterministic: identical inputs produce identical results.
    """
    clauses: list[Clause] = list(input_clauses)
    slot = clauses.__getitem__
    ctx = CheckContext(store)
    assumptions: list[Clause] = []
    assume = RuleKind.ASSUME
    # A variable is "used" for aux freshness the moment a clause reaching it
    # is stored; the walk waits for a bit-blasting step, and each node
    # lands in ctx.bitblast.used_vars, where no later walk enters it again.
    scanned = 0

    counts = {RuleKind.INPUT: len(clauses)}  # rules of the stored clauses

    def result(verdict, reason=None, step_id=None) -> CheckResult:
        stats = tuple((r.value, counts[r]) for r in RuleKind if counts.get(r))
        return CheckResult(verdict, reason, step_id, tuple(assumptions), stats,
                           max(map(len, clauses), default=0))

    def finish():
        return result(Verdict.TRUSTED if assumptions else Verdict.VALID)

    if not all(clauses):
        return finish()

    for step_id, rule, ps, payload in cert.steps:
        if step_id != len(clauses):
            return result(Verdict.INVALID,
                          f"step id {step_id}, expected {len(clauses)}", step_id)
        try:  # a field no reader builds (1.0, None, "res", (0,)) fails here
            if ps and (min(ps) < 0 or max(ps) >= step_id):
                return result(Verdict.INVALID, "bad premise reference", step_id)
            entry = RULES.get(rule)
            if entry is None or not isinstance(payload, entry.payload):
                return result(Verdict.INVALID,
                              f"payload does not match rule {rule.value}", step_id)

            if entry.payload is BvPayload:
                used = ctx.bitblast.used_vars
                used.update(store.postorder(
                    (code >> 1 for clause in clauses[scanned:] for code in clause), used))
                scanned = len(clauses)

            conclusion = dispatch(ctx, rule, list(map(slot, ps)), payload)
        except (TypeError, AttributeError, ValueError):
            return result(Verdict.INVALID, "malformed step", step_id)

        if conclusion is TRIVIALLY_TRUE and hasattr(entry.payload, "lemma") \
                and payload.lemma != TRIVIALLY_TRUE:
            return result(Verdict.INVALID,
                          f"{rule.value} checker rejected the step", step_id)

        if rule is assume:
            assumptions.append(conclusion)
        clauses.append(conclusion)
        counts[rule] = counts.get(rule, 0) + 1  # Counter's += costs 3 times as much
        if not conclusion:
            return finish()

    return result(Verdict.INVALID, "empty clause not derived")
