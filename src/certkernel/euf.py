"""Small checker for ground equality lemmas (congruence closure replay).

A lemma clause has one positive equality (its conclusion) and any number
of negated equalities (its hypotheses).  The payload carries a step-by-step
justification over five primitive rules; the checker replays it and accepts
only when the final step derives exactly the conclusion pair, either way
around.  No search, no rewriting: conclusion matching is by term id.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import SortError
from .terms import Clause, FunSym, Kind, TRIVIALLY_TRUE, TermId, TermStore, class_eq, well_formed


class EqRule(Enum):
    REFL = "refl"
    SYM = "sym"
    TRANS = "trans"
    CONG = "cong"
    HYP = "hyp"


@class_eq
class EqStep(NamedTuple):
    """One justification step.

    refl carries the term it reflects; sym/trans/cong reference earlier
    step indices; hyp imports a negated-equality literal of the lemma by
    its index in the canonical clause order.
    """

    rule: EqRule
    term: TermId | None = None
    refs: tuple[int, ...] = ()
    fun: FunSym | None = None
    hyp: int | None = None


@class_eq
class EufPayload(NamedTuple):
    lemma: Clause
    justification: tuple[EqStep, ...]


def _lemma_shape(store: TermStore, lemma: Clause):
    """The lemma's conclusion: the atom of its one positive literal, when
    every literal is an equality; otherwise None."""
    conclusion = None
    for code in lemma:
        atom = code >> 1
        if store.kind(atom) is not Kind.EQ:
            return None
        if code & 1 == 0:
            if conclusion is not None:
                return None
            conclusion = atom
    return conclusion


def check_euf(store: TermStore, payload: EufPayload) -> Clause:
    """Replay the justification; return the lemma on success.

    Total: any malformed lemma (``terms.well_formed`` or its shape),
    dangling reference, middle-term mismatch in a transitivity step, arity
    error, or wrong final pair yields the trivially true clause instead.
    """
    lemma = payload.lemma
    conclusion = _lemma_shape(store, lemma) if well_formed(store, lemma) else None
    if conclusion is None:
        return TRIVIALLY_TRUE

    derived: list[tuple[TermId, TermId]] = []
    for step in payload.justification:
        if step.rule is EqRule.REFL:
            t = step.term
            if t is None or not (0 <= t < len(store)):
                return TRIVIALLY_TRUE
            pair = (t, t)
        elif step.rule is EqRule.SYM:
            if len(step.refs) != 1 or not (0 <= step.refs[0] < len(derived)):
                return TRIVIALLY_TRUE
            a, b = derived[step.refs[0]]
            pair = (b, a)
        elif step.rule is EqRule.TRANS:
            if len(step.refs) != 2:
                return TRIVIALLY_TRUE
            i, j = step.refs
            if not (0 <= i < len(derived) and 0 <= j < len(derived)):
                return TRIVIALLY_TRUE
            a, b = derived[i]
            b2, c = derived[j]
            if b != b2:
                return TRIVIALLY_TRUE
            pair = (a, c)
        elif step.rule is EqRule.CONG:
            fn = step.fun
            if fn is None or len(step.refs) != len(fn.arg_sorts):
                return TRIVIALLY_TRUE
            if any(not (0 <= r < len(derived)) for r in step.refs):
                return TRIVIALLY_TRUE
            us = tuple(derived[r][0] for r in step.refs)
            vs = tuple(derived[r][1] for r in step.refs)
            try:
                pair = (store.apply(fn, us), store.apply(fn, vs))
            except SortError:
                return TRIVIALLY_TRUE
        elif step.rule is EqRule.HYP:
            k = step.hyp
            if k is None or not (0 <= k < len(lemma)) or not lemma[k] & 1:
                return TRIVIALLY_TRUE
            pair = store.args(lemma[k] >> 1)
        else:  # pragma: no cover - exhaustive over EqRule
            return TRIVIALLY_TRUE
        derived.append(pair)

    if not derived:
        return TRIVIALLY_TRUE
    l, r = store.args(conclusion)
    if derived[-1] in ((l, r), (r, l)):
        return lemma
    return TRIVIALLY_TRUE
