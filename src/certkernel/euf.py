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
        rule = step.rule
        if rule is EqRule.REFL:
            t = step.term
            if t is None or not (0 <= t < len(store)):
                return TRIVIALLY_TRUE
            derived.append((t, t))
            continue
        if rule is EqRule.HYP:
            k = step.hyp
            if k is None or not (0 <= k < len(lemma)) or not lemma[k] & 1:
                return TRIVIALLY_TRUE
            derived.append(store.args(lemma[k] >> 1))
            continue
        # sym, trans and cong name earlier steps: their count first, then each one
        refs, fn = step.refs, step.fun
        arity = 1 if rule is EqRule.SYM else 2 if rule is EqRule.TRANS else \
            len(fn.arg_sorts) if rule is EqRule.CONG and fn is not None else None
        if arity is None or len(refs) != arity or not all(0 <= r < len(derived) for r in refs):
            return TRIVIALLY_TRUE
        pairs = [derived[r] for r in refs]
        if rule is EqRule.SYM:
            derived.append(pairs[0][::-1])
        elif rule is EqRule.TRANS:
            (a, b), (b2, c) = pairs
            if b != b2:
                return TRIVIALLY_TRUE
            derived.append((a, c))
        else:
            try:
                derived.append((store.apply(fn, [u for u, _ in pairs]),
                                store.apply(fn, [v for _, v in pairs])))
            except SortError:
                return TRIVIALLY_TRUE

    if not derived:
        return TRIVIALLY_TRUE
    l, r = store.args(conclusion)
    if derived[-1] in ((l, r), (r, l)):
        return lemma
    return TRIVIALLY_TRUE
