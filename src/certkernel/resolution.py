"""Propositional small checkers: resolution chains and CNF-conversion lemmas.

Both checkers are total.  When no valid inference exists they return the
trivially true clause instead of failing, so a corrupted step can never
contribute anything stronger than a tautology.  A resolution step of two
premises works on their sorted code tuples; a longer one reads its
premises in one pass over one running set of literals.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .steps import RuleKind
from .terms import BOOL, Clause, Kind, TRIVIALLY_TRUE, TermId, TermStore, class_eq, mk_clause


# The longest first premise of a two-premise step that is searched as a
# tuple: a scan of a short tuple is cheaper than hashing it into a set.
_SHORT = 8


def resolve_chain(premises: Sequence[Clause]) -> Clause:
    """Resolve the premises left to right, each on its smallest atom of
    opposite polarity in the resolvent so far.

    One positive pivot occurrence goes from the side that has it and one
    negative occurrence from the other; a side carrying both polarities of
    the pivot keeps its second occurrence, so tautological inputs stay
    tautological rather than collapsing unsoundly.  A premise without a
    pivot makes the resolvent the trivially true clause, ``TRIVIALLY_TRUE``
    itself if it is the last.  A single premise returns itself.

    Two premises whose first is short are resolved on their code tuples,
    which are strictly increasing (as every clause the readers and checkers
    build); longer steps keep one running set, so that no step costs more
    than linear time in its literals.
    """
    if len(premises) < 2:
        return premises[0] if premises else TRIVIALLY_TRUE
    if len(premises) == 2 and len(premises[0]) <= _SHORT:
        a, b = premises
        # Codes are sorted, so the first complement hit has the smallest atom.
        for code in b:
            if code ^ 1 in a:
                break
        else:
            return TRIVIALLY_TRUE
        mine, theirs = code & ~1, code | 1
        if mine not in a or theirs not in b:
            mine, theirs = theirs, mine
        i, j = a.index(mine), b.index(theirs)
        a, b = a[:i] + a[i + 1:], b[:j] + b[j + 1:]
        # A side left empty (a unit premise) leaves the other side's sorted rest.
        return Clause(a if not b else b if not a else sorted({*a, *b}))
    running, trivial = set(premises[0]), False
    for clause in premises[1:]:
        # Encoded literals are sorted, so the first complement hit has the
        # smallest atom.
        for code in clause:
            if code ^ 1 in running:
                break
        else:
            running, trivial = {0}, True
            continue
        # Drop the positive pivot from the resolvent and the negative one
        # from the premise if both are there, else the other way round.
        mine, theirs, other, trivial = code & ~1, code | 1, set(clause), False
        if mine not in running or theirs not in other:
            mine, theirs = theirs, mine
        running.discard(mine)
        other.discard(theirs)
        running |= other
    return TRIVIALLY_TRUE if trivial else Clause(sorted(running))


@class_eq
class CnfPayload(NamedTuple):
    """Target term of a Tseitin lemma plus the projection index used by
    and_pos/or_neg (and the direction selector of not_not)."""

    target: TermId
    index: int = 0


# rule -> (head kind, literal templates).  A template lists signed
# references: t is the target, 0/1/2 its arguments by position, i the
# argument the payload index selects, * every argument in order.  A rule
# with several templates (not_not) takes the one its index selects.  An i
# stands last in its template, so an index out of range rejects the step
# before any argument's sort is tested.
TSEITIN = {
    RuleKind.AND_POS: (Kind.AND, "-t +i"),
    RuleKind.AND_NEG: (Kind.AND, "+t -*"),
    RuleKind.OR_POS: (Kind.OR, "-t +*"),
    RuleKind.OR_NEG: (Kind.OR, "+t -i"),
    RuleKind.IMP_POS: (Kind.IMPLIES, "-t -0 +1"),
    RuleKind.IMP_NEG1: (Kind.IMPLIES, "+t +0"),
    RuleKind.IMP_NEG2: (Kind.IMPLIES, "+t -1"),
    RuleKind.XOR_POS1: (Kind.XOR, "-t +0 +1"),
    RuleKind.XOR_POS2: (Kind.XOR, "-t -0 -1"),
    RuleKind.XOR_NEG1: (Kind.XOR, "+t +0 -1"),
    RuleKind.XOR_NEG2: (Kind.XOR, "+t -0 +1"),
    RuleKind.ITE_POS1: (Kind.ITE, "-t +0 +2"),
    RuleKind.ITE_POS2: (Kind.ITE, "-t -0 +1"),
    RuleKind.ITE_NEG1: (Kind.ITE, "+t +0 -2"),
    RuleKind.ITE_NEG2: (Kind.ITE, "+t -0 -1"),
    RuleKind.IFF_POS1: (Kind.IFF, "-t -0 +1"),
    RuleKind.IFF_POS2: (Kind.IFF, "-t +0 -1"),
    RuleKind.IFF_NEG1: (Kind.IFF, "+t +0 +1"),
    RuleKind.IFF_NEG2: (Kind.IFF, "+t -0 -1"),
    # index 0 links t=not(a) downward, index 1 upward.
    RuleKind.NOT_NOT: (Kind.NOT, "-t -0", "+t +0"),
}


def _compiled(template: str) -> tuple[tuple[int, str | int], ...]:
    """A template as (negated, ref) pairs: negated is 1 for a "-" reference,
    and ref is "t", "i", "*" or an argument position as an int."""
    return tuple((int(sign == "-"), ref if ref in ("t", "i", "*") else int(ref))
                 for sign, ref in ((r[0], r[1:]) for r in template.split()))


# TSEITIN compiled once, at import: rule -> (head kind, compiled templates).
_COMPILED = {rule: (head, tuple(map(_compiled, templates)))
             for rule, (head, *templates) in TSEITIN.items()}


def cnf_lemma(store: TermStore, rule: RuleKind, payload: CnfPayload) -> Clause:
    """Emit the Tseitin lemma clause for one connective occurrence.

    Every clause this returns is a propositional tautology linking the
    target term t to its immediate arguments.  Head/kind mismatches and
    out-of-range indices yield the trivially true clause.  The template's
    literal codes, 2 * atom + negated, go to ``mk_clause``, which raises
    ``SortError`` at an argument that is not Bool-sorted.
    """
    entry = _COMPILED.get(rule)
    if entry is None:
        return TRIVIALLY_TRUE
    head, templates = entry
    t = payload.target
    if not (0 <= t < len(store)) or store.kind(t) is not head:
        return TRIVIALLY_TRUE
    if store.sort_of(t) != BOOL:
        return TRIVIALLY_TRUE
    args = store.args(t)
    i = payload.index
    if len(templates) == 1:
        template = templates[0]
    elif 0 <= i < len(templates):
        template = templates[i]
    else:
        return TRIVIALLY_TRUE
    codes = []
    for negated, ref in template:
        if ref == "t":
            codes.append(2 * t + negated)
            continue
        if ref == "*":
            atoms = args
        elif ref != "i":
            atoms = (args[ref],)
        elif 0 <= i < len(args):
            atoms = (args[i],)
        else:
            return TRIVIALLY_TRUE
        for a in atoms:
            codes.append(2 * a + negated)
    return mk_clause(store, codes)
