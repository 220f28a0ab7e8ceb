"""Small checker for linear integer arithmetic lemmas.

A lemma is certified by refutation: negate each of its literals, normalize
the negations into integer rows (using a > b  <=>  a >= b + 1), then form a
non-negative combination of the rows.  The lemma is accepted exactly when
the combination collapses to an unsatisfiable ground fact such as 0 >= 1.
A row is (coeffs, constant, is_eq), stating sum(coeffs[x] * x) >= constant
(= when is_eq), with coeffs the dict its terms are summed in (zeros skipped).
An optional tightening pass divides rows by the gcd of their coefficients
and rounds the constant up, which is what certifies divisibility conflicts
like not(2x = 1).

All arithmetic is arbitrary precision; there is no overflow path.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import NamedTuple

from .terms import (
    Clause, INT, Kind, TRIVIALLY_TRUE, TermId, TermStore, class_eq, well_formed,
)


@class_eq
class LiaPayload(NamedTuple):
    """Farkas certificate: for each combination entry, the lemma literal
    index whose negation supplies the row and an integer multiplier.
    Multipliers must be non-negative except on equality rows, where the sign
    selects the row's direction.  ``tighten`` turns on gcd tightening."""

    lemma: Clause
    combination: tuple[tuple[int, int], ...]
    tighten: bool = False


def _linearize(store: TermStore, sides) -> tuple[dict[TermId, int], int] | None:
    """Coefficients and constant of the sum of mult * term over (term, mult),
    or None for a nonlinear product.

    Multipliers flow from each node to its arguments in descending id order,
    so every parent has passed its share before a node is visited, and a
    shared subterm is visited once with its total multiplier.  A product
    needs an integer literal factor.  Any Int term that is not an arithmetic
    node (variables, applications, if-then-else) acts as an opaque variable;
    nodes reached only through one get no multiplier and are skipped.
    """
    mults: defaultdict[TermId, int] = defaultdict(int)
    for t, m in sides:
        mults[t] += m
    coeffs: dict[TermId, int] = {}
    constant = 0
    node = store.node
    for t in reversed(store.postorder(mults)):
        m = mults.get(t)
        if m is None:
            continue
        k, args, value = node(t)
        if k is Kind.INT_CONST:
            constant += m * value
        elif k is Kind.ADD:
            for a in args:
                mults[a] += m
        elif k is Kind.SUB:
            mults[args[0]] += m
            mults[args[1]] -= m
        elif k is Kind.NEG:
            mults[args[0]] -= m
        elif k is Kind.MUL:
            a, b = args if store.kind(args[0]) is Kind.INT_CONST else args[::-1]
            if store.kind(a) is not Kind.INT_CONST:
                return None
            mults[b] += m * node(a).extra
        else:
            coeffs[t] = m
    return coeffs, constant


# (atom kind, literal polarity) -> (side a, side b, bound, is_eq): the
# literal holds iff  arg[a] - arg[b] >= bound  (= bound when is_eq) over the
# integers, with strict and negated comparisons tightened by integrality
# (a > b is a >= b + 1).  A negated equality has no row: it needs a case
# split.
_ROWS = {
    (Kind.LE, True): (1, 0, 0, False),   # l <= r      ==>  r - l >= 0
    (Kind.LE, False): (0, 1, 1, False),  # not(l <= r) ==>  l - r >= 1
    (Kind.LT, True): (1, 0, 1, False),   # l < r       ==>  r - l >= 1
    (Kind.LT, False): (0, 1, 0, False),  # not(l < r)  ==>  l - r >= 0
    (Kind.EQ, True): (0, 1, 0, True),    # l = r       ==>  l - r = 0
}


def normalize_lia_literal(store: TermStore, code: int) -> tuple[dict, int, bool] | None:
    """The row of the signed linear comparison that the literal code
    ``code`` (2 * atom + negated) states, read from ``_ROWS``.

    None for non-comparisons, nonlinear atoms and integer disequalities,
    which require a case split upstream.
    """
    atom = code >> 1
    shape = _ROWS.get((store.kind(atom), not code & 1))
    if shape is None:
        return None
    args = store.args(atom)
    if store.sort_of(args[0]) != INT:
        return None
    a, b, bound, is_eq = shape
    linear = _linearize(store, [(args[a], 1), (args[b], -1)])
    if linear is None:
        return None
    return linear[0], bound - linear[1], is_eq


def _tighten(coeffs: dict[TermId, int], constant: int) -> tuple[dict[TermId, int], int]:
    """Divide a >= row by the gcd of its coefficients, ceiling the constant."""
    g = math.gcd(*coeffs.values())  # 0 for no or only zero coefficients
    if g <= 1:
        return coeffs, constant
    return {v: c // g for v, c in coeffs.items()}, -((-constant) // g)


def check_lia(store: TermStore, payload: LiaPayload) -> Clause:
    """Validate a Farkas certificate; return the lemma on success.

    Each combination entry scales one hypothesis row: negated lemma literal
    of that index, normalized, with negative multipliers allowed only to
    flip equality rows.  When tightening is on, every contributed >= row and
    the final sum are gcd-tightened.  Accepts only a ground contradiction
    0 >= k with k >= 1 (all-zero multipliers sum to 0 >= 0).  A lemma
    that is not ``terms.well_formed`` is rejected, and a multiplier that is
    not an ``int`` (a float rounds) raises TypeError: a malformed step.
    """
    lemma = payload.lemma
    if not payload.combination or not well_formed(store, lemma):
        return TRIVIALLY_TRUE
    rows = [normalize_lia_literal(store, code ^ 1) for code in lemma]
    if None in rows:
        return TRIVIALLY_TRUE

    total: dict[TermId, int] = {}
    total_const = 0
    for idx, mult in payload.combination:
        if not (0 <= idx < len(rows)):
            return TRIVIALLY_TRUE
        if mult.__class__ is not int:
            raise TypeError(f"multiplier {mult!r} is not an int")
        if mult == 0:
            continue
        coeffs, constant, is_eq = rows[idx]
        if mult < 0:  # an equality row, read in the <= direction
            if not is_eq:
                return TRIVIALLY_TRUE
            coeffs, constant, mult = {v: -c for v, c in coeffs.items()}, -constant, -mult
        # Every contribution is used as a >= row (an equality supplies the
        # direction chosen by the multiplier's sign).
        if payload.tighten:
            coeffs, constant = _tighten(coeffs, constant)
        for v, c in coeffs.items():
            total[v] = total.get(v, 0) + mult * c
        total_const += mult * constant

    if payload.tighten:
        total, total_const = _tighten(total, total_const)
    if any(c != 0 for c in total.values()) or total_const < 1:
        return TRIVIALLY_TRUE
    return lemma
