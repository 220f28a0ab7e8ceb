"""Bit-blasting small checkers: bit-vector terms to per-bit Boolean formulas.

Each mapped bit-vector term gets a list of Bool-sorted bit formulas, least
significant bit first.  Variables get fresh Boolean variables, constants get
true/false, operations combine operand bits pointwise; addition threads a
ripple carry through fresh auxiliary variables.  Steps that define something
(variable/constant/operation maps) return the trivially true clause, except
that addition returns a unit clause linking its carry variables to their
definitions; bb_eq and bb_ult return unit clauses linking the word-level
atom to its bit-level formula.  Those link clauses are definitional
extensions over fresh variables, so the resulting clause set is
equisatisfiable with the input, and the ordinary CNF and resolution rules
decompose them.

Boolean constants are folded away while combining bit formulas (for example
and(x, true) becomes x); without that, clauses mentioning the false constant
positively could never be discharged by the propositional rules.
"""

from __future__ import annotations

from typing import NamedTuple

from .steps import RuleKind
from .terms import (
    BOOL, BitVecSort, Clause, Kind, TRIVIALLY_TRUE, TermId, TermStore,
    class_eq, mk_clause, pos,
)


@class_eq
class BvPayload(NamedTuple):
    """Step-local data: the term being blasted and, for bb_var/bb_add, the
    fresh Boolean variables naming its bits or carries."""

    target: TermId
    aux: tuple[TermId, ...] = ()


class BitBlastState:
    """Per-run map from bit-vector terms to their bit formulas, plus the
    registry enforcing freshness of auxiliary variables.

    ``used_vars`` holds every node reached by the first ``scanned`` clauses
    of ``clauses``, the replay's clause list (only read here), plus the
    registered auxiliaries.  An aux check walks the clauses stored since, so
    an aux variable is fresh iff it is not in the set; no node is entered twice.
    """

    def __init__(self, clauses=()):
        self.bits: dict[TermId, tuple[TermId, ...]] = {}
        self.used_vars: set[TermId] = set()
        self.clauses, self.scanned = clauses, 0

    def note_used(self, var_ids) -> None:
        self.used_vars.update(var_ids)


# -- constant-folding term builders -----------------------------------------

# Reading an Enum member off its class costs about 150 ns; builders read these.
_NOT, _AND, _OR, _XOR, _IFF = Kind.NOT, Kind.AND, Kind.OR, Kind.XOR, Kind.IFF


def _fnot(store: TermStore, a: TermId) -> TermId:
    if a == store.true_id:
        return store.false_id
    if a == store.false_id:
        return store.true_id
    return store.intern(_NOT, (a,))


def _fjunction(store: TermStore, kind: Kind, args) -> TermId:
    """``kind`` (AND or OR) of args: the unit drops out, the absorbing constant wins."""
    unit, absorbing = ((store.true_id, store.false_id) if kind is _AND
                       else (store.false_id, store.true_id))
    kept = []
    for a in args:
        if a == absorbing:
            return absorbing
        if a != unit:
            kept.append(a)
    if len(kept) < 2:
        return kept[0] if kept else unit
    return store.intern(kind, kept)


def _fparity(store: TermStore, kind: Kind, a: TermId, b: TermId) -> TermId:
    """``kind`` (XOR or IFF) of a and b: the unit (false for xor, true for
    iff) gives the other side, and the other constant its negation."""
    unit, other = ((store.false_id, store.true_id) if kind is _XOR
                   else (store.true_id, store.false_id))
    if a == unit:
        return b
    if b == unit:
        return a
    if a == other:
        return _fnot(store, b)
    if b == other:
        return _fnot(store, a)
    return store.intern(kind, (a, b))


def _fresh_bool_vars(store: TermStore, state: BitBlastState, aux, t: TermId) -> bool:
    """aux holds one distinct, fresh Bool variable per bit of t."""
    sort = store.sort_of(t)
    if not isinstance(sort, BitVecSort) or len(aux) != sort.width \
            or len(set(aux)) != sort.width:
        return False
    used, new = state.used_vars, state.clauses[state.scanned:]
    state.scanned += len(new)
    used.update(store.postorder((code >> 1 for clause in new for code in clause), used))
    for v in aux:
        if not (0 <= v < len(store)):
            return False
        if store.kind(v) is not Kind.VAR or store.sort_of(v) != BOOL:
            return False
        if v in used:
            return False
    return True


# -- the builders and the one small checker -----------------------------------

def _pointwise(op):
    return lambda store, t, xs, aux: (tuple(op(store, column) for column in zip(*xs)), None)


def _blast_add(store: TermStore, t: TermId, xs, carries):
    """Map an addition through a ripple-carry chain of fresh variables.

    Bit i of the sum is xor(xor(a_i, b_i), c_i).  The link defines the
    carries: c_0 is false and c_{i+1} = or(and(a_i, b_i), and(xor(a_i, b_i),
    c_i)).  Subsequent CNF and resolution steps decompose that definition.
    """
    a_bits, b_bits = xs
    defs = [_fnot(store, carries[0])]
    for i in range(1, len(carries)):
        a, b, c = a_bits[i - 1], b_bits[i - 1], carries[i - 1]
        carry_def = _fjunction(store, _OR, [
            _fjunction(store, _AND, [a, b]),
            _fjunction(store, _AND, [_fparity(store, _XOR, a, b), c]),
        ])
        defs.append(_fparity(store, _IFF, carries[i], carry_def))
    bits = tuple(_fparity(store, _XOR, _fparity(store, _XOR, a, b), c)
                 for a, b, c in zip(a_bits, b_bits, carries))
    return bits, _fjunction(store, _AND, defs)


def _blast_eq(store: TermStore, t: TermId, xs, aux):
    """Link a bit-vector equality atom to bitwise agreement."""
    agree = _fjunction(store, _AND, [_fparity(store, _IFF, a, b) for a, b in zip(*xs)])
    return None, _fparity(store, _IFF, t, agree)


def _blast_ult(store: TermStore, t: TermId, xs, aux):
    """Link an unsigned-less-than atom to the lexicographic comparison of the
    operand bits, most significant bit first."""
    lb, rb = xs
    formula = _fjunction(store, _AND, [_fnot(store, lb[0]), rb[0]])
    for i in range(1, len(lb)):
        formula = _fjunction(store, _OR, [
            _fjunction(store, _AND, [_fnot(store, lb[i]), rb[i]]),
            _fjunction(store, _AND, [_fparity(store, _IFF, lb[i], rb[i]), formula]),
        ])
    return None, _fparity(store, _IFF, t, formula)


# Target kind -> (its rule, whose kernel.RULES entry is made from this row;
# takes one fresh aux variable per bit; builder).  A builder gets the store,
# the target, its operands' bit tuples and the aux variables, and returns the
# target's bits (None for a Bool atom) and a Bool formula that the step
# asserts as a unit clause (None for none).  bb_step has checked all it uses.
BLASTERS = {
    Kind.VAR: (RuleKind.BB_VAR, True, lambda store, t, xs, aux: (tuple(aux), None)),
    Kind.BV_CONST: (RuleKind.BB_CONST, False, lambda store, t, xs, aux: (tuple(
        store.true_id if b else store.false_id for b in store.node(t).extra), None)),
    Kind.BV_NOT: (RuleKind.BB_NOT, False, _pointwise(lambda s, col: _fnot(s, col[0]))),
    Kind.BV_AND: (RuleKind.BB_AND, False, _pointwise(lambda s, col: _fjunction(s, _AND, col))),
    Kind.BV_OR: (RuleKind.BB_OR, False, _pointwise(lambda s, col: _fjunction(s, _OR, col))),
    Kind.BV_XOR: (RuleKind.BB_XOR, False, _pointwise(lambda s, col: _fparity(s, _XOR, *col))),
    Kind.BV_ADD: (RuleKind.BB_ADD, True, _blast_add),
    Kind.EQ: (RuleKind.BB_EQ, False, _blast_eq),
    Kind.BV_ULT: (RuleKind.BB_ULT, False, _blast_ult),
}


def bb_step(store: TermStore, state: BitBlastState, payload: BvPayload,
            kind: Kind) -> Clause:
    """The small checker of every bb_* rule; ``kind`` is the rule's target kind.

    The target must be a valid, not yet mapped id of that kind, its operands
    must map to bits of one width, and a builder that takes aux variables
    needs a bit-vector target and one fresh Bool variable per bit.  Then the
    builder of ``BLASTERS`` maps the target's bits and yields the link
    formula, if any, as a unit clause.  Any failed check yields [true].
    """
    t = payload.target
    if not (0 <= t < len(store)) or store.kind(t) is not kind or t in state.bits:
        return TRIVIALLY_TRUE
    xs = [state.bits.get(a) for a in store.args(t)]
    if None in xs or len({len(bits) for bits in xs}) > 1:
        return TRIVIALLY_TRUE
    _, takes_aux, build = BLASTERS[kind]
    aux = payload.aux if takes_aux else ()
    if takes_aux and not _fresh_bool_vars(store, state, aux, t):
        return TRIVIALLY_TRUE
    bits, link = build(store, t, xs, aux)
    if bits is not None:
        state.bits[t] = bits
    state.note_used(aux)
    return TRIVIALLY_TRUE if link is None else mk_clause(store, [pos(link)])
