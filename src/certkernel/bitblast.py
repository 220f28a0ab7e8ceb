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

from dataclasses import dataclass, field

from .terms import (
    BOOL, BitVecSort, Clause, Kind, TRIVIALLY_TRUE, TermId, TermStore,
    mk_clause, pos,
)


@dataclass(frozen=True, slots=True)
class BvPayload:
    """Step-local data: the term being blasted and, for bb_var/bb_add, the
    fresh Boolean variables naming its bits or carries."""

    target: TermId
    aux: tuple[TermId, ...] = ()


@dataclass
class BitBlastState:
    """Per-run map from bit-vector terms to their bit formulas, plus the
    registry enforcing freshness of auxiliary variables.

    ``used_vars`` accumulates every variable seen so far in the run: input
    clause variables, variables of stored step conclusions, and registered
    auxiliaries.  An aux variable is fresh iff it is not in this set.
    """

    bits: dict[TermId, tuple[TermId, ...]] = field(default_factory=dict)
    used_vars: set[TermId] = field(default_factory=set)

    def note_used(self, var_ids) -> None:
        self.used_vars.update(var_ids)


# -- constant-folding term builders -----------------------------------------

def _fnot(store: TermStore, a: TermId) -> TermId:
    if a == store.true_id:
        return store.false_id
    if a == store.false_id:
        return store.true_id
    return store.not_(a)


def _fand(store: TermStore, args) -> TermId:
    kept = []
    for a in args:
        if a == store.false_id:
            return store.false_id
        if a != store.true_id:
            kept.append(a)
    if not kept:
        return store.true_id
    if len(kept) == 1:
        return kept[0]
    return store.and_(kept)


def _for(store: TermStore, args) -> TermId:
    kept = []
    for a in args:
        if a == store.true_id:
            return store.true_id
        if a != store.false_id:
            kept.append(a)
    if not kept:
        return store.false_id
    if len(kept) == 1:
        return kept[0]
    return store.or_(kept)


def _fxor(store: TermStore, a: TermId, b: TermId) -> TermId:
    if a == store.false_id:
        return b
    if b == store.false_id:
        return a
    if a == store.true_id:
        return _fnot(store, b)
    if b == store.true_id:
        return _fnot(store, a)
    return store.xor(a, b)


def _fiff(store: TermStore, a: TermId, b: TermId) -> TermId:
    if a == store.true_id:
        return b
    if b == store.true_id:
        return a
    if a == store.false_id:
        return _fnot(store, b)
    if b == store.false_id:
        return _fnot(store, a)
    return store.iff(a, b)


def _fresh_bool_vars(store: TermStore, state: BitBlastState, aux, width: int) -> bool:
    if len(aux) != width or len(set(aux)) != width:
        return False
    for v in aux:
        if not (0 <= v < len(store)):
            return False
        if store.kind(v) is not Kind.VAR or store.sort_of(v) != BOOL:
            return False
        if v in state.used_vars:
            return False
    return True


# -- the small checkers ------------------------------------------------------

def bb_var(store: TermStore, state: BitBlastState, payload: BvPayload) -> Clause:
    """Name the bits of a bit-vector variable with fresh Boolean variables."""
    t = payload.target
    if not (0 <= t < len(store)) or store.kind(t) is not Kind.VAR:
        return TRIVIALLY_TRUE
    sort = store.sort_of(t)
    if not isinstance(sort, BitVecSort) or t in state.bits:
        return TRIVIALLY_TRUE
    if not _fresh_bool_vars(store, state, payload.aux, sort.width):
        return TRIVIALLY_TRUE
    state.bits[t] = tuple(payload.aux)
    state.note_used(payload.aux)
    return TRIVIALLY_TRUE


def bb_const(store: TermStore, state: BitBlastState, payload: BvPayload) -> Clause:
    """Map a bit-vector constant to true/false bit terms, LSB first."""
    t = payload.target
    if not (0 <= t < len(store)) or store.kind(t) is not Kind.BV_CONST:
        return TRIVIALLY_TRUE
    if t in state.bits:
        return TRIVIALLY_TRUE
    bits = store.node(t).extra
    state.bits[t] = tuple(store.true_id if b else store.false_id for b in bits)
    return TRIVIALLY_TRUE


_BITWISE = {
    Kind.BV_NOT: lambda store, xs: _fnot(store, xs[0]),
    Kind.BV_AND: lambda store, xs: _fand(store, xs),
    Kind.BV_OR: lambda store, xs: _for(store, xs),
    Kind.BV_XOR: lambda store, xs: _fxor(store, xs[0], xs[1]),
}


def bb_bitwise(store: TermStore, state: BitBlastState, payload: BvPayload,
               kind: Kind) -> Clause:
    """Map a bitwise operation of the given kind to the pointwise combination
    of operand bits; a target of any other kind is rejected."""
    t = payload.target
    if not (0 <= t < len(store)) or store.kind(t) is not kind:
        return TRIVIALLY_TRUE
    op = _BITWISE.get(kind)
    if op is None or t in state.bits:
        return TRIVIALLY_TRUE
    operand_bits = []
    for a in store.args(t):
        if a not in state.bits:
            return TRIVIALLY_TRUE
        operand_bits.append(state.bits[a])
    width = store.width_of(t)
    if any(len(bits) != width for bits in operand_bits):
        return TRIVIALLY_TRUE
    state.bits[t] = tuple(
        op(store, [bits[i] for bits in operand_bits]) for i in range(width))
    return TRIVIALLY_TRUE


def bb_add(store: TermStore, state: BitBlastState, payload: BvPayload) -> Clause:
    """Map an addition through a ripple-carry chain of fresh variables.

    Bit i of the sum is xor(xor(a_i, b_i), c_i).  The returned unit clause
    defines the carries: c_0 is false and c_{i+1} = or(and(a_i, b_i),
    and(xor(a_i, b_i), c_i)).  Subsequent CNF and resolution steps decompose
    that definition clause.
    """
    t = payload.target
    if not (0 <= t < len(store)) or store.kind(t) is not Kind.BV_ADD:
        return TRIVIALLY_TRUE
    if t in state.bits:
        return TRIVIALLY_TRUE
    l, r = store.args(t)
    if l not in state.bits or r not in state.bits:
        return TRIVIALLY_TRUE
    width = store.width_of(t)
    a_bits, b_bits = state.bits[l], state.bits[r]
    if len(a_bits) != width or len(b_bits) != width:
        return TRIVIALLY_TRUE
    carries = payload.aux
    if not _fresh_bool_vars(store, state, carries, width):
        return TRIVIALLY_TRUE

    defs = [_fnot(store, carries[0])]
    for i in range(1, width):
        a, b, c = a_bits[i - 1], b_bits[i - 1], carries[i - 1]
        carry_def = _for(store, [
            _fand(store, [a, b]),
            _fand(store, [_fxor(store, a, b), c]),
        ])
        defs.append(_fiff(store, carries[i], carry_def))
    state.bits[t] = tuple(
        _fxor(store, _fxor(store, a_bits[i], b_bits[i]), carries[i])
        for i in range(width))
    state.note_used(carries)
    return mk_clause(store, [pos(_fand(store, defs))])


def bb_eq(store: TermStore, state: BitBlastState, payload: BvPayload) -> Clause:
    """Unit clause linking a bit-vector equality atom to bitwise agreement."""
    t = payload.target
    if not (0 <= t < len(store)) or store.kind(t) is not Kind.EQ:
        return TRIVIALLY_TRUE
    l, r = store.args(t)
    if not isinstance(store.sort_of(l), BitVecSort):
        return TRIVIALLY_TRUE
    if l not in state.bits or r not in state.bits:
        return TRIVIALLY_TRUE
    lb, rb = state.bits[l], state.bits[r]
    if len(lb) != len(rb):
        return TRIVIALLY_TRUE
    agree = _fand(store, [_fiff(store, a, b) for a, b in zip(lb, rb)])
    return mk_clause(store, [pos(_fiff(store, t, agree))])


def bb_ult(store: TermStore, state: BitBlastState, payload: BvPayload) -> Clause:
    """Unit clause linking an unsigned-less-than atom to the lexicographic
    comparison of the operand bits, most significant bit first."""
    t = payload.target
    if not (0 <= t < len(store)) or store.kind(t) is not Kind.BV_ULT:
        return TRIVIALLY_TRUE
    l, r = store.args(t)
    if l not in state.bits or r not in state.bits:
        return TRIVIALLY_TRUE
    lb, rb = state.bits[l], state.bits[r]
    if len(lb) != len(rb):
        return TRIVIALLY_TRUE
    formula = _fand(store, [_fnot(store, lb[0]), rb[0]])
    for i in range(1, len(lb)):
        formula = _for(store, [
            _fand(store, [_fnot(store, lb[i]), rb[i]]),
            _fand(store, [_fiff(store, lb[i], rb[i]), formula]),
        ])
    return mk_clause(store, [pos(_fiff(store, t, formula))])
